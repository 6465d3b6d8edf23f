//! Drives the `pex-repl` binary over stdin: `:at M k` must rank with the
//! abstract types of the program minus the code at and after statement `k`
//! of `M` (paper §5), not with the whole body.

use std::io::Write;
use std::process::{Command, Stdio};

/// `Run`'s only statement passes its parameter `x` to `Close`, which
/// puts `x` and `Close`'s parameter in one abstract class. `Open` is the
/// same shape and is never called, so the `a` term alone can tell the
/// two completions of `?({x})` apart.
const PROGRAM: &str = r#"
namespace T {
    class Path { }
    class Lib {
        static void Open(T.Path p);
        static void Close(T.Path p);
    }
    class Client {
        static void Run(T.Path x) {
            T.Lib.Close(x);
        }
    }
}
"#;

/// Runs the REPL on [`PROGRAM`] (written to a file named after `tag`)
/// with `input` on stdin; returns stdout.
fn repl(tag: &str, input: &str) -> String {
    let path = std::env::temp_dir().join(format!("pex-repl-{tag}-{}.mcs", std::process::id()));
    std::fs::write(&path, PROGRAM).expect("write program");
    let mut child = Command::new(env!("CARGO_BIN_EXE_pex-repl"))
        .arg(&path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn pex-repl");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(input.as_bytes())
        .expect("write input");
    let out = child.wait_with_output().expect("pex-repl exits");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "pex-repl failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The `a` cell of the `:explain` row ending in `completion`.
fn abstract_term(out: &str, completion: &str) -> u32 {
    let row = out
        .lines()
        .find(|l| l.ends_with(completion))
        .unwrap_or_else(|| panic!("no `{completion}` row in:\n{out}"));
    // Row: total, then the terms n s d m t a, then the completion.
    let cells: Vec<&str> = row.split_whitespace().collect();
    cells[6]
        .parse()
        .unwrap_or_else(|_| panic!("bad row `{row}`"))
}

#[test]
fn at_hides_statements_after_the_cursor_from_abstract_types() {
    let out = repl("cursor", ":at T.Client.Run 0\n:explain ?({x})\n:quit\n");
    assert!(out.contains("before statement 0"), "{out}");
    // Before statement 0 nothing ties `x` to `Close`'s parameter.
    assert_eq!(abstract_term(&out, "T.Lib.Close(x)"), 1, "{out}");
    assert_eq!(abstract_term(&out, "T.Lib.Open(x)"), 1, "{out}");
}

#[test]
fn at_the_end_of_the_body_sees_every_statement() {
    let out = repl("end", ":at T.Client.Run\n:explain ?({x})\n:quit\n");
    assert!(out.contains("before statement 1"), "{out}");
    assert_eq!(abstract_term(&out, "T.Lib.Close(x)"), 0, "{out}");
    assert_eq!(abstract_term(&out, "T.Lib.Open(x)"), 1, "{out}");
}
