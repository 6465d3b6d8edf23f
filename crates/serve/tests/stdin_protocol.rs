//! End-to-end tests of the `pex-serve` binary over its stdin/stdout
//! transport: real process, real pipes, real JSON-lines framing.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

fn spawn(args: &[&str]) -> (Child, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pex-serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn pex-serve");
    let reader = BufReader::new(child.stdout.take().expect("stdout piped"));
    (child, reader)
}

fn send(child: &mut Child, line: &str) {
    let stdin = child.stdin.as_mut().expect("stdin piped");
    writeln!(stdin, "{line}").expect("write request");
    stdin.flush().expect("flush request");
}

fn recv(reader: &mut BufReader<ChildStdout>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "server closed stdout unexpectedly");
    line.trim_end().to_owned()
}

fn wait_exit(mut child: Child) -> i32 {
    // The process must exit promptly once stdin is closed; don't hang the
    // test suite if it regresses.
    for _ in 0..100 {
        if let Some(status) = child.try_wait().expect("wait on child") {
            return status.code().expect("exit code");
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    child.kill().ok();
    panic!("pex-serve did not exit within 10s of stdin EOF");
}

#[test]
fn answers_a_well_formed_query_with_a_ranked_completion() {
    let (mut child, mut reader) = spawn(&["paint", "--workers", "2"]);
    send(&mut child, r#"{"id":1,"query":"?({img, size})","limit":3}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"id\":1"), "{resp}");
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(
        resp.contains("ResizeDocument(img, size, 0, 0)"),
        "the paper's #1 completion must appear: {resp}"
    );
    drop(child.stdin.take()); // EOF begins the graceful drain
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn malformed_requests_get_an_error_response_not_a_crash() {
    let (mut child, mut reader) = spawn(&["paint"]);
    send(&mut child, "this is not json");
    let resp = recv(&mut reader);
    assert!(resp.contains("\"error\":\"bad_request\""), "{resp}");
    // The process is still alive and serving.
    send(&mut child, r#"{"id":2,"cmd":"ping"}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"pong\":true"), "{resp}");
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn over_deep_json_is_a_bad_request_not_a_crash() {
    let (mut child, mut reader) = spawn(&["paint", "--workers", "1"]);
    send(&mut child, &"[".repeat(200_000));
    let resp = recv(&mut reader);
    assert!(resp.contains("\"error\":\"bad_request\""), "{resp}");
    assert!(resp.contains("nested too deeply"), "{resp}");
    // Exactly one error line, then the daemon keeps serving.
    send(&mut child, r#"{"id":2,"cmd":"ping"}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"id\":2"), "{resp}");
    assert!(resp.contains("\"pong\":true"), "{resp}");
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn raw_control_character_in_a_string_is_one_bad_request() {
    let (mut child, mut reader) = spawn(&["paint", "--workers", "1"]);
    // RFC 8259 requires a tab inside a JSON string to be escaped.
    send(
        &mut child,
        "{\"id\":1,\"query\":\"?({img,\tsize})\",\"limit\":3}",
    );
    let resp = recv(&mut reader);
    assert!(resp.contains("\"error\":\"bad_request\""), "{resp}");
    assert!(resp.contains("unescaped control character"), "{resp}");
    // Exactly one error line, then the next line is answered.
    send(&mut child, r#"{"id":2,"cmd":"ping"}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"id\":2"), "{resp}");
    assert!(resp.contains("\"pong\":true"), "{resp}");
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn over_deep_update_source_is_a_parse_error_not_a_crash() {
    let (mut child, mut reader) = spawn(&["paint", "--workers", "1"]);
    send(&mut child, r#"{"id":1,"query":"?({img, size})","limit":3}"#);
    let before = recv(&mut reader);
    let n = 100_000;
    let parens = format!("{}0{}", "(".repeat(n), ")".repeat(n));
    let chain = format!("this{}", ".F".repeat(n));
    for (id, expr) in [(2, parens), (3, chain)] {
        let source = format!(
            "namespace PaintDotNet {{ class Deep {{ Deep F; int M() {{ return {expr}; }} }} }}"
        );
        send(
            &mut child,
            &format!(r#"{{"id":{id},"cmd":"update","source":"{source}"}}"#),
        );
        let resp = recv(&mut reader);
        assert!(resp.contains("\"error\":\"parse_error\""), "{resp}");
        assert!(resp.contains("nests deeper than 128"), "{resp}");
    }
    // Still serving, with unchanged answers.
    send(&mut child, r#"{"id":1,"query":"?({img, size})","limit":3}"#);
    let completions = |r: &str| r[r.find("\"completions\"").expect(r)..].to_owned();
    assert_eq!(completions(&recv(&mut reader)), completions(&before));
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn update_cannot_redeclare_a_builtin_or_declare_a_type_twice() {
    let (mut child, mut reader) = spawn(&["paint", "--workers", "1"]);
    for (id, source) in [
        (1, "namespace System { class Object { int Hidden; } }"),
        (
            2,
            "namespace PaintDotNet { class Twice { } class Twice { } }",
        ),
    ] {
        send(
            &mut child,
            &format!(r#"{{"id":{id},"cmd":"update","source":"{source}"}}"#),
        );
        let resp = recv(&mut reader);
        assert!(resp.contains("\"ok\":false"), "{resp}");
        assert!(resp.contains("is already declared"), "{resp}");
    }
    // Neither rejected update moved the tenant: the next accepted edit
    // is its first generation.
    let source = "namespace PaintDotNet { class Fresh { int X; } }";
    send(
        &mut child,
        &format!(r#"{{"id":3,"cmd":"update","source":"{source}"}}"#),
    );
    let resp = recv(&mut reader);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"generation\":1"), "{resp}");
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn over_long_lines_answer_request_too_large_and_resync() {
    let (mut child, mut reader) = spawn(&["paint", "--workers", "1"]);
    // Twice the daemon's 1 MiB line cap: one error line, no id (the line
    // is never parsed), then the next line is served normally.
    let huge = format!(r#"{{"id":1,"query":"{}"}}"#, "x".repeat(2 << 20));
    send(&mut child, &huge);
    let resp = recv(&mut reader);
    assert!(
        resp.starts_with("{\"ok\":false,\"error\":\"request_too_large\""),
        "{resp}"
    );
    send(&mut child, r#"{"id":2,"cmd":"ping"}"#);
    assert_eq!(recv(&mut reader), r#"{"id":2,"ok":true,"pong":true}"#);
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn zero_deadline_is_reported_as_a_degraded_deadline_outcome() {
    let (mut child, mut reader) = spawn(&["paint"]);
    send(&mut child, r#"{"id":3,"query":"?","deadline_ms":0}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("\"outcome\":\"deadline\""), "{resp}");
    assert!(resp.contains("\"degraded\":true"), "{resp}");
    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn shutdown_command_drains_and_exits_zero() {
    let (mut child, mut reader) = spawn(&["paint"]);
    send(&mut child, r#"{"id":1,"cmd":"shutdown"}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"shutdown\":true"), "{resp}");
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn unknown_flags_exit_2_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_pex-serve"))
        .arg("--definitely-not-a-flag")
        .output()
        .expect("run pex-serve");
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag"), "{err}");
    assert!(err.contains("USAGE"), "{err}");
}
