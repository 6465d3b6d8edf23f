//! `pex-repl` — interactive partial-expression completion.
//!
//! The paper's future work is an IDE plugin; this REPL is the command-line
//! equivalent: load a program (a builtin corpus or a mini-C# file), declare
//! some locals, and type queries.
//!
//! ```console
//! $ cargo run --bin pex-repl                      # mini Paint.NET
//! $ cargo run --bin pex-repl -- geometry
//! $ cargo run --bin pex-repl -- path/to/code.mcs --local p:Geo.Point
//! pex> ?({img, size})
//! pex> Distance(point, ?)
//! pex> :help
//! ```

use std::io::{BufRead, Write};

use pex::corpus::builtin;
use pex::prelude::*;

/// Writes one line to stdout, treating a closed pipe as a normal exit.
/// `pex-repl | head -1` must end with status 0 once `head` hangs up, not
/// with a broken-pipe panic; any other write failure is a real error (1).
macro_rules! say {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*), true)
    };
}

fn emit(args: std::fmt::Arguments<'_>, newline: bool) {
    let mut out = std::io::stdout().lock();
    let result = out
        .write_fmt(args)
        .and_then(|_| {
            if newline {
                out.write_all(b"\n")
            } else {
                Ok(())
            }
        })
        .and_then(|_| out.flush());
    if let Err(e) = result {
        drop(out);
        exit_for_write_error(&e);
    }
}

fn exit_for_write_error(e: &std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        // The reader went away; everything written so far was delivered.
        std::process::exit(0);
    }
    eprintln!("pex-repl: cannot write to stdout: {e}");
    std::process::exit(1);
}

fn usage_error(msg: &str) -> ! {
    eprintln!("pex-repl: {msg}\n\n{HELP}");
    std::process::exit(2);
}

struct Session {
    db: Database,
    ctx: Context,
    /// The Figure 8 method index, built once per program.
    index: MethodIndex,
    /// Abstract types for the context's method: every other body plus the
    /// statements before the cursor (§5: code after the query is unseen).
    abs: Option<AbsTypes>,
    config: RankConfig,
    count: usize,
    /// Per-query chain-depth cap (`--max-depth` / `:depth`); deeper costs
    /// more latency, the engine's best-first pruning keeps it usable.
    max_depth: usize,
    /// Results of the most recent query (for `:refine N`).
    last: Vec<Completion>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut source_arg: Option<String> = None;
    let mut locals_spec: Vec<String> = Vec::new();
    let mut max_depth = CompleteOptions::default().max_depth;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--local" => {
                i += 1;
                match args.get(i) {
                    Some(spec) => locals_spec.push(spec.clone()),
                    None => usage_error("--local expects a following name:Qualified.Type spec"),
                }
            }
            "--max-depth" => {
                i += 1;
                max_depth = match args.get(i).and_then(|v| v.parse::<usize>().ok()) {
                    Some(n) if n <= MAX_DEPTH_LIMIT => n,
                    Some(n) => usage_error(&format!(
                        "--max-depth {n} exceeds the engine limit of {MAX_DEPTH_LIMIT}"
                    )),
                    None => usage_error("--max-depth expects a following non-negative integer"),
                };
            }
            "--help" | "-h" => {
                say!("{HELP}");
                return;
            }
            other if other.starts_with('-') => usage_error(&format!("unknown flag `{other}`")),
            other => {
                if let Some(prev) = &source_arg {
                    usage_error(&format!(
                        "unexpected extra argument `{other}` (source is already `{prev}`)"
                    ));
                }
                source_arg = Some(other.to_owned());
            }
        }
        i += 1;
    }

    let (db, default_ctx, enclosing) = load(source_arg.as_deref());
    let ctx = if locals_spec.is_empty() {
        default_ctx
    } else {
        build_context(&db, &locals_spec)
    };
    let mut session = Session {
        index: MethodIndex::build(&db),
        abs: enclosing.map(|m| AbsTypes::for_query(&db, m, usize::MAX)),
        db,
        ctx,
        config: RankConfig::all(),
        count: 10,
        max_depth,
        last: Vec::new(),
    };

    say!(
        "pex repl — {} types, {} methods. Type a query, or :help.",
        session.db.types().len(),
        session.db.method_count()
    );
    print_locals(&session);

    let stdin = std::io::stdin();
    loop {
        emit(format_args!("pex> "), false);
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(_) => break,
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix(':') {
            if let Some(query) = rest.strip_prefix("explain ") {
                explain_query(&session, query.trim());
                continue;
            }
            if let Some(n) = rest.strip_prefix("refine ") {
                refine(&mut session, n.trim());
                continue;
            }
            if !command(&mut session, rest) {
                break;
            }
            continue;
        }
        run_query(&mut session, line);
    }
}

fn load(arg: Option<&str>) -> (Database, Context, Option<pex::model::MethodId>) {
    match arg {
        None | Some("paint") => {
            let db = builtin::paint_dot_net();
            let (ctx, m) = builtin::paint_query_site(&db);
            (db, ctx, Some(m))
        }
        Some("geometry") => {
            let db = builtin::dynamic_geometry();
            let ctx = builtin::geometry_fig3_context(&db);
            (db, ctx, None)
        }
        Some("familyshow") => {
            let db = builtin::family_show();
            let ctx = Context::empty();
            (db, ctx, None)
        }
        Some(path) => {
            let source = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(2);
            });
            let db = pex::model::minics::compile(&source).unwrap_or_else(|e| {
                eprintln!("{path}: {e}");
                std::process::exit(2);
            });
            (db, Context::empty(), None)
        }
    }
}

fn build_context(db: &Database, specs: &[String]) -> Context {
    let mut locals = Vec::new();
    for spec in specs {
        let Some((name, ty_name)) = spec.split_once(':') else {
            eprintln!("--local expects name:Qualified.Type, got `{spec}`");
            std::process::exit(2);
        };
        let Some(ty) = db.types().lookup_qualified(ty_name) else {
            eprintln!("unknown type `{ty_name}`");
            std::process::exit(2);
        };
        locals.push(Local {
            name: name.to_owned(),
            ty,
        });
    }
    Context::with_locals(None, locals)
}

fn print_locals(s: &Session) {
    if s.ctx.locals.is_empty() {
        say!("(no locals in scope)");
        return;
    }
    let names: Vec<String> = s
        .ctx
        .locals
        .iter()
        .map(|l| format!("{}: {}", l.name, s.db.types().qualified_name(l.ty)))
        .collect();
    say!("locals: {}", names.join(", "));
}

fn command(s: &mut Session, cmd: &str) -> bool {
    let mut parts = cmd.split_whitespace();
    match parts.next() {
        Some("q" | "quit" | "exit") => return false,
        Some("help") => say!("{HELP}"),
        Some("locals") => print_locals(s),
        Some("n") => {
            if let Some(n) = parts.next().and_then(|v| v.parse().ok()) {
                s.count = n;
                say!("showing top {n}");
            } else {
                say!("usage: :n <count>");
            }
        }
        Some("depth") => match parts.next().and_then(|v| v.parse::<usize>().ok()) {
            Some(n) if n <= MAX_DEPTH_LIMIT => {
                s.max_depth = n;
                say!("chain depth capped at {n} (deeper queries cost more latency)");
            }
            Some(n) => say!("depth {n} exceeds the engine limit of {MAX_DEPTH_LIMIT}"),
            None => say!("usage: :depth <0..={MAX_DEPTH_LIMIT}>"),
        },
        Some("config") => {
            for flag in parts {
                let (on, code) = match flag.split_at(1) {
                    ("+", rest) => (true, rest),
                    ("-", rest) => (false, rest),
                    _ => {
                        say!("usage: :config [+-][nsdmta]...   (e.g. :config -d +t)");
                        continue;
                    }
                };
                for term in RankTerm::ALL {
                    if code == term.code().to_string() {
                        s.config.set(term, on);
                    }
                }
            }
            let active: Vec<String> = RankTerm::ALL
                .iter()
                .filter(|t| s.config.enabled(**t))
                .map(|t| t.code().to_string())
                .collect();
            say!("active terms: {}", active.join(" "));
        }
        Some("abs") => {
            // `:abs [pattern]` — the abstract-type solver's merged classes.
            let pattern = parts.next().unwrap_or("");
            let mut abs = AbsTypes::new(&s.db);
            abs.add_all_bodies_except(&s.db, None);
            let mut shown = 0;
            for class in abs.dump_classes(&s.db) {
                if !pattern.is_empty() && !class.iter().any(|slot| slot.contains(pattern)) {
                    continue;
                }
                say!("  [{}]", class.join(", "));
                shown += 1;
                if shown >= 20 {
                    say!("  ... (more classes; narrow with a pattern)");
                    break;
                }
            }
            if shown == 0 {
                say!("(no multi-slot abstract classes match)");
            }
        }
        Some("at") => {
            // `:at Ns.Type.Method [stmt]` — move the context into a method
            // body (locals live before `stmt`; default: end of body).
            let Some(name) = parts.next() else {
                say!("usage: :at Namespace.Type.Method [stmt-index]");
                return true;
            };
            let Some(method) = s.db.find_method(name) else {
                say!("unknown (or overloaded) method `{name}`");
                return true;
            };
            let Some(body) = s.db.method(method).body() else {
                say!("`{name}` has no body to stand in");
                return true;
            };
            let stmt = parts
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(body.stmts.len())
                .min(body.stmts.len());
            s.ctx = Context::at_statement(&s.db, method, body, stmt);
            s.abs = Some(AbsTypes::for_query(&s.db, method, stmt));
            say!("context: inside {name} before statement {stmt}");
            print_locals(s);
        }
        Some("types") => {
            let pattern = parts.next().unwrap_or("");
            for ty in s.db.types().iter() {
                let name = s.db.types().qualified_name(ty);
                if name.contains(pattern) {
                    say!("  {name}");
                }
            }
        }
        Some("methods") => {
            let pattern = parts.next().unwrap_or("");
            for m in s.db.methods() {
                let name = s.db.qualified_method_name(m);
                if name.contains(pattern) {
                    let md = s.db.method(m);
                    let params: Vec<String> = md
                        .params()
                        .iter()
                        .map(|p| s.db.types().qualified_name(p.ty))
                        .collect();
                    say!(
                        "  {}{name}({})",
                        if md.is_static() { "static " } else { "" },
                        params.join(", ")
                    );
                }
            }
        }
        _ => say!("unknown command; try :help"),
    }
    true
}

fn run_query(s: &mut Session, text: &str) {
    let query = match parse_partial(&s.db, &s.ctx, text) {
        Ok(q) => q,
        Err(e) => {
            say!("parse error {e}");
            return;
        }
    };
    run_parsed(s, &query);
}

/// The engine for one query over the session's program, context and
/// inference.
fn completer(s: &Session) -> Completer<'_> {
    Completer::new(&s.db, &s.ctx, &s.index, s.config, s.abs.as_ref()).with_options(
        CompleteOptions {
            max_depth: s.max_depth,
            ..Default::default()
        },
    )
}

fn run_parsed(s: &mut Session, query: &PartialExpr) {
    let engine = completer(s);
    let results = engine.complete(query, s.count);
    if results.is_empty() {
        say!("(no completions)");
        s.last.clear();
        return;
    }
    for (i, c) in results.iter().enumerate() {
        say!("{:>3}. {}   (score {})", i + 1, engine.render(c), c.score);
    }
    s.last = results;
}

/// `:refine N` — re-open the `0` holes of result N as `?` holes and
/// re-query (the paper's "convert the 0 to ?" follow-up).
fn refine(s: &mut Session, arg: &str) {
    let Ok(n) = arg.parse::<usize>() else {
        say!("usage: :refine <result number>");
        return;
    };
    let Some(chosen) = s.last.get(n.wrapping_sub(1)).cloned() else {
        say!("no result #{n} from the last query");
        return;
    };
    let query = PartialExpr::reopen_holes(&chosen.expr);
    say!("refining: {}", query.shape());
    run_parsed(s, &query);
}

fn explain_query(s: &Session, text: &str) {
    let query = match parse_partial(&s.db, &s.ctx, text) {
        Ok(q) => q,
        Err(e) => {
            say!("parse error {e}");
            return;
        }
    };
    let engine = completer(s);
    let results = engine.complete(&query, s.count);
    if results.is_empty() {
        say!("(no completions)");
        return;
    }
    let codes: Vec<String> = RankTerm::ALL.iter().map(|t| t.code().to_string()).collect();
    say!("{:>5}  {}  completion", "score", codes.join("  "));
    for c in &results {
        let Some(breakdown) = engine.explain(c) else {
            continue;
        };
        let cells: Vec<String> = breakdown
            .terms
            .iter()
            .map(|(_, v)| format!("{v:>2}"))
            .collect();
        say!(
            "{:>5}  {}  {}",
            breakdown.total,
            cells.join(" "),
            engine.render(c)
        );
    }
}

const HELP: &str = "\
pex-repl — type-directed completion of partial expressions

USAGE: pex-repl [paint|geometry|familyshow|FILE.mcs] [--local name:Type]...
                [--max-depth N]   chain-depth cap; deeper = slower queries

Queries:   ?({a, b})   M(a, ?)   a.?f   a.?*m   a.?f := b.?f   a.?*m >= b.?*m
Commands:  :help  :locals  :types [pat]  :methods [pat]
           :at Ns.Type.Method [i] move the context into a method body
           :abs [pattern]        show merged abstract-type classes
           :explain <query>      show per-term score breakdown (n s d m t a)
           :refine <n>           reopen the 0-holes of result n as ? holes
           :n <count>            number of results to show
           :depth <n>            chain-depth cap for queries (latency knob)
           :config [+-][nsdmta]  toggle ranking terms (e.g. :config -d)
           :quit";
