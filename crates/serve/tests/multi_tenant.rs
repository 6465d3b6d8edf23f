//! End-to-end tests of the multi-tenant registry through the real
//! binary: project routing against `--snapshot-dir`, hot swap via
//! `{"cmd":"reload"}` with zero dropped requests under concurrent load,
//! a named tenant answering exactly like the default tenant it was saved
//! from (before and after an edit, with per-tenant `generation`s), and
//! per-tenant accounting in the introspection commands — plus one
//! in-process load test that checks the per-tenant books against `stats`.
//! `pex_obs` counters are process-global, so that test must stay the only
//! in-process server in this binary.

use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;

use pex_serve::json::{self, Value};
use pex_serve::{persist, ServeConfig, Server, Snapshot, SnapshotRegistry, SnapshotSource};

/// A fresh directory holding a `geo.pexsnap` tenant snapshot, built with
/// the same persistence codec the daemon's lazy loader reads.
fn snapshot_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("pex-mt-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let geo = Snapshot::load(&SnapshotSource::Geometry).expect("geometry snapshot");
    persist::save(&geo, &dir.join("geo.pexsnap")).expect("save geo.pexsnap");
    dir
}

fn spawn_daemon(dir: &std::path::Path) -> (Child, BufReader<ChildStdout>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pex-serve"))
        .arg("paint")
        .args(["--workers", "2", "--queue-cap", "128", "--snapshot-dir"])
        .arg(dir)
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
fn routes_projects_lazily_from_the_snapshot_dir() {
    let dir = snapshot_dir("route");
    let (mut child, mut reader) = spawn_daemon(&dir);

    // No project field: the default (paint) tenant, byte-for-byte the
    // single-tenant protocol.
    send(&mut child, r#"{"id":1,"query":"?({img, size})","limit":3}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"ok\":true"), "{resp}");
    assert!(resp.contains("ResizeDocument(img, size, 0, 0)"), "{resp}");

    // project "geo" faults in geo.pexsnap on first use and serves from it.
    send(
        &mut child,
        r#"{"id":2,"project":"geo","query":"?","limit":3}"#,
    );
    let resp = recv(&mut reader);
    assert!(resp.contains("\"id\":2"), "{resp}");
    assert!(resp.contains("\"ok\":true"), "{resp}");

    // A project with no snapshot on disk is a clean protocol error.
    send(&mut child, r#"{"id":3,"project":"nope","query":"?"}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"error\":\"unknown_project\""), "{resp}");

    // stats reports the resident tenants with their request accounting.
    send(&mut child, r#"{"id":4,"cmd":"stats"}"#);
    let resp = recv(&mut reader);
    assert!(resp.contains("\"tenants\""), "{resp}");
    assert!(resp.contains("\"geo\""), "{resp}");
    assert!(resp.contains("\"default\""), "{resp}");

    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn hot_swap_drops_no_requests_under_concurrent_load() {
    let dir = snapshot_dir("swap");
    let (mut child, mut reader) = spawn_daemon(&dir);

    // Queries stream in back-to-back with reloads of both the default
    // tenant and the geo tenant interleaved mid-stream, so requests are
    // in flight on the old snapshots while the Arcs flip. Every line must
    // come back answered — the accounting identity allows no drops.
    const QUERIES: usize = 40;
    for k in 0..QUERIES {
        if k == 10 {
            send(&mut child, r#"{"id":"swap-default","cmd":"reload"}"#);
        }
        if k == 20 {
            send(
                &mut child,
                r#"{"id":"swap-geo","cmd":"reload","project":"geo"}"#,
            );
        }
        let line = if k % 3 == 0 {
            format!(r#"{{"id":"q{k}","project":"geo","query":"?","limit":3}}"#)
        } else {
            format!(r#"{{"id":"q{k}","query":"?({{img, size}})","limit":3}}"#)
        };
        send(&mut child, &line);
    }

    let mut answered = std::collections::HashSet::new();
    let mut swaps = 0;
    while answered.len() < QUERIES || swaps < 2 {
        let resp = recv(&mut reader);
        assert!(resp.contains("\"ok\":true"), "dropped or failed: {resp}");
        if resp.contains("\"reloaded\":") {
            assert!(resp.contains("\"swapped\":true"), "{resp}");
            swaps += 1;
            continue;
        }
        let id = resp
            .split("\"id\":\"q")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .and_then(|n| n.parse::<usize>().ok())
            .unwrap_or_else(|| panic!("unexpected response: {resp}"));
        assert!(answered.insert(id), "duplicate answer for q{id}: {resp}");
    }
    assert_eq!(answered.len(), QUERIES, "every query answered exactly once");

    // The swapped snapshots keep serving correct answers afterwards.
    send(
        &mut child,
        r#"{"id":"after","query":"?({img, size})","limit":3}"#,
    );
    let resp = recv(&mut reader);
    assert!(resp.contains("ResizeDocument(img, size, 0, 0)"), "{resp}");

    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// The Figure 2 signature edit: `Normalize` now returns a `Size`, which
/// takes the abstract-type boost away from `ResizeDocument`.
const NORMALIZE_TO_SIZE: &str = "namespace PaintDotNet.Client { class DocumentUtils { \
     static System.Drawing.Size Normalize(PaintDotNet.Document d); \
     static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; } } }";

/// `DocumentUtils` exactly as the paint corpus declares it: undoes
/// [`NORMALIZE_TO_SIZE`].
const NORMALIZE_RESTORED: &str = "namespace PaintDotNet.Client { class DocumentUtils { \
     static PaintDotNet.Document Normalize(PaintDotNet.Document d) { return d; } \
     static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; } } }";

/// A response with its `id` and the run-dependent fields blanked, so two
/// tenants' answers compare byte for byte.
fn answer_body(resp: &str) -> String {
    let mut doc = json::parse(resp).expect("response is JSON");
    doc.set("id", Value::Null);
    doc.set("trace_id", Value::Null);
    doc.set("latency_us", Value::Null);
    doc.to_string()
}

#[test]
fn a_named_tenant_saved_from_paint_answers_like_the_default() {
    let dir = std::env::temp_dir().join(format!("pex-mt-paint2-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create snapshot dir");
    let paint = Snapshot::load(&SnapshotSource::Paint).expect("paint snapshot");
    persist::save(&paint, &dir.join("paint2.pexsnap")).expect("save paint2.pexsnap");
    let (mut child, mut reader) = spawn_daemon(&dir);
    let mut id = 0;
    let mut ask = |child: &mut Child, project: &str, body: &str| {
        id += 1;
        send(child, &format!(r#"{{"id":{id},{project}{body}}}"#));
        recv(&mut reader)
    };
    let query = r#""query":"?({img, size})","limit":5,"explain":true"#;
    let update = |unit: &str| format!(r#""cmd":"update","source":"{}""#, json::escape(unit));
    let generation = |resp: &str| {
        let doc = json::parse(resp).expect("response is JSON");
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{resp}");
        doc.get("generation").and_then(Value::as_u64)
    };

    // The same snapshot, resolved as the default tenant and by name, must
    // answer identically: the site inference travels with the snapshot.
    let before = ask(&mut child, "", query);
    assert!(
        before.contains("ResizeDocument(img, size, 0, 0)"),
        "{before}"
    );
    assert!(before.contains("\"explain\""), "{before}");
    let named = ask(&mut child, r#""project":"paint2","#, query);
    assert_eq!(answer_body(&named), answer_body(&before));

    // The Figure 2 edit, applied to each tenant: its first swap.
    let edit = update(NORMALIZE_TO_SIZE);
    assert_eq!(generation(&ask(&mut child, "", &edit)), Some(1));
    assert_eq!(
        generation(&ask(&mut child, r#""project":"paint2","#, &edit)),
        Some(1)
    );
    let after = ask(&mut child, "", query);
    assert_ne!(answer_body(&after), answer_body(&before), "{after}");
    let named = ask(&mut child, r#""project":"paint2","#, query);
    assert_eq!(answer_body(&named), answer_body(&after));

    // A second update to the named tenant is its second swap, and undoing
    // the edit restores the original answers.
    let restore = update(NORMALIZE_RESTORED);
    assert_eq!(
        generation(&ask(&mut child, r#""project":"paint2","#, &restore)),
        Some(2)
    );
    let named = ask(&mut child, r#""project":"paint2","#, query);
    assert_eq!(answer_body(&named), answer_body(&before));

    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// One tenant's books as the clients keep them.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Ledger {
    sent: u64,
    ok: u64,
    degraded: u64,
    shed: u64,
    errors: u64,
    edits_sent: u64,
    applied: u64,
    rejected: u64,
}

impl Ledger {
    fn add(&mut self, o: &Ledger) {
        self.sent += o.sent;
        self.ok += o.ok;
        self.degraded += o.degraded;
        self.shed += o.shed;
        self.errors += o.errors;
        self.edits_sent += o.edits_sent;
        self.applied += o.applied;
        self.rejected += o.rejected;
    }

    /// Books one answer: an edit as applied or rejected, a query by how
    /// it resolved.
    fn record(&mut self, is_edit: bool, doc: &Value) {
        let flag = |k: &str| doc.get(k) == Some(&Value::Bool(true));
        let shed = doc.get("error").and_then(Value::as_str) == Some("shed");
        let slot = match (is_edit, flag("ok")) {
            (true, true) => &mut self.applied,
            (true, false) => &mut self.rejected,
            (false, true) if flag("degraded") => &mut self.degraded,
            (false, true) => &mut self.ok,
            (false, false) if shed => &mut self.shed,
            (false, false) => &mut self.errors,
        };
        *slot += 1;
        *if is_edit {
            &mut self.edits_sent
        } else {
            &mut self.sent
        } += 1;
    }

    fn assert_closed(&self, who: &str) {
        assert_eq!(
            self.sent,
            self.ok + self.degraded + self.shed + self.errors,
            "{who}: every query resolves exactly once: {self:?}"
        );
        assert_eq!(
            self.edits_sent,
            self.applied + self.rejected,
            "{who}: every update is applied or rejected: {self:?}"
        );
    }
}

const TENANTS: [&str; 3] = ["default", "t1", "t2"];

/// The query mix, all valid against the paint snapshot.
const QUERIES: [&str; 3] = ["?({img, size})", "img.?f", "?"];

/// The edit mix: two `DocumentUtils` units that differ only in
/// `Normalize`'s body (both apply), then one garbled unit (always a
/// `parse_error`).
const EDIT_UNITS: [&str; 3] = [
    "namespace PaintDotNet.Client { class DocumentUtils { \
     static PaintDotNet.Document Normalize(PaintDotNet.Document d) { return d; } \
     static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; } } }",
    "namespace PaintDotNet.Client { class DocumentUtils { \
     static PaintDotNet.Document Normalize(PaintDotNet.Document d) \
     { return PaintDotNet.Client.DocumentUtils.Normalize(d); } \
     static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; } } }",
    "namespace PaintDotNet.Client { class Broken {",
];

#[test]
fn per_tenant_books_close_under_concurrent_queries_and_edits() {
    const CLIENTS: usize = 4;
    const LINES: usize = 30;
    const EDIT_EVERY: usize = 5;
    let paint = Snapshot::load(&SnapshotSource::Paint).expect("paint snapshot");
    let registry = Arc::new(SnapshotRegistry::single(Arc::clone(&paint)));
    for t in &TENANTS[1..] {
        registry.insert(t, Arc::clone(&paint)).expect("tenant id");
    }
    let server = Server::start(
        registry,
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            ..ServeConfig::default()
        },
    );

    // Closed-loop clients, a fixed number of lines each: the books below
    // are exact, whatever the scheduling.
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = server.client();
            std::thread::spawn(move || {
                let (tx, rx) = channel();
                let mut total = Ledger::default();
                let mut per_tenant = [Ledger::default(); TENANTS.len()];
                let mut edits = 0;
                for k in 0..LINES {
                    let tenant = (c + k) % TENANTS.len();
                    // Tenant 0 sends no `project`: the single-tenant path.
                    let project = match tenant {
                        0 => String::new(),
                        t => format!(r#""project":"{}","#, TENANTS[t]),
                    };
                    let is_edit = (k + 1) % EDIT_EVERY == 0;
                    let unit = edits % EDIT_UNITS.len();
                    let line = if is_edit {
                        edits += 1;
                        format!(
                            r#"{{"id":"c{c}-{k}",{project}"cmd":"update","source":"{}"}}"#,
                            json::escape(EDIT_UNITS[unit])
                        )
                    } else {
                        let query = QUERIES[(c + k) % QUERIES.len()];
                        format!(r#"{{"id":"c{c}-{k}",{project}"query":"{query}","limit":5}}"#)
                    };
                    client.submit(line, &tx);
                    let resp = rx
                        .recv_timeout(Duration::from_secs(60))
                        .expect("every line is answered");
                    let doc = json::parse(&resp).expect("response is JSON");
                    let id = format!("c{c}-{k}");
                    assert_eq!(doc.get("id").and_then(Value::as_str), Some(&*id), "{resp}");
                    if is_edit && unit == 2 {
                        assert_eq!(
                            doc.get("error").and_then(Value::as_str),
                            Some("parse_error"),
                            "a garbled unit is rejected: {resp}"
                        );
                    }
                    total.record(is_edit, &doc);
                    per_tenant[tenant].record(is_edit, &doc);
                }
                (total, per_tenant)
            })
        })
        .collect();

    let mut total = Ledger::default();
    let mut per_tenant = [Ledger::default(); TENANTS.len()];
    for handle in clients {
        let (t, p) = handle.join().expect("client thread");
        total.add(&t);
        for (agg, got) in per_tenant.iter_mut().zip(&p) {
            agg.add(got);
        }
    }
    total.assert_closed("aggregate");
    assert_eq!(total.sent + total.edits_sent, (CLIENTS * LINES) as u64);
    assert!(total.applied > 0, "valid edits were applied: {total:?}");
    let mut summed = Ledger::default();
    for (name, ledger) in TENANTS.iter().zip(&per_tenant) {
        ledger.assert_closed(name);
        summed.add(ledger);
    }
    assert_eq!(summed, total, "per-tenant books sum to the aggregate");

    // The daemon's tenant table holds exactly the clients' books.
    let (tx, rx) = channel();
    server
        .client()
        .submit(r#"{"id":"stats","cmd":"stats"}"#.into(), &tx);
    let resp = rx.recv_timeout(Duration::from_secs(60)).expect("stats");
    server.shutdown();
    let doc = json::parse(&resp).expect("stats is JSON");
    let Some(Value::Obj(tenants)) = doc.get("stats").and_then(|s| s.get("tenants")) else {
        panic!("tenant table expected: {resp}")
    };
    let names: Vec<&str> = tenants.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(names, TENANTS, "{resp}");
    for ((name, entry), ledger) in tenants.iter().zip(&per_tenant) {
        let count = |group: &str, key: &str| {
            entry
                .get(group)
                .and_then(|g| g.get(key))
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("{name}.{group}.{key} missing: {resp}"))
        };
        let daemon = Ledger {
            sent: ledger.sent,
            ok: count("requests", "ok"),
            degraded: count("requests", "degraded"),
            shed: count("requests", "shed"),
            errors: count("requests", "errors"),
            edits_sent: ledger.edits_sent,
            applied: count("edits", "applied"),
            rejected: count("edits", "rejected"),
        };
        assert_eq!(&daemon, ledger, "tenant {name}: stats vs clients");
    }
}
