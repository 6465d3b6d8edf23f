//! End-to-end tests of the daemon's live introspection surface against
//! the real `pex-serve` binary: `stats`, `health`, `"trace": true`,
//! `"explain": true`, and the periodic `--metrics-interval-s` flush — plus
//! one in-process load test that scrapes `stats` mid-load and checks its
//! windows against the clients' own stopwatches. `pex_obs` metrics are
//! process-global, so that test must stay the only in-process server in
//! this binary.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pex_serve::json::{self, Value};
use pex_serve::{ServeConfig, Server, ServerClient, Snapshot, SnapshotRegistry, SnapshotSource};

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

fn recv(reader: &mut BufReader<ChildStdout>) -> Value {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(!line.is_empty(), "server closed stdout unexpectedly");
    json::parse(line.trim_end()).unwrap_or_else(|e| panic!("bad JSON ({e}): {line}"))
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

fn u(v: &Value, key: &str) -> u64 {
    v.get(key)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("missing uint `{key}` in {v}"))
}

#[test]
fn explain_breakdowns_sum_exactly_and_trace_returns_the_span_tree() {
    let (mut child, mut reader) = spawn(&["paint", "--workers", "2"]);

    // Explain: every completion carries a six-term breakdown that sums
    // integer-exactly to its score.
    send(
        &mut child,
        r#"{"id":1,"query":"?({img, size})","limit":5,"explain":true}"#,
    );
    let doc = recv(&mut reader);
    assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{doc}");
    let Some(Value::Arr(completions)) = doc.get("completions") else {
        panic!("completions expected: {doc}")
    };
    assert!(!completions.is_empty());
    for c in completions {
        let explain = c.get("explain").unwrap_or_else(|| panic!("explain: {c}"));
        let sum: u64 = ["n", "s", "d", "m", "t", "a"]
            .iter()
            .map(|k| u(explain, k))
            .sum();
        assert_eq!(sum, u(c, "score"), "terms must sum to the score: {c}");
        assert_eq!(u(explain, "total"), u(c, "score"));
    }

    // Trace: a client-supplied trace_id is echoed, the span tree includes
    // the engine's `query` span, and the best-first stats are per-query.
    send(
        &mut child,
        r#"{"id":2,"query":"?","limit":5,"trace":true,"trace_id":"t-itest-1"}"#,
    );
    let doc = recv(&mut reader);
    assert_eq!(
        doc.get("trace_id").and_then(Value::as_str),
        Some("t-itest-1"),
        "{doc}"
    );
    let trace = doc.get("trace").unwrap_or_else(|| panic!("trace: {doc}"));
    let Some(Value::Arr(spans)) = trace.get("spans") else {
        panic!("spans expected: {doc}")
    };
    assert!(
        spans
            .iter()
            .any(|s| s.get("name").and_then(Value::as_str) == Some("query")),
        "query span in the tree: {doc}"
    );
    let search = trace
        .get("search")
        .unwrap_or_else(|| panic!("search: {doc}"));
    assert!(u(search, "expanded") > 0, "{doc}");

    // Untraced requests still get a generated trace_id.
    send(&mut child, r#"{"id":3,"query":"?","limit":1}"#);
    let doc = recv(&mut reader);
    let generated = doc.get("trace_id").and_then(Value::as_str).unwrap();
    assert!(generated.starts_with("t-"), "{doc}");
    assert!(doc.get("trace").is_none());

    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn stats_and_health_report_live_windows_and_the_accounting_identity() {
    let (mut child, mut reader) = spawn(&["paint", "--workers", "2", "--slo-p99-us", "1"]);
    for i in 0..3 {
        send(
            &mut child,
            &format!("{{\"id\":{i},\"query\":\"?\",\"limit\":3}}"),
        );
        let doc = recv(&mut reader);
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{doc}");
    }

    send(&mut child, r#"{"id":10,"cmd":"stats"}"#);
    let doc = recv(&mut reader);
    let stats = doc.get("stats").unwrap_or_else(|| panic!("stats: {doc}"));
    let w60 = stats.get("windows").and_then(|w| w.get("60s")).unwrap();
    assert_eq!(u(w60, "count"), 3, "three queries in the window: {doc}");
    assert!(u(w60, "p99_us") >= u(w60, "p50_us"), "{doc}");
    let metrics = stats.get("metrics").unwrap();
    assert_eq!(
        metrics
            .get("counters")
            .and_then(|c| c.get("serve.requests.ok"))
            .and_then(Value::as_u64),
        Some(3),
        "{doc}"
    );

    send(&mut child, r#"{"id":11,"cmd":"health"}"#);
    let doc = recv(&mut reader);
    let health = doc.get("health").unwrap_or_else(|| panic!("health: {doc}"));
    let requests = health.get("requests").unwrap();
    // 3 queries + stats answered, health itself still pending.
    assert_eq!(u(requests, "received"), 5, "{doc}");
    assert_eq!(u(requests, "pending"), 1, "{doc}");
    assert_eq!(
        u(requests, "received"),
        u(requests, "ok")
            + u(requests, "degraded")
            + u(requests, "shed")
            + u(requests, "errors")
            + u(requests, "pending"),
        "accounting identity: {doc}"
    );
    // A 1µs SLO must be burning after real queries (none completes that
    // fast), proving the flag reads the live window.
    let slo = health.get("slo").unwrap();
    assert_eq!(slo.get("burning"), Some(&Value::Bool(true)), "{doc}");
    assert_eq!(u(slo, "threshold_us"), 1);

    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
}

#[test]
fn metrics_interval_flushes_a_parseable_document_while_serving() {
    let dir = std::env::temp_dir().join(format!("pex-serve-itest-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("metrics.json");
    let (mut child, mut reader) = spawn(&[
        "paint",
        "--metrics-out",
        path.to_str().unwrap(),
        "--metrics-interval-s",
        "1",
    ]);
    send(&mut child, r#"{"id":1,"query":"?","limit":3}"#);
    let _ = recv(&mut reader);
    // The daemon is still running (shutdown not requested) when the
    // first interval fires — the old code only wrote at clean exit.
    let mut live_doc = None;
    for _ in 0..80 {
        if let Ok(text) = std::fs::read_to_string(&path) {
            live_doc = Some(text);
            break;
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    let live_doc = live_doc.expect("periodic flush wrote the metrics file while serving");
    let parsed = json::parse(live_doc.trim()).expect("flushed document parses");
    assert_eq!(
        parsed.get("schema").and_then(Value::as_str),
        Some("pex-serve-metrics/1")
    );

    drop(child.stdin.take());
    assert_eq!(wait_exit(child), 0);
    // The shutdown write still happens and reflects the full run.
    let final_doc = json::parse(std::fs::read_to_string(&path).unwrap().trim()).unwrap();
    let ok = final_doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.requests.ok"))
        .and_then(Value::as_u64);
    assert_eq!(ok, Some(1), "{final_doc}");
    std::fs::remove_dir_all(&dir).ok();
}

/// One `stats` round trip through the admission path, returning its body.
fn scrape_stats(client: &ServerClient) -> Value {
    let (tx, rx) = channel();
    client.submit(r#"{"id":"stats","cmd":"stats"}"#.into(), &tx);
    let resp = rx.recv_timeout(Duration::from_secs(60)).expect("stats");
    let doc = json::parse(&resp).unwrap_or_else(|e| panic!("bad JSON ({e}): {resp}"));
    doc.get("stats")
        .cloned()
        .unwrap_or_else(|| panic!("stats: {resp}"))
}

/// Nearest-rank percentile of the clients' samples.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[test]
fn live_stats_windows_agree_with_client_stopwatches() {
    const CLIENTS: usize = 2;
    const QUERIES: usize = 60;
    let paint = Snapshot::load(&SnapshotSource::Paint).expect("paint snapshot");
    let server = Server::start(
        Arc::new(SnapshotRegistry::single(paint)),
        ServeConfig {
            workers: 2,
            queue_cap: 64,
            ..ServeConfig::default()
        },
    );
    let answered = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = server.client();
            let answered = Arc::clone(&answered);
            std::thread::spawn(move || {
                let (tx, rx) = channel();
                (0..QUERIES)
                    .map(|k| {
                        let line = format!(r#"{{"id":"c{c}-{k}","query":"?({{img, size}})"}}"#);
                        let sent = Instant::now();
                        client.submit(line, &tx);
                        let resp = rx.recv_timeout(Duration::from_secs(60)).expect("answer");
                        let us = sent.elapsed().as_micros() as u64;
                        assert!(resp.contains(r#""ok":true"#), "{resp}");
                        answered.fetch_add(1, Ordering::Relaxed);
                        us
                    })
                    .collect::<Vec<u64>>()
            })
        })
        .collect();

    // Mid-load: half the queries are answered, the rest still running.
    while answered.load(Ordering::Relaxed) < CLIENTS * QUERIES / 2 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let live = scrape_stats(&server.client());
    let w10 = live.get("windows").and_then(|w| w.get("10s")).unwrap();
    assert!(u(w10, "count") > 0, "requests visible mid-load: {live}");
    assert!(u(w10, "p50_us") <= u(w10, "p99_us"), "{live}");

    let mut client_us: Vec<u64> = clients
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect();
    client_us.sort_unstable();
    let done = scrape_stats(&server.client());
    server.shutdown();
    let counters = done.get("metrics").and_then(|m| m.get("counters")).unwrap();
    assert!(u(counters, "serve.requests.ok") > 0, "{done}");
    assert!(percentile(&client_us, 50.0) <= percentile(&client_us, 99.0));

    // The daemon's window and the clients' stopwatches time the same
    // queries through different pipelines: log2 buckets plus
    // interpolation against exact timestamps. Bucket geometry bounds the
    // disagreement by 2x. p99 is reported but not asserted: the tail is a
    // handful of samples, often engine warmup, so its ratio is not
    // schedule-stable.
    let w60 = done.get("windows").and_then(|w| w.get("60s")).unwrap();
    assert_eq!(u(w60, "count"), (CLIENTS * QUERIES) as u64, "{done}");
    for (p, key) in [(50.0, "p50_us"), (90.0, "p90_us"), (99.0, "p99_us")] {
        let (daemon, client) = (u(w60, key) as f64, percentile(&client_us, p) as f64);
        let ratio = daemon.max(client) / daemon.min(client).max(1.0);
        eprintln!("p{p}: daemon window {daemon}us vs client {client}us (x{ratio:.2})");
        assert!(
            p > 90.0 || ratio <= 2.0,
            "p{p} disagrees: daemon window {daemon}us vs client {client}us"
        );
    }
}
