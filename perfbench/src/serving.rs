//! The `socket` and `edit` workloads, which drive the release `pex-serve`
//! binary over its Unix socket, and the traced run.
//!
//! Both workloads use one connection and an open loop: request `k` is due
//! at `k / rate` and its latency runs from that due time, so a stall
//! counts against every request it delays.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pex_core::{CancelToken, CompleteOptions, Completer, QueryBudget, RankConfig};
use pex_serve::json::{self, Value};
use pex_serve::proto::{self, RequestDefaults};
use pex_serve::registry::UpdateError;
use pex_serve::{Snapshot, SnapshotRegistry};

use crate::counters::{engine_counts, ratio, DaemonMetrics, Mark};
use crate::daemon::{self, Conn, Daemon, Sent};
use crate::gen::{self, EditKind, HotQuery, Request, ServeInput};
use crate::stats::{median, quantile, Report};
use crate::trace::{self, Recorder};
use crate::{replay, Args, Workload};

/// Daemon boots per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// The `socket` workload's fixed offered rate.
const SOCKET_RATE: f64 = 1000.0;
/// Share of the run spent at the fixed rate; the rate ladder gets the rest.
const FIXED_SHARE: f64 = 0.5;
/// The `edit` workload's offered rate (queries and updates together).
const EDIT_RATE: f64 = 400.0;
/// The rate ladder: rung `i` offers `LADDER_BASE * LADDER_STEP^i` requests/s,
/// for `i` in `LADDER_RUNGS` (about 240 to 33000 requests/s).
const LADDER_BASE: f64 = 1000.0;
const LADDER_STEP: f64 = 1.06;
const LADDER_RUNGS: std::ops::Range<i32> = -24..60;
/// Seconds per ladder rung (at least [`RUNG_MIN_REQUESTS`] requests).
const RUNG_SECONDS: f64 = 0.25;
const RUNG_MIN_REQUESTS: usize = 1000;
/// A rung passes when its p99 latency stays under this limit.
const P99_LIMIT_US: f64 = 1000.0;
/// Socket answers compared byte for byte with in-process execution.
const CHECK_SAMPLE: usize = 400;

/// The generated project written to disk, and its saved snapshot.
struct Prepared {
    input: ServeInput,
    source: PathBuf,
    snapshot: PathBuf,
}

/// Writes the generated source; for `socket`, has the program itself save
/// the `.pexsnap` the daemon boots from (not timed).
fn prepare(args: &Args, workload: Workload, report: &mut Report) -> Result<Prepared, String> {
    let input = gen::serve(args.seed)?;
    report.metric_note(
        "serve.projects_skipped",
        input.skipped.len() as f64,
        "count",
        input.skipped.len() + 1,
        input.skipped.join("; "),
    );
    let source = args.work_dir.join("project.mcs");
    std::fs::write(&source, &input.project.source)
        .map_err(|e| format!("cannot write {}: {e}", source.display()))?;
    let snapshot = args.work_dir.join("project.pexsnap");
    if workload == Workload::Socket {
        let _ = std::fs::remove_file(&snapshot);
        daemon::run_to_exit(
            &args.serve_bin,
            &[
                path_str(&source)?,
                "--build-only",
                "--save-snapshot",
                path_str(&snapshot)?,
            ],
            &args.work_dir.join("build-snapshot.log"),
        )?;
    }
    Ok(Prepared {
        input,
        source,
        snapshot,
    })
}

fn path_str(p: &Path) -> Result<&str, String> {
    p.to_str().ok_or(format!("non-UTF-8 path {}", p.display()))
}

/// Boots the daemon `reps` times, timing each boot up to its first `ping`
/// answer and reading its resident memory then; every boot but the last
/// is shut down again.
fn boot(
    args: &Args,
    p: &Prepared,
    workload: Workload,
    reps: usize,
) -> Result<(Daemon, Conn, Vec<f64>, Vec<f64>), String> {
    let daemon_args = match workload {
        Workload::Socket => vec!["--load-snapshot", path_str(&p.snapshot)?],
        _ => vec![path_str(&p.source)?],
    };
    let (mut setups, mut rss) = (Vec::new(), Vec::new());
    for r in 0..reps {
        let tag = format!("{workload:?}-{r}").to_lowercase();
        let (d, conn, ready) = Daemon::start(&args.serve_bin, &daemon_args, &args.work_dir, &tag)?;
        setups.push(ready.as_secs_f64());
        rss.push(d.mem_mb("VmRSS"));
        if r + 1 == reps {
            return Ok((d, conn, setups, rss));
        }
        d.shutdown(conn)?;
    }
    Err("no daemon boots requested".to_owned())
}

/// One matched response.
struct Resp {
    latency_us: f64,
    doc: Value,
    line: String,
}

impl Resp {
    fn ok(&self) -> bool {
        self.doc.get("ok") == Some(&Value::Bool(true))
    }

    fn degraded(&self) -> bool {
        self.doc.get("degraded") == Some(&Value::Bool(true))
    }
}

/// Matches response lines to requests `first_id..first_id + n` by id.
/// Malformed, unmatched or duplicate lines leave their request `None`.
fn collate(
    sent: &[Sent],
    got: Vec<(Instant, String)>,
    first_id: u64,
    n: usize,
) -> Vec<Option<Resp>> {
    let mut out: Vec<Option<Resp>> = (0..n).map(|_| None).collect();
    for (at, line) in got {
        let Ok(doc) = json::parse(&line) else {
            continue;
        };
        let Some(idx) = doc
            .get("id")
            .and_then(Value::as_u64)
            .and_then(|id| id.checked_sub(first_id))
        else {
            continue;
        };
        let idx = idx as usize;
        if idx >= n || idx >= sent.len() || out[idx].is_some() {
            continue;
        }
        let latency_us = at.saturating_duration_since(sent[idx].due).as_secs_f64() * 1e6;
        out[idx] = Some(Resp {
            latency_us,
            doc,
            line,
        });
    }
    out
}

/// Request lines cycling through the hot set.
fn hot_lines(hot: &[HotQuery], first_id: u64, n: usize) -> Vec<String> {
    (0..n)
        .map(|k| hot[k % hot.len()].line(first_id + k as u64))
        .collect()
}

/// Request lines of an `edit` stream.
fn edit_lines(stream: &[Request], hot: &[HotQuery], first_id: u64) -> Vec<String> {
    stream
        .iter()
        .enumerate()
        .map(|(k, r)| match r {
            Request::Query(q) => hot[*q].line(first_id + k as u64),
            Request::Update { source, .. } => gen::update_line(first_id + k as u64, source),
        })
        .collect()
}

/// How late the open-loop sender ran, in µs.
fn lateness_us(sent: &[Sent]) -> Vec<f64> {
    sent.iter()
        .map(|s| s.at.saturating_duration_since(s.due).as_secs_f64() * 1e6)
        .collect()
}

/// Replaces the fields that legitimately differ between two executions
/// of one request: the generated `trace_id` and the measured `latency_us`.
fn blank_volatile(line: &str) -> String {
    let mut out = line.to_owned();
    if let Some(i) = out.find("\"trace_id\":\"") {
        let start = i + "\"trace_id\":\"".len();
        if let Some(len) = out[start..].find('"') {
            out.replace_range(start..start + len, "*");
        }
    }
    if let Some(i) = out.find("\"latency_us\":") {
        let start = i + "\"latency_us\":".len();
        let len = out[start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(0);
        out.replace_range(start..start + len, "0");
    }
    out
}

/// Asks `health` and checks the accounting identity
/// `received == ok + degraded + shed + errors + pending` (the health
/// request itself is the one pending), plus that the daemon received
/// exactly the lines sent and shed none.
fn check_health(
    conn: &mut Conn,
    sent_lines: u64,
    expected_errors: u64,
    report: &mut Report,
) -> Result<u64, String> {
    let line = conn.request("{\"id\":\"health\",\"cmd\":\"health\"}")?;
    let doc = json::parse(&line).map_err(|e| format!("health answer: {e}"))?;
    let requests = doc
        .get("health")
        .and_then(|h| h.get("requests"))
        .ok_or(format!("health answer has no request counts: {line}"))?;
    let c = |k: &str| requests.get(k).and_then(Value::as_u64).unwrap_or(u64::MAX);
    let (received, ok, degraded, shed, errors, pending) = (
        c("received"),
        c("ok"),
        c("degraded"),
        c("shed"),
        c("errors"),
        c("pending"),
    );
    report.check(
        received
            == ok
                .saturating_add(degraded)
                .saturating_add(shed)
                .saturating_add(errors)
                .saturating_add(pending),
        || format!("health identity broken: {line}"),
    );
    report.check(pending == 1 && received == sent_lines + 1, || {
        format!(
            "daemon received {received} lines ({pending} pending); {} were sent",
            sent_lines + 1
        )
    });
    report.check(errors == expected_errors, || {
        format!("daemon counted {errors} errors; {expected_errors} were expected")
    });
    Ok(shed)
}

/// The in-process twin of the daemon's request path for the default
/// tenant: the same public functions in the same order, with a span
/// around each layer. Returns the response line.
fn serve_line(
    registry: &SnapshotRegistry,
    line: &str,
    rec: &mut Option<&mut Recorder>,
    request: u64,
) -> String {
    let span = trace::open(rec, "serve.json.parse", request);
    std::hint::black_box(json::parse(line).is_ok());
    trace::close(rec, span);
    let root = trace::open(rec, "serve.request", request);
    let span = trace::open(rec, "serve.proto.parse_request", request);
    let parsed = proto::parse_request(line);
    trace::close(rec, span);
    let response = match parsed {
        Ok(proto::Request::Query(q)) => {
            let span = trace::open(rec, "serve.registry.get", request);
            let snapshot = registry.get(q.project.as_deref());
            trace::close(rec, span);
            let rest = match snapshot {
                Ok(snapshot) => execute_rest(&snapshot, &q, rec, request),
                Err(msg) => proto::error_rest("unknown_project", &msg),
            };
            let span = trace::open(rec, "serve.proto.assemble", request);
            let out = proto::assemble_response(q.id.as_ref(), &rest);
            trace::close(rec, span);
            out
        }
        Ok(proto::Request::Update { id, project, edits }) => {
            let span = trace::open(rec, "serve.registry.update", request);
            let result = registry.update(project.as_deref(), &edits);
            trace::close(rec, span);
            match result {
                Ok(info) => proto::update_response(id.as_ref(), &info),
                Err(UpdateError::Parse { line, col, message }) => {
                    proto::parse_error_response(id.as_ref(), line, col, &message)
                }
                Err(UpdateError::Failed(msg)) => {
                    proto::error_response(id.as_ref(), "update_failed", &msg)
                }
            }
        }
        Ok(_) => proto::error_response(None, "bad_request", "unexpected command in a stream"),
        Err((id, msg)) => proto::error_response(id.as_ref(), "bad_request", &msg),
    };
    trace::close(rec, root);
    response
}

/// `proto::execute_rest` taken apart layer by layer (request-local
/// context, no abstract types, no explain or trace fields: the shape of
/// every benchmark request). The byte-equality check against the daemon
/// keeps this twin honest.
fn execute_rest(
    snapshot: &Snapshot,
    q: &proto::QueryRequest,
    rec: &mut Option<&mut Recorder>,
    request: u64,
) -> String {
    let exec = trace::open(rec, "serve.proto.execute", request);
    let defaults = RequestDefaults::default();
    let span = trace::open(rec, "serve.snapshot.context", request);
    let ctx = snapshot.context_for(&q.locals);
    trace::close(rec, span);
    let rest = (|| {
        let ctx = ctx.map_err(|msg| proto::error_rest("bad_request", &msg))?;
        let started = Instant::now();
        let span = trace::open(rec, "core.partial.parse", request);
        let query = pex_core::parse_partial(&snapshot.db, &ctx, &q.query);
        trace::close(rec, span);
        let query = query.map_err(|e| proto::error_rest("parse", &e.to_string()))?;
        let span = trace::open(rec, "core.engine.search", request);
        let options = CompleteOptions {
            budget: QueryBudget {
                max_steps: q.max_steps.unwrap_or(defaults.max_steps),
                deadline: q.deadline_ms.or(defaults.deadline_ms).map(Duration::from_millis),
                cancel: Some(CancelToken::new()),
            },
            ..Default::default()
        };
        let completer = Completer::new(&snapshot.db, &ctx, &snapshot.index, RankConfig::all(), None)
            .with_options(options)
            .with_reach(&snapshot.reach)
            .with_cache(&snapshot.cache);
        let (completions, outcome) = completer.complete_with_outcome(&query, q.limit.unwrap_or(defaults.limit));
        trace::close(rec, span);
        let span = trace::open(rec, "serve.proto.render", request);
        let rendered: Vec<String> = completions
            .iter()
            .map(|c| {
                format!(
                    "{{\"expr\":\"{}\",\"score\":{}}}",
                    json::escape(&completer.render(c)),
                    c.score
                )
            })
            .collect();
        let rest = format!(
            "\"ok\":true,\"trace_id\":\"*\",\"outcome\":\"{}\",\"degraded\":{},\"latency_us\":{},\"completions\":[{}]}}",
            outcome.label(),
            outcome.is_degraded(),
            started.elapsed().as_micros(),
            rendered.join(",")
        );
        trace::close(rec, span);
        Ok::<String, String>(rest)
    })()
    .unwrap_or_else(|e| e);
    trace::close(rec, exec);
    rest
}

/// Compares daemon answers with the in-process twin (and, for queries,
/// with `proto::execute` itself) for the first requests of a stream.
/// Updates are applied in stream order, so every answer is compared
/// against the same snapshot state the daemon had.
fn check_answers(
    registry: &SnapshotRegistry,
    lines: &[String],
    resps: &[Option<Resp>],
    report: &mut Report,
) {
    let mut mismatches = 0usize;
    let mut first = None;
    for (k, line) in lines.iter().enumerate().take(CHECK_SAMPLE) {
        let Some(resp) = &resps[k] else {
            continue;
        };
        let twin = serve_line(registry, line, &mut None, k as u64);
        let mut same = blank_volatile(&twin) == blank_volatile(&resp.line);
        if let Ok(proto::Request::Query(q)) = proto::parse_request(line) {
            let snapshot = registry.default_snapshot();
            let (direct, _) = proto::execute(
                &snapshot,
                &q,
                &RequestDefaults::default(),
                &CancelToken::new(),
                None,
            );
            same &= blank_volatile(&direct) == blank_volatile(&resp.line);
        }
        if !same {
            mismatches += 1;
            first.get_or_insert(k);
        }
    }
    report.check(mismatches == 0, || {
        let k = first.unwrap_or(0);
        format!(
            "{mismatches} socket answers differ from in-process execution; first: request {}\n  sent: {}\n  got:  {}",
            k,
            lines[k],
            resps[k].as_ref().map_or("", |r| r.line.as_str())
        )
    });
}

/// The in-process registry built from the same generated text.
fn inprocess_registry(p: &Prepared) -> Result<SnapshotRegistry, String> {
    let db = pex_model::minics::compile(&p.input.project.source).map_err(|e| e.to_string())?;
    let snapshot = Snapshot::from_database(
        path_str(&p.source)?.to_owned(),
        db,
        pex_model::Context::empty(),
        None,
    );
    Ok(SnapshotRegistry::single(Arc::new(snapshot)))
}

fn interval(rate: f64) -> Duration {
    Duration::from_secs_f64(1.0 / rate)
}

/// The `socket` workload: boot from the saved snapshot, serve the hot set
/// at the fixed rate, then climb the rate ladder.
pub fn socket(args: &Args, report: &mut Report) -> Result<(), String> {
    let p = prepare(args, Workload::Socket, report)?;
    let (daemon, mut conn, setups, rss) = boot(args, &p, Workload::Socket, SETUP_REPS)?;
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("rss_setup_mb", median(&rss), "MB", rss.len());
    let mut sent_lines = 0u64;
    let mut failed = 0u64;

    let n = (SOCKET_RATE * args.seconds * FIXED_SHARE) as usize;
    let lines = hot_lines(&p.input.hot, 1, n);
    let cpu = daemon.cpu_s();
    let (sent, got) = conn.open_loop(&lines, interval(SOCKET_RATE));
    let cpu = daemon.cpu_s() - cpu;
    sent_lines += sent.len() as u64;
    let resps = collate(&sent, got, 1, n);
    let latencies: Vec<f64> = resps
        .iter()
        .flatten()
        .filter(|r| r.ok() && !r.degraded())
        .map(|r| r.latency_us)
        .collect();
    let fixed_failed = (n - latencies.len()) as u64;
    report.metric(
        "queries_per_s",
        latencies.len() as f64 / cpu,
        "1/s",
        latencies.len(),
    );
    failed += fixed_failed;
    report.latency("query", &latencies);
    report.metric("failed_frac", ratio(fixed_failed, n as u64), "ratio", n);
    let late = lateness_us(&sent);
    report.metric("bench.generator_late_us", median(&late), "us", late.len());
    check_answers(&inprocess_registry(&p)?, &lines, &resps, report);

    // The rate ladder: from the rung nearest the fixed rate, step three
    // rungs at a time until one passes and one fails, then bisect between
    // the highest pass and the lowest failure.
    let mut next_id = 1 + n as u64;
    let budget = Instant::now() + Duration::from_secs_f64(args.seconds * (1.0 - FIXED_SHARE));
    let mut rung = ((SOCKET_RATE / LADDER_BASE).ln() / LADDER_STEP.ln()).round() as i32;
    let (mut passed, mut failed_rung): (Option<i32>, Option<i32>) = (None, None);
    let mut ladder_requests = 0usize;
    while LADDER_RUNGS.contains(&rung) && Instant::now() < budget {
        let rate = LADDER_BASE * LADDER_STEP.powi(rung);
        let count = RUNG_MIN_REQUESTS.max((rate * RUNG_SECONDS) as usize);
        let lines = hot_lines(&p.input.hot, next_id, count);
        let (sent, got) = conn.open_loop(&lines, interval(rate));
        sent_lines += sent.len() as u64;
        let resps = collate(&sent, got, next_id, count);
        next_id += count as u64;
        ladder_requests += count;
        let lat: Vec<f64> = resps
            .iter()
            .flatten()
            .filter(|r| r.ok() && !r.degraded())
            .map(|r| r.latency_us)
            .collect();
        failed += (count - lat.len()) as u64;
        // No growing backlog: when the last request leaves, no more are
        // in flight than a system meeting the limit holds (Little's law).
        let last_sent = sent.last().map(|s| s.at);
        let backlog = resps
            .iter()
            .zip(&sent)
            .filter_map(|(r, s)| {
                r.as_ref()
                    .map(|r| s.due + Duration::from_secs_f64(r.latency_us / 1e6))
            })
            .filter(|&answered| Some(answered) > last_sent)
            .count();
        let ok = lat.len() == count
            && quantile(&lat, 0.99) <= P99_LIMIT_US
            && backlog as f64 <= (rate * P99_LIMIT_US / 1e6).max(4.0);
        if ok {
            passed = Some(rung);
        } else {
            failed_rung = Some(rung);
        }
        rung = match (passed, failed_rung) {
            (Some(lo), None) => lo + 3,
            (None, Some(hi)) => hi - 3,
            (Some(lo), Some(hi)) if hi - lo > 1 => (lo + hi) / 2,
            _ => break,
        };
    }
    let max_rate = passed.map_or(f64::NAN, |r| LADDER_BASE * LADDER_STEP.powi(r));
    report.metric_note(
        "max_rate_rps",
        max_rate,
        "1/s",
        ladder_requests,
        format!("p99 limit {P99_LIMIT_US} us"),
    );

    check_health(&mut conn, sent_lines + 1, 0, report)?;
    report.metric("rss_peak_mb", daemon.mem_mb("VmHWM"), "MB", 1);
    daemon.shutdown(conn)?;
    report.attempted += n as u64 + ladder_requests as u64;
    report.failed += failed;
    Ok(())
}

/// Checks one update answer against what its unit must do. Returns
/// whether it behaved.
fn check_update(kind: EditKind, r: &Resp) -> bool {
    let inv = |k: &str| {
        r.doc
            .get("invalidated")
            .and_then(|i| i.get(k))
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX)
    };
    let applied = r.ok() && r.doc.get("noop") == Some(&Value::Bool(false));
    match kind {
        EditKind::Signature => applied && inv("candidates") > 0 && inv("candidates") != u64::MAX,
        EditKind::Body => {
            applied
                && ["chains", "candidates", "conversions", "reach"]
                    .iter()
                    .all(|k| inv(k) == 0)
        }
        EditKind::Garbled => {
            !r.ok() && r.doc.get("error").and_then(Value::as_str) == Some("parse_error")
        }
    }
}

/// The `edit` workload: boot from source, then an open-loop mix of hot
/// queries and `update`s.
pub fn edit(args: &Args, report: &mut Report) -> Result<(), String> {
    let p = prepare(args, Workload::Edit, report)?;
    let (daemon, mut conn, setups, rss) = boot(args, &p, Workload::Edit, SETUP_REPS)?;
    report.metric("setup_s", median(&setups), "s", setups.len());
    report.metric("rss_setup_mb", median(&rss), "MB", rss.len());

    let n = (EDIT_RATE * args.seconds) as usize;
    let stream = p.input.edit_stream(n);
    let lines = edit_lines(&stream, &p.input.edit_hot, 1);
    let cpu = daemon.cpu_s();
    let (sent, got) = conn.open_loop(&lines, interval(EDIT_RATE));
    let cpu = daemon.cpu_s() - cpu;
    let resps = collate(&sent, got, 1, n);
    let (mut queries, mut edits) = (Vec::new(), Vec::new());
    let (mut failed, mut misbehaved, mut garbled) = (0u64, 0u64, 0u64);
    for (req, resp) in stream.iter().zip(&resps) {
        match (req, resp) {
            (Request::Query(_), Some(r)) if r.ok() && !r.degraded() => queries.push(r.latency_us),
            (Request::Update { kind, .. }, Some(r)) => {
                garbled += u64::from(*kind == EditKind::Garbled);
                if check_update(*kind, r) {
                    edits.push(r.latency_us);
                } else {
                    misbehaved += 1;
                    failed += 1;
                }
            }
            _ => failed += 1,
        }
    }
    report.metric(
        "queries_per_s",
        (queries.len() + edits.len()) as f64 / cpu,
        "1/s",
        n,
    );
    report.latency("query", &queries);
    report.latency("edit", &edits);
    report.metric("failed_frac", ratio(failed, n as u64), "ratio", n);
    let late = lateness_us(&sent);
    report.metric("bench.generator_late_us", median(&late), "us", late.len());
    report.check(misbehaved == 0, || {
        format!("{misbehaved} updates were wrongly applied, wrongly rejected or invalidated the wrong caches")
    });
    report.check(failed == 0, || {
        format!("{failed} of {n} edit-stream requests failed")
    });
    check_answers(&inprocess_registry(&p)?, &lines, &resps, report);
    check_health(&mut conn, sent.len() as u64 + 1, garbled, report)?;
    report.metric("rss_peak_mb", daemon.mem_mb("VmHWM"), "MB", 1);
    daemon.shutdown(conn)?;
    report.attempted += n as u64;
    report.failed += failed;
    Ok(())
}

/// The update layers of one well-formed edit, each timed on its own
/// against the pre-update snapshot: `minics::apply_update`, then
/// `refresh_derived` on its result, then the whole `Snapshot::apply_update`.
#[derive(Default)]
struct EditLayers {
    minics_us: Vec<f64>,
    refresh_us: Vec<f64>,
    snapshot_us: Vec<f64>,
    prewarm_skipped: usize,
    invalidated: [usize; 4],
}

impl EditLayers {
    fn measure(&mut self, base: &Snapshot, source: &str, rec: &mut Recorder, request: u64) {
        let t = Instant::now();
        let patched = rec.span("model.minics.apply_update", request, || {
            pex_model::minics::apply_update(&base.db, source)
        });
        let minics = t.elapsed();
        let Ok((mut db, diff)) = patched else {
            return;
        };
        let t = Instant::now();
        let (_, _, _, inv) = rec.span("core.refresh_derived", request, || {
            pex_core::refresh_derived(
                &base.db,
                &mut db,
                &base.index,
                &base.reach,
                &base.cache,
                &diff,
            )
        });
        self.refresh_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.minics_us.push(minics.as_secs_f64() * 1e6);
        self.invalidated[0] += inv.chains;
        self.invalidated[1] += inv.candidates;
        self.invalidated[2] += inv.conversions;
        self.invalidated[3] += usize::from(inv.reach_rebuilt);
        let prewarms = || {
            pex_obs::registry()
                .counter("serve.snapshot.prewarmed")
                .get()
        };
        let before = prewarms();
        let t = Instant::now();
        let _ = rec.span("serve.snapshot.apply_update", request, || {
            base.apply_update(source)
        });
        self.snapshot_us.push(t.elapsed().as_secs_f64() * 1e6);
        self.prewarm_skipped += usize::from(prewarms() == before);
    }

    fn report(&self, report: &mut Report) {
        let n = self.snapshot_us.len();
        report.metric(
            "model.minics.apply_update_us",
            median(&self.minics_us),
            "us",
            n,
        );
        report.metric("core.refresh_derived_us", median(&self.refresh_us), "us", n);
        report.metric(
            "serve.snapshot.apply_update_us",
            median(&self.snapshot_us),
            "us",
            n,
        );
        report.metric(
            "serve.snapshot.prewarm_skipped_frac",
            ratio(self.prewarm_skipped as u64, n as u64),
            "ratio",
            n,
        );
        for (i, name) in ["chains", "candidates", "conversions", "reach"]
            .iter()
            .enumerate()
        {
            report.metric(
                &format!("core.invalidate.{name}"),
                self.invalidated[i] as f64 / n.max(1) as f64,
                "count",
                n,
            );
        }
    }
}

/// The traced run over a serving stream: the daemon serves the stream
/// (its latencies give the residual), then the same lines are replayed in
/// process twice from a fresh snapshot, untraced and then with a span
/// around every layer; the ratio of their median query times is the
/// trace overhead.
fn traced_serve(
    args: &Args,
    workload: Workload,
    seconds: f64,
    rec: &mut Recorder,
    report: &mut Report,
) -> Result<(), String> {
    let p = prepare(args, workload, report)?;
    let (daemon, mut conn, _, _) = boot(args, &p, workload, 1)?;
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        conn.request("{\"id\":0,\"cmd\":\"ping\"}")?;
        rtt.push(t.elapsed().as_secs_f64() * 1e6);
    }
    report.metric("serve.transport.ping_rtt_us", median(&rtt), "us", rtt.len());

    let (rate, stream, hot) = match workload {
        Workload::Socket => {
            let n = (SOCKET_RATE * seconds) as usize;
            let stream = (0..n)
                .map(|k| Request::Query(k % p.input.hot.len()))
                .collect();
            (SOCKET_RATE, stream, &p.input.hot)
        }
        _ => (
            EDIT_RATE,
            p.input.edit_stream((EDIT_RATE * seconds) as usize),
            &p.input.edit_hot,
        ),
    };
    let lines = edit_lines(&stream, hot, 1);
    let (sent, got) = conn.open_loop(&lines, interval(rate));
    let resps = collate(&sent, got, 1, lines.len());
    let late = lateness_us(&sent);
    report.metric("bench.generator_late_us", median(&late), "us", late.len());
    let garbled = stream
        .iter()
        .filter(|r| {
            matches!(
                r,
                Request::Update {
                    kind: EditKind::Garbled,
                    ..
                }
            )
        })
        .count() as u64;
    check_health(
        &mut conn,
        rtt.len() as u64 + sent.len() as u64 + 1,
        garbled,
        report,
    )?;
    let metrics_path = daemon.metrics_out.clone();
    daemon.shutdown(conn)?;
    let not_ok = resps
        .iter()
        .filter(|r| !r.as_ref().is_some_and(Resp::ok))
        .count() as u64;
    let failed = not_ok.saturating_sub(garbled);
    report.attempted += lines.len() as u64;
    report.failed += failed;
    let metrics = std::fs::read_to_string(&metrics_path)
        .map_err(|e| format!("daemon metrics document: {e}"))?;
    let metrics = DaemonMetrics::parse(&metrics)?;
    let waits = metrics.histogram("serve.queue.wait.ns", "count");
    report.metric(
        "serve.queue.wait_us",
        metrics.histogram("serve.queue.wait.ns", "sum") / waits.max(1.0) / 1e3,
        "us",
        waits as usize,
    );
    report.metric(
        "serve.queue.shed",
        metrics.counter("serve.requests.shed") as f64,
        "count",
        1,
    );

    // The same state the daemon started from, rebuilt in process: once
    // untimed for the untraced replay, once under spans for the traced one.
    let load = |rec: &mut Recorder| -> Result<Arc<Snapshot>, String> {
        let db = rec
            .span("model.minics.compile", 0, || {
                pex_model::minics::compile(&p.input.project.source)
            })
            .map_err(|e| e.to_string())?;
        let built = rec.span("serve.snapshot.build", 0, || {
            Snapshot::from_database("project".to_owned(), db, pex_model::Context::empty(), None)
        });
        if workload == Workload::Socket {
            rec.span("serve.persist.load", 0, || {
                pex_serve::persist::load(&p.snapshot)
            })
        } else {
            Ok(Arc::new(built))
        }
    };
    // Untraced pass: the baseline for the trace overhead.
    let registry = SnapshotRegistry::single(load(&mut Recorder::default())?);
    let mut untraced_us = Vec::new();
    for (req, line) in stream.iter().zip(&lines) {
        let t = Instant::now();
        serve_line(&registry, line, &mut None, 0);
        if let Request::Query(_) = req {
            untraced_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    drop(registry);

    let registry = SnapshotRegistry::single(load(rec)?);
    report.metric(
        "model.minics.compile_s",
        rec.total_s("model.minics.compile"),
        "s",
        1,
    );
    report.metric(
        "serve.snapshot.build_s",
        rec.total_s("serve.snapshot.build"),
        "s",
        1,
    );
    if workload == Workload::Socket {
        report.metric(
            "serve.persist.load_s",
            rec.total_s("serve.persist.load"),
            "s",
            1,
        );
        let bytes = std::fs::metadata(&p.snapshot)
            .map_err(|e| e.to_string())?
            .len();
        report.metric("serve.persist.bytes", bytes as f64, "bytes", 1);
    }
    let mark = Mark::now();
    let mut edit_layers = EditLayers::default();
    let mut traced_us = Vec::new();
    let mut twin_mismatches = 0usize;
    for (k, (req, line)) in stream.iter().zip(&lines).enumerate() {
        let request = match req {
            Request::Query(q) => *q as u64,
            Request::Update { source, .. } => {
                let request = (hot.len() + k) as u64;
                edit_layers.measure(&registry.default_snapshot(), source, rec, request);
                request
            }
        };
        let t = Instant::now();
        let answer = serve_line(&registry, line, &mut Some(&mut *rec), request);
        if let Request::Query(_) = req {
            traced_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if let Some(r) = &resps[k] {
            twin_mismatches += usize::from(blank_volatile(&answer) != blank_volatile(&r.line));
        }
    }
    let queries = traced_us.len();
    report.check(twin_mismatches == 0, || {
        format!("{twin_mismatches} in-process answers differ from the daemon's")
    });
    engine_counts(&mark.delta(), queries, report);
    report.metric(
        "model.arena.nodes",
        registry.default_snapshot().cache.arena.len() as f64,
        "count",
        1,
    );
    if workload == Workload::Edit {
        edit_layers.report(report);
    }

    let self_us = rec.self_time_medians_us();
    let self_of = |name: &str| self_us.get(name).copied().unwrap_or((f64::NAN, 0));
    for (metric, span) in [
        ("serve.json.parse_us", "serve.json.parse"),
        ("serve.registry.get_us", "serve.registry.get"),
        ("serve.snapshot.context_us", "serve.snapshot.context"),
        ("core.partial.parse_us", "core.partial.parse"),
        ("core.engine.search_us", "core.engine.search"),
        ("serve.proto.render_us", "serve.proto.render"),
    ] {
        let (v, n) = self_of(span);
        report.metric(metric, v, "us", n);
    }
    // `parse_request` includes its own JSON decode, as in the daemon;
    // `serve.json.parse_us` times that decode alone.
    let (parse_request, n) = self_of("serve.proto.parse_request");
    report.metric("serve.proto.parse_request_us", parse_request, "us", n);
    let exec = rec.durations_us("serve.proto.execute");
    report.metric("serve.proto.execute_us", median(&exec), "us", exec.len());
    if workload == Workload::Edit {
        let updates = rec.durations_us("serve.registry.update");
        report.metric(
            "serve.registry.update_us",
            median(&updates),
            "us",
            updates.len(),
        );
    }
    let bytes_in: Vec<f64> = lines.iter().map(|l| (l.len() + 1) as f64).collect();
    let bytes_out: Vec<f64> = resps
        .iter()
        .flatten()
        .map(|r| (r.line.len() + 1) as f64)
        .collect();
    report.metric(
        "serve.json.bytes_in",
        median(&bytes_in),
        "bytes",
        bytes_in.len(),
    );
    report.metric(
        "serve.json.bytes_out",
        median(&bytes_out),
        "bytes",
        bytes_out.len(),
    );
    report.metric(
        "bench.trace_overhead",
        median(&traced_us) / median(&untraced_us),
        "ratio",
        traced_us.len(),
    );

    // Residual: per hot query, the socket latency the client saw minus the
    // in-process time of the layers below the transport.
    let sums = rec.layer_sums_us("serve.request");
    let mut residuals = Vec::new();
    for (i, _) in hot.iter().enumerate() {
        let socket: Vec<f64> = stream
            .iter()
            .zip(&resps)
            .filter(|(req, _)| matches!(req, Request::Query(q) if *q == i))
            .filter_map(|(_, r)| r.as_ref().filter(|r| r.ok()).map(|r| r.latency_us))
            .collect();
        if let (false, Some(inproc)) = (socket.is_empty(), sums.get(&(i as u64))) {
            residuals.push(median(&socket) - median(inproc));
        }
    }
    report.metric(
        "serve.residual_us",
        median(&residuals),
        "us",
        residuals.len(),
    );
    Ok(())
}

/// The traced run. It measures the invoked workload's stream, and replays
/// short slices of the other two so that every layer is attributed on the
/// stream that exercises it; numbers from the invoked workload's own stream
/// take precedence.
pub fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    let mut rec = Recorder::default();
    let own = args.seconds * 0.5;
    let other = args.seconds * 0.25;
    // Later streams overwrite shared metrics: the serve layers are
    // attributed on `socket`, the engine layers on `replay`, unless the
    // invoked workload (always last) measures them itself.
    let order: Vec<Workload> = [Workload::Edit, Workload::Socket, Workload::Replay]
        .into_iter()
        .filter(|w| *w != args.workload)
        .chain(std::iter::once(args.workload))
        .collect();
    for w in order {
        let seconds = if w == args.workload { own } else { other };
        let mut part = Recorder::default();
        match w {
            Workload::Replay => replay::traced(args.seed, seconds, &mut part, report)?,
            _ => traced_serve(args, w, seconds, &mut part, report)?,
        }
        if w == args.workload {
            rec = part;
        }
    }
    let path = args
        .work_dir
        .join(format!("trace-{:?}-{}.jsonl", args.workload, args.seed).to_lowercase());
    rec.write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(())
}
