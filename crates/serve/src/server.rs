//! The worker pool: a fixed set of threads answering protocol requests
//! from a shared [`SnapshotRegistry`] behind a bounded admission queue.
//!
//! Every request line takes one path, whatever transport it came from:
//!
//! 1. **Admission.** [`ServerClient::submit`] counts the line as
//!    `received`. `{"cmd":"shutdown"}` is recognised here and nowhere
//!    else: it raises the shutdown flag and is answered on the spot, so it
//!    is never shed and never waits behind other work. Every other line is
//!    queued, or refused with an explicit `shed` (queue full) or
//!    `shutdown` (draining) error — a request on a live connection is
//!    never silently dropped.
//! 2. **Dispatch.** A worker pops the line, parses it, and runs the one
//!    verb dispatch, which renders the response body once and says how
//!    the request resolved and which resident tenant it ran against.
//! 3. **Delivery.** `deliver` addresses the body to the request under its
//!    own `id` and is the only place that records `serve.request.ns`, the
//!    `serve.requests.{ok,degraded,error,shed,coalesced}` counters, the
//!    shed window, the per-tenant counters and the query latency window.
//!    A shed line is answered through it like any other. Per-tenant
//!    counters exist only for tenants the registry holds, so a client's
//!    `project` string can never grow the metric registry.
//!
//! A request resolves its `Arc<Snapshot>` exactly once, so a concurrent
//! `reload` swaps tenants atomically: in-flight requests drain against the
//! snapshot they resolved. Identical queries (same tenant, query text and
//! knobs; no tracing artefacts) admitted while a twin executes share one
//! engine run, and each follower still resolves through `deliver`, so the
//! accounting identity `received == ok + degraded + error + shed +
//! pending` (see the `health` command) is coalescing-blind.
//! [`Server::shutdown`] closes admission, drains everything queued, and
//! joins the workers.
//!
//! Also recorded: `serve.queue.depth` / `serve.queue.depth.max` gauges,
//! the `serve.queue.wait.ns` histogram, a `serve.request` span per
//! dispatched request, and the rolling windows behind `stats`/`health`
//! (see [`crate::obs_json`]).

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use pex_core::CancelToken;

use crate::json::{self, Value};
use crate::lock;
use crate::obs_json;
use crate::proto::{self, Disposition, QueryRequest, Request, RequestDefaults};
use crate::queue::{Bounded, PushError};
use crate::registry::{self, ReloadError, SnapshotRegistry, UpdateError, DEFAULT_TENANT};

/// Server sizing and per-request defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. Defaults to the machine's available parallelism.
    pub workers: usize,
    /// Admission queue capacity; a full queue sheds (it never blocks the
    /// transport and never drops silently).
    pub queue_cap: usize,
    /// Fallbacks for optional request fields.
    pub defaults: RequestDefaults,
    /// SLO threshold for the `health` command's burn flag: burning when
    /// the rolling-window p99 latency (µs) exceeds this. `None` disables
    /// the flag.
    pub slo_p99_us: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        ServeConfig {
            workers,
            queue_cap: workers * 16,
            defaults: RequestDefaults::default(),
            slo_p99_us: None,
        }
    }
}

/// Where one request's answer goes: the `id` it echoes (known once the
/// line is parsed), the reply channel, and when the line was admitted.
struct Waiter {
    id: Option<Value>,
    reply: Sender<String>,
    admitted: Instant,
}

/// One admitted request line and where its answer goes.
struct Job {
    line: String,
    to: Waiter,
}

/// The books a resolution is entered in besides the global counters.
#[derive(Debug, Clone, Copy)]
enum Verb {
    /// A completion query: the latency window and the tenant's
    /// `requests.{ok,degraded,error}` counters.
    Query,
    /// An `update`: the tenant's `edits.{applied,rejected}` counters.
    Edit,
    /// Everything else: the global counters only.
    Control,
}

/// What one request resolved to, before it is addressed to anyone.
struct Answer {
    /// The response body (see [`proto::assemble_response`]).
    body: String,
    disposition: Disposition,
    verb: Verb,
    /// The resident tenant the request ran against; `None` for control
    /// verbs and for projects the registry does not hold.
    tenant: Option<String>,
}

impl Answer {
    fn control(body: String, disposition: Disposition) -> Answer {
        Answer {
            body,
            disposition,
            verb: Verb::Control,
            tenant: None,
        }
    }
}

/// In-flight coalescing state: key → waiters parked behind the leader
/// currently executing that key. The leader registers before running and
/// collects (removing the entry) after, so a request arriving later finds
/// no entry and simply becomes the next leader — coalescing only ever
/// shares work that is genuinely concurrent.
#[derive(Default)]
struct Coalescer {
    /// Locked with [`lock`], which recovers it after a panic: every change
    /// is one `insert`, `remove` or `push` that leaves the map whole.
    inflight: Mutex<HashMap<String, Vec<Waiter>>>,
    /// Notified whenever a twin parks, for [`Coalescer::hold_for_twin`].
    #[cfg(test)]
    parked: std::sync::Condvar,
}

impl Coalescer {
    /// Parks `waiter` behind an executing twin and returns `None`; or, when
    /// no twin is executing, registers the caller as leader and hands the
    /// waiter back. A leader must [`Coalescer::collect`] after its run.
    fn admit(&self, key: &str, waiter: Waiter) -> Option<Waiter> {
        let mut map = lock(&self.inflight);
        match map.entry(key.to_owned()) {
            Entry::Occupied(mut e) => {
                e.get_mut().push(waiter);
                #[cfg(test)]
                self.parked.notify_all();
                None
            }
            Entry::Vacant(e) => {
                e.insert(Vec::new());
                Some(waiter)
            }
        }
    }

    fn collect(&self, key: &str) -> Vec<Waiter> {
        let mut map = lock(&self.inflight);
        map.remove(key).unwrap_or_default()
    }

    /// Test hook: when [`HOLD_LEADER`] is armed with `key`, holds the
    /// leader of `key` until a twin has parked behind it, then disarms the
    /// hook. Tests use it to force the overlap that coalescing shares.
    #[cfg(test)]
    fn hold_for_twin(&self, key: &str) {
        if HOLD_LEADER.lock().expect("hold lock").as_deref() != Some(key) {
            return;
        }
        let map = lock(&self.inflight);
        drop(
            self.parked
                .wait_while(map, |map| map[key].is_empty())
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        *HOLD_LEADER.lock().expect("hold lock") = None;
    }
}

/// The coalesce key whose next leader [`Coalescer::hold_for_twin`] holds.
#[cfg(test)]
static HOLD_LEADER: Mutex<Option<String>> = Mutex::new(None);

/// A running worker pool. Call [`Server::shutdown`] to drain and join it;
/// a `Server` dropped without it leaves its workers parked on the open
/// queue.
pub struct Server {
    client: ServerClient,
    workers: Vec<JoinHandle<()>>,
}

/// A cheap, cloneable, thread-safe handle for submitting requests — what
/// transports (stdin, socket connections, in-process test clients) hold
/// while the [`Server`] itself stays with the thread that will join it.
#[derive(Clone)]
pub struct ServerClient {
    queue: Arc<Bounded<Job>>,
    registry: Arc<SnapshotRegistry>,
    shutdown_flag: Arc<AtomicBool>,
}

/// Counts one line in. `received` is bumped before any resolution counter
/// can fire, so `received - (ok+degraded+shed+errors)` is a true in-flight
/// count.
fn count_received() {
    pex_obs::counter!("serve.requests.received", 1);
    if pex_obs::enabled() {
        pex_obs::registry()
            .windowed(obs_json::RECEIVED_WINDOW)
            .record(1);
    }
}

impl ServerClient {
    /// Admits one request line. Exactly one response arrives on `reply`:
    /// the shutdown acknowledgement, an explicit `shed` (queue full) or
    /// `shutdown` (draining) error, or the worker's answer.
    pub fn submit(&self, line: String, reply: &Sender<String>) {
        count_received();
        let admitted = Instant::now();
        // Shutdown is recognised here, once for every transport. A line
        // whose `cmd` decodes to "shutdown" spells the word out or escapes
        // part of it, so every other line skips this parse.
        if line.contains("shutdown") || line.contains("\\u") {
            if let Ok(doc) = json::parse(&line) {
                if doc.get("cmd").and_then(Value::as_str) == Some("shutdown") {
                    self.request_shutdown();
                    let to = Waiter {
                        id: doc.get("id").cloned(),
                        reply: reply.clone(),
                        admitted,
                    };
                    let ack = Answer::control(proto::ack_rest("shutdown"), Disposition::Ok);
                    deliver(&to, &ack, false);
                    return;
                }
            }
        }
        let to = Waiter {
            id: None,
            reply: reply.clone(),
            admitted,
        };
        let (mut job, shed) = match self.queue.try_push(Job { line, to }) {
            Ok(depth) => {
                if pex_obs::enabled() {
                    pex_obs::registry()
                        .gauge("serve.queue.depth")
                        .set(depth as u64);
                }
                pex_obs::gauge_max!("serve.queue.depth.max", depth as u64);
                return;
            }
            Err(PushError::Full(job)) => (job, true),
            Err(PushError::Closed(job)) => (job, false),
        };
        // Refused: the line never reaches a worker, so it is parsed once,
        // here, for its id, verb and tenant.
        let doc = json::parse(&job.line).ok();
        let field = |k: &str| doc.as_ref().and_then(|d| d.get(k));
        job.to.id = field("id").cloned();
        let answer = if shed {
            // A shed query is the tenant's `requests.shed`; a shed edit is
            // one of its `edits.rejected`, so both per-tenant ledgers close.
            let verb = match field("cmd").map(Value::as_str) {
                None => Verb::Query,
                Some(Some("update")) => Verb::Edit,
                Some(_) => Verb::Control,
            };
            let tenant = match verb {
                Verb::Control => None,
                _ => self
                    .registry
                    .resident_tenant(field("project").and_then(Value::as_str))
                    .map(str::to_owned),
            };
            Answer {
                body: proto::error_rest("shed", "server overloaded: request queue is full"),
                disposition: Disposition::Shed,
                verb,
                tenant,
            }
        } else {
            let err = proto::error_rest("shutdown", "server is shutting down");
            Answer::control(err, Disposition::Error)
        };
        deliver(&job.to, &answer, false);
    }

    /// Answers a line the transport could not hand over whole — one past
    /// its length cap, or not UTF-8 — with a `kind` error. The line counts
    /// as received and resolves like any other.
    pub fn reject(&self, kind: &str, message: &str, reply: &Sender<String>) {
        count_received();
        let to = Waiter {
            id: None,
            reply: reply.clone(),
            admitted: Instant::now(),
        };
        let answer = Answer::control(proto::error_rest(kind, message), Disposition::Error);
        deliver(&to, &answer, false);
    }

    /// Whether shutdown has been requested: transports stop reading.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown_flag.load(Ordering::Relaxed)
    }

    /// Marks the server as shutting down, so transports stop reading.
    /// Admission stays open until [`Server::shutdown`], so lines already
    /// read are still answered.
    pub fn request_shutdown(&self) {
        self.shutdown_flag.store(true, Ordering::Relaxed);
    }
}

impl Server {
    /// Spawns `config.workers` workers over the shared registry.
    pub fn start(registry: Arc<SnapshotRegistry>, config: ServeConfig) -> Server {
        let client = ServerClient {
            queue: Arc::new(Bounded::new(config.queue_cap)),
            registry,
            shutdown_flag: Arc::new(AtomicBool::new(false)),
        };
        let coalescer = Arc::new(Coalescer::default());
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let ctx = WorkerCtx {
                    queue: Arc::clone(&client.queue),
                    registry: Arc::clone(&client.registry),
                    coalescer: Arc::clone(&coalescer),
                    defaults: config.defaults.clone(),
                    slo_p99_us: config.slo_p99_us,
                    cancel: CancelToken::new(),
                };
                std::thread::Builder::new()
                    .name(format!("pex-serve-worker-{i}"))
                    .spawn(move || worker_loop(&ctx))
                    .expect("spawn worker thread")
            })
            .collect();
        Server { client, workers }
    }

    /// A handle for submitting requests from other threads.
    pub fn client(&self) -> ServerClient {
        self.client.clone()
    }

    /// Graceful shutdown: close admission, drain everything already
    /// queued, join the workers.
    pub fn shutdown(self) {
        self.client.request_shutdown();
        self.client.queue.close();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Everything one worker thread needs, cloned per worker at spawn.
struct WorkerCtx {
    queue: Arc<Bounded<Job>>,
    registry: Arc<SnapshotRegistry>,
    coalescer: Arc<Coalescer>,
    defaults: RequestDefaults,
    slo_p99_us: Option<u64>,
    /// The engine's budget API takes a cancel token; nothing trips this
    /// one, because shutdown drains admitted work instead of cutting it.
    cancel: CancelToken,
}

fn worker_loop(ctx: &WorkerCtx) {
    while let Some(job) = ctx.queue.pop() {
        handle_job(ctx, job);
    }
}

/// Runs one job: coalesces it with an executing twin when it can,
/// otherwise dispatches it and delivers the answer to it and to every twin
/// that parked behind it meanwhile.
fn handle_job(ctx: &WorkerCtx, job: Job) {
    let wait_ns = job.to.admitted.elapsed().as_nanos() as u64;
    pex_obs::histogram!("serve.queue.wait.ns", wait_ns);
    if pex_obs::enabled() {
        pex_obs::registry()
            .gauge("serve.queue.depth")
            .set(ctx.queue.depth() as u64);
    }
    let _span = pex_obs::span("serve.request");
    let Job { line, mut to } = job;
    let doc = json::parse(&line);
    to.id = doc.as_ref().ok().and_then(|d| d.get("id").cloned());
    let request = proto::request_from(doc).map_err(|(_, msg)| msg);
    let key = match &request {
        Ok(Request::Query(q)) => q.coalesce_key(),
        _ => None,
    };
    let to = match &key {
        // Parked behind the executing leader, which delivers to it; this
        // worker is free for non-identical work.
        Some(key) => match ctx.coalescer.admit(key, to) {
            Some(to) => {
                #[cfg(test)]
                ctx.coalescer.hold_for_twin(key);
                to
            }
            None => return,
        },
        None => to,
    };
    let answer = dispatch(ctx, request);
    if let Some(key) = &key {
        // Collect *after* executing: twins admitted during the run are in
        // the list; twins arriving after this line lead their own run.
        for waiter in ctx.coalescer.collect(key) {
            deliver(&waiter, &answer, true);
        }
    }
    deliver(&to, &answer, false);
}

/// The one verb dispatch: runs a parsed request and renders its answer.
fn dispatch(ctx: &WorkerCtx, request: Result<Request, String>) -> Answer {
    let ok = |body| Answer::control(body, Disposition::Ok);
    let error = |kind, msg: &str| Answer::control(proto::error_rest(kind, msg), Disposition::Error);
    let request = match request {
        Ok(request) => request,
        Err(msg) => return error("bad_request", &msg),
    };
    match request {
        Request::Query(q) => query(ctx, &q),
        Request::Ping => ok(proto::ack_rest("pong")),
        Request::Stats => ok(obs_json::stats_rest(ctx.queue.depth(), &ctx.registry)),
        Request::Health => ok(obs_json::health_rest(
            ctx.queue.depth(),
            ctx.slo_p99_us,
            &ctx.registry,
        )),
        Request::Reload { project, force } => {
            match ctx.registry.reload(project.as_deref(), force) {
                Ok(info) => ok(proto::reload_rest(&info)),
                Err(e @ ReloadError::Dirty { .. }) => error("dirty", &e.to_string()),
                Err(ReloadError::Failed(msg)) => error("reload_failed", &msg),
            }
        }
        Request::Update { project, edits, .. } => {
            pex_obs::counter!("serve.edits.received", 1);
            let (body, disposition, tenant) = match ctx.registry.update(project.as_deref(), &edits)
            {
                Ok(info) => {
                    pex_obs::counter!("serve.edits.applied", 1);
                    if info.noop {
                        pex_obs::counter!("serve.edits.noop", 1);
                    }
                    let body = proto::update_rest(&info);
                    (body, Disposition::Ok, Some(info.project))
                }
                Err(e) => {
                    pex_obs::counter!("serve.edits.rejected", 1);
                    let body = match e {
                        UpdateError::Parse { line, col, message } => {
                            proto::parse_error_rest(line, col, &message)
                        }
                        UpdateError::Failed(msg) => proto::error_rest("update_failed", &msg),
                    };
                    let tenant = ctx.registry.resident_tenant(project.as_deref());
                    (body, Disposition::Error, tenant.map(str::to_owned))
                }
            };
            Answer {
                body,
                disposition,
                verb: Verb::Edit,
                tenant,
            }
        }
    }
}

/// Resolves a query's tenant and runs the engine against it.
fn query(ctx: &WorkerCtx, q: &QueryRequest) -> Answer {
    // Resolve the snapshot once; everything below (including a concurrent
    // `reload`) works against this Arc, which is what makes the swap
    // drain-safe. The snapshot carries its own site inference.
    let ((body, disposition), tenant) = match ctx.registry.get(q.project.as_deref()) {
        Ok(snapshot) => {
            let abs = snapshot.site_abs.as_ref();
            let run = proto::execute_rest(&snapshot, q, &ctx.defaults, &ctx.cancel, abs);
            let tenant = q.project.as_deref().unwrap_or(DEFAULT_TENANT);
            (run, Some(tenant.to_owned()))
        }
        Err(msg) => {
            let body = proto::error_rest("unknown_project", &msg);
            ((body, Disposition::Error), None)
        }
    };
    Answer {
        body,
        disposition,
        verb: Verb::Query,
        tenant,
    }
}

/// Addresses an answer to one request, records that request's
/// resolution, and sends it. This is the only place `serve.request.ns`,
/// `serve.requests.{ok,degraded,error,shed,coalesced}`, the shed window,
/// the per-tenant resolution counters and the query latency window are
/// recorded: every answered line — solo, coalescing leader or follower,
/// or answered at admission — resolves through here exactly once, which
/// keeps the accounting identity immune to coalescing. A shed line never
/// ran, so it stays out of `serve.request.ns` and the latency window.
fn deliver(to: &Waiter, answer: &Answer, coalesced: bool) {
    let response = proto::assemble_response(to.id.as_ref(), &answer.body);
    match answer.disposition {
        Disposition::Ok => pex_obs::counter!("serve.requests.ok", 1),
        Disposition::Degraded => pex_obs::counter!("serve.requests.degraded", 1),
        Disposition::Error => pex_obs::counter!("serve.requests.error", 1),
        Disposition::Shed => {
            pex_obs::counter!("serve.requests.shed", 1);
            if pex_obs::enabled() {
                pex_obs::registry()
                    .windowed(obs_json::SHED_WINDOW)
                    .record(1);
            }
        }
    }
    if answer.disposition != Disposition::Shed {
        let total_ns = to.admitted.elapsed().as_nanos() as u64;
        pex_obs::histogram!("serve.request.ns", total_ns);
        if matches!(answer.verb, Verb::Query) && pex_obs::enabled() {
            // Admission-to-response in µs — the same interval a client
            // measures, so the `stats` window percentiles cross-check
            // against client-side tallies.
            pex_obs::registry()
                .windowed(obs_json::REQUEST_WINDOW)
                .record(total_ns / 1_000);
        }
    }
    if coalesced {
        pex_obs::counter!("serve.requests.coalesced", 1);
    }
    if let Some(tenant) = &answer.tenant {
        let suffix = match (answer.verb, answer.disposition) {
            (Verb::Edit, Disposition::Error | Disposition::Shed) => "edits.rejected",
            (Verb::Edit, _) => "edits.applied",
            (_, Disposition::Ok) => "requests.ok",
            (_, Disposition::Degraded) => "requests.degraded",
            (_, Disposition::Error) => "requests.error",
            (_, Disposition::Shed) => "requests.shed",
        };
        registry::tenant_counter(tenant, suffix, 1);
        if coalesced {
            registry::tenant_counter(tenant, "coalesced", 1);
        }
    }
    // A gone client (dropped receiver) is not an error; the response
    // simply has nowhere to go.
    let _ = to.reply.send(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::snapshot::{Snapshot, SnapshotSource};
    use std::sync::mpsc::channel;

    /// Serialises the tests that submit requests: they share the global
    /// `serve.requests.*` counters, and the leak test checks exact deltas.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static SERIAL: Mutex<()> = Mutex::new(());
        SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn server(workers: usize, queue_cap: usize) -> Server {
        let snapshot = Snapshot::load(&SnapshotSource::Paint).unwrap();
        Server::start(
            Arc::new(SnapshotRegistry::single(snapshot)),
            ServeConfig {
                workers,
                queue_cap,
                ..ServeConfig::default()
            },
        )
    }

    #[test]
    fn answers_concurrent_queries_from_a_shared_snapshot() {
        let _serial = serial();
        let s = server(4, 64);
        let (tx, rx) = channel();
        const N: usize = 24;
        for i in 0..N {
            s.client().submit(
                format!("{{\"id\":{i},\"query\":\"?({{img, size}})\",\"limit\":3}}"),
                &tx,
            );
        }
        let mut seen = std::collections::HashSet::new();
        for _ in 0..N {
            let resp = rx.recv_timeout(std::time::Duration::from_secs(30)).unwrap();
            let doc = json::parse(&resp).unwrap();
            assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{resp}");
            seen.insert(doc.get("id").and_then(Value::as_u64).unwrap());
            let Some(Value::Arr(completions)) = doc.get("completions") else {
                panic!("completions expected: {resp}")
            };
            assert!(completions[0]
                .get("expr")
                .and_then(Value::as_str)
                .unwrap()
                .contains("ResizeDocument"));
        }
        assert_eq!(seen.len(), N, "every request answered exactly once");
        s.shutdown();
    }

    /// One round-trip: submit a line, wait for its response.
    fn roundtrip(s: &Server, line: &str) -> Value {
        let (tx, rx) = channel();
        s.client().submit(line.to_owned(), &tx);
        let resp = rx.recv_timeout(std::time::Duration::from_secs(60)).unwrap();
        json::parse(&resp).unwrap_or_else(|e| panic!("bad response {resp}: {e}"))
    }

    #[test]
    fn updates_flip_completions_and_report_surgical_invalidations() {
        let _serial = serial();
        let s = server(2, 64);
        let query = r#"{"id":1,"query":"?({img, size})","limit":3}"#;
        let top_expr = |doc: &Value| -> String {
            let Some(Value::Arr(completions)) = doc.get("completions") else {
                panic!("completions expected: {doc}")
            };
            completions[0]
                .get("expr")
                .and_then(Value::as_str)
                .unwrap()
                .to_owned()
        };
        let before = roundtrip(&s, query);
        assert!(top_expr(&before).contains("ResizeDocument"), "{before}");
        // Change `Normalize`'s return type: the abstract-type boost that
        // puts ResizeDocument first flows through `Normalize(doc)`, so
        // the edit demotes it — the paper query's answer changes.
        let unit = r#"namespace PaintDotNet.Client { class DocumentUtils { static System.Drawing.Size Normalize(PaintDotNet.Document d); static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; } } }"#;
        let update = format!(
            "{{\"id\":2,\"cmd\":\"update\",\"source\":\"{}\"}}",
            json::escape(unit)
        );
        let doc = roundtrip(&s, &update);
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{doc}");
        assert_eq!(doc.get("noop"), Some(&Value::Bool(false)));
        let invalidated = doc.get("invalidated").expect("invalidation report");
        assert!(
            invalidated
                .get("candidates")
                .and_then(Value::as_u64)
                .unwrap()
                > 0,
            "a signature change must invalidate candidate memo rows: {doc}"
        );
        let after = roundtrip(&s, query);
        assert_ne!(
            top_expr(&before),
            top_expr(&after),
            "the edit must change the paper query's top completion"
        );
        // Re-sending the same unit is a no-op: zero invalidations.
        let doc = roundtrip(&s, &update);
        assert_eq!(doc.get("noop"), Some(&Value::Bool(true)), "{doc}");
        let invalidated = doc.get("invalidated").expect("invalidation report");
        for key in ["chains", "candidates", "conversions", "reach"] {
            assert_eq!(
                invalidated.get(key).and_then(Value::as_u64),
                Some(0),
                "no-op update invalidated {key}: {doc}"
            );
        }
        s.shutdown();
    }

    #[test]
    fn garbled_updates_answer_parse_error_and_change_nothing() {
        let _serial = serial();
        let s = server(2, 64);
        let query = r#"{"id":1,"query":"?({img, size})","limit":5}"#;
        let before = roundtrip(&s, query);
        let doc = roundtrip(
            &s,
            r#"{"id":2,"cmd":"update","source":"namespace X {\n  class Broken {"}"#,
        );
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)), "{doc}");
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("parse_error"),
            "{doc}"
        );
        assert!(
            doc.get("line").and_then(Value::as_u64).unwrap() >= 1,
            "{doc}"
        );
        assert!(
            doc.get("col").and_then(Value::as_u64).unwrap() >= 1,
            "{doc}"
        );
        // The snapshot is untouched: the same query answers with the
        // byte-identical completion list (exprs, scores, order).
        let after = roundtrip(&s, query);
        assert_eq!(
            before.get("completions"),
            after.get("completions"),
            "completions changed across a rejected update"
        );
        assert_eq!(before.get("outcome"), after.get("outcome"));
        s.shutdown();
    }

    #[test]
    fn full_queue_sheds_explicitly() {
        let _serial = serial();
        // One worker and a tiny queue; flood it faster than one worker can
        // drain. Every submission gets *some* response: ok or shed.
        // Distinct ids keep the requests from coalescing (the id is not in
        // the coalesce key, but the limit knob here is) — vary the limit so
        // each request is genuinely distinct work.
        let s = server(1, 1);
        let (tx, rx) = channel();
        const N: usize = 40;
        for i in 0..N {
            s.client().submit(
                format!("{{\"id\":{i},\"query\":\"?\",\"limit\":{}}}", 50 + i),
                &tx,
            );
        }
        let mut ok = 0;
        let mut shed = 0;
        for _ in 0..N {
            let resp = rx.recv_timeout(std::time::Duration::from_secs(60)).unwrap();
            let doc = json::parse(&resp).unwrap();
            match doc.get("error").and_then(Value::as_str) {
                Some("shed") => shed += 1,
                None => ok += 1,
                Some(other) => panic!("unexpected error kind {other}: {resp}"),
            }
        }
        assert_eq!(ok + shed, N);
        assert!(ok > 0, "the worker must make progress");
        assert!(
            shed > 0,
            "a 1-deep queue under a 40-request burst must shed"
        );
        s.shutdown();
    }

    #[test]
    fn shutdown_drains_admitted_requests() {
        let _serial = serial();
        let s = server(2, 64);
        let (tx, rx) = channel();
        for i in 0..10 {
            s.client()
                .submit(format!("{{\"id\":{i},\"query\":\"img.?f\"}}"), &tx);
        }
        s.shutdown();
        drop(tx);
        let responses: Vec<String> = rx.iter().collect();
        assert_eq!(
            responses.len(),
            10,
            "graceful shutdown answers everything admitted"
        );
    }

    #[test]
    fn submissions_after_close_get_a_shutdown_error() {
        let _serial = serial();
        let s = server(1, 8);
        let (tx, rx) = channel();
        s.client.queue.close();
        s.client().submit("{\"id\":1,\"query\":\"?\"}".into(), &tx);
        let resp = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert!(resp.contains("\"error\":\"shutdown\""), "{resp}");
        s.shutdown();
    }

    #[test]
    fn shutdown_commands_are_acked_at_admission_and_raise_the_flag() {
        let _serial = serial();
        let s = server(1, 8);
        let (tx, rx) = channel();
        assert!(!s.client().shutdown_requested());
        s.client()
            .submit("{\"id\":7,\"cmd\":\"shutdown\"}".into(), &tx);
        let resp = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert!(resp.contains("\"shutdown\":true"), "{resp}");
        assert!(s.client().shutdown_requested());
        s.shutdown();
    }

    #[test]
    fn malformed_lines_get_bad_request_not_a_crash() {
        let _serial = serial();
        let s = server(2, 8);
        let (tx, rx) = channel();
        s.client().submit("this is not json".into(), &tx);
        s.client().submit("{\"id\":3}".into(), &tx);
        for _ in 0..2 {
            let resp = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
            let doc = json::parse(&resp).unwrap();
            assert_eq!(
                doc.get("error").and_then(Value::as_str),
                Some("bad_request"),
                "{resp}"
            );
        }
        // The pool survives and still answers real queries.
        s.client().submit("{\"id\":4,\"cmd\":\"ping\"}".into(), &tx);
        let resp = rx.recv_timeout(std::time::Duration::from_secs(5)).unwrap();
        assert!(resp.contains("\"pong\":true"), "{resp}");
        s.shutdown();
    }

    #[test]
    fn stats_and_health_commands_answer_from_the_live_registry() {
        let _serial = serial();
        pex_obs::set_enabled(true);
        let s = server(2, 16);
        let (tx, rx) = channel();
        let timeout = std::time::Duration::from_secs(30);
        s.client()
            .submit("{\"id\":1,\"query\":\"?\",\"limit\":3}".into(), &tx);
        let resp = rx.recv_timeout(timeout).unwrap();
        assert!(resp.contains("\"ok\":true"), "{resp}");

        s.client()
            .submit("{\"id\":2,\"cmd\":\"stats\"}".into(), &tx);
        let resp = rx.recv_timeout(timeout).unwrap();
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{resp}");
        let stats = doc.get("stats").expect("stats body");
        assert!(stats.get("queue_depth").and_then(Value::as_u64).is_some());
        let w60 = stats
            .get("windows")
            .and_then(|w| w.get("60s"))
            .expect("60s window");
        assert!(
            w60.get("count").and_then(Value::as_u64).unwrap() >= 1,
            "the query latency landed in the window: {resp}"
        );

        s.client()
            .submit("{\"id\":3,\"cmd\":\"health\"}".into(), &tx);
        let resp = rx.recv_timeout(timeout).unwrap();
        let doc = json::parse(&resp).unwrap();
        let health = doc.get("health").expect("health body");
        let requests = health.get("requests").expect("request accounting");
        let field = |k: &str| requests.get(k).and_then(Value::as_u64).unwrap();
        assert_eq!(
            field("received"),
            field("ok") + field("degraded") + field("shed") + field("errors") + field("pending"),
            "accounting identity: {resp}"
        );
        assert!(health.get("slo").is_some(), "{resp}");
        // The tenant table lists at least the pinned default tenant.
        let tenants = health.get("tenants").expect("tenant table: {resp}");
        assert!(tenants.get(DEFAULT_TENANT).is_some(), "{resp}");
        s.shutdown();
    }

    #[test]
    fn project_queries_route_to_their_tenant_snapshot() {
        let _serial = serial();
        let registry = Arc::new(SnapshotRegistry::single(
            Snapshot::load(&SnapshotSource::Paint).unwrap(),
        ));
        registry
            .insert("geo", Snapshot::load(&SnapshotSource::Geometry).unwrap())
            .unwrap();
        let s = Server::start(Arc::clone(&registry), ServeConfig::default());
        let (tx, rx) = channel();
        let timeout = std::time::Duration::from_secs(30);
        // The geometry context knows `point` (a Point local); paint does not.
        s.client().submit(
            "{\"id\":1,\"query\":\"point.?f\",\"project\":\"geo\",\"limit\":3}".into(),
            &tx,
        );
        let resp = rx.recv_timeout(timeout).unwrap();
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{resp}");
        // The same query against the default (paint) tenant fails to parse:
        // proof the `project` field selected a different snapshot.
        s.client()
            .submit("{\"id\":2,\"query\":\"point.?f\",\"limit\":3}".into(), &tx);
        let resp = rx.recv_timeout(timeout).unwrap();
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("error").and_then(Value::as_str), Some("parse"));
        // Unknown tenants get the explicit error kind.
        s.client().submit(
            "{\"id\":3,\"query\":\"?\",\"project\":\"nope\"}".into(),
            &tx,
        );
        let resp = rx.recv_timeout(timeout).unwrap();
        let doc = json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("unknown_project"),
            "{resp}"
        );
        // A reload with no origin reports `reload_failed`, keeps serving.
        s.client()
            .submit("{\"id\":4,\"cmd\":\"reload\"}".into(), &tx);
        let resp = rx.recv_timeout(timeout).unwrap();
        let doc = json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("reload_failed"),
            "{resp}"
        );
        s.client().submit("{\"id\":5,\"cmd\":\"ping\"}".into(), &tx);
        assert!(rx.recv_timeout(timeout).unwrap().contains("pong"));
        s.shutdown();
    }

    #[test]
    fn identical_inflight_queries_coalesce_into_one_run() {
        let _serial = serial();
        pex_obs::set_enabled(true);
        const N: usize = 32;
        // Identical work (same key); distinct ids (not in the key).
        let line = |i: usize| format!("{{\"id\":{i},\"query\":\"?\",\"limit\":400}}");
        let Ok(Request::Query(q)) = proto::parse_request(&line(0)) else {
            panic!("a query line");
        };
        // Coalescing needs genuine overlap: hold the first leader until
        // the second worker has parked a twin behind it.
        *HOLD_LEADER.lock().unwrap() = q.coalesce_key();
        let before = pex_obs::registry()
            .counter("serve.requests.coalesced")
            .get();
        let s = server(2, 64);
        let (tx, rx) = channel();
        for i in 0..N {
            s.client().submit(line(i), &tx);
        }
        let mut bodies = std::collections::HashSet::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..N {
            let resp = rx.recv_timeout(std::time::Duration::from_secs(60)).unwrap();
            let doc = json::parse(&resp).unwrap();
            assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{resp}");
            seen.insert(doc.get("id").and_then(Value::as_u64).unwrap());
            // Strip the id prefix: coalesced twins share the body bytes.
            bodies.insert(resp.split_once(',').unwrap().1.to_owned());
        }
        s.shutdown();
        *HOLD_LEADER.lock().unwrap() = None;
        assert_eq!(seen.len(), N, "every twin answered under its own id");
        let coalesced = pex_obs::registry()
            .counter("serve.requests.coalesced")
            .get()
            - before;
        assert!(
            coalesced >= 1,
            "identical in-flight queries never coalesced"
        );
        assert!(
            (bodies.len() as u64) <= N as u64 - coalesced,
            "each coalesced follower shares a leader's body: {} bodies, {coalesced} coalesced",
            bodies.len()
        );
    }

    #[test]
    fn default_reload_swaps_without_dropping_requests() {
        let _serial = serial();
        use crate::registry::Origin;
        // A registry whose default can be rebuilt from its source.
        let registry = Arc::new(SnapshotRegistry::new(
            Snapshot::load(&SnapshotSource::Paint).unwrap(),
            Some(Origin::Source {
                source: SnapshotSource::Paint,
                locals: Vec::new(),
            }),
            None,
            None,
        ));
        // Explicit queue headroom: on a single-core runner the default
        // cap (workers * 16) can be exactly the burst size, and whether
        // the lone worker drains a slot mid-burst is a scheduler race.
        let config = ServeConfig {
            queue_cap: 64,
            ..ServeConfig::default()
        };
        let s = Server::start(Arc::clone(&registry), config);
        let (tx, rx) = channel();
        let timeout = std::time::Duration::from_secs(60);
        const BEFORE: usize = 8;
        const AFTER: usize = 8;
        for i in 0..BEFORE {
            s.client().submit(
                format!(
                    "{{\"id\":{i},\"query\":\"?({{img, size}})\",\"limit\":{}}}",
                    3 + i
                ),
                &tx,
            );
        }
        s.client()
            .submit("{\"id\":100,\"cmd\":\"reload\"}".into(), &tx);
        for i in 0..AFTER {
            s.client().submit(
                format!(
                    "{{\"id\":{},\"query\":\"?({{img, size}})\",\"limit\":{}}}",
                    200 + i,
                    3 + i
                ),
                &tx,
            );
        }
        let mut answered = 0;
        let mut reloaded = false;
        for _ in 0..(BEFORE + AFTER + 1) {
            let resp = rx.recv_timeout(timeout).unwrap();
            let doc = json::parse(&resp).unwrap();
            assert_eq!(doc.get("ok"), Some(&Value::Bool(true)), "{resp}");
            if doc.get("reloaded").is_some() {
                reloaded = true;
            } else {
                answered += 1;
            }
        }
        assert!(reloaded, "the reload was acknowledged");
        assert_eq!(
            answered,
            BEFORE + AFTER,
            "zero requests dropped across the hot swap"
        );
        assert_eq!(registry.generation(None), Some(1));
        s.shutdown();
    }

    #[test]
    fn client_chosen_projects_never_mint_tenant_metrics() {
        let _serial = serial();
        pex_obs::set_enabled(true);
        let obs = pex_obs::registry();
        // Every counter this test could mint carries its `leakp` prefix.
        let minted = || {
            obs.snapshot()
                .counters
                .keys()
                .filter(|k| k.starts_with("serve.tenant.leakp"))
                .count()
        };
        let count = |name: &str| obs.counter(name).get();
        let resolved = || {
            ["ok", "degraded", "error", "shed"]
                .iter()
                .map(|k| count(&format!("serve.requests.{k}")))
                .sum::<u64>()
        };
        let (received_before, resolved_before) = (count("serve.requests.received"), resolved());
        let timeout = std::time::Duration::from_secs(60);
        let s = server(1, 1);
        let c = s.client();
        let (tx, rx) = channel();
        let mut sent = 0u64;

        // Unknown-project queries and updates, one at a time (none shed).
        for i in 0..20 {
            for (line, kind) in [
                (
                    format!(r#"{{"id":{i},"query":"?","project":"leakp-q{i}"}}"#),
                    "unknown_project",
                ),
                (
                    format!(
                        r#"{{"id":{i},"cmd":"update","project":"leakp-u{i}","source":"namespace X {{ class A {{ }} }}"}}"#
                    ),
                    "update_failed",
                ),
            ] {
                c.submit(line, &tx);
                sent += 1;
                let doc = json::parse(&rx.recv_timeout(timeout).unwrap()).unwrap();
                assert_eq!(
                    doc.get("error").and_then(Value::as_str),
                    Some(kind),
                    "{doc}"
                );
                assert_eq!(doc.get("id").and_then(Value::as_u64), Some(i));
            }
        }
        assert_eq!(minted(), 0, "unknown projects minted tenant counters");

        // A shed burst of unknown-project queries behind a slow one. Every
        // line is answered exactly once, under its own id.
        let mut shed = 0;
        for attempt in 0..5 {
            c.submit(
                r#"{"id":1000,"query":"?","limit":400,"max_steps":2000000}"#.into(),
                &tx,
            );
            sent += 1;
            const BURST: u64 = 40;
            for i in 0..BURST {
                c.submit(
                    format!(r#"{{"id":{i},"query":"?","project":"leakp-s{attempt}-{i}"}}"#),
                    &tx,
                );
                sent += 1;
            }
            let mut ids = std::collections::BTreeSet::new();
            for _ in 0..=BURST {
                let doc = json::parse(&rx.recv_timeout(timeout).unwrap()).unwrap();
                match doc.get("error").and_then(Value::as_str) {
                    Some("shed") => shed += 1,
                    Some("unknown_project") | None => {}
                    Some(other) => panic!("unexpected error kind {other}: {doc}"),
                }
                assert!(ids.insert(doc.get("id").and_then(Value::as_u64).unwrap()));
            }
            assert_eq!(ids.len() as u64, BURST + 1, "one answer per line");
            if shed > 0 {
                break;
            }
        }
        assert!(shed > 0, "a 1-deep queue behind a slow query must shed");
        assert_eq!(minted(), 0, "the shed path minted tenant counters");
        assert!(rx.try_recv().is_err(), "no line was answered twice");
        s.shutdown();

        assert_eq!(count("serve.requests.received") - received_before, sent);
        assert_eq!(
            resolved() - resolved_before,
            sent,
            "received == ok + degraded + error + shed over the test"
        );
    }

    #[test]
    fn shed_updates_close_the_tenant_edit_ledger() {
        let _serial = serial();
        pex_obs::set_enabled(true);
        let obs = pex_obs::registry();
        let edits = || {
            ["applied", "rejected"]
                .iter()
                .map(|k| obs.counter(&format!("serve.tenant.shedp.edits.{k}")).get())
                .sum::<u64>()
        };
        let timeout = std::time::Duration::from_secs(60);
        let s = server(1, 1);
        s.client
            .registry
            .insert("shedp", Snapshot::load(&SnapshotSource::Paint).unwrap())
            .unwrap();
        let c = s.client();
        let (tx, rx) = channel();
        let before = edits();
        let mut sent = 0u64;
        let mut shed = 0;
        // A burst of updates to a resident tenant behind a slow query on a
        // 1-deep queue: most of the burst is shed at admission.
        for _ in 0..5 {
            c.submit(
                r#"{"id":0,"query":"?","limit":400,"max_steps":2000000}"#.into(),
                &tx,
            );
            const BURST: u64 = 40;
            for i in 1..=BURST {
                c.submit(
                    format!(
                        r#"{{"id":{i},"cmd":"update","project":"shedp","source":"namespace X {{ class Broken {{"}}"#
                    ),
                    &tx,
                );
            }
            sent += BURST;
            for _ in 0..=BURST {
                let doc = json::parse(&rx.recv_timeout(timeout).unwrap()).unwrap();
                if doc.get("error").and_then(Value::as_str) == Some("shed") {
                    shed += 1;
                }
            }
            if shed > 0 {
                break;
            }
        }
        s.shutdown();
        assert!(shed > 0, "a 1-deep queue behind a slow query must shed");
        assert_eq!(
            edits() - before,
            sent,
            "every update, shed or not, is the tenant's applied or rejected"
        );
    }

    #[test]
    fn a_panic_under_the_coalescer_lock_poisons_nothing() {
        let coalescer = Arc::new(Coalescer::default());
        let (tx, _rx) = channel();
        let waiter = || Waiter {
            id: None,
            reply: tx.clone(),
            admitted: Instant::now(),
        };
        assert!(coalescer.admit("k", waiter()).is_some(), "the first leads");
        let held = Arc::clone(&coalescer);
        let panicked = std::thread::spawn(move || {
            let _map = held.inflight.lock();
            panic!("a panic while holding the coalescer lock");
        })
        .join();
        assert!(panicked.is_err() && coalescer.inflight.is_poisoned());
        assert!(coalescer.admit("k", waiter()).is_none(), "a twin parks");
        assert_eq!(coalescer.collect("k").len(), 1);
        assert!(coalescer.admit("k", waiter()).is_some(), "the next leads");
        assert!(coalescer.collect("k").is_empty());
    }
}
