//! The JSON-lines request/response protocol and its execution semantics.
//!
//! One request per line, one response per line. Responses carry the
//! request's `id` verbatim (any JSON value), so clients may pipeline
//! requests and match answers out of order.
//!
//! ## Requests
//!
//! ```json
//! {"id": 1, "query": "?({img, size})", "limit": 5, "deadline_ms": 40}
//! {"id": 2, "query": "p.?f", "locals": ["p:Geo.Point"]}
//! {"id": 3, "query": "?", "trace": true, "explain": true, "trace_id": "t-ide-77"}
//! {"id": 4, "query": "?", "project": "geometry-v2"}
//! {"id": 5, "cmd": "ping"}
//! {"id": 6, "cmd": "stats"}
//! {"id": 7, "cmd": "health"}
//! {"id": 8, "cmd": "reload", "project": "geometry-v2"}
//! {"id": 9, "cmd": "update", "source": "namespace Geo { class Point { int X; } }"}
//! {"id": 10, "cmd": "update", "project": "geometry-v2", "edits": ["...", "..."]}
//! {"cmd": "shutdown"}
//! ```
//!
//! `limit`, `deadline_ms`, `max_steps`, `max_depth`, and `locals` are
//! optional; omitted fields fall back to the server's
//! [`RequestDefaults`]. `max_depth` caps lookup-chain length per query
//! (up to the engine limit) and is rejected as `bad_request` beyond it.
//!
//! `project` selects a tenant from the server's
//! [`SnapshotRegistry`](crate::registry::SnapshotRegistry); when absent
//! the request runs against the default tenant and the response is
//! byte-compatible with the single-tenant protocol. `{"cmd":"reload"}`
//! hot-swaps the named tenant's snapshot (or the default when no
//! `project` is given) without dropping in-flight requests.
//!
//! Introspection fields: every query response echoes a `trace_id`
//! (client-supplied, or generated when absent). `"trace": true`
//! additionally returns the request's span tree and per-query best-first
//! search stats inline; `"explain": true` attaches the per-term score
//! breakdown (the six Figure 7 ranking terms, summing exactly to the
//! score) to each completion. The `stats` and `health` commands are
//! answered by the worker pool from the live registry (see
//! [`crate::obs_json`]).
//!
//! ## Responses
//!
//! ```json
//! {"id":1,"ok":true,"outcome":"limit","degraded":false,"latency_us":812,
//!  "completions":[{"expr":"ResizeDocument(img, size, 0, 0)","score":2}]}
//! {"id":9,"ok":false,"error":"parse","message":"..."}
//! ```
//!
//! Every answer is a *body* (the members after the `id`) written by the
//! one [`JsonWriter`] and addressed by [`assemble_response`].
//!
//! Every failure has an explicit `error` kind, from a closed set:
//! `bad_request` (malformed JSON, an unusable field, a non-UTF-8 line),
//! `request_too_large` (over the transport's line cap; skipped unparsed,
//! so answered without an `id`), `parse` (the query did not parse),
//! `unknown_project`, `shed` (queue full), `reload_failed` (the old
//! snapshot keeps serving), `dirty` (a plain `reload` over unsaved edits;
//! retry with `"force":true`), `parse_error` (an `update`'s source failed;
//! carries 1-based `line`/`col`, snapshot untouched), `update_failed`,
//! `connection_limit` (socket at `--max-connections`), `shutdown`
//! (draining) and `internal_error` (an engine fault, such as an `explain`
//! row whose breakdown does not reproduce its score; carries the request's
//! `trace_id`). A request is **never** dropped without a response on a
//! live connection.

use std::time::{Duration, Instant};

use pex_abstract::AbsTypes;
use pex_core::{
    CancelToken, CompleteOptions, Completer, Completion, QueryBudget, RankConfig, ScoreBreakdown,
};

use crate::json::{self, JsonWriter, Value};
use crate::snapshot::Snapshot;

/// Server-side fallbacks for optional request fields.
#[derive(Debug, Clone)]
pub struct RequestDefaults {
    /// Completions returned when the request has no `limit`.
    pub limit: usize,
    /// Wall-clock deadline applied when the request has no `deadline_ms`.
    pub deadline_ms: Option<u64>,
    /// Step budget applied when the request has no `max_steps`.
    pub max_steps: usize,
}

impl Default for RequestDefaults {
    fn default() -> Self {
        RequestDefaults {
            limit: 10,
            deadline_ms: None,
            max_steps: QueryBudget::default().max_steps,
        }
    }
}

/// A parsed protocol request: everything a worker answers. The pool echoes
/// the `id` it reads off the line; `Query` and `Update` also carry it for
/// in-process callers that render their own responses.
///
/// `{"cmd":"shutdown"}` is not a request: admission
/// ([`ServerClient::submit`](crate::server::ServerClient::submit))
/// answers it before a line is queued, so it is never shed, never waits
/// behind other work, and gets the same bytes on every transport.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// A completion query.
    Query(QueryRequest),
    /// Liveness probe; answered with `{"ok":true,"pong":true}`.
    Ping,
    /// Live registry snapshot plus rolling-window percentiles.
    Stats,
    /// Queue depth, windowed shed rate, and the SLO-burn flag.
    Health,
    /// Hot-swap a tenant's snapshot (the default tenant when `project`
    /// is `None`); in-flight requests drain against the old snapshot.
    Reload {
        /// The tenant to reload; `None` reloads the default tenant.
        project: Option<String>,
        /// Discard unsaved incremental edits instead of refusing.
        force: bool,
    },
    /// Apply incremental mini-C# edits to a tenant's snapshot with
    /// surgical cache invalidation; the batch is atomic.
    Update {
        /// Echoed request id.
        id: Option<Value>,
        /// The tenant to edit; `None` edits the default tenant.
        project: Option<String>,
        /// The edited compilation units, applied in order.
        edits: Vec<String>,
    },
}

/// How a request resolved — the worker pool's accounting signal for the
/// `serve.requests.{ok,degraded,error,shed}` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Answered successfully, with a complete (non-degraded) result.
    Ok,
    /// Answered successfully, but the enumeration was cut short by a
    /// deadline, budget, or cancellation.
    Degraded,
    /// Answered with an error response.
    Error,
    /// Refused at admission with a `shed` error: the queue was full.
    Shed,
}

/// The payload of a [`Request::Query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// Client-chosen id, echoed on the response.
    pub id: Option<Value>,
    /// Tenant/project id; `None` targets the default tenant.
    pub project: Option<String>,
    /// Partial-expression surface syntax (the paper's Figure 5(b)).
    pub query: String,
    /// Result cap for this request.
    pub limit: Option<usize>,
    /// Per-request wall-clock deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Per-request step budget.
    pub max_steps: Option<usize>,
    /// Per-request chain-depth cap (validated against
    /// [`pex_core::MAX_DEPTH_LIMIT`] at execution time).
    pub max_depth: Option<usize>,
    /// `name:Qualified.Type` local declarations replacing the snapshot's
    /// default context.
    pub locals: Vec<String>,
    /// Client-supplied trace id; generated when absent. Echoed on the
    /// response either way.
    pub trace_id: Option<String>,
    /// Return the request's span tree and per-query search stats inline.
    pub trace: bool,
    /// Attach a per-term score breakdown to each completion.
    pub explain: bool,
}

impl QueryRequest {
    /// The in-flight coalescing identity: two requests with the same key
    /// would run the identical engine computation, so a follower can share
    /// the leader's response body. `None` means this request must run
    /// alone: traced/explained requests carry per-run artefacts, and a
    /// client-supplied `trace_id` must be echoed verbatim, not shared.
    pub fn coalesce_key(&self) -> Option<String> {
        if self.trace || self.explain || self.trace_id.is_some() {
            return None;
        }
        // Netstring framing: each component is length-prefixed, so no
        // crafted field content (a JSON \u0001 escape survives parsing)
        // can alias two distinct requests onto one key.
        let mut key = String::new();
        let mut push = |part: &str| {
            key.push_str(&part.len().to_string());
            key.push(':');
            key.push_str(part);
            key.push('\u{1}');
        };
        push(self.project.as_deref().unwrap_or(""));
        push(&self.query);
        push(&self.limit.map(|v| v.to_string()).unwrap_or_default());
        push(&self.deadline_ms.map(|v| v.to_string()).unwrap_or_default());
        push(&self.max_steps.map(|v| v.to_string()).unwrap_or_default());
        push(&self.max_depth.map(|v| v.to_string()).unwrap_or_default());
        for local in &self.locals {
            push(local);
        }
        Some(key)
    }
}

/// Parses one request line. `Err` carries `(echoed id, message)` for the
/// `bad_request` response; the id is recovered when the line is valid JSON
/// with an `id` field even if the rest of the request is unusable.
pub fn parse_request(line: &str) -> Result<Request, (Option<Value>, String)> {
    request_from(json::parse(line))
}

/// [`parse_request`] over a line the caller has already run through
/// [`json::parse`], so the worker reads the echoed `id` from the same
/// parse.
pub(crate) fn request_from(
    doc: Result<Value, json::ParseError>,
) -> Result<Request, (Option<Value>, String)> {
    let doc = doc.map_err(|e| (None, format!("invalid JSON: {e}")))?;
    let id = doc.get("id").cloned();
    request_fields(&doc, id.clone()).map_err(|msg| (id, msg))
}

/// Reads a request object's fields; `Err` is the `bad_request` message.
fn request_fields(doc: &Value, id: Option<Value>) -> Result<Request, String> {
    if !matches!(doc, Value::Obj(_)) {
        return Err("request must be a JSON object".to_owned());
    }
    // Optional fields: absent and `null` both mean "not given".
    let get = |field: &str| doc.get(field).filter(|v| **v != Value::Null);
    let string = |field: &str| {
        get(field)
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("`{field}` must be a string"))
            })
            .transpose()
    };
    let strings = |field: &str, items: &[Value]| {
        items
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| format!("`{field}` entries must be strings"))
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let uint = |field: &str| {
        get(field)
            .map(|v| {
                v.as_u64()
                    .ok_or_else(|| format!("`{field}` must be a non-negative integer"))
            })
            .transpose()
    };
    let flag = |field: &str| match get(field) {
        None => Ok(false),
        Some(Value::Bool(b)) => Ok(*b),
        Some(_) => Err(format!("`{field}` must be a boolean")),
    };
    let project = string("project")?;
    if let Some(cmd) = doc.get("cmd") {
        return match cmd.as_str() {
            Some("ping") => Ok(Request::Ping),
            Some("stats") => Ok(Request::Stats),
            Some("health") => Ok(Request::Health),
            Some("reload") => Ok(Request::Reload {
                project,
                force: flag("force")?,
            }),
            Some("update") => {
                let edits = match (doc.get("source"), doc.get("edits")) {
                    (Some(src), None) => {
                        vec![src.as_str().ok_or("`source` must be a string")?.to_owned()]
                    }
                    (None, Some(Value::Arr(items))) => strings("edits", items)?,
                    (None, Some(_)) => return Err("`edits` must be an array of strings".into()),
                    (Some(_), Some(_)) => {
                        return Err("pass either `source` or `edits`, not both".into())
                    }
                    (None, None) => {
                        return Err("update requires a `source` string or an `edits` array".into())
                    }
                };
                // `unit` (the edited class, LSP-style) is accepted and
                // ignored: the unit's own declarations say what changed.
                Ok(Request::Update { id, project, edits })
            }
            _ => Err(format!("unknown cmd {cmd}")),
        };
    }
    let query = doc
        .get("query")
        .ok_or("missing `query` (or `cmd`) field")?
        .as_str()
        .ok_or("`query` must be a string")?
        .to_owned();
    let limit = uint("limit")?.map(|n| n as usize);
    let deadline_ms = uint("deadline_ms")?;
    let max_steps = uint("max_steps")?.map(|n| n as usize);
    let max_depth = uint("max_depth")?.map(|n| n as usize);
    let trace = flag("trace")?;
    let explain = flag("explain")?;
    let trace_id = string("trace_id")?;
    let locals = match get("locals") {
        None => Vec::new(),
        Some(Value::Arr(items)) => strings("locals", items)?,
        Some(_) => return Err("`locals` must be an array of strings".into()),
    };
    Ok(Request::Query(QueryRequest {
        id,
        project,
        query,
        limit,
        deadline_ms,
        max_steps,
        max_depth,
        locals,
        trace_id,
        trace,
        explain,
    }))
}

/// Renders a response *body*: `fields` writes the members after the `id`
/// (starting with `"ok"`), and the closing brace is added here. Every
/// verb's answer is a body; [`assemble_response`] addresses it.
pub(crate) fn body(fields: impl FnOnce(&mut JsonWriter)) -> String {
    let mut w = JsonWriter::default();
    fields(&mut w);
    w.close('}');
    w.finish()
}

/// Renders an error response *body* — everything after the opening brace
/// and the `id` field (see [`assemble_response`]).
pub fn error_rest(kind: &str, message: &str) -> String {
    body(|w| {
        w.field("ok", false)
            .field("error", kind)
            .field("message", message);
    })
}

/// Renders an error response of the given kind.
pub fn error_response(id: Option<&Value>, kind: &str, message: &str) -> String {
    assemble_response(id, &error_rest(kind, message))
}

/// Prepends the per-request `id` to a response body rendered by
/// [`execute`]'s engine run or [`error_rest`]. Coalesced twins share one
/// body and differ only in this prefix, so the single-request rendering is
/// byte-identical to the pre-coalescing protocol.
pub fn assemble_response(id: Option<&Value>, rest: &str) -> String {
    let mut w = JsonWriter::default();
    w.open('{');
    if let Some(id) = id {
        w.key("id").value(id);
    }
    w.body(rest);
    w.finish()
}

/// The `{"ok":true,"<flag>":true}` body acknowledging `ping` (`pong`) and
/// `shutdown`.
pub(crate) fn ack_rest(flag: &str) -> String {
    body(|w| {
        w.field("ok", true).field(flag, true);
    })
}

/// The body acknowledging a successful `reload`. A forced reload over a
/// tenant with unsaved incremental edits carries an explicit
/// `"discarded_edits":true` marker — edits are never dropped silently.
pub(crate) fn reload_rest(info: &crate::registry::ReloadInfo) -> String {
    body(|w| {
        w.field("ok", true)
            .field("reloaded", info.project.as_str())
            .field("bytes", info.bytes)
            .field("swapped", info.swapped);
        if info.discarded_edits {
            w.field("discarded_edits", true);
        }
    })
}

/// The body of [`update_response`].
pub(crate) fn update_rest(info: &crate::registry::UpdateInfo) -> String {
    let inv = &info.stats.invalidated;
    body(|w| {
        w.field("ok", true)
            .field("updated", info.project.as_str())
            .field("applied", info.applied)
            .field("noop", info.noop)
            .key("invalidated")
            .open('{')
            .field("chains", inv.chains)
            .field("candidates", inv.candidates)
            .field("conversions", inv.conversions)
            .field("reach", u64::from(inv.reach_rebuilt))
            .close('}')
            .field("bytes", info.bytes)
            .field("generation", info.generation);
    })
}

/// Renders the acknowledgement for a successful `update`: what was
/// applied, whether the batch was a no-op, and exactly what derived state
/// was invalidated (everything else survived the edit).
pub fn update_response(id: Option<&Value>, info: &crate::registry::UpdateInfo) -> String {
    assemble_response(id, &update_rest(info))
}

/// The body of [`parse_error_response`].
pub(crate) fn parse_error_rest(line: u32, col: u32, message: &str) -> String {
    body(|w| {
        w.field("ok", false)
            .field("error", "parse_error")
            .field("line", line)
            .field("col", col)
            .field("message", message);
    })
}

/// Renders the structured `parse_error` response for an `update` whose
/// mini-C# source failed to parse or resolve (1-based position).
pub fn parse_error_response(id: Option<&Value>, line: u32, col: u32, message: &str) -> String {
    assemble_response(id, &parse_error_rest(line, col, message))
}

/// Writes a captured span as `{"name","start_ns","wall_ns","children"}`.
fn write_span(w: &mut JsonWriter, s: &pex_obs::SpanRecord) {
    w.open('{')
        .field("name", s.name)
        .field("start_ns", s.start_ns)
        .field("wall_ns", s.duration_ns)
        .key("children")
        .open('[');
    for child in &s.children {
        write_span(w, child);
    }
    w.close(']').close('}');
}

/// Writes a finished request scope: the span tree plus the per-query
/// best-first search stats the engine attached (`engine.bestfirst.*`
/// counts become `search.{expanded,pruned_bound,pruned_dominated,
/// frontier_max}` — deltas for *this* query, not process lifetime totals).
fn write_trace(w: &mut JsonWriter, report: &pex_obs::ScopeReport) {
    w.open('{').key("spans").open('[');
    for span in &report.spans {
        write_span(w, span);
    }
    w.close(']').key("search").open('{');
    for (k, v) in &report.counts {
        let short = k.strip_prefix("engine.bestfirst.").unwrap_or(k);
        w.field(&short.replace('.', "_"), *v);
    }
    w.close('}').close('}');
}

/// Executes a query against the shared snapshot and renders its response
/// line and [`Disposition`]. The query runs under a [`QueryBudget`] of the
/// request's own limits over the server's defaults; a deadline or budget
/// trip is reported as `"degraded": true` with the exact [`outcome`] label
/// — a cut-short enumeration is never passed off as a complete one.
///
/// `abs` is the abstract-type inference over the snapshot's default query
/// site (the daemon passes [`Snapshot::site_abs`]); it only applies when
/// the request uses the default context — custom `locals` have no
/// position in the analysed bodies.
///
/// [`outcome`]: pex_core::QueryOutcome
pub fn execute(
    snapshot: &Snapshot,
    req: &QueryRequest,
    defaults: &RequestDefaults,
    cancel: &CancelToken,
    abs: Option<&AbsTypes>,
) -> (String, Disposition) {
    let (rest, disposition) = execute_rest(snapshot, req, defaults, cancel, abs);
    (assemble_response(req.id.as_ref(), &rest), disposition)
}

/// [`execute`] without the `id` prefix: renders the response *body* so the
/// coalescer can run the engine once and address the body to every waiter
/// under its own `id`.
pub(crate) fn execute_rest(
    snapshot: &Snapshot,
    req: &QueryRequest,
    defaults: &RequestDefaults,
    cancel: &CancelToken,
    abs: Option<&AbsTypes>,
) -> (String, Disposition) {
    let err = |kind, msg: &str| (error_rest(kind, msg), Disposition::Error);
    let ctx = match snapshot.context_for(&req.locals) {
        Ok(ctx) => ctx,
        Err(msg) => return err("bad_request", &msg),
    };
    let started = Instant::now();
    let query = match pex_core::parse_partial(&snapshot.db, &ctx, &req.query) {
        Ok(q) => q,
        Err(e) => return err("parse", &e.to_string()),
    };
    let budget = QueryBudget {
        max_steps: req.max_steps.unwrap_or(defaults.max_steps),
        deadline: req
            .deadline_ms
            .or(defaults.deadline_ms)
            .map(Duration::from_millis),
        cancel: Some(cancel.clone()),
    };
    let mut options = CompleteOptions {
        budget,
        ..Default::default()
    };
    if let Some(depth) = req.max_depth {
        options = match options.with_max_depth(depth) {
            Ok(o) => o,
            Err(e) => return err("bad_request", &e.to_string()),
        };
    }
    let abs = if req.locals.is_empty() { abs } else { None };
    let completer = Completer::new(&snapshot.db, &ctx, &snapshot.index, RankConfig::all(), abs)
        .with_options(options)
        .with_reach(&snapshot.reach)
        .with_cache(&snapshot.cache);
    let limit = req.limit.unwrap_or(defaults.limit);
    let trace_id = req
        .trace_id
        .clone()
        .unwrap_or_else(pex_obs::scope::next_trace_id);
    // The scope opens before the engine runs so the `query` span and the
    // best-first stream's per-query stats (flushed when the stream drops,
    // inside `complete_with_outcome`) land in the capture.
    let scope = if req.trace {
        pex_obs::scope::begin(trace_id.clone())
    } else {
        None
    };
    let (completions, outcome) = completer.complete_with_outcome(&query, limit);
    let report = scope.map(pex_obs::ScopeGuard::finish);
    let latency_us = started.elapsed().as_micros() as u64;
    let explains = if req.explain {
        match explain_rows(&completer, &completions, &trace_id) {
            Ok(explains) => explains,
            Err(rest) => return (rest, Disposition::Error),
        }
    } else {
        Vec::new()
    };
    let rest = body(|w| {
        w.field("ok", true)
            .field("trace_id", trace_id.as_str())
            .field("outcome", outcome.label())
            .field("degraded", outcome.is_degraded())
            .field("latency_us", latency_us)
            .key("completions")
            .open('[');
        for (i, c) in completions.iter().enumerate() {
            w.open('{')
                .field("expr", completer.render(c).as_str())
                .field("score", c.score);
            if let Some(b) = explains.get(i) {
                w.key("explain").open('{');
                for (term, v) in b.terms {
                    w.field(term.code().encode_utf8(&mut [0; 4]), v);
                }
                w.field("total", b.total).close('}');
            }
            w.close('}');
        }
        w.close(']');
        if let Some(report) = &report {
            w.key("trace");
            write_trace(w, report);
        }
    });
    let disposition = if outcome.is_degraded() {
        Disposition::Degraded
    } else {
        Disposition::Ok
    };
    (rest, disposition)
}

/// Each row's per-term score breakdown, computed before the body streams.
/// A row the ranking walk cannot explain, or explains to a total other
/// than its score, is an engine fault: `Err` carries the `internal_error`
/// body (with the request's `trace_id`) that answers instead.
fn explain_rows(
    completer: &Completer<'_>,
    rows: &[Completion],
    trace_id: &str,
) -> Result<Vec<ScoreBreakdown>, String> {
    rows.iter()
        .enumerate()
        .map(|(i, c)| {
            let fault = match completer.explain(c) {
                Some(b) if b.total == c.score => return Ok(b),
                Some(b) => format!(
                    "row {i}: score breakdown totals {}, not the emitted score {}",
                    b.total, c.score
                ),
                None => format!("row {i}: the ranker cannot explain the emitted completion"),
            };
            Err(body(|w| {
                w.field("ok", false)
                    .field("error", "internal_error")
                    .field("message", fault.as_str())
                    .field("trace_id", trace_id);
            }))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Snapshot, SnapshotSource};

    fn defaults() -> RequestDefaults {
        RequestDefaults::default()
    }

    #[test]
    fn parses_query_requests_with_all_fields() {
        let req = parse_request(
            r#"{"id":"a1","query":"?","limit":3,"deadline_ms":250,"max_steps":5000,"max_depth":3,"locals":["p:Geo.Point"]}"#,
        )
        .unwrap();
        let Request::Query(q) = req else {
            panic!("query expected")
        };
        assert_eq!(q.id, Some(Value::Str("a1".into())));
        assert_eq!(q.query, "?");
        assert_eq!(q.limit, Some(3));
        assert_eq!(q.deadline_ms, Some(250));
        assert_eq!(q.max_steps, Some(5000));
        assert_eq!(q.max_depth, Some(3));
        assert_eq!(q.locals, vec!["p:Geo.Point".to_owned()]);
    }

    #[test]
    fn parses_control_commands() {
        assert_eq!(
            parse_request(r#"{"cmd":"ping","id":5}"#).unwrap(),
            Request::Ping
        );
        // Shutdown is answered at admission; it never becomes a request.
        let (id, msg) = parse_request(r#"{"cmd":"shutdown","id":1}"#).unwrap_err();
        assert_eq!(id, Some(Value::Num(1.0)));
        assert!(msg.contains("unknown cmd"), "{msg}");
    }

    #[test]
    fn bad_requests_keep_the_id_when_recoverable() {
        let (id, msg) = parse_request(r#"{"id":9,"limit":3}"#).unwrap_err();
        assert_eq!(id, Some(Value::Num(9.0)));
        assert!(msg.contains("query"), "{msg}");
        let (id, msg) = parse_request(r#"{"id":9,"query":"?","deadline_ms":"soon"}"#).unwrap_err();
        assert_eq!(id, Some(Value::Num(9.0)));
        assert!(msg.contains("deadline_ms"), "{msg}");
        let (id, _) = parse_request("not json at all").unwrap_err();
        assert_eq!(id, None);
    }

    #[test]
    fn error_responses_are_valid_json() {
        let resp = error_response(
            Some(&Value::Num(3.0)),
            "parse",
            "unexpected `\"` at byte 4\nline 2",
        );
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("id").and_then(Value::as_u64), Some(3));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(doc.get("error").and_then(Value::as_str), Some("parse"));
    }

    #[test]
    fn executes_the_paper_query_end_to_end() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let req = QueryRequest {
            id: Some(Value::Num(1.0)),
            project: None,
            query: "?({img, size})".into(),
            limit: Some(5),
            deadline_ms: None,
            max_steps: None,
            max_depth: None,
            locals: Vec::new(),
            trace_id: None,
            trace: false,
            explain: false,
        };
        let abs = snap.site_abs.as_ref();
        let (resp, d) = execute(&snap, &req, &defaults(), &CancelToken::new(), abs);
        assert_eq!(d, Disposition::Ok, "{resp}");
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("degraded"), Some(&Value::Bool(false)));
        let Some(Value::Arr(completions)) = doc.get("completions") else {
            panic!("completions expected: {resp}")
        };
        let first = completions[0].get("expr").and_then(Value::as_str).unwrap();
        assert!(first.contains("ResizeDocument"), "{resp}");
    }

    #[test]
    fn zero_deadline_reports_a_degraded_deadline_outcome() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let req = QueryRequest {
            id: None,
            project: None,
            query: "?".into(),
            limit: None,
            deadline_ms: Some(0),
            max_steps: None,
            max_depth: None,
            locals: Vec::new(),
            trace_id: None,
            trace: false,
            explain: false,
        };
        let (resp, d) = execute(&snap, &req, &defaults(), &CancelToken::new(), None);
        assert_eq!(d, Disposition::Degraded);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("outcome").and_then(Value::as_str),
            Some("deadline"),
            "{resp}"
        );
        assert_eq!(doc.get("degraded"), Some(&Value::Bool(true)));
    }

    #[test]
    fn query_parse_failures_are_error_responses() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let req = QueryRequest {
            id: Some(Value::Num(2.0)),
            project: None,
            query: "?(((".into(),
            limit: None,
            deadline_ms: None,
            max_steps: None,
            max_depth: None,
            locals: Vec::new(),
            trace_id: None,
            trace: false,
            explain: false,
        };
        let (resp, d) = execute(&snap, &req, &defaults(), &CancelToken::new(), None);
        assert_eq!(d, Disposition::Error);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("error").and_then(Value::as_str), Some("parse"));
    }

    #[test]
    fn max_depth_beyond_the_engine_limit_is_a_bad_request() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let req = QueryRequest {
            id: Some(Value::Num(7.0)),
            project: None,
            query: "?".into(),
            limit: None,
            deadline_ms: None,
            max_steps: None,
            max_depth: Some(99),
            locals: Vec::new(),
            trace_id: None,
            trace: false,
            explain: false,
        };
        let (resp, d) = execute(&snap, &req, &defaults(), &CancelToken::new(), None);
        assert_eq!(d, Disposition::Error);
        let doc = json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("bad_request"),
            "{resp}"
        );
        assert!(resp.contains("engine limit"), "{resp}");

        // An in-range depth executes normally.
        let shallow = QueryRequest {
            max_depth: Some(1),
            id: None,
            ..req
        };
        let (resp, d) = execute(&snap, &shallow, &defaults(), &CancelToken::new(), None);
        assert_eq!(d, Disposition::Ok, "{resp}");
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
    }

    #[test]
    fn parses_introspection_fields() {
        let req = parse_request(
            r#"{"id":1,"query":"?","trace":true,"explain":true,"trace_id":"t-ide-7"}"#,
        )
        .unwrap();
        let Request::Query(q) = req else {
            panic!("query expected")
        };
        assert!(q.trace);
        assert!(q.explain);
        assert_eq!(q.trace_id.as_deref(), Some("t-ide-7"));
        let (_, msg) = parse_request(r#"{"query":"?","trace":"yes"}"#).unwrap_err();
        assert!(msg.contains("trace"), "{msg}");
        assert_eq!(
            parse_request(r#"{"cmd":"stats","id":2}"#).unwrap(),
            Request::Stats
        );
        assert_eq!(
            parse_request(r#"{"cmd":"health"}"#).unwrap(),
            Request::Health
        );
    }

    #[test]
    fn explain_breakdowns_sum_exactly_to_each_score() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let req = QueryRequest {
            id: None,
            project: None,
            query: "?({img, size})".into(),
            limit: Some(8),
            deadline_ms: None,
            max_steps: None,
            max_depth: None,
            locals: Vec::new(),
            trace_id: None,
            trace: false,
            explain: true,
        };
        let (resp, d) = execute(&snap, &req, &defaults(), &CancelToken::new(), None);
        assert_eq!(d, Disposition::Ok, "{resp}");
        let doc = json::parse(&resp).unwrap();
        let Some(Value::Arr(completions)) = doc.get("completions") else {
            panic!("completions expected: {resp}")
        };
        assert!(!completions.is_empty());
        for c in completions {
            let score = c.get("score").and_then(Value::as_u64).unwrap();
            let explain = c.get("explain").expect("explain attached");
            let mut sum = 0;
            for code in ["n", "s", "d", "m", "t", "a"] {
                sum += explain.get(code).and_then(Value::as_u64).unwrap();
            }
            assert_eq!(sum, score, "{c}");
            assert_eq!(explain.get("total").and_then(Value::as_u64), Some(score));
        }
    }

    #[test]
    fn unexplainable_rows_answer_internal_error_not_a_panic() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let ctx = snap.context_for(&[]).unwrap();
        let completer = Completer::new(&snap.db, &ctx, &snap.index, RankConfig::all(), None)
            .with_reach(&snap.reach)
            .with_cache(&snap.cache);
        let query = pex_core::parse_partial(&snap.db, &ctx, "?({img, size})").unwrap();
        let rows = completer.complete(&query, 3);
        assert_eq!(rows.len(), 3);
        let explained = explain_rows(&completer, &rows, "t-ok").unwrap();
        assert!(explained.iter().zip(&rows).all(|(b, c)| b.total == c.score));

        // A hand-built row whose score the ranking walk does not reproduce.
        let mut wrong = rows.clone();
        wrong[1].score += 1;
        let rest = explain_rows(&completer, &wrong, "t-bad-1").unwrap_err();
        let doc = json::parse(&assemble_response(Some(&Value::Num(7.0)), &rest)).unwrap();
        assert_eq!(doc.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(doc.get("ok"), Some(&Value::Bool(false)));
        assert_eq!(
            doc.get("error").and_then(Value::as_str),
            Some("internal_error")
        );
        assert_eq!(doc.get("trace_id").and_then(Value::as_str), Some("t-bad-1"));
        let message = doc.get("message").and_then(Value::as_str).unwrap();
        assert!(
            message.starts_with("row 1: score breakdown totals"),
            "{message}"
        );
    }

    #[test]
    fn traced_queries_return_their_span_tree_and_search_stats() {
        // No serve test flips the global kill switch, so asserting it on
        // here cannot race another test in this binary.
        pex_obs::set_enabled(true);
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        // A `?` hole takes the best-first path, so the scope captures the
        // stream's per-query expansion stats (call-argument queries run
        // the exhaustive pipeline and report none).
        let req = QueryRequest {
            id: Some(Value::Num(1.0)),
            project: None,
            query: "?".into(),
            limit: Some(5),
            deadline_ms: None,
            max_steps: None,
            max_depth: None,
            locals: Vec::new(),
            trace_id: Some("t-client-1".into()),
            trace: true,
            explain: false,
        };
        let (resp, d) = execute(&snap, &req, &defaults(), &CancelToken::new(), None);
        assert_eq!(d, Disposition::Ok, "{resp}");
        let doc = json::parse(&resp).unwrap();
        assert_eq!(
            doc.get("trace_id").and_then(Value::as_str),
            Some("t-client-1")
        );
        let trace = doc.get("trace").expect("trace attached");
        let Some(Value::Arr(spans)) = trace.get("spans") else {
            panic!("spans expected: {resp}")
        };
        assert!(
            spans.iter().any(|s| {
                s.get("name").and_then(Value::as_str) == Some("query")
                    && s.get("wall_ns").and_then(Value::as_u64).unwrap_or(0) > 0
            }),
            "query span captured: {resp}"
        );
        let search = trace.get("search").expect("search stats attached");
        assert!(
            search.get("expanded").and_then(Value::as_u64).unwrap_or(0) > 0,
            "best-first expansion counts for this query: {resp}"
        );

        // Without a client trace_id one is generated, and untraced
        // responses still echo it.
        let req = QueryRequest {
            trace_id: None,
            trace: false,
            id: None,
            ..req
        };
        let (resp, _) = execute(&snap, &req, &defaults(), &CancelToken::new(), None);
        let doc = json::parse(&resp).unwrap();
        let generated = doc.get("trace_id").and_then(Value::as_str).unwrap();
        assert!(generated.starts_with("t-"), "{resp}");
        assert!(doc.get("trace").is_none(), "no trace unless requested");
    }

    #[test]
    fn parses_project_and_reload() {
        let req = parse_request(r#"{"id":1,"query":"?","project":"geo-v2"}"#).unwrap();
        let Request::Query(q) = req else {
            panic!("query expected")
        };
        assert_eq!(q.project.as_deref(), Some("geo-v2"));
        assert_eq!(
            parse_request(r#"{"cmd":"reload","id":2,"project":"geo-v2"}"#).unwrap(),
            Request::Reload {
                project: Some("geo-v2".into()),
                force: false
            }
        );
        // A reload without a project targets the default tenant.
        assert_eq!(
            parse_request(r#"{"cmd":"reload"}"#).unwrap(),
            Request::Reload {
                project: None,
                force: false
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"reload","force":true}"#).unwrap(),
            Request::Reload {
                project: None,
                force: true
            }
        );
        let (_, msg) = parse_request(r#"{"query":"?","project":7}"#).unwrap_err();
        assert!(msg.contains("project"), "{msg}");
    }

    #[test]
    fn parses_update_requests() {
        assert_eq!(
            parse_request(r#"{"cmd":"update","id":3,"source":"namespace G { class A { } }"}"#)
                .unwrap(),
            Request::Update {
                id: Some(Value::Num(3.0)),
                project: None,
                edits: vec!["namespace G { class A { } }".to_owned()]
            }
        );
        assert_eq!(
            parse_request(r#"{"cmd":"update","project":"geo","unit":"G.A","edits":["u1","u2"]}"#)
                .unwrap(),
            Request::Update {
                id: None,
                project: Some("geo".into()),
                edits: vec!["u1".to_owned(), "u2".to_owned()]
            }
        );
        for (bad, needle) in [
            (r#"{"cmd":"update","id":4}"#, "source"),
            (r#"{"cmd":"update","source":7}"#, "source"),
            (r#"{"cmd":"update","edits":"x"}"#, "edits"),
            (r#"{"cmd":"update","edits":[7]}"#, "edits"),
            (r#"{"cmd":"update","source":"x","edits":["y"]}"#, "not both"),
        ] {
            let (_, msg) = parse_request(bad).unwrap_err();
            assert!(msg.contains(needle), "{bad}: {msg}");
        }
    }

    #[test]
    fn coalesce_keys_group_identical_work_only() {
        let base = |query: &str| QueryRequest {
            id: Some(Value::Num(1.0)),
            project: None,
            query: query.into(),
            limit: Some(5),
            deadline_ms: None,
            max_steps: None,
            max_depth: None,
            locals: Vec::new(),
            trace_id: None,
            trace: false,
            explain: false,
        };
        let a = base("?");
        // Different ids, same work: the ids are not part of the key.
        let b = QueryRequest {
            id: Some(Value::Num(2.0)),
            ..base("?")
        };
        assert_eq!(a.coalesce_key(), b.coalesce_key());
        // Any knob difference separates the keys.
        assert_ne!(a.coalesce_key(), base("?x").coalesce_key());
        let other_project = QueryRequest {
            project: Some("t1".into()),
            ..base("?")
        };
        assert_ne!(a.coalesce_key(), other_project.coalesce_key());
        let other_limit = QueryRequest {
            limit: Some(6),
            ..base("?")
        };
        assert_ne!(a.coalesce_key(), other_limit.coalesce_key());
        // Locals join the key; a list/one-string confusion cannot alias.
        let two_locals = QueryRequest {
            locals: vec!["a:T.U".into(), "b:T.U".into()],
            ..base("?")
        };
        let one_local = QueryRequest {
            locals: vec!["a:T.U\u{1}b:T.U".into()],
            ..base("?")
        };
        assert_ne!(two_locals.coalesce_key(), one_local.coalesce_key());
        // Traced / explained / client-trace_id requests never coalesce.
        for req in [
            QueryRequest {
                trace: true,
                ..base("?")
            },
            QueryRequest {
                explain: true,
                ..base("?")
            },
            QueryRequest {
                trace_id: Some("t-1".into()),
                ..base("?")
            },
        ] {
            assert_eq!(req.coalesce_key(), None);
        }
    }

    #[test]
    fn assembled_bodies_match_the_direct_rendering() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let req = QueryRequest {
            id: Some(Value::Num(7.0)),
            project: None,
            query: "?({img, size})".into(),
            limit: Some(3),
            deadline_ms: None,
            max_steps: None,
            max_depth: None,
            locals: Vec::new(),
            trace_id: None,
            trace: false,
            explain: false,
        };
        let (rest, _) = execute_rest(&snap, &req, &defaults(), &CancelToken::new(), None);
        let assembled = assemble_response(req.id.as_ref(), &rest);
        assert!(
            assembled.starts_with("{\"id\":7,\"ok\":true,"),
            "{assembled}"
        );
        // Re-prefixing under a different waiter id keeps the body intact.
        let twin = assemble_response(Some(&Value::Str("w2".into())), &rest);
        assert!(twin.starts_with("{\"id\":\"w2\","), "{twin}");
        assert_eq!(
            twin.split_once(',').unwrap().1,
            assembled.split_once(',').unwrap().1
        );
    }

    #[test]
    fn request_locals_rebuild_the_context() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let req = QueryRequest {
            id: None,
            project: None,
            query: "?".into(),
            limit: Some(3),
            deadline_ms: None,
            max_steps: None,
            max_depth: None,
            locals: vec!["bad spec".into()],
            trace_id: None,
            trace: false,
            explain: false,
        };
        let (resp, d) = execute(&snap, &req, &defaults(), &CancelToken::new(), None);
        assert_eq!(d, Disposition::Error);
        assert!(resp.contains("bad_request"), "{resp}");
    }
}
