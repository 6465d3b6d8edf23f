//! Bridges the `pex-obs` registry into protocol JSON.
//!
//! Everything the daemon reports about itself — the `stats` and `health`
//! command bodies, and the `--metrics-out` document — is streamed here
//! through the same [`JsonWriter`] as every protocol response, so metric
//! names and labels are escaped correctly no matter what characters they
//! contain.
//!
//! Rolling windows: the worker pool records per-query latencies into
//! [`pex_obs::WindowedHistogram`]s under the names below, and
//! the `stats` command reads the last-1s/10s/60s merges with interpolated
//! percentiles — a live view the lifetime histograms cannot give.

use crate::json::JsonWriter;
use crate::proto::body;
use crate::registry::SnapshotRegistry;

/// Windowed per-request latency in microseconds (admission to response),
/// recorded by the worker pool for every answered query.
pub const REQUEST_WINDOW: &str = "serve.request.window.us";

/// Windowed admissions: one sample per submitted request line.
pub const RECEIVED_WINDOW: &str = "serve.requests.received.window";

/// Windowed sheds: one sample per request refused by admission control.
pub const SHED_WINDOW: &str = "serve.requests.shed.window";

/// The window (seconds) health checks evaluate shed rate and SLO burn over.
pub const HEALTH_WINDOW_S: u64 = 10;

/// Writes the per-tenant table embedded in `stats` and `health`: one
/// entry per resident tenant (default first) with its byte accounting and
/// the `serve.tenant.<id>.*` resolution counters, so the per-tenant
/// identities `sent == ok + degraded + shed + errors` (queries) and
/// `sent == applied + rejected` (edits; a shed edit is rejected) can be
/// checked externally.
fn write_tenants(w: &mut JsonWriter, registry: &SnapshotRegistry) {
    let obs = pex_obs::registry();
    w.open('{');
    for t in registry.describe() {
        let c = |suffix: &str| {
            obs.counter(&pex_obs::scoped_name("serve.tenant", &t.project, suffix))
                .get()
        };
        w.key(&t.project)
            .open('{')
            .field("bytes", t.bytes)
            .field("pinned", t.pinned)
            .field("dirty", t.dirty)
            .key("requests")
            .open('{')
            .field("ok", c("requests.ok"))
            .field("degraded", c("requests.degraded"))
            .field("shed", c("requests.shed"))
            .field("errors", c("requests.error"))
            .close('}')
            .key("edits")
            .open('{')
            .field("applied", c("edits.applied"))
            .field("rejected", c("edits.rejected"))
            .close('}')
            .field("coalesced", c("coalesced"))
            .close('}');
    }
    w.close('}');
}

/// The `{"cmd":"stats"}` body: the full lifetime registry snapshot plus
/// last-1s/10s/60s request-latency windows and the tenant table.
pub(crate) fn stats_rest(queue_depth: usize, registry: &SnapshotRegistry) -> String {
    let latency = pex_obs::registry().windowed(REQUEST_WINDOW);
    body(|w| {
        w.field("ok", true)
            .key("stats")
            .open('{')
            .field("queue_depth", queue_depth)
            .key("windows")
            .open('{');
        // Each window: sample count, the implied request rate, and
        // interpolated percentiles in microseconds.
        for (name, seconds) in [("1s", 1u64), ("10s", 10), ("60s", 60)] {
            let h = latency.window(seconds);
            w.key(name)
                .open('{')
                .field("seconds", seconds)
                .field("count", h.count)
                .field("rate_rps", h.count as f64 / seconds as f64)
                .field("p50_us", h.percentile_interp(50.0))
                .field("p90_us", h.percentile_interp(90.0))
                .field("p99_us", h.percentile_interp(99.0))
                .field("max_us", h.max)
                .close('}');
        }
        w.close('}')
            .key("registry")
            .open('{')
            .field("resident", registry.resident_names().len())
            .field("resident_bytes", registry.resident_bytes())
            .field("max_bytes", registry.max_bytes())
            .close('}')
            .key("tenants");
        write_tenants(w, registry);
        w.key("metrics");
        pex_obs::registry().snapshot().write_json(w);
        w.close('}');
    })
}

/// The `{"cmd":"health"}` body: queue depth, the windowed shed rate, the
/// request-accounting identity, and the SLO-burn flag.
///
/// Accounting: `received` counts every submitted line; `ok`, `degraded`,
/// `shed`, and `errors` count resolutions. `pending` is the difference —
/// requests admitted but not yet answered, **including this health check
/// itself**, so on an otherwise idle server `pending` is exactly 1 and
/// `received == ok + degraded + shed + errors + pending` holds.
pub(crate) fn health_rest(
    queue_depth: usize,
    slo_p99_us: Option<u64>,
    snapshot_registry: &SnapshotRegistry,
) -> String {
    let registry = pex_obs::registry();
    let counter = |name: &str| registry.counter(name).get();
    // Resolution counters first, `received` last: a request increments
    // `received` before it can resolve, so this read order keeps
    // `pending` non-negative even while other workers are mid-request.
    let ok = counter("serve.requests.ok");
    let degraded = counter("serve.requests.degraded");
    let shed = counter("serve.requests.shed");
    let errors = counter("serve.requests.error");
    let received = counter("serve.requests.received");
    let pending = received.saturating_sub(ok + degraded + shed + errors);

    let received_w = registry.windowed(RECEIVED_WINDOW).window(HEALTH_WINDOW_S);
    let shed_w = registry.windowed(SHED_WINDOW).window(HEALTH_WINDOW_S);
    let shed_rate = if received_w.count == 0 {
        0.0
    } else {
        shed_w.count as f64 / received_w.count as f64
    };

    let p99_us = registry
        .windowed(REQUEST_WINDOW)
        .window(HEALTH_WINDOW_S)
        .percentile_interp(99.0);
    let burning = slo_p99_us.is_some_and(|slo| p99_us > slo);

    body(|w| {
        w.field("ok", true)
            .key("health")
            .open('{')
            .field("queue_depth", queue_depth)
            .field("window_s", HEALTH_WINDOW_S)
            .key("requests")
            .open('{')
            .field("received", received)
            .field("ok", ok)
            .field("degraded", degraded)
            .field("shed", shed)
            .field("errors", errors)
            .field("pending", pending)
            .close('}')
            .field("shed_rate", shed_rate)
            .key("tenants");
        write_tenants(w, snapshot_registry);
        w.key("slo")
            .open('{')
            .field("p99_us", p99_us)
            .field("threshold_us", slo_p99_us)
            .field("burning", burning)
            .close('}')
            .close('}');
    })
}

/// The `--metrics-out` document (`pex-serve-metrics/1`).
pub fn metrics_document() -> String {
    let mut w = JsonWriter::default();
    w.open('{')
        .field("schema", "pex-serve-metrics/1")
        .key("metrics");
    pex_obs::registry().snapshot().write_json(&mut w);
    w.close('}');
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::proto::assemble_response;
    use crate::snapshot::{Snapshot, SnapshotSource};

    fn test_registry() -> SnapshotRegistry {
        SnapshotRegistry::single(Snapshot::load(&SnapshotSource::Paint).unwrap())
    }

    #[test]
    fn metrics_value_round_trips_through_the_parser() {
        let registry = pex_obs::registry();
        registry.counter("obsjson.hits").add(3);
        registry.histogram("obsjson.lat").record(100);
        let mut w = JsonWriter::default();
        registry.snapshot().write_json(&mut w);
        let parsed = json::parse(&w.finish()).unwrap();
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("obsjson.hits"))
                .and_then(Value::as_u64),
            Some(3)
        );
        let hist = parsed
            .get("histograms")
            .and_then(|h| h.get("obsjson.lat"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Value::as_u64), Some(1));
        assert_eq!(hist.get("max").and_then(Value::as_u64), Some(100));
    }

    #[test]
    fn stats_response_reports_recorded_windows() {
        pex_obs::set_enabled(true);
        pex_obs::registry().windowed(REQUEST_WINDOW).record(500);
        let resp = assemble_response(Some(&Value::Num(9.0)), &stats_rest(2, &test_registry()));
        let doc = json::parse(&resp).unwrap();
        assert_eq!(doc.get("ok"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("id").and_then(Value::as_u64), Some(9));
        let stats = doc.get("stats").unwrap();
        assert_eq!(stats.get("queue_depth").and_then(Value::as_u64), Some(2));
        let w60 = stats.get("windows").and_then(|w| w.get("60s")).unwrap();
        assert!(w60.get("count").and_then(Value::as_u64).unwrap() >= 1);
        let p50 = w60.get("p50_us").and_then(Value::as_u64).unwrap();
        assert!((256..=511).contains(&p50), "bucket-bounded p50: {p50}");
    }

    #[test]
    fn health_response_carries_the_accounting_identity_and_slo_flag() {
        pex_obs::set_enabled(true);
        let registry = test_registry();
        let resp = assemble_response(None, &health_rest(0, Some(1), &registry));
        let doc = json::parse(&resp).unwrap();
        let health = doc.get("health").unwrap();
        let r = health.get("requests").unwrap();
        let total = ["ok", "degraded", "shed", "errors", "pending"]
            .iter()
            .map(|k| r.get(k).and_then(Value::as_u64).unwrap())
            .sum::<u64>();
        assert_eq!(r.get("received").and_then(Value::as_u64), Some(total));
        let slo = health.get("slo").unwrap();
        assert_eq!(slo.get("threshold_us").and_then(Value::as_u64), Some(1));
        // A 1µs SLO burns as soon as any window sample exceeds it; with no
        // samples it must not burn.
        let p99 = slo.get("p99_us").and_then(Value::as_u64).unwrap();
        assert_eq!(slo.get("burning"), Some(&Value::Bool(p99 > 1)), "{resp}");
        // No threshold: never burning.
        let resp = assemble_response(None, &health_rest(0, None, &registry));
        let doc = json::parse(&resp).unwrap();
        let slo = doc.get("health").and_then(|h| h.get("slo")).unwrap();
        assert_eq!(slo.get("threshold_us"), Some(&Value::Null));
        assert_eq!(slo.get("burning"), Some(&Value::Bool(false)));
    }

    #[test]
    fn tenant_tables_list_the_pinned_default_with_resolution_counters() {
        pex_obs::set_enabled(true);
        let mut w = JsonWriter::default();
        write_tenants(&mut w, &test_registry());
        let parsed = json::parse(&w.finish()).unwrap();
        let def = parsed.get("default").expect("default tenant entry");
        assert_eq!(def.get("pinned"), Some(&Value::Bool(true)));
        let requests = def.get("requests").expect("per-tenant accounting");
        for k in ["ok", "degraded", "shed", "errors"] {
            assert!(requests.get(k).and_then(Value::as_u64).is_some(), "{k}");
        }
        assert!(def.get("coalesced").and_then(Value::as_u64).is_some());
    }

    #[test]
    fn metrics_document_is_parseable_with_escaped_names() {
        pex_obs::registry().counter("obsjson.weird\"name").add(1);
        let doc = metrics_document();
        let parsed = json::parse(doc.trim()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(Value::as_str),
            Some("pex-serve-metrics/1")
        );
        assert_eq!(
            parsed
                .get("metrics")
                .and_then(|m| m.get("counters"))
                .and_then(|c| c.get("obsjson.weird\"name"))
                .and_then(Value::as_u64),
            Some(1)
        );
    }
}
