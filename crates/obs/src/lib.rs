//! # pex-obs
//!
//! Observability substrate for the pex workspace: structured tracing spans,
//! lock-free metrics, and pluggable event sinks — with a kill switch that
//! makes a disabled registry cost **one relaxed atomic load per probe**.
//!
//! Like the other vendored shims in this workspace, the crate has no
//! registry dependencies: everything is built on `std` atomics, `OnceLock`,
//! and a cold-path `Mutex`.
//!
//! ## Layers
//!
//! * [`metrics`] — named [`Counter`]s, [`Gauge`]s, and fixed-bucket log₂
//!   [`Histogram`]s. All operations on the hot path are single relaxed
//!   atomic RMWs, so they are lock-free, safely shared across rayon
//!   workers, and — because addition and max commute — **aggregate totals
//!   are deterministic regardless of thread count** (for deterministic
//!   workloads).
//! * [`mod@span`] — scoped spans with monotonic-clock timing and a thread-local
//!   span stack for nesting (parent/depth). Every span records its duration
//!   into the `span.<name>` histogram; span-end events additionally reach
//!   the sink when one that wants them is installed.
//! * [`sink`] — the event sink: a stderr pretty-printer (the default, used
//!   for diagnostics formerly `eprintln!`ed) and a JSON-lines serialiser
//!   for machine-readable traces, composable with [`TeeSink`].
//! * [`scope`] — request-scoped telemetry: a thread-local context carrying
//!   a trace id that captures the span tree and per-request counter deltas
//!   for one logical request (the serve daemon's `"trace": true` mode).
//! * [`json`] — the workspace's one JSON reader ([`json::parse`]) and
//!   writer ([`json::JsonWriter`]): metric snapshots, trace events, the
//!   serve protocol and the `--metrics-out` documents are all written
//!   through it.
//! * [`windows`] — rolling per-second histogram windows with lazy
//!   rotate-on-record, for live last-1s/10s/60s percentiles and rates
//!   (the serve daemon's `stats`/`health` commands).
//!
//! ## The kill switch
//!
//! [`enabled`] is `COMPILED && ENABLED.load(Relaxed)`. The compile-time arm
//! is the `off` cargo feature (probes become dead code); the runtime arm is
//! [`set_enabled`]. Every probe macro checks [`enabled`] before touching
//! any metric storage, so a disabled registry costs exactly the one relaxed
//! load. While the registry is on, each such check is tallied per thread
//! ([`live_probes_on_this_thread`]); the `speedups` bench multiplies that
//! count for a replay query by the measured cost of one disabled check to
//! bound what the probes cost a query with the registry off.
//!
//! ## Probes
//!
//! ```
//! pex_obs::counter!("demo.lookups", 1);
//! pex_obs::histogram!("demo.latency_ns", 1234u64);
//! pex_obs::gauge_max!("demo.heap.max", 17u64);
//! let _span = pex_obs::span("demo.phase");
//! pex_obs::message!("plain diagnostic line, {} args work", 1);
//! # let snap = pex_obs::registry().snapshot();
//! # assert_eq!(snap.counters["demo.lookups"], 1);
//! ```
//!
//! Each probe site caches its metric handle in a local `OnceLock`, so the
//! registry's name map is locked once per site, not once per hit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod scope;
pub mod sink;
pub mod span;
pub mod windows;

pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS,
};
pub use scope::{ScopeGuard, ScopeReport, SpanRecord};
pub use sink::{
    emit_message, flush_sink, set_sink, take_sink, Event, EventSink, JsonLinesSink,
    StderrPrettySink, TeeSink,
};
pub use span::{marker, span, Span};
pub use windows::{WindowedHistogram, WINDOW_SLOTS};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Compile-time arm of the kill switch: `false` when built with the `off`
/// feature, in which case every probe macro body is dead code.
pub const COMPILED: bool = cfg!(not(feature = "off"));

/// Runtime arm of the kill switch. Probes default to on so binaries get
/// metrics without ceremony; benches flip it to measure overhead.
static ENABLED: AtomicBool = AtomicBool::new(true);

thread_local! {
    /// Calls of [`enabled`] on this thread that found probes live.
    static LIVE_PROBES: Cell<u64> = const { Cell::new(0) };
}

/// Whether probes are live. This is the **only** cost a disabled registry
/// pays per probe site: one relaxed atomic load (or a constant `false`
/// under the `off` feature). A live answer is tallied on this thread.
#[inline(always)]
pub fn enabled() -> bool {
    let live = COMPILED && ENABLED.load(Ordering::Relaxed);
    if live {
        LIVE_PROBES.with(|n| n.set(n.get() + 1));
    }
    live
}

/// How many times [`enabled`] has answered `true` on this thread. Every
/// probe — the metric macros, [`span()`], [`marker`], [`scope::begin`] —
/// checks [`enabled`] once per execution, so the growth of this tally over
/// a piece of work is the number of relaxed loads the same work pays with
/// the registry disabled.
pub fn live_probes_on_this_thread() -> u64 {
    LIVE_PROBES.with(Cell::get)
}

/// Flips the runtime kill switch. Takes effect immediately on every thread
/// (relaxed ordering: probes may straddle the flip, never tear).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global metric registry. Metric storage is allocated once per
/// distinct name and intentionally leaked (the name set is small and
/// fixed), so handles are `&'static` and probe sites can cache them.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Longest scope segment [`scoped_name`] embeds verbatim; longer scopes
/// are truncated so one misbehaving caller cannot grow the registry's
/// name set without bound.
pub const SCOPE_MAX_LEN: usize = 48;

/// Builds a metric name for a dynamic scope: `<prefix>.<scope>.<suffix>`.
///
/// Registry storage is leaked per distinct name, so dynamic scopes (tenant
/// ids, project names) must be folded into a bounded, dot-free alphabet
/// before they become metric names: every character outside `[A-Za-z0-9_-]`
/// becomes `_` (so a scope can never fake nesting or split a name), and the
/// scope is truncated to [`SCOPE_MAX_LEN`]. Callers cache the resulting
/// handle per scope where the lookup is hot.
///
/// ```
/// assert_eq!(
///     pex_obs::scoped_name("serve.tenant", "geo v2/eu", "requests.ok"),
///     "serve.tenant.geo_v2_eu.requests.ok",
/// );
/// ```
pub fn scoped_name(prefix: &str, scope: &str, suffix: &str) -> String {
    let mut out =
        String::with_capacity(prefix.len() + scope.len().min(SCOPE_MAX_LEN) + suffix.len() + 2);
    out.push_str(prefix);
    out.push('.');
    out.extend(scope.chars().take(SCOPE_MAX_LEN).map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
            c
        } else {
            '_'
        }
    }));
    out.push('.');
    out.push_str(suffix);
    out
}

/// Adds `$n` to the named [`Counter`] when the registry is enabled.
#[macro_export]
macro_rules! counter {
    ($name:expr, $n:expr) => {{
        if $crate::enabled() {
            static CELL: ::std::sync::OnceLock<&'static $crate::Counter> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::registry().counter($name))
                .add($n as u64);
        }
    }};
}

/// Records `$v` into the named log₂ [`Histogram`] when enabled.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $v:expr) => {{
        if $crate::enabled() {
            static CELL: ::std::sync::OnceLock<&'static $crate::Histogram> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::registry().histogram($name))
                .record($v as u64);
        }
    }};
}

/// Raises the named [`Gauge`] to at least `$v` when enabled (high-water
/// marks; max commutes, so the aggregate is thread-count independent).
#[macro_export]
macro_rules! gauge_max {
    ($name:expr, $v:expr) => {{
        if $crate::enabled() {
            static CELL: ::std::sync::OnceLock<&'static $crate::Gauge> =
                ::std::sync::OnceLock::new();
            CELL.get_or_init(|| $crate::registry().gauge($name))
                .record_max($v as u64);
        }
    }};
}

/// Sends a formatted diagnostic message through the event sink. This is the
/// structured replacement for `eprintln!`: with no sink installed (or with
/// the default stderr pretty-printer) the text reaches stderr verbatim, so
/// messages survive the metrics kill switch.
#[macro_export]
macro_rules! message {
    ($($arg:tt)*) => {
        $crate::emit_message(&::std::format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kill_switch_gates_probes() {
        // Serialise with other tests that flip the global switch.
        let _guard = crate::sink::test_lock().lock().unwrap();
        set_enabled(true);
        counter!("lib.switch.counter", 2);
        set_enabled(false);
        counter!("lib.switch.counter", 40);
        histogram!("lib.switch.hist", 9u64);
        gauge_max!("lib.switch.gauge", 9u64);
        set_enabled(true);
        let snap = registry().snapshot();
        assert_eq!(snap.counters["lib.switch.counter"], 2);
        assert!(!snap.histograms.contains_key("lib.switch.hist"));
        assert!(!snap.gauges.contains_key("lib.switch.gauge"));
        const { assert!(COMPILED, "test build must compile probes in") };
    }

    #[test]
    fn live_probes_are_tallied_and_disabled_ones_are_not() {
        let _guard = crate::sink::test_lock().lock().unwrap();
        set_enabled(true);
        let before = live_probes_on_this_thread();
        counter!("lib.tally.counter", 5);
        histogram!("lib.tally.hist", 1u64);
        gauge_max!("lib.tally.gauge", 1u64);
        drop(span("lib.tally.span"));
        marker("lib.tally.marker");
        assert_eq!(live_probes_on_this_thread() - before, 5);
        set_enabled(false);
        counter!("lib.tally.counter", 5);
        drop(span("lib.tally.span"));
        set_enabled(true);
        assert_eq!(live_probes_on_this_thread() - before, 5);
    }

    #[test]
    fn probe_sites_share_the_named_metric() {
        let _guard = crate::sink::test_lock().lock().unwrap();
        set_enabled(true);
        for _ in 0..3 {
            counter!("lib.shared.counter", 1);
        }
        counter!("lib.shared.counter", 1); // distinct site, same name
        assert_eq!(registry().snapshot().counters["lib.shared.counter"], 4);
    }

    #[test]
    fn scoped_names_are_sanitised_and_bounded() {
        assert_eq!(
            scoped_name("serve.tenant", "paint", "requests.ok"),
            "serve.tenant.paint.requests.ok"
        );
        // Dots, slashes and spaces cannot fake metric-tree nesting.
        assert_eq!(
            scoped_name("serve.tenant", "a.b/c d", "shed"),
            "serve.tenant.a_b_c_d.shed"
        );
        // Oversized scopes are truncated, bounding registry growth.
        let long = "x".repeat(500);
        let name = scoped_name("p", &long, "s");
        assert_eq!(name.len(), "p".len() + 1 + SCOPE_MAX_LEN + 1 + "s".len());
        // Distinct raw scopes that sanitise identically share one metric —
        // acceptable collision in exchange for a bounded name set.
        assert_eq!(scoped_name("p", "a.b", "s"), scoped_name("p", "a_b", "s"));
    }
}
