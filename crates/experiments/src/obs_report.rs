//! Rendering the observability registry: the `--metrics-out` JSON document
//! and the human-readable summary printed after `all`/`speed` runs.
//!
//! Everything here works on a [`MetricsSnapshot`], so the functions are
//! pure and testable against locally built registries; the CLI feeds them
//! `pex_obs::registry().snapshot()`.

use pex_obs::json::JsonWriter;
use pex_obs::{HistogramSnapshot, MetricsSnapshot};

use crate::ExperimentConfig;

/// `hits / total` as a fraction in `[0, 1]`; 0 when nothing was counted.
pub fn hit_rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Cache statistics derived from a snapshot's raw counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheStats {
    /// Total lookups against the cache.
    pub lookups: u64,
    /// Lookups that were *not* served from the cache (fills or misses).
    pub misses: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache.
    pub fn rate(&self) -> f64 {
        hit_rate(self.lookups.saturating_sub(self.misses), self.lookups)
    }
}

/// `MethodIndex::candidate_count` memo statistics: a fill is counted only
/// by the lookup whose store lands, so `lookups - fills` = memo hits.
pub fn index_candidates_stats(snap: &MetricsSnapshot) -> CacheStats {
    CacheStats {
        lookups: counter(snap, "index.candidates.lookups"),
        misses: counter(snap, "index.candidates.fills"),
    }
}

/// `ConversionIndex::distance` statistics. Since the negative-answer
/// bitset, "no conversion" is itself a memoized answer (tallied under
/// `convindex.distance.negative`, see [`convindex_negative_lookups`]); a
/// miss survives only as the defensive fallthrough when the bitset and the
/// distance table disagree, so the hit rate should sit at ~1.0.
pub fn convindex_distance_stats(snap: &MetricsSnapshot) -> CacheStats {
    CacheStats {
        lookups: counter(snap, "convindex.distance.lookups"),
        misses: counter(snap, "convindex.distance.misses"),
    }
}

/// Distance lookups answered by the memoized negative bitset ("no
/// conversion exists", one bit probe).
pub fn convindex_negative_lookups(snap: &MetricsSnapshot) -> u64 {
    counter(snap, "convindex.distance.negative")
}

fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Query outcome tallies (`engine.query.outcome.*`): how every finished
/// query's enumeration ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutcomeStats {
    /// Streams drained to genuine exhaustion.
    pub exhausted: u64,
    /// Stopped by the caller (rank limit, `take(n)`, early drop).
    pub limit: u64,
    /// Step budget ran out.
    pub step_budget: u64,
    /// Wall-clock deadline passed.
    pub deadline: u64,
    /// Cancel token tripped.
    pub cancelled: u64,
}

impl OutcomeStats {
    /// Queries that ended without covering their full search space.
    pub fn degraded(&self) -> u64 {
        self.step_budget + self.deadline + self.cancelled
    }

    /// All finished queries.
    pub fn total(&self) -> u64 {
        self.exhausted + self.limit + self.degraded()
    }
}

/// Reads the outcome tallies from a snapshot's raw counters.
pub fn query_outcome_stats(snap: &MetricsSnapshot) -> OutcomeStats {
    OutcomeStats {
        exhausted: counter(snap, "engine.query.outcome.exhausted"),
        limit: counter(snap, "engine.query.outcome.limit"),
        step_budget: counter(snap, "engine.query.outcome.step_budget"),
        deadline: counter(snap, "engine.query.outcome.deadline"),
        cancelled: counter(snap, "engine.query.outcome.cancelled"),
    }
}

/// The latency histograms worth surfacing per phase: tracing spans
/// (`span.*`) and per-site query latencies (`site.*`).
fn phase_histograms(snap: &MetricsSnapshot) -> Vec<(&String, &HistogramSnapshot)> {
    snap.histograms
        .iter()
        .filter(|(name, h)| (name.starts_with("span.") || name.starts_with("site.")) && h.count > 0)
        .collect()
}

/// `x` rounded to `decimals` places exactly as `format!("{x:.decimals$}")`
/// rounds it, for documents that state a figure to a fixed precision.
pub fn rounded(x: f64, decimals: usize) -> f64 {
    format!("{x:.decimals$}")
        .parse()
        .expect("a formatted f64 parses back")
}

/// Renders the full `--metrics-out` document: schema tag, the run's
/// `command` and configuration, derived cache hit rates and per-phase
/// latency percentiles, and the raw metric snapshot.
pub fn metrics_json(snap: &MetricsSnapshot, command: &str, cfg: &ExperimentConfig) -> String {
    let idx = index_candidates_stats(snap);
    let conv = convindex_distance_stats(snap);
    let outcomes = query_outcome_stats(snap);
    let mut w = JsonWriter::default();
    w.open('{')
        .field("schema", "pex-metrics/1")
        .key("config")
        .open('{')
        .field("command", command)
        .field("scale", cfg.scale)
        .field("limit", cfg.limit)
        .field("threads", cfg.threads)
        .field("deadline_ms", cfg.deadline_ms)
        .close('}')
        .key("derived")
        .open('{')
        .field("index_candidates_hit_rate", rounded(idx.rate(), 6))
        .field("index_candidates_lookups", idx.lookups)
        .field("index_candidates_fills", idx.misses)
        .field("convindex_distance_hit_rate", rounded(conv.rate(), 6))
        .field("convindex_distance_lookups", conv.lookups)
        .field("convindex_distance_misses", conv.misses)
        .field(
            "convindex_distance_negative",
            convindex_negative_lookups(snap),
        )
        .key("query_outcomes")
        .open('{')
        .field("exhausted", outcomes.exhausted)
        .field("limit", outcomes.limit)
        .field("step_budget", outcomes.step_budget)
        .field("deadline", outcomes.deadline)
        .field("cancelled", outcomes.cancelled)
        .field("degraded", outcomes.degraded())
        .close('}')
        .key("phases")
        .open('{');
    for (name, h) in phase_histograms(snap) {
        w.key(name)
            .open('{')
            .field("count", h.count)
            .field("p50_ns", h.percentile(50.0))
            .field("p90_ns", h.percentile(90.0))
            .field("p99_ns", h.percentile(99.0))
            .field("max_ns", h.max)
            .field("mean_ns", rounded(h.mean(), 1))
            .close('}');
    }
    w.close('}').close('}').key("metrics");
    snap.write_json(&mut w);
    w.close('}');
    let mut doc = w.finish();
    doc.push('\n');
    doc
}

/// The human-readable summary printed at the end of `all`/`speed` runs:
/// per-phase latency percentiles, cache hit rates, and engine volume
/// counters.
pub fn render_summary(snap: &MetricsSnapshot) -> String {
    let mut out = String::from("observability summary\n");
    let phases = phase_histograms(snap);
    if !phases.is_empty() {
        out.push_str(&format!(
            "  {:<22} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
            "latency", "count", "p50 ns", "p90 ns", "p99 ns", "max ns"
        ));
        for (name, h) in phases {
            out.push_str(&format!(
                "  {:<22} {:>9} {:>12} {:>12} {:>12} {:>12}\n",
                name,
                h.count,
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.max
            ));
        }
    }
    let idx = index_candidates_stats(snap);
    let conv = convindex_distance_stats(snap);
    if idx.lookups > 0 {
        out.push_str(&format!(
            "  candidates_for memo: {:.1}% hit ({} lookups, {} fills)\n",
            idx.rate() * 100.0,
            idx.lookups,
            idx.misses
        ));
    }
    if conv.lookups > 0 {
        out.push_str(&format!(
            "  conversion distance: {:.1}% memoized ({} lookups, {} negative, {} unclassified)\n",
            conv.rate() * 100.0,
            conv.lookups,
            convindex_negative_lookups(snap),
            conv.misses
        ));
    }
    let queries = counter(snap, "engine.queries");
    if queries > 0 {
        out.push_str(&format!(
            "  engine: {} queries, {} candidates generated, {} emitted\n",
            queries,
            counter(snap, "engine.candidates.generated"),
            counter(snap, "engine.candidates.emitted")
        ));
    }
    let outcomes = query_outcome_stats(snap);
    if outcomes.total() > 0 {
        out.push_str(&format!(
            "  query outcomes: {} exhausted, {} limit, {} step-budget, {} deadline, {} cancelled\n",
            outcomes.exhausted,
            outcomes.limit,
            outcomes.step_budget,
            outcomes.deadline,
            outcomes.cancelled
        ));
        if outcomes.degraded() > 0 {
            out.push_str(&format!(
                "  WARNING: {} of {} queries were cut short (degraded results)\n",
                outcomes.degraded(),
                outcomes.total()
            ));
        }
    }
    let rank_terms: Vec<String> = snap
        .counters
        .iter()
        .filter(|(name, n)| name.starts_with("rank.term.") && **n > 0)
        .map(|(name, n)| {
            let term = name
                .trim_start_matches("rank.term.")
                .trim_end_matches(".evals");
            format!("{term}={n}")
        })
        .collect();
    if !rank_terms.is_empty() {
        out.push_str(&format!("  rank term evals: {}\n", rank_terms.join(", ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_obs::json::{self, Value};
    use pex_obs::Registry;

    fn fake_snapshot() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("index.candidates.lookups").add(100);
        r.counter("index.candidates.fills").add(10);
        r.counter("convindex.distance.lookups").add(50);
        r.counter("convindex.distance.negative").add(25);
        r.counter("engine.queries").add(7);
        r.counter("engine.candidates.generated").add(70);
        r.counter("engine.candidates.emitted").add(42);
        r.counter("rank.term.depth.evals").add(9);
        r.counter("engine.query.outcome.exhausted").add(4);
        r.counter("engine.query.outcome.limit").add(2);
        r.counter("engine.query.outcome.deadline").add(1);
        for v in [100u64, 200, 300] {
            r.histogram("span.query").record(v);
        }
        r.histogram("site.methods.ns").record(5000);
        r.histogram("unrelated.hist").record(1);
        r.snapshot()
    }

    #[test]
    fn hit_rates_derive_from_counters() {
        let snap = fake_snapshot();
        let idx = index_candidates_stats(&snap);
        assert_eq!(idx.lookups, 100);
        assert_eq!(idx.misses, 10);
        assert!((idx.rate() - 0.9).abs() < 1e-9);
        let conv = convindex_distance_stats(&snap);
        assert!(
            (conv.rate() - 1.0).abs() < 1e-9,
            "memoized negatives are hits"
        );
        assert_eq!(convindex_negative_lookups(&snap), 25);
        assert_eq!(hit_rate(0, 0), 0.0);
        // Missing counters degrade to zero, not panic.
        let empty = Registry::new().snapshot();
        assert_eq!(index_candidates_stats(&empty).rate(), 0.0);
    }

    #[test]
    fn outcome_stats_derive_from_counters() {
        let snap = fake_snapshot();
        let o = query_outcome_stats(&snap);
        assert_eq!(o.exhausted, 4);
        assert_eq!(o.limit, 2);
        assert_eq!(o.deadline, 1);
        assert_eq!(o.step_budget, 0);
        assert_eq!(o.degraded(), 1);
        assert_eq!(o.total(), 7);
        // Missing counters degrade to zero, not panic.
        let empty = query_outcome_stats(&Registry::new().snapshot());
        assert_eq!(empty.total(), 0);
    }

    #[test]
    fn metrics_json_has_schema_config_and_derived_sections() {
        let snap = fake_snapshot();
        let cfg = ExperimentConfig::default();
        let json = metrics_json(&snap, "speed \"quoted\"", &cfg);
        assert!(json.ends_with("}\n"));
        let doc = json::parse(&json).unwrap();
        let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_f64);
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("pex-metrics/1")
        );
        let config = doc.get("config").unwrap();
        assert_eq!(
            config.get("command").and_then(Value::as_str),
            Some("speed \"quoted\""),
            "the command is escaped, not spliced"
        );
        assert_eq!(num(config, "scale"), Some(0.02));
        assert_eq!(config.get("threads"), Some(&Value::Null));
        let derived = doc.get("derived").unwrap();
        assert_eq!(num(derived, "index_candidates_hit_rate"), Some(0.9));
        assert_eq!(num(derived, "convindex_distance_hit_rate"), Some(1.0));
        assert_eq!(num(derived, "convindex_distance_negative"), Some(25.0));
        let outcomes = derived.get("query_outcomes").unwrap();
        assert_eq!(num(outcomes, "deadline"), Some(1.0));
        // Phase list excludes histograms outside span.*/site.*.
        let Some(Value::Obj(phases)) = derived.get("phases") else {
            panic!("phases object expected: {json}")
        };
        let names: Vec<&str> = phases.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["site.methods.ns", "span.query"]);
        let query = derived.get("phases").and_then(|p| p.get("span.query"));
        assert_eq!(query.and_then(|q| num(q, "p99_ns")), Some(300.0));
        assert_eq!(query.and_then(|q| num(q, "mean_ns")), Some(200.0));
        let counters = doc.get("metrics").and_then(|m| m.get("counters"));
        assert_eq!(
            counters.and_then(|c| num(c, "rank.term.depth.evals")),
            Some(9.0)
        );
    }

    #[test]
    fn rounding_matches_fixed_point_formatting() {
        for (x, decimals) in [(2.0 / 3.0, 6), (0.125, 2), (1234.56789, 1), (1.0, 4)] {
            let text = format!("{x:.decimals$}");
            assert_eq!(rounded(x, decimals), text.parse::<f64>().unwrap());
        }
    }

    #[test]
    fn summary_mentions_phases_caches_and_terms() {
        let s = render_summary(&fake_snapshot());
        assert!(s.contains("span.query"));
        assert!(s.contains("site.methods.ns"));
        assert!(s.contains("candidates_for memo: 90.0% hit"));
        assert!(s.contains(
            "conversion distance: 100.0% memoized (50 lookups, 25 negative, 0 unclassified)"
        ));
        assert!(s.contains("7 queries"));
        assert!(s.contains("depth=9"));
        assert!(s.contains(
            "query outcomes: 4 exhausted, 2 limit, 0 step-budget, 1 deadline, 0 cancelled"
        ));
        assert!(s.contains("WARNING: 1 of 7 queries were cut short"));
        // An empty registry yields just the header, no panics.
        let empty = render_summary(&Registry::new().snapshot());
        assert!(empty.starts_with("observability summary"));
    }
}
