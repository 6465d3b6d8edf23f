//! Rendering the observability registry: the `--metrics-out` JSON document
//! and the human-readable summary printed after `all`/`speed` runs.
//!
//! Everything here works on a [`MetricsSnapshot`], so the functions are
//! pure and testable against locally built registries; the CLI feeds them
//! `pex_obs::registry().snapshot()`.

use pex_obs::metrics::json_escape;
use pex_obs::{HistogramSnapshot, MetricsSnapshot};

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

/// Renders the full `--metrics-out` document: schema tag, run
/// configuration, the raw metric snapshot, and derived cache hit rates and
/// per-phase latency percentiles. `config` is a pre-rendered JSON object
/// describing the run (scale, threads, command).
pub fn metrics_json(snap: &MetricsSnapshot, config: &str) -> String {
    let mut derived = String::new();
    let idx = index_candidates_stats(snap);
    let conv = convindex_distance_stats(snap);
    derived.push_str(&format!(
        "    \"index_candidates_hit_rate\": {:.6},\n    \"index_candidates_lookups\": {},\n    \"index_candidates_fills\": {},\n",
        idx.rate(),
        idx.lookups,
        idx.misses
    ));
    derived.push_str(&format!(
        "    \"convindex_distance_hit_rate\": {:.6},\n    \"convindex_distance_lookups\": {},\n    \"convindex_distance_misses\": {},\n    \"convindex_distance_negative\": {},\n",
        conv.rate(),
        conv.lookups,
        conv.misses,
        convindex_negative_lookups(snap)
    ));
    let outcomes = query_outcome_stats(snap);
    derived.push_str(&format!(
        "    \"query_outcomes\": {{ \"exhausted\": {}, \"limit\": {}, \"step_budget\": {}, \"deadline\": {}, \"cancelled\": {}, \"degraded\": {} }},\n",
        outcomes.exhausted,
        outcomes.limit,
        outcomes.step_budget,
        outcomes.deadline,
        outcomes.cancelled,
        outcomes.degraded()
    ));
    let phases: Vec<String> = phase_histograms(snap)
        .into_iter()
        .map(|(name, h)| {
            format!(
                "      \"{}\": {{ \"count\": {}, \"p50_ns\": {}, \"p90_ns\": {}, \"p99_ns\": {}, \"max_ns\": {}, \"mean_ns\": {:.1} }}",
                json_escape(name),
                h.count,
                h.percentile(50.0),
                h.percentile(90.0),
                h.percentile(99.0),
                h.max,
                h.mean()
            )
        })
        .collect();
    derived.push_str(&format!(
        "    \"phases\": {{\n{}\n    }}",
        phases.join(",\n")
    ));
    format!(
        "{{\n  \"schema\": \"pex-metrics/1\",\n  \"config\": {config},\n  \"derived\": {{\n{derived}\n  }},\n  \"metrics\": {}\n}}\n",
        snap.to_json()
    )
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
        let json = metrics_json(&snap, "{ \"scale\": 0.02 }");
        assert!(json.contains("\"schema\": \"pex-metrics/1\""));
        assert!(json.contains("\"scale\": 0.02"));
        assert!(json.contains("\"index_candidates_hit_rate\": 0.900000"));
        assert!(json.contains("\"query_outcomes\""));
        assert!(json.contains("\"deadline\": 1"));
        assert!(json.contains("\"convindex_distance_hit_rate\": 1.000000"));
        assert!(json.contains("\"convindex_distance_negative\": 25"));
        assert!(json.contains("\"span.query\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"rank.term.depth.evals\": 9"));
        // Phase list excludes histograms outside span.*/site.*.
        let derived_end = json.find("\"metrics\"").unwrap();
        assert!(!json[..derived_end].contains("unrelated.hist"));
        // Balanced braces (cheap well-formedness check).
        let open = json.matches('{').count();
        let close = json.matches('}').count();
        assert_eq!(open, close);
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
