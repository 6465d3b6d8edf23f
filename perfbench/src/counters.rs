//! Program-side counts: deltas of the `pex-obs` registry over a traced
//! phase, and the daemon's `--metrics-out` document.

use pex_obs::MetricsSnapshot;
use pex_serve::json::Value;

use crate::stats::Report;

/// A registry snapshot taken when a phase starts.
pub struct Mark(MetricsSnapshot);

impl Mark {
    /// Snapshots the process-global registry.
    pub fn now() -> Mark {
        Mark(pex_obs::registry().snapshot())
    }

    /// The counter deltas since this mark.
    pub fn delta(&self) -> Delta {
        Delta {
            before: self.0.clone(),
            after: pex_obs::registry().snapshot(),
        }
    }
}

/// Counter deltas between two registry snapshots.
pub struct Delta {
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

impl Delta {
    /// How much the named counter grew.
    pub fn count(&self, name: &str) -> u64 {
        let get = |s: &MetricsSnapshot| s.counters.get(name).copied().unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before))
    }

    /// Summed growth of every counter whose name starts with `prefix` and
    /// ends with `suffix`.
    fn sum_matching(&self, prefix: &str, suffix: &str) -> u64 {
        self.after
            .counters
            .keys()
            .filter(|k| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|k| self.count(k))
            .sum()
    }

    /// The named gauge's value at the end of the phase.
    pub fn gauge(&self, name: &str) -> u64 {
        self.after.gauges.get(name).copied().unwrap_or(0)
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// A `pex-serve-metrics/1` document written by the daemon.
pub struct DaemonMetrics(Value);

impl DaemonMetrics {
    /// Parses the document.
    pub fn parse(text: &str) -> Result<DaemonMetrics, String> {
        let doc = pex_serve::json::parse(text).map_err(|e| format!("metrics document: {e}"))?;
        let metrics = doc
            .get("metrics")
            .cloned()
            .ok_or("metrics document has no `metrics`")?;
        Ok(DaemonMetrics(metrics))
    }

    /// A counter (0 when never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.0
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Value::as_u64)
            .unwrap_or(0)
    }

    /// A histogram field (`count`, `sum`, `p50`, ...), 0 when absent.
    pub fn histogram(&self, name: &str, field: &str) -> f64 {
        self.0
            .get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(field))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }
}

/// Reports the engine's work counts over a phase of `n` queries: search
/// steps and yield, best-first pruning, memo hit rates, ranking and
/// conversion-index work, and arena hits.
pub fn engine_counts(d: &Delta, n: usize, report: &mut Report) {
    let per_query = |v: u64| v as f64 / n.max(1) as f64;
    for (metric, counter) in [
        ("core.engine.steps_per_query", "engine.query.steps"),
        (
            "core.bestfirst.expanded_per_query",
            "engine.bestfirst.expanded",
        ),
        (
            "core.bestfirst.pruned_bound_per_query",
            "engine.bestfirst.pruned_bound",
        ),
        (
            "core.bestfirst.pruned_dominated_per_query",
            "engine.bestfirst.pruned_dominated",
        ),
        ("core.rank.score_evals_per_query", "rank.score.evals"),
        (
            "types.convindex.lookups_per_query",
            "convindex.distance.lookups",
        ),
    ] {
        report.metric(metric, per_query(d.count(counter)), "count", n);
    }
    report.metric(
        "core.rank.term_evals_per_query",
        per_query(d.sum_matching("rank.term.", ".evals")),
        "count",
        n,
    );
    let degraded = ["step_budget", "deadline", "cancelled"]
        .iter()
        .map(|o| d.count(&format!("engine.query.outcome.{o}")))
        .sum::<u64>();
    report.metric("core.engine.degraded", degraded as f64, "count", n);
    report.metric(
        "core.bestfirst.frontier_max",
        d.gauge("engine.bestfirst.frontier.max") as f64,
        "count",
        n,
    );
    let share = |num: &str, other: &str| {
        let hits = d.count(num);
        ratio(hits, hits + d.count(other))
    };
    report.metric(
        "core.engine.emit_ratio",
        ratio(
            d.count("engine.candidates.emitted"),
            d.count("engine.candidates.generated"),
        ),
        "ratio",
        n,
    );
    report.metric(
        "types.convindex.negative_share",
        ratio(
            d.count("convindex.distance.negative"),
            d.count("convindex.distance.lookups"),
        ),
        "ratio",
        n,
    );
    report.metric(
        "model.arena.hit_rate",
        share("arena.hits", "arena.interned"),
        "ratio",
        n,
    );
    report.metric(
        "core.chain_memo.hit_rate",
        share("engine.chain.memo.hits", "engine.chain.memo.fills"),
        "ratio",
        n,
    );
    report.metric(
        "core.reach_memo.hit_rate",
        share("engine.reach.memo.hits", "engine.reach.memo.fills"),
        "ratio",
        n,
    );
    let lookups = d.count("index.candidates.lookups");
    report.metric(
        "core.candidates.hit_rate",
        ratio(
            lookups.saturating_sub(d.count("index.candidates.fills")),
            lookups,
        ),
        "ratio",
        n,
    );
}
