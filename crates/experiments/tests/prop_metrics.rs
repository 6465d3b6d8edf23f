//! Property test for the observability determinism contract: metric
//! counters (and gauges) aggregated during a parallel replay must be
//! identical to the sequential run's, regardless of worker count.
//!
//! Counter probes use relaxed `fetch_add`, which commutes, so totals are
//! schedule-independent as long as every site fires the same probes. The
//! one subtlety is the candidate-count memo: a fill is counted only by the
//! lookup whose store lands (exactly once per cell), so each side of the
//! comparison loads its own fresh corpus — sharing one corpus would let
//! the first run warm the memos and zero the second run's fill counts.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pex_experiments::{load_projects, methods, ExperimentConfig};

type Totals = (BTreeMap<String, u64>, BTreeMap<String, u64>);

/// Runs the methods experiment on a fresh corpus with `threads` workers
/// and returns the global registry's (counters, gauges) for just that run.
fn replay_totals(threads: usize, limit: usize, max_sites: usize) -> Totals {
    let projects = load_projects(0.002);
    let cfg = ExperimentConfig {
        limit,
        max_sites: Some(max_sites),
        threads: Some(threads),
        ..Default::default()
    };
    // Reset after loading so corpus construction doesn't leak into the
    // comparison; only the replay's own probes are counted.
    pex_obs::registry().reset();
    let _ = methods::run(&projects, &cfg);
    let snap = pex_obs::registry().snapshot();
    (snap.counters, snap.gauges)
}

proptest! {
    // Each case replays the corpus twice from scratch, so a handful of
    // cases over small site budgets keeps the suite fast. This file holds
    // a single #[test] on purpose: the registry is process-global, and a
    // second concurrent test in this binary would interleave its probes.
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn counter_totals_independent_of_thread_count(
        limit in 10usize..30,
        max_sites in 2usize..5,
        workers in 2usize..6,
    ) {
        let (seq_counters, seq_gauges) = replay_totals(1, limit, max_sites);
        let (par_counters, par_gauges) = replay_totals(workers, limit, max_sites);
        // The run must have actually exercised the instrumented paths,
        // otherwise equality is vacuous.
        prop_assert!(
            seq_counters.get("replay.sites").copied().unwrap_or(0) > 0,
            "replay recorded no sites: {seq_counters:?}"
        );
        prop_assert!(seq_counters.get("engine.queries").copied().unwrap_or(0) > 0);
        prop_assert!(seq_counters.get("index.candidates.lookups").copied().unwrap_or(0) > 0);
        prop_assert_eq!(seq_counters, par_counters);
        prop_assert_eq!(seq_gauges, par_gauges);
    }
}
