//! The best-first pipeline is an optimisation, not a semantics change:
//! for a caller consuming at most `k` rows it must produce exactly the
//! rows the exhaustive pipeline produces — same expressions, same scores,
//! same tie order, same [`QueryOutcome`] — across query shapes, chain
//! depths, and step budgets. These properties pin that agreement over
//! randomly generated corpora.
//!
//! Budget note: the whole point of best-first is to do *less work* per
//! emitted row, so under a step budget the two pipelines trip at
//! different points of the same emission sequence. The honest contract,
//! asserted below, is: a non-degraded best-first run agrees with the
//! exhaustive top-k exactly; a degraded run's rows are an exact prefix of
//! the unbudgeted reference, classified as degraded.

use proptest::prelude::*;

use pex_abstract::AbsTypes;
use pex_core::{
    CompleteOptions, Completer, CompletionIter, EngineCache, MethodIndex, PartialExpr, QueryBudget,
    QueryOutcome, RankConfig, ReachIndex,
};
use pex_model::{Context, ValueTy};

mod common;
use common::{first_site, query_mix, small_db};

type Rows = Vec<(String, u32, ValueTy)>;

/// Drains up to `take` rows plus the final outcome into a comparable form.
fn rows(mut iter: CompletionIter<'_>, take: usize) -> (Rows, QueryOutcome) {
    let mut out = Vec::new();
    while out.len() < take {
        match iter.next() {
            Some(c) => out.push((format!("{:?}", c.expr), c.score, c.ty)),
            None => break,
        }
    }
    let outcome = iter.outcome().unwrap_or(QueryOutcome::Limit);
    (out, outcome)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Row-for-row, tie-order, and outcome agreement of best-first top-k
    /// with the exhaustive pipeline, across every query shape, chain
    /// depths 1–4, result limits, and both filter modes.
    #[test]
    fn bestfirst_matches_exhaustive_top_k(seed in 0u64..300, k in 1usize..25) {
        let db = small_db(seed);
        let Some((enclosing, stmt, target, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let abs = AbsTypes::for_query(&db, enclosing, stmt);
        let index = MethodIndex::build(&db);
        let reach = ReachIndex::build(&db);
        let expected_ty = db.expr_ty(&args[0], &ctx).ok().and_then(|t| match t {
            ValueTy::Known(t) => Some(t),
            ValueTy::Wildcard => None,
        });

        for depth in 1usize..=4 {
            for expected in [None, expected_ty] {
                let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), Some(&abs))
                    .with_reach(&reach)
                    .with_options(CompleteOptions {
                        expected,
                        max_depth: depth,
                        ..Default::default()
                    });
                for query in query_mix(target, &args) {
                    let (reference, ref_out) = rows(engine.completions(&query), k);
                    let (bf, bf_out) =
                        rows(engine.completions_bestfirst(&query, k), k);
                    prop_assert_eq!(
                        &bf, &reference,
                        "rows diverged on {} depth {} expected {:?} k {}",
                        query.shape(), depth, expected, k
                    );
                    prop_assert_eq!(
                        bf_out, ref_out,
                        "outcome diverged on {} depth {} expected {:?} k {}",
                        query.shape(), depth, expected, k
                    );
                }
            }
        }
    }

    /// Budgeted agreement. Best-first spends fewer steps per row, so a
    /// fixed step budget cuts the two pipelines off at different points of
    /// the same sequence; what must hold is that a budgeted best-first run
    /// emits an exact prefix of the unbudgeted reference (never a wrong or
    /// reordered row), equals it entirely when the run was not degraded,
    /// and never emits fewer rows than the budgeted exhaustive run.
    #[test]
    fn budgeted_bestfirst_is_an_honest_prefix(seed in 0u64..150, max_steps in 1usize..400) {
        let db = small_db(seed);
        let Some((enclosing, stmt, target, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let reach = ReachIndex::build(&db);
        const K: usize = 15;

        let budgeted_options = CompleteOptions {
            budget: QueryBudget {
                max_steps,
                ..Default::default()
            },
            ..Default::default()
        };

        for query in query_mix(target, &args) {
            let unbudgeted = Completer::new(&db, &ctx, &index, RankConfig::all(), None)
                .with_reach(&reach);
            let (reference, _) = rows(unbudgeted.completions(&query), K);

            let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None)
                .with_reach(&reach)
                .with_options(budgeted_options.clone());
            let (exhaustive, _) = rows(engine.completions(&query), K);
            let (bf, bf_out) = rows(engine.completions_bestfirst(&query, K), K);

            prop_assert!(
                bf.len() <= reference.len() && bf[..] == reference[..bf.len()],
                "best-first rows are not a prefix of the reference on {} with max_steps {}",
                query.shape(), max_steps
            );
            prop_assert!(
                bf.len() >= exhaustive.len(),
                "best-first emitted fewer rows than exhaustive under the same budget on {} \
                 with max_steps {} ({} vs {})",
                query.shape(), max_steps, bf.len(), exhaustive.len()
            );
            if !bf_out.is_degraded() {
                prop_assert_eq!(
                    &bf, &reference,
                    "non-degraded best-first must match the full top-k on {} with max_steps {}",
                    query.shape(), max_steps
                );
            }
        }
    }

    /// Shared-cache transparency for the best-first path (the serve
    /// snapshot shape): `threads` threads interning into one cache
    /// concurrently, and interleaved warm-cache runs after them, reproduce
    /// the cold rows.
    #[test]
    fn bestfirst_shared_cache_is_transparent(seed in 0u64..60, threads in 1usize..5) {
        let db = small_db(seed);
        let Some((enclosing, stmt, target, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let reach = ReachIndex::build(&db);
        let cache = EngineCache::new();
        let queries = query_mix(target, &args);

        let cold = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_reach(&reach);
        let expected: Vec<_> = queries
            .iter()
            .map(|q| rows(cold.completions_bestfirst(q, 20), 20))
            .collect();

        std::thread::scope(|scope| {
            for t in 0..threads {
                let (cache, queries, expected) = (&cache, &queries, &expected);
                let (db, ctx, index, reach) = (&db, &ctx, &index, &reach);
                scope.spawn(move || {
                    let engine = Completer::new(db, ctx, index, RankConfig::all(), None)
                        .with_reach(reach)
                        .with_cache(cache);
                    // Stagger the starting query so threads intern
                    // different expressions concurrently.
                    for i in 0..queries.len() {
                        let k = (i + t) % queries.len();
                        let got = rows(engine.completions_bestfirst(&queries[k], 20), 20);
                        assert_eq!(got, expected[k], "thread {t} diverged on query {k}");
                    }
                });
            }
        });

        let warm = Completer::new(&db, &ctx, &index, RankConfig::all(), None)
            .with_reach(&reach)
            .with_cache(&cache);
        for round in 0..2 {
            for (q, exp) in queries.iter().zip(&expected) {
                let got = rows(warm.completions_bestfirst(q, 20), 20);
                prop_assert_eq!(
                    &got, exp,
                    "shared-cache best-first diverged on {} round {}", q.shape(), round
                );
            }
        }
    }
}

/// Deterministic guard that the pruning machinery actually engages on a
/// deep filtered chain query — so the equivalence above is exercising
/// best-first, not an accidentally-disabled fallback. The corpus is a
/// self-recursive chain type: `cv.Extra.V` and `cv.Extra.D.V` fill the
/// top-2 (setting the running threshold τ at their scores), after which
/// the strictly costlier `cv.Extra.D.D` prefix — whose admissible bound
/// exceeds τ — must be dropped at push time, before the second row is
/// even emitted.
#[test]
fn pruning_fires_on_deep_filtered_queries() {
    let db = pex_model::minics::compile(
        r#"
        namespace G {
            class Dummy {
                int V;
                G.Dummy D;
            }
            class Canvas {
                G.Dummy Extra;
            }
        }
        "#,
    )
    .unwrap();
    let int_ty = db.types().lookup_qualified("int").unwrap();
    let canvas = db.types().lookup_qualified("G.Canvas").unwrap();
    let ctx = Context::with_locals(
        None,
        vec![pex_model::Local {
            name: "cv".into(),
            ty: canvas,
        }],
    );
    let index = MethodIndex::build(&db);
    let reach = ReachIndex::build(&db);
    let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None)
        .with_reach(&reach)
        .with_options(CompleteOptions {
            expected: Some(int_ty),
            max_depth: 4,
            ..Default::default()
        });

    let before = pex_obs::registry()
        .counter("engine.bestfirst.pruned_bound")
        .get();
    let expanded_before = pex_obs::registry()
        .counter("engine.bestfirst.expanded")
        .get();
    let rows: Vec<_> = engine
        .completions_bestfirst(&PartialExpr::Hole, 2)
        .collect();
    assert_eq!(rows.len(), 2, "the filtered hole query fills the top-2");
    assert!(
        pex_obs::registry()
            .counter("engine.bestfirst.expanded")
            .get()
            > expanded_before,
        "best-first search must report expansions"
    );
    assert!(
        pex_obs::registry()
            .counter("engine.bestfirst.pruned_bound")
            .get()
            > before,
        "a deep filtered query must prune over-bound pushes"
    );
}
