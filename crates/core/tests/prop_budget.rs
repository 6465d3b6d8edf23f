//! Property tests for bounded query execution: outcome classification and
//! the truncation prefix guarantee, over randomly generated corpora.
//!
//! Two invariants matter downstream:
//!
//! 1. `outcome == Exhausted` **iff** the stream was fully drained — every
//!    other stop (caller limit, step budget, deadline, cancellation) must
//!    be classified as what it is, never as exhaustion.
//! 2. For *any* step budget, the emitted completions are exactly a prefix
//!    of the unbudgeted enumeration — truncation never reorders, duplicates
//!    or invents items, so rank CDFs over truncated queries stay sound for
//!    the ranks they did observe.

use proptest::prelude::*;

use pex_core::{
    CancelToken, CompleteOptions, Completer, MethodIndex, PartialExpr, QueryBudget, QueryOutcome,
    RankConfig,
};
use pex_model::{Context, Database};

mod common;
use common::{corpus, first_site};

fn completer_with<'a>(
    db: &'a Database,
    ctx: &'a Context,
    index: &'a MethodIndex,
    budget: QueryBudget,
) -> Completer<'a> {
    Completer::new(db, ctx, index, RankConfig::all(), None).with_options(CompleteOptions {
        budget,
        ..Default::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Exhausted iff fully drained, for both unbudgeted and budgeted runs.
    #[test]
    fn exhausted_iff_fully_drained(seed in 0u64..300, max_steps in 1usize..200) {
        let db = corpus(seed, 20, 3);
        let Some((enclosing, stmt, _, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let query = PartialExpr::UnknownCall(vec![PartialExpr::Known(args[0].clone())]);

        // Unbudgeted drain: always Exhausted.
        let full = completer_with(&db, &ctx, &index, QueryBudget::default());
        let mut iter = full.completions(&query);
        let full_count = iter.by_ref().count();
        prop_assert_eq!(iter.outcome(), Some(QueryOutcome::Exhausted));

        // Budgeted drain: Exhausted exactly when every item still came out.
        let tiny = completer_with(
            &db,
            &ctx,
            &index,
            QueryBudget { max_steps, ..Default::default() },
        );
        let mut iter = tiny.completions(&query);
        let tiny_count = iter.by_ref().count();
        let outcome = iter.outcome().expect("finished iterators classify");
        match outcome {
            QueryOutcome::Exhausted => prop_assert_eq!(tiny_count, full_count),
            // The budget may trip on the very pull that would have observed
            // exhaustion, so StepBudget only guarantees a (possibly complete)
            // prefix — never extra items.
            QueryOutcome::StepBudget => prop_assert!(tiny_count <= full_count),
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }

        // A caller stop mid-stream is Limit, never Exhausted.
        if full_count > 1 {
            let mut iter = full.completions(&query);
            let _ = iter.next();
            drop(iter);
            let (_, outcome) = full.complete_with_outcome(&query, 1);
            prop_assert_eq!(outcome, QueryOutcome::Limit);
        }
    }

    /// For any step budget, the emitted sequence is a prefix of the
    /// unbudgeted enumeration: truncation cannot reorder results.
    #[test]
    fn budgeted_output_is_a_prefix_of_the_full_enumeration(
        seed in 0u64..300,
        max_steps in 1usize..400,
    ) {
        let db = corpus(seed, 20, 3);
        let Some((enclosing, stmt, _, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let query = PartialExpr::UnknownCall(vec![PartialExpr::Known(args[0].clone())]);

        let full = completer_with(&db, &ctx, &index, QueryBudget::default());
        let everything: Vec<String> = full
            .completions(&query)
            .map(|c| format!("{:?}", c.expr))
            .collect();

        let tiny = completer_with(
            &db,
            &ctx,
            &index,
            QueryBudget { max_steps, ..Default::default() },
        );
        let prefix: Vec<String> = tiny
            .completions(&query)
            .map(|c| format!("{:?}", c.expr))
            .collect();
        prop_assert!(prefix.len() <= everything.len());
        prop_assert_eq!(&prefix[..], &everything[..prefix.len()]);
    }

    /// A pre-cancelled token yields Cancelled with no output, regardless of
    /// corpus; an uncancelled token changes nothing.
    #[test]
    fn cancel_token_outcomes(seed in 0u64..100) {
        let db = corpus(seed, 20, 3);
        let Some((enclosing, stmt, _, _)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let query = PartialExpr::Hole;

        let token = CancelToken::new();
        let engine = completer_with(
            &db,
            &ctx,
            &index,
            QueryBudget { cancel: Some(token.clone()), ..Default::default() },
        );
        let baseline: Vec<String> = engine
            .completions(&query)
            .take(10)
            .map(|c| format!("{:?}", c.expr))
            .collect();

        token.cancel();
        let mut iter = engine.completions(&query);
        prop_assert!(iter.next().is_none());
        prop_assert_eq!(iter.outcome(), Some(QueryOutcome::Cancelled));

        // The uncancelled run was unaffected by the token being armed.
        let plain = completer_with(&db, &ctx, &index, QueryBudget::default());
        let expected: Vec<String> = plain
            .completions(&query)
            .take(10)
            .map(|c| format!("{:?}", c.expr))
            .collect();
        prop_assert_eq!(baseline, expected);
    }
}
