//! Property tests for the ranking function over generated corpora:
//! additivity (the score under any configuration is the sum of its enabled
//! terms' solo scores), monotonicity (removing a term never raises a
//! score), and breakdown consistency.

use proptest::prelude::*;

use pex_abstract::AbsTypes;
use pex_core::{RankConfig, RankTerm, Ranker};
use pex_model::{Context, ExprArena};

mod common;
use common::{sites, small_db};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn scores_are_additive_over_terms(seed in 0u64..400) {
        let db = small_db(seed);
        for (m, si, expr) in sites(&db).into_iter().take(25) {
            let body = db.method(m).body().expect("sites come from bodies");
            let ctx = Context::at_statement(&db, m, body, si);
            let arena = ExprArena::new();
            let id = arena.intern_expr(&expr);
            let abs = AbsTypes::for_query(&db, m, si);
            let full = Ranker::new(&db, &ctx, Some(&abs), RankConfig::all());
            let Some(total) = full.score(&arena, id) else { continue };
            // Sum of solo terms equals the full score.
            let mut sum = 0;
            for term in RankTerm::ALL {
                let solo = Ranker::new(&db, &ctx, Some(&abs), RankConfig::only(&[term]));
                sum += solo.score(&arena, id).expect("typedness is config-independent");
            }
            prop_assert_eq!(sum, total, "additivity violated for {:?}", expr);
            // Complementarity: without(t) + only(t) == all.
            for term in RankTerm::ALL {
                let without =
                    Ranker::new(&db, &ctx, Some(&abs), RankConfig::without(&[term]));
                let solo = Ranker::new(&db, &ctx, Some(&abs), RankConfig::only(&[term]));
                prop_assert_eq!(
                    without.score(&arena, id).expect("typed") + solo.score(&arena, id).expect("typed"),
                    total
                );
            }
            // Breakdown agrees.
            let breakdown = full.explain(&arena, id).expect("typed");
            prop_assert_eq!(breakdown.total, total);
            let term_sum: u32 = breakdown.terms.iter().map(|(_, v)| *v).sum();
            prop_assert_eq!(term_sum, total);
        }
    }

    #[test]
    fn empty_config_scores_zero(seed in 0u64..200) {
        let db = small_db(seed);
        for (m, si, expr) in sites(&db).into_iter().take(15) {
            let body = db.method(m).body().expect("sites come from bodies");
            let ctx = Context::at_statement(&db, m, body, si);
            let arena = ExprArena::new();
            let id = arena.intern_expr(&expr);
            let none = Ranker::new(&db, &ctx, None, RankConfig::none());
            if let Some(score) = none.score(&arena, id) {
                prop_assert_eq!(score, 0, "no terms, no cost: {:?}", expr);
            }
        }
    }

    #[test]
    fn typedness_is_config_independent(seed in 0u64..200) {
        let db = small_db(seed);
        for (m, si, expr) in sites(&db).into_iter().take(15) {
            let body = db.method(m).body().expect("sites come from bodies");
            let ctx = Context::at_statement(&db, m, body, si);
            let arena = ExprArena::new();
            let id = arena.intern_expr(&expr);
            let all = Ranker::new(&db, &ctx, None, RankConfig::all());
            let none = Ranker::new(&db, &ctx, None, RankConfig::none());
            prop_assert_eq!(all.score(&arena, id).is_some(), none.score(&arena, id).is_some());
        }
    }
}
