//! Property tests for the ranking function over generated corpora:
//! additivity (the score under any configuration is the sum of its enabled
//! terms' solo scores), monotonicity (removing a term never raises a
//! score), breakdown consistency, and the walk's typing against the boxed
//! checker [`pex_model::Database::expr_ty`].

use proptest::prelude::*;

use pex_abstract::AbsTypes;
use pex_core::{RankConfig, RankTerm, Ranker};
use pex_model::{Context, Database, Expr, ExprArena, MethodId};

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
            let Some((total, _)) = full.score(&arena, id) else { continue };
            // Sum of solo terms equals the full score.
            let mut sum = 0;
            for term in RankTerm::ALL {
                let solo = Ranker::new(&db, &ctx, Some(&abs), RankConfig::only(&[term]));
                sum += solo.score(&arena, id).expect("typedness is config-independent").0;
            }
            prop_assert_eq!(sum, total, "additivity violated for {:?}", expr);
            // Complementarity: without(t) + only(t) == all.
            for term in RankTerm::ALL {
                let without =
                    Ranker::new(&db, &ctx, Some(&abs), RankConfig::without(&[term]));
                let solo = Ranker::new(&db, &ctx, Some(&abs), RankConfig::only(&[term]));
                prop_assert_eq!(
                    without.score(&arena, id).expect("typed").0 + solo.score(&arena, id).expect("typed").0,
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
            if let Some((score, _)) = none.score(&arena, id) {
                prop_assert_eq!(score, 0, "no terms, no cost: {:?}", expr);
            }
        }
    }

    /// The walk types every input exactly as the boxed checker does, under
    /// every configuration. Inputs include ill-typed expressions: each site
    /// expression, its call arguments and operands swapped, and its field
    /// accesses flipped between static and instance form, each in its own
    /// context, in another method's context and in `Context::empty()`.
    #[test]
    fn typedness_is_config_independent(seed in 0u64..200) {
        let db = small_db(seed);
        let sites = sites(&db);
        let empty = Context::empty();
        for (k, (m, si, expr)) in sites.iter().take(15).enumerate() {
            let own = site_ctx(&db, *m, *si);
            let (om, osi, _) = sites[k..].iter().find(|(o, ..)| o != m).unwrap_or(&sites[0]);
            let other = site_ctx(&db, *om, *osi);
            for e in [expr.clone(), swapped(expr), flipped(expr)] {
                let arena = ExprArena::new();
                let id = arena.intern_expr(&e);
                for ctx in [&own, &other, &empty] {
                    let want = db.expr_ty(&e, ctx).ok();
                    for config in [RankConfig::all(), RankConfig::none()] {
                        let got = Ranker::new(&db, ctx, None, config).score(&arena, id);
                        prop_assert_eq!(got.map(|(_, ty)| ty), want, "{:?} under {:?}", e, config);
                    }
                }
            }
        }
    }
}

fn site_ctx(db: &Database, m: MethodId, si: usize) -> Context {
    let body = db.method(m).body().expect("sites come from bodies");
    Context::at_statement(db, m, body, si)
}

/// `e` with every call's arguments reversed and every assignment's and
/// comparison's operands swapped.
fn swapped(e: &Expr) -> Expr {
    match e {
        Expr::Call(m, args) => Expr::Call(*m, args.iter().rev().map(swapped).collect()),
        Expr::Assign(l, r) => Expr::assign(swapped(r), swapped(l)),
        Expr::Cmp(op, l, r) => Expr::cmp(*op, swapped(r), swapped(l)),
        Expr::FieldAccess(b, f) => Expr::field(swapped(b), *f),
        other => other.clone(),
    }
}

/// `e` with every instance field access made a static field read and every
/// static field read given a `this` receiver.
fn flipped(e: &Expr) -> Expr {
    match e {
        Expr::FieldAccess(_, f) => Expr::StaticField(*f),
        Expr::StaticField(f) => Expr::field(Expr::This, *f),
        Expr::Call(m, args) => Expr::Call(*m, args.iter().map(flipped).collect()),
        Expr::Assign(l, r) => Expr::assign(flipped(l), flipped(r)),
        Expr::Cmp(op, l, r) => Expr::cmp(*op, flipped(l), flipped(r)),
        other => other.clone(),
    }
}
