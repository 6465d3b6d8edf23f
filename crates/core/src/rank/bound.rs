//! Admissible lower bounds on completion scores for partial chains.
//!
//! Figure 7's score is a sum of non-negative terms, and a lookup chain
//! accrues its score incrementally: the root's score is fixed when the
//! root is chosen, and each appended member link adds exactly the ranker's
//! link cost. Every term a prefix has already paid is paid by every
//! completion extending it, so the accrued partial sum is a lower bound on
//! the final score — the invariant the engine's best-first frontier keys
//! on. [`ScoreBound`] packages that partial sum together with an optional
//! *admissible heuristic*: a proven minimum additional cost (e.g. link
//! cost × minimum links to a type passing the query's filter, from the
//! reachability index), which tightens the bound without ever overshooting.

/// An admissible lower bound on the final score of any completion that
/// extends a partial lookup chain.
///
/// Constructed at the chain root with [`ScoreBound::root`], advanced one
/// link at a time with [`ScoreBound::extend`], and optionally tightened
/// with [`ScoreBound::with_pending`]. The guarantee — checked by a
/// proptest in this module — is that [`ScoreBound::get`] never exceeds the
/// ranker's score of any completed chain growing from the prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreBound {
    /// Score already paid by the prefix itself.
    accrued: u32,
    /// Proven minimum still to pay before an admissible emission.
    pending: u32,
}

impl ScoreBound {
    /// Bound for a chain root whose own score is `score`.
    pub fn root(score: u32) -> Self {
        ScoreBound {
            accrued: score,
            pending: 0,
        }
    }

    /// Bound after appending one member link (cost from
    /// `Ranker::link_cost`). Any attached heuristic is cleared: it spoke
    /// about the previous state's type, not the new one.
    pub fn extend(self, link_cost: u32) -> Self {
        ScoreBound {
            accrued: self.accrued + link_cost,
            pending: 0,
        }
    }

    /// Attaches an admissible heuristic: a proven minimum *additional*
    /// cost every admissible completion of this prefix must still pay.
    pub fn with_pending(self, pending: u32) -> Self {
        ScoreBound { pending, ..self }
    }

    /// The score the prefix itself has accrued (heuristic excluded). This
    /// is the exact score of the prefix emitted as a completion.
    pub fn accrued(&self) -> u32 {
        self.accrued
    }

    /// The bound value: no completion extending this prefix scores lower.
    pub fn get(&self) -> u32 {
        self.accrued.saturating_add(self.pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::chains::ChainLink;
    use crate::engine::memo::{ChainMember, SuccessorMemo};
    use crate::rank::{RankConfig, Ranker};
    use pex_model::minics::compile;
    use pex_model::{Context, Database, ExprArena, Local, LocalId};
    use proptest::prelude::*;

    fn setup() -> (Database, Context) {
        let db = compile(
            r#"
            namespace G {
                struct Point { int X; int Y; }
                class Line {
                    G.Point P1;
                    G.Point P2;
                    double GetLength();
                }
                class Canvas {
                    G.Line Selected;
                    G.Line Hovered;
                    string Title;
                }
            }
            "#,
        )
        .unwrap();
        let canvas = db.types().lookup_qualified("G.Canvas").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![Local {
                name: "cv".into(),
                ty: canvas,
            }],
        );
        (db, ctx)
    }

    #[test]
    fn bound_accrues_and_clears_heuristic() {
        let b = ScoreBound::root(3).with_pending(4);
        assert_eq!(b.accrued(), 3);
        assert_eq!(b.get(), 7);
        let next = b.extend(2);
        assert_eq!(next.accrued(), 5);
        assert_eq!(next.get(), 5, "extend clears the stale heuristic");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The contract the best-first frontier relies on: for a random
        /// chain grown link by link, every prefix's bound — bare or with a
        /// remaining-links heuristic attached — is ≤ the ranker's score of
        /// the full chain, and the final accrued value is exact.
        #[test]
        fn bound_never_exceeds_final_score(
            path in proptest::collection::vec(0usize..8, 0..6),
            depth_term in any::<bool>(),
        ) {
            let (db, ctx) = setup();
            let mut config = RankConfig::all();
            config.depth = depth_term;
            let ranker = Ranker::new(&db, &ctx, None, config);
            let memo = SuccessorMemo::default();
            let arena = ExprArena::new();

            let mut expr = arena.local(LocalId(0));
            let mut ty = ctx.locals[0].ty;
            let (root_score, _) = ranker.score(&arena, expr).expect("locals score");
            let mut bounds = vec![ScoreBound::root(root_score)];
            for &pick in &path {
                let steps = memo.successors(&db, ty, ChainLink::FieldsAndMethods, None);
                if steps.is_empty() {
                    break;
                }
                let step = &steps[pick % steps.len()];
                expr = match step.member {
                    ChainMember::Field(f) => arena.field(expr, f),
                    ChainMember::Call0(m) => arena.call(m, &[expr]),
                };
                ty = step.ty;
                let prev = *bounds.last().unwrap();
                bounds.push(prev.extend(ranker.link_cost()));
            }

            let (final_score, _) = ranker.score(&arena, expr).expect("chains type-check");
            for (i, b) in bounds.iter().enumerate() {
                prop_assert!(b.get() <= final_score);
                // A heuristic counting the links this chain actually still
                // appends (each costing link_cost) is admissible too.
                let remaining = (bounds.len() - 1 - i) as u32;
                let tightened = b.with_pending(remaining * ranker.link_cost());
                prop_assert!(tightened.get() <= final_score);
            }
            prop_assert_eq!(bounds.last().unwrap().accrued(), final_score);
        }
    }
}
