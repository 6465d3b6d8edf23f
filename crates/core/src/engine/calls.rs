//! Expansion of method-call queries: given one concrete choice of argument
//! completions (a combo), produce every type-correct, scored call.
//!
//! Every built call, assignment and comparison is one arena `intern`, and
//! the placement dedup set holds [`ExprId`]s: two ids are equal exactly
//! when the expressions are structurally equal. Each row's score and type
//! come from one ranking walk ([`scored`]).

use std::collections::HashSet;

use pex_model::{Database, ENode, ExprArena, ExprId, MethodId, ValueTy};
use pex_types::TypeId;

use crate::rank::Ranker;

use super::index::{CandidateScratch, MethodIndex};
use super::stream::{Scored, ScoredStream};

/// Per-query scratch for [`expand_unknown_call`]: the candidate walk's
/// dedupe marks plus one parameter and one slot buffer, reused by every
/// candidate of every argument combo the query expands.
#[derive(Debug, Default)]
pub(crate) struct CallScratch {
    candidates: CandidateScratch,
    params: Vec<TypeId>,
    slots: Vec<Option<usize>>,
}

/// The argument type whose index entry is smallest (paper Section 4.2),
/// the first such on ties; `None` when no argument has a known type.
fn pick_type(
    db: &Database,
    index: &MethodIndex,
    scratch: &mut CandidateScratch,
    types: impl Iterator<Item = ValueTy>,
) -> Option<TypeId> {
    let mut best: Option<(TypeId, usize)> = None;
    for ty in types {
        if let ValueTy::Known(t) = ty {
            let count = index.candidate_count(db, t, scratch);
            if best.map(|(_, c)| count < c).unwrap_or(true) {
                best = Some((t, count));
            }
        }
    }
    best.map(|(t, _)| t)
}

/// Expands a `?({...})` combo: finds candidate methods via the index, places
/// the arguments injectively into argument positions (receiver included),
/// fills the rest with `0`, and scores each resulting call.
///
/// Candidate counts come from the index's per-type memo; the candidates
/// themselves from one walk over the chosen type's exact rows
/// ([`MethodIndex::candidates_for_with`]), through the query's `scratch`.
pub(crate) fn expand_unknown_call(
    ranker: &Ranker<'_>,
    index: &MethodIndex,
    arena: &ExprArena,
    scratch: &mut CallScratch,
    items: &[Scored],
) -> Vec<Scored> {
    let db = ranker.db;
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    let CallScratch {
        candidates,
        params,
        slots,
    } = scratch;
    let visit = |m: MethodId| {
        let md = db.method(m);
        if !db.accessible(md.visibility(), md.declaring(), ranker.ctx.enclosing_type) {
            return;
        }
        if md.full_arity() < items.len() {
            return;
        }
        params.clear();
        params.extend(md.full_param_types());
        slots.clear();
        slots.resize(params.len(), None);
        place(
            ranker, arena, m, params, items, slots, 0, &mut seen, &mut out,
        );
    };
    match pick_type(db, index, candidates, items.iter().map(|c| c.ty)) {
        Some(t) => index.candidates_for_with(db, t, candidates).for_each(visit),
        None => index.all_with_args().iter().copied().for_each(visit),
    }
    out
}

/// Recursive injective placement of `items[i..]` into free positions.
#[allow(clippy::too_many_arguments)]
fn place(
    ranker: &Ranker<'_>,
    arena: &ExprArena,
    m: MethodId,
    param_tys: &[TypeId],
    items: &[Scored],
    slots: &mut [Option<usize>], // slot j -> index into items
    i: usize,
    seen: &mut HashSet<ExprId>,
    out: &mut Vec<Scored>,
) {
    let db = ranker.db;
    if i == items.len() {
        let hole = arena.hole0();
        let args: Vec<ExprId> = slots
            .iter()
            .map(|s| match s {
                Some(k) => items[*k].expr,
                None => hole,
            })
            .collect();
        let expr = arena.call(m, &args);
        if !seen.insert(expr) {
            return;
        }
        out.extend(scored(ranker, arena, expr));
        return;
    }
    for j in 0..param_tys.len() {
        if slots[j].is_some() {
            continue;
        }
        let fits = match items[i].ty {
            ValueTy::Wildcard => true,
            ValueTy::Known(t) => db.types().type_distance(t, param_tys[j]).is_some(),
        };
        if !fits {
            continue;
        }
        slots[j] = Some(i);
        place(ranker, arena, m, param_tys, items, slots, i + 1, seen, out);
        slots[j] = None;
    }
}

/// Expands a known-method combo positionally over the candidate overloads.
pub(crate) fn expand_known_call(
    ranker: &Ranker<'_>,
    arena: &ExprArena,
    candidates: &[MethodId],
    items: &[Scored],
) -> Vec<Scored> {
    let db = ranker.db;
    let mut out = Vec::new();
    for &m in candidates {
        let md = db.method(m);
        if md.full_arity() != items.len() {
            continue;
        }
        if !db.accessible(md.visibility(), md.declaring(), ranker.ctx.enclosing_type) {
            continue;
        }
        let args: Vec<ExprId> = items.iter().map(|c| c.expr).collect();
        let expr = arena.call(m, &args);
        out.extend(scored(ranker, arena, expr));
    }
    out
}

/// Expands an assignment combo (`[lhs, rhs]`).
pub(crate) fn expand_assign(
    ranker: &Ranker<'_>,
    arena: &ExprArena,
    items: &[Scored],
) -> Vec<Scored> {
    debug_assert_eq!(items.len(), 2);
    // Checked before interning, so unassignable pairs never reach the
    // arena.
    let lhs_ok = matches!(
        arena.read().node(items[0].expr),
        ENode::Local(_) | ENode::StaticField(_) | ENode::FieldAccess(..)
    );
    if !lhs_ok {
        return Vec::new();
    }
    let expr = arena.assign(items[0].expr, items[1].expr);
    scored(ranker, arena, expr).into_iter().collect()
}

/// Expands a comparison combo (`[lhs, rhs]`).
pub(crate) fn expand_cmp(
    ranker: &Ranker<'_>,
    arena: &ExprArena,
    op: pex_model::CmpOp,
    items: &[Scored],
) -> Vec<Scored> {
    debug_assert_eq!(items.len(), 2);
    let expr = arena.cmp(op, items[0].expr, items[1].expr);
    scored(ranker, arena, expr).into_iter().collect()
}

/// The row for `expr` if it type-checks: its score and type from the one
/// ranking walk.
pub(crate) fn scored(ranker: &Ranker<'_>, arena: &ExprArena, expr: ExprId) -> Option<Scored> {
    let (score, ty) = ranker.score(arena, expr)?;
    Some(Scored { expr, score, ty })
}

/// A stream filtered by a type predicate (bounds pass through unchanged —
/// filtering can only remove items, so lower bounds stay valid).
pub(crate) struct Filtered<'a> {
    pub(crate) inner: Box<dyn ScoredStream + 'a>,
    pub(crate) db: &'a pex_model::Database,
    pub(crate) filter: super::chains::TypeFilter,
}

impl ScoredStream for Filtered<'_> {
    fn bound(&mut self) -> Option<u32> {
        self.inner.bound()
    }

    fn next_item(&mut self) -> Option<Scored> {
        loop {
            let c = self.inner.next_item()?;
            if self.filter.passes(self.db, c.ty) {
                return Some(c);
            }
        }
    }
}
