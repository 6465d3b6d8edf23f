//! Completion of `.?` suffix holes and `?` holes: best-first search over
//! lookup chains.
//!
//! A chain grows from a root completion by appending instance field lookups
//! and (for `m` kinds) zero-argument instance calls; each link costs the
//! ranker's link cost. Roots arrive lazily from another stream, so nested
//! suffixes and `?`-holes (whose roots are every local and global) compose
//! uniformly. The search is a Dijkstra over (expression, type) states: the
//! heap pops states in score order, emitting those that pass the optional
//! type filter and expanding their successors.
//!
//! Chain expressions are arena ids: extending a chain interns one node and
//! copies a `u32`, never a tree. Successor member lists come from the
//! shared `SuccessorMemo`, so repeated states of one type — within a query
//! or across serve requests — walk the member tables once.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use pex_model::{Context, Database, ExprArena, ValueTy};
use pex_types::TypeId;

use super::budget::Budget;
use super::memo::{ChainMember, SuccessorMemo};
use super::reach::{ReachPruner, DIST_UNREACHABLE};
use super::stream::{Scored, ScoredStream};
use crate::rank::ScoreBound;

/// Hard ceiling on how many links any chain search may append to a root,
/// regardless of the per-query `max_depth`. This is the capacity of the
/// fixed-width `TieKey` path, so it bounds tie-break state to a few
/// machine words per frontier entry; queries requesting a deeper search are
/// rejected up front (see `CompleteOptions::with_max_depth`).
pub const MAX_DEPTH_LIMIT: usize = 8;

/// Canonical tie-break key for equal-score chain states.
///
/// The key is the state's derivation path: the emission index of its root
/// (assigned in root-stream pull order) followed by the successor-list
/// index of each appended link. Components are stored as `value + 1` with
/// trailing zero padding, so comparing the fixed-width arrays
/// lexicographically orders an ancestor strictly before every descendant.
///
/// Unlike a heap-insertion sequence number, this key is independent of the
/// order in which a search happens to visit states — the exhaustive
/// Dijkstra and the best-first A* compute identical keys for identical
/// states, which is what makes their equal-score emission orders agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct TieKey {
    /// `[root_seq + 1, link_idx_0 + 1, ...]`, zero-padded.
    path: [u32; MAX_DEPTH_LIMIT + 1],
    /// Number of used components (root + links); always trails `path`, so
    /// deriving `Ord` with `path` first stays lexicographic.
    len: u8,
}

impl TieKey {
    /// Key for the `seq`-th root pulled from the root stream.
    pub(crate) fn root(seq: u32) -> Self {
        let mut path = [0u32; MAX_DEPTH_LIMIT + 1];
        path[0] = seq.saturating_add(1);
        TieKey { path, len: 1 }
    }

    /// Key for the child reached via successor-list entry `index`.
    pub(crate) fn child(&self, index: u32) -> Self {
        let mut next = *self;
        next.path[next.len as usize] = index.saturating_add(1);
        next.len += 1;
        next
    }
}

/// What links a chain may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChainLink {
    /// Instance field/property lookups only (`.?f` kinds).
    Fields,
    /// Lookups plus zero-argument instance calls (`.?m` kinds).
    FieldsAndMethods,
}

/// Emission filter on a completion's static type.
///
/// `OneOf` is the argument-position filter (must convert to a wanted
/// type); `Ordered` is the binary-operator narrowing of paper Section 4.2
/// ("binary operators ... are relatively restrictive on which pairs of
/// types are valid"): only types that can participate in *some* comparison
/// pass, which prunes each operand stream before pairs are even formed.
#[derive(Debug, Clone, Default)]
pub(crate) enum TypeFilter {
    /// Everything passes.
    #[default]
    Any,
    /// The type must implicitly convert to one of these.
    OneOf(Vec<TypeId>),
    /// The type must be usable under a relational operator.
    Ordered,
}

impl TypeFilter {
    pub(crate) fn any() -> Self {
        TypeFilter::Any
    }

    pub(crate) fn one_of(tys: Vec<TypeId>) -> Self {
        TypeFilter::OneOf(tys)
    }

    pub(crate) fn is_any(&self) -> bool {
        matches!(self, TypeFilter::Any)
    }

    /// Whether a *known* type is admissible (used for pruning tables).
    pub(crate) fn admits(&self, db: &Database, t: TypeId) -> bool {
        match self {
            TypeFilter::Any => true,
            TypeFilter::OneOf(wanted) => wanted
                .iter()
                .any(|w| db.types().implicitly_convertible(t, *w)),
            TypeFilter::Ordered => {
                let def = db.types().get(t);
                match def.prim_kind() {
                    Some(pk) => pk.is_ordered(),
                    // A non-primitive is orderable if it, or anything it
                    // implicitly converts to, is marked comparable (a
                    // subtype of DateTime compares like a DateTime).
                    None => db
                        .types()
                        .conversion_targets_ref(t)
                        .iter()
                        .any(|&(u, _)| db.types().get(u).is_comparable()),
                }
            }
        }
    }

    pub(crate) fn passes(&self, db: &Database, ty: ValueTy) -> bool {
        match ty {
            ValueTy::Wildcard => true,
            ValueTy::Known(t) => self.admits(db, t),
        }
    }
}

/// Best-first (A*) search knobs for one [`ChainStream`].
///
/// The exhaustive stream is a plain Dijkstra keyed by accrued score. With
/// a `BestFirst` attached the heap is instead keyed by the admissible
/// [`ScoreBound`] (accrued score plus `link_cost × min_to_admissible`),
/// pushes whose bound strictly exceeds the current top-k threshold are
/// dropped, and — when `dominance_k` is set — a generated state with at
/// least `k` strictly better same-(type, remaining-links) predecessors is
/// dropped too. All three are sound for a consumer that stops after `k`
/// deduplicated emissions: pruned states could only have produced rows
/// strictly after the `k`-th distinct one (see DESIGN.md Section 11).
#[derive(Debug, Clone, Copy)]
pub(crate) struct BestFirst {
    /// Enables threshold pruning: the stream tracks the `k` smallest
    /// scores among pushed states that pass the emission filter; once `k`
    /// are known, their maximum is a running upper bound τ on the final
    /// `k`-th distinct row score, and a push (or pop) whose admissible
    /// bound strictly exceeds τ is dropped. Only sound when every
    /// generated state is a distinct expression; `None` disables.
    pub(crate) threshold_k: Option<usize>,
    /// Enables per-(result-type, remaining-links) dominance pruning for a
    /// consumer stopping after this many distinct rows. Only sound when
    /// every generated state is a distinct expression (chain-rooted
    /// queries); `None` disables.
    pub(crate) dominance_k: Option<usize>,
}

struct HeapState {
    /// Admissible lower bound on any completion extending this state; its
    /// accrued part is exactly `completion.score`. In exhaustive mode the
    /// pending heuristic is always zero, so the key degenerates to the
    /// plain Dijkstra score key.
    bound: ScoreBound,
    tie: TieKey,
    links: usize,
    completion: Scored,
}

impl HeapState {
    fn key(&self) -> u32 {
        self.bound.get()
    }
}

impl PartialEq for HeapState {
    fn eq(&self, other: &Self) -> bool {
        (self.key(), self.tie) == (other.key(), other.tie)
    }
}
impl Eq for HeapState {}
impl Ord for HeapState {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.key(), self.tie).cmp(&(other.key(), other.tie))
    }
}
impl PartialOrd for HeapState {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The chain-closure stream. See module docs.
pub(crate) struct ChainStream<'a> {
    db: &'a Database,
    ctx: &'a Context,
    arena: &'a ExprArena,
    roots: Box<dyn ScoredStream + 'a>,
    links: ChainLink,
    /// Maximum number of links appended to a root (`Some(1)` for non-star
    /// suffixes, `None` — bounded by `max_depth` — for star suffixes).
    max_links: Option<usize>,
    /// Per-query bound on star-suffix chain length (clamped to
    /// [`MAX_DEPTH_LIMIT`] so [`TieKey`] paths never overflow).
    max_depth: usize,
    link_cost: u32,
    filter: TypeFilter,
    heap: BinaryHeap<Reverse<HeapState>>,
    /// Roots pulled from the root stream so far; the next root's tie key is
    /// `TieKey::root(roots_pulled)`.
    roots_pulled: u32,
    /// Optional reachability pruning (paper Section 4.2's proposed index):
    /// successors whose type cannot reach an admissible type within the
    /// remaining link budget are not enqueued. The table is shared across
    /// queries through the engine cache's reach memo.
    pruner: Option<std::sync::Arc<ReachPruner>>,
    /// The query's shared resource meter: one charge per heap pop, so a
    /// long filtered skip-run cannot outlive the query's budget between
    /// emitted items.
    budget: Budget,
    memo: &'a SuccessorMemo,
    /// Best-first knobs; `None` runs the exhaustive Dijkstra unchanged.
    bf: Option<BestFirst>,
    /// Dominance table: the `k` smallest accrued scores generated so far,
    /// indexed flat by `type × (limit+1) + remaining-links` (probed per
    /// push; hashing showed up in profiles).
    dom: Vec<Vec<u32>>,
    /// Max-heap of the `threshold_k` smallest scores among emittable
    /// pushed states; its top (once full) is the running τ threshold.
    adm_topk: BinaryHeap<u32>,
    /// Per-stream memo of the emission filter's verdict per known type
    /// (used only when there is no pruner bitmap to consult).
    emit_memo: HashMap<TypeId, bool>,
    /// Best-first observability, counted locally and flushed once on drop.
    n_expanded: u64,
    n_pruned_bound: u64,
    n_pruned_dominated: u64,
    frontier_max: u64,
}

impl<'a> ChainStream<'a> {
    #[allow(clippy::too_many_arguments)] // one-shot constructor mirroring the paper's knobs
    pub(crate) fn new(
        db: &'a Database,
        ctx: &'a Context,
        arena: &'a ExprArena,
        roots: Box<dyn ScoredStream + 'a>,
        links: ChainLink,
        max_links: Option<usize>,
        max_depth: usize,
        link_cost: u32,
        filter: TypeFilter,
        budget: Budget,
        memo: &'a SuccessorMemo,
    ) -> Self {
        ChainStream {
            db,
            ctx,
            arena,
            roots,
            links,
            max_links,
            max_depth,
            link_cost,
            filter,
            heap: BinaryHeap::new(),
            roots_pulled: 0,
            pruner: None,
            budget,
            memo,
            bf: None,
            dom: Vec::new(),
            adm_topk: BinaryHeap::new(),
            emit_memo: HashMap::new(),
            n_expanded: 0,
            n_pruned_bound: 0,
            n_pruned_dominated: 0,
            frontier_max: 0,
        }
    }

    /// Enables reachability pruning for this stream.
    pub(crate) fn with_pruner(mut self, pruner: Option<std::sync::Arc<ReachPruner>>) -> Self {
        self.pruner = pruner;
        self
    }

    /// Switches the stream into best-first (A*) mode. The emitted row
    /// sequence is unchanged up to the consumer's stop point; only the
    /// amount of search work spent reaching it shrinks.
    pub(crate) fn with_bestfirst(mut self, bf: Option<BestFirst>) -> Self {
        self.bf = bf;
        self
    }

    /// The admissible heuristic for a state of this type: a proven minimum
    /// additional cost before any emission can pass the filter. Zero when
    /// not in best-first mode, when there is no pruner (unfiltered
    /// queries), or for admissible/wildcard types. (Unreachable types
    /// never reach here — [`ChainStream::viable`] drops them before any
    /// push.)
    fn heuristic(&self, ty: ValueTy) -> u32 {
        if self.bf.is_none() {
            return 0;
        }
        let Some(pruner) = &self.pruner else {
            return 0;
        };
        let ValueTy::Known(t) = ty else { return 0 };
        match pruner.min_links(t) {
            DIST_UNREACHABLE => 0,
            d => d * self.link_cost,
        }
    }

    /// Whether at least `k` strictly better states with the same
    /// (type, remaining-links) key were already generated; records this
    /// state's score otherwise. Each recorded state is a distinct
    /// expression, and a dominated state's every completion is outscored
    /// by the same-suffix completions of its `k` dominators.
    fn dominated(&mut self, ty: ValueTy, links: usize, score: u32) -> bool {
        let Some(k) = self.bf.as_ref().and_then(|b| b.dominance_k) else {
            return false;
        };
        let ValueTy::Known(t) = ty else { return false };
        let remaining = self.limit().saturating_sub(links);
        let idx = t.index() * (self.limit() + 1) + remaining;
        if idx >= self.dom.len() {
            self.dom.resize_with(idx + 1, Vec::new);
        }
        let best = &mut self.dom[idx];
        let better = best.partition_point(|&v| v < score);
        if better >= k {
            return true;
        }
        best.insert(better, score);
        best.truncate(k);
        false
    }

    /// Whether a state of this type with `links` already used is worth
    /// keeping (it can still emit an admissible completion): the pruning
    /// table's minimum admissible distance against the remaining link
    /// budget, an O(1) probe per enqueue.
    fn viable(&self, ty: pex_types::TypeId, links: usize) -> bool {
        match &self.pruner {
            Some(pruner) => {
                let remaining = self.limit().saturating_sub(links) as u32;
                pruner.min_links(ty) <= remaining
            }
            None => true,
        }
    }

    /// The running top-k threshold: an upper bound on the final score of
    /// the `k`-th distinct emitted row, or `u32::MAX` while fewer than `k`
    /// emittable states have been seen.
    fn tau(&self) -> u32 {
        match self.bf.and_then(|b| b.threshold_k) {
            Some(k) if self.adm_topk.len() == k => *self.adm_topk.peek().expect("k > 0"),
            _ => u32::MAX,
        }
    }

    /// Whether a state of this type would be emitted by this stream's
    /// filter (the exact `filter.passes` verdict, memoized).
    fn emittable(&mut self, ty: ValueTy) -> bool {
        let ValueTy::Known(t) = ty else { return true };
        if let Some(pruner) = &self.pruner {
            return pruner.is_admissible(t);
        }
        if self.filter.is_any() {
            return true;
        }
        match self.emit_memo.get(&t) {
            Some(&v) => v,
            None => {
                let v = self.filter.admits(self.db, t);
                self.emit_memo.insert(t, v);
                v
            }
        }
    }

    fn push(&mut self, links: usize, tie: TieKey, bound: ScoreBound, completion: Scored) {
        debug_assert_eq!(bound.accrued(), completion.score);
        let bound = bound.with_pending(self.heuristic(completion.ty));
        if let Some(bf) = self.bf {
            if bound.get() > self.tau() {
                self.n_pruned_bound += 1;
                return;
            }
            if self.dominated(completion.ty, links, completion.score) {
                self.n_pruned_dominated += 1;
                return;
            }
            // A kept emittable state is a guaranteed distinct future row;
            // fold its exact score into the running top-k threshold.
            if let Some(k) = bf.threshold_k {
                if self.emittable(completion.ty) {
                    if self.adm_topk.len() < k {
                        self.adm_topk.push(completion.score);
                    } else if let Some(mut top) = self.adm_topk.peek_mut() {
                        if completion.score < *top {
                            *top = completion.score;
                        }
                    }
                }
            }
        }
        self.heap.push(Reverse(HeapState {
            bound,
            tie,
            links,
            completion,
        }));
        self.frontier_max = self.frontier_max.max(self.heap.len() as u64);
    }

    /// Moves roots into the heap while a pending root could be at least as
    /// cheap as the current heap top. The root stream's bound is a bound
    /// on accrued score, which is itself a lower bound on the keyed
    /// [`ScoreBound`], so stopping when the top key is smaller is sound in
    /// both exhaustive and best-first modes (if anything it absorbs a few
    /// roots early — and unpulled roots always tie-sort after every state
    /// already in the heap).
    fn absorb_roots(&mut self) {
        loop {
            let Some(rb) = self.roots.bound() else { return };
            let top = self.heap.peek().map(|Reverse(s)| s.key());
            if top.is_some_and(|t| t < rb) {
                return;
            }
            match self.roots.next_item() {
                Some(c) => {
                    let tie = TieKey::root(self.roots_pulled);
                    self.roots_pulled += 1;
                    let keep = match c.ty {
                        ValueTy::Known(t) => self.viable(t, 0),
                        ValueTy::Wildcard => true,
                    };
                    if keep {
                        self.push(0, tie, ScoreBound::root(c.score), c);
                    }
                }
                None => return,
            }
        }
    }

    fn limit(&self) -> usize {
        self.max_links
            .unwrap_or(self.max_depth)
            .min(MAX_DEPTH_LIMIT)
    }

    /// Expands one state's successors into the heap.
    fn expand(&mut self, links: usize, tie: TieKey, bound: ScoreBound, completion: &Scored) {
        if links >= self.limit() {
            return;
        }
        let ValueTy::Known(ty) = completion.ty else {
            return;
        };
        if self.bf.is_some() {
            self.n_expanded += 1;
        }
        let from = self.ctx.enclosing_type;
        let steps = self.memo.successors(self.db, ty, self.links, from);
        for (i, step) in steps.iter().enumerate() {
            if !self.viable(step.ty, links + 1) {
                continue;
            }
            let expr = match step.member {
                ChainMember::Field(f) => self.arena.field(completion.expr, f),
                ChainMember::Call0(m) => self.arena.call(m, &[completion.expr]),
            };
            let c = Scored {
                expr,
                score: completion.score + self.link_cost,
                ty: ValueTy::Known(step.ty),
            };
            self.push(
                links + 1,
                tie.child(i as u32),
                bound.extend(self.link_cost),
                c,
            );
        }
    }
}

impl ScoredStream for ChainStream<'_> {
    fn bound(&mut self) -> Option<u32> {
        let heap_bound = self.heap.peek().map(|Reverse(s)| s.key());
        let root_bound = self.roots.bound();
        match (heap_bound, root_bound) {
            (Some(h), Some(r)) => Some(h.min(r)),
            (Some(h), None) => Some(h),
            (None, Some(r)) => Some(r),
            (None, None) => None,
        }
    }

    fn next_item(&mut self) -> Option<Scored> {
        loop {
            if !self.budget.charge() {
                return None;
            }
            self.absorb_roots();
            let Reverse(state) = self.heap.pop()?;
            // The threshold may have tightened after this state was
            // pushed; a stale over-bound state can neither be a top-k row
            // nor lead to one, so drop it unexpanded.
            if self.bf.is_some() && state.key() > self.tau() {
                self.n_pruned_bound += 1;
                continue;
            }
            self.expand(state.links, state.tie, state.bound, &state.completion);
            if self.filter.passes(self.db, state.completion.ty) {
                return Some(state.completion);
            }
        }
    }
}

impl Drop for ChainStream<'_> {
    fn drop(&mut self) {
        if self.bf.is_none() {
            return;
        }
        pex_obs::counter!("engine.bestfirst.expanded", self.n_expanded);
        pex_obs::counter!("engine.bestfirst.pruned_bound", self.n_pruned_bound);
        pex_obs::counter!("engine.bestfirst.pruned_dominated", self.n_pruned_dominated);
        pex_obs::gauge_max!("engine.bestfirst.frontier.max", self.frontier_max);
        // Scope-local twins of the global flush: when a request scope is
        // active (the serve daemon's `"trace": true`), these become the
        // per-query search stats in the traced response.
        pex_obs::scope::count("engine.bestfirst.expanded", self.n_expanded);
        pex_obs::scope::count("engine.bestfirst.pruned_bound", self.n_pruned_bound);
        pex_obs::scope::count("engine.bestfirst.pruned_dominated", self.n_pruned_dominated);
        pex_obs::scope::count_max("engine.bestfirst.frontier.max", self.frontier_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::stream::VecStream;
    use pex_model::minics::compile;
    use pex_model::Local;

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
            }
            "#,
        )
        .unwrap();
        let line = db.types().lookup_qualified("G.Line").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![Local {
                name: "ln".into(),
                ty: line,
            }],
        );
        (db, ctx)
    }

    /// A root stream holding the one local, `ln`.
    fn roots<'a>(arena: &ExprArena, ctx: &Context) -> Box<dyn ScoredStream + 'a> {
        Box::new(VecStream::new(vec![Scored {
            expr: arena.local(pex_model::LocalId(0)),
            score: 0,
            ty: ValueTy::Known(ctx.locals[0].ty),
        }]))
    }

    fn renders(
        db: &Database,
        ctx: &Context,
        arena: &ExprArena,
        stream: &mut dyn ScoredStream,
        n: usize,
    ) -> Vec<String> {
        let mut out = Vec::new();
        for _ in 0..n {
            match stream.next_item() {
                Some(c) => out.push(pex_model::render_expr(
                    db,
                    ctx,
                    &arena.materialize(c.expr),
                    pex_model::CallStyle::Receiver,
                )),
                None => break,
            }
        }
        out
    }

    #[test]
    fn star_closure_explores_depth_in_score_order() {
        let (db, ctx) = setup();
        let memo = SuccessorMemo::default();
        let arena = ExprArena::new();
        let mut s = ChainStream::new(
            &db,
            &ctx,
            &arena,
            roots(&arena, &ctx),
            ChainLink::FieldsAndMethods,
            None,
            6,
            2,
            TypeFilter::any(),
            Budget::unlimited(),
            &memo,
        );
        let names = renders(&db, &ctx, &arena, &mut s, 10);
        assert_eq!(names[0], "ln");
        assert!(names.contains(&"ln.P1".to_string()));
        assert!(names.contains(&"ln.GetLength()".to_string()));
        assert!(names.contains(&"ln.P1.X".to_string()));
        // Score order: ln (0) first, then one-link (2), then two-link (4).
        let p1x = names.iter().position(|n| n == "ln.P1.X").unwrap();
        let p1 = names.iter().position(|n| n == "ln.P1").unwrap();
        assert!(p1 < p1x);
    }

    #[test]
    fn single_link_limit_and_field_only() {
        let (db, ctx) = setup();
        let memo = SuccessorMemo::default();
        let arena = ExprArena::new();
        let mut s = ChainStream::new(
            &db,
            &ctx,
            &arena,
            roots(&arena, &ctx),
            ChainLink::Fields,
            Some(1),
            6,
            2,
            TypeFilter::any(),
            Budget::unlimited(),
            &memo,
        );
        let names = renders(&db, &ctx, &arena, &mut s, 20);
        assert_eq!(names.len(), 3, "ln, ln.P1, ln.P2 only: {names:?}");
        assert!(!names.iter().any(|n| n.contains("GetLength")));
        assert!(!names
            .iter()
            .any(|n| n.contains('.') && n.matches('.').count() > 1));
    }

    #[test]
    fn type_filter_restricts_emissions_not_search() {
        let (db, ctx) = setup();
        let memo = SuccessorMemo::default();
        let int = db.types().int_ty();
        let arena = ExprArena::new();
        let mut s = ChainStream::new(
            &db,
            &ctx,
            &arena,
            roots(&arena, &ctx),
            ChainLink::Fields,
            None,
            6,
            2,
            TypeFilter::one_of(vec![int]),
            Budget::unlimited(),
            &memo,
        );
        let names = renders(&db, &ctx, &arena, &mut s, 20);
        // Only int-typed chains: the X/Y of P1 and P2.
        assert_eq!(names.len(), 4, "{names:?}");
        assert!(names.iter().all(|n| n.ends_with(".X") || n.ends_with(".Y")));
    }

    #[test]
    fn ordered_filter_admits_comparable_subtypes() {
        let db = pex_model::minics::compile(
            r#"
            namespace N {
                [Comparable] class Version { }
                class SemVer : N.Version { }
                class Plain { }
            }
            "#,
        )
        .unwrap();
        let version = db.types().lookup_qualified("N.Version").unwrap();
        let semver = db.types().lookup_qualified("N.SemVer").unwrap();
        let plain = db.types().lookup_qualified("N.Plain").unwrap();
        let f = TypeFilter::Ordered;
        assert!(f.admits(&db, version));
        assert!(
            f.admits(&db, semver),
            "subtypes of comparable types compare"
        );
        assert!(!f.admits(&db, plain));
        assert!(f.admits(&db, db.types().int_ty()));
        assert!(!f.admits(&db, db.types().bool_ty()));
        assert!(!f.admits(&db, db.types().string_ty()));
    }

    #[test]
    fn depth_cap_bounds_star_chains() {
        let (db, ctx) = setup();
        let memo = SuccessorMemo::default();
        // Point has no reference-typed fields, so chains die out anyway;
        // use cap 1 to check the cap itself.
        let arena = ExprArena::new();
        let mut s = ChainStream::new(
            &db,
            &ctx,
            &arena,
            roots(&arena, &ctx),
            ChainLink::FieldsAndMethods,
            None,
            1,
            2,
            TypeFilter::any(),
            Budget::unlimited(),
            &memo,
        );
        let names = renders(&db, &ctx, &arena, &mut s, 50);
        assert!(
            names.iter().all(|n| n.matches('.').count() <= 1),
            "{names:?}"
        );
    }

    #[test]
    fn tie_keys_order_ancestors_before_descendants() {
        let r0 = TieKey::root(0);
        let r1 = TieKey::root(1);
        assert!(r0 < r1);
        // An ancestor sorts strictly before every descendant ...
        let c0 = r0.child(0);
        let c05 = c0.child(5);
        assert!(r0 < c0 && c0 < c05);
        // ... but a descendant of an earlier root sorts before a later root.
        assert!(c05 < r1);
        // Sibling order follows successor-list index.
        assert!(r0.child(0) < r0.child(1));
        // Keys survive the full depth limit without overflow.
        let mut deep = TieKey::root(u32::MAX);
        for _ in 0..MAX_DEPTH_LIMIT {
            let child = deep.child(u32::MAX);
            assert!(deep < child);
            deep = child;
        }
    }
}
