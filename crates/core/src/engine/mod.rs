//! The completion engine: Algorithm 1 of the paper.
//!
//! [`Completer::completions`] compiles a [`PartialExpr`] into a tree of
//! scored streams — chain closures for holes and `.?` suffixes,
//! products plus reorder buffers for calls and operators — and iterates the
//! root stream, deduplicating, in non-decreasing score order. Every stream
//! carries ids interned in the completer's own arena; an emitted row is
//! materialized into an [`Expr`] tree only once it survives dedup.

pub mod budget;
pub(crate) mod calls;
pub mod chains;
pub(crate) mod index;
pub mod invalidate;
pub(crate) mod memo;
pub mod reach;
pub(crate) mod stream;

pub use budget::{CancelToken, QueryBudget, QueryOutcome, RankResult};
pub use chains::MAX_DEPTH_LIMIT;
pub use index::{CandidateScratch, MethodIndex};
pub use invalidate::{refresh_derived, InvalidationStats};
pub use reach::ReachIndex;

use std::sync::atomic::{AtomicUsize, Ordering};

use pex_abstract::AbsTypes;
use pex_model::{CallStyle, Context, Database, Expr, ExprArena, ExprId, GlobalRef, ValueTy};
use pex_types::TypeId;

use crate::partial::PartialExpr;
use crate::rank::{RankConfig, Ranker};

use budget::Budget;
use calls::Filtered;
use chains::{BestFirst, ChainLink, ChainStream, TypeFilter};
use memo::SuccessorMemo;
use stream::{
    ExpandStream, MergeStream, ProductStream, Scored, ScoredStream, SliceStream, VecStream,
};

/// Shared, thread-safe engine caches, all keyed by types: the
/// chain-successor memo and the reachability pruning tables.
///
/// Every [`Completer`] owns a private cache, so single queries work with no
/// setup. A long-lived cache — e.g. one living in a serve snapshot — can be
/// shared across queries (and across threads) with
/// [`Completer::with_cache`], so concurrent requests reuse memoized member
/// walks instead of re-building them per query. Expressions are not
/// shared: each completer interns into its own [`ExprArena`].
#[derive(Debug, Default)]
pub struct EngineCache {
    /// The largest arena one query against this cache has built.
    pub arena: ArenaPeak,
    pub(crate) chains: SuccessorMemo,
    /// Reachability pruning tables per `(link kind, filter)`, shared by
    /// every query against the same expected type.
    pub(crate) reach: reach::ReachMemo,
}

impl EngineCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        EngineCache::default()
    }
}

/// The largest node count any single completer's [`ExprArena`] reached,
/// recorded as each of its [`CompletionIter`]s drops. Arenas die with
/// their completers, so this is the one arena figure a shared cache can
/// give.
#[derive(Debug, Default)]
pub struct ArenaPeak(AtomicUsize);

impl ArenaPeak {
    /// The largest node count one query's arena has reached.
    pub fn len(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }

    /// Whether no query has interned a node yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn record(&self, nodes: usize) {
        self.0.fetch_max(nodes, Ordering::Relaxed);
    }
}

/// Engine options.
#[derive(Debug, Clone)]
pub struct CompleteOptions {
    /// If set, only completions whose type implicitly converts to this type
    /// are produced (the known-return-type mode of the paper's Figure 12).
    pub expected: Option<TypeId>,
    /// Maximum number of links a `.?*` chain may grow past its root — a
    /// per-query knob (surfaced through pex-serve requests and the REPL's
    /// `--max-depth`). The paper's generator is unbounded; this cap makes
    /// every stream finite. Values above [`MAX_DEPTH_LIMIT`] are rejected
    /// by [`CompleteOptions::with_max_depth`]; a value written directly
    /// into the field is clamped to the limit rather than panicking.
    pub max_depth: usize,
    /// Per-query resource limits: step budget, wall-clock deadline, and
    /// cooperative cancellation. Exceeding any of them stops enumeration
    /// with an explicit, non-[`QueryOutcome::Exhausted`] outcome.
    pub budget: QueryBudget,
}

impl Default for CompleteOptions {
    fn default() -> Self {
        CompleteOptions {
            expected: None,
            max_depth: 6,
            budget: QueryBudget::default(),
        }
    }
}

impl CompleteOptions {
    /// Sets the per-query chain depth, validating it against the engine's
    /// hard [`MAX_DEPTH_LIMIT`] (the tie-break path capacity). Rejecting
    /// the request up front keeps "deeper than the engine supports" an
    /// explicit error at the API boundary instead of a silent clamp or a
    /// panic deep in the search.
    pub fn with_max_depth(mut self, max_depth: usize) -> Result<Self, InvalidMaxDepth> {
        if max_depth > MAX_DEPTH_LIMIT {
            return Err(InvalidMaxDepth {
                requested: max_depth,
                limit: MAX_DEPTH_LIMIT,
            });
        }
        self.max_depth = max_depth;
        Ok(self)
    }
}

/// A requested `max_depth` exceeds the engine's [`MAX_DEPTH_LIMIT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidMaxDepth {
    /// The depth the caller asked for.
    pub requested: usize,
    /// The engine's hard ceiling.
    pub limit: usize,
}

impl std::fmt::Display for InvalidMaxDepth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "max_depth {} exceeds the engine limit of {}",
            self.requested, self.limit
        )
    }
}

impl std::error::Error for InvalidMaxDepth {}

/// The completion engine for one query context.
///
/// Construction is cheap; the expensive shared artefact is the
/// [`MethodIndex`], built once per program.
#[derive(Debug)]
pub struct Completer<'a> {
    db: &'a Database,
    ctx: &'a Context,
    index: &'a MethodIndex,
    config: RankConfig,
    abs: Option<&'a AbsTypes>,
    options: CompleteOptions,
    reach: Option<&'a ReachIndex>,
    owned_cache: EngineCache,
    shared_cache: Option<&'a EngineCache>,
    /// The expressions this completer's queries intern; they die with it.
    arena: ExprArena,
    /// Hole-query roots, scored and sorted once per completer. Root scores
    /// depend only on construction-time state (`db`/`ctx`/`abs`/`config` —
    /// never on [`CompleteOptions`]), and scoring walks every visible
    /// global through the ranker, which dominates the fixed cost of short
    /// queries; repeat queries replay the memo instead.
    hole_roots_memo: std::cell::OnceCell<Vec<Scored>>,
}

impl<'a> Completer<'a> {
    /// Creates a completer with default [`CompleteOptions`].
    pub fn new(
        db: &'a Database,
        ctx: &'a Context,
        index: &'a MethodIndex,
        config: RankConfig,
        abs: Option<&'a AbsTypes>,
    ) -> Self {
        Completer {
            db,
            ctx,
            index,
            config,
            abs,
            options: CompleteOptions::default(),
            reach: None,
            owned_cache: EngineCache::default(),
            shared_cache: None,
            arena: ExprArena::new(),
            hole_roots_memo: std::cell::OnceCell::new(),
        }
    }

    /// Replaces the engine options.
    pub fn with_options(mut self, options: CompleteOptions) -> Self {
        self.options = options;
        self
    }

    /// Enables reachability pruning of filtered `.?*` chain searches using
    /// a prebuilt [`ReachIndex`]. Pruning is sound: it never changes which
    /// completions are produced, only how much of the search space is
    /// explored to find them.
    pub fn with_reach(mut self, reach: &'a ReachIndex) -> Self {
        self.reach = Some(reach);
        self
    }

    /// Shares a long-lived [`EngineCache`] with this completer in place of
    /// its private one. Sound for any sequence of queries against the same
    /// database: cached successor lists and pruning tables depend only on
    /// the code model. The completer's arena stays its own.
    pub fn with_cache(mut self, cache: &'a EngineCache) -> Self {
        self.shared_cache = Some(cache);
        self
    }

    fn cache(&self) -> &EngineCache {
        self.shared_cache.unwrap_or(&self.owned_cache)
    }

    /// The ranker this engine scores with.
    pub fn ranker(&self) -> Ranker<'a> {
        Ranker::new(self.db, self.ctx, self.abs, self.config)
    }

    /// The database under completion.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// The query context.
    pub fn context(&self) -> &'a Context {
        self.ctx
    }

    /// All completions of `pe`, lazily, in non-decreasing score order,
    /// deduplicated. The iterator's [`CompletionIter::outcome`] reports why
    /// enumeration stopped once it has; budget trips never yield a silent
    /// `None`.
    ///
    /// This is the exhaustive mode: every chain stream runs a plain
    /// Dijkstra keyed by accrued score, with no row cap and no pruning.
    pub fn completions(&self, pe: &PartialExpr) -> CompletionIter<'_> {
        self.iter(pe, None, usize::MAX)
    }

    /// Best-first mode of [`Completer::completions`] for a caller that
    /// will consume at most `k` distinct rows — the shape of every top-k
    /// API (`complete`, `rank_of`, serve requests).
    ///
    /// The first `k` rows, their order, and the outcome classification are
    /// identical to [`Completer::completions`] (pinned by
    /// `tests/bestfirst_equiv.rs`); what changes is the work spent finding
    /// them. On chain-rooted queries the underlying frontier is keyed by
    /// an admissible [`crate::rank::ScoreBound`] instead of the accrued
    /// score, a running top-k threshold (the `k` cheapest emittable states
    /// seen so far) prunes over-bound pushes and pops, and count-`k`
    /// dominance drops states that
    /// provably rank past `k`. After `k` rows the iterator reports
    /// [`QueryOutcome::Limit`] and yields nothing further — that stop is
    /// precisely what makes the pruning sound.
    pub fn completions_bestfirst(&self, pe: &PartialExpr, k: usize) -> CompletionIter<'_> {
        self.iter(pe, Self::bestfirst_config(pe, k), k)
    }

    /// Compiles `pe` and wraps its root stream in an iterator that stops
    /// with [`QueryOutcome::Limit`] after `cap` distinct rows.
    fn iter(&self, pe: &PartialExpr, bf: Option<BestFirst>, cap: usize) -> CompletionIter<'_> {
        pex_obs::counter!("engine.queries", 1);
        let filter = match self.options.expected {
            Some(t) => TypeFilter::one_of(vec![t]),
            None => TypeFilter::any(),
        };
        let budget = Budget::start(&self.options.budget);
        CompletionIter {
            stream: self.stream_for(pe, filter, &budget, bf),
            arena: &self.arena,
            peak: &self.cache().arena,
            seen: std::collections::HashSet::new(),
            remaining: cap,
            budget,
            finished: None,
            span: pex_obs::span("query"),
            generated: 0,
            emitted: 0,
        }
    }

    /// Largest top-k target the dominance table engages for; beyond this
    /// the per-key score lists stop paying for themselves (and a
    /// `usize::MAX` "all rows" request must not allocate at all).
    const DOMINANCE_MAX_K: usize = 64;

    /// Largest top-k target the running threshold engages for — a bound on
    /// the tracked score heap's size, far above any interactive `k` (and a
    /// `usize::MAX` "all rows" request must not allocate at all).
    const THRESHOLD_MAX_K: usize = 4096;

    /// Best-first knobs for a top-`k` query over `pe`, or `None` when the
    /// query shape gets nothing from pruning. Only chain-rooted queries
    /// (`?` holes and `.?` suffixes) qualify: their top-level stream emits
    /// final rows whose scores are fully accrued, so an admissible bound
    /// is available. Threshold and dominance pruning additionally require
    /// every generated chain state to be a distinct expression
    /// ([`distinct_rows`]) — that is what lets "k cheaper states exist"
    /// imply "this state's rows rank past k".
    fn bestfirst_config(pe: &PartialExpr, k: usize) -> Option<BestFirst> {
        if k == 0 || !matches!(pe, PartialExpr::Hole | PartialExpr::Suffix(..)) {
            return None;
        }
        let distinct = distinct_rows(pe);
        let threshold_k = (distinct && k <= Self::THRESHOLD_MAX_K).then_some(k);
        let dominance_k = (distinct && k <= Self::DOMINANCE_MAX_K).then_some(k);
        Some(BestFirst {
            threshold_k,
            dominance_k,
        })
    }

    /// The top `n` completions of `pe`. Prefer
    /// [`Completer::complete_with_outcome`] where a truncated enumeration
    /// must be distinguishable from a complete one.
    pub fn complete(&self, pe: &PartialExpr, n: usize) -> Vec<Completion> {
        self.complete_with_outcome(pe, n).0
    }

    /// The top `n` completions of `pe`, plus why enumeration stopped:
    /// [`QueryOutcome::Limit`] when `n` results were produced with the
    /// stream still live, [`QueryOutcome::Exhausted`] when the search space
    /// drained first, and a degraded outcome when a budget tripped first.
    ///
    /// Because the result-count target is known, this runs the best-first
    /// mode ([`Completer::completions_bestfirst`]): same rows, same
    /// order, same outcome classification, but with bound/dominance
    /// pruning cutting the search work on deep chain queries.
    pub fn complete_with_outcome(
        &self,
        pe: &PartialExpr,
        n: usize,
    ) -> (Vec<Completion>, QueryOutcome) {
        let mut iter = self.completions_bestfirst(pe, n);
        let mut items = Vec::new();
        for c in iter.by_ref() {
            items.push(c);
        }
        let outcome = iter.outcome().unwrap_or(QueryOutcome::Limit);
        (items, outcome)
    }

    /// 0-based rank of the first completion satisfying `pred` within the
    /// first `limit` completions, plus why enumeration stopped. A missing
    /// rank with a degraded outcome means the query was cut off before the
    /// target could be reached — not that the target is unreachable; see
    /// [`RankResult::is_degraded`].
    pub fn rank_of(
        &self,
        pe: &PartialExpr,
        limit: usize,
        mut pred: impl FnMut(&Completion) -> bool,
    ) -> RankResult {
        let mut iter = self.completions_bestfirst(pe, limit);
        for (emitted, c) in iter.by_ref().enumerate() {
            if pred(&c) {
                return RankResult {
                    rank: Some(emitted),
                    outcome: QueryOutcome::Limit,
                };
            }
        }
        RankResult {
            rank: None,
            outcome: iter.outcome().unwrap_or(QueryOutcome::Limit),
        }
    }

    /// Renders a completion in the paper's result-list style.
    pub fn render(&self, c: &Completion) -> String {
        pex_model::render_expr(self.db, self.ctx, &c.expr, CallStyle::Flat)
    }

    /// Per-term score breakdown for a completion this engine produced.
    ///
    /// Re-interning the materialized expression is a hash-cons hit when
    /// this completer emitted it (the enumeration interned every node in
    /// its arena). The breakdown comes from the same ranking walk as the
    /// score, so it counts toward the `rank.*.evals` counters like any
    /// score. Returns `None` only for
    /// expressions this engine's ranker cannot score — never for a
    /// completion it just emitted, whose `score` the breakdown's `total`
    /// reproduces (callers holding rows from elsewhere compare the two).
    pub fn explain(&self, c: &Completion) -> Option<crate::rank::ScoreBreakdown> {
        let id = self.arena.intern_expr(&c.expr);
        self.ranker().explain(&self.arena, id)
    }

    fn link_cost(&self) -> u32 {
        self.ranker().link_cost()
    }

    /// The shared reachability pruning table for this query's filter:
    /// `None` when reach pruning is disabled or the filter admits
    /// everything; otherwise an `Arc` served by the cache's reach memo
    /// (built on the first query against this `(kind, filter)`).
    fn pruner_for(
        &self,
        kind: ChainLink,
        filter: &TypeFilter,
    ) -> Option<std::sync::Arc<reach::ReachPruner>> {
        let reach = self.reach?;
        self.cache().reach.pruner(reach, self.db, kind, filter)
    }

    /// Root completions for a `?` hole: live locals, `this`, and globals.
    fn hole_roots(&self) -> SliceStream<'_> {
        let arena = &self.arena;
        let roots = self.hole_roots_memo.get_or_init(|| {
            let ranker = self.ranker();
            let mut roots = Vec::new();
            for (i, local) in self.ctx.locals.iter().enumerate() {
                roots.push(Scored {
                    expr: arena.local(pex_model::LocalId(i as u32)),
                    score: 0,
                    ty: ValueTy::Known(local.ty),
                });
            }
            if let Some(this_ty) = self.ctx.this_type() {
                roots.push(Scored {
                    expr: arena.this(),
                    score: 0,
                    ty: ValueTy::Known(this_ty),
                });
            }
            for g in self.db.globals() {
                let expr = match g {
                    GlobalRef::Field(f) => arena.static_field(f),
                    GlobalRef::Method(m) => arena.call(m, &[]),
                };
                roots.extend(calls::scored(&ranker, arena, expr));
            }
            // Stored pre-sorted in the stream's (descending) emission
            // order, so replays are a borrowing cursor — no sort, no clone.
            roots.sort_by_key(|c| std::cmp::Reverse(c.score));
            roots
        });
        SliceStream::new(roots)
    }

    /// Compiles a partial expression into a scored stream whose emissions
    /// satisfy `filter`. Every combinator with an internal search loop
    /// (chain Dijkstra, product frontier) shares `budget`, so a resource
    /// trip stops work *inside* a pull, not only between pulls.
    ///
    /// `bf` applies best-first pruning to the *top-level* chain stream only
    /// (`Hole`/`Suffix` arms): those are the streams whose emissions are
    /// the query's final rows, which is what makes threshold and dominance
    /// pruning sound. Nested streams (suffix bases, call arguments, `Alt`
    /// arms) always run exhaustively — their emissions feed combinators
    /// that add expression-dependent score terms or compare stream bounds,
    /// where dropping or re-keying items could change the merged order.
    fn stream_for<'s>(
        &'s self,
        pe: &PartialExpr,
        filter: TypeFilter,
        budget: &Budget,
        bf: Option<BestFirst>,
    ) -> Box<dyn ScoredStream + 's> {
        let ranker = self.ranker();
        let arena = &self.arena;
        let memo = &self.cache().chains;
        match pe {
            PartialExpr::Known(e) => {
                let row = calls::scored(&ranker, arena, arena.intern_expr(e))
                    .filter(|c| filter.passes(self.db, c.ty));
                Box::new(VecStream::new(row.into_iter().collect()))
            }
            PartialExpr::Hole0 => Box::new(VecStream::new(vec![Scored {
                expr: arena.hole0(),
                score: 0,
                ty: ValueTy::Wildcard,
            }])),
            PartialExpr::Hole => {
                let pruner = self.pruner_for(ChainLink::FieldsAndMethods, &filter);
                Box::new(
                    ChainStream::new(
                        self.db,
                        self.ctx,
                        arena,
                        Box::new(self.hole_roots()),
                        ChainLink::FieldsAndMethods,
                        None,
                        self.options.max_depth,
                        self.link_cost(),
                        filter,
                        budget.clone(),
                        memo,
                    )
                    .with_pruner(pruner)
                    .with_bestfirst(bf),
                )
            }
            PartialExpr::Suffix(base, kind) => {
                let roots = self.stream_for(base, TypeFilter::any(), budget, None);
                let links = if kind.allows_methods() {
                    ChainLink::FieldsAndMethods
                } else {
                    ChainLink::Fields
                };
                let max_links = if kind.is_star() { None } else { Some(1) };
                let pruner = self.pruner_for(links, &filter);
                Box::new(
                    ChainStream::new(
                        self.db,
                        self.ctx,
                        arena,
                        roots,
                        links,
                        max_links,
                        self.options.max_depth,
                        self.link_cost(),
                        filter,
                        budget.clone(),
                        memo,
                    )
                    .with_pruner(pruner)
                    .with_bestfirst(bf),
                )
            }
            PartialExpr::UnknownCall(args) => {
                let arg_streams: Vec<Box<dyn ScoredStream + 's>> = args
                    .iter()
                    .map(|a| self.stream_for(a, TypeFilter::any(), budget, None))
                    .collect();
                let product = ProductStream::new(arg_streams, budget.clone());
                let index = self.index;
                let mut scratch = calls::CallScratch::default();
                let expand = move |combo: &stream::Combo| {
                    calls::expand_unknown_call(&ranker, index, arena, &mut scratch, &combo.items)
                };
                self.filtered(Box::new(ExpandStream::new(product, expand)), filter)
            }
            PartialExpr::KnownCall { candidates, args } => {
                let viable: Vec<pex_model::MethodId> = candidates
                    .iter()
                    .copied()
                    .filter(|m| self.db.method(*m).full_arity() == args.len())
                    .collect();
                if viable.is_empty() {
                    return Box::new(VecStream::empty());
                }
                let arg_streams: Vec<Box<dyn ScoredStream + 's>> = args
                    .iter()
                    .enumerate()
                    .map(|(i, a)| {
                        // Narrow each argument stream to types accepted at
                        // this position by some viable overload.
                        let wanted: Vec<TypeId> = viable
                            .iter()
                            .map(|m| {
                                self.db
                                    .method(*m)
                                    .full_param_types()
                                    .nth(i)
                                    .expect("arity checked")
                            })
                            .collect();
                        self.stream_for(a, TypeFilter::one_of(wanted), budget, None)
                    })
                    .collect();
                let product = ProductStream::new(arg_streams, budget.clone());
                let cands = viable;
                let expand = move |combo: &stream::Combo| {
                    calls::expand_known_call(&ranker, arena, &cands, &combo.items)
                };
                self.filtered(Box::new(ExpandStream::new(product, expand)), filter)
            }
            PartialExpr::Assign(l, r) => {
                let streams: Vec<Box<dyn ScoredStream + 's>> = vec![
                    self.stream_for(l, TypeFilter::any(), budget, None),
                    self.stream_for(r, TypeFilter::any(), budget, None),
                ];
                let product = ProductStream::new(streams, budget.clone());
                let expand =
                    move |combo: &stream::Combo| calls::expand_assign(&ranker, arena, &combo.items);
                self.filtered(Box::new(ExpandStream::new(product, expand)), filter)
            }
            PartialExpr::Alt(alts) => {
                let streams: Vec<Box<dyn ScoredStream + 's>> = alts
                    .iter()
                    .map(|a| self.stream_for(a, filter.clone(), budget, None))
                    .collect();
                Box::new(MergeStream::new(streams))
            }
            PartialExpr::Cmp(op, l, r) => {
                // Paper Section 4.2: operands of a relational operator can
                // only have ordered types; narrow both streams up front.
                let streams: Vec<Box<dyn ScoredStream + 's>> = vec![
                    self.stream_for(l, TypeFilter::Ordered, budget, None),
                    self.stream_for(r, TypeFilter::Ordered, budget, None),
                ];
                let product = ProductStream::new(streams, budget.clone());
                let op = *op;
                let expand = move |combo: &stream::Combo| {
                    calls::expand_cmp(&ranker, arena, op, &combo.items)
                };
                self.filtered(Box::new(ExpandStream::new(product, expand)), filter)
            }
        }
    }

    fn filtered<'s>(
        &'s self,
        inner: Box<dyn ScoredStream + 's>,
        filter: TypeFilter,
    ) -> Box<dyn ScoredStream + 's> {
        if filter.is_any() {
            return inner;
        }
        Box::new(Filtered {
            inner,
            db: self.db,
            filter,
        })
    }
}

/// Whether every candidate the compiled stream for `pe` generates is a
/// distinct expression (dedup never fires). Chain streams over *simple*
/// roots build distinct chains — each state is its root expression plus a
/// unique member sequence — but product expansions and `Alt` merges can
/// surface the same expression twice, and a suffix whose base stream
/// itself emits chains (e.g. `Suffix(Hole, ..)`) re-derives the same
/// expression through every (base, appended-links) split of the chain.
/// The running top-k threshold and count-k dominance both count generated
/// states as distinct rows-in-waiting, so they are only enabled when this
/// holds.
fn distinct_rows(pe: &PartialExpr) -> bool {
    match pe {
        PartialExpr::Hole | PartialExpr::Hole0 | PartialExpr::Known(_) => true,
        // Only single-expression bases keep suffix chains collision-free;
        // `Hole` (and nested suffix) bases emit chains themselves.
        PartialExpr::Suffix(base, _) => {
            matches!(**base, PartialExpr::Known(_) | PartialExpr::Hole0)
        }
        _ => false,
    }
}

/// A completion as the engine emits it: the materialised expression
/// (possibly containing `0` holes), its ranking score, and its static type.
#[derive(Debug, Clone, PartialEq)]
pub struct Completion {
    /// The completed expression.
    pub expr: Expr,
    /// The ranking score (lower is better).
    pub score: u32,
    /// Static type of the expression.
    pub ty: ValueTy,
}

/// Iterator over deduplicated completions in score order.
///
/// A best-first iterator ([`Completer::completions_bestfirst`]) stops with
/// [`QueryOutcome::Limit`] after its `k` rows and yields nothing further:
/// a pruned state could only have produced rows strictly after the `k`-th
/// distinct one, so refusing to enumerate past `k` is what keeps the
/// pruning invisible.
///
/// Returning `None` is no longer ambiguous: [`CompletionIter::outcome`]
/// reports whether the search space drained ([`QueryOutcome::Exhausted`])
/// or a resource bound tripped first (`StepBudget` / `Deadline` /
/// `Cancelled`). On a budget trip the emitted items are always a prefix of
/// the unbudgeted enumeration — an item produced in the same pull that
/// tripped the budget is discarded rather than emitted out of order.
pub struct CompletionIter<'s> {
    stream: Box<dyn ScoredStream + 's>,
    arena: &'s ExprArena,
    /// Where the arena's size is recorded on drop.
    peak: &'s ArenaPeak,
    /// Ids already emitted; id equality is structural equality.
    seen: std::collections::HashSet<ExprId>,
    /// Distinct rows still to emit before the iterator stops with
    /// [`QueryOutcome::Limit`] (`usize::MAX` for exhaustive iteration).
    remaining: usize,
    budget: Budget,
    /// Set exactly once, when iteration stops; also bumps the
    /// `engine.query.outcome.*` counter for the classification.
    finished: Option<QueryOutcome>,
    /// Open "query" span: the iterator's lifetime *is* the query, so the
    /// span closes (recording wall time into `span.query`) on drop.
    span: Option<pex_obs::Span>,
    /// Candidates pulled from the stream, counted locally and flushed to
    /// the registry once per query on drop (no per-candidate atomics).
    generated: u64,
    /// Candidates that survived dedup and were yielded to the caller.
    emitted: u64,
}

impl CompletionIter<'_> {
    /// Why iteration stopped, or `None` while the stream can still
    /// produce. After [`Iterator::next`] has returned `None` this is
    /// always `Some`; dropping the iterator mid-stream records
    /// [`QueryOutcome::Limit`].
    pub fn outcome(&self) -> Option<QueryOutcome> {
        self.finished
    }

    /// Records the final classification (exactly once) and bumps its
    /// outcome counter.
    fn finish(&mut self, outcome: QueryOutcome) {
        if self.finished.is_some() {
            return;
        }
        self.finished = Some(outcome);
        match outcome {
            QueryOutcome::Exhausted => pex_obs::counter!("engine.query.outcome.exhausted", 1),
            QueryOutcome::Limit => pex_obs::counter!("engine.query.outcome.limit", 1),
            QueryOutcome::StepBudget => pex_obs::counter!("engine.query.outcome.step_budget", 1),
            QueryOutcome::Deadline => {
                pex_obs::counter!("engine.query.outcome.deadline", 1);
                pex_obs::marker("query.deadline_exceeded");
            }
            QueryOutcome::Cancelled => pex_obs::counter!("engine.query.outcome.cancelled", 1),
        }
    }
}

impl<'s> Iterator for CompletionIter<'s> {
    type Item = Completion;

    fn next(&mut self) -> Option<Completion> {
        if self.remaining == 0 {
            self.finish(QueryOutcome::Limit);
        }
        if self.finished.is_some() {
            return None;
        }
        while self.budget.charge() {
            let Some(c) = self.stream.next_item() else {
                break;
            };
            // A budget trip inside the pull means the item may have been
            // released by a half-settled reorder buffer, so emitting it
            // could violate score order. Drop it: emitted items stay a
            // prefix of the unbudgeted enumeration.
            if self.budget.tripped().is_some() {
                break;
            }
            self.generated += 1;
            if self.seen.insert(c.expr) {
                self.emitted += 1;
                self.remaining -= 1;
                // Materialization happens only here, after id dedup —
                // dropped duplicates and never-pulled candidates never
                // build a tree.
                return Some(Completion {
                    expr: self.arena.materialize(c.expr),
                    score: c.score,
                    ty: c.ty,
                });
            }
        }
        let outcome = self.budget.tripped().unwrap_or(QueryOutcome::Exhausted);
        self.finish(outcome);
        None
    }
}

impl Drop for CompletionIter<'_> {
    fn drop(&mut self) {
        // A drop before the stream ended means the caller stopped first
        // (`take(n)`, rank predicate matched, early return).
        self.finish(QueryOutcome::Limit);
        pex_obs::counter!("engine.candidates.generated", self.generated);
        pex_obs::counter!("engine.candidates.emitted", self.emitted);
        // Total enumeration work (heap pops, product combos, pulls) the
        // query charged against its budget — the honest cost metric the
        // per-candidate counters above cannot see.
        pex_obs::counter!("engine.query.steps", self.budget.steps_used());
        self.peak.record(self.arena.len());
        // `self.span` drops after this body, closing the query span last.
        let _ = &self.span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_partial;
    use pex_model::minics::compile;
    use pex_model::{Expr, Local};

    /// A miniature Paint.NET: the paper's running example.
    const PAINT: &str = r#"
        namespace PaintDotNet {
            class Document { int Width; int Height; }
            struct Size { int W; int H; }
            class Pair {
                static PaintDotNet.Pair Create(object a, object b);
            }
        }
        namespace PaintDotNet.Actions {
            enum AnchorEdge { Top, Bottom }
            struct ColorBgra { }
            class CanvasSizeAction {
                static PaintDotNet.Document ResizeDocument(
                    PaintDotNet.Document document,
                    PaintDotNet.Size newSize,
                    PaintDotNet.Actions.AnchorEdge edge,
                    PaintDotNet.Actions.ColorBgra background);
            }
        }
        namespace System.Drawing {
            class SizeOps {
                static bool Equals(PaintDotNet.Size a, object b);
            }
        }
    "#;

    fn setup() -> (Database, Context) {
        let db = compile(PAINT).unwrap();
        let doc = db.types().lookup_qualified("PaintDotNet.Document").unwrap();
        let size = db.types().lookup_qualified("PaintDotNet.Size").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![
                Local {
                    name: "img".into(),
                    ty: doc,
                },
                Local {
                    name: "size".into(),
                    ty: size,
                },
            ],
        );
        (db, ctx)
    }

    #[test]
    fn paper_example_resize_document_ranks_first() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = parse_partial(&db, &ctx, "?({img, size})").unwrap();
        let top = completer.complete(&q, 5);
        assert!(!top.is_empty());
        let first = completer.render(&top[0]);
        assert!(
            first.contains("ResizeDocument(img, size, 0, 0)"),
            "expected ResizeDocument first, got: {:?}",
            top.iter().map(|c| completer.render(c)).collect::<Vec<_>>()
        );
        // Scores are non-decreasing.
        for w in top.windows(2) {
            assert!(w[0].score <= w[1].score);
        }
        // Everything derives from the query.
        for c in &top {
            assert!(
                crate::derives(&db, &ctx, &q, &c.expr),
                "{}",
                completer.render(c)
            );
        }
    }

    #[test]
    fn unknown_call_places_args_in_any_order() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = parse_partial(&db, &ctx, "?({size, img})").unwrap();
        let all: Vec<String> = completer
            .complete(&q, 20)
            .iter()
            .map(|c| completer.render(c))
            .collect();
        assert!(
            all.iter()
                .any(|s| s.contains("ResizeDocument(img, size, 0, 0)")),
            "reordering must find ResizeDocument: {all:?}"
        );
        assert!(all.iter().any(|s| s.contains("Pair.Create")), "{all:?}");
    }

    #[test]
    fn known_call_fills_holes() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = parse_partial(
            &db,
            &ctx,
            "PaintDotNet.Actions.CanvasSizeAction.ResizeDocument(img, ?, 0, 0)",
        )
        .unwrap();
        let top = completer.complete(&q, 5);
        let rendered: Vec<String> = top.iter().map(|c| completer.render(c)).collect();
        assert!(
            rendered[0].contains("ResizeDocument(img, size, 0, 0)"),
            "the Size local should fill the hole first: {rendered:?}"
        );
    }

    #[test]
    fn expected_type_filters_results() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let doc = db.types().lookup_qualified("PaintDotNet.Document").unwrap();
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_options(
            CompleteOptions {
                expected: Some(doc),
                ..Default::default()
            },
        );
        let q = parse_partial(&db, &ctx, "?({img, size})").unwrap();
        for c in completer.complete(&q, 10) {
            let ValueTy::Known(t) = c.ty else {
                panic!("calls have known types")
            };
            assert!(
                db.types().implicitly_convertible(t, doc),
                "{}",
                completer.render(&c)
            );
        }
    }

    #[test]
    fn assignment_completion_is_type_directed() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        // img.?f := size.?f — only int fields match ints.
        let q = parse_partial(&db, &ctx, "img.?f = size.?f").unwrap();
        let all: Vec<Completion> = completer.completions(&q).take(50).collect();
        assert!(!all.is_empty());
        for c in &all {
            assert!(
                crate::derives(&db, &ctx, &q, &c.expr),
                "{}",
                completer.render(c)
            );
            // lhs must end in a field of img; rhs in a field of size.
            let Expr::Assign(l, _) = &c.expr else {
                panic!("assignment expected")
            };
            assert!(matches!(**l, Expr::FieldAccess(..) | Expr::Local(_)));
        }
    }

    /// The paper's Section 3 example: an unknown method whose arguments are
    /// themselves partial — `?({strBuilder.?*m, e.?*m})` should expand to
    /// `Append(strBuilder, e.StackTrace)`.
    #[test]
    fn unknown_call_with_partial_arguments() {
        let db = pex_model::minics::compile(
            r#"
            namespace Sys {
                class StringBuilder {
                    Sys.StringBuilder Append(string text);
                }
                class Exception {
                    string StackTrace;
                    string Message;
                }
            }
            "#,
        )
        .unwrap();
        let sb = db.types().lookup_qualified("Sys.StringBuilder").unwrap();
        let ex = db.types().lookup_qualified("Sys.Exception").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![
                pex_model::Local {
                    name: "strBuilder".into(),
                    ty: sb,
                },
                pex_model::Local {
                    name: "e".into(),
                    ty: ex,
                },
            ],
        );
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = crate::parse_partial(&db, &ctx, "?({strBuilder.?*m, e.?*m})").unwrap();
        let rendered: Vec<String> = completer
            .complete(&q, 10)
            .iter()
            .map(|c| completer.render(c))
            .collect();
        assert!(
            rendered
                .iter()
                .any(|r| r.contains("Append(strBuilder, e.StackTrace)")),
            "paper's expansion must appear: {rendered:?}"
        );
        // Everything still derives from the query.
        for c in completer.complete(&q, 10) {
            assert!(
                crate::derives(&db, &ctx, &q, &c.expr),
                "{}",
                completer.render(&c)
            );
        }
    }

    /// Private members participate only for code inside the declaring type.
    #[test]
    fn private_members_respect_the_enclosing_type() {
        let db = pex_model::minics::compile(
            r#"
            namespace N {
                struct Point { int X; }
                class Widget {
                    private N.Point cachedCenter;
                    N.Point Center;
                }
                class Other { }
            }
            "#,
        )
        .unwrap();
        let widget = db.types().lookup_qualified("N.Widget").unwrap();
        let other = db.types().lookup_qualified("N.Other").unwrap();
        let index = MethodIndex::build(&db);
        let run = |enclosing| {
            let mut ctx = Context::instance(widget, vec![]);
            ctx.enclosing_type = Some(enclosing);
            let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
            let q = crate::parse_partial(&db, &ctx, "this.?f").unwrap();
            let out: Vec<String> = completer
                .complete(&q, 10)
                .iter()
                .map(|c| completer.render(c))
                .collect();
            out
        };
        let inside = run(widget);
        assert!(
            inside.iter().any(|r| r.contains("cachedCenter")),
            "{inside:?}"
        );
        // From another type, `this` is a Widget value handed in, but the
        // private field is invisible.
        let outside = {
            let ctx = Context {
                enclosing_type: Some(other),
                enclosing_method: None,
                has_this: false,
                locals: vec![pex_model::Local {
                    name: "w".into(),
                    ty: widget,
                }],
            };
            let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
            let q = crate::parse_partial(&db, &ctx, "w.?f").unwrap();
            let out: Vec<String> = completer
                .complete(&q, 10)
                .iter()
                .map(|c| completer.render(c))
                .collect();
            out
        };
        assert!(
            !outside.iter().any(|r| r.contains("cachedCenter")),
            "{outside:?}"
        );
        assert!(outside.iter().any(|r| r.contains("Center")), "{outside:?}");
    }

    #[test]
    fn max_depth_bounds_hole_exploration() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let shallow = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_options(
            CompleteOptions {
                max_depth: 1,
                ..Default::default()
            },
        );
        let q = crate::parse_partial(&db, &ctx, "?").unwrap();
        for c in shallow.completions(&q).take(100) {
            // At cap 1, no completion carries more than one lookup link.
            let rendered = shallow.render(&c);
            assert!(
                rendered.matches('.').count() <= 4, // qualified statics have namespace dots
                "{rendered}"
            );
        }
        // The cap changes reach, not correctness: every result still
        // derives from the query.
        for c in shallow.completions(&q).take(50) {
            assert!(crate::derives(&db, &ctx, &q, &c.expr));
        }
    }

    #[test]
    fn explain_reproduces_every_emitted_score() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = crate::parse_partial(&db, &ctx, "?({img, size})").unwrap();
        let (rows, _) = completer.complete_with_outcome(&q, 25);
        assert!(!rows.is_empty());
        for c in &rows {
            let breakdown = completer.explain(c).expect("emitted completions explain");
            assert_eq!(breakdown.total, c.score, "{}", completer.render(c));
            let sum: u32 = breakdown.terms.iter().map(|&(_, v)| v).sum();
            assert_eq!(sum, c.score, "terms sum exactly to the score");
        }
    }

    #[test]
    fn max_steps_bounds_the_iterator_and_reports_step_budget() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let tiny = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_options(
            CompleteOptions {
                budget: QueryBudget {
                    max_steps: 3,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let q = crate::parse_partial(&db, &ctx, "?").unwrap();
        let mut iter = tiny.completions(&q);
        let n = iter.by_ref().count();
        assert!(n <= 3);
        // Regression for the headline bug: running out of steps must be
        // visibly distinct from a drained search space.
        assert_eq!(iter.outcome(), Some(QueryOutcome::StepBudget));
    }

    /// End-to-end regression on a corpus whose `?` query exceeds the step
    /// budget: `complete_with_outcome` and `rank_of` must both surface the
    /// truncation instead of conflating it with exhaustion or "not found".
    #[test]
    fn step_budget_truncation_is_not_reported_as_not_found() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let q = crate::parse_partial(&db, &ctx, "?({img, size})").unwrap();

        // Generous budget: the query drains (call products are finite).
        let full = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let (all, outcome) = full.complete_with_outcome(&q, usize::MAX);
        assert_eq!(outcome, QueryOutcome::Exhausted);
        assert!(!all.is_empty());

        // A budget too small to reach the end: same query, StepBudget.
        let tiny = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_options(
            CompleteOptions {
                budget: QueryBudget {
                    max_steps: 2,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let (trunc, outcome) = tiny.complete_with_outcome(&q, usize::MAX);
        assert_eq!(outcome, QueryOutcome::StepBudget);
        assert!(trunc.len() < all.len());
        // Truncated output is a prefix of the full enumeration.
        assert_eq!(trunc[..], all[..trunc.len()]);

        // rank_of against a predicate that would eventually match reports
        // the degradation rather than a plain "not in top n".
        let miss = tiny.rank_of(&q, 400, |c| {
            matches!(c.expr, Expr::Call(..)) // first call lies past the budget
        });
        if miss.rank.is_none() {
            assert!(miss.is_degraded(), "truncation must be distinguishable");
            assert_eq!(miss.outcome, QueryOutcome::StepBudget);
        }
    }

    #[test]
    fn zero_deadline_reports_deadline_outcome() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_options(
            CompleteOptions {
                budget: QueryBudget {
                    deadline: Some(std::time::Duration::ZERO),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let q = crate::parse_partial(&db, &ctx, "?").unwrap();
        let mut iter = completer.completions(&q);
        assert_eq!(iter.next(), None, "a zero deadline trips before any work");
        assert_eq!(iter.outcome(), Some(QueryOutcome::Deadline));
        let r = completer.rank_of(&q, 100, |_| true);
        assert_eq!(r.rank, None);
        assert_eq!(r.outcome, QueryOutcome::Deadline);
        assert!(r.is_degraded());
    }

    #[test]
    fn cancellation_stops_the_query_with_cancelled_outcome() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let token = CancelToken::new();
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_options(
            CompleteOptions {
                budget: QueryBudget {
                    cancel: Some(token.clone()),
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let q = crate::parse_partial(&db, &ctx, "?").unwrap();
        // Not yet cancelled: the query runs normally.
        assert!(completer.completions(&q).next().is_some());
        token.cancel();
        let mut iter = completer.completions(&q);
        assert_eq!(iter.next(), None);
        assert_eq!(iter.outcome(), Some(QueryOutcome::Cancelled));
    }

    #[test]
    fn outcome_classifies_caller_stops_and_exhaustion() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = crate::parse_partial(&db, &ctx, "img.?f").unwrap();
        // Drained: Exhausted, and only then.
        let mut iter = completer.completions(&q);
        while iter.next().is_some() {}
        assert_eq!(iter.outcome(), Some(QueryOutcome::Exhausted));
        // Caller stops first: Limit.
        let (_few, outcome) = completer.complete_with_outcome(&q, 1);
        assert_eq!(outcome, QueryOutcome::Limit);
        // A found rank is a Limit stop too.
        let hit = completer.rank_of(&q, 50, |_| true);
        assert_eq!(hit.rank, Some(0));
        assert_eq!(hit.outcome, QueryOutcome::Limit);
        assert!(!hit.is_degraded());
    }

    #[test]
    fn hole_enumerates_locals_first() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = parse_partial(&db, &ctx, "?").unwrap();
        let top: Vec<String> = completer
            .complete(&q, 2)
            .iter()
            .map(|c| completer.render(c))
            .collect();
        assert!(top.contains(&"img".to_string()));
        assert!(top.contains(&"size".to_string()));
    }

    /// Row-for-row agreement of the exhaustive and best-first paths at the
    /// shallow depths where pruning has the least room to hide: depth 0
    /// (roots only) and depth 1.
    #[test]
    fn depth_0_and_1_rows_agree_between_exhaustive_and_bestfirst() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let reach = ReachIndex::build(&db);
        let doc = db.types().lookup_qualified("PaintDotNet.Document").unwrap();
        for depth in [0usize, 1] {
            for expected in [None, Some(doc)] {
                for query in ["?", "img.?*f", "size.?f"] {
                    let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None)
                        .with_options(CompleteOptions {
                            expected,
                            max_depth: depth,
                            ..Default::default()
                        })
                        .with_reach(&reach);
                    let q = parse_partial(&db, &ctx, query).unwrap();
                    let exhaustive: Vec<Completion> = completer.completions(&q).take(10).collect();
                    let (bestfirst, _) = completer.complete_with_outcome(&q, 10);
                    assert_eq!(
                        exhaustive, bestfirst,
                        "depth {depth} expected {expected:?} query {query}"
                    );
                }
            }
        }
    }

    #[test]
    fn max_depth_beyond_limit_errors_cleanly() {
        let too_deep = MAX_DEPTH_LIMIT + 1;
        let err = CompleteOptions::default()
            .with_max_depth(too_deep)
            .unwrap_err();
        assert_eq!(
            err,
            InvalidMaxDepth {
                requested: too_deep,
                limit: MAX_DEPTH_LIMIT,
            }
        );
        assert!(err.to_string().contains("exceeds the engine limit"));
        // Every depth up to the limit is accepted.
        for d in 0..=MAX_DEPTH_LIMIT {
            assert_eq!(
                CompleteOptions::default()
                    .with_max_depth(d)
                    .unwrap()
                    .max_depth,
                d
            );
        }
        // A raw out-of-range field write is clamped inside the search, not
        // a panic: the query still runs and at most `MAX_DEPTH_LIMIT`
        // links are appended.
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_options(
            CompleteOptions {
                max_depth: 1000,
                ..Default::default()
            },
        );
        let q = parse_partial(&db, &ctx, "img.?*f").unwrap();
        let (rows, outcome) = completer.complete_with_outcome(&q, 5);
        assert!(!rows.is_empty());
        assert!(!outcome.is_degraded() || outcome == QueryOutcome::StepBudget);
    }

    /// The best-first iterator refuses to enumerate past its `k` target —
    /// the contract that makes threshold/dominance pruning sound — and
    /// classifies the stop as a `Limit`.
    #[test]
    fn bestfirst_stops_hard_at_k_and_reports_limit() {
        let (db, ctx) = setup();
        let index = MethodIndex::build(&db);
        let completer = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = parse_partial(&db, &ctx, "?").unwrap();
        let mut iter = completer.completions_bestfirst(&q, 3);
        assert_eq!(iter.by_ref().count(), 3);
        assert_eq!(iter.next(), None, "the stop is sticky");
        assert_eq!(iter.outcome(), Some(QueryOutcome::Limit));
    }
}
