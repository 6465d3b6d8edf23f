//! Lazy, score-ordered completion streams.
//!
//! Algorithm 1 in the paper is a generator that yields completions in
//! non-decreasing score order, built from the completions of subexpressions.
//! This module provides the combinators that implement it:
//!
//! * [`VecStream`] — a finite, pre-scored set;
//! * [`MergeStream`] — *k*-way merge of streams;
//! * [`ProductStream`] — "all choices of exactly one completion for each
//!   subexpression" in score-sum order (the inner `foreach` of Algorithm 1);
//! * [`ExpandStream`] — the paper's "compute completions not in score order"
//!   optimisation: expand each choice into candidate completions (whose
//!   scores may exceed the choice's), buffer them, and release an item only
//!   once no cheaper choice remains.
//!
//! Every stream exposes a **lower bound** on its next item's score; bounds
//! are what make the composition safe.
//!
//! Every combinator carries interned [`ExprId`]s ([`Scored`]), where
//! copying an item moves a `u32` id instead of cloning a tree.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};

use pex_model::{ExprId, ValueTy};

use super::budget::Budget;

/// A scored completion over an interned arena id — the enumeration form:
/// the expression (possibly containing `0` holes), its ranking score, and
/// its static type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Scored {
    /// The completed expression.
    pub expr: ExprId,
    /// The ranking score (lower is better).
    pub score: u32,
    /// Static type of the expression.
    pub ty: ValueTy,
}

/// A lazily evaluated stream of completions in non-decreasing score order.
pub(crate) trait ScoredStream {
    /// A lower bound on the score of the next item; `None` when exhausted.
    fn bound(&mut self) -> Option<u32>;
    /// The next completion.
    fn next_item(&mut self) -> Option<Scored>;
}

/// A finite stream over a pre-computed set (sorted at construction).
pub(crate) struct VecStream {
    // Stored in descending score order so `pop` yields the cheapest. The
    // sort is stable, so among equal scores the *last-constructed* item
    // emits first: tie order follows construction order.
    items: Vec<Scored>,
}

impl VecStream {
    pub(crate) fn new(mut items: Vec<Scored>) -> Self {
        items.sort_by_key(|c| std::cmp::Reverse(c.score));
        VecStream { items }
    }

    pub(crate) fn empty() -> Self {
        VecStream { items: Vec::new() }
    }
}

impl ScoredStream for VecStream {
    fn bound(&mut self) -> Option<u32> {
        self.items.last().map(|c| c.score)
    }

    fn next_item(&mut self) -> Option<Scored> {
        self.items.pop()
    }
}

/// A cursor over a borrowed pre-sorted slice (descending score order, the
/// same layout as [`VecStream`]): replays a memoized completion set
/// without copying it up front. Items are copied lazily as consumed, so a
/// top-k consumer that stops after a few roots never touches the rest.
pub(crate) struct SliceStream<'a> {
    items: &'a [Scored],
    /// Next emission index + 1, counting down (the cheapest item is last).
    pos: usize,
}

impl<'a> SliceStream<'a> {
    pub(crate) fn new(items: &'a [Scored]) -> Self {
        debug_assert!(items.windows(2).all(|w| w[0].score >= w[1].score));
        SliceStream {
            items,
            pos: items.len(),
        }
    }
}

impl<'a> ScoredStream for SliceStream<'a> {
    fn bound(&mut self) -> Option<u32> {
        self.pos.checked_sub(1).map(|i| self.items[i].score)
    }

    fn next_item(&mut self) -> Option<Scored> {
        self.pos = self.pos.checked_sub(1)?;
        Some(self.items[self.pos])
    }
}

/// K-way merge of streams. Used for [`super::super::PartialExpr::Alt`]
/// queries, whose completions are the union of their alternatives'.
///
/// A stream's bound is only a lower bound on its next score (a reorder
/// buffer's pending combos may expand to dearer items), so each stream's
/// next item is pulled into a head slot first and released only once its
/// exact score is no higher than every other stream's key: its pulled
/// head's score, or else its bound.
pub(crate) struct MergeStream<'a> {
    streams: Vec<Box<dyn ScoredStream + 'a>>,
    heads: Vec<Head>,
}

enum Head {
    Unpulled,
    Pulled(Scored),
    Done,
}

impl<'a> MergeStream<'a> {
    pub(crate) fn new(streams: Vec<Box<dyn ScoredStream + 'a>>) -> Self {
        let heads = streams.iter().map(|_| Head::Unpulled).collect();
        MergeStream { streams, heads }
    }

    /// The lowest key and the first stream holding it.
    fn min_key(&mut self) -> Option<(usize, u32)> {
        let mut best: Option<(usize, u32)> = None;
        for (i, (stream, head)) in self.streams.iter_mut().zip(&self.heads).enumerate() {
            let key = match head {
                Head::Unpulled => stream.bound(),
                Head::Pulled(item) => Some(item.score),
                Head::Done => None,
            };
            if let Some(k) = key {
                if best.is_none_or(|(_, b)| k < b) {
                    best = Some((i, k));
                }
            }
        }
        best
    }
}

impl<'a> ScoredStream for MergeStream<'a> {
    fn bound(&mut self) -> Option<u32> {
        self.min_key().map(|(_, k)| k)
    }

    fn next_item(&mut self) -> Option<Scored> {
        loop {
            let (i, _) = self.min_key()?;
            match std::mem::replace(&mut self.heads[i], Head::Unpulled) {
                Head::Pulled(item) => return Some(item),
                _ => {
                    self.heads[i] = match self.streams[i].next_item() {
                        Some(item) => Head::Pulled(item),
                        None => Head::Done,
                    }
                }
            }
        }
    }
}

/// A stream materialised on demand, with random access to already-pulled
/// items (the cache the product search indexes into).
struct CachedStream<'a> {
    inner: Box<dyn ScoredStream + 'a>,
    cache: Vec<Scored>,
    exhausted: bool,
}

impl<'a> CachedStream<'a> {
    fn new(inner: Box<dyn ScoredStream + 'a>) -> Self {
        CachedStream {
            inner,
            cache: Vec::new(),
            exhausted: false,
        }
    }

    /// Ensures item `i` is materialised; returns it if the stream is long
    /// enough.
    fn get(&mut self, i: usize) -> Option<&Scored> {
        while self.cache.len() <= i && !self.exhausted {
            match self.inner.next_item() {
                Some(c) => self.cache.push(c),
                None => self.exhausted = true,
            }
        }
        self.cache.get(i)
    }
}

/// One element of the product: a choice of completion per subexpression.
#[derive(Debug, Clone)]
pub(crate) struct Combo {
    /// Sum of the chosen completions' scores.
    pub score: u32,
    /// The chosen completion for each subexpression, in order.
    pub items: Vec<Scored>,
}

/// Enumerates choices of one completion per subexpression in score-sum
/// order, i.e. the sorted product of sorted streams (frontier search).
pub(crate) struct ProductStream<'a> {
    args: Vec<CachedStream<'a>>,
    heap: BinaryHeap<Reverse<(u32, Vec<u32>)>>,
    seen: HashSet<Vec<u32>>,
    started: bool,
    /// The query's shared resource meter: one charge per frontier combo,
    /// so large products cannot burn unbounded work inside one settle.
    budget: Budget,
}

impl<'a> ProductStream<'a> {
    pub(crate) fn new(args: Vec<Box<dyn ScoredStream + 'a>>, budget: Budget) -> Self {
        ProductStream {
            args: args.into_iter().map(CachedStream::new).collect(),
            heap: BinaryHeap::new(),
            seen: HashSet::new(),
            started: false,
            budget,
        }
    }

    fn push_state(&mut self, idx: Vec<u32>) {
        if self.seen.contains(&idx) {
            return;
        }
        let mut score = 0u32;
        for (i, &j) in idx.iter().enumerate() {
            match self.args[i].get(j as usize) {
                Some(c) => score += c.score,
                None => return, // stream too short; state unreachable
            }
        }
        self.seen.insert(idx.clone());
        self.heap.push(Reverse((score, idx)));
        pex_obs::gauge_max!("engine.product.heap.max", self.heap.len() as u64);
    }

    fn start(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let idx = vec![0u32; self.args.len()];
        self.push_state(idx);
    }

    /// Lower bound on the next combo's score.
    pub(crate) fn bound(&mut self) -> Option<u32> {
        self.start();
        self.heap.peek().map(|Reverse((s, _))| *s)
    }

    /// The next cheapest combo.
    pub(crate) fn next_combo(&mut self) -> Option<Combo> {
        if !self.budget.charge() {
            return None;
        }
        self.start();
        let Reverse((score, idx)) = self.heap.pop()?;
        // Successors: bump each coordinate by one.
        for i in 0..idx.len() {
            let mut succ = idx.clone();
            succ[i] += 1;
            self.push_state(succ);
        }
        let items: Vec<Scored> = idx
            .iter()
            .enumerate()
            .map(|(i, &j)| self.args[i].cache[j as usize])
            .collect();
        Some(Combo { score, items })
    }
}

/// The reorder buffer: expands combos into candidate completions whose
/// scores are **at least** the combo's score (extras are non-negative), and
/// releases a completion only when no unexpanded combo could beat it.
pub(crate) struct ExpandStream<'a, F>
where
    F: FnMut(&Combo) -> Vec<Scored>,
{
    source: ProductStream<'a>,
    expand: F,
    buffer: BinaryHeap<Reverse<BufItem>>,
    counter: u64,
}

#[derive(Debug, Clone)]
struct BufItem {
    score: u32,
    seq: u64,
    completion: Scored,
}

impl PartialEq for BufItem {
    fn eq(&self, other: &Self) -> bool {
        (self.score, self.seq) == (other.score, other.seq)
    }
}

impl Eq for BufItem {}

impl Ord for BufItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.score, self.seq).cmp(&(other.score, other.seq))
    }
}

impl PartialOrd for BufItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<'a, F> ExpandStream<'a, F>
where
    F: FnMut(&Combo) -> Vec<Scored>,
{
    pub(crate) fn new(source: ProductStream<'a>, expand: F) -> Self {
        ExpandStream {
            source,
            expand,
            buffer: BinaryHeap::new(),
            counter: 0,
        }
    }

    /// Pulls combos until the cheapest buffered completion is safe to emit.
    fn settle(&mut self) {
        loop {
            let buffered = self.buffer.peek().map(|Reverse(b)| b.score);
            let pending = self.source.bound();
            match (buffered, pending) {
                (Some(b), Some(p)) if b <= p => return,
                (_, None) => return,
                _ => {
                    let Some(combo) = self.source.next_combo() else {
                        return;
                    };
                    for completion in (self.expand)(&combo) {
                        debug_assert!(
                            completion.score >= combo.score,
                            "expansion must not lower scores"
                        );
                        self.counter += 1;
                        self.buffer.push(Reverse(BufItem {
                            score: completion.score,
                            seq: self.counter,
                            completion,
                        }));
                    }
                    pex_obs::gauge_max!("engine.expand.buffer.max", self.buffer.len() as u64);
                }
            }
        }
    }
}

impl<'a, F> ScoredStream for ExpandStream<'a, F>
where
    F: FnMut(&Combo) -> Vec<Scored>,
{
    fn bound(&mut self) -> Option<u32> {
        let buffered = self.buffer.peek().map(|Reverse(b)| b.score);
        let pending = self.source.bound();
        match (buffered, pending) {
            (Some(b), Some(p)) => Some(b.min(p)),
            (Some(b), None) => Some(b),
            (None, Some(p)) => Some(p),
            (None, None) => None,
        }
    }

    fn next_item(&mut self) -> Option<Scored> {
        loop {
            self.settle();
            match self.buffer.pop() {
                Some(Reverse(item)) => return Some(item.completion),
                None => {
                    // Buffer empty; if the source still has combos they all
                    // expanded to nothing — keep draining.
                    self.source.next_combo()?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(score: u32) -> Scored {
        Scored {
            expr: ExprId(score),
            score,
            ty: ValueTy::Wildcard,
        }
    }

    fn drain(mut s: impl ScoredStream) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(item) = s.next_item() {
            out.push(item.score);
        }
        out
    }

    #[test]
    fn vec_stream_sorts() {
        let s = VecStream::new(vec![c(3), c(1), c(2)]);
        assert_eq!(drain(s), vec![1, 2, 3]);
    }

    #[test]
    fn merge_interleaves_by_score() {
        let a = Box::new(VecStream::new(vec![c(0), c(4)]));
        let b = Box::new(VecStream::new(vec![c(1), c(2), c(9)]));
        let m = MergeStream::new(vec![a, b]);
        assert_eq!(drain(m), vec![0, 1, 2, 4, 9]);
    }

    /// A reorder buffer's bound is the score of its cheapest pending combo,
    /// which may expand to a dearer item; the merge must not release that
    /// item ahead of a cheaper one from another stream.
    #[test]
    fn merge_orders_by_score_not_by_inexact_bounds() {
        let a: Box<dyn ScoredStream> = Box::new(VecStream::new(vec![c(0)]));
        let dear = ExpandStream::new(ProductStream::new(vec![a], Budget::unlimited()), |combo| {
            vec![Scored {
                score: combo.score + 5,
                ..c(0)
            }]
        });
        let cheap = Box::new(VecStream::new(vec![c(1), c(9)]));
        let m = MergeStream::new(vec![Box::new(dear), cheap]);
        assert_eq!(drain(m), vec![1, 5, 9]);
    }

    #[test]
    fn product_enumerates_in_sum_order() {
        let a: Box<dyn ScoredStream> = Box::new(VecStream::new(vec![c(0), c(2)]));
        let b: Box<dyn ScoredStream> = Box::new(VecStream::new(vec![c(0), c(5)]));
        let mut p = ProductStream::new(vec![a, b], Budget::unlimited());
        let mut sums = Vec::new();
        while let Some(combo) = p.next_combo() {
            assert_eq!(
                combo.items.iter().map(|i| i.score).sum::<u32>(),
                combo.score
            );
            sums.push(combo.score);
        }
        assert_eq!(sums, vec![0, 2, 5, 7]);
    }

    #[test]
    fn product_of_empty_stream_is_empty() {
        let a: Box<dyn ScoredStream> = Box::new(VecStream::new(vec![c(0)]));
        let b: Box<dyn ScoredStream> = Box::new(VecStream::empty());
        let mut p = ProductStream::new(vec![a, b], Budget::unlimited());
        assert!(p.next_combo().is_none());
        assert_eq!(p.bound(), None);
    }

    #[test]
    fn product_of_zero_args_yields_one_empty_combo() {
        let mut p: ProductStream<'_> = ProductStream::new(vec![], Budget::unlimited());
        let combo = p.next_combo().unwrap();
        assert_eq!(combo.score, 0);
        assert!(combo.items.is_empty());
        assert!(p.next_combo().is_none());
    }

    #[test]
    fn expand_reorders_buffered_items() {
        // Combos score 0 and 1; expansion adds +0 or +10. The item at
        // score 1 (from combo 1) must come out before score 10 (combo 0).
        let a: Box<dyn ScoredStream> = Box::new(VecStream::new(vec![c(0), c(1)]));
        let p = ProductStream::new(vec![a], Budget::unlimited());
        let s = ExpandStream::new(p, |combo| {
            vec![
                Scored {
                    score: combo.score + 10,
                    ..c(0)
                },
                Scored {
                    score: combo.score,
                    ..c(0)
                },
            ]
        });
        assert_eq!(drain(s), vec![0, 1, 10, 11]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn boxed(scores: Vec<u32>) -> Box<dyn ScoredStream + 'static> {
            Box::new(VecStream::new(scores.into_iter().map(c).collect()))
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The frontier product enumerates exactly the cross-product of
            /// its inputs, in non-decreasing score-sum order.
            #[test]
            fn product_matches_brute_force(
                lists in proptest::collection::vec(
                    proptest::collection::vec(0u32..12, 1..5),
                    1..4,
                )
            ) {
                let streams: Vec<Box<dyn ScoredStream>> =
                    lists.iter().cloned().map(boxed).collect();
                let mut product = ProductStream::new(streams, Budget::unlimited());
                let mut got = Vec::new();
                while let Some(combo) = product.next_combo() {
                    prop_assert_eq!(
                        combo.items.iter().map(|i| i.score).sum::<u32>(),
                        combo.score
                    );
                    got.push(combo.score);
                }
                // Non-decreasing order.
                for w in got.windows(2) {
                    prop_assert!(w[0] <= w[1]);
                }
                // Brute force: every choice of one element per list.
                let mut expected = vec![0u32];
                for list in &lists {
                    let mut next = Vec::new();
                    for base in &expected {
                        for v in list {
                            next.push(base + v);
                        }
                    }
                    expected = next;
                }
                expected.sort_unstable();
                prop_assert_eq!(got, expected);
            }

            /// The reorder buffer emits every expansion exactly once, in
            /// non-decreasing score order, for any non-negative per-item
            /// surcharges.
            #[test]
            fn expand_emits_everything_in_order(
                scores in proptest::collection::vec(0u32..10, 1..6),
                extras in proptest::collection::vec(
                    proptest::collection::vec(0u32..7, 0..4),
                    1..6,
                )
            ) {
                let n = scores.len();
                let extras_for = move |score: u32| -> Vec<u32> {
                    extras.get(score as usize % extras.len()).cloned().unwrap_or_default()
                };
                let expected: Vec<u32> = {
                    let mut v: Vec<u32> = scores
                        .iter()
                        .flat_map(|s| extras_for(*s).into_iter().map(move |e| s + e))
                        .collect();
                    v.sort_unstable();
                    v
                };
                let product = ProductStream::new(vec![boxed(scores)], Budget::unlimited());
                let mut stream = ExpandStream::new(product, move |combo: &Combo| {
                    extras_for(combo.score)
                        .into_iter()
                        .map(|e| Scored {
                            score: combo.score + e,
                            expr: ExprId(0),
                            ty: ValueTy::Wildcard,
                        })
                        .collect()
                });
                let mut got = Vec::new();
                while let Some(item) = stream.next_item() {
                    got.push(item.score);
                }
                prop_assert_eq!(got, expected);
                let _ = n;
            }
        }
    }

    #[test]
    fn expand_skips_empty_expansions() {
        let a: Box<dyn ScoredStream> = Box::new(VecStream::new(vec![c(0), c(1), c(2)]));
        let p = ProductStream::new(vec![a], Budget::unlimited());
        let s = ExpandStream::new(p, |combo| {
            if combo.score == 1 {
                vec![Scored { score: 1, ..c(0) }]
            } else {
                vec![]
            }
        });
        assert_eq!(drain(s), vec![1]);
    }
}
