//! The memoized type-relation cache (paper Section 4.2, "grouping
//! computations by type").
//!
//! [`ConversionIndex`] precomputes, for every type in a [`TypeTable`], the
//! full conversion-target list (every `u` with `td(t, u)` defined, sorted
//! by distance) plus one bit per (type, target) pair. The engine's hot
//! paths — candidate collection, chain expansion, call filtering, and the
//! ranker's distance terms — all reduce to these two lookups, so caching
//! them removes the per-query BFS and its allocations.
//!
//! The index is built by dynamic programming over the (acyclic) conversion
//! graph, supertypes first: `targets(t) = {(t, 0)} ∪ widenings(t) ∪
//! min-merge over immediate supertypes s of {(u, d+1) : (u, d) ∈
//! targets(s)}`. This is intentionally a *different* algorithm from the
//! per-query BFS in [`TypeTable::type_distance_bfs`], which is kept as the
//! reference oracle: property tests assert the two agree on random
//! hierarchies.
//!
//! Freshness is structural: the index lives in a `OnceLock` inside
//! [`TypeTable`] and every hierarchy mutator (`declare_*`, `set_base`,
//! `add_interface_impl`) takes `&mut self` and clears it, so a stale index
//! cannot be observed.

use crate::rows::RowTable;
use crate::wire::{check_id, row_u32, Reader, WireError, WireResult, Writer};
use crate::{PrimKind, TypeId, TypeKind, TypeTable};

/// Precomputed conversion relations for every type of one [`TypeTable`]
/// snapshot. Obtain through [`TypeTable::conversion_index`].
///
/// Three heap blocks whatever the type count: the rows back to back under
/// one offset table, and one flat bitset.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConversionIndex {
    /// Per type: conversion targets sorted by `(distance, id)` — exactly
    /// the order [`TypeTable::conversion_targets_bfs`] produces. A row is
    /// the type's ancestors plus its widenings: a handful of entries.
    rows: RowTable<(TypeId, u32)>,
    /// Per type, `len().div_ceil(64)` words: one bit per table type, set
    /// when a conversion to that type exists — the memoized *negative*
    /// answer. Most hot-path distance queries ask about unconvertible
    /// pairs (every argument type against every parameter type), so "no
    /// conversion" must be as cheap as "yes": one bit probe, no row scan.
    convertible: Vec<u64>,
}

impl ConversionIndex {
    /// Builds the index for the table's current hierarchy.
    pub fn build(table: &TypeTable) -> Self {
        pex_obs::counter!("convindex.builds", 1);
        Self::compute(table, None).0
    }

    /// Rebuilds the index after an incremental hierarchy edit, reusing
    /// every row of `old` whose conversion closure avoids the dirty set.
    ///
    /// A row can only change when its old target list contains a dirty
    /// type: edge changes happen only *at* dirty types, a type is its own
    /// distance-0 target, and any ancestor whose edges changed is in the
    /// old list. A type whose new closure gains a dirty member must have
    /// an old-closure member that changed edges — itself dirty and in the
    /// old list. Types the old index never covered (freshly declared) are
    /// always recomputed. Returns the index and the recomputed row count.
    pub fn rebuild_partial(
        table: &TypeTable,
        old: &ConversionIndex,
        dirty: &[TypeId],
    ) -> (Self, usize) {
        pex_obs::counter!("convindex.partial_rebuilds", 1);
        let n = table.len();
        let mut is_dirty = vec![false; n];
        for &d in dirty {
            is_dirty[d.index()] = true;
        }
        let reusable: Vec<bool> = (0..n)
            .map(|t| t < old.len() && !old.rows.row(t).iter().any(|&(u, _)| is_dirty[u.index()]))
            .collect();
        Self::compute(table, Some((old, &reusable)))
    }

    /// The index for `table`, copying the rows `reuse` marks from `old`;
    /// also returns the number of rows computed afresh.
    ///
    /// Two passes over the types, supertypes first: the first unions each
    /// type's conversion set into its bitset row, whose population counts
    /// size the rows exactly; the second fills each row from its
    /// supertypes' finished rows, keeping the least distance per target.
    fn compute(table: &TypeTable, reuse: Option<(&ConversionIndex, &[bool])>) -> (Self, usize) {
        let n = table.len();
        let words = n.div_ceil(64);
        let order = table
            .supertypes_first()
            .expect("the mutators and the decoder keep the hierarchy acyclic");
        let reused = |t: TypeId| {
            reuse
                .filter(|(_, marks)| marks[t.index()])
                .map(|(old, _)| old)
        };
        let void = |t: TypeId| matches!(table.get(t).kind(), TypeKind::Void);
        let widenings = |t: TypeId| {
            let from = table.get(t).prim_kind();
            PrimKind::ALL
                .into_iter()
                .filter(move |&p| from.is_some_and(|f| f.widens_to(p)))
                .map(|p| table.prim(p))
        };

        let mut bits = vec![0u64; n * words];
        let mut fresh = 0;
        for &t in &order {
            let at = t.index() * words;
            if let Some(old) = reused(t) {
                bits[at..at + old.words()].copy_from_slice(old.bit_row(t));
                continue;
            }
            fresh += 1;
            for u in std::iter::once(t).chain(widenings(t)) {
                bits[at + u.index() / 64] |= 1 << (u.index() % 64);
            }
            if !void(t) {
                for s in table.immediate_supertypes(t) {
                    for w in 0..words {
                        let from = bits[s.index() * words + w];
                        bits[at + w] |= from;
                    }
                }
            }
        }

        let mut starts = Vec::with_capacity(n + 1);
        starts.push(0u32);
        for row in bits.chunks_exact(words.max(1)).take(n) {
            let len: u32 = row.iter().map(|w| w.count_ones()).sum();
            starts.push(starts.last().copied().unwrap_or(0) + len);
        }
        let span = |t: TypeId| starts[t.index()] as usize..starts[t.index() + 1] as usize;
        let mut items = vec![(TypeId(0), 0u32); starts[n] as usize];
        // Each target's least distance so far; `u32::MAX` when unseen.
        let mut best = vec![u32::MAX; n];
        for &t in &order {
            let row = span(t);
            if let Some(old) = reused(t) {
                items[row].copy_from_slice(old.targets(t));
                continue;
            }
            let mut end = row.start;
            let mut offer = |items: &mut [(TypeId, u32)], u: TypeId, d: u32| {
                let b = &mut best[u.index()];
                if *b == u32::MAX {
                    items[end] = (u, d);
                    end += 1;
                }
                *b = (*b).min(d);
            };
            offer(&mut items, t, 0);
            for u in widenings(t) {
                offer(&mut items, u, 1);
            }
            if !void(t) {
                for s in table.immediate_supertypes(t) {
                    for i in span(s) {
                        let (u, d) = items[i];
                        offer(&mut items, u, d + 1);
                    }
                }
            }
            assert_eq!(end, row.end, "a row fills the span its bit row sized");
            let targets = &mut items[row];
            for e in targets.iter_mut() {
                e.1 = std::mem::replace(&mut best[e.0.index()], u32::MAX);
            }
            targets.sort_unstable_by_key(|&(ty, d)| (d, ty));
        }
        let index = ConversionIndex {
            rows: RowTable::from_parts(starts, items),
            convertible: bits,
        };
        (index, fresh)
    }

    /// Bitset words per type.
    fn words(&self) -> usize {
        self.len().div_ceil(64)
    }

    /// The bitset row of `t`.
    fn bit_row(&self, t: TypeId) -> &[u64] {
        let words = self.words();
        &self.convertible[t.index() * words..][..words]
    }

    /// Serializes the index for the persistent snapshot. Only the
    /// `(distance, id)`-ordered target lists are written; the
    /// convertibility bitset is a deterministic derivation and is rebuilt
    /// on decode.
    pub fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for t in 0..self.len() {
            let row = self.rows.row(t);
            w.put_len(row.len());
            for &(ty, d) in row {
                w.put_u32(ty.0);
                w.put_u32(d);
            }
        }
    }

    /// Decodes an index written by [`ConversionIndex::encode`] for a table
    /// of `n_types` types, bounds-checking every type id, refusing a row
    /// that lists a type twice, and rebuilding the bitset exactly as
    /// [`ConversionIndex::build`] does.
    pub fn decode(r: &mut Reader<'_>, n_types: usize) -> WireResult<Self> {
        let n = r.get_len("conversion index type count")?;
        if n != n_types {
            return Err(WireError::new(format!(
                "conversion index covers {n} types but the table holds {n_types}"
            )));
        }
        let mut file_rows = Vec::with_capacity(n);
        let mut total = 0;
        for _ in 0..n {
            let rows: &[[u8; 8]] = r.get_rows("conversion targets")?;
            total += rows.len();
            file_rows.push(rows);
        }
        let words = n.div_ceil(64);
        let mut convertible = vec![0u64; n * words];
        let mut rows = RowTable::with_capacity(n, total);
        for (t, file_row) in file_rows.into_iter().enumerate() {
            for entry in file_row {
                let ty = check_id(row_u32(entry, 0), n_types, "conversion target type id")?;
                let (word, bit) = (&mut convertible[t * words + ty / 64], 1 << (ty % 64));
                if *word & bit != 0 {
                    return Err(WireError::new(format!(
                        "conversion targets of type {t} list type {ty} twice"
                    )));
                }
                *word |= bit;
                rows.push((TypeId(ty as u32), row_u32(entry, 1)));
            }
            rows.close_row();
        }
        Ok(ConversionIndex { rows, convertible })
    }

    /// The cached `td(from, to)`.
    ///
    /// Negative answers are memoized in the `convertible` bitset, so a pair
    /// with no conversion costs one bit probe — counted under
    /// `convindex.distance.negative`, not as a cache miss. A positive one
    /// scans `from`'s row.
    pub fn distance(&self, from: TypeId, to: TypeId) -> Option<u32> {
        pex_obs::counter!("convindex.distance.lookups", 1);
        let (word, bit) = (to.index() / 64, to.index() % 64);
        if self
            .bit_row(from)
            .get(word)
            .is_none_or(|w| w & (1u64 << bit) == 0)
        {
            pex_obs::counter!("convindex.distance.negative", 1);
            return None;
        }
        match self.targets(from).iter().find(|&&(t, _)| t == to) {
            Some(&(_, d)) => {
                pex_obs::histogram!("convindex.distance", d);
                Some(d)
            }
            // Unreachable when the bitset and the rows agree; kept as a
            // counted fallthrough rather than a panic.
            None => {
                pex_obs::counter!("convindex.distance.misses", 1);
                None
            }
        }
    }

    /// The cached conversion-target list of `from`, sorted by
    /// `(distance, id)` — identical to
    /// [`TypeTable::conversion_targets_bfs`].
    pub fn targets(&self, from: TypeId) -> &[(TypeId, u32)] {
        self.rows.row(from.index())
    }

    /// Number of types covered (the table length at build time).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the index covers no types (never true for a real table).
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use crate::{NamespaceId, PrimKind, TypeTable};

    /// Diamond: D -> B -> A, D -> C -> A, interfaces on two corners.
    fn diamond() -> TypeTable {
        let mut t = TypeTable::new();
        let ns = NamespaceId::GLOBAL;
        let a = t.declare_class(ns, "A").unwrap();
        let b = t.declare_class(ns, "B").unwrap();
        let c = t.declare_interface(ns, "C").unwrap();
        let d = t.declare_class(ns, "D").unwrap();
        t.set_base(b, a).unwrap();
        t.set_base(d, b).unwrap();
        t.add_interface_impl(d, c).unwrap();
        t
    }

    #[test]
    fn index_matches_bfs_oracle_on_all_pairs() {
        let t = diamond();
        let index = t.conversion_index();
        for from in t.iter() {
            assert_eq!(
                index.targets(from),
                t.conversion_targets_bfs(from).as_slice(),
                "target list mismatch for {from:?}"
            );
            for to in t.iter() {
                assert_eq!(
                    index.distance(from, to),
                    t.type_distance_bfs(from, to),
                    "distance mismatch for {from:?} -> {to:?}"
                );
            }
        }
    }

    /// The negative-answer bitset must partition pairs exactly like the
    /// target lists: `distance` is `Some` iff `to` appears in
    /// `targets(from)`.
    #[test]
    fn negative_memo_agrees_with_target_lists() {
        let t = diamond();
        let index = t.conversion_index();
        for from in t.iter() {
            for to in t.iter() {
                let in_targets = index.targets(from).iter().any(|&(u, _)| u == to);
                assert_eq!(
                    index.distance(from, to).is_some(),
                    in_targets,
                    "bitset and target list disagree for {from:?} -> {to:?}"
                );
            }
        }
    }

    #[test]
    fn index_covers_primitive_widenings() {
        let t = TypeTable::new();
        let index = t.conversion_index();
        assert_eq!(index.distance(t.int_ty(), t.double_ty()), Some(1));
        assert_eq!(index.distance(t.double_ty(), t.int_ty()), None);
        assert_eq!(index.distance(t.int_ty(), t.object()), Some(1));
        assert_eq!(index.distance(t.void_ty(), t.object()), None);
        assert_eq!(index.targets(t.void_ty()), &[(t.void_ty(), 0)]);
        assert!(!index.is_empty());
        assert_eq!(index.len(), t.len());
    }

    #[test]
    fn mutators_invalidate_the_cache() {
        let mut t = TypeTable::new();
        let ns = NamespaceId::GLOBAL;
        let a = t.declare_class(ns, "A").unwrap();
        let b = t.declare_class(ns, "B").unwrap();
        // Prime the cache, then change the hierarchy.
        assert_eq!(t.type_distance(b, a), None);
        t.set_base(b, a).unwrap();
        assert_eq!(t.type_distance(b, a), Some(1));
        // New types appear in the rebuilt index.
        let c = t.declare_class(ns, "C").unwrap();
        assert_eq!(t.type_distance(c, t.object()), Some(1));
        // Interface edges invalidate too.
        let i = t.declare_interface(ns, "I").unwrap();
        assert_eq!(t.type_distance(a, i), None);
        t.add_interface_impl(a, i).unwrap();
        assert_eq!(t.type_distance(a, i), Some(1));
        assert_eq!(t.type_distance(b, i), Some(2));
    }

    #[test]
    fn cache_survives_clone() {
        let mut t = TypeTable::new();
        let ns = NamespaceId::GLOBAL;
        let a = t.declare_class(ns, "A").unwrap();
        let _ = t.conversion_index();
        let mut copy = t.clone();
        let b = copy.declare_class(ns, "B").unwrap();
        copy.set_base(b, a).unwrap();
        assert_eq!(copy.type_distance(b, a), Some(1));
        assert_eq!(t.type_distance(a, t.object()), Some(1));
        assert_eq!(PrimKind::ALL.len(), 14);
    }
}
