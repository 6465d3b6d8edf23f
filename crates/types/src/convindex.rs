//! The memoized type-relation cache (paper Section 4.2, "grouping
//! computations by type").
//!
//! [`ConversionIndex`] precomputes, for every type in a [`TypeTable`], the
//! full conversion-target list (every `u` with `td(t, u)` defined, sorted
//! by distance) plus an id-sorted copy for fast distance lookup. The
//! engine's hot paths — candidate collection, chain expansion, call
//! filtering, and the ranker's distance terms — all reduce to these two
//! lookups, so caching them removes the per-query BFS and its allocations.
//!
//! The index is built by dynamic programming over the (acyclic) conversion
//! graph: `targets(t) = {(t, 0)} ∪ widenings(t) ∪ min-merge over immediate
//! supertypes s of {(u, d+1) : (u, d) ∈ targets(s)}`. This is intentionally
//! a *different* algorithm from the per-query BFS in
//! [`TypeTable::type_distance_bfs`], which is kept as the reference oracle:
//! property tests assert the two agree on random hierarchies.
//!
//! Freshness is structural: the index lives in a `OnceLock` inside
//! [`TypeTable`] and every hierarchy mutator (`declare_*`, `set_base`,
//! `add_interface_impl`) takes `&mut self` and clears it, so a stale index
//! cannot be observed.

use std::collections::HashMap;

use crate::wire::{check_id, decode_rows, row_u32, Reader, WireError, WireResult, Writer};
use crate::{TypeId, TypeKind, TypeTable};

/// Precomputed conversion relations for every type of one [`TypeTable`]
/// snapshot. Obtain through [`TypeTable::conversion_index`].
#[derive(Debug, Clone, Default)]
pub struct ConversionIndex {
    /// Per type: conversion targets sorted by `(distance, id)` — exactly
    /// the order [`TypeTable::conversion_targets_bfs`] produces.
    targets: Vec<Vec<(TypeId, u32)>>,
    /// Per type: the same pairs sorted by id, for binary-search distance
    /// lookup. Ancestor lists are bounded by hierarchy depth plus interface
    /// count, so the search touches a handful of entries.
    by_id: Vec<Vec<(TypeId, u32)>>,
    /// Per type: one bit per table type, set when a conversion to that type
    /// exists — the memoized *negative* answer. Most hot-path distance
    /// queries ask about unconvertible pairs (every argument type against
    /// every parameter type), so "no conversion" must be as cheap as "yes":
    /// one bit probe, no binary search.
    convertible: Vec<Vec<u64>>,
}

impl ConversionIndex {
    /// Builds the index for the table's current hierarchy.
    pub fn build(table: &TypeTable) -> Self {
        pex_obs::counter!("convindex.builds", 1);
        let n = table.len();
        let mut memo: Vec<Option<Vec<(TypeId, u32)>>> = vec![None; n];
        for root in table.iter() {
            Self::ensure(table, root, &mut memo);
        }
        let targets: Vec<Vec<(TypeId, u32)>> = memo
            .into_iter()
            .map(|list| list.expect("every type visited"))
            .collect();
        let by_id: Vec<Vec<(TypeId, u32)>> = targets
            .iter()
            .map(|list| {
                let mut v = list.clone();
                v.sort_unstable_by_key(|&(t, _)| t);
                v
            })
            .collect();
        let words = n.div_ceil(64);
        let convertible = by_id
            .iter()
            .map(|list| {
                let mut bits = vec![0u64; words];
                for &(t, _) in list {
                    bits[t.index() / 64] |= 1u64 << (t.index() % 64);
                }
                bits
            })
            .collect();
        ConversionIndex {
            targets,
            by_id,
            convertible,
        }
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
        let mut memo: Vec<Option<Vec<(TypeId, u32)>>> = vec![None; n];
        let mut reused = 0usize;
        for t in table.iter() {
            if let Some(row) = old.targets.get(t.index()) {
                if !row.iter().any(|&(u, _)| is_dirty[u.index()]) {
                    memo[t.index()] = Some(row.clone());
                    reused += 1;
                }
            }
        }
        for root in table.iter() {
            Self::ensure(table, root, &mut memo);
        }
        let targets: Vec<Vec<(TypeId, u32)>> = memo
            .into_iter()
            .map(|list| list.expect("every type visited"))
            .collect();
        let by_id: Vec<Vec<(TypeId, u32)>> = targets
            .iter()
            .map(|list| {
                let mut v = list.clone();
                v.sort_unstable_by_key(|&(t, _)| t);
                v
            })
            .collect();
        let words = n.div_ceil(64);
        let convertible = by_id
            .iter()
            .map(|list| {
                let mut bits = vec![0u64; words];
                for &(t, _) in list {
                    bits[t.index() / 64] |= 1u64 << (t.index() % 64);
                }
                bits
            })
            .collect();
        (
            ConversionIndex {
                targets,
                by_id,
                convertible,
            },
            n - reused,
        )
    }

    /// Computes `memo[t]` bottom-up with an explicit stack (hierarchies can
    /// be deep enough that recursion is not worth risking).
    fn ensure(table: &TypeTable, t: TypeId, memo: &mut [Option<Vec<(TypeId, u32)>>]) {
        let mut stack = vec![t];
        while let Some(&cur) = stack.last() {
            if memo[cur.index()].is_some() {
                stack.pop();
                continue;
            }
            let sups = table.immediate_supertypes(cur);
            let mut ready = true;
            for &s in &sups {
                if memo[s.index()].is_none() {
                    stack.push(s);
                    ready = false;
                }
            }
            if !ready {
                continue;
            }
            let mut best: HashMap<TypeId, u32> = HashMap::new();
            best.insert(cur, 0);
            if let Some(pa) = table.get(cur).prim_kind() {
                for pb in crate::PrimKind::ALL {
                    if pa.widens_to(pb) {
                        best.insert(table.prim(pb), 1);
                    }
                }
            }
            if !matches!(table.get(cur).kind(), TypeKind::Void) {
                for &s in &sups {
                    for &(u, d) in memo[s.index()].as_ref().expect("ready") {
                        let entry = best.entry(u).or_insert(u32::MAX);
                        *entry = (*entry).min(d + 1);
                    }
                }
            }
            let mut list: Vec<(TypeId, u32)> = best.into_iter().collect();
            list.sort_unstable_by_key(|&(ty, d)| (d, ty));
            memo[cur.index()] = Some(list);
            stack.pop();
        }
    }

    /// Serializes the index for the persistent snapshot. Only the
    /// `(distance, id)`-ordered target lists are written; the id-sorted
    /// copy and the convertibility bitset are deterministic derivations
    /// and are rebuilt on decode.
    pub fn encode(&self, w: &mut Writer) {
        w.put_len(self.targets.len());
        for list in &self.targets {
            w.put_len(list.len());
            for &(ty, d) in list {
                w.put_u32(ty.0);
                w.put_u32(d);
            }
        }
    }

    /// Decodes an index written by [`ConversionIndex::encode`] for a table
    /// of `n_types` types, bounds-checking every type id and rebuilding
    /// the derived lookup structures exactly as [`ConversionIndex::build`]
    /// does.
    pub fn decode(r: &mut Reader<'_>, n_types: usize) -> WireResult<Self> {
        let n = r.get_len("conversion index type count")?;
        if n != n_types {
            return Err(WireError::new(format!(
                "conversion index covers {n} types but the table holds {n_types}"
            )));
        }
        let mut targets = Vec::with_capacity(n);
        for _ in 0..n {
            let rows: &[[u8; 8]] = r.get_rows("conversion targets")?;
            let list = decode_rows(rows, |row| {
                let ty = check_id(row_u32(row, 0), n_types, "conversion target type id")?;
                Ok((TypeId(ty as u32), row_u32(row, 1)))
            })?;
            targets.push(list);
        }
        let by_id: Vec<Vec<(TypeId, u32)>> = targets
            .iter()
            .map(|list| {
                let mut v = list.clone();
                v.sort_unstable_by_key(|&(t, _)| t);
                v
            })
            .collect();
        let words = n_types.div_ceil(64);
        let convertible = by_id
            .iter()
            .map(|list| {
                let mut bits = vec![0u64; words];
                for &(t, _) in list {
                    bits[t.index() / 64] |= 1u64 << (t.index() % 64);
                }
                bits
            })
            .collect();
        Ok(ConversionIndex {
            targets,
            by_id,
            convertible,
        })
    }

    /// The cached `td(from, to)`.
    ///
    /// Negative answers are memoized in the `convertible` bitset, so a pair
    /// with no conversion costs one bit probe — counted under
    /// `convindex.distance.negative`, not as a cache miss.
    pub fn distance(&self, from: TypeId, to: TypeId) -> Option<u32> {
        pex_obs::counter!("convindex.distance.lookups", 1);
        let bits = &self.convertible[from.index()];
        let (word, bit) = (to.index() / 64, to.index() % 64);
        if bits.get(word).is_none_or(|w| w & (1u64 << bit) == 0) {
            pex_obs::counter!("convindex.distance.negative", 1);
            return None;
        }
        let list = &self.by_id[from.index()];
        match list.binary_search_by_key(&to, |&(t, _)| t) {
            Ok(i) => {
                let d = list[i].1;
                pex_obs::histogram!("convindex.distance", d);
                Some(d)
            }
            // Unreachable when the bitset and `by_id` agree; kept as a
            // counted fallthrough rather than a panic.
            Err(_) => {
                pex_obs::counter!("convindex.distance.misses", 1);
                None
            }
        }
    }

    /// The cached conversion-target list of `from`, sorted by
    /// `(distance, id)` — identical to
    /// [`TypeTable::conversion_targets_bfs`].
    pub fn targets(&self, from: TypeId) -> &[(TypeId, u32)] {
        &self.targets[from.index()]
    }

    /// Number of types covered (the table length at build time).
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the index covers no types (never true for a real table).
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
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
