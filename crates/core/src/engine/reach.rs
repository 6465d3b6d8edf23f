//! The type-reachability index the paper proposes but does not implement
//! (Section 4.2):
//!
//! > "queries for multiple field lookups could also be made more efficient
//! > using an index that indicates for each type which types are reachable
//! > by a `.?*f` or `.?*m` query \[and\] how many lookups are needed."
//!
//! [`ReachIndex`] precomputes, for every type and both link kinds, the
//! minimum number of lookups to every reachable type. During a filtered
//! chain search the engine can then prune a state whose type cannot reach
//! any admissible type within the remaining link budget.
//!
//! The index is a **sound over-approximation**: it includes private members
//! regardless of context, so it never prunes a state the search could
//! still complete — pruning changes performance, never results (a property
//! tested in `tests/prop_engine.rs` and enforced by the ablation bench).

use pex_model::Database;
use pex_types::wire::{Reader, WireError, WireResult, Writer};
use pex_types::TypeId;

use super::chains::{ChainLink, TypeFilter};

/// Per-type minimum-lookup reachability, for both link kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachIndex {
    fields: Rows,
    fields_and_methods: Rows,
}

/// One list per type, stored flat: list `i` is
/// `items[starts[i]..starts[i + 1]]`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Flat<T> {
    starts: Vec<usize>,
    items: Vec<T>,
}

/// Per type, every reachable type with its minimum lookup count, sorted by
/// type id.
type Rows = Flat<(TypeId, u32)>;

impl<T> Flat<T> {
    fn new() -> Self {
        Flat {
            starts: vec![0],
            items: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.starts.len() - 1
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.starts[i]..self.starts[i + 1]]
    }

    /// Closes the list being appended and returns it.
    fn close_row(&mut self) -> &mut [T] {
        let start = self.starts[self.starts.len() - 1];
        self.starts.push(self.items.len());
        &mut self.items[start..]
    }
}

impl Rows {
    fn encode(&self, w: &mut Writer) {
        w.put_len(self.len());
        for i in 0..self.len() {
            let row = self.row(i);
            w.put_len(row.len());
            for &(ty, d) in row {
                w.put_u32(ty.index() as u32);
                w.put_u32(d);
            }
        }
    }

    /// Decodes rows written by [`Rows::encode`] (entries in any order)
    /// for a table of `n_types` types, rejecting a type listed twice in
    /// one row.
    fn decode(r: &mut Reader<'_>, n_types: usize, what: &str) -> WireResult<Self> {
        let n = r.get_len(what)?;
        if n != n_types {
            return Err(WireError::new(format!(
                "{what}: covers {n} types but the table holds {n_types}"
            )));
        }
        let mut rows = Rows::new();
        for _ in 0..n {
            let count = r.get_len("reachability entry count")?;
            for _ in 0..count {
                let ty = TypeId::from_index(r.get_id(n_types, "reachable type")?);
                let d = r.get_u32("lookup distance")?;
                rows.items.push((ty, d));
            }
            let row = rows.close_row();
            row.sort_unstable_by_key(|&(ty, _)| ty);
            if let Some(dup) = row.windows(2).find(|w| w[0].0 == w[1].0) {
                return Err(WireError::new(format!(
                    "duplicate reachability entry for type {}",
                    dup[0].0.index()
                )));
            }
        }
        Ok(rows)
    }
}

impl ReachIndex {
    /// Builds the index over every type in the database: one breadth-first
    /// search per type and link kind over deduplicated edge lists, all
    /// sharing one dense distance array and queue.
    pub fn build(db: &Database) -> Self {
        let (fields, fields_and_methods) = Self::edges(db);
        ReachIndex {
            fields: Self::bfs_rows(&fields),
            fields_and_methods: Self::bfs_rows(&fields_and_methods),
        }
    }

    /// The deduplicated successor type ids over `.f` edges (instance-field
    /// types) and over `.f`-or-`.m()` edges (those plus zero-argument,
    /// non-void instance-method returns) of every type, inherited members
    /// included.
    fn edges(db: &Database) -> (Flat<u32>, Flat<u32>) {
        let void = db.types().void_ty();
        let mut fields = Flat::new();
        let mut all = Flat::new();
        let mut row = Vec::new();
        for ty in db.types().iter() {
            let chain = db.member_lookup_chain(ty);
            row.clear();
            for &owner in &chain {
                for &f in db.fields_of(owner) {
                    let fd = db.field(f);
                    if !fd.is_static() {
                        row.push(fd.ty().index() as u32);
                    }
                }
            }
            row.sort_unstable();
            row.dedup();
            fields.items.extend_from_slice(&row);
            fields.close_row();
            for &owner in &chain {
                for &m in db.methods_of(owner) {
                    let md = db.method(m);
                    if !md.is_static() && md.params().is_empty() && md.return_type() != void {
                        row.push(md.return_type().index() as u32);
                    }
                }
            }
            row.sort_unstable();
            row.dedup();
            all.items.extend_from_slice(&row);
            all.close_row();
        }
        (fields, all)
    }

    /// Shortest lookup counts from every type over `edges`.
    fn bfs_rows(edges: &Flat<u32>) -> Rows {
        const UNSEEN: u32 = u32::MAX;
        let n = edges.len();
        let mut rows = Rows::new();
        let mut dist = vec![UNSEEN; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for start in 0..n {
            dist[start] = 0;
            queue.push(start as u32);
            let mut head = 0;
            while let Some(&t) = queue.get(head) {
                head += 1;
                let d = dist[t as usize] + 1;
                for &next in edges.row(t as usize) {
                    if dist[next as usize] == UNSEEN {
                        dist[next as usize] = d;
                        queue.push(next);
                    }
                }
            }
            for &t in &queue {
                rows.items
                    .push((TypeId::from_index(t as usize), dist[t as usize]));
                dist[t as usize] = UNSEEN;
            }
            queue.clear();
            rows.close_row().sort_unstable_by_key(|&(ty, _)| ty);
        }
        rows
    }

    /// Serializes the index for the persistent snapshot. Each per-type row
    /// is already in type-id order, so identical indexes serialize to
    /// identical bytes.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        self.fields.encode(w);
        self.fields_and_methods.encode(w);
    }

    /// Decodes an index written by [`ReachIndex::encode_snapshot`] for a
    /// table of `n_types` types, bounds-checking every id.
    pub fn decode_snapshot(r: &mut Reader<'_>, n_types: usize) -> WireResult<Self> {
        let fields = Rows::decode(r, n_types, "field reachability map count")?;
        let fields_and_methods = Rows::decode(r, n_types, "field+method reachability map count")?;
        Ok(ReachIndex {
            fields,
            fields_and_methods,
        })
    }

    /// Minimum lookups from `from` to `to` with the given link kind, if
    /// reachable at all (`Some(0)` when `from == to`).
    pub fn min_lookups(&self, kind: ChainLink, from: TypeId, to: TypeId) -> Option<u32> {
        let row = self.reachable(kind, from);
        let i = row.binary_search_by_key(&to, |&(ty, _)| ty).ok()?;
        Some(row[i].1)
    }

    /// All types reachable from `from` with their minimum lookup counts,
    /// sorted by type id.
    pub fn reachable(&self, kind: ChainLink, from: TypeId) -> &[(TypeId, u32)] {
        let rows = match kind {
            ChainLink::Fields => &self.fields,
            ChainLink::FieldsAndMethods => &self.fields_and_methods,
        };
        rows.row(from.index())
    }

    /// Builds the pruning table for one `(filter, link kind)` pair:
    /// `admissible` is the set of types whose values pass the filter, and
    /// `dist` the per-type minimum lookups to any of them. The table
    /// depends only on the database — never on the query's root
    /// expressions or scores — so [`ReachMemo`] shares it across queries.
    pub(crate) fn pruner(
        &self,
        db: &Database,
        kind: ChainLink,
        filter: &TypeFilter,
    ) -> Option<ReachPruner> {
        if filter.is_any() {
            return None; // nothing to prune against
        }
        let mut admissible = vec![false; db.types().len()];
        for ty in db.types().iter() {
            if filter.admits(db, ty) {
                admissible[ty.index()] = true;
            }
        }
        let dist = (0..db.types().len())
            .map(|i| {
                self.reachable(kind, TypeId::from_index(i))
                    .iter()
                    .filter(|(t, _)| admissible[t.index()])
                    .map(|&(_, d)| d)
                    .min()
                    .unwrap_or(DIST_UNREACHABLE)
            })
            .collect();
        Some(ReachPruner { admissible, dist })
    }
}

/// [`ReachPruner::min_links`]'s sentinel: no admissible type is reachable
/// from this one at all. Larger than any real remaining-link budget, so a
/// plain `≤ remaining` comparison also rejects unreachable types.
pub(crate) const DIST_UNREACHABLE: u32 = u32::MAX;

/// A pruning oracle for one `(filter, link kind)` pair (see
/// [`ReachIndex::pruner`]): every probe is an O(1) table lookup.
#[derive(Debug)]
pub(crate) struct ReachPruner {
    admissible: Vec<bool>,
    dist: Vec<u32>,
}

impl ReachPruner {
    /// Whether values of `ty` pass the query's filter directly (zero
    /// further lookups) — the precomputed `filter.admits` verdict.
    pub(crate) fn is_admissible(&self, ty: TypeId) -> bool {
        self.admissible[ty.index()]
    }

    /// Minimum number of links from `ty` to *any* admissible type, or
    /// [`DIST_UNREACHABLE`]. Because the index stores shortest distances,
    /// every admissible completion growing from a `ty` state appends at
    /// least this many links — which makes `link_cost × min_links` an
    /// admissible A* heuristic for the best-first search, and
    /// `min_links ≤ remaining links` the viability test for enqueueing a
    /// chain state.
    pub(crate) fn min_links(&self, ty: TypeId) -> u32 {
        self.dist[ty.index()]
    }

    /// [`ReachPruner::min_links`] as an option (`None` = unreachable).
    #[cfg(test)]
    pub(crate) fn min_to_admissible(&self, ty: TypeId) -> Option<u32> {
        match self.min_links(ty) {
            DIST_UNREACHABLE => None,
            d => Some(d),
        }
    }
}

/// Canonical identity of a [`TypeFilter`] for memo keys. `Any` filters
/// never build a pruner, so only the narrowing variants appear.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum FilterKey {
    OneOf(Vec<TypeId>),
    Ordered,
}

impl FilterKey {
    fn of(filter: &TypeFilter) -> Option<Self> {
        match filter {
            TypeFilter::Any => None,
            TypeFilter::OneOf(tys) => {
                let mut tys = tys.clone();
                tys.sort_unstable();
                tys.dedup();
                Some(FilterKey::OneOf(tys))
            }
            TypeFilter::Ordered => Some(FilterKey::Ordered),
        }
    }
}

/// Cross-query memo of pruning tables per `(link kind, filter)` — the
/// reach-index sibling of [`super::memo::SuccessorMemo`], living in
/// [`super::EngineCache`]. Query streams over the same expected type (the
/// common case for a serve snapshot answering a hot completion site)
/// share one table instead of re-deriving `filter.admits` for every type
/// and re-scanning reachable sets per query.
#[derive(Debug, Default)]
pub(crate) struct ReachMemo {
    entries: std::sync::RwLock<
        std::collections::HashMap<(ChainLink, FilterKey), std::sync::Arc<ReachPruner>>,
    >,
}

impl ReachMemo {
    /// The shared pruning table for this `(kind, filter)` — built on first
    /// request, an `Arc` clone thereafter. `None` for unfiltered queries.
    pub(crate) fn pruner(
        &self,
        index: &ReachIndex,
        db: &Database,
        kind: ChainLink,
        filter: &TypeFilter,
    ) -> Option<std::sync::Arc<ReachPruner>> {
        let key = (kind, FilterKey::of(filter)?);
        if let Some(hit) = self.entries.read().expect("reach memo lock").get(&key) {
            pex_obs::counter!("engine.reach.memo.hits", 1);
            return Some(std::sync::Arc::clone(hit));
        }
        let table = std::sync::Arc::new(index.pruner(db, kind, filter)?);
        pex_obs::counter!("engine.reach.memo.fills", 1);
        let mut entries = self.entries.write().expect("reach memo lock");
        Some(std::sync::Arc::clone(entries.entry(key).or_insert(table)))
    }

    /// Clones the memo for an incremental update that left reachability
    /// and conversions untouched — every pruner table stays valid, so the
    /// new snapshot shares the `Arc`s instead of re-deriving them.
    pub(crate) fn carry(&self) -> ReachMemo {
        ReachMemo {
            entries: std::sync::RwLock::new(self.entries.read().expect("reach memo lock").clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;

    fn db() -> Database {
        compile(
            r#"
            namespace N {
                struct Point { int X; }
                class Line {
                    N.Point P1;
                    double GetLength();
                }
                class Canvas {
                    N.Line Selected;
                }
                class Island { bool Flag; }
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn min_lookups_follow_the_field_graph() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let line = db.types().lookup_qualified("N.Line").unwrap();
        let point = db.types().lookup_qualified("N.Point").unwrap();
        let int = db.types().int_ty();
        let double = db.types().double_ty();

        let k = ChainLink::Fields;
        assert_eq!(reach.min_lookups(k, canvas, canvas), Some(0));
        assert_eq!(reach.min_lookups(k, canvas, line), Some(1));
        assert_eq!(reach.min_lookups(k, canvas, point), Some(2));
        assert_eq!(reach.min_lookups(k, canvas, int), Some(3));
        // double is only reachable through GetLength(), a method link.
        assert_eq!(reach.min_lookups(k, canvas, double), None);
        assert_eq!(
            reach.min_lookups(ChainLink::FieldsAndMethods, canvas, double),
            Some(2)
        );
    }

    /// `n` rows of `(type, distance)` entries as `encode_snapshot` lays
    /// them out, for both link kinds.
    fn encoded(rows: &[&[(u32, u32)]]) -> Vec<u8> {
        let mut w = Writer::new();
        for _ in 0..2 {
            w.put_len(rows.len());
            for row in rows {
                w.put_len(row.len());
                for &(ty, d) in *row {
                    w.put_u32(ty);
                    w.put_u32(d);
                }
            }
        }
        w.into_bytes()
    }

    #[test]
    fn snapshot_round_trip_is_exact() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let mut w = Writer::new();
        reach.encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        let decoded =
            ReachIndex::decode_snapshot(&mut Reader::new(&bytes), db.types().len()).unwrap();
        assert_eq!(decoded, reach);
        let mut again = Writer::new();
        decoded.encode_snapshot(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    #[test]
    fn decode_sorts_rows_and_rejects_duplicates() {
        let bytes = encoded(&[&[(1, 1), (0, 0)], &[(1, 0)]]);
        let reach = ReachIndex::decode_snapshot(&mut Reader::new(&bytes), 2).unwrap();
        let (t0, t1) = (TypeId::from_index(0), TypeId::from_index(1));
        assert_eq!(reach.reachable(ChainLink::Fields, t0), &[(t0, 0), (t1, 1)]);
        assert_eq!(reach.min_lookups(ChainLink::Fields, t0, t1), Some(1));
        assert_eq!(reach.min_lookups(ChainLink::Fields, t1, t0), None);

        let bytes = encoded(&[&[(1, 1), (0, 0), (1, 2)], &[(1, 0)]]);
        let err = ReachIndex::decode_snapshot(&mut Reader::new(&bytes), 2).unwrap_err();
        assert!(
            err.to_string()
                .contains("duplicate reachability entry for type 1"),
            "{err}"
        );
    }

    #[test]
    fn unreachable_types_are_absent() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let island = db.types().lookup_qualified("N.Island").unwrap();
        assert_eq!(
            reach.min_lookups(ChainLink::FieldsAndMethods, canvas, island),
            None
        );
        // But the island reaches its own bool field.
        assert_eq!(
            reach.min_lookups(ChainLink::Fields, island, db.types().bool_ty()),
            Some(1)
        );
    }

    #[test]
    fn pruner_respects_budget_and_admissibility() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let int = db.types().int_ty();
        let filter = TypeFilter::one_of(vec![int]);
        let pruner = reach
            .pruner(&db, ChainLink::Fields, &filter)
            .expect("filter is narrow");
        // The stream's viability test is `min_to_admissible ≤ remaining`:
        // a canvas state survives a 3-link budget but not a 2-link one.
        let d = pruner.min_to_admissible(canvas).expect("int is reachable");
        assert!(d <= 3, "int reachable in exactly 3");
        assert!(d > 2, "not within 2");
        // An unfiltered query has no pruner (nothing to prune against).
        assert!(reach
            .pruner(&db, ChainLink::Fields, &TypeFilter::any())
            .is_none());
    }

    #[test]
    fn min_to_admissible_is_the_shortest_admissible_distance() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let line = db.types().lookup_qualified("N.Line").unwrap();
        let island = db.types().lookup_qualified("N.Island").unwrap();
        let int = db.types().int_ty();
        let filter = TypeFilter::one_of(vec![int]);
        let pruner = reach
            .pruner(&db, ChainLink::Fields, &filter)
            .expect("filter is narrow");
        assert_eq!(pruner.min_to_admissible(canvas), Some(3));
        assert_eq!(pruner.min_to_admissible(line), Some(2));
        assert_eq!(pruner.min_to_admissible(int), Some(0));
        assert_eq!(pruner.min_to_admissible(island), None);
    }
}
