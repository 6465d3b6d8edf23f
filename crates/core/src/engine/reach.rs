//! The type-reachability index the paper proposes but does not implement
//! (Section 4.2):
//!
//! > "queries for multiple field lookups could also be made more efficient
//! > using an index that indicates for each type which types are reachable
//! > by a `.?*f` or `.?*m` query \[and\] how many lookups are needed."
//!
//! [`ReachIndex`] keeps, for both link kinds, each type's deduplicated
//! predecessors: the types with a `.f` (or `.f`-or-`.m()`) link *into* it.
//! That is all a filtered chain search needs. For one filter,
//! `ReachIndex::pruner` runs a single breadth-first search backwards from
//! every admissible type, which yields each type's minimum number of
//! lookups to *any* admissible type. The engine then prunes a state whose
//! type cannot reach an admissible type within the remaining link budget.
//! The index is linear in the edge count and cheap to derive, so the
//! persistent snapshot does not store it: a decoded snapshot rebuilds it.
//!
//! The index is a **sound over-approximation**: it includes private members
//! regardless of context, so it never prunes a state the search could
//! still complete — pruning changes performance, never results (a property
//! tested in `tests/prop_engine.rs` and enforced by the ablation bench).

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use pex_model::Database;
use pex_types::{RowTable, TypeId};

use super::chains::{ChainLink, TypeFilter};

/// Per-type predecessor lists for both link kinds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReachIndex {
    fields: RowTable<u32>,
    fields_and_methods: RowTable<u32>,
}

/// The reversed lists, by one counting pass: `j` is in row `i` of the
/// result exactly when `i` is in row `j` of `rows`. Rows come out sorted,
/// and duplicate-free when the given rows are.
fn transpose(rows: &RowTable<u32>) -> RowTable<u32> {
    RowTable::group(rows.len(), || {
        (0..rows.len()).flat_map(|from| {
            rows.row(from)
                .iter()
                .map(move |&to| (to as usize, from as u32))
        })
    })
}

impl ReachIndex {
    /// Builds the index over every type in the database: the successor
    /// lists of both link kinds, transposed.
    pub fn build(db: &Database) -> Self {
        let (fields, fields_and_methods) = Self::edges(db);
        ReachIndex {
            fields: transpose(&fields),
            fields_and_methods: transpose(&fields_and_methods),
        }
    }

    /// The deduplicated successor type ids over `.f` edges (instance-field
    /// types) and over `.f`-or-`.m()` edges (those plus zero-argument,
    /// non-void instance-method returns) of every type, inherited members
    /// included.
    fn edges(db: &Database) -> (RowTable<u32>, RowTable<u32>) {
        let void = db.types().void_ty();
        let mut fields = RowTable::new();
        let mut all = RowTable::new();
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
            fields.push_row(&row);
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
            all.push_row(&row);
        }
        (fields, all)
    }

    /// Builds the pruning table for one `(filter, link kind)` pair:
    /// `admissible` is the set of types whose values pass the filter, and
    /// `dist` the per-type minimum lookups to any of them — one
    /// breadth-first search over the predecessor lists, starting from
    /// every admissible type at distance 0. The table depends only on the
    /// database — never on the query's root expressions or scores — so
    /// [`ReachMemo`] shares it across queries.
    pub(crate) fn pruner(
        &self,
        db: &Database,
        kind: ChainLink,
        filter: &TypeFilter,
    ) -> Option<ReachPruner> {
        if filter.is_any() {
            return None; // nothing to prune against
        }
        let preds = match kind {
            ChainLink::Fields => &self.fields,
            ChainLink::FieldsAndMethods => &self.fields_and_methods,
        };
        let n = db.types().len();
        let mut admissible = vec![false; n];
        let mut dist = vec![DIST_UNREACHABLE; n];
        let mut queue: Vec<u32> = Vec::with_capacity(n);
        for ty in db.types().iter() {
            if filter.admits(db, ty) {
                admissible[ty.index()] = true;
                dist[ty.index()] = 0;
                queue.push(ty.index() as u32);
            }
        }
        let mut head = 0;
        while let Some(&t) = queue.get(head) {
            head += 1;
            let d = dist[t as usize] + 1;
            for &prev in preds.row(t as usize) {
                if dist[prev as usize] == DIST_UNREACHABLE {
                    dist[prev as usize] = d;
                    queue.push(prev);
                }
            }
        }
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
    /// [`DIST_UNREACHABLE`]. Because the table holds shortest distances,
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
/// and re-running the backward search per query.
#[derive(Debug, Default)]
pub(crate) struct ReachMemo {
    entries: RwLock<HashMap<(ChainLink, FilterKey), Arc<ReachPruner>>>,
}

impl ReachMemo {
    /// The shared pruning table for this `(kind, filter)` — built on first
    /// request, an `Arc` clone thereafter. `None` for unfiltered queries.
    ///
    /// A poisoned lock is recovered, not propagated: each entry is one
    /// whole `Arc` inserted in one step, so a panic elsewhere cannot leave
    /// a torn entry behind.
    pub(crate) fn pruner(
        &self,
        index: &ReachIndex,
        db: &Database,
        kind: ChainLink,
        filter: &TypeFilter,
    ) -> Option<Arc<ReachPruner>> {
        let key = (kind, FilterKey::of(filter)?);
        if let Some(hit) = self
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            pex_obs::counter!("engine.reach.memo.hits", 1);
            return Some(Arc::clone(hit));
        }
        let table = Arc::new(index.pruner(db, kind, filter)?);
        pex_obs::counter!("engine.reach.memo.fills", 1);
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        Some(Arc::clone(entries.entry(key).or_insert(table)))
    }

    /// Clones the memo for an incremental update that left reachability
    /// and conversions untouched — every pruner table stays valid, so the
    /// new snapshot shares the `Arc`s instead of re-deriving them.
    pub(crate) fn carry(&self) -> ReachMemo {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        ReachMemo {
            entries: RwLock::new(entries.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use pex_corpus::{generate, ClientProfile, LibraryProfile};
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

    /// Minimum lookups from `from` to a value convertible to `to`, read
    /// off the pruner for that one-type filter.
    fn links(db: &Database, kind: ChainLink, from: TypeId, to: TypeId) -> Option<u32> {
        ReachIndex::build(db)
            .pruner(db, kind, &TypeFilter::one_of(vec![to]))
            .expect("filter is narrow")
            .min_to_admissible(from)
    }

    #[test]
    fn pruner_distances_follow_the_field_graph() {
        let db = db();
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let line = db.types().lookup_qualified("N.Line").unwrap();
        let point = db.types().lookup_qualified("N.Point").unwrap();
        let int = db.types().int_ty();
        let double = db.types().double_ty();

        let k = ChainLink::Fields;
        assert_eq!(links(&db, k, canvas, canvas), Some(0));
        assert_eq!(links(&db, k, canvas, line), Some(1));
        assert_eq!(links(&db, k, canvas, point), Some(2));
        assert_eq!(links(&db, k, canvas, int), Some(3));
        // Over fields alone, a double is only met by widening `X`; the
        // method link GetLength() gets there in two.
        assert_eq!(links(&db, k, canvas, double), Some(3));
        assert_eq!(
            links(&db, ChainLink::FieldsAndMethods, canvas, double),
            Some(2)
        );
    }

    #[test]
    fn unreachable_types_are_absent() {
        let db = db();
        let canvas = db.types().lookup_qualified("N.Canvas").unwrap();
        let island = db.types().lookup_qualified("N.Island").unwrap();
        assert_eq!(
            links(&db, ChainLink::FieldsAndMethods, canvas, island),
            None
        );
        // But the island reaches its own bool field.
        assert_eq!(
            links(&db, ChainLink::Fields, island, db.types().bool_ty()),
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

    #[test]
    fn a_panic_under_the_memo_lock_poisons_nothing() {
        let db = db();
        let reach = ReachIndex::build(&db);
        let memo = ReachMemo::default();
        let filter = TypeFilter::one_of(vec![db.types().int_ty()]);
        let before = memo
            .pruner(&reach, &db, ChainLink::Fields, &filter)
            .expect("filter is narrow");
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _held = memo.entries.write().unwrap();
                panic!("a worker panics while holding the reach memo lock");
            })
            .join()
            .is_err()
        });
        assert!(panicked && memo.entries.is_poisoned());
        let after = memo
            .pruner(&reach, &db, ChainLink::Fields, &filter)
            .expect("the memo still answers");
        assert!(
            Arc::ptr_eq(&before, &after),
            "the same table, not a rebuild"
        );
        let carried = memo.carry();
        let again = carried
            .pruner(&reach, &db, ChainLink::Fields, &filter)
            .expect("the carried memo answers");
        assert!(Arc::ptr_eq(&before, &again));
    }

    /// Reachability computed the simple way, as the oracle for the
    /// pruner: per type, one forward breadth-first search into a fresh
    /// map over the raw (duplicate-bearing) edge lists. Index 0 holds the
    /// `.f` link kind, index 1 `.f`-or-`.m()`.
    fn reference_reach(db: &Database) -> [Vec<HashMap<TypeId, u32>>; 2] {
        let n = db.types().len();
        let mut field_edges: Vec<Vec<TypeId>> = vec![Vec::new(); n];
        let mut method_edges: Vec<Vec<TypeId>> = vec![Vec::new(); n];
        for ty in db.types().iter() {
            for owner in db.member_lookup_chain(ty) {
                for &f in db.fields_of(owner) {
                    let fd = db.field(f);
                    if !fd.is_static() {
                        field_edges[ty.index()].push(fd.ty());
                    }
                }
                for &m in db.methods_of(owner) {
                    let md = db.method(m);
                    if !md.is_static()
                        && md.params().is_empty()
                        && md.return_type() != db.types().void_ty()
                    {
                        method_edges[ty.index()].push(md.return_type());
                    }
                }
            }
        }
        let bfs = |with_methods: bool| -> Vec<HashMap<TypeId, u32>> {
            (0..n)
                .map(|start| {
                    let start = TypeId::from_index(start);
                    let mut dist = HashMap::from([(start, 0)]);
                    let mut queue = VecDeque::from([start]);
                    while let Some(t) = queue.pop_front() {
                        let d = dist[&t] + 1;
                        let methods = if with_methods {
                            &method_edges[t.index()][..]
                        } else {
                            &[]
                        };
                        for &next in field_edges[t.index()].iter().chain(methods) {
                            dist.entry(next).or_insert_with(|| {
                                queue.push_back(next);
                                d
                            });
                        }
                    }
                    dist
                })
                .collect()
        };
        [bfs(false), bfs(true)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// For random corpora and random narrowing filters, the pruner's
        /// distance from every type is the oracle's minimum distance to
        /// any admissible type, and `DIST_UNREACHABLE` exactly where the
        /// oracle reaches none.
        #[test]
        fn reach_index_matches_the_bfs_oracle(
            seed in 0u64..200,
            types in 5usize..60,
            ordered in any::<bool>(),
            picks in proptest::collection::vec(any::<u32>(), 0..4),
        ) {
            let lib = LibraryProfile { types, namespaces: 4, ..Default::default() };
            let client = ClientProfile { classes: 2, ..Default::default() };
            let db = generate(&lib, &client, seed);
            let n = db.types().len();
            let filter = if ordered {
                TypeFilter::Ordered
            } else {
                TypeFilter::one_of(
                    picks.iter().map(|&p| TypeId::from_index(p as usize % n)).collect(),
                )
            };
            let admits: Vec<bool> = db.types().iter().map(|t| filter.admits(&db, t)).collect();
            let reach = ReachIndex::build(&db);
            let [fields, all] = reference_reach(&db);
            for (kind, oracle) in [(ChainLink::Fields, &fields), (ChainLink::FieldsAndMethods, &all)] {
                let pruner = reach.pruner(&db, kind, &filter).expect("filter is narrow");
                for from in db.types().iter() {
                    let want = oracle[from.index()]
                        .iter()
                        .filter(|(t, _)| admits[t.index()])
                        .map(|(_, &d)| d)
                        .min()
                        .unwrap_or(DIST_UNREACHABLE);
                    prop_assert_eq!(pruner.min_links(from), want, "{:?} from {:?}", kind, from);
                    prop_assert_eq!(pruner.is_admissible(from), admits[from.index()]);
                }
            }
        }
    }
}
