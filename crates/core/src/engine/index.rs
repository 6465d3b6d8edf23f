//! The method index of paper Figure 8: parameter type → methods.
//!
//! "An index is maintained that maps every type to a set of methods for
//! which at least one of the arguments may be of that type." To save memory
//! the paper stores methods under the *exact* parameter type and follows
//! supertype pointers at query time; [`MethodIndex::candidates_for`] does
//! the same walk via the memoized
//! [`pex_types::TypeTable::conversion_targets_ref`] lists, so progressively
//! farther entries correspond to progressively worse type distances.

use std::sync::OnceLock;

use pex_model::{Database, MethodId};
use pex_types::wire::{Reader, WireError, WireResult, Writer};
use pex_types::TypeId;

/// Reusable dedupe scratch for the candidate walks, hoisted out of the
/// per-call `vec![false; method_count]` allocation it replaces.
///
/// Marks are generation-stamped, so "clearing" between walks is a single
/// counter bump rather than an O(methods) reset. One scratch lives in each
/// completer's candidate cache; callers without one can rely on the
/// allocating convenience wrappers.
#[derive(Debug, Clone, Default)]
pub struct CandidateScratch {
    marks: Vec<u32>,
    stamp: u32,
}

impl CandidateScratch {
    /// A fresh scratch; grows to the database's method count on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a new walk over `n` candidates, invalidating earlier marks.
    fn begin(&mut self, n: usize) {
        if self.marks.len() < n {
            self.marks.resize(n, 0);
        }
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Stamp wrapped: old marks could alias, so reset once per 2^32.
            self.marks.fill(0);
            self.stamp = 1;
        }
    }

    /// Marks slot `i`, returning whether it was unmarked in this walk.
    fn mark(&mut self, i: usize) -> bool {
        if self.marks[i] == self.stamp {
            false
        } else {
            self.marks[i] = self.stamp;
            true
        }
    }
}

/// Index from parameter type (receiver included) to declaring methods.
#[derive(Debug, Clone, Default)]
pub struct MethodIndex {
    /// Methods with a parameter (receiver included) of each type, indexed
    /// by [`TypeId::index`], each method once per list, in id order.
    by_param: Vec<Vec<MethodId>>,
    /// Methods with at least one argument position (receiver or declared
    /// parameter) — the fallback set when no argument type is known.
    with_args: Vec<MethodId>,
    /// Per-type memo of the full deduplicated candidate list, filled on
    /// first lookup — the paper's "grouping computations by type"
    /// optimisation (Section 4.2) hoisted from per-query to per-index.
    /// `OnceLock` cells keep the index `Sync`, so parallel replay workers
    /// share fills instead of repeating them.
    memo: Vec<OnceLock<Box<[MethodId]>>>,
}

impl MethodIndex {
    /// Builds the index over every method in the database.
    pub fn build(db: &Database) -> Self {
        let n_types = db.types().len();
        let mut by_param = vec![Vec::new(); n_types];
        let mut with_args = Vec::new();
        for m in db.methods() {
            let md = db.method(m);
            if md.full_arity() == 0 {
                continue;
            }
            with_args.push(m);
            let receiver = (!md.is_static()).then(|| md.declaring());
            for ty in receiver.into_iter().chain(md.params().iter().map(|p| p.ty)) {
                let list = &mut by_param[ty.index()];
                // One method's positions are visited together, so a type
                // it already listed has it as the last entry.
                if list.last() != Some(&m) {
                    list.push(m);
                }
            }
        }
        MethodIndex {
            by_param,
            with_args,
            memo: (0..n_types).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Serializes the index — including every memoized per-type candidate
    /// list — for the persistent snapshot. A loaded snapshot therefore
    /// starts with the same memo contents a prewarmed boot would have,
    /// which is what lets `--load-snapshot` skip the prewarm pass.
    /// One entry per type with a non-empty method list, in type-id order.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        let entries = || {
            self.by_param
                .iter()
                .enumerate()
                .filter(|(_, l)| !l.is_empty())
        };
        w.put_len(entries().count());
        for (ty, methods) in entries() {
            w.put_u32(ty as u32);
            w.put_len(methods.len());
            for m in methods {
                w.put_u32(m.index() as u32);
            }
        }
        w.put_len(self.with_args.len());
        for m in &self.with_args {
            w.put_u32(m.index() as u32);
        }
        w.put_len(self.memo.len());
        for cell in &self.memo {
            match cell.get() {
                Some(list) => {
                    w.put_bool(true);
                    w.put_len(list.len());
                    for m in list.iter() {
                        w.put_u32(m.index() as u32);
                    }
                }
                None => w.put_bool(false),
            }
        }
    }

    /// Decodes an index written by [`MethodIndex::encode_snapshot`] for a
    /// database with `n_types` types and `n_methods` methods, restoring
    /// filled memo cells and bounds-checking every id. A type may have at
    /// most one entry, even an empty one.
    pub fn decode_snapshot(
        r: &mut Reader<'_>,
        n_types: usize,
        n_methods: usize,
    ) -> WireResult<Self> {
        let n_entries = r.get_len("method index entry count")?;
        let mut by_param = vec![Vec::new(); n_types];
        let mut seen = vec![false; n_types];
        for _ in 0..n_entries {
            let ty = r.get_id(n_types, "indexed parameter type")?;
            let n = r.get_len("indexed method count")?;
            let mut methods = Vec::with_capacity(n);
            for _ in 0..n {
                methods.push(MethodId::from_index(r.get_id(n_methods, "indexed method")?));
            }
            if std::mem::replace(&mut seen[ty], true) {
                return Err(WireError::new(format!(
                    "duplicate method index entry for type {ty}"
                )));
            }
            by_param[ty] = methods;
        }
        let n_with_args = r.get_len("with-args method count")?;
        let mut with_args = Vec::with_capacity(n_with_args);
        for _ in 0..n_with_args {
            with_args.push(MethodId::from_index(
                r.get_id(n_methods, "with-args method")?,
            ));
        }
        let n_memo = r.get_len("candidate memo count")?;
        if n_memo != n_types {
            return Err(WireError::new(format!(
                "candidate memo covers {n_memo} types but the table holds {n_types}"
            )));
        }
        let mut memo = Vec::with_capacity(n_memo);
        for _ in 0..n_memo {
            let cell = OnceLock::new();
            if r.get_bool("memo cell presence flag")? {
                let n = r.get_len("memoized candidate count")?;
                let mut list = Vec::with_capacity(n);
                for _ in 0..n {
                    list.push(MethodId::from_index(
                        r.get_id(n_methods, "memoized candidate")?,
                    ));
                }
                let _ = cell.set(list.into_boxed_slice());
            }
            memo.push(cell);
        }
        Ok(MethodIndex {
            by_param,
            with_args,
            memo,
        })
    }

    /// Methods with a parameter of *exactly* this type.
    pub fn exact(&self, ty: TypeId) -> &[MethodId] {
        self.by_param.get(ty.index()).map_or(&[], Vec::as_slice)
    }

    /// Methods that can accept an argument of type `ty` in some position:
    /// the union of the exact entries of every implicit-conversion target of
    /// `ty`, ordered by type distance (near first) and deduplicated.
    ///
    /// Allocating convenience wrapper around
    /// [`MethodIndex::candidates_for_with`]; hot paths should hold a
    /// [`CandidateScratch`] and call that directly.
    pub fn candidates_for(&self, db: &Database, ty: TypeId) -> Vec<MethodId> {
        self.candidates_for_with(db, ty, &mut CandidateScratch::new())
    }

    /// [`MethodIndex::candidates_for`] with caller-provided dedupe scratch
    /// (no per-call allocation): the conversion-target list comes from the
    /// type table's memoized index and `scratch` replaces the visited
    /// bitmap.
    pub fn candidates_for_with(
        &self,
        db: &Database,
        ty: TypeId,
        scratch: &mut CandidateScratch,
    ) -> Vec<MethodId> {
        pex_obs::counter!("index.candidates.walks", 1);
        let mut out = Vec::new();
        scratch.begin(db.method_count());
        for &(target, _) in db.types().conversion_targets_ref(ty) {
            for &m in self.exact(target) {
                if scratch.mark(m.index()) {
                    out.push(m);
                }
            }
        }
        out
    }

    /// [`MethodIndex::candidates_for`], memoized per type for the lifetime
    /// of the index: the first lookup of each type performs the
    /// deduplicated supertype walk, every later lookup borrows the stored
    /// list. The engine's hot paths go through here, so repeated queries
    /// against one database pay the walk at most once per type.
    ///
    /// # Panics
    ///
    /// Panics if `ty` was declared after this index was built; the index is
    /// a snapshot and must be rebuilt when the database grows.
    pub fn candidates_for_cached(&self, db: &Database, ty: TypeId) -> &[MethodId] {
        pex_obs::counter!("index.candidates.lookups", 1);
        let cell = self
            .memo
            .get(ty.index())
            .expect("type declared after MethodIndex::build; rebuild the index");
        cell.get_or_init(|| {
            // Counted inside the init closure: `OnceLock` runs it exactly
            // once per cell even under racing parallel workers, so the
            // fill total equals the number of distinct types materialised
            // — deterministic for any thread count. Hits are derived as
            // lookups − fills.
            pex_obs::counter!("index.candidates.fills", 1);
            self.candidates_for(db, ty).into_boxed_slice()
        })
    }

    /// Exact size of [`MethodIndex::candidates_for`], served from the
    /// per-type memo: deduplicated and O(1) after the first lookup of `ty`.
    /// The "pick the argument with the smallest candidate set" heuristic of
    /// paper Section 4.2 therefore compares true set sizes.
    pub fn candidate_count_cached(&self, db: &Database, ty: TypeId) -> usize {
        self.candidates_for_cached(db, ty).len()
    }

    /// The fallback candidate set: every method with at least one argument
    /// position. Used when a query provides no typed argument at all.
    pub fn all_with_args(&self) -> &[MethodId] {
        &self.with_args
    }

    /// Rebuilds the index over an incrementally patched database, carrying
    /// over every memoized candidate list the edit cannot have changed.
    ///
    /// The `by_param` and `with_args` tables rebuild wholesale (one linear
    /// pass over live methods); the expensive part — the per-type
    /// deduplicated supertype walks in `memo` — is retained for every type
    /// whose conversion-target list on the *new* table avoids `dirty`
    /// (dirty types ∪ dirty parameter types from the model diff): a cell's
    /// contents change only if some target's exact entry moved (that
    /// target is a dirty parameter type) or the target list itself moved
    /// (some type on the new list is dirty — hierarchy edits dirty the
    /// edited type, which stays on the walk). Returns
    /// `(index, cells dropped, cells kept)`.
    ///
    /// Requires the new table's conversion index to be installed already.
    pub fn rebuild_after_update(
        &self,
        new_db: &Database,
        dirty: &std::collections::HashSet<TypeId>,
    ) -> (MethodIndex, usize, usize) {
        let fresh = MethodIndex::build(new_db);
        let mut dropped = 0usize;
        let mut kept = 0usize;
        for (i, cell) in self.memo.iter().enumerate() {
            let Some(list) = cell.get() else { continue };
            if i >= fresh.memo.len() {
                dropped += 1;
                continue;
            }
            let ty = TypeId::from_index(i);
            let stale = new_db
                .types()
                .conversion_targets_ref(ty)
                .iter()
                .any(|&(target, _)| dirty.contains(&target));
            if stale {
                dropped += 1;
            } else {
                let _ = fresh.memo[i].set(list.clone());
                kept += 1;
            }
        }
        (fresh, dropped, kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;

    fn setup() -> Database {
        compile(
            r#"
            namespace G {
                class Animal { }
                class Dog : G.Animal { }
                class Kennel {
                    static void House(G.Dog d);
                    static void Admit(G.Animal a);
                    void Wash(G.Dog d);
                    static int Count();
                }
            }
            "#,
        )
        .unwrap()
    }

    fn find(db: &Database, name: &str) -> MethodId {
        db.methods().find(|m| db.method(*m).name() == name).unwrap()
    }

    #[test]
    fn exact_entries_respect_receivers() {
        let db = setup();
        let idx = MethodIndex::build(&db);
        let dog = db.types().lookup_qualified("G.Dog").unwrap();
        let kennel = db.types().lookup_qualified("G.Kennel").unwrap();
        let house = find(&db, "House");
        let wash = find(&db, "Wash");
        assert!(idx.exact(dog).contains(&house));
        assert!(idx.exact(dog).contains(&wash));
        // Wash is an instance method: its receiver type indexes it too.
        assert!(idx.exact(kennel).contains(&wash));
        // Count has no argument positions at all.
        let count = find(&db, "Count");
        assert!(!idx.all_with_args().contains(&count));
        assert!(!idx.exact(kennel).contains(&count));
    }

    #[test]
    fn candidates_walk_supertypes() {
        let db = setup();
        let idx = MethodIndex::build(&db);
        let dog = db.types().lookup_qualified("G.Dog").unwrap();
        let animal = db.types().lookup_qualified("G.Animal").unwrap();
        let house = find(&db, "House");
        let admit = find(&db, "Admit");
        let dog_cands = idx.candidates_for(&db, dog);
        assert!(dog_cands.contains(&house));
        assert!(dog_cands.contains(&admit), "a Dog fits Admit(Animal)");
        // Nearer entries first: House (exact) before Admit (distance 1).
        let hp = dog_cands.iter().position(|m| *m == house).unwrap();
        let ap = dog_cands.iter().position(|m| *m == admit).unwrap();
        assert!(hp < ap);
        // An Animal does not fit House(Dog).
        let animal_cands = idx.candidates_for(&db, animal);
        assert!(!animal_cands.contains(&house));
        assert!(animal_cands.contains(&admit));
    }

    #[test]
    fn memoized_candidates_match_fresh_walk() {
        let db = setup();
        let idx = MethodIndex::build(&db);
        // Repeated memo reads (first fills, then hits) must equal the
        // uncached walk for every type.
        for _ in 0..2 {
            for ty in db.types().iter() {
                assert_eq!(
                    idx.candidates_for_cached(&db, ty),
                    idx.candidates_for(&db, ty).as_slice()
                );
                assert_eq!(
                    idx.candidate_count_cached(&db, ty),
                    idx.candidates_for(&db, ty).len()
                );
            }
        }
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let db = setup();
        let idx = MethodIndex::build(&db);
        let dog = db.types().lookup_qualified("G.Dog").unwrap();
        let _ = idx.candidates_for_cached(&db, dog);
        let mut w = Writer::new();
        idx.encode_snapshot(&mut w);
        let bytes = w.into_bytes();
        let decoded = MethodIndex::decode_snapshot(
            &mut Reader::new(&bytes),
            db.types().len(),
            db.method_count(),
        )
        .unwrap();
        for ty in db.types().iter() {
            assert_eq!(decoded.exact(ty), idx.exact(ty));
        }
        assert_eq!(decoded.all_with_args(), idx.all_with_args());
        let mut again = Writer::new();
        decoded.encode_snapshot(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    /// An encoded index over two types and two methods with the given
    /// `(type, methods)` entries, no with-args list and an empty memo.
    fn encoded(entries: &[(u32, &[u32])]) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_len(entries.len());
        for &(ty, methods) in entries {
            w.put_u32(ty);
            w.put_len(methods.len());
            for &m in methods {
                w.put_u32(m);
            }
        }
        w.put_len(0);
        w.put_len(2);
        w.put_bool(false);
        w.put_bool(false);
        w.into_bytes()
    }

    #[test]
    fn decode_rejects_repeated_type_entries() {
        let bytes = encoded(&[(1, &[0, 1]), (0, &[])]);
        let idx = MethodIndex::decode_snapshot(&mut Reader::new(&bytes), 2, 2).unwrap();
        let (m0, m1) = (MethodId::from_index(0), MethodId::from_index(1));
        assert_eq!(idx.exact(TypeId::from_index(1)), &[m0, m1]);
        assert_eq!(idx.exact(TypeId::from_index(0)), &[]);

        for entries in [
            &[(1, &[0][..]), (1, &[1][..])][..],
            &[(1, &[][..]), (1, &[][..])],
            &[(1, &[][..]), (0, &[0][..]), (1, &[0, 1][..])],
        ] {
            let bytes = encoded(entries);
            let err = MethodIndex::decode_snapshot(&mut Reader::new(&bytes), 2, 2).unwrap_err();
            assert!(
                err.to_string()
                    .contains("duplicate method index entry for type 1"),
                "{err}"
            );
        }
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        let db = setup();
        let idx = MethodIndex::build(&db);
        let mut scratch = CandidateScratch::new();
        // Walks interleaved through one scratch must match fresh walks.
        for _ in 0..3 {
            for ty in db.types().iter() {
                assert_eq!(
                    idx.candidates_for_with(&db, ty, &mut scratch),
                    idx.candidates_for(&db, ty)
                );
            }
        }
    }
}
