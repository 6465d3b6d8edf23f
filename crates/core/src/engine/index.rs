//! The method index of paper Figure 8: parameter type → methods.
//!
//! "An index is maintained that maps every type to a set of methods for
//! which at least one of the arguments may be of that type." To save memory
//! the paper stores methods under the *exact* parameter type and follows
//! supertype pointers at query time. [`MethodIndex`] does the same: it
//! keeps the exact rows in one flat table and
//! [`MethodIndex::candidates_for_with`] walks them per query, over the
//! memoized [`pex_types::TypeTable::conversion_targets_ref`] lists, so
//! progressively farther entries correspond to progressively worse type
//! distances.
//!
//! The only per-type memo is the *size* of each walk: "pick the argument
//! with the smallest index entry" (Section 4.2) compares sizes before any
//! walk runs, so [`MethodIndex::candidate_count`] serves them in O(1)
//! after the first lookup. The candidate lists themselves are never
//! stored.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU32, Ordering};

use pex_model::{Database, MethodId};
use pex_types::wire::{check_id, Reader, WireError, WireResult, Writer};
use pex_types::TypeId;

/// Dedupe scratch for [`MethodIndex::candidates_for_with`]: one mark per
/// method, so a method reachable through several conversion targets is
/// visited once.
///
/// Marks are generation-stamped, so "clearing" between walks is a single
/// counter bump rather than an O(methods) reset. The engine keeps one
/// scratch per unknown-method query node, reused by every argument combo
/// it expands; the index itself holds none, so it stays shareable across
/// threads.
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

/// A count cell no lookup has filled yet. Real counts are at most the
/// method count, which fits well below it.
const UNFILLED: u32 = u32::MAX;

/// Index from parameter type (receiver included) to declaring methods.
#[derive(Debug, Default)]
pub struct MethodIndex {
    /// The exact rows, back to back: the methods with a parameter
    /// (receiver included) of type `t` are
    /// `rows[offsets[t]..offsets[t + 1]]`, each method once per row, in id
    /// order.
    rows: Box<[MethodId]>,
    /// Row boundaries, `n_types + 1` of them.
    offsets: Box<[u32]>,
    /// Methods with at least one argument position (receiver or declared
    /// parameter) — the fallback set when no argument type is known.
    with_args: Box<[MethodId]>,
    /// Per-type memo of the candidate-walk length, [`UNFILLED`] until the
    /// first lookup — the paper's "grouping computations by type"
    /// optimisation (Section 4.2) hoisted from per-query to per-index.
    /// Atomic cells keep the index `Sync`, so parallel replay workers
    /// share fills instead of repeating them.
    counts: Box<[AtomicU32]>,
}

/// A row of cells all [`UNFILLED`].
fn unfilled_counts(n_types: usize) -> Box<[AtomicU32]> {
    (0..n_types).map(|_| AtomicU32::new(UNFILLED)).collect()
}

/// `n` as a row offset; the table is addressed by `u32`.
fn offset(n: usize) -> u32 {
    u32::try_from(n).expect("method index holds more than u32::MAX entries")
}

/// Calls `f(type index, method)` for every exact-row entry, in method id
/// order: once per type a method has a position of, however many of its
/// positions share that type. `last` holds one slot per type.
fn for_each_entry(db: &Database, last: &mut [u32], mut f: impl FnMut(usize, MethodId)) {
    last.fill(u32::MAX);
    for m in db.methods() {
        for ty in db.method(m).full_param_types() {
            let seen = &mut last[ty.index()];
            if *seen != m.index() as u32 {
                *seen = m.index() as u32;
                f(ty.index(), m);
            }
        }
    }
}

impl MethodIndex {
    /// Builds the index over every method in the database, in two passes
    /// over the methods: count each row, then fill it.
    pub fn build(db: &Database) -> Self {
        let n_types = db.types().len();
        let mut last = vec![u32::MAX; n_types];
        let mut offsets = vec![0u32; n_types + 1];
        for_each_entry(db, &mut last, |t, _| offsets[t + 1] += 1);
        for t in 0..n_types {
            offsets[t + 1] += offsets[t];
        }
        // Fill with `offsets[t]` as row `t`'s cursor; afterwards each
        // cursor sits on the next row's start, so shifting the table by
        // one restores the boundaries.
        let mut rows = vec![MethodId::from_index(0); offsets[n_types] as usize];
        for_each_entry(db, &mut last, |t, m| {
            rows[offsets[t] as usize] = m;
            offsets[t] += 1;
        });
        offsets.copy_within(..n_types, 1);
        offsets[0] = 0;
        // Counted first, so the fallback set is exactly sized too.
        let has_args = |m: &MethodId| db.method(*m).full_arity() > 0;
        let mut with_args = Vec::with_capacity(db.methods().filter(has_args).count());
        with_args.extend(db.methods().filter(has_args));
        MethodIndex {
            rows: rows.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            with_args: with_args.into_boxed_slice(),
            counts: unfilled_counts(n_types),
        }
    }

    /// Serializes the index — including every memoized candidate count —
    /// for the persistent snapshot. A loaded snapshot therefore starts
    /// with the same memo contents a prewarmed boot would have, which is
    /// what lets `--load-snapshot` skip the prewarm pass. One row entry
    /// per type with a non-empty row, in type-id order.
    pub fn encode_snapshot(&self, w: &mut Writer) {
        let n_types = self.counts.len();
        let entries = || {
            (0..n_types)
                .map(|t| (t, self.exact(TypeId::from_index(t))))
                .filter(|(_, row)| !row.is_empty())
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
        for m in self.with_args.iter() {
            w.put_u32(m.index() as u32);
        }
        w.put_len(n_types);
        for cell in self.counts.iter() {
            match cell.load(Ordering::Relaxed) {
                UNFILLED => w.put_bool(false),
                n => {
                    w.put_bool(true);
                    w.put_u32(n);
                }
            }
        }
    }

    /// Decodes an index written by [`MethodIndex::encode_snapshot`] for a
    /// database with `n_types` types and `n_methods` methods, restoring
    /// filled count cells and bounds-checking every id and count. Row
    /// entries must come in strictly increasing type order (a type has at
    /// most one entry, even an empty one).
    pub fn decode_snapshot(
        r: &mut Reader<'_>,
        n_types: usize,
        n_methods: usize,
    ) -> WireResult<Self> {
        let push_methods = |out: &mut Vec<MethodId>, rows: &[[u8; 4]], what: &str| {
            out.reserve(rows.len());
            for id in rows {
                out.push(MethodId::from_index(check_id(
                    u32::from_le_bytes(*id),
                    n_methods,
                    what,
                )?));
            }
            WireResult::Ok(())
        };
        let n_entries = r.get_len("method index entry count")?;
        let mut offsets = vec![0u32; n_types + 1];
        let mut rows = Vec::new();
        let mut next_ty = 0;
        for _ in 0..n_entries {
            let ty = r.get_id(n_types, "indexed parameter type")?;
            if ty < next_ty {
                return Err(WireError::new(format!(
                    "method index entry for type {ty} repeated or out of order"
                )));
            }
            // Rows between the previous entry and this one are empty.
            offsets[next_ty..=ty].fill(offset(rows.len()));
            push_methods(&mut rows, r.get_rows("indexed methods")?, "indexed method")?;
            next_ty = ty + 1;
        }
        offsets[next_ty..].fill(offset(rows.len()));
        let mut with_args = Vec::new();
        push_methods(
            &mut with_args,
            r.get_rows("with-args methods")?,
            "with-args method",
        )?;
        let n_memo = r.get_len("candidate memo count")?;
        if n_memo != n_types {
            return Err(WireError::new(format!(
                "candidate memo covers {n_memo} types but the table holds {n_types}"
            )));
        }
        let counts = unfilled_counts(n_types);
        for cell in counts.iter() {
            if r.get_bool("memo cell presence flag")? {
                let n = r.get_u32("memoized candidate count")?;
                if n as usize > n_methods {
                    return Err(WireError::new(format!(
                        "memoized candidate count {n} exceeds the {n_methods} methods"
                    )));
                }
                cell.store(n, Ordering::Relaxed);
            }
        }
        Ok(MethodIndex {
            rows: rows.into_boxed_slice(),
            offsets: offsets.into_boxed_slice(),
            with_args: with_args.into_boxed_slice(),
            counts,
        })
    }

    /// Methods with a parameter of *exactly* this type.
    pub fn exact(&self, ty: TypeId) -> &[MethodId] {
        match self.offsets.get(ty.index()..ty.index() + 2) {
            Some(&[start, end]) => &self.rows[start as usize..end as usize],
            _ => &[],
        }
    }

    /// Methods that can accept an argument of type `ty` in some position:
    /// the union of the exact entries of every implicit-conversion target of
    /// `ty`, ordered by type distance (near first) and deduplicated.
    ///
    /// Collecting wrapper around [`MethodIndex::candidates_for_with`], for
    /// tests and tools; the engine walks without collecting.
    pub fn candidates_for(&self, db: &Database, ty: TypeId) -> Vec<MethodId> {
        self.candidates_for_with(db, ty, &mut CandidateScratch::new())
            .collect()
    }

    /// The candidate walk: the exact rows of `ty`'s conversion targets in
    /// target order (distance, then id), each row in id order, every
    /// method at its first occurrence only. Allocation-free once `scratch`
    /// has grown to the method count.
    pub fn candidates_for_with<'a>(
        &'a self,
        db: &'a Database,
        ty: TypeId,
        scratch: &'a mut CandidateScratch,
    ) -> impl Iterator<Item = MethodId> + 'a {
        scratch.begin(db.method_count());
        db.types()
            .conversion_targets_ref(ty)
            .iter()
            .flat_map(move |&(target, _)| self.exact(target).iter().copied())
            .filter(move |m| scratch.mark(m.index()))
    }

    /// Length of the walk [`MethodIndex::candidates_for_with`] would make
    /// for `ty`, memoized per type: the first lookup walks (through
    /// `scratch`), every later one reads the cell. The "pick the argument
    /// with the smallest candidate set" heuristic of paper Section 4.2
    /// therefore compares true, deduplicated set sizes.
    ///
    /// # Panics
    ///
    /// Panics if `ty` was declared after this index was built; the index is
    /// a snapshot and must be rebuilt when the database grows.
    pub fn candidate_count(
        &self,
        db: &Database,
        ty: TypeId,
        scratch: &mut CandidateScratch,
    ) -> usize {
        pex_obs::counter!("index.candidates.lookups", 1);
        let cell = self
            .counts
            .get(ty.index())
            .expect("type declared after MethodIndex::build; rebuild the index");
        match cell.load(Ordering::Relaxed) {
            UNFILLED => {
                let n = offset(self.candidates_for_with(db, ty, scratch).count());
                // Racing workers compute the same count; only the one whose
                // store lands counts a fill, so the fill total equals the
                // number of distinct cells filled — deterministic for any
                // thread count. Hits are derived as lookups − fills.
                if cell
                    .compare_exchange(UNFILLED, n, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    pex_obs::counter!("index.candidates.fills", 1);
                }
                n as usize
            }
            n => n as usize,
        }
    }

    /// Fills every count cell, through one scratch.
    pub fn prewarm(&self, db: &Database) {
        let mut scratch = CandidateScratch::new();
        for t in 0..self.counts.len() {
            self.candidate_count(db, TypeId::from_index(t), &mut scratch);
        }
    }

    /// The fallback candidate set: every method with at least one argument
    /// position. Used when a query provides no typed argument at all.
    pub fn all_with_args(&self) -> &[MethodId] {
        &self.with_args
    }

    /// Rebuilds the index over an incrementally patched database, carrying
    /// over every memoized candidate count the edit cannot have changed.
    ///
    /// The rows and `with_args` rebuild wholesale (two linear passes over
    /// live methods); a count cell is retained for every type whose
    /// conversion-target list on the *new* table avoids `dirty` (dirty
    /// types ∪ dirty parameter types from the model diff): a walk changes
    /// only if some target's exact row moved (that target is a dirty
    /// parameter type) or the target list itself moved (some type on the
    /// new list is dirty — hierarchy edits dirty the edited type, which
    /// stays on the walk). Returns `(index, cells dropped, cells kept)`.
    ///
    /// Requires the new table's conversion index to be installed already.
    pub fn rebuild_after_update(
        &self,
        new_db: &Database,
        dirty: &HashSet<TypeId>,
    ) -> (MethodIndex, usize, usize) {
        let fresh = MethodIndex::build(new_db);
        let mut dropped = 0usize;
        let mut kept = 0usize;
        for (i, cell) in self.counts.iter().enumerate() {
            let n = cell.load(Ordering::Relaxed);
            if n == UNFILLED {
                continue;
            }
            if i >= fresh.counts.len() {
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
                fresh.counts[i].store(n, Ordering::Relaxed);
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
    fn memoized_counts_match_fresh_walk() {
        let db = setup();
        let idx = MethodIndex::build(&db);
        let mut scratch = CandidateScratch::new();
        // Repeated memo reads (first fills, then hits) must equal the
        // length of an uncached walk for every type.
        for _ in 0..2 {
            for ty in db.types().iter() {
                assert_eq!(
                    idx.candidate_count(&db, ty, &mut scratch),
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
        idx.candidate_count(&db, dog, &mut CandidateScratch::new());
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
        assert_eq!(
            decoded.candidate_count(&db, dog, &mut CandidateScratch::new()),
            idx.candidates_for(&db, dog).len()
        );
        let mut again = Writer::new();
        decoded.encode_snapshot(&mut again);
        assert_eq!(again.into_bytes(), bytes);
    }

    /// An encoded index over two types and two methods with the given
    /// `(type, methods)` entries, no with-args list and the given count
    /// cells.
    fn encoded(entries: &[(u32, &[u32])], counts: [Option<u32>; 2]) -> Vec<u8> {
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
        for count in counts {
            w.put_bool(count.is_some());
            if let Some(n) = count {
                w.put_u32(n);
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> WireResult<MethodIndex> {
        MethodIndex::decode_snapshot(&mut Reader::new(bytes), 2, 2)
    }

    #[test]
    fn decode_rejects_repeated_or_unordered_type_entries() {
        let idx = decode(&encoded(&[(0, &[]), (1, &[0, 1])], [None; 2])).unwrap();
        let (m0, m1) = (MethodId::from_index(0), MethodId::from_index(1));
        assert_eq!(idx.exact(TypeId::from_index(1)), &[m0, m1]);
        assert_eq!(idx.exact(TypeId::from_index(0)), &[]);

        for entries in [
            &[(1, &[0][..]), (1, &[1][..])][..],
            &[(1, &[][..]), (1, &[][..])],
            &[(1, &[][..]), (0, &[0][..]), (1, &[0, 1][..])],
            &[(1, &[0, 1][..]), (0, &[][..])],
        ] {
            let err = decode(&encoded(entries, [None; 2])).unwrap_err();
            assert!(
                err.to_string()
                    .contains("method index entry for type 1 repeated or out of order")
                    || err
                        .to_string()
                        .contains("method index entry for type 0 repeated or out of order"),
                "{err}"
            );
        }
    }

    #[test]
    fn decode_restores_counts_and_rejects_impossible_ones() {
        let idx = decode(&encoded(&[(1, &[0])], [Some(2), None])).unwrap();
        let mut w = Writer::new();
        idx.encode_snapshot(&mut w);
        assert_eq!(
            w.into_bytes(),
            encoded(&[(1, &[0])], [Some(2), None]),
            "filled and empty cells round-trip"
        );
        for n in [3, u32::MAX] {
            let err = decode(&encoded(&[], [None, Some(n)])).unwrap_err();
            assert!(
                err.to_string().contains(&format!(
                    "memoized candidate count {n} exceeds the 2 methods"
                )),
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
                    idx.candidates_for_with(&db, ty, &mut scratch)
                        .collect::<Vec<_>>(),
                    idx.candidates_for(&db, ty)
                );
            }
        }
    }
}
