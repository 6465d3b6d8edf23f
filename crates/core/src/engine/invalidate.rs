//! Surgical cache invalidation for incremental snapshot updates.
//!
//! [`refresh_derived`] takes the old and patched databases plus the
//! [`ModelDiff`] produced by `pex_model::minics::apply_update` and
//! rebuilds **only** the derived state the edit can actually have changed:
//!
//! - the [`ConversionIndex`] is partially
//!   rebuilt (rows whose target walk avoids the dirty types are reused)
//!   and only when a hierarchy edge moved at all;
//! - [`MethodIndex`] candidate-count cells survive unless their
//!   conversion-target walk intersects the dirty parameter/type set;
//! - successor-memo entries survive unless
//!   the keyed type's member-lookup chain (in either database) touches a
//!   dirty type;
//! - the [`ReachIndex`] and its pruner memo are rebuilt only when the
//!   reachability edge universe changed (reach is transitive, so any edge
//!   edit may move distances arbitrarily far away — partial rebuild is
//!   not sound there).
//!
//! Expressions are not part of any of these: each query interns into its
//! own arena, which dies with the query, so an update copies none.
//!
//! A signature-identical body edit therefore invalidates nothing, and the
//! per-call [`InvalidationStats`] lets the protocol layer prove it (the
//! `engine.invalidate.*` counters are cumulative; the stats are per
//! update).

use std::collections::HashSet;

use pex_model::minics::ModelDiff;
use pex_model::Database;
use pex_types::{ConversionIndex, TypeId};

use super::{EngineCache, MethodIndex, ReachIndex};

/// What one incremental refresh actually threw away, per cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidationStats {
    /// Successor-memo entries dropped (chain expansion cache).
    pub chains: usize,
    /// Successor-memo entries carried over.
    pub chains_kept: usize,
    /// Candidate-memo cells dropped from the method index.
    pub candidates: usize,
    /// Candidate-memo cells carried over.
    pub candidates_kept: usize,
    /// Conversion-index rows recomputed (0 when the hierarchy is
    /// untouched and the memoized index survives the database clone).
    pub conversions: usize,
    /// Whether the reachability index and its pruner memo were rebuilt.
    pub reach_rebuilt: bool,
}

impl InvalidationStats {
    /// Total entries invalidated across every cache.
    pub fn total(&self) -> usize {
        self.chains + self.candidates + self.conversions + usize::from(self.reach_rebuilt)
    }
}

/// Rebuilds the derived indexes and engine caches for `new_db`, reusing
/// everything the [`ModelDiff`] proves untouched. Emits the cumulative
/// `engine.invalidate.{chains,candidates,conversions,reach}` counters.
///
/// `old_db` must be the database the caches were built against and
/// `new_db` the output of `apply_update` on it; positional ids are stable
/// between the two, which is what makes carrying entries across sound.
pub fn refresh_derived(
    old_db: &Database,
    new_db: &mut Database,
    old_index: &MethodIndex,
    old_reach: &ReachIndex,
    old_cache: &EngineCache,
    diff: &ModelDiff,
) -> (MethodIndex, ReachIndex, EngineCache, InvalidationStats) {
    let mut stats = InvalidationStats::default();

    // Conversion index first: the candidate retention test below walks
    // conversion targets on the new table. Hierarchy mutators cleared the
    // cloned table's memo, so rebuild partially from the old index;
    // otherwise the memoized index survived `Database::clone` untouched.
    if diff.hierarchy_changed {
        let old_conv = old_db.types().conversion_index();
        let (conv, recomputed) =
            ConversionIndex::rebuild_partial(new_db.types(), old_conv, &diff.dirty_types);
        new_db.types_mut().set_conversion_index(conv);
        stats.conversions = recomputed;
    }

    // Dirty set for member-shaped caches: types whose member surface or
    // supertype edges moved, plus every parameter type a signature change
    // added or removed from the index.
    let dirty: HashSet<TypeId> = diff
        .dirty_types
        .iter()
        .chain(diff.dirty_param_types.iter())
        .copied()
        .collect();

    let (index, cand_dropped, cand_kept) = old_index.rebuild_after_update(new_db, &dirty);
    stats.candidates = cand_dropped;
    stats.candidates_kept = cand_kept;

    // Reach is transitive: a single edge edit can move distances for types
    // arbitrarily far upstream, so the index and its pruner tables rebuild
    // wholesale — but only when the edge universe actually changed.
    let reach = if diff.reach_changed {
        stats.reach_rebuilt = true;
        ReachIndex::build(new_db)
    } else {
        old_reach.clone()
    };

    let (chains, chains_dropped, chains_kept) =
        old_cache.chains.retain_for_update(old_db, new_db, &dirty);
    stats.chains = chains_dropped;
    stats.chains_kept = chains_kept;

    // Pruner tables key on `(link kind, filter)` and bake in per-type
    // admissibility + distances: stale whenever reach or conversions
    // moved, carried otherwise.
    let reach_memo = if diff.reach_changed || diff.hierarchy_changed {
        super::reach::ReachMemo::default()
    } else {
        old_cache.reach.carry()
    };

    let cache = EngineCache {
        chains,
        reach: reach_memo,
        ..EngineCache::default()
    };

    pex_obs::counter!("engine.invalidate.chains", stats.chains as u64);
    pex_obs::counter!("engine.invalidate.candidates", stats.candidates as u64);
    pex_obs::counter!("engine.invalidate.conversions", stats.conversions as u64);
    pex_obs::counter!("engine.invalidate.reach", u64::from(stats.reach_rebuilt));

    (index, reach, cache, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::{apply_update, compile};

    const BASE: &str = r#"
        namespace Geo {
            class Shape {
                double Scale;
                double GetArea() { return this.Scale; }
                int Rank() { return 1; }
            }
            class Circle : Geo.Shape {
                double Radius { get; set; }
                double GetArea() { return this.Radius; }
            }
            class Canvas {
                Geo.Circle Selected;
                void Clear();
            }
        }
    "#;

    fn warmed(db: &Database) -> (MethodIndex, ReachIndex, EngineCache) {
        let index = MethodIndex::build(db);
        let reach = ReachIndex::build(db);
        let cache = EngineCache::new();
        // Warm every per-type cell and successor entry so retention has
        // something to keep or drop.
        index.prewarm(db);
        for ty in db.types().iter() {
            let _ = cache.chains.successors(
                db,
                ty,
                crate::engine::chains::ChainLink::FieldsAndMethods,
                None,
            );
        }
        (index, reach, cache)
    }

    #[test]
    fn body_edit_invalidates_nothing() {
        let db = compile(BASE).unwrap();
        let (index, reach, cache) = warmed(&db);
        let edited = BASE.replace("return 1;", "return 2;");
        let (mut new_db, diff) = apply_update(&db, &edited).unwrap();
        assert_eq!(diff.body_edited.len(), 1);
        let (new_index, _, _, stats) =
            refresh_derived(&db, &mut new_db, &index, &reach, &cache, &diff);
        assert_eq!(stats.chains, 0, "{stats:?}");
        assert_eq!(stats.candidates, 0, "{stats:?}");
        assert_eq!(stats.conversions, 0, "{stats:?}");
        assert!(!stats.reach_rebuilt);
        assert!(stats.candidates_kept > 0);
        // Carried cells still count exactly what a fresh walk yields.
        let mut scratch = crate::CandidateScratch::new();
        for ty in new_db.types().iter() {
            assert_eq!(
                new_index.candidate_count(&new_db, ty, &mut scratch),
                new_index.candidates_for(&new_db, ty).len()
            );
        }
    }

    #[test]
    fn signature_change_drops_only_affected_entries() {
        let db = compile(BASE).unwrap();
        let (index, reach, cache) = warmed(&db);
        // Change Rank's return type: Shape's member surface moves, and the
        // zero-arg return edge changes reachability.
        let edited = BASE.replace("int Rank() { return 1; }", "double Rank() { return 0.5; }");
        let (mut new_db, diff) = apply_update(&db, &edited).unwrap();
        assert_eq!(diff.signatures_changed, 1);
        let (new_index, new_reach, new_cache, stats) =
            refresh_derived(&db, &mut new_db, &index, &reach, &cache, &diff);
        assert!(stats.chains > 0, "Shape/Circle chain entries are stale");
        assert!(stats.chains_kept > 0, "unrelated types keep theirs");
        assert!(stats.reach_rebuilt);
        assert_eq!(new_reach, ReachIndex::build(&new_db));
        // Every surviving and rebuilt answer matches a cold rebuild.
        let cold_index = MethodIndex::build(&new_db);
        let mut scratch = crate::CandidateScratch::new();
        for ty in new_db.types().iter() {
            assert_eq!(
                new_index.candidate_count(&new_db, ty, &mut scratch),
                cold_index.candidates_for(&new_db, ty).len(),
                "candidate counts diverge for {}",
                new_db.types().qualified_name(ty)
            );
            let fresh = new_cache.chains.successors(
                &new_db,
                ty,
                crate::engine::chains::ChainLink::FieldsAndMethods,
                None,
            );
            let cold = EngineCache::new().chains.successors(
                &new_db,
                ty,
                crate::engine::chains::ChainLink::FieldsAndMethods,
                None,
            );
            assert_eq!(fresh.as_ref(), cold.as_ref());
        }
    }

    #[test]
    fn hierarchy_change_partially_rebuilds_conversions() {
        let db = compile(BASE).unwrap();
        // Force the old conversion index so the partial rebuild has rows
        // to reuse.
        let _ = db.types().conversion_index();
        let (index, reach, cache) = warmed(&db);
        let edited = BASE.replace("class Circle : Geo.Shape {", "class Circle {");
        let (mut new_db, diff) = apply_update(&db, &edited).unwrap();
        assert!(diff.hierarchy_changed);
        let (_, _, _, stats) = refresh_derived(&db, &mut new_db, &index, &reach, &cache, &diff);
        assert!(stats.conversions > 0, "Circle's row was recomputed");
        assert!(
            stats.conversions < new_db.types().len(),
            "most rows were reused: {stats:?}"
        );
        // The installed index matches a cold build.
        let cold = ConversionIndex::build(new_db.types());
        for ty in new_db.types().iter() {
            assert_eq!(
                new_db.types().conversion_index().targets(ty),
                cold.targets(ty),
                "conversion row diverges for {}",
                new_db.types().qualified_name(ty)
            );
        }
    }
}
