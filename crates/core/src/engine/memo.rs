//! Cross-query memoization of chain successors.
//!
//! Every chain expansion asks the same question: *from a value of type `T`,
//! which members can extend the chain, and what type does each produce?*
//! The answer depends only on `(T, link kind, accessing type)` — never on
//! the particular root expression or its score — so it is sound to compute
//! it once and reuse it for every state of that type, within a query and
//! across queries. A [`SuccessorMemo`] stores those answers; in `pex-serve`
//! one lives in the snapshot's [`super::EngineCache`] so concurrent requests
//! share the filled table instead of re-walking member lists.
//!
//! The memo preserves the database's member iteration order (fields in
//! lookup-chain order, then zero-argument methods), which is what keeps the
//! memoized and direct expansions row-for-row identical.

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock};

use pex_model::{Database, FieldId, MethodId};
use pex_types::TypeId;

use super::chains::ChainLink;

/// One memoized chain successor: the member to append and the type it
/// produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SuccStep {
    /// The member appended to the chain.
    pub member: ChainMember,
    /// Static type of the extended chain.
    pub ty: TypeId,
}

/// A chain-extending member.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChainMember {
    /// An instance field/property lookup.
    Field(FieldId),
    /// A zero-argument instance call.
    Call0(MethodId),
}

type Key = (TypeId, ChainLink, Option<TypeId>);

/// Memo of chain successors per `(type, link kind, accessing type)`.
///
/// Thread-safe (requests on different workers share one memo through the
/// snapshot); entries are immutable `Arc` slices so readers never hold the
/// lock while expanding. Each entry is inserted whole in one step, so a
/// panic under the lock cannot tear one: a poisoned lock is recovered.
#[derive(Debug, Default)]
pub(crate) struct SuccessorMemo {
    entries: RwLock<HashMap<Key, Arc<[SuccStep]>>>,
}

impl SuccessorMemo {
    /// The successors of `ty` under `links`, as seen from `from` —
    /// computed on first request, shared thereafter.
    pub(crate) fn successors(
        &self,
        db: &Database,
        ty: TypeId,
        links: ChainLink,
        from: Option<TypeId>,
    ) -> Arc<[SuccStep]> {
        let key = (ty, links, from);
        if let Some(hit) = self
            .entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            pex_obs::counter!("engine.chain.memo.hits", 1);
            return Arc::clone(hit);
        }
        let mut steps = Vec::new();
        for f in db.instance_fields(ty, from) {
            steps.push(SuccStep {
                member: ChainMember::Field(f),
                ty: db.field(f).ty(),
            });
        }
        if links == ChainLink::FieldsAndMethods {
            for m in db.zero_arg_instance_methods(ty, from) {
                steps.push(SuccStep {
                    member: ChainMember::Call0(m),
                    ty: db.method(m).return_type(),
                });
            }
        }
        let steps: Arc<[SuccStep]> = steps.into();
        pex_obs::counter!("engine.chain.memo.fills", 1);
        let mut entries = self.entries.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(entries.entry(key).or_insert(steps))
    }

    /// Number of filled entries (test/diagnostic aid).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Clones the memo for an incrementally patched database, keeping
    /// every entry whose keyed type's member-lookup chain — in **both**
    /// the old and the new database — avoids the dirty type set.
    ///
    /// An entry's value depends only on the member lists (and their
    /// accessibility) of the types on the keyed type's lookup chain; a
    /// chain can only change shape at a type whose own supertype edges
    /// changed, and such a type is dirty and still on the prefix of both
    /// chains — so checking both chains against the dirty set is a sound
    /// staleness test. Returns `(retained memo, dropped, kept)`.
    pub(crate) fn retain_for_update(
        &self,
        old_db: &Database,
        new_db: &Database,
        dirty: &std::collections::HashSet<TypeId>,
    ) -> (SuccessorMemo, usize, usize) {
        let entries = self.entries.read().unwrap_or_else(PoisonError::into_inner);
        let mut kept: HashMap<Key, Arc<[SuccStep]>> = HashMap::with_capacity(entries.len());
        let mut dropped = 0usize;
        let chain_hits = |db: &Database, ty: TypeId| {
            db.member_lookup_chain(ty).iter().any(|t| dirty.contains(t))
        };
        for (key, steps) in entries.iter() {
            let ty = key.0;
            if !dirty.is_empty() && (chain_hits(old_db, ty) || chain_hits(new_db, ty)) {
                dropped += 1;
            } else {
                kept.insert(*key, Arc::clone(steps));
            }
        }
        let n_kept = kept.len();
        (
            SuccessorMemo {
                entries: RwLock::new(kept),
            },
            dropped,
            n_kept,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;

    #[test]
    fn memo_matches_direct_member_walk_and_fills_once() {
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
        let memo = SuccessorMemo::default();
        let a = memo.successors(&db, line, ChainLink::FieldsAndMethods, None);
        // Direct walk, same order.
        let mut expected = Vec::new();
        for f in db.instance_fields(line, None) {
            expected.push(SuccStep {
                member: ChainMember::Field(f),
                ty: db.field(f).ty(),
            });
        }
        for m in db.zero_arg_instance_methods(line, None) {
            expected.push(SuccStep {
                member: ChainMember::Call0(m),
                ty: db.method(m).return_type(),
            });
        }
        assert_eq!(a.as_ref(), expected.as_slice());
        assert_eq!(memo.len(), 1);
        // Second request is a hit on the same allocation.
        let b = memo.successors(&db, line, ChainLink::FieldsAndMethods, None);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(memo.len(), 1);
        // Fields-only is a different key with no methods.
        let c = memo.successors(&db, line, ChainLink::Fields, None);
        assert!(c.iter().all(|s| matches!(s.member, ChainMember::Field(_))));
        assert_eq!(memo.len(), 2);
    }
}
