//! The shared, immutable artefact a serve process answers queries from.
//!
//! A [`Snapshot`] is loaded **once** at startup — code model, method index,
//! reachability index, default query context and its abstract-type
//! inference — and then shared by every worker behind an `Arc`. Loading
//! also *prewarms* the lazily built caches (the [`pex_types`] conversion
//! index and the per-type candidate-count memo), so the first request a client
//! sends pays the same latency as the thousandth: no cold-cache cliff
//! inside the serving path.

use std::path::PathBuf;
use std::sync::Arc;

use pex_abstract::AbsTypes;
use pex_core::{EngineCache, InvalidationStats, MethodIndex, ReachIndex};
use pex_corpus::builtin;
use pex_model::minics::MiniCsError;
use pex_model::{Context, Database, Local, MethodId};

/// Where a snapshot's code model comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotSource {
    /// The builtin mini Paint.NET corpus (the paper's running example).
    Paint,
    /// The builtin dynamic-geometry corpus (Figure 3).
    Geometry,
    /// The builtin Family.Show corpus.
    FamilyShow,
    /// A mini-C# source file.
    File(PathBuf),
}

impl SnapshotSource {
    /// Parses a CLI corpus argument (same surface as `pex-repl`).
    pub fn from_arg(arg: &str) -> SnapshotSource {
        match arg {
            "paint" => SnapshotSource::Paint,
            "geometry" => SnapshotSource::Geometry,
            "familyshow" => SnapshotSource::FamilyShow,
            path => SnapshotSource::File(PathBuf::from(path)),
        }
    }

    /// Short display name for logs and metrics config.
    pub fn name(&self) -> String {
        match self {
            SnapshotSource::Paint => "paint".into(),
            SnapshotSource::Geometry => "geometry".into(),
            SnapshotSource::FamilyShow => "familyshow".into(),
            SnapshotSource::File(p) => p.display().to_string(),
        }
    }
}

/// What one incremental update did to a snapshot: the model-level edit
/// accounting plus exactly how much derived state it invalidated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// The update changed nothing: no new snapshot was produced and zero
    /// cache entries were invalidated.
    pub noop: bool,
    /// Per-cache invalidation counts (all zero for a no-op or a pure
    /// body edit).
    pub invalidated: InvalidationStats,
    /// Types declared by the update that did not exist before.
    pub types_added: usize,
    /// Members added by the update.
    pub members_added: usize,
    /// Members tombstoned by the update.
    pub members_removed: usize,
    /// Member signatures overwritten in place.
    pub signatures_changed: usize,
    /// Method bodies changed under an untouched signature.
    pub bodies_edited: usize,
}

impl UpdateStats {
    /// Folds another edit's stats into this one (batch `edits` form).
    pub fn absorb(&mut self, other: &UpdateStats) {
        self.noop = self.noop && other.noop;
        self.invalidated.chains += other.invalidated.chains;
        self.invalidated.chains_kept += other.invalidated.chains_kept;
        self.invalidated.candidates += other.invalidated.candidates;
        self.invalidated.candidates_kept += other.invalidated.candidates_kept;
        self.invalidated.conversions += other.invalidated.conversions;
        self.invalidated.reach_rebuilt |= other.invalidated.reach_rebuilt;
        self.types_added += other.types_added;
        self.members_added += other.members_added;
        self.members_removed += other.members_removed;
        self.signatures_changed += other.signatures_changed;
        self.bodies_edited += other.bodies_edited;
    }
}

/// The immutable state shared by all serve workers: one code model plus
/// every index the engine consults, fully warmed.
#[derive(Debug)]
pub struct Snapshot {
    /// The code model under completion.
    pub db: Database,
    /// The Figure 8 parameter-type → method index (built once).
    pub index: MethodIndex,
    /// Type-reachability index for chain pruning (built once).
    pub reach: ReachIndex,
    /// The context used when a request does not carry its own locals.
    pub default_ctx: Context,
    /// The enclosing method of the default context, if any.
    pub enclosing: Option<MethodId>,
    /// The Lackwit-style abstract types for the default query site: every
    /// body of `db`, `enclosing`'s included (`None` without a site). Built
    /// with the snapshot, so it always describes this `db`.
    pub site_abs: Option<AbsTypes>,
    /// Shared engine cache: the type-keyed chain successor memo and
    /// reachability pruning tables. Every request completes through this
    /// cache, so member walks done by one request are free for the next —
    /// including concurrent requests on other workers. Expressions are
    /// not shared: each request interns into an arena of its own.
    pub cache: EngineCache,
    /// Human-readable source label.
    pub name: String,
}

impl Snapshot {
    /// Loads and prewarms a snapshot. Errors are human-readable strings
    /// (unreadable file, mini-C# compile error).
    pub fn load(source: &SnapshotSource) -> Result<Arc<Snapshot>, String> {
        let (db, default_ctx, enclosing) = match source {
            SnapshotSource::Paint => {
                let db = builtin::paint_dot_net();
                let (ctx, m) = builtin::paint_query_site(&db);
                (db, ctx, Some(m))
            }
            SnapshotSource::Geometry => {
                let db = builtin::dynamic_geometry();
                let ctx = builtin::geometry_fig3_context(&db);
                (db, ctx, None)
            }
            SnapshotSource::FamilyShow => {
                let db = builtin::family_show();
                (db, Context::empty(), None)
            }
            SnapshotSource::File(path) => {
                // A misspelled builtin name ("piant") falls through
                // `from_arg` to the file branch, so the read error also
                // names the builtins the caller may have meant.
                let source = std::fs::read_to_string(path).map_err(|e| {
                    format!(
                        "cannot read {}: {e} (builtin corpora: paint, geometry, familyshow)",
                        path.display()
                    )
                })?;
                let db = pex_model::minics::compile(&source)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                (db, Context::empty(), None)
            }
        };
        Ok(Arc::new(Snapshot::from_database(
            source.name(),
            db,
            default_ctx,
            enclosing,
        )))
    }

    /// Builds and prewarms a snapshot around an already-compiled database
    /// (used by [`Snapshot::load`] and by the benchmark's in-process
    /// replay, `perfbench/src/replay.rs`).
    pub fn from_database(
        name: String,
        db: Database,
        default_ctx: Context,
        enclosing: Option<MethodId>,
    ) -> Snapshot {
        let _span = pex_obs::span("serve.snapshot.load");
        let index = MethodIndex::build(&db);
        let reach = ReachIndex::build(&db);
        let snapshot = Snapshot::assemble(
            name,
            db,
            index,
            reach,
            default_ctx,
            enclosing,
            EngineCache::new(),
        );
        snapshot.prewarm();
        snapshot
    }

    /// Assembles a snapshot from its parts and infers the abstract types
    /// of its default query site. Every snapshot — built, patched or
    /// decoded — is assembled here, so `site_abs` always matches `db`.
    pub(crate) fn assemble(
        name: String,
        db: Database,
        index: MethodIndex,
        reach: ReachIndex,
        default_ctx: Context,
        enclosing: Option<MethodId>,
        cache: EngineCache,
    ) -> Snapshot {
        let site_abs = enclosing.map(|m| AbsTypes::for_query(&db, m, usize::MAX));
        Snapshot {
            db,
            index,
            reach,
            default_ctx,
            enclosing,
            site_abs,
            cache,
            name,
        }
    }

    /// Forces the lazily built caches so no request pays for a cold fill:
    /// the conversion index (one Dijkstra over the conversion graph) and
    /// the per-type candidate-count memo (one cell per type).
    fn prewarm(&self) {
        let _span = pex_obs::span("serve.snapshot.prewarm");
        let _ = self.db.types().conversion_index();
        self.index.prewarm(&self.db);
        pex_obs::counter!("serve.snapshot.prewarmed", 1);
    }

    /// Applies one incremental source update, producing a **new** snapshot
    /// that shares every cache entry the edit provably left valid (see
    /// [`pex_core::refresh_derived`]); `self` is never touched, so a parse
    /// or resolution error leaves the serving snapshot byte-identical and
    /// in-flight requests keep draining against it — the same discipline
    /// as a registry hot swap.
    ///
    /// Returns `(None, stats)` when the update is a no-op (the caller
    /// keeps serving the existing snapshot and reports zero
    /// invalidations), or `(Some(snapshot), stats)` with the patched
    /// snapshot otherwise.
    ///
    /// # Errors
    ///
    /// Any mini-C# parse or resolution error, with its 1-based source
    /// position — the protocol layer renders it as a `parse_error`.
    pub fn apply_update(
        &self,
        source: &str,
    ) -> Result<(Option<Snapshot>, UpdateStats), MiniCsError> {
        let _span = pex_obs::span("serve.snapshot.update");
        let (mut db, diff) = pex_model::minics::apply_update(&self.db, source)?;
        let mut stats = UpdateStats {
            noop: diff.is_noop(),
            types_added: diff.types_added,
            members_added: diff.members_added,
            members_removed: diff.members_removed,
            signatures_changed: diff.signatures_changed,
            bodies_edited: diff.body_edited.len(),
            ..UpdateStats::default()
        };
        if stats.noop {
            pex_obs::counter!("serve.snapshot.update.noops", 1);
            return Ok((None, stats));
        }
        let (index, reach, cache, invalidated) = pex_core::refresh_derived(
            &self.db,
            &mut db,
            &self.index,
            &self.reach,
            &self.cache,
            &diff,
        );
        stats.invalidated = invalidated;
        let snapshot = Snapshot::assemble(
            self.name.clone(),
            db,
            index,
            reach,
            self.default_ctx.clone(),
            self.enclosing,
            cache,
        );
        // Refill only what the edit dropped: carried count cells are
        // already filled, so prewarm cost is proportional to the dirty set — and
        // a zero-invalidation edit (body-only) carried everything, so the
        // sweep itself can be skipped.
        if stats.invalidated.total() > 0 || stats.invalidated.reach_rebuilt {
            snapshot.prewarm();
        }
        pex_obs::counter!("serve.snapshot.update.applied", 1);
        Ok((Some(snapshot), stats))
    }

    /// A coarse estimate of this snapshot's resident size in bytes, for
    /// the registry's `--max-snapshot-bytes` LRU accounting.
    ///
    /// The estimate is structural — per-entry costs for the type table,
    /// members, method bodies and the candidate memo — not a heap census.
    /// It only has to be *monotone* in corpus size and stable across runs
    /// so eviction order is deterministic; it does not grow with traffic,
    /// since no query's expressions outlive the query. Tenants loaded
    /// from a `pex-snapshot` file use the file's exact byte length
    /// instead (the file contains the same model + index payload this
    /// approximates).
    pub fn approx_bytes(&self) -> u64 {
        let types = self.db.types().len() as u64;
        let fields = self.db.field_count() as u64;
        let methods = self.db.method_count() as u64;
        // Rough per-entry footprints: a type row plus its conversion-index
        // and candidate-memo shares; a member signature; a parsed method
        // body.
        types * 512 + fields * 96 + methods * 768 + 4096
    }

    /// The context for one request: the default context, or one rebuilt
    /// from `name:Qualified.Type` local specs when the request carries any.
    pub fn context_for(&self, locals: &[String]) -> Result<Context, String> {
        if locals.is_empty() {
            return Ok(self.default_ctx.clone());
        }
        let mut out = Vec::new();
        for spec in locals {
            let Some((name, ty_name)) = spec.split_once(':') else {
                return Err(format!("local `{spec}` must be name:Qualified.Type"));
            };
            let Some(ty) = self.db.types().lookup_qualified(ty_name) else {
                return Err(format!("unknown type `{ty_name}`"));
            };
            out.push(Local {
                name: name.to_owned(),
                ty,
            });
        }
        Ok(Context::with_locals(None, out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_and_prewarms_builtin_corpora() {
        let snap = Snapshot::load(&SnapshotSource::Paint).unwrap();
        assert!(snap.db.method_count() > 0);
        assert!(!snap.default_ctx.locals.is_empty());
        assert_eq!(snap.name, "paint");
    }

    #[test]
    fn source_args_parse_like_the_repl() {
        assert_eq!(SnapshotSource::from_arg("paint"), SnapshotSource::Paint);
        assert_eq!(
            SnapshotSource::from_arg("geometry"),
            SnapshotSource::Geometry
        );
        assert_eq!(
            SnapshotSource::from_arg("x/y.mcs"),
            SnapshotSource::File(PathBuf::from("x/y.mcs"))
        );
    }

    #[test]
    fn missing_files_error_instead_of_panicking() {
        let err = Snapshot::load(&SnapshotSource::File(PathBuf::from(
            "/nonexistent/code.mcs",
        )))
        .unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn misspelled_builtin_names_suggest_the_valid_ones() {
        // "piant" is not a builtin, so it is treated as a file path; the
        // error must list the names the user probably meant.
        let err = Snapshot::load(&SnapshotSource::from_arg("piant")).unwrap_err();
        assert!(err.contains("cannot read piant"), "{err}");
        for name in ["paint", "geometry", "familyshow"] {
            assert!(err.contains(name), "missing `{name}` hint in: {err}");
        }
    }

    #[test]
    fn approx_bytes_is_nonzero_and_grows_with_the_corpus() {
        let paint = Snapshot::load(&SnapshotSource::Paint).unwrap();
        assert!(paint.approx_bytes() > 0);
        // A strictly larger code model must account as strictly larger, so
        // LRU eviction order under a byte budget is meaningful.
        let empty = Snapshot::from_database(
            "empty".into(),
            pex_model::minics::compile("").unwrap(),
            Context::empty(),
            None,
        );
        assert!(paint.approx_bytes() > empty.approx_bytes());
    }

    #[test]
    fn request_locals_override_the_default_context() {
        let snap = Snapshot::load(&SnapshotSource::Geometry).unwrap();
        let ctx = snap.context_for(&[]).unwrap();
        assert_eq!(ctx.locals.len(), snap.default_ctx.locals.len());
        // A bad spec errors rather than silently loading nothing.
        assert!(snap.context_for(&["noColon".into()]).is_err());
        assert!(snap.context_for(&["p:No.Such.Type".into()]).is_err());
    }
}
