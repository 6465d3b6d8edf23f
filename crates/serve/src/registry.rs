//! The multi-tenant snapshot registry: many projects, one process.
//!
//! A [`SnapshotRegistry`] maps project ids to [`Arc<Snapshot>`]s so a
//! fleet of independent corpora can share one daemon. Every tenant is one
//! entry in that map, the default tenant included:
//!
//! * **Default tenant.** The snapshot the process booted with (corpus
//!   argument or `--load-snapshot`) is the entry `default`, which every
//!   request without a `project` field resolves to — the single-tenant
//!   protocol is the degenerate case, byte-for-byte. The entry is
//!   *pinned*: it is accounted at 0 bytes, never evicted, and listed first.
//! * **Lazy load.** A request naming a project not yet resident loads
//!   `<project>.pexsnap` from `--snapshot-dir` on demand (the
//!   `pex-snapshot` format, full validation — see [`crate::persist`]).
//!   Project ids are validated against a conservative alphabet first, so
//!   a request can never path-traverse out of the snapshot directory.
//! * **LRU eviction.** Each unpinned tenant is accounted at its snapshot
//!   file's byte length (or [`Snapshot::approx_bytes`] for tenants
//!   inserted or edited in memory). When residency would exceed
//!   `--max-snapshot-bytes`, least-recently-used tenants are dropped
//!   from the map. In-flight requests keep their own `Arc` clones, so an
//!   evicted snapshot's memory is actually released when the last request
//!   against it completes — eviction never interrupts a query.
//! * **Hot swap.** [`SnapshotRegistry::reload`] rebuilds a tenant from
//!   its [`Origin`] and atomically flips the `Arc` in the map. Requests
//!   admitted before the flip drain against the old snapshot; requests
//!   admitted after see the new one. No request is ever dropped or
//!   answered from a half-swapped state, because a worker resolves its
//!   `Arc<Snapshot>` exactly once per request, and the snapshot carries
//!   everything the request reads (its site inference included).
//!
//! Observability: `serve.registry.{loads,evictions,reloads}` counters,
//! `serve.registry.{resident,resident_bytes}` gauges, and per-tenant
//! `serve.tenant.<id>.*` counters named via [`pex_obs::scoped_name`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pex_model::minics::MiniCsError;

use crate::snapshot::{Snapshot, SnapshotSource, UpdateStats};
use crate::{lock, persist};

/// The tenant id requests without a `project` field resolve to, used in
/// per-tenant metrics and the `stats`/`health` tenant tables.
pub const DEFAULT_TENANT: &str = "default";

/// Where a tenant's snapshot came from, so `reload` can rebuild it the
/// same way. Tenants inserted in memory have none and cannot be reloaded.
#[derive(Debug, Clone)]
pub enum Origin {
    /// Built from a corpus source (builtin name or mini-C# file), with the
    /// `--local` declarations applied on top.
    Source {
        /// The corpus the daemon booted from.
        source: SnapshotSource,
        /// `--local name:Type` declarations folded into the default context.
        locals: Vec<String>,
    },
    /// Loaded from a `pex-snapshot` file: `--load-snapshot`, or a
    /// `.pexsnap` from `--snapshot-dir`.
    File {
        /// The snapshot file.
        path: PathBuf,
        /// `--local name:Type` declarations folded into the default context.
        locals: Vec<String>,
    },
}

impl Origin {
    /// Rebuilds the snapshot and measures it: a snapshot file's byte
    /// length, or [`Snapshot::approx_bytes`] for a corpus source.
    fn rebuild(&self) -> Result<(Arc<Snapshot>, u64), String> {
        let (loaded, bytes, locals) = match self {
            Origin::Source { source, locals } => {
                let loaded = Snapshot::load(source)?;
                let bytes = loaded.approx_bytes();
                (loaded, bytes, locals)
            }
            Origin::File { path, locals } => {
                let bytes = std::fs::metadata(path)
                    .map_err(|e| format!("cannot read {}: {e}", path.display()))?
                    .len();
                (persist::load(path)?, bytes, locals)
            }
        };
        Ok((apply_locals(loaded, locals)?, bytes))
    }
}

/// Rebuilds a freshly loaded snapshot's default context from `--local`
/// declarations (the same transformation `pex-serve` applies at boot).
pub fn apply_locals(snapshot: Arc<Snapshot>, locals: &[String]) -> Result<Arc<Snapshot>, String> {
    if locals.is_empty() {
        return Ok(snapshot);
    }
    let ctx = snapshot.context_for(locals)?;
    let inner = Arc::try_unwrap(snapshot)
        .unwrap_or_else(|_| panic!("freshly loaded snapshot has one owner"));
    Ok(Arc::new(Snapshot {
        default_ctx: ctx,
        ..inner
    }))
}

/// One resident tenant: the live snapshot, where it came from, its byte
/// accounting and its LRU clock reading.
struct TenantEntry {
    snapshot: Arc<Snapshot>,
    origin: Option<Origin>,
    bytes: u64,
    last_used: u64,
    /// The snapshot carries incremental edits not present in its origin.
    /// Dirty tenants are exempt from LRU eviction and refuse a plain
    /// `reload` — both would silently discard the edits.
    dirty: bool,
    /// The default tenant: accounted at 0 bytes, never evicted, listed
    /// first, and not among the [`SnapshotRegistry::resident_names`].
    pinned: bool,
    /// How many times this entry's snapshot has been swapped (reload or
    /// update) since the tenant became resident.
    generation: u64,
}

/// Total accounted bytes of the tenants in `tenants`.
fn total_bytes(tenants: &HashMap<String, TenantEntry>) -> u64 {
    tenants.values().map(|e| e.bytes).sum()
}

/// What a successful [`SnapshotRegistry::reload`] reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadInfo {
    /// The tenant that was swapped.
    pub project: String,
    /// Size of the fresh snapshot, in bytes.
    pub bytes: u64,
    /// Whether the tenant was already resident (a true hot swap) rather
    /// than a first load.
    pub swapped: bool,
    /// Whether the reload discarded unsaved incremental edits (only
    /// possible with `force`).
    pub discarded_edits: bool,
}

/// Why a [`SnapshotRegistry::reload`] was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadError {
    /// The tenant carries incremental edits a plain reload would silently
    /// discard; retry with `force` to discard them explicitly.
    Dirty {
        /// The tenant that refused.
        project: String,
    },
    /// The rebuild itself failed (missing origin, bad file, invalid id).
    Failed(String),
}

impl std::fmt::Display for ReloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReloadError::Dirty { project } => write!(
                f,
                "tenant `{project}` has unsaved incremental edits; \
                 reload with \"force\":true to discard them"
            ),
            ReloadError::Failed(msg) => f.write_str(msg),
        }
    }
}

/// What a successful [`SnapshotRegistry::update`] reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateInfo {
    /// The tenant that was edited.
    pub project: String,
    /// How many edits in the batch were applied (no-ops included).
    pub applied: usize,
    /// Whether the whole batch was a no-op (snapshot untouched).
    pub noop: bool,
    /// Accounted size of the edited snapshot, in bytes.
    pub bytes: u64,
    /// The tenant's swap count after the update (see
    /// [`SnapshotRegistry::generation`]).
    pub generation: u64,
    /// Aggregated per-edit statistics: what was invalidated and what
    /// survived.
    pub stats: UpdateStats,
}

/// Why a [`SnapshotRegistry::update`] was refused. Either way the
/// tenant's snapshot is untouched and subsequent queries answer exactly
/// as before the attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The edited source failed to parse or resolve; position is 1-based.
    Parse {
        /// Line of the first error.
        line: u32,
        /// Column of the first error.
        col: u32,
        /// Human-readable description.
        message: String,
    },
    /// Anything else: unknown tenant, invalid project id, empty batch.
    Failed(String),
}

impl From<MiniCsError> for UpdateError {
    fn from(e: MiniCsError) -> UpdateError {
        UpdateError::Parse {
            line: e.line,
            col: e.col,
            message: e.msg,
        }
    }
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::Parse { line, col, message } => {
                write!(f, "{line}:{col}: {message}")
            }
            UpdateError::Failed(msg) => f.write_str(msg),
        }
    }
}

/// Point-in-time description of one tenant for `stats`/`health`.
#[derive(Debug, Clone)]
pub struct TenantInfo {
    /// The tenant id (`default` for the pinned default tenant).
    pub project: String,
    /// Accounted bytes (0 for the pinned default tenant).
    pub bytes: u64,
    /// Whether this is the pinned, budget-exempt default tenant.
    pub pinned: bool,
    /// Whether the tenant carries incremental edits not yet persisted to
    /// its origin.
    pub dirty: bool,
}

/// The tenant map: a pinned default tenant plus named tenants with lazy
/// load, LRU eviction under a byte budget, and atomic hot swap. See the
/// module docs for the full semantics.
pub struct SnapshotRegistry {
    /// Locked with [`lock`], which recovers it after a panic: the tenant
    /// map is the registry's only state, and every change to it is a
    /// single `insert` or `remove` that leaves it whole.
    tenants: Mutex<HashMap<String, TenantEntry>>,
    /// Serializes incremental updates: each edit reads the current
    /// snapshot, patches it, and swaps — holding this across the
    /// read-patch-swap keeps concurrent edits from losing each other.
    /// Queries never take it. It guards no data, so [`lock`] recovers it.
    update_lock: Mutex<()>,
    snapshot_dir: Option<PathBuf>,
    max_bytes: Option<u64>,
    /// LRU clock: monotonically increasing tick, one per tenant access.
    clock: AtomicU64,
}

impl SnapshotRegistry {
    /// A registry over a default snapshot, its rebuild origin, and the
    /// optional tenant directory and byte budget.
    pub fn new(
        default: Arc<Snapshot>,
        origin: Option<Origin>,
        snapshot_dir: Option<PathBuf>,
        max_bytes: Option<u64>,
    ) -> SnapshotRegistry {
        let entry = TenantEntry {
            snapshot: default,
            origin,
            bytes: 0,
            last_used: 0,
            dirty: false,
            pinned: true,
            generation: 0,
        };
        SnapshotRegistry {
            tenants: Mutex::new(HashMap::from([(DEFAULT_TENANT.to_owned(), entry)])),
            update_lock: Mutex::new(()),
            snapshot_dir,
            max_bytes,
            clock: AtomicU64::new(0),
        }
    }

    /// A single-tenant registry with no tenant directory and no reload
    /// origin, for tests and the in-process bench.
    pub fn single(default: Arc<Snapshot>) -> SnapshotRegistry {
        SnapshotRegistry::new(default, None, None, None)
    }

    /// The current default snapshot (requests without a `project` field).
    pub fn default_snapshot(&self) -> Arc<Snapshot> {
        self.get(None).expect("the default tenant is pinned")
    }

    /// How many times `project`'s snapshot has been swapped (reload or
    /// update) since it became resident; `None` when it is not resident.
    /// `None` for `project` is the default tenant.
    pub fn generation(&self, project: Option<&str>) -> Option<u64> {
        let tenant = project.unwrap_or(DEFAULT_TENANT);
        lock(&self.tenants).get(tenant).map(|e| e.generation)
    }

    /// Resolves the snapshot for a request. `None` is the default tenant;
    /// any id is looked up in the tenant map and lazily loaded from
    /// `--snapshot-dir` on a miss.
    pub fn get(&self, project: Option<&str>) -> Result<Arc<Snapshot>, String> {
        let tenant = project.unwrap_or(DEFAULT_TENANT);
        validate_project_id(tenant)?;
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(entry) = lock(&self.tenants).get_mut(tenant) {
            entry.last_used = tick;
            if !entry.pinned {
                tenant_counter(tenant, "hits", 1);
            }
            return Ok(Arc::clone(&entry.snapshot));
        }
        // Miss: load outside the lock so resident tenants keep serving
        // while the file is read and validated. Two racing loaders may
        // both decode the file; the second install wins and both callers
        // get a working snapshot — wasted work, never a wrong answer.
        let (snapshot, bytes, origin) = self.load_from_dir(tenant)?;
        self.install(tenant, Arc::clone(&snapshot), bytes, Some(origin), false);
        Ok(snapshot)
    }

    /// The tenant per-tenant metrics file `project` under, if the registry
    /// holds it right now (`None` is the default tenant), and `None` for
    /// anything else — so a client-chosen `project` string never mints a
    /// metric.
    pub fn resident_tenant<'a>(&self, project: Option<&'a str>) -> Option<&'a str> {
        let tenant = project.unwrap_or(DEFAULT_TENANT);
        lock(&self.tenants).contains_key(tenant).then_some(tenant)
    }

    /// Reads and validates `<project>.pexsnap` from the snapshot dir.
    fn load_from_dir(&self, project: &str) -> Result<(Arc<Snapshot>, u64, Origin), String> {
        let Some(dir) = &self.snapshot_dir else {
            return Err(format!(
                "unknown project `{project}` (no --snapshot-dir configured; \
                 resident tenants: {})",
                self.resident_names().join(", ")
            ));
        };
        let origin = Origin::File {
            path: dir.join(format!("{project}.pexsnap")),
            locals: Vec::new(),
        };
        let (snapshot, bytes) = origin
            .rebuild()
            .map_err(|e| format!("unknown project `{project}`: {e}"))?;
        pex_obs::counter!("serve.registry.loads", 1);
        tenant_counter(project, "loads", 1);
        Ok((snapshot, bytes, origin))
    }

    /// Installs `snapshot` as `tenant`'s entry and evicts past the budget.
    /// Replacing an entry is a swap: it keeps the entry's pin and (unless
    /// `origin` is given) its origin, and counts one more generation.
    /// Returns the entry's generation.
    fn install(
        &self,
        tenant: &str,
        snapshot: Arc<Snapshot>,
        bytes: u64,
        origin: Option<Origin>,
        dirty: bool,
    ) -> u64 {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut tenants = lock(&self.tenants);
        let old = tenants.get(tenant);
        let pinned = old.is_some_and(|e| e.pinned);
        let generation = old.map_or(0, |e| e.generation + 1);
        let entry = TenantEntry {
            snapshot,
            origin: origin.or_else(|| old.and_then(|e| e.origin.clone())),
            bytes: if pinned { 0 } else { bytes },
            last_used: tick,
            dirty,
            pinned,
            generation,
        };
        tenants.insert(tenant.to_owned(), entry);
        // Evict least-recently-used tenants until the budget holds. The
        // newly installed tenant is exempt from its own admission round —
        // refusing a query because one snapshot alone exceeds the budget
        // would turn a tuning knob into an outage. Dirty tenants are
        // likewise exempt: eviction would silently discard unsaved edits
        // (reload them back from a stale origin), so an edited tenant
        // stays resident until it is force-reloaded or persisted.
        if let Some(budget) = self.max_bytes {
            while total_bytes(&tenants) > budget {
                let victim = tenants
                    .iter()
                    .filter(|(name, e)| name.as_str() != tenant && !e.pinned && !e.dirty)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(name, _)| name.clone());
                let Some(victim) = victim else { break };
                tenants.remove(&victim);
                pex_obs::counter!("serve.registry.evictions", 1);
                tenant_counter(&victim, "evictions", 1);
                // The Arc drops here; memory is released once in-flight
                // requests holding clones complete.
            }
        }
        if pex_obs::enabled() {
            let registry = pex_obs::registry();
            registry
                .gauge("serve.registry.resident")
                .set(tenants.values().filter(|e| !e.pinned).count() as u64);
            registry
                .gauge("serve.registry.resident_bytes")
                .set(total_bytes(&tenants));
        }
        generation
    }

    /// Registers an in-memory tenant (bench and tests), accounted at
    /// [`Snapshot::approx_bytes`]. Subject to the same LRU budget as
    /// lazily loaded tenants.
    pub fn insert(&self, project: &str, snapshot: Arc<Snapshot>) -> Result<(), String> {
        validate_project_id(project)?;
        let bytes = snapshot.approx_bytes();
        self.install(project, snapshot, bytes, None, false);
        Ok(())
    }

    /// Hot-swaps a tenant: rebuilds its snapshot from its [`Origin`] (a
    /// tenant not yet resident is a first load from the `--snapshot-dir`)
    /// and atomically flips the `Arc`. In-flight requests drain against
    /// the old snapshot; zero requests are dropped.
    ///
    /// A tenant carrying incremental edits (see
    /// [`SnapshotRegistry::update`]) refuses a plain reload with
    /// [`ReloadError::Dirty`] — rebuilding from the origin would silently
    /// revert the edits. Pass `force: true` to discard them explicitly;
    /// the returned [`ReloadInfo::discarded_edits`] records that it
    /// happened.
    pub fn reload(&self, project: Option<&str>, force: bool) -> Result<ReloadInfo, ReloadError> {
        // Hold the update lock so a reload cannot interleave with an
        // in-flight edit's read-patch-swap (the edit would resurrect the
        // pre-reload snapshot).
        let _edits = lock(&self.update_lock);
        let tenant = project.unwrap_or(DEFAULT_TENANT);
        validate_project_id(tenant).map_err(ReloadError::Failed)?;
        let resident = lock(&self.tenants)
            .get(tenant)
            .map(|e| (e.dirty, e.origin.clone()));
        let swapped = resident.is_some();
        let discarded_edits = resident.as_ref().is_some_and(|(dirty, _)| *dirty);
        if discarded_edits && !force {
            return Err(ReloadError::Dirty {
                project: tenant.to_owned(),
            });
        }
        let (snapshot, bytes, origin) = match resident {
            None => self.load_from_dir(tenant),
            Some((_, Some(origin))) => origin.rebuild().map(|(s, bytes)| (s, bytes, origin)),
            Some((_, None)) => Err(format!(
                "tenant `{tenant}` was created in memory and has no reload origin"
            )),
        }
        .map_err(ReloadError::Failed)?;
        self.install(tenant, snapshot, bytes, Some(origin), false);
        pex_obs::counter!("serve.registry.reloads", 1);
        tenant_counter(tenant, "reloads", 1);
        Ok(ReloadInfo {
            project: tenant.to_owned(),
            bytes,
            swapped,
            discarded_edits,
        })
    }

    /// Applies a batch of incremental edits to a tenant and atomically
    /// swaps the patched snapshot in. Each edit is one mini-C# unit that
    /// is re-resolved against the current snapshot; derived state
    /// (conversion rows, candidate memo cells, successor/reach memos, the
    /// site inference) is refreshed — see [`Snapshot::apply_update`].
    ///
    /// The batch is atomic: if any edit fails to parse or resolve, the
    /// whole batch is discarded and the tenant's snapshot is untouched.
    /// Edits serialize against each other and against `reload` via the
    /// update lock; queries never block, and in-flight requests drain on
    /// the pre-edit snapshot with zero drops, exactly like a reload.
    pub fn update(
        &self,
        project: Option<&str>,
        sources: &[String],
    ) -> Result<UpdateInfo, UpdateError> {
        if sources.is_empty() {
            return Err(UpdateError::Failed(
                "update requires a `source` string or a non-empty `edits` array".to_owned(),
            ));
        }
        let _edits = lock(&self.update_lock);
        let tenant = project.unwrap_or(DEFAULT_TENANT);
        // `get` lazily loads a named tenant, so an update can target a
        // snapshot-dir tenant that has never served.
        let base = self.get(Some(tenant)).map_err(UpdateError::Failed)?;
        let (patched, stats) = apply_edits(&base, sources)?;
        let info = |noop, bytes, generation| UpdateInfo {
            project: tenant.to_owned(),
            applied: sources.len(),
            noop,
            bytes,
            generation,
            stats,
        };
        let Some(patched) = patched else {
            // Whole batch was a no-op: snapshot untouched, no swap, no
            // generation bump, nothing invalidated.
            let generation = self.generation(Some(tenant)).unwrap_or(0);
            return Ok(info(true, base.approx_bytes(), generation));
        };
        let patched = Arc::new(patched);
        // Re-accounted at in-memory size: the origin's size no longer
        // describes the tenant.
        let bytes = patched.approx_bytes();
        let generation = self.install(tenant, patched, bytes, None, true);
        pex_obs::counter!("serve.registry.updates", 1);
        tenant_counter(tenant, "updates", 1);
        Ok(info(false, bytes, generation))
    }

    /// Resident tenant ids, sorted (excluding the pinned default).
    pub fn resident_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock(&self.tenants)
            .iter()
            .filter(|(_, e)| !e.pinned)
            .map(|(name, _)| name.clone())
            .collect();
        names.sort();
        names
    }

    /// A description of every resident tenant, pinned first and then by
    /// id — the `stats`/`health` tenant table.
    pub fn describe(&self) -> Vec<TenantInfo> {
        let mut out: Vec<TenantInfo> = lock(&self.tenants)
            .iter()
            .map(|(name, e)| TenantInfo {
                project: name.clone(),
                bytes: e.bytes,
                pinned: e.pinned,
                dirty: e.dirty,
            })
            .collect();
        out.sort_by(|a, b| (!a.pinned, &a.project).cmp(&(!b.pinned, &b.project)));
        out
    }

    /// Total accounted bytes across resident tenants (the pinned default
    /// counts 0).
    pub fn resident_bytes(&self) -> u64 {
        total_bytes(&lock(&self.tenants))
    }

    /// The configured byte budget, if any.
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }
}

/// Folds a batch of edits over a base snapshot. Returns `Ok((None, _))`
/// when every edit was a no-op. Intermediate snapshots are dropped as
/// soon as the next edit lands; an error anywhere discards the batch.
fn apply_edits(
    base: &Arc<Snapshot>,
    sources: &[String],
) -> Result<(Option<Snapshot>, UpdateStats), UpdateError> {
    let mut stats = UpdateStats {
        noop: true,
        ..UpdateStats::default()
    };
    let mut current: Option<Snapshot> = None;
    for source in sources {
        let working = current.as_ref().unwrap_or(base);
        let (next, step) = working.apply_update(source)?;
        stats.absorb(&step);
        if let Some(next) = next {
            current = Some(next);
        }
    }
    Ok((current, stats))
}

/// Bumps `serve.tenant.<project>.<suffix>` (dynamic-name counter; the
/// handle lookup is a cold-path mutex, fine off the per-token hot path).
pub fn tenant_counter(project: &str, suffix: &str, n: u64) {
    if pex_obs::enabled() {
        pex_obs::registry()
            .counter(&pex_obs::scoped_name("serve.tenant", project, suffix))
            .add(n);
    }
}

/// Validates a protocol `project` id before it can touch the filesystem
/// or the metric registry: 1–64 chars of `[A-Za-z0-9._-]`, not starting
/// with a dot (no hidden files, no `..` traversal, no path separators).
pub fn validate_project_id(project: &str) -> Result<(), String> {
    let ok_len = !project.is_empty() && project.len() <= 64;
    let ok_chars = project
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if !ok_len || !ok_chars || project.starts_with('.') {
        return Err(format!(
            "invalid project id `{project}`: use 1-64 characters of \
             [A-Za-z0-9._-], not starting with `.`"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotSource;

    fn paint() -> Arc<Snapshot> {
        Snapshot::load(&SnapshotSource::Paint).unwrap()
    }

    fn tenant_dir(tag: &str, names: &[&str]) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pex-registry-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let snap = paint();
        for name in names {
            persist::save(&snap, &dir.join(format!("{name}.pexsnap"))).unwrap();
        }
        dir
    }

    #[test]
    fn default_tenant_serves_without_a_project_field() {
        let registry = SnapshotRegistry::single(paint());
        let a = registry.get(None).unwrap();
        let b = registry.get(Some(DEFAULT_TENANT)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "default id aliases the default tenant");
        assert_eq!(registry.generation(None), Some(0));
    }

    #[test]
    fn unknown_projects_error_without_a_snapshot_dir() {
        let registry = SnapshotRegistry::single(paint());
        let err = registry.get(Some("nope")).unwrap_err();
        assert!(err.contains("unknown project `nope`"), "{err}");
    }

    #[test]
    fn lazy_loads_tenants_from_the_snapshot_dir() {
        let dir = tenant_dir("lazy", &["alpha"]);
        let registry = SnapshotRegistry::new(paint(), None, Some(dir.clone()), None);
        assert!(registry.resident_names().is_empty());
        let snap = registry.get(Some("alpha")).unwrap();
        assert_eq!(snap.name, "paint");
        assert_eq!(registry.resident_names(), vec!["alpha".to_owned()]);
        // Second hit returns the same Arc without re-reading the file.
        let again = registry.get(Some("alpha")).unwrap();
        assert!(Arc::ptr_eq(&snap, &again));
        let err = registry.get(Some("missing")).unwrap_err();
        assert!(err.contains("unknown project `missing`"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn path_traversal_project_ids_are_rejected() {
        let dir = tenant_dir("traversal", &[]);
        let registry = SnapshotRegistry::new(paint(), None, Some(dir.clone()), None);
        for bad in ["../alpha", "a/b", ".hidden", "", "a b", &"x".repeat(65)] {
            let err = registry.get(Some(bad)).unwrap_err();
            assert!(err.contains("invalid project id"), "{bad}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_eviction_honours_the_byte_budget_and_recency() {
        let dir = tenant_dir("lru", &["a", "b", "c"]);
        let one = std::fs::metadata(dir.join("a.pexsnap")).unwrap().len();
        // Room for two resident tenants, not three.
        let registry = SnapshotRegistry::new(paint(), None, Some(dir.clone()), Some(one * 2));
        registry.get(Some("a")).unwrap();
        registry.get(Some("b")).unwrap();
        assert_eq!(registry.resident_names(), vec!["a", "b"]);
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        registry.get(Some("a")).unwrap();
        registry.get(Some("c")).unwrap();
        assert_eq!(registry.resident_names(), vec!["a", "c"]);
        assert!(registry.resident_bytes() <= one * 2);
        // An evicted tenant transparently reloads on next use.
        registry.get(Some("b")).unwrap();
        assert!(registry.resident_names().contains(&"b".to_owned()));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_tenant_larger_than_the_budget_still_serves() {
        let dir = tenant_dir("oversize", &["big"]);
        let registry = SnapshotRegistry::new(
            paint(),
            None,
            Some(dir.clone()),
            Some(1), // absurd budget: everything is over it
        );
        let snap = registry.get(Some("big")).unwrap();
        assert_eq!(snap.name, "paint");
        assert_eq!(registry.resident_names(), vec!["big"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_swaps_the_arc_and_bumps_the_tenant_generation() {
        let dir = tenant_dir("reload", &["alpha"]);
        let registry = SnapshotRegistry::new(
            paint(),
            Some(Origin::Source {
                source: SnapshotSource::Paint,
                locals: Vec::new(),
            }),
            Some(dir.clone()),
            None,
        );
        // Named tenant: the resident Arc is replaced; old clones live on.
        let before = registry.get(Some("alpha")).unwrap();
        assert_eq!(registry.generation(Some("alpha")), Some(0));
        let info = registry.reload(Some("alpha"), false).unwrap();
        assert!(info.swapped);
        assert_eq!(info.project, "alpha");
        assert_eq!(registry.generation(Some("alpha")), Some(1));
        let after = registry.get(Some("alpha")).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "reload must flip the Arc");
        assert_eq!(before.name, after.name, "old snapshot still answers");
        // Reloading a non-resident tenant is a first load, not a swap.
        let registry2 = SnapshotRegistry::new(paint(), None, Some(dir.clone()), None);
        assert!(!registry2.reload(Some("alpha"), false).unwrap().swapped);
        // Default tenant: rebuilt from the boot source, generation bumps.
        let d0 = registry.default_snapshot();
        let gen0 = registry.generation(None).unwrap();
        let info = registry.reload(None, false).unwrap();
        assert_eq!(info.project, DEFAULT_TENANT);
        assert!(!info.discarded_edits);
        assert!(!Arc::ptr_eq(&d0, &registry.default_snapshot()));
        assert_eq!(registry.generation(None), Some(gen0 + 1));
        assert!(registry.describe()[0].pinned, "a swap keeps the pin");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_memory_tenants_cannot_reload() {
        let registry = SnapshotRegistry::single(paint());
        let err = registry.reload(None, false).unwrap_err();
        assert!(err.to_string().contains("no reload origin"), "{err}");
        registry.insert("mem", paint()).unwrap();
        let err = registry.reload(Some("mem"), false).unwrap_err();
        assert!(err.to_string().contains("no reload origin"), "{err}");
    }

    /// The `DocumentUtils` fragment exactly as the paint corpus declares
    /// it — re-resolving it against the paint snapshot is a no-op.
    const DOCUTILS_NOOP: &str = r#"
namespace PaintDotNet.Client {
    class DocumentUtils {
        static PaintDotNet.Document Normalize(PaintDotNet.Document d) { return d; }
        static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; }
    }
}
"#;

    /// Same surface, different `Normalize` body: a signature-identical
    /// body edit.
    const DOCUTILS_BODY_EDIT: &str = r#"
namespace PaintDotNet.Client {
    class DocumentUtils {
        static PaintDotNet.Document Normalize(PaintDotNet.Document d) { return PaintDotNet.Client.DocumentUtils.Normalize(d); }
        static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; }
    }
}
"#;

    #[test]
    fn update_marks_dirty_and_gates_reload_behind_force() {
        let registry = SnapshotRegistry::new(
            paint(),
            Some(Origin::Source {
                source: SnapshotSource::Paint,
                locals: Vec::new(),
            }),
            None,
            None,
        );
        let before = registry.default_snapshot();
        let gen0 = registry.generation(None).unwrap();
        let info = registry
            .update(None, &[DOCUTILS_BODY_EDIT.to_owned()])
            .unwrap();
        assert!(!info.noop);
        assert_eq!(info.project, DEFAULT_TENANT);
        assert_eq!(info.applied, 1);
        assert_eq!(info.generation, gen0 + 1);
        assert_eq!(registry.generation(None), Some(gen0 + 1));
        assert!(
            !Arc::ptr_eq(&before, &registry.default_snapshot()),
            "the edit swapped the Arc; in-flight requests drain on `before`"
        );
        assert!(registry.describe()[0].dirty);
        // A plain reload refuses rather than silently reverting the edit.
        let err = registry.reload(None, false).unwrap_err();
        assert_eq!(
            err,
            ReloadError::Dirty {
                project: DEFAULT_TENANT.to_owned()
            }
        );
        // A forced reload discards explicitly and clears the dirty flag.
        let info = registry.reload(None, true).unwrap();
        assert!(info.discarded_edits);
        assert!(!registry.describe()[0].dirty);
    }

    #[test]
    fn noop_updates_touch_nothing() {
        let registry = SnapshotRegistry::single(paint());
        let before = registry.default_snapshot();
        let gen0 = registry.generation(None).unwrap();
        let info = registry.update(None, &[DOCUTILS_NOOP.to_owned()]).unwrap();
        assert!(info.noop);
        assert_eq!(info.stats.invalidated.total(), 0, "zero invalidations");
        assert_eq!(info.generation, gen0, "no generation bump");
        assert_eq!(registry.generation(None), Some(gen0));
        assert!(Arc::ptr_eq(&before, &registry.default_snapshot()));
        assert!(!registry.describe()[0].dirty);
    }

    #[test]
    fn failed_updates_leave_the_snapshot_untouched() {
        let registry = SnapshotRegistry::single(paint());
        let before = registry.default_snapshot();
        let err = registry
            .update(None, &["namespace X { class ".to_owned()])
            .unwrap_err();
        let UpdateError::Parse { line, col, .. } = &err else {
            panic!("parse error expected: {err}")
        };
        assert!(*line >= 1 && *col >= 1, "1-based position: {err}");
        assert!(Arc::ptr_eq(&before, &registry.default_snapshot()));
        assert!(!registry.describe()[0].dirty);
        // A batch is atomic: a bad edit discards the good ones before it.
        let err = registry
            .update(None, &[DOCUTILS_BODY_EDIT.to_owned(), "garbled".to_owned()])
            .unwrap_err();
        assert!(matches!(err, UpdateError::Parse { .. }), "{err}");
        assert!(Arc::ptr_eq(&before, &registry.default_snapshot()));
        // An empty batch is refused up front.
        let err = registry.update(None, &[]).unwrap_err();
        assert!(matches!(err, UpdateError::Failed(_)), "{err}");
    }

    #[test]
    fn named_tenant_updates_reaccount_bytes_and_resist_eviction() {
        let dir = tenant_dir("update", &["a", "b", "c"]);
        let one = std::fs::metadata(dir.join("a.pexsnap")).unwrap().len();
        let registry = SnapshotRegistry::new(paint(), None, Some(dir.clone()), Some(one * 2));
        registry.get(Some("a")).unwrap();
        let info = registry
            .update(Some("a"), &[DOCUTILS_BODY_EDIT.to_owned()])
            .unwrap();
        assert!(!info.noop);
        let edited = registry.get(Some("a")).unwrap();
        // Accounting switched from the stale file length to the live
        // in-memory size.
        assert_eq!(info.bytes, edited.approx_bytes());
        assert!(registry
            .describe()
            .iter()
            .any(|t| t.project == "a" && t.dirty));
        // Under LRU pressure `a` would be the oldest victim, but dirty
        // tenants are exempt — evicting one would silently discard edits.
        registry.get(Some("b")).unwrap();
        registry.get(Some("c")).unwrap();
        assert!(
            registry.resident_names().contains(&"a".to_owned()),
            "dirty tenant survived eviction pressure: {:?}",
            registry.resident_names()
        );
        // Reload gating works per-tenant, and force reverts to the file.
        let err = registry.reload(Some("a"), false).unwrap_err();
        assert!(matches!(err, ReloadError::Dirty { .. }), "{err}");
        let info = registry.reload(Some("a"), true).unwrap();
        assert!(info.discarded_edits);
        let reverted = registry.get(Some("a")).unwrap();
        assert!(!Arc::ptr_eq(&edited, &reverted));
        assert!(registry
            .describe()
            .iter()
            .all(|t| t.project != "a" || !t.dirty));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn describe_lists_default_first_with_byte_accounting() {
        let dir = tenant_dir("describe", &["alpha"]);
        let registry = SnapshotRegistry::new(paint(), None, Some(dir.clone()), None);
        registry.get(Some("alpha")).unwrap();
        let info = registry.describe();
        assert_eq!(info[0].project, DEFAULT_TENANT);
        assert!(info[0].pinned);
        assert_eq!(info[1].project, "alpha");
        assert!(info[1].bytes > 0);
        assert!(!info[1].pinned);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_panic_under_the_registry_lock_poisons_nothing() {
        let dir = tenant_dir("poison", &["alpha"]);
        let one = std::fs::metadata(dir.join("alpha.pexsnap")).unwrap().len();
        let registry = Arc::new(SnapshotRegistry::new(
            paint(),
            Some(Origin::Source {
                source: SnapshotSource::Paint,
                locals: Vec::new(),
            }),
            Some(dir.clone()),
            None,
        ));
        registry.get(Some("alpha")).unwrap();
        for poison_update_lock in [false, true] {
            let held = Arc::clone(&registry);
            let panicked = std::thread::spawn(move || {
                let _tenants = held.tenants.lock();
                let _edits = poison_update_lock.then(|| held.update_lock.lock());
                panic!("a panic while holding the registry lock");
            })
            .join();
            assert!(panicked.is_err());
        }
        assert!(registry.tenants.is_poisoned() && registry.update_lock.is_poisoned());
        assert_eq!(registry.resident_bytes(), one);
        let snap = registry.get(Some("alpha")).unwrap();
        assert_eq!(snap.name, "paint");
        let info = registry.describe();
        assert_eq!(info.len(), 2);
        assert!(info[0].pinned && info[1].project == "alpha");
        let edit = registry
            .update(Some("alpha"), &[DOCUTILS_BODY_EDIT.to_owned()])
            .unwrap();
        assert_eq!(edit.generation, 1);
        assert_eq!(registry.resident_bytes(), edit.bytes);
        let info = registry.reload(Some("alpha"), true).unwrap();
        assert!(info.swapped && info.discarded_edits);
        assert_eq!(registry.resident_bytes(), one, "back to the file length");
        registry.reload(None, false).unwrap();
        assert_eq!(registry.generation(None), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }
}
