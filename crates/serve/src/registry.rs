//! The multi-tenant snapshot registry: many projects, one process.
//!
//! A [`SnapshotRegistry`] maps project ids to [`Arc<Snapshot>`]s so a
//! fleet of independent corpora can share one daemon:
//!
//! * **Default tenant.** The snapshot the process booted with (corpus
//!   argument or `--load-snapshot`) serves every request that carries no
//!   `project` field — the single-tenant protocol is the degenerate case,
//!   byte-for-byte. The default is pinned: it never counts against the
//!   byte budget and is never evicted.
//! * **Lazy load.** A request naming a project not yet resident loads
//!   `<project>.pexsnap` from `--snapshot-dir` on demand (the
//!   `pex-snapshot/1` format, full validation — see [`crate::persist`]).
//!   Project ids are validated against a conservative alphabet first, so
//!   a request can never path-traverse out of the snapshot directory.
//! * **LRU eviction.** Each resident tenant is accounted at its snapshot
//!   file's byte length (or [`Snapshot::approx_bytes`] for tenants
//!   inserted in memory). When residency would exceed
//!   `--max-snapshot-bytes`, least-recently-used tenants are dropped
//!   from the map. In-flight requests keep their own `Arc` clones, so an
//!   evicted snapshot's memory is actually released when the last request
//!   against it completes — eviction never interrupts a query.
//! * **Hot swap.** [`SnapshotRegistry::reload`] rebuilds a tenant from
//!   its origin (the snapshot file, or the default's corpus source) and
//!   atomically flips the `Arc` in the map. Requests admitted before the
//!   flip drain against the old snapshot; requests admitted after see the
//!   new one. No request is ever dropped or answered from a half-swapped
//!   state, because a worker resolves its `Arc<Snapshot>` exactly once
//!   per request.
//!
//! Observability: `serve.registry.{loads,evictions,reloads}` counters,
//! `serve.registry.{resident,resident_bytes}` gauges, and per-tenant
//! `serve.tenant.<id>.*` counters named via [`pex_obs::scoped_name`].

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pex_model::minics::MiniCsError;

use crate::persist;
use crate::snapshot::{Snapshot, SnapshotSource, UpdateStats};

/// The tenant id requests without a `project` field resolve to, used in
/// per-tenant metrics and the `stats`/`health` tenant tables.
pub const DEFAULT_TENANT: &str = "default";

/// Where the default tenant's snapshot came from, so `reload` (without a
/// `project`) can rebuild it the same way the process booted.
#[derive(Debug, Clone)]
pub enum DefaultOrigin {
    /// Built from a corpus source (builtin name or mini-C# file), with the
    /// `--local` declarations applied on top.
    Source {
        /// The corpus the daemon booted from.
        source: SnapshotSource,
        /// `--local name:Type` declarations folded into the default context.
        locals: Vec<String>,
    },
    /// Loaded from a `pex-snapshot/1` file (`--load-snapshot`).
    File {
        /// The snapshot file the daemon booted from.
        path: PathBuf,
        /// `--local name:Type` declarations folded into the default context.
        locals: Vec<String>,
    },
    /// Handed in as an in-memory `Arc` with no rebuildable origin (the
    /// in-process bench and tests); `reload` of the default is an error.
    Fixed,
}

impl DefaultOrigin {
    /// Rebuilds the default snapshot from its origin.
    fn rebuild(&self) -> Result<Arc<Snapshot>, String> {
        let (loaded, locals) = match self {
            DefaultOrigin::Source { source, locals } => (Snapshot::load(source)?, locals),
            DefaultOrigin::File { path, locals } => (persist::load(path)?, locals),
            DefaultOrigin::Fixed => {
                return Err(
                    "the default tenant was created in memory and has no reload origin".to_owned(),
                )
            }
        };
        apply_locals(loaded, locals)
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

/// One resident tenant: the live snapshot, its byte accounting, and its
/// LRU clock reading.
struct TenantEntry {
    snapshot: Arc<Snapshot>,
    bytes: u64,
    last_used: u64,
    /// The snapshot carries incremental edits not present in its origin
    /// (`.pexsnap` file or boot source). Dirty tenants are exempt from
    /// LRU eviction and refuse a plain `reload` — both would silently
    /// discard the edits.
    dirty: bool,
}

struct Inner {
    default: Arc<Snapshot>,
    tenants: HashMap<String, TenantEntry>,
    resident_bytes: u64,
    /// The default snapshot carries incremental edits; a plain `reload`
    /// (which rebuilds from the boot origin) refuses without `force`.
    default_dirty: bool,
}

/// What a successful [`SnapshotRegistry::reload`] reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReloadInfo {
    /// The tenant that was swapped.
    pub project: String,
    /// Accounted size of the fresh snapshot, in bytes.
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
    /// The default-swap generation after the update (0 for named
    /// tenants, which have no generation counter).
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
    /// Accounted bytes (0 for the exempt default tenant).
    pub bytes: u64,
    /// Whether this is the pinned, budget-exempt default tenant.
    pub pinned: bool,
    /// Whether the tenant carries incremental edits not yet persisted to
    /// its origin.
    pub dirty: bool,
}

/// The tenant map: default snapshot + named tenants with lazy load, LRU
/// eviction under a byte budget, and atomic hot swap. See the module docs
/// for the full semantics.
pub struct SnapshotRegistry {
    inner: Mutex<Inner>,
    /// Serializes incremental updates: each edit reads the current
    /// snapshot, patches it, and swaps — holding this across the
    /// read-patch-swap keeps concurrent edits from losing each other.
    /// Queries never take it.
    update_lock: Mutex<()>,
    origin: DefaultOrigin,
    snapshot_dir: Option<PathBuf>,
    max_bytes: Option<u64>,
    /// Bumped on every default-tenant swap so workers can cheaply detect
    /// that their cached per-worker state (the abstract-type inference
    /// borrowing the default snapshot) is stale.
    default_generation: AtomicU64,
    /// LRU clock: monotonically increasing tick, one per tenant access.
    clock: AtomicU64,
}

impl SnapshotRegistry {
    /// A registry over a default snapshot, its rebuild origin, and the
    /// optional tenant directory and byte budget.
    pub fn new(
        default: Arc<Snapshot>,
        origin: DefaultOrigin,
        snapshot_dir: Option<PathBuf>,
        max_bytes: Option<u64>,
    ) -> SnapshotRegistry {
        SnapshotRegistry {
            inner: Mutex::new(Inner {
                default,
                tenants: HashMap::new(),
                resident_bytes: 0,
                default_dirty: false,
            }),
            update_lock: Mutex::new(()),
            origin,
            snapshot_dir,
            max_bytes,
            default_generation: AtomicU64::new(0),
            clock: AtomicU64::new(0),
        }
    }

    /// A single-tenant registry with no tenant directory and no reload
    /// origin — the exact PR 8 daemon shape, for tests and the in-process
    /// bench.
    pub fn single(default: Arc<Snapshot>) -> SnapshotRegistry {
        SnapshotRegistry::new(default, DefaultOrigin::Fixed, None, None)
    }

    /// The current default snapshot (requests without a `project` field).
    pub fn default_snapshot(&self) -> Arc<Snapshot> {
        Arc::clone(&self.inner.lock().expect("registry lock").default)
    }

    /// The default-swap generation; changes exactly when
    /// [`SnapshotRegistry::default_snapshot`] starts returning a new `Arc`.
    pub fn default_generation(&self) -> u64 {
        self.default_generation.load(Ordering::Acquire)
    }

    /// Resolves the snapshot for a request. `None` (or the literal
    /// `default` id) is the default tenant; anything else is looked up in
    /// the tenant map and lazily loaded from `--snapshot-dir` on a miss.
    pub fn get(&self, project: Option<&str>) -> Result<Arc<Snapshot>, String> {
        let Some(project) = project.filter(|p| *p != DEFAULT_TENANT) else {
            return Ok(self.default_snapshot());
        };
        validate_project_id(project)?;
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        {
            let mut inner = self.inner.lock().expect("registry lock");
            if let Some(entry) = inner.tenants.get_mut(project) {
                entry.last_used = tick;
                tenant_counter(project, "hits", 1);
                return Ok(Arc::clone(&entry.snapshot));
            }
        }
        // Miss: load outside the lock so resident tenants keep serving
        // while the file is read and validated. Two racing loaders may
        // both decode the file; `admit` keeps whichever lands second and
        // both callers get a working snapshot — wasted work, never a
        // wrong answer.
        let (snapshot, bytes) = self.load_from_dir(project)?;
        self.admit(project, snapshot.clone(), bytes, false);
        Ok(snapshot)
    }

    /// The tenant per-tenant metrics file `project` under, if the registry
    /// holds it right now: the default tenant for `None` or `"default"`,
    /// the id itself for a resident named tenant, and `None` for anything
    /// else — so a client-chosen `project` string never mints a metric.
    pub fn resident_tenant<'a>(&self, project: Option<&'a str>) -> Option<&'a str> {
        match project.filter(|p| *p != DEFAULT_TENANT) {
            None => Some(DEFAULT_TENANT),
            Some(p) => {
                let inner = self.inner.lock().expect("registry lock");
                inner.tenants.contains_key(p).then_some(p)
            }
        }
    }

    /// Reads and validates `<project>.pexsnap` from the snapshot dir.
    fn load_from_dir(&self, project: &str) -> Result<(Arc<Snapshot>, u64), String> {
        let Some(dir) = &self.snapshot_dir else {
            return Err(format!(
                "unknown project `{project}` (no --snapshot-dir configured; \
                 resident tenants: {})",
                self.resident_names().join(", ")
            ));
        };
        let path = dir.join(format!("{project}.pexsnap"));
        let bytes_len = std::fs::metadata(&path)
            .map_err(|e| {
                format!(
                    "unknown project `{project}`: cannot read {}: {e}",
                    path.display()
                )
            })?
            .len();
        let snapshot = persist::load(&path)?;
        pex_obs::counter!("serve.registry.loads", 1);
        tenant_counter(project, "loads", 1);
        Ok((snapshot, bytes_len))
    }

    /// Inserts (or replaces) a resident tenant and evicts past the budget.
    fn admit(&self, project: &str, snapshot: Arc<Snapshot>, bytes: u64, dirty: bool) {
        let tick = self.clock.fetch_add(1, Ordering::Relaxed) + 1;
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(old) = inner.tenants.remove(project) {
            inner.resident_bytes -= old.bytes;
        }
        inner.resident_bytes += bytes;
        inner.tenants.insert(
            project.to_owned(),
            TenantEntry {
                snapshot,
                bytes,
                last_used: tick,
                dirty,
            },
        );
        // Evict least-recently-used tenants until the budget holds. The
        // newly admitted tenant is exempt from its own admission round —
        // refusing a query because one snapshot alone exceeds the budget
        // would turn a tuning knob into an outage. Dirty tenants are
        // likewise exempt: eviction would silently discard unsaved edits
        // (reload them back from a stale `.pexsnap`), so an edited tenant
        // stays resident until it is force-reloaded or persisted.
        if let Some(budget) = self.max_bytes {
            while inner.resident_bytes > budget && inner.tenants.len() > 1 {
                let victim = inner
                    .tenants
                    .iter()
                    .filter(|(name, e)| name.as_str() != project && !e.dirty)
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(name, _)| name.clone());
                let Some(victim) = victim else { break };
                let entry = inner.tenants.remove(&victim).expect("victim is resident");
                inner.resident_bytes -= entry.bytes;
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
                .set(inner.tenants.len() as u64);
            registry
                .gauge("serve.registry.resident_bytes")
                .set(inner.resident_bytes);
        }
    }

    /// Registers an in-memory tenant (bench and tests), accounted at
    /// [`Snapshot::approx_bytes`]. Subject to the same LRU budget as
    /// lazily loaded tenants.
    pub fn insert(&self, project: &str, snapshot: Arc<Snapshot>) -> Result<(), String> {
        validate_project_id(project)?;
        let bytes = snapshot.approx_bytes();
        self.admit(project, snapshot, bytes, false);
        Ok(())
    }

    /// Hot-swaps a tenant: rebuilds its snapshot from the origin (the
    /// `--snapshot-dir` file, or the default tenant's boot source) and
    /// atomically flips the `Arc`. In-flight requests drain against the
    /// old snapshot; zero requests are dropped.
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
        let _edits = self.update_lock.lock().expect("update lock");
        let named = project.filter(|p| *p != DEFAULT_TENANT);
        if let Some(project) = named {
            validate_project_id(project).map_err(ReloadError::Failed)?;
        }
        let tenant = named.unwrap_or(DEFAULT_TENANT);
        let (swapped, was_dirty) = {
            let inner = self.inner.lock().expect("registry lock");
            match named {
                None => (true, inner.default_dirty),
                Some(project) => inner
                    .tenants
                    .get(project)
                    .map_or((false, false), |e| (true, e.dirty)),
            }
        };
        if was_dirty && !force {
            return Err(ReloadError::Dirty {
                project: tenant.to_owned(),
            });
        }
        let bytes = match named {
            None => {
                let fresh = self.origin.rebuild().map_err(ReloadError::Failed)?;
                let bytes = fresh.approx_bytes();
                self.swap_default(fresh, false);
                bytes
            }
            Some(project) => {
                let (snapshot, bytes) = self.load_from_dir(project).map_err(ReloadError::Failed)?;
                self.admit(project, snapshot, bytes, false);
                bytes
            }
        };
        pex_obs::counter!("serve.registry.reloads", 1);
        tenant_counter(tenant, "reloads", 1);
        Ok(ReloadInfo {
            project: tenant.to_owned(),
            bytes,
            swapped,
            discarded_edits: was_dirty,
        })
    }

    /// Installs a new default snapshot and bumps the generation so workers
    /// re-pin; returns the new generation.
    fn swap_default(&self, snapshot: Arc<Snapshot>, dirty: bool) -> u64 {
        let mut inner = self.inner.lock().expect("registry lock");
        inner.default = snapshot;
        inner.default_dirty = dirty;
        drop(inner);
        self.default_generation.fetch_add(1, Ordering::Release) + 1
    }

    /// Applies a batch of incremental edits to a tenant and atomically
    /// swaps the patched snapshot in. Each edit is one mini-C# unit that
    /// is re-resolved against the current snapshot; derived state
    /// (conversion rows, candidate memo cells, successor/reach memos) is
    /// invalidated surgically — see [`Snapshot::apply_update`].
    ///
    /// The batch is atomic: if any edit fails to parse or resolve, the
    /// whole batch is discarded and the tenant's snapshot is untouched.
    /// Edits serialize against each other and against `reload` via the
    /// update lock; queries never block. For the default tenant the swap
    /// bumps the generation counter so workers re-pin — in-flight
    /// requests drain on the pre-edit snapshot with zero drops, exactly
    /// like a reload.
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
        let _edits = self.update_lock.lock().expect("update lock");
        let named = project.filter(|p| *p != DEFAULT_TENANT);
        // `get` lazily loads a named tenant, so an update can target a
        // snapshot-dir tenant that has never served.
        let base = self.get(named).map_err(UpdateError::Failed)?;
        let (patched, stats) = apply_edits(&base, sources)?;
        let info = |noop, bytes, generation| UpdateInfo {
            project: named.unwrap_or(DEFAULT_TENANT).to_owned(),
            applied: sources.len(),
            noop,
            bytes,
            generation,
            stats,
        };
        let Some(patched) = patched else {
            // Whole batch was a no-op: snapshot untouched, no swap, no
            // generation bump, nothing invalidated.
            let generation = if named.is_none() {
                self.default_generation()
            } else {
                0
            };
            return Ok(info(true, base.approx_bytes(), generation));
        };
        let patched = Arc::new(patched);
        // Named tenants are re-accounted at in-memory size: the on-disk
        // `.pexsnap` length no longer describes them.
        let bytes = patched.approx_bytes();
        let generation = match named {
            None => self.swap_default(patched, true),
            Some(project) => {
                self.admit(project, patched, bytes, true);
                0
            }
        };
        pex_obs::counter!("serve.registry.updates", 1);
        tenant_counter(named.unwrap_or(DEFAULT_TENANT), "updates", 1);
        Ok(info(false, bytes, generation))
    }

    /// Resident tenant ids, sorted (excluding the default).
    pub fn resident_names(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("registry lock");
        let mut names: Vec<String> = inner.tenants.keys().cloned().collect();
        names.sort();
        names
    }

    /// A sorted description of every resident tenant, default first — the
    /// `stats`/`health` tenant table.
    pub fn describe(&self) -> Vec<TenantInfo> {
        let inner = self.inner.lock().expect("registry lock");
        let mut out = vec![TenantInfo {
            project: DEFAULT_TENANT.to_owned(),
            bytes: 0,
            pinned: true,
            dirty: inner.default_dirty,
        }];
        let mut named: Vec<TenantInfo> = inner
            .tenants
            .iter()
            .map(|(name, e)| TenantInfo {
                project: name.clone(),
                bytes: e.bytes,
                pinned: false,
                dirty: e.dirty,
            })
            .collect();
        named.sort_by(|a, b| a.project.cmp(&b.project));
        out.extend(named);
        out
    }

    /// Total accounted bytes across resident named tenants.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().expect("registry lock").resident_bytes
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
        assert_eq!(registry.default_generation(), 0);
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
        let registry =
            SnapshotRegistry::new(paint(), DefaultOrigin::Fixed, Some(dir.clone()), None);
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
        let registry =
            SnapshotRegistry::new(paint(), DefaultOrigin::Fixed, Some(dir.clone()), None);
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
        let registry = SnapshotRegistry::new(
            paint(),
            DefaultOrigin::Fixed,
            Some(dir.clone()),
            Some(one * 2),
        );
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
            DefaultOrigin::Fixed,
            Some(dir.clone()),
            Some(1), // absurd budget: everything is over it
        );
        let snap = registry.get(Some("big")).unwrap();
        assert_eq!(snap.name, "paint");
        assert_eq!(registry.resident_names(), vec!["big"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_swaps_the_arc_and_bumps_the_default_generation() {
        let dir = tenant_dir("reload", &["alpha"]);
        let registry = SnapshotRegistry::new(
            paint(),
            DefaultOrigin::Source {
                source: SnapshotSource::Paint,
                locals: Vec::new(),
            },
            Some(dir.clone()),
            None,
        );
        // Named tenant: the resident Arc is replaced; old clones live on.
        let before = registry.get(Some("alpha")).unwrap();
        let info = registry.reload(Some("alpha"), false).unwrap();
        assert!(info.swapped);
        assert_eq!(info.project, "alpha");
        let after = registry.get(Some("alpha")).unwrap();
        assert!(!Arc::ptr_eq(&before, &after), "reload must flip the Arc");
        assert_eq!(before.name, after.name, "old snapshot still answers");
        // Reloading a non-resident tenant is a first load, not a swap.
        let registry2 =
            SnapshotRegistry::new(paint(), DefaultOrigin::Fixed, Some(dir.clone()), None);
        assert!(!registry2.reload(Some("alpha"), false).unwrap().swapped);
        // Default tenant: rebuilt from the boot source, generation bumps.
        let d0 = registry.default_snapshot();
        let gen0 = registry.default_generation();
        let info = registry.reload(None, false).unwrap();
        assert_eq!(info.project, DEFAULT_TENANT);
        assert!(!info.discarded_edits);
        assert!(!Arc::ptr_eq(&d0, &registry.default_snapshot()));
        assert_eq!(registry.default_generation(), gen0 + 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fixed_default_origin_cannot_reload() {
        let registry = SnapshotRegistry::single(paint());
        let err = registry.reload(None, false).unwrap_err();
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
            DefaultOrigin::Source {
                source: SnapshotSource::Paint,
                locals: Vec::new(),
            },
            None,
            None,
        );
        let before = registry.default_snapshot();
        let gen0 = registry.default_generation();
        let info = registry
            .update(None, &[DOCUTILS_BODY_EDIT.to_owned()])
            .unwrap();
        assert!(!info.noop);
        assert_eq!(info.project, DEFAULT_TENANT);
        assert_eq!(info.applied, 1);
        assert_eq!(registry.default_generation(), gen0 + 1, "workers re-pin");
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
        let gen0 = registry.default_generation();
        let info = registry.update(None, &[DOCUTILS_NOOP.to_owned()]).unwrap();
        assert!(info.noop);
        assert_eq!(info.stats.invalidated.total(), 0, "zero invalidations");
        assert_eq!(registry.default_generation(), gen0, "no generation bump");
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
        let registry = SnapshotRegistry::new(
            paint(),
            DefaultOrigin::Fixed,
            Some(dir.clone()),
            Some(one * 2),
        );
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
        let registry =
            SnapshotRegistry::new(paint(), DefaultOrigin::Fixed, Some(dir.clone()), None);
        registry.get(Some("alpha")).unwrap();
        let info = registry.describe();
        assert_eq!(info[0].project, DEFAULT_TENANT);
        assert!(info[0].pinned);
        assert_eq!(info[1].project, "alpha");
        assert!(info[1].bytes > 0);
        assert!(!info[1].pinned);
        std::fs::remove_dir_all(&dir).ok();
    }
}
