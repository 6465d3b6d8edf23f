//! # pex-serve
//!
//! The deployment shape the paper sketches in its future work — an
//! always-on assistant answering partial-expression queries at keystroke
//! latency — as a long-lived daemon for the pex engine.
//!
//! A serve process loads one [`Snapshot`] (code model + prewarmed method,
//! conversion, and reachability indexes), then answers completion queries
//! over a JSON-lines protocol from a fixed worker pool:
//!
//! * [`snapshot`] — the shared immutable artefact and its prewarming;
//! * [`persist`] — the `pex-snapshot` binary format: save a prewarmed
//!   snapshot to disk, reload it on boot skipping parse + build + prewarm;
//! * [`proto`] — the request/response schema and query execution, mapping
//!   per-request `deadline_ms` / `max_steps` / `limit` onto the engine's
//!   [`pex_core::QueryBudget`];
//! * [`registry`] — the multi-tenant snapshot registry: project ids →
//!   `Arc<Snapshot>` with lazy load from a `--snapshot-dir`, LRU eviction
//!   under a byte budget, and atomic hot swap via the `reload` command;
//! * [`server`] — the bounded admission queue, the worker pool, in-flight
//!   request coalescing, explicit load shedding, and graceful
//!   drain-then-exit shutdown;
//! * [`obs_json`] — live introspection: the `stats`/`health` command
//!   bodies (rolling-window percentiles, shed rate, SLO burn) and the
//!   `--metrics-out` document, built from the `pex-obs` registry;
//! * [`json`] — the dependency-free JSON reader/writer the protocol uses,
//!   re-exported from [`pex_obs::json`].
//!
//! The `pex-serve` binary fronts this with two transports: stdin/stdout
//! framing (one request per line, one response per line) and an optional
//! Unix-domain socket listener for concurrent clients.
//!
//! ```console
//! $ echo '{"id":1,"query":"?({img, size})","limit":3}' | pex-serve paint
//! {"id":1,"ok":true,"outcome":"limit","degraded":false,...}
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod obs_json;
pub mod persist;
pub mod proto;
pub mod queue;
pub mod registry;
pub mod server;
pub mod snapshot;

use std::sync::{Mutex, MutexGuard, PoisonError};

pub use pex_obs::json;
pub use proto::{Disposition, Request, RequestDefaults};
pub use registry::{Origin, SnapshotRegistry, DEFAULT_TENANT};
pub use server::{ServeConfig, Server, ServerClient};
pub use snapshot::{Snapshot, SnapshotSource};

/// Locks `mutex`, recovering it if a thread panicked while holding it.
///
/// Recovery is sound only for data that every critical section leaves
/// whole at each step, so a panic cannot tear it; each mutex locked this
/// way says at its declaration why its data qualifies. A panicking worker
/// then costs its own request, not every later one.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
