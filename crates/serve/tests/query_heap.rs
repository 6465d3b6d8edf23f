//! Heap guard for query memory: a query's interned expressions die with
//! the query. Ten thousand requests, each with a string literal not seen
//! before, leave the live heap where it was and leave the snapshot's
//! arena figure at what one query reached; and the cost of an edit does
//! not depend on how many queries came before it.
//!
//! The counting global allocator makes this test binary its own
//! instrument; the library crates stay `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use pex_core::CancelToken;
use pex_serve::proto::{self, QueryRequest};
use pex_serve::{Disposition, RequestDefaults, Snapshot, SnapshotSource};

/// Counts allocations made by the current thread, and the bytes they
/// hold, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn bump(grown: i64) {
    // `try_with`: the slots are gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = LIVE.try_with(|n| n.set(n.get() + grown));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counters are
// thread-local `Cell`s with `const` initialisers, which neither allocate
// nor run a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|n| n.set(n.get() - layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` on the current thread and returns its output, the
/// allocations it made and the bytes it left allocated.
fn measured<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (allocs, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - allocs,
        LIVE.with(Cell::get) - live,
    )
}

/// Requests with a fresh string literal each.
const QUERIES: usize = 10_000;

/// Answers `?({img, "sNNNNNNN"})` for literal number `n` against the
/// snapshot's default query site, as the daemon does.
fn unique_query(snapshot: &Snapshot, n: usize) {
    let req = QueryRequest {
        id: None,
        project: None,
        query: format!("?({{img, \"s{n:07}\"}})"),
        limit: None,
        deadline_ms: None,
        max_steps: None,
        max_depth: None,
        locals: Vec::new(),
        trace_id: Some("t-heap".to_owned()),
        trace: false,
        explain: false,
    };
    let (response, disposition) = proto::execute(
        snapshot,
        &req,
        &RequestDefaults::default(),
        &CancelToken::new(),
        snapshot.site_abs.as_ref(),
    );
    assert_eq!(disposition, Disposition::Ok, "{response}");
}

/// The golden transcript's edit: `Normalize` now returns a `Size`.
const EDIT: &str = "namespace PaintDotNet.Client { class DocumentUtils { \
    static System.Drawing.Size Normalize(PaintDotNet.Document d); \
    static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; } } }";

#[test]
fn unique_queries_leave_the_heap_where_it_was() {
    let snapshot = Snapshot::load(&SnapshotSource::Paint).unwrap();
    // The first query fills the type-keyed memos every later one reuses.
    unique_query(&snapshot, 0);
    let peak = snapshot.cache.arena.len();
    assert!(peak > 0, "a query interns nodes");
    let ((), _, live) = measured(|| {
        for n in 1..=QUERIES {
            unique_query(&snapshot, n);
        }
    });
    eprintln!("{QUERIES} unique queries left {live} bytes live");
    // A snapshot-wide arena kept each query's literal nodes, about 4 KB
    // a query and 40 MB over this run.
    assert!(
        live < 64 * 1024,
        "{QUERIES} unique queries left {live} bytes live"
    );
    assert_eq!(snapshot.cache.arena.len(), peak);
}

#[test]
fn an_edit_costs_the_same_after_many_queries() {
    let update_allocs = |snapshot: &Snapshot| {
        let (updated, allocs, _) = measured(|| snapshot.apply_update(EDIT).unwrap());
        assert!(updated.0.is_some(), "the edit changes the model");
        allocs
    };
    // Both snapshots answer the first query, so the type-keyed memos the
    // update carries over hold the same entries; only the number of
    // queries differs. The process's first update also registers its
    // metrics, so one uncounted update goes before the counted ones.
    let fresh = Snapshot::load(&SnapshotSource::Paint).unwrap();
    unique_query(&fresh, 0);
    update_allocs(&fresh);
    let once = update_allocs(&fresh);
    let served = Snapshot::load(&SnapshotSource::Paint).unwrap();
    for n in 0..=QUERIES {
        unique_query(&served, n);
    }
    let after = update_allocs(&served);
    assert_eq!(
        after,
        once,
        "one update allocated {once} blocks after one query \
         and {after} after {} queries",
        QUERIES + 1
    );
}
