//! Heap guard for the Figure 8 method index: building it and filling its
//! candidate-count memo for every type costs a constant number of heap
//! blocks, not one per type, and what stays resident is the flat exact
//! rows, the fallback set, the row offsets and one count per type.
//!
//! The counting global allocator makes this test binary its own
//! instrument; the library crates stay `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use pex_core::MethodIndex;
use pex_corpus::table1_projects;
use pex_model::minics::{self, PrintOptions};
use pex_model::Database;

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

/// The Paint.NET@0.5 model, built from printed source as the daemon's
/// tenant of that scale is.
fn paint_half() -> Database {
    let paint = table1_projects()
        .into_iter()
        .find(|p| p.name == "Paint.NET")
        .expect("Paint.NET is a Table 1 project");
    let source = minics::print(&paint.generate(0.5), PrintOptions::default());
    minics::compile(&source).expect("generated source compiles")
}

fn build_and_prewarm(db: &Database) -> MethodIndex {
    let index = MethodIndex::build(black_box(db));
    index.prewarm(db);
    index
}

#[test]
fn build_and_prewarm_allocate_o1_blocks_and_keep_only_rows_and_counts() {
    let db = paint_half();
    // The conversion index belongs to the type table, and the first probe
    // of each counter registers it: both are paid before measuring.
    let _ = db.types().conversion_index();
    drop(build_and_prewarm(&db));

    let (index, allocs, live) = measured(|| build_and_prewarm(&db));
    let types = db.types().len();
    let entries: usize = db.types().iter().map(|t| index.exact(t).len()).sum();
    let with_args = index.all_with_args().len();
    eprintln!(
        "{allocs} allocations, {live} live bytes for {types} types, \
         {entries} exact entries, {with_args} methods with arguments"
    );
    assert!(types > 200, "a meaningful model: {types} types");
    // Rows, offsets, the fallback set, the count cells and the prewarm's
    // one scratch: a handful of blocks, however many types there are.
    assert!(allocs <= 8, "{allocs} allocations for {types} types");
    // 4 bytes per row entry and per fallback method; per type, a 4-byte
    // row offset and a 4-byte count; one closing offset and slack.
    let bound = 4 * (entries + with_args) + 8 * types + 64;
    assert!(
        live >= (4 * (entries + with_args)) as i64,
        "{live} live bytes cannot hold the rows"
    );
    assert!(
        live <= bound as i64,
        "{live} live bytes above the {bound}-byte bound"
    );
}
