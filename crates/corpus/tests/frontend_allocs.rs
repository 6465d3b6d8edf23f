//! Allocation guard for the mini-C# front end: compiling a generated
//! Paint.NET@0.5 project (lexing, parsing and lowering it) stays under a
//! fixed number of heap blocks. Paths are ranges into one per-file
//! segment arena and type references are resolved once per distinct
//! (scope, path) pair, so the count grows with the model built, not with
//! the number of type references in the text.
//!
//! The counting global allocator makes this test binary its own
//! instrument; the library crates stay `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use pex_corpus::profiles::table1_projects;
use pex_model::minics::{self, PrintOptions};

/// Counts allocations made by the current thread, so tests running in
/// parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with`: the slot is gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counter is a
// thread-local `Cell` with a `const` initialiser, which neither allocates
// nor runs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the current thread makes while running `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// The most heap blocks compiling the generated Paint.NET@0.5 source may
/// take: the count measured when the type tables went flat (4,424; a
/// name, a map key and three conversion-index vectors per type had
/// brought it to 7,853), plus 10%.
const MAX_COMPILE_ALLOCS: u64 = 4_866;

#[test]
fn compiling_a_generated_project_stays_under_its_allocation_budget() {
    let paint = table1_projects()
        .into_iter()
        .find(|p| p.name == "Paint.NET")
        .expect("Paint.NET is a Table 1 project");
    // The daemon's Paint.NET@0.5 tenant is built from this same text.
    let source = minics::print(&paint.generate(0.5), PrintOptions::default());
    let (db, allocs) = allocations(|| minics::compile(black_box(&source)));
    let db = db.expect("generated source compiles");
    eprintln!(
        "{allocs} allocations to compile {} bytes into {} methods and {} fields",
        source.len(),
        db.method_count(),
        db.field_count()
    );
    assert!(
        allocs <= MAX_COMPILE_ALLOCS,
        "{allocs} allocations, budget {MAX_COMPILE_ALLOCS}"
    );
}
