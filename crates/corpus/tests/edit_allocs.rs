//! Allocation guard for an edit: what an `update` costs on the model side
//! depends on the edited type, not on the model around it. Cloning a
//! database takes a fixed number of heap blocks (member lists are two row
//! tables, bodies are shared), and re-declaring one type takes the same
//! blocks, within a small margin, in a small and a large model.
//!
//! Both models are generated Paint.NET projects, printed and compiled as
//! the daemon's tenant is, plus one fixed probe type that the edits
//! re-declare, so the edited unit is the same text at both scales.
//!
//! The counting global allocator makes this test binary its own
//! instrument; the library crates stay `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use pex_corpus::profiles::table1_projects;
use pex_model::minics::{self, ModelDiff, PrintOptions};
use pex_model::Database;

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

/// The type every edit re-declares. It names only built-in types, so it
/// is the same type at every scale.
const PROBE: &str = "namespace Probe {
    class Gauge {
        int Count;
        double Level { get; set; }
        static int Twice(int x) { return x; }
        int Read() { return this.Count; }
        double Scale(double factor);
    }
}
";

/// How far apart the blocks of one edit may be at the two scales. What
/// still grows with the model are a few vectors that some phases fill
/// before they know their length; the re-declared type's own work is the
/// same text at both scales.
const MARGIN: u64 = 4;

/// The probe re-declared with one body changed, and with one return type
/// changed.
fn edits() -> [(&'static str, String); 2] {
    [
        (
            "body-only",
            PROBE.replace(
                "return this.Count;",
                "return Probe.Gauge.Twice(this.Count);",
            ),
        ),
        ("return-type", PROBE.replace("double Scale(", "int Scale(")),
    ]
}

/// The generated Paint.NET model at `scale`, printed and compiled with
/// the probe.
fn model(scale: f64) -> Database {
    let paint = table1_projects()
        .into_iter()
        .find(|p| p.name == "Paint.NET")
        .expect("Paint.NET is a Table 1 project");
    let source = minics::print(&paint.generate(scale), PrintOptions::default());
    minics::compile(&format!("{source}\n{PROBE}")).expect("generated source compiles")
}

/// The blocks of one clone and of each edit in [`edits`].
fn blocks(db: &Database) -> (u64, Vec<u64>) {
    let (copy, clone) = allocations(|| black_box(db).clone());
    assert_eq!(copy.method_count(), db.method_count());
    let edits = edits()
        .iter()
        .map(|(what, unit)| {
            let update = || minics::apply_update(black_box(db), unit).expect("the edit applies");
            // Once unmeasured, so lazily set-up state is not counted.
            drop(update());
            let ((patched, diff), blocks) = allocations(update);
            check(what, &diff);
            drop(patched);
            blocks
        })
        .collect();
    (clone, edits)
}

/// The edit changed what its name says, and only that.
fn check(what: &str, diff: &ModelDiff) {
    match what {
        "body-only" => assert!(
            diff.body_edited.len() == 1 && diff.dirty_types.is_empty(),
            "{diff:?}"
        ),
        _ => assert!(
            diff.signatures_changed == 1 && diff.body_edited.is_empty(),
            "{diff:?}"
        ),
    }
}

#[test]
fn an_edit_takes_the_same_blocks_in_a_small_and_a_large_model() {
    let small = model(0.1);
    let large = model(0.5);
    assert!(2 * large.method_count() > 3 * small.method_count());
    let (small_clone, small_edits) = blocks(&small);
    let (large_clone, large_edits) = blocks(&large);
    eprintln!(
        "clone: {small_clone} blocks at 0.1 ({} types), {large_clone} at 0.5 ({} types)",
        small.types().len(),
        large.types().len()
    );
    assert_eq!(small_clone, large_clone, "a clone takes fixed blocks");
    for (((what, _), small), large) in edits().iter().zip(small_edits).zip(large_edits) {
        eprintln!("{what} edit: {small} blocks at 0.1, {large} at 0.5");
        assert!(
            small.abs_diff(large) <= MARGIN,
            "{what} edit: {small} blocks at 0.1 but {large} at 0.5 (margin {MARGIN})"
        );
    }
}
