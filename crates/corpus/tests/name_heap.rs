//! Heap guard for member names: names of up to 15 bytes live inline in
//! [`Name`], so they cost no heap block, and cloning a generated project's
//! database allocates well under once per member name.
//!
//! The counting global allocator makes this test binary its own
//! instrument; the library crates stay `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use pex_corpus::profiles::table1_projects;
use pex_model::minics::{self, PrintOptions};
use pex_model::Name;

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

#[test]
fn short_names_are_built_and_cloned_without_allocating() {
    let ascii = "abcdefghijklmnopq";
    let accented = "éèêëàâäôöûüçîï";
    for text in [ascii, accented] {
        for end in (0..=15).filter(|&end| text.is_char_boundary(end)) {
            let s = black_box(&text[..end]);
            let (name, built) = allocations(|| Name::new(s));
            let (copy, cloned) = allocations(|| black_box(&name).clone());
            assert_eq!((built, cloned), (0, 0), "{s:?} allocated");
            assert_eq!(copy.as_str(), s);
        }
    }
    // The counter sees the boxed representation of a 16-byte name.
    let (long, built) = allocations(|| Name::new(black_box(&ascii[..16])));
    assert!(built > 0, "a 16-byte name is boxed");
    assert_eq!(long.as_str(), &ascii[..16]);
}

#[test]
fn cloning_a_generated_project_allocates_under_one_block_per_name() {
    let paint = table1_projects()
        .into_iter()
        .find(|p| p.name == "Paint.NET")
        .expect("Paint.NET is a Table 1 project");
    // A served tenant is built from source, so print the generated model
    // and compile it back, as the daemon's Paint.NET@0.5 tenant is built.
    let source = minics::print(&paint.generate(0.5), PrintOptions::default());
    let db = minics::compile(&source).expect("generated source compiles");
    let params: usize = db.methods().map(|m| db.method(m).params().len()).sum();
    let names = db.method_count() + db.field_count() + params;
    let (copy, allocs) = allocations(|| black_box(&db).clone());
    assert_eq!(copy.method_count(), db.method_count());
    let per_name = allocs as f64 / names as f64;
    eprintln!("{allocs} allocations for {names} member names ({per_name:.3} per name)");
    // A `String` per name costs one block each, so this was ≥ 1 by
    // construction; with inline names what is left is mostly parameter
    // lists, per-type member tables, type names and bodies.
    assert!(
        per_name < 0.75,
        "{allocs} allocations for {names} member names ({per_name:.3} per name)"
    );
}
