//! Heap guard for the type layer: a type table keeps its rows, names,
//! interfaces and namespace trie in a fixed number of flat tables, and
//! its conversion index its rows and bitset in two more, so cloning or
//! decoding a table and building or decoding its index take a number of
//! heap blocks that does not grow with the type count.
//!
//! The counting global allocator makes this test binary its own
//! instrument; the library crates stay `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use pex_corpus::profiles::table1_projects;
use pex_model::minics::{self, PrintOptions};
use pex_model::TypeTable;
use pex_types::wire::{Reader, StringTable, Strings, Writer};
use pex_types::ConversionIndex;

/// Counts the allocations made by the current thread and the bytes it
/// holds, so tests running in parallel do not see each other's.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(blocks: u64, bytes: i64) {
    // `try_with`: the slots are gone while the thread is being torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + blocks));
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counters are
// thread-local `Cell`s with `const` initialisers, which neither allocate
// nor run a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller upholds the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f` on the current thread, returning its result, the blocks it
/// allocated and the bytes still held when it returned (the result's).
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (blocks, live) = (ALLOCS.with(Cell::get), LIVE.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCS.with(Cell::get) - blocks,
        LIVE.with(Cell::get) - live,
    )
}

/// Blocks and live bytes of the type layer of the generated Paint.NET
/// model at one scale.
struct TypeLayer {
    types: usize,
    table_clone: u64,
    table_decode: u64,
    index_build: u64,
    index_decode: u64,
    /// Bytes a decoded table holds, its conversion index included.
    table_bytes: i64,
}

fn type_layer(scale: f64) -> TypeLayer {
    let paint = table1_projects()
        .into_iter()
        .find(|p| p.name == "Paint.NET")
        .expect("Paint.NET is a Table 1 project");
    // A served tenant is built from source, as the daemon's Paint.NET@0.5
    // tenant is.
    let source = minics::print(&paint.generate(scale), PrintOptions::default());
    let db = minics::compile(&source).expect("generated source compiles");
    let types = db.types();
    let n = types.len();
    // The table encodes its index only once built.
    let index = types.conversion_index();

    let (_, index_build, _) = measure(|| ConversionIndex::build(black_box(types)));
    let mut w = Writer::new();
    index.encode(&mut w);
    let bytes = w.into_bytes();
    let (decoded, index_decode, _) =
        measure(|| ConversionIndex::decode(&mut Reader::new(&bytes), n).expect("index decodes"));
    assert_eq!(decoded.len(), n);

    let (copy, table_clone, _) = measure(|| black_box(types).clone());
    assert_eq!(copy.len(), n);
    let (mut strings, mut w) = (StringTable::new(), Writer::new());
    types.encode(&mut strings, &mut w);
    let bytes = w.into_bytes();
    let mut table = Writer::new();
    strings.encode(&mut table);
    let table = table.into_bytes();
    let strings = Strings::decode(&table).expect("string table decodes");
    let (decoded, table_decode, table_bytes) = measure(|| {
        TypeTable::decode(&strings, &mut Reader::new(&bytes)).expect("type table decodes")
    });
    assert_eq!(decoded.len(), n);
    TypeLayer {
        types: n,
        table_clone,
        table_decode,
        index_build,
        index_decode,
        table_bytes,
    }
}

/// Blocks a table clone may take: the rows, the interface table and the
/// name index, and the namespace arena's text offsets, text, trie nodes,
/// path table and child index.
const TABLE_CLONE: u64 = 8;
/// Blocks a table decode may take: those of a clone, the decoder's
/// scratch (the namespace paths, the hierarchy check's three vectors),
/// the text reservation and trims, and an index decode in its `Arc`.
const TABLE_DECODE: u64 = 24;
/// Blocks an index build may take: its rows' offsets and items, the
/// bitset, the supertypes-first order with its two scratch vectors, and
/// the per-target distance scratch.
const INDEX_BUILD: u64 = 7;
/// Blocks an index decode may take: its rows' offsets and items, the
/// bitset and the file's row list.
const INDEX_DECODE: u64 = 4;
/// Bytes a decoded table of the generated Paint.NET model may hold per
/// type, conversion index included. Rows, names and index read 122–139;
/// with a `String` name, a keyed map and three index vectors per type a
/// table held 300.
const BYTES_PER_TYPE: i64 = 180;

#[test]
fn the_type_layer_takes_a_fixed_number_of_blocks() {
    // Warm up once-per-process allocations (counter registration).
    let _ = type_layer(0.05);
    for scale in [0.1, 0.5] {
        let t = type_layer(scale);
        let per_type = t.table_bytes as f64 / t.types as f64;
        eprintln!(
            "scale {scale}: {} types; table clone {} blocks, decode {}; index build {}, \
             decode {}; a decoded table holds {} bytes ({per_type:.1} per type)",
            t.types, t.table_clone, t.table_decode, t.index_build, t.index_decode, t.table_bytes
        );
        for (what, got, bound) in [
            ("table clone", t.table_clone, TABLE_CLONE),
            ("table decode", t.table_decode, TABLE_DECODE),
            ("index build", t.index_build, INDEX_BUILD),
            ("index decode", t.index_decode, INDEX_DECODE),
        ] {
            assert!(
                got <= bound,
                "scale {scale}: {what} took {got} blocks, bound {bound}"
            );
        }
        assert!(
            t.table_bytes <= BYTES_PER_TYPE * t.types as i64,
            "scale {scale}: a decoded table holds {per_type:.1} bytes per type"
        );
    }
}
