//! Heap guard for the member tables: a database keeps its methods,
//! parameters, fields, member names, per-type member lists and bodies in
//! a fixed number of flat tables, so cloning one takes a fixed number of
//! heap blocks (every body is shared), and decoding one a number that
//! grows with its bodies but not with its types or members.
//!
//! The counting global allocator makes this test binary its own
//! instrument; the library crates stay `forbid(unsafe_code)`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use pex_corpus::profiles::table1_projects;
use pex_model::minics::{self, PrintOptions};
use pex_model::{Database, TypeTable};
use pex_types::wire::{Reader, StringTable, Strings, Writer};

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

/// The blocks one clone or decode of the generated Paint.NET model
/// takes, split into the parts the bound treats separately.
struct Blocks {
    /// Types, builtins included.
    types: u64,
    /// Blocks of the same operations on the type table alone (its
    /// decode also builds the conversion index a clone shares).
    table_clone: u64,
    table_decode: u64,
    /// Blocks cloning every method body takes, plus one shared
    /// allocation per body.
    bodies: u64,
    /// Methods, fields and parameters: one name each.
    names: u64,
    clone: u64,
    decode: u64,
}

fn blocks(scale: f64) -> Blocks {
    let paint = table1_projects()
        .into_iter()
        .find(|p| p.name == "Paint.NET")
        .expect("Paint.NET is a Table 1 project");
    // A served tenant is built from source, so print the generated model
    // and compile it back, as the daemon's Paint.NET@0.5 tenant is built.
    let source = minics::print(&paint.generate(scale), PrintOptions::default());
    let db = minics::compile(&source).expect("generated source compiles");
    let params: usize = db.methods().map(|m| db.method(m).params().len()).sum();
    let bodies: Vec<_> = db.methods().filter_map(|m| db.method(m).body()).collect();
    let (_, body_blocks) = allocations(|| {
        for &body in &bodies {
            black_box(body.clone());
        }
    });

    let (copy, clone) = allocations(|| black_box(&db).clone());
    assert_eq!(copy.method_count(), db.method_count());
    let (_, table_clone) = allocations(|| black_box(db.types()).clone());

    let (mut strings, mut w) = (StringTable::new(), Writer::new());
    db.encode_snapshot(&mut strings, &mut w);
    let bytes = w.into_bytes();
    let mut table = Writer::new();
    strings.encode(&mut table);
    let table = table.into_bytes();
    let strings = Strings::decode(&table).expect("string table decodes");
    let (decoded, decode) = allocations(|| {
        Database::decode_snapshot(&strings, &mut Reader::new(&bytes)).expect("database decodes")
    });
    assert_eq!(decoded.method_count(), db.method_count());
    // The type table leads the database section.
    let (_, table_decode) = allocations(|| {
        TypeTable::decode(&strings, &mut Reader::new(&bytes)).expect("type table decodes")
    });
    Blocks {
        types: db.types().len() as u64,
        table_clone,
        table_decode,
        bodies: body_blocks + bodies.len() as u64,
        names: (db.method_count() + db.field_count() + params) as u64,
        clone,
        decode,
    }
}

/// Blocks for the member tables: the method, parameter and field rows,
/// the name table's offsets and text, the two per-type row tables (an
/// offset and an item vector each) and the body table.
const TABLES: u64 = 10;

#[test]
fn cloning_takes_fixed_blocks_and_decoding_blocks_per_body_only() {
    for scale in [0.1, 0.5] {
        let b = blocks(scale);
        // Beyond the type table, a clone takes the tables' blocks and
        // shares the bodies; a decode also builds each body, whatever
        // the type or member count.
        for (what, got, bound) in [
            ("clone", b.clone, b.table_clone + TABLES),
            ("decode", b.decode, b.table_decode + b.bodies + TABLES),
        ] {
            let per_name = got as f64 / b.names as f64;
            eprintln!(
                "scale {scale}: {what} took {got} blocks for {} types and {} member names \
                 ({per_name:.3} per name; bound {bound})",
                b.types, b.names
            );
            assert!(
                got <= bound,
                "scale {scale}: {what} took {got} blocks, bound {bound}"
            );
        }
        // With a `Name` and a parameter box per member a clone took 0.385
        // blocks per name, and with a list per type and a box per body
        // 0.150.
        let per_name = b.clone as f64 / b.names as f64;
        assert!(
            per_name < 0.2,
            "scale {scale}: a clone took {per_name:.3} per name"
        );
    }
}
