//! The compiled model of each builtin corpus, pinned byte for byte.
//!
//! Each case builds a snapshot exactly as `pex-serve <corpus> --build-only
//! --save-snapshot <file>` does (compile the mini-C# corpus, build the
//! method index, prewarm) and hashes its encoded bytes. A
//! front-end or index change that claims "same model" proves it here: any
//! difference in types, members, bodies, override links, index rows,
//! memoized candidate counts or interned arena nodes moves the hash.
//! The per-section hashes pin the model apart from the file format, so
//! a format change (version 3 dropped the reachability index section)
//! can re-pin the whole-file constants while proving the model unmoved.
//! Version 4 changed the method-index section itself (candidate counts
//! instead of candidate lists), so its pin moved with the whole-file
//! ones while the database and arena pins stayed.
//!
//! The whole-file constants were taken from `pex-serve` builds whose
//! version-4 `.pexsnap` files have these SHA-256 prefixes: paint
//! `c7d3514c`, geometry `1fa3f31b`, familyshow `044af07c`.

use pex_serve::{persist, Snapshot, SnapshotSource};
use pex_types::wire::Writer;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn snapshot_hash(source: SnapshotSource) -> (usize, u64) {
    let snapshot = Snapshot::load(&source).expect("builtin corpus builds");
    let bytes = persist::to_bytes(&snapshot);
    (bytes.len(), fnv1a64(&bytes))
}

/// FNV-1a hashes of the database, method-index and arena sections as
/// their own encoders write them. These pin the model independently of
/// the file format: a change to the container (a section added or
/// dropped, a version bump) re-pins the whole-file constants below but
/// must leave these alone.
fn section_hashes(source: SnapshotSource) -> [u64; 3] {
    let snapshot = Snapshot::load(&source).expect("builtin corpus builds");
    let hash = |encode: &dyn Fn(&mut Writer)| {
        let mut w = Writer::new();
        encode(&mut w);
        fnv1a64(&w.into_bytes())
    };
    [
        hash(&|w| snapshot.db.encode_snapshot(w)),
        hash(&|w| snapshot.index.encode_snapshot(w)),
        hash(&|w| snapshot.cache.arena.encode_snapshot(w)),
    ]
}

#[test]
fn fnv1a64_matches_the_reference_vectors() {
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}

#[test]
fn paint_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_hash(SnapshotSource::Paint),
        (4118, 0x3782_9883_8fa9_9a55)
    );
}

#[test]
fn geometry_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_hash(SnapshotSource::Geometry),
        (2529, 0xc022_d6e9_a3a3_39c4)
    );
}

#[test]
fn familyshow_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_hash(SnapshotSource::FamilyShow),
        (2318, 0x8a76_3acc_be2b_f6c9)
    );
}

#[test]
fn paint_model_sections_are_pinned() {
    assert_eq!(
        section_hashes(SnapshotSource::Paint),
        [
            0xab4b_02e7_393c_f68c,
            0x0f37_303b_e65c_f483,
            0xa8c7_f832_281a_39c5
        ]
    );
}

#[test]
fn geometry_model_sections_are_pinned() {
    assert_eq!(
        section_hashes(SnapshotSource::Geometry),
        [
            0x06e0_f55c_8ad2_d943,
            0xe344_14ba_6fa6_9a97,
            0xa8c7_f832_281a_39c5
        ]
    );
}

#[test]
fn familyshow_model_sections_are_pinned() {
    assert_eq!(
        section_hashes(SnapshotSource::FamilyShow),
        [
            0x1fd3_f569_b6a3_669a,
            0xd02f_4711_a60a_0a15,
            0xa8c7_f832_281a_39c5
        ]
    );
}
