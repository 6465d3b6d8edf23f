//! The compiled model of each builtin corpus, pinned byte for byte.
//!
//! Each case builds a snapshot exactly as `pex-serve <corpus> --build-only
//! --save-snapshot <file>` does (compile the mini-C# corpus, build the
//! method and reach indexes, prewarm) and hashes its encoded bytes. A
//! front-end or index change that claims "same model" proves it here: any
//! difference in types, members, bodies, override links, index rows,
//! memoized candidate lists or interned arena nodes moves the hash.
//!
//! The constants were taken from `pex-serve` builds whose `.pexsnap` files
//! have these SHA-256 prefixes: paint `d43e4aa6`, geometry `3f3cb707`,
//! familyshow `90dcb236`.

use pex_serve::{persist, Snapshot, SnapshotSource};

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
        (6202, 0x049e_6914_6ec4_1d13)
    );
}

#[test]
fn geometry_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_hash(SnapshotSource::Geometry),
        (3473, 0xe681_078e_2613_5299)
    );
}

#[test]
fn familyshow_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_hash(SnapshotSource::FamilyShow),
        (2926, 0x1345_f91f_ab69_ffc7)
    );
}
