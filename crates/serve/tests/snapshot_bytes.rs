//! The compiled model of each builtin corpus, pinned byte for byte.
//!
//! Each case builds a snapshot exactly as `pex-serve <corpus> --build-only
//! --save-snapshot <file>` does (compile the mini-C# corpus, build the
//! method index, prewarm) and hashes its encoded bytes. A
//! front-end or index change that claims "same model" proves it here: any
//! difference in types, members, bodies, override links, index rows or
//! memoized candidate counts moves the hash.
//!
//! Three layers of pins, from the format outwards:
//! * the model digest, a canonical walk through public accessors that no
//!   byte of the format enters, taken of the built snapshot and of one
//!   loaded back from its bytes. A format change must leave it alone;
//! * the per-section hashes, which move only with the section they hash
//!   (version 3 dropped the reachability index section and moved none;
//!   version 4 changed the method-index section; version 5 moved the
//!   database's text into the new string-table section and its members
//!   into fixed-width rows, and left the method-index pins; version 6
//!   dropped the always-empty expression arena section and moved none);
//! * the whole-file constants, which move with any format change.
//!
//! The whole-file constants were taken from `pex-serve` builds whose
//! version-6 `.pexsnap` files have these SHA-256 prefixes: paint
//! `31f14b36`, geometry `717b5a00`, familyshow `6908d9db`. The model
//! digests were pinned at version 4 and did not move.

use std::fmt::Write as _;

use pex_core::CandidateScratch;
use pex_model::TypeId;
use pex_serve::{persist, Snapshot, SnapshotSource};
use pex_types::wire::{StringTable, Writer};

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

/// FNV-1a hashes of the string-table, database and method-index sections
/// as their own encoders write them. A change to the container
/// alone (a section added or dropped, a version bump) re-pins the
/// whole-file constants below but leaves these alone.
fn section_hashes(source: SnapshotSource) -> [u64; 3] {
    let snapshot = Snapshot::load(&source).expect("builtin corpus builds");
    let hash = |encode: &dyn Fn(&mut Writer)| {
        let mut w = Writer::new();
        encode(&mut w);
        fnv1a64(&w.into_bytes())
    };
    let mut strings = StringTable::new();
    let mut db = Writer::new();
    snapshot.db.encode_snapshot(&mut strings, &mut db);
    [
        hash(&|w| strings.encode(w)),
        fnv1a64(&db.into_bytes()),
        hash(&|w| snapshot.index.encode_snapshot(w)),
    ]
}

/// A format-independent digest of a snapshot's model: a canonical text
/// walk through public accessors only — namespaces, types and their
/// hierarchy, conversion targets, methods (parameters, bodies, override
/// links), fields, tombstones, index rows, candidate counts and the
/// default query site — hashed with FNV-1a. No byte of the
/// snapshot format enters it, so a format change must leave it alone.
fn model_digest(snapshot: &Snapshot) -> u64 {
    let db = &snapshot.db;
    let types = db.types();
    let mut out = String::new();
    let ns = types.namespaces();
    for id in ns.iter() {
        writeln!(out, "ns {:?}", ns.segments(id)).unwrap();
    }
    let conv = types.conversion_index();
    for t in types.iter() {
        let def = types.get(t);
        writeln!(
            out,
            "type {t:?} {} ns={:?} {:?} ifaces={:?} cmp={} base={:?} conv={:?}",
            def.name(),
            def.namespace(),
            def.kind(),
            def.interfaces(),
            def.is_comparable(),
            types.base_of(t),
            conv.targets(t),
        )
        .unwrap();
    }
    writeln!(
        out,
        "well-known {:?} prims {:?}",
        types.well_known(),
        pex_types::PrimKind::ALL.map(|k| types.prim(k))
    )
    .unwrap();
    for i in 0..db.method_count() {
        let id = pex_model::MethodId::from_index(i);
        let m = db.method(id);
        let params: Vec<(&str, TypeId)> = m.params().iter().map(|p| (p.name, p.ty)).collect();
        writeln!(
            out,
            "method {i} {} on={:?} static={} params={params:?} ret={:?} {:?} overrides={:?} \
             removed={} body={:?}",
            m.name(),
            m.declaring(),
            m.is_static(),
            m.return_type(),
            m.visibility(),
            m.overrides(),
            db.method_removed(id),
            m.body(),
        )
        .unwrap();
    }
    for i in 0..db.field_count() {
        let id = pex_model::FieldId::from_index(i);
        let f = db.field(id);
        writeln!(
            out,
            "field {i} {} on={:?} static={} ty={:?} {:?} property={} removed={}",
            f.name(),
            f.declaring(),
            f.is_static(),
            f.ty(),
            f.visibility(),
            f.is_property(),
            db.field_removed(id),
        )
        .unwrap();
    }
    let mut scratch = CandidateScratch::new();
    for t in types.iter() {
        writeln!(
            out,
            "members {t:?} {:?} {:?} row={:?} count={}",
            db.methods_of(t),
            db.fields_of(t),
            snapshot.index.exact(t),
            snapshot.index.candidate_count(db, t, &mut scratch),
        )
        .unwrap();
    }
    writeln!(out, "with-args {:?}", snapshot.index.all_with_args()).unwrap();
    writeln!(
        out,
        "site {} {:?} {:?}",
        snapshot.name, snapshot.enclosing, snapshot.default_ctx
    )
    .unwrap();
    fnv1a64(out.as_bytes())
}

/// The model digest of a builtin corpus as built, and again after a
/// round trip through the snapshot format; the two must agree.
fn model_digests(source: SnapshotSource) -> (u64, u64) {
    let built = Snapshot::load(&source).expect("builtin corpus builds");
    let loaded = persist::from_bytes(&persist::to_bytes(&built)).expect("snapshot decodes");
    (model_digest(&built), model_digest(&loaded))
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
        (4485, 0x4295_75a6_379b_92be)
    );
}

#[test]
fn geometry_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_hash(SnapshotSource::Geometry),
        (2779, 0x31b2_551b_e3b8_8d8e)
    );
}

#[test]
fn familyshow_snapshot_bytes_are_pinned() {
    assert_eq!(
        snapshot_hash(SnapshotSource::FamilyShow),
        (2560, 0x675e_f2ec_0ad2_3c93)
    );
}

#[test]
fn paint_model_sections_are_pinned() {
    assert_eq!(
        section_hashes(SnapshotSource::Paint),
        [
            0xcbdc_c468_ae51_4f53,
            0x758c_9258_5348_1d53,
            0x0f37_303b_e65c_f483
        ]
    );
}

#[test]
fn geometry_model_sections_are_pinned() {
    assert_eq!(
        section_hashes(SnapshotSource::Geometry),
        [
            0xfd54_7f85_563b_eab8,
            0xf50b_ea39_5ecb_7e70,
            0xe344_14ba_6fa6_9a97
        ]
    );
}

#[test]
fn familyshow_model_sections_are_pinned() {
    assert_eq!(
        section_hashes(SnapshotSource::FamilyShow),
        [
            0xe6f5_5321_91f0_4537,
            0x9c42_cae4_a45a_c62f,
            0xd02f_4711_a60a_0a15
        ]
    );
}

#[test]
fn paint_model_digest_is_pinned() {
    let digest = 0x30f8_5b43_6a22_6128;
    assert_eq!(model_digests(SnapshotSource::Paint), (digest, digest));
}

#[test]
fn geometry_model_digest_is_pinned() {
    let digest = 0xfd4f_4908_5f88_bb0d;
    assert_eq!(model_digests(SnapshotSource::Geometry), (digest, digest));
}

#[test]
fn familyshow_model_digest_is_pinned() {
    let digest = 0xe9e2_b2dd_0e33_8a3f;
    assert_eq!(model_digests(SnapshotSource::FamilyShow), (digest, digest));
}
