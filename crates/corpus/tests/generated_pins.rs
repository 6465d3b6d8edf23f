//! The generated Table 1 projects, pinned byte for byte.
//!
//! The generator is the one builder every experiment's project comes
//! from: perfbench prints each generated model as mini-C# and compiles
//! the text, and the serve tenants are compiled from the same print. Each
//! case hashes two things, so a change to how the generator builds its
//! model that claims "same projects" proves it here:
//! * the printed source (`minics::print` with default options), which is
//!   what gets compiled — it moves with any type, member, member order or
//!   body the generator emits;
//! * the encoded generated `Database` (its database section followed by
//!   its string table), which also moves with any member id.
//!
//! Every Table 1 profile is pinned at scale 0.05, and Paint.NET also at
//! 0.5, the size of the socket and edit tenants.

use pex_corpus::profiles::table1_projects;
use pex_model::minics::{self, PrintOptions};
use pex_model::Database;
use pex_types::wire::{StringTable, Writer};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The database section of `db`, then its string table.
fn encoded(db: &Database) -> Vec<u8> {
    let (mut strings, mut w) = (StringTable::new(), Writer::new());
    db.encode_snapshot(&mut strings, &mut w);
    strings.encode(&mut w);
    w.into_bytes()
}

/// `(project, scale, printed source hash, encoded model hash)`.
const PINS: &[(&str, f64, u64, u64)] = &[
    ("Paint.NET", 0.05, 0x23351a3d88ec8fab, 0x2e1c30de3f7b0284),
    ("WiX", 0.05, 0xe327431eaec4ba13, 0xba39d58fdcadda93),
    ("GNOME Do", 0.05, 0x12eda7db969e334c, 0xc615d2adf4318531),
    ("Banshee", 0.05, 0xa4e85d79c2eceec6, 0x6d82a9b5645bc54e),
    (".NET", 0.05, 0x7fbd275fd9b45a43, 0x8072ce12d945b235),
    ("Family.Show", 0.05, 0xe451c040923fdcd5, 0xa0ddefa32f244b4d),
    ("LiveGeometry", 0.05, 0xab31fe1d043d09b1, 0xe2baf54d702f8290),
    ("Paint.NET", 0.5, 0x60f18bf6bd9cf25b, 0x8849cd415fe2f10b),
];

#[test]
fn generated_projects_print_and_encode_as_pinned() {
    let projects = table1_projects();
    let mut cases: Vec<(&str, f64)> = projects.iter().map(|p| (p.name, 0.05)).collect();
    cases.push(("Paint.NET", 0.5));
    let mut got = Vec::new();
    for (name, scale) in cases {
        let profile = projects.iter().find(|p| p.name == name).unwrap();
        let db = profile.generate(scale);
        let source = minics::print(&db, PrintOptions::default());
        got.push((
            name,
            scale,
            fnv1a64(source.as_bytes()),
            fnv1a64(&encoded(&db)),
        ));
    }
    // On a mismatch, the lines to paste over `PINS`.
    for (name, scale, source, model) in &got {
        eprintln!("    (\"{name}\", {scale:?}, {source:#018x}, {model:#018x}),");
    }
    assert_eq!(got, PINS);
}
