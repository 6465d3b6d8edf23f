//! Helpers shared by the snapshot decode tests: a file split into its
//! sections, and a file rebuilt from edited sections with a valid header
//! and checksum, so only the decoders' own validation can reject it.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use pex_serve::persist;

/// The section tag of the database section.
pub const DATABASE: u32 = 1;
/// The section tag of the string table section.
pub const STRINGS: u32 = 6;

/// The sections of a snapshot file as `(tag, bytes)`, in file order.
pub type Sections = Vec<(u32, Vec<u8>)>;

/// The sections of a snapshot file, split out of its bytes.
pub fn sections(bytes: &[u8]) -> Sections {
    let u32_at = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let n = u32_at(28) as usize;
    let payload = 32 + 20 * n;
    (0..n)
        .map(|i| {
            let entry = 32 + 20 * i;
            let (offset, len) = (u64_at(entry + 4), u64_at(entry + 12));
            (
                u32_at(entry),
                bytes[payload + offset..payload + offset + len].to_vec(),
            )
        })
        .collect()
}

/// A snapshot file holding `sections`, with a valid header and checksum.
pub fn assemble(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let payload: Vec<u8> = sections
        .iter()
        .flat_map(|(_, b)| b.iter().copied())
        .collect();
    let mut out = b"pexsnap1".to_vec();
    out.extend(persist::VERSION.to_le_bytes());
    out.extend((payload.len() as u64).to_le_bytes());
    out.extend(pex_types::wire::checksum(&payload).to_le_bytes());
    out.extend((sections.len() as u32).to_le_bytes());
    let mut offset = 0u64;
    for (tag, bytes) in sections {
        out.extend(tag.to_le_bytes());
        out.extend(offset.to_le_bytes());
        out.extend((bytes.len() as u64).to_le_bytes());
        offset += bytes.len() as u64;
    }
    out.extend(payload);
    out
}

/// The paint snapshot file `sections` with the body of
/// `Scratch.Example`, a static method of no parameters, claiming one.
/// The body opens with two locals, so the claim still fits its slots:
/// only the body-shape rule can refuse it. The body is found by its
/// contents: its local slot table (a count, then a name id and a type id
/// per slot) and then its parameter count.
pub fn paint_body_claiming_a_parameter(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let snapshot = persist::from_bytes(&assemble(sections)).unwrap();
    let db = &snapshot.db;
    let example = db.find_method("PaintDotNet.Client.Scratch.Example");
    let body = db.method(example.unwrap()).body().unwrap();
    let strings = &sections.iter().find(|(t, _)| *t == STRINGS).unwrap().1;
    let strings = pex_types::wire::Strings::decode(strings).unwrap();
    let id = |text: &str| strings.iter().position(|s| s == text).unwrap() as u32;
    let mut words = vec![body.locals.len() as u32];
    for (name, ty) in &body.locals {
        words.extend([id(name), ty.index() as u32]);
    }
    words.push(0);
    let pattern: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
    let mut sections = sections.to_vec();
    let database = &mut sections.iter_mut().find(|(t, _)| *t == DATABASE).unwrap().1;
    let mut hits = database.windows(pattern.len()).enumerate();
    let (at, _) = hits.find(|(_, w)| *w == pattern).unwrap();
    assert!(hits.all(|(_, w)| w != pattern), "the body is unique");
    let count = at + pattern.len() - 4;
    database[count..count + 4].copy_from_slice(&1u32.to_le_bytes());
    assemble(&sections)
}
