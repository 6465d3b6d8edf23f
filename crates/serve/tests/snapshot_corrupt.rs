//! Hostile-input suite for the `pex-snapshot` loader: a snapshot file
//! is untrusted bytes, and the daemon is `forbid(unsafe_code)` — every
//! truncation, bit-flip and header forgery must surface as a clean,
//! human-readable `Err`, never a panic, a hang, or a silently wrong
//! snapshot.

use pex_serve::{persist, Snapshot, SnapshotSource};

mod common;

use common::{assemble, sections, DATABASE, STRINGS};

fn paint_bytes() -> Vec<u8> {
    let snapshot = Snapshot::load(&SnapshotSource::Paint).unwrap();
    persist::to_bytes(&snapshot)
}

#[test]
fn every_truncation_is_a_clean_error() {
    let bytes = paint_bytes();
    for k in 0..bytes.len() {
        let err = persist::from_bytes(&bytes[..k])
            .err()
            .unwrap_or_else(|| panic!("truncation to {k} bytes decoded successfully"));
        assert!(!err.is_empty(), "truncation to {k}: empty error message");
    }
}

#[test]
fn every_single_bit_flip_is_a_clean_error() {
    let bytes = paint_bytes();
    // One flipped bit per byte offset (rotating which bit) covers the
    // whole file: header, section table and payload. The payload region
    // is guarded by the checksum; the header and table by validation.
    for offset in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[offset] ^= 1 << (offset % 8);
        let result = persist::from_bytes(&bad);
        assert!(
            result.is_err(),
            "bit flip at byte {offset} decoded successfully"
        );
    }
}

#[test]
fn future_versions_are_rejected_with_guidance() {
    let mut bytes = paint_bytes();
    // The version field sits right after the 8 magic bytes (u32 LE).
    let future = persist::VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    let err = persist::from_bytes(&bytes).unwrap_err();
    assert!(
        err.contains(&format!("unsupported snapshot version {future}")),
        "{err}"
    );
    assert!(err.contains("--save-snapshot"), "{err}");
}

#[test]
fn previous_versions_are_rejected_with_guidance() {
    let mut bytes = paint_bytes();
    // A file from the previous format (it still carried the expression
    // arena section) must be turned away, not misread.
    let previous = persist::VERSION - 1;
    bytes[8..12].copy_from_slice(&previous.to_le_bytes());
    let err = persist::from_bytes(&bytes).unwrap_err();
    assert!(
        err.contains(&format!("unsupported snapshot version {previous}")),
        "{err}"
    );
    assert!(err.contains("--save-snapshot"), "{err}");
}

#[test]
fn foreign_files_are_rejected_by_magic() {
    let err = persist::from_bytes(b"PNG\r\n\x1a\nnot a snapshot at all").unwrap_err();
    assert!(err.contains("magic"), "{err}");
    let err = persist::from_bytes(&[]).unwrap_err();
    assert!(!err.is_empty());
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = paint_bytes();
    bytes.extend_from_slice(b"garbage");
    let err = persist::from_bytes(&bytes).unwrap_err();
    assert!(err.contains("trailing"), "{err}");
}

#[test]
fn checksum_catches_silent_payload_swaps() {
    // Swap two distinct payload bytes: lengths all stay valid, so only
    // the checksum can notice. (Find two differing bytes near the end —
    // the payload region — and swap them.)
    let bytes = paint_bytes();
    let payload_start = bytes.len() - 100;
    let mut swapped = None;
    for i in payload_start..bytes.len() {
        for j in (i + 1)..bytes.len() {
            if bytes[i] != bytes[j] {
                swapped = Some((i, j));
                break;
            }
        }
        if swapped.is_some() {
            break;
        }
    }
    let (i, j) = swapped.expect("payload has two differing bytes");
    let mut bad = bytes;
    bad.swap(i, j);
    let err = persist::from_bytes(&bad).unwrap_err();
    assert!(err.contains("checksum") || err.contains("corrupt"), "{err}");
}

#[test]
fn missing_file_errors_cleanly() {
    let err = persist::load(std::path::Path::new("/nonexistent/dir/x.pexsnap")).unwrap_err();
    assert!(err.contains("cannot read"), "{err}");
}

// Forged files: the sections are rewritten and the checksum recomputed,
// so only the structural validation of the decoders can reject them.

/// The paint snapshot with the section tagged `tag` rewritten by `edit`.
fn forged(tag: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut parts = sections(&paint_bytes());
    let section = &mut parts.iter_mut().find(|(t, _)| *t == tag).unwrap().1;
    edit(section);
    assemble(&parts)
}

/// Decodes a forged file and checks it fails with one clean line that
/// names `section` and says `what`.
fn rejects(bytes: &[u8], section: &str, what: &str) {
    let err = persist::from_bytes(bytes).unwrap_err();
    assert!(err.starts_with(section), "{err}");
    assert!(err.contains(what), "{err}");
    assert!(!err.contains('\n'), "{err}");
}

/// Byte offset of method 0's row (name id, declaring type, return type,
/// parameter count, flags) inside the database section, found by its
/// contents.
fn first_method_row(strings: &[u8], database: &[u8]) -> usize {
    let snapshot = Snapshot::load(&SnapshotSource::Paint).unwrap();
    let m = snapshot.db.method(pex_model::MethodId::from_index(0));
    let strings = pex_types::wire::Strings::decode(strings).unwrap();
    let name = strings.iter().position(|s| s == m.name()).unwrap() as u32;
    let flags = u32::from(m.is_static())
        | u32::from(m.visibility() == pex_model::Visibility::Private) << 1
        | u32::from(m.overrides().is_some()) << 2
        | u32::from(m.body().is_some()) << 3;
    let row: Vec<u8> = [
        name,
        m.declaring().index() as u32,
        m.return_type().index() as u32,
        m.params().len() as u32,
        flags,
    ]
    .iter()
    .flat_map(|v| v.to_le_bytes())
    .collect();
    let at = database.windows(row.len()).position(|w| w == row).unwrap();
    assert_eq!(
        database[at + row.len()..]
            .windows(row.len())
            .position(|w| w == row),
        None,
        "method 0's row is unique"
    );
    at
}

/// Rewrites word `field` of method 0's row in the database section.
fn forge_method_row(field: usize, edit: impl Fn(u32) -> u32) -> Vec<u8> {
    let parts = sections(&paint_bytes());
    let part = |tag: u32| &parts.iter().find(|(t, _)| *t == tag).unwrap().1;
    let at = first_method_row(part(STRINGS), part(DATABASE)) + 4 * field;
    forged(DATABASE, |db| {
        let old = u32::from_le_bytes(db[at..at + 4].try_into().unwrap());
        db[at..at + 4].copy_from_slice(&edit(old).to_le_bytes());
    })
}

#[test]
fn forged_sections_still_decode_when_unchanged() {
    // The forging helpers alone produce a file the loader accepts.
    let bytes = paint_bytes();
    assert_eq!(assemble(&sections(&bytes)), bytes);
    assert!(persist::from_bytes(&forged(DATABASE, |_| {})).is_ok());
}

#[test]
fn unknown_and_retired_section_tags_are_clean_errors() {
    // Version 5's empty expression arena (tag 5: no symbols, no nodes)
    // and a tag no version has written, each appended to a valid file.
    for (tag, bytes) in [(5, vec![0; 8]), (99, b"unknown".to_vec())] {
        let mut parts = sections(&paint_bytes());
        parts.push((tag, bytes));
        rejects(
            &assemble(&parts),
            &format!("unknown section tag {tag} "),
            "this build reads tags [1, 2, 3, 6]",
        );
    }
}

#[test]
fn name_id_out_of_range_is_a_clean_error() {
    let bytes = forge_method_row(0, |_| 1_000_000);
    rejects(
        &bytes,
        "database section: ",
        "method name: name id 1000000 out of range (string table holds",
    );
}

#[test]
fn invalid_utf8_in_the_string_table_is_a_clean_error() {
    let bytes = forged(STRINGS, |table| {
        let last = table.len() - 1;
        table[last] = 0xff;
    });
    rejects(&bytes, "string table section: ", "not valid UTF-8");
}

#[test]
fn a_row_table_cut_mid_row_is_a_clean_error() {
    // The string table's end-offset rows are 4 bytes wide; cut the
    // section two bytes into its last row.
    let bytes = forged(STRINGS, |table| {
        let n = u32::from_le_bytes(table[..4].try_into().unwrap()) as usize;
        table.truncate(4 + 4 * n - 2);
    });
    rejects(
        &bytes,
        "string table section: ",
        "rows of 4 bytes run past the end",
    );
}

#[test]
fn parameter_counts_past_the_parameter_table_are_a_clean_error() {
    let bytes = forge_method_row(3, |n| n + 1_000_000);
    rejects(
        &bytes,
        "database section: ",
        "runs past the parameter table",
    );
}

#[test]
fn unknown_flag_bits_are_a_clean_error() {
    let bytes = forge_method_row(4, |flags| flags | 1 << 20);
    rejects(
        &bytes,
        "database section: ",
        "method 0: unknown flag bits 0x100000",
    );
}

/// The paint snapshot with its type rows (name id, namespace id, kind
/// word, base id, interface count) and per-type interface lists rewritten
/// by `edit`. The database section opens with the namespace arena (a
/// count, then per namespace a segment count and that many string ids),
/// then the row count, the rows, and the flat interface table; each row's
/// interface count is rewritten from its edited list.
fn forge_types(edit: impl FnOnce(&mut [[u32; 5]], &mut [Vec<u32>])) -> Vec<u8> {
    forged(DATABASE, |db| {
        let word = |at: usize| u32::from_le_bytes(db[at..at + 4].try_into().unwrap());
        let mut at = 4;
        for _ in 0..word(0) {
            at += 4 + 4 * word(at) as usize;
        }
        let (rows_at, n) = (at + 4, word(at) as usize);
        let mut rows: Vec<[u32; 5]> = (0..n)
            .map(|t| std::array::from_fn(|f| word(rows_at + 20 * t + 4 * f)))
            .collect();
        let table_at = rows_at + 20 * n;
        let total = word(table_at) as usize;
        let mut flat = (0..total).map(|k| word(table_at + 4 + 4 * k));
        let mut lists: Vec<Vec<u32>> = rows
            .iter()
            .map(|r| flat.by_ref().take(r[4] as usize).collect())
            .collect();
        edit(&mut rows, &mut lists);
        let mut out = db[..rows_at].to_vec();
        for (row, list) in rows.iter_mut().zip(&lists) {
            row[4] = list.len() as u32;
            out.extend(row.iter().flat_map(|v| v.to_le_bytes()));
        }
        out.extend((lists.iter().map(Vec::len).sum::<usize>() as u32).to_le_bytes());
        out.extend(lists.iter().flatten().flat_map(|v| v.to_le_bytes()));
        out.extend(&db[table_at + 4 + 4 * total..]);
        *db = out;
    })
}

/// Kind-word values of a type row: the interface tag and the "has an
/// explicit base" flag.
const INTERFACE: u32 = 1;
const HAS_BASE: u32 = 1 << 16;

/// Two classes of the paint model that no type names as its base, and the
/// id of `int`.
fn leaf_classes() -> (usize, usize, u32) {
    let snapshot = Snapshot::load(&SnapshotSource::Paint).unwrap();
    let types = snapshot.db.types();
    let leaves: Vec<usize> = types
        .iter()
        .filter(|&t| types.get(t).is_class() && !types.is_builtin(t))
        .filter(|&t| types.iter().all(|u| types.declared_base(u) != Some(t)))
        .map(|t| t.index())
        .collect();
    (leaves[0], leaves[1], types.int_ty().index() as u32)
}

#[test]
fn a_cycle_of_base_classes_is_a_clean_error() {
    let (a, b, _) = leaf_classes();
    let bytes = forge_types(|rows, _| {
        rows[a][2] |= HAS_BASE;
        rows[a][3] = b as u32;
        rows[b][2] |= HAS_BASE;
        rows[b][3] = a as u32;
    });
    rejects(&bytes, "database section: ", "inheritance cycle");
}

#[test]
fn a_base_that_is_not_a_class_is_a_clean_error() {
    let (a, _, int) = leaf_classes();
    let bytes = forge_types(|rows, _| {
        rows[a][2] |= HAS_BASE;
        rows[a][3] = int;
    });
    rejects(
        &bytes,
        "database section: ",
        &format!("base type {int} is not a class"),
    );
}

#[test]
fn an_interface_entry_that_is_not_an_interface_is_a_clean_error() {
    let (a, b, _) = leaf_classes();
    let bytes = forge_types(|_, lists| lists[a].push(b as u32));
    rejects(
        &bytes,
        "database section: ",
        &format!("interface entry {b} is not an interface"),
    );
}

#[test]
fn a_cycle_of_interface_extensions_is_a_clean_error() {
    // Turn two leaf classes into interfaces that extend each other.
    let (a, b, _) = leaf_classes();
    let bytes = forge_types(|rows, lists| {
        for (t, other) in [(a, b), (b, a)] {
            rows[t][2] = INTERFACE;
            rows[t][3] = 0;
            lists[t] = vec![other as u32];
        }
    });
    rejects(&bytes, "database section: ", "inheritance cycle");
}

#[test]
fn a_string_table_listing_one_text_twice_is_a_clean_error() {
    // Every reader takes equal ids for equal texts; append a second copy
    // of string 0 to the table.
    let bytes = forged(STRINGS, |table| {
        let word = |at: usize| u32::from_le_bytes(table[at..at + 4].try_into().unwrap());
        let n = word(0) as usize;
        let blob = 4 + 4 * n;
        let first = table[blob..blob + word(4) as usize].to_vec();
        let end = (table.len() - blob + first.len()) as u32;
        table[..4].copy_from_slice(&(n as u32 + 1).to_le_bytes());
        table.splice(blob..blob, end.to_le_bytes());
        table.extend(first);
    });
    rejects(&bytes, "string table section: ", "repeats string 0");
}

#[test]
fn a_body_claiming_parameters_its_method_lacks_is_a_clean_error() {
    // A reader that splits the body's slots at the method's parameter
    // count would index past them.
    let bytes = common::paint_body_claiming_a_parameter(&sections(&paint_bytes()));
    rejects(
        &bytes,
        "database section: ",
        "the body of `Example` does not open with its parameters' slots",
    );
}
