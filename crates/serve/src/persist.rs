//! `pex-snapshot/6`: the versioned, dependency-free binary format that
//! persists a fully prewarmed [`Snapshot`] to disk.
//!
//! A daemon boot normally pays corpus parse + index build + prewarm. The
//! persistent snapshot moves all of that offline: `--save-snapshot` writes
//! the finished artefact once, `--load-snapshot` maps it back in without
//! touching the mini-C# frontend, the method-index build, or the prewarm
//! pass — the conversion index and the per-type candidate counts come
//! back exactly as they were saved. No expressions are stored: queries
//! intern into arenas of their own, which die with them.
//! The reachability index is not stored: it is linear in the member
//! edges, so the decoder rebuilds it, like the name maps and per-type
//! member lists the database decoder derives.
//!
//! ## Layout
//!
//! ```text
//! magic      8 bytes   "pexsnap1"
//! version    u32 LE    format version (this build reads 6)
//! payload_len u64 LE   total payload bytes after the section table
//! checksum   u64 LE    payload checksum (below)
//! sections   u32 LE    section count
//! per section:
//!   tag      u32 LE    section id (see `tag` constants)
//!   offset   u64 LE    byte offset inside the payload
//!   length   u64 LE    section length in bytes
//! payload    payload_len bytes
//! ```
//!
//! The checksum is FNV-1a 64 taken over the payload as little-endian
//! `u64` words, then over the 0–7 tail bytes one at a time
//! ([`pex_types::wire::checksum`]). Each step is a bijection, so any
//! change confined to one word, every single-bit flip included, changes
//! it.
//!
//! Sections hold, in dense-id wire encoding ([`pex_types::wire`]):
//!
//! * the string table (tag 6): every string the database section uses —
//!   namespace segments, type, method, parameter, field and local names,
//!   string literals and opaque labels — deduplicated, with ids in
//!   first-use order: the count, each string's end offset, then one UTF-8
//!   text blob validated once;
//! * the database (tag 1): the type table (namespaces, fixed-width type
//!   rows, interfaces, conversion index), then fixed-width method,
//!   parameter, override and field rows that name their strings by id,
//!   then the bodies of the methods flagged as having one, then the
//!   removal tombstones (see `Database::encode_snapshot`);
//! * the snapshot metadata (name, default context, enclosing method;
//!   tag 2);
//! * the method index — its exact rows and the prewarmed per-type
//!   candidate *counts*, not the candidate lists, which queries walk
//!   (tag 3).
//!
//! Tags 4 (the reachability index of versions 1 and 2) and 5 (the
//! expression arena of versions 1 to 5) are retired; a section with
//! either tag, or any other tag this build does not read, is refused.
//!
//! ## Validation
//!
//! Loading never trusts the file: the magic, version, payload length and
//! checksum gate the header; every section range is checked against the
//! payload and every section tag against the four above; every decoder
//! bounds-checks every id (string ids included) and rejects unknown tags
//! and flag bits, row tables whose length is not a whole number of rows,
//! counts that disagree, impossible lengths and trailing bytes. A truncated, bit-flipped or version-bumped file
//! produces a clean human-readable error naming the section — the daemon
//! is `forbid(unsafe_code)` and must never panic mid-boot.
//!
//! ## Compatibility policy
//!
//! The version is bumped on **any** byte-level change; there is no
//! in-place migration. A mismatched version is an error telling the
//! operator to rebuild with `--save-snapshot` — snapshots are cheap,
//! derived artefacts, never sources of truth.

use std::path::Path;
use std::sync::Arc;

use pex_core::{EngineCache, MethodIndex, ReachIndex};
use pex_model::{Context, Database, MethodId};
use pex_types::wire::{checksum, Reader, StringTable, Strings, WireError, WireResult, Writer};

use crate::snapshot::Snapshot;

/// Leading magic bytes of every snapshot file.
pub const MAGIC: &[u8; 8] = b"pexsnap1";

/// The format version this build writes and reads. Version 2 added the
/// database's removed-member tombstone sets (incremental updates keep
/// surviving ids stable by never compacting them); version 3 dropped the
/// reachability index section, which the decoder now rebuilds; version 4
/// stores each type's candidate count instead of its candidate list, and
/// the index rows in strictly increasing type order; version 5 moves the
/// database's text into a deduplicated string table section, stores
/// methods, parameters and fields as fixed-width rows and checksums the
/// payload a word at a time; version 6 drops the expression arena
/// section. Older files are rejected with a self-describing error rather
/// than misread.
pub const VERSION: u32 = 6;

mod tag {
    pub const DATABASE: u32 = 1;
    pub const META: u32 = 2;
    pub const METHOD_INDEX: u32 = 3;
    pub const STRINGS: u32 = 6;
    /// Every tag this build reads; any other is refused.
    pub const KNOWN: [u32; 4] = [DATABASE, META, METHOD_INDEX, STRINGS];
}

/// Serializes a snapshot into the `pex-snapshot/6` byte format.
pub fn to_bytes(snapshot: &Snapshot) -> Vec<u8> {
    let _span = pex_obs::span("serve.snapshot.encode");
    let mut strings = StringTable::new();
    let mut db = Writer::new();
    snapshot.db.encode_snapshot(&mut strings, &mut db);
    let db = db.into_bytes();
    let mut payload = Writer::new();
    let mut sections: Vec<(u32, u64, u64)> = Vec::new();
    let mut section = |t: u32, payload: &mut Writer, f: &dyn Fn(&mut Writer)| {
        let start = payload.len() as u64;
        f(payload);
        sections.push((t, start, payload.len() as u64 - start));
    };
    section(tag::STRINGS, &mut payload, &|w| strings.encode(w));
    section(tag::DATABASE, &mut payload, &|w| w.put_bytes(&db));
    section(tag::META, &mut payload, &|w| {
        w.put_str(&snapshot.name);
        w.put_bool(snapshot.enclosing.is_some());
        w.put_u32(snapshot.enclosing.map_or(0, |m| m.index() as u32));
        snapshot.default_ctx.encode_snapshot(w);
    });
    section(tag::METHOD_INDEX, &mut payload, &|w| {
        snapshot.index.encode_snapshot(w)
    });

    let payload = payload.into_bytes();
    let mut out = Writer::new();
    out.put_bytes(MAGIC);
    out.put_u32(VERSION);
    out.put_u64(payload.len() as u64);
    out.put_u64(checksum(&payload));
    out.put_len(sections.len());
    for (t, offset, len) in sections {
        out.put_u32(t);
        out.put_u64(offset);
        out.put_u64(len);
    }
    out.put_bytes(&payload);
    pex_obs::counter!("serve.snapshot.saved", 1);
    out.into_bytes()
}

/// One validated section range inside the payload.
struct Section<'a> {
    tag: u32,
    bytes: &'a [u8],
}

fn parse_sections(bytes: &[u8]) -> WireResult<Vec<Section<'_>>> {
    let mut r = Reader::new(bytes);
    let magic = r.take(MAGIC.len(), "magic bytes")?;
    if magic != MAGIC {
        return Err(WireError::new(
            "not a pex snapshot (magic bytes do not spell \"pexsnap1\")",
        ));
    }
    let version = r.get_u32("format version")?;
    if version != VERSION {
        return Err(WireError::new(format!(
            "unsupported snapshot version {version} (this build reads {VERSION}; \
             rebuild the snapshot with --save-snapshot)"
        )));
    }
    let payload_len = r.get_u64("payload length")? as usize;
    let declared_checksum = r.get_u64("payload checksum")?;
    let n_sections = r.get_len("section count")?;
    let mut table = Vec::with_capacity(n_sections);
    for _ in 0..n_sections {
        let tag = r.get_u32("section tag")?;
        let offset = r.get_u64("section offset")? as usize;
        let len = r.get_u64("section length")? as usize;
        table.push((tag, offset, len));
    }
    let payload = r.take(payload_len, "payload")?;
    r.expect_end("snapshot file")?;
    let actual = {
        let _span = pex_obs::span("serve.snapshot.decode.checksum");
        checksum(payload)
    };
    if actual != declared_checksum {
        return Err(WireError::new(format!(
            "payload checksum mismatch (file says {declared_checksum:#018x}, \
             payload hashes to {actual:#018x}); the snapshot is corrupted"
        )));
    }
    let mut sections = Vec::with_capacity(table.len());
    for (tag, offset, len) in table {
        if !tag::KNOWN.contains(&tag) {
            return Err(WireError::new(format!(
                "unknown section tag {tag} (this build reads tags {:?})",
                tag::KNOWN
            )));
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| WireError::new(format!("section {tag}: offset + length overflows")))?;
        if end > payload.len() {
            return Err(WireError::new(format!(
                "section {tag}: range {offset}..{end} exceeds the {}-byte payload",
                payload.len()
            )));
        }
        sections.push(Section {
            tag,
            bytes: &payload[offset..end],
        });
    }
    Ok(sections)
}

fn find_section<'a>(sections: &'a [Section<'a>], t: u32, name: &str) -> WireResult<&'a [u8]> {
    let mut found = None;
    for s in sections {
        if s.tag == t {
            if found.is_some() {
                return Err(WireError::new(format!("duplicate {name} section")));
            }
            found = Some(s.bytes);
        }
    }
    found.ok_or_else(|| WireError::new(format!("missing {name} section")))
}

fn decode(bytes: &[u8]) -> WireResult<Snapshot> {
    let sections = parse_sections(bytes)?;

    let strings = {
        let _span = pex_obs::span("serve.snapshot.decode.strings");
        Strings::decode(find_section(&sections, tag::STRINGS, "string table")?)
            .map_err(|e| e.context("string table section"))?
    };

    let db = {
        let _span = pex_obs::span("serve.snapshot.decode.database");
        let mut r = Reader::new(find_section(&sections, tag::DATABASE, "database")?);
        let db = Database::decode_snapshot(&strings, &mut r)
            .map_err(|e| e.context("database section"))?;
        r.expect_end("database section")?;
        db
    };
    let (n_types, n_methods) = (db.types().len(), db.method_count());

    let mut r = Reader::new(find_section(&sections, tag::META, "metadata")?);
    let name = r.get_str("snapshot name")?.to_owned();
    let has_enclosing = r.get_bool("enclosing method presence flag")?;
    let raw_enclosing = r.get_u32("enclosing method id")?;
    let enclosing = if has_enclosing {
        if raw_enclosing as usize >= n_methods {
            return Err(WireError::new(format!(
                "enclosing method id {raw_enclosing} out of range \
                 (database holds {n_methods})"
            )));
        }
        Some(MethodId::from_index(raw_enclosing as usize))
    } else {
        None
    };
    let default_ctx = Context::decode_snapshot(&mut r, n_types, n_methods)
        .map_err(|e| e.context("metadata section"))?;
    r.expect_end("metadata section")?;

    let index = {
        let _span = pex_obs::span("serve.snapshot.decode.method_index");
        let mut r = Reader::new(find_section(&sections, tag::METHOD_INDEX, "method index")?);
        let index = MethodIndex::decode_snapshot(&mut r, n_types, n_methods)
            .map_err(|e| e.context("method index section"))?;
        r.expect_end("method index section")?;
        index
    };

    let reach = {
        let _span = pex_obs::span("serve.snapshot.decode.reach");
        ReachIndex::build(&db)
    };
    Ok(Snapshot::assemble(
        name,
        db,
        index,
        reach,
        default_ctx,
        enclosing,
        EngineCache::new(),
    ))
}

/// Deserializes a snapshot from `pex-snapshot/6` bytes, skipping parse,
/// method-index build and prewarm entirely. Every id and offset is validated; a
/// corrupted buffer yields a human-readable error, never a panic.
pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, String> {
    let _span = pex_obs::span("serve.snapshot.decode");
    match decode(bytes) {
        Ok(snapshot) => {
            pex_obs::counter!("serve.snapshot.loaded", 1);
            Ok(snapshot)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Writes a snapshot file (atomically: temp file then rename, so a
/// concurrent boot never reads a torn artefact).
pub fn save(snapshot: &Snapshot, path: &Path) -> Result<(), String> {
    let bytes = to_bytes(snapshot);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot rename {} into place: {e}", tmp.display()))?;
    Ok(())
}

/// Reads and validates a snapshot file saved by [`save`].
pub fn load(path: &Path) -> Result<Arc<Snapshot>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    from_bytes(&bytes)
        .map(Arc::new)
        .map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotSource;

    #[test]
    fn roundtrip_preserves_structure_and_prewarm() {
        let built = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let bytes = to_bytes(&built);
        let loaded = from_bytes(&bytes).unwrap();
        assert_eq!(loaded.name, built.name);
        assert_eq!(loaded.db.types().len(), built.db.types().len());
        assert_eq!(loaded.db.method_count(), built.db.method_count());
        assert_eq!(loaded.db.field_count(), built.db.field_count());
        assert_eq!(loaded.enclosing, built.enclosing);
        assert_eq!(
            loaded.default_ctx.locals.len(),
            built.default_ctx.locals.len()
        );
        // The prewarmed caches came back filled: answering a query must
        // not rebuild the conversion index or refill candidate counts. A
        // built snapshot has every count cell filled, so equal encodings
        // (which carry each cell's presence) prove the loaded one does too.
        let encode = |index: &MethodIndex| {
            let mut w = Writer::new();
            index.encode_snapshot(&mut w);
            w.into_bytes()
        };
        assert_eq!(encode(&loaded.index), encode(&built.index));
    }

    #[test]
    fn save_and_load_roundtrip_through_a_file() {
        let built = Snapshot::load(&SnapshotSource::Geometry).unwrap();
        let dir = std::env::temp_dir().join("pex-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("geometry.pexsnap");
        save(&built, &path).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.name, "geometry");
        assert_eq!(loaded.db.method_count(), built.db.method_count());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn double_encode_is_deterministic() {
        let built = Snapshot::load(&SnapshotSource::Paint).unwrap();
        assert_eq!(to_bytes(&built), to_bytes(&built));
    }

    #[test]
    fn wrong_magic_and_version_rejected() {
        let built = Snapshot::load(&SnapshotSource::Paint).unwrap();
        let bytes = to_bytes(&built);
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert!(from_bytes(&bad_magic).unwrap_err().contains("magic"));
        let mut bad_version = bytes.clone();
        bad_version[8] = 0xff;
        let err = from_bytes(&bad_version).unwrap_err();
        assert!(err.contains("unsupported snapshot version"), "{err}");
    }
}
