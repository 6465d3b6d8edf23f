//! Dependency-free binary wire primitives for the persistent snapshot
//! format (`pex-snapshot`).
//!
//! Every integer is little-endian and fixed-width. Records are either
//! streamed field by field through a [`Reader`], or laid out as tables of
//! fixed-width rows ([`Reader::take_rows`]) whose length is checked once
//! for the whole table. Text lives in one deduplicated string table
//! ([`StringTable`] to write, [`Strings`] to read) and records carry its
//! `u32` ids. Everything is bounds-checked: every read that would run
//! past the end of the buffer, every id that exceeds its declared arena
//! bound, and every length that could not possibly fit in the remaining
//! bytes yields a [`WireError`] with a human-readable message — never a
//! panic. This is what lets the daemon load freshly-deserialized indexes
//! while staying `forbid(unsafe_code)` and panic-free on truncated or
//! corrupted files.
//!
//! The primitives live in `pex-types` (the workspace's dependency root) so
//! every layer — model, engine, serve — can implement its own section
//! codec next to the private fields it serializes.

use std::collections::HashMap;
use std::fmt;

use crate::text::KeyIndex;

/// Error produced by a failed snapshot decode.
///
/// Always a clean, human-readable description of what was being decoded
/// and why it was rejected; callers surface it verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    msg: String,
}

impl WireError {
    /// Creates an error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        WireError { msg: msg.into() }
    }

    /// Wraps this error with an outer context, e.g. a section name.
    pub fn context(self, ctx: &str) -> Self {
        WireError {
            msg: format!("{ctx}: {}", self.msg),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for WireError {}

/// Result alias for snapshot encode/decode operations.
pub type WireResult<T> = Result<T, WireError>;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The snapshot payload checksum: FNV-1a 64 over little-endian `u64`
/// words, then byte-wise over the 0–7 tail bytes.
///
/// Each step `h ↦ (h ^ x) · prime` is a bijection of `h` for a fixed input
/// and of the input for a fixed `h` (the prime is odd), so any change
/// confined to one word — every single-bit flip in particular — always
/// changes the result. Not cryptographic: it guards against truncation
/// and bit rot, not adversaries (the structural validation in the
/// decoders handles malformed input regardless).
pub fn checksum(bytes: &[u8]) -> u64 {
    let (words, tail) = bytes.as_chunks::<8>();
    let mut h = FNV_OFFSET;
    for word in words {
        h = (h ^ u64::from_le_bytes(*word)).wrapping_mul(FNV_PRIME);
    }
    for &b in tail {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Checks a decoded id against its arena bound, with one comparison.
#[inline]
pub fn check_id(v: u32, bound: usize, what: &str) -> WireResult<usize> {
    let v = v as usize;
    if v < bound {
        Ok(v)
    } else {
        Err(id_out_of_range(v, bound, what))
    }
}

#[cold]
#[inline(never)]
fn id_out_of_range(v: usize, bound: usize, what: &str) -> WireError {
    WireError::new(format!("{what}: id {v} out of range (arena holds {bound})"))
}

/// Decodes every row of a table with `f` into an exactly sized `Vec`,
/// stopping at the first error.
pub fn decode_rows<const W: usize, T>(
    rows: &[[u8; W]],
    mut f: impl FnMut(&[u8; W]) -> WireResult<T>,
) -> WireResult<Vec<T>> {
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        out.push(f(row)?);
    }
    Ok(out)
}

/// The `i`-th little-endian `u32` of a fixed-width row.
#[inline]
pub fn row_u32<const W: usize>(row: &[u8; W], i: usize) -> u32 {
    u32::from_le_bytes([row[4 * i], row[4 * i + 1], row[4 * i + 2], row[4 * i + 3]])
}

/// Append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes verbatim.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a collection length as `u32`.
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds `u32::MAX` — impossible for in-memory arenas
    /// whose ids are themselves `u32`.
    pub fn put_len(&mut self, v: usize) {
        self.put_u32(u32::try_from(v).expect("collection length fits u32"));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte reader over a borrowed buffer.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over the whole buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Fails unless every byte has been consumed — catches trailing
    /// garbage that bounds checks alone would ignore.
    pub fn expect_end(&self, what: &str) -> WireResult<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(WireError::new(format!(
                "{what}: {} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }

    /// Consumes exactly `n` raw bytes.
    pub fn take(&mut self, n: usize, what: &str) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "{what}: needs {n} bytes but only {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self, what: &str) -> WireResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a bool encoded as one byte; rejects anything but 0 or 1.
    pub fn get_bool(&mut self, what: &str) -> WireResult<bool> {
        match self.get_u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::new(format!("{what}: invalid bool byte {b}"))),
        }
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self, what: &str) -> WireResult<u32> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self, what: &str) -> WireResult<u64> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self, what: &str) -> WireResult<i64> {
        Ok(self.get_u64(what)? as i64)
    }

    /// Reads a collection length written by [`Writer::put_len`].
    ///
    /// Rejects lengths that could not possibly fit in the remaining bytes
    /// (every element occupies at least one byte), so a corrupted length
    /// cannot trigger a pathological pre-allocation.
    pub fn get_len(&mut self, what: &str) -> WireResult<usize> {
        let n = self.get_u32(what)? as usize;
        if n > self.remaining() {
            return Err(WireError::new(format!(
                "{what}: declared length {n} exceeds the {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Reads a `u32` id and bounds-checks it against `bound`.
    pub fn get_id(&mut self, bound: usize, what: &str) -> WireResult<usize> {
        check_id(self.get_u32(what)?, bound, what)
    }

    /// Consumes a table of `n` fixed-width rows of `W` bytes, checking the
    /// table's length once.
    pub fn take_rows<const W: usize>(&mut self, n: usize, what: &str) -> WireResult<&'a [[u8; W]]> {
        let len = match n.checked_mul(W) {
            Some(len) if len <= self.remaining() => len,
            _ => {
                return Err(WireError::new(format!(
                    "{what}: {n} rows of {W} bytes run past the end ({} bytes remain)",
                    self.remaining()
                )))
            }
        };
        let (rows, rest) = self.take(len, what)?.as_chunks::<W>();
        debug_assert!(rest.is_empty());
        Ok(rows)
    }

    /// Reads a row count and then that many fixed-width rows of `W` bytes.
    pub fn get_rows<const W: usize>(&mut self, what: &str) -> WireResult<&'a [[u8; W]]> {
        let n = self.get_u32(what)? as usize;
        self.take_rows(n, what)
    }

    /// Reads a string-table id and resolves it.
    pub fn get_string(&mut self, strings: &Strings<'a>, what: &str) -> WireResult<&'a str> {
        strings.get(self.get_u32(what)?, what)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the buffer; a
    /// caller that keeps the text copies it.
    pub fn get_str(&mut self, what: &str) -> WireResult<&'a str> {
        let n = self.get_len(what)?;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes)
            .map_err(|_| WireError::new(format!("{what}: string is not valid UTF-8")))
    }
}

/// Encoder side of a deduplicated string table: every distinct text gets
/// a dense `u32` id in first-use order, so a deterministic walk over the
/// encoded structures yields a canonical table.
#[derive(Debug, Default)]
pub struct StringTable<'a> {
    ids: HashMap<&'a str, u32>,
    texts: Vec<&'a str>,
}

impl<'a> StringTable<'a> {
    /// Creates an empty table.
    pub fn new() -> Self {
        StringTable::default()
    }

    /// Writes the id of `s` as a `u32`, assigning the next id on first use.
    pub fn put(&mut self, w: &mut Writer, s: &'a str) {
        let next = self.texts.len() as u32;
        let id = *self.ids.entry(s).or_insert_with(|| {
            self.texts.push(s);
            next
        });
        w.put_u32(id);
    }

    /// Serializes the table: the string count, each string's end offset
    /// in the text blob (`u32`), then the blob — every string's UTF-8
    /// bytes back to back.
    pub fn encode(&self, w: &mut Writer) {
        w.put_len(self.texts.len());
        let mut end = 0;
        for s in &self.texts {
            end += s.len();
            w.put_len(end);
        }
        for s in &self.texts {
            w.put_bytes(s.as_bytes());
        }
    }
}

/// Decoder side of a string table written by [`StringTable::encode`]:
/// the end offsets and the text both borrowed from the file, the text
/// UTF-8-validated once and every offset checked once.
#[derive(Debug)]
pub struct Strings<'a> {
    text: &'a str,
    ends: &'a [[u8; 4]],
}

impl<'a> Strings<'a> {
    /// Decodes a whole string-table section. The end offsets must be
    /// non-decreasing, fall on character boundaries and end exactly at the
    /// end of the text, and no text may appear twice.
    pub fn decode(bytes: &'a [u8]) -> WireResult<Self> {
        let mut r = Reader::new(bytes);
        let ends: &[[u8; 4]] = r.get_rows("string end offsets")?;
        let blob = r.take(r.remaining(), "string text")?;
        let text = std::str::from_utf8(blob).map_err(|e| {
            WireError::new(format!(
                "string text is not valid UTF-8 (at byte {})",
                e.valid_up_to()
            ))
        })?;
        let mut start = 0;
        for (i, end) in ends.iter().enumerate() {
            let end = u32::from_le_bytes(*end) as usize;
            if end < start || !text.is_char_boundary(end) {
                return Err(WireError::new(format!(
                    "string {i}: range {start}..{end} is not a run of characters \
                     in the {}-byte text",
                    text.len()
                )));
            }
            start = end;
        }
        if start != text.len() {
            return Err(WireError::new(format!(
                "{} bytes of string text after the last string",
                text.len() - start
            )));
        }
        let strings = Strings { text, ends };
        // Readers take equal ids for equal texts, as the encoder writes.
        let mut index = KeyIndex::with_capacity(ends.len());
        for i in 0..ends.len() {
            let s = &text[strings.span(i)];
            let first = index.find_or_insert(s, |j| &text[strings.span(j as usize)] == s, i as u32);
            if first as usize != i {
                return Err(WireError::new(format!(
                    "string {i} repeats string {first} ({s:?}); a table lists each text once"
                )));
            }
        }
        Ok(strings)
    }

    /// Checks a string id against the table, for a caller that keeps the
    /// id rather than the text.
    #[inline]
    pub fn check(&self, id: u32, what: &str) -> WireResult<u32> {
        if (id as usize) < self.ends.len() {
            Ok(id)
        } else {
            Err(string_id_out_of_range(id, self.ends.len(), what))
        }
    }

    /// Each string's end offset in [`Strings::text`], in id order: with
    /// the text, the whole table in its own layout.
    pub fn end_offsets(&self) -> impl ExactSizeIterator<Item = u32> + 'a {
        self.ends.iter().map(|end| u32::from_le_bytes(*end))
    }

    /// Every string's text back to back.
    pub fn text(&self) -> &'a str {
        self.text
    }

    /// Every string in id order.
    pub fn iter(&self) -> impl Iterator<Item = &'a str> + '_ {
        (0..self.ends.len()).filter_map(|i| self.text.get(self.span(i)))
    }

    /// The byte range of string `i < len`, whose offsets `decode` checked.
    fn span(&self, i: usize) -> std::ops::Range<usize> {
        let end = |i: usize| u32::from_le_bytes(self.ends[i]) as usize;
        if i == 0 {
            0..end(0)
        } else {
            end(i - 1)..end(i)
        }
    }

    /// The string behind an id, bounds-checked.
    #[inline]
    pub fn get(&self, id: u32, what: &str) -> WireResult<&'a str> {
        let i = id as usize;
        match self.ends.get(i).and_then(|_| self.text.get(self.span(i))) {
            Some(s) => Ok(s),
            None => Err(string_id_out_of_range(id, self.ends.len(), what)),
        }
    }
}

/// The error for a string-table id at or past `len`.
#[cold]
fn string_id_out_of_range(id: u32, len: usize, what: &str) -> WireError {
    WireError::new(format!(
        "{what}: name id {id} out of range (string table holds {len})"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_primitives() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u32(0xdead_beef);
        w.put_u64(u64::MAX);
        w.put_i64(-42);
        w.put_str("héllo");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8("a").unwrap(), 7);
        assert!(r.get_bool("b").unwrap());
        assert_eq!(r.get_u32("c").unwrap(), 0xdead_beef);
        assert_eq!(r.get_u64("d").unwrap(), u64::MAX);
        assert_eq!(r.get_i64("e").unwrap(), -42);
        assert_eq!(r.get_str("f").unwrap(), "héllo");
        r.expect_end("tail").unwrap();
    }

    #[test]
    fn truncated_reads_fail_cleanly() {
        let mut w = Writer::new();
        w.put_u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..3]);
        let err = r.get_u64("field").unwrap_err();
        assert!(err.to_string().contains("field"), "{err}");
    }

    #[test]
    fn bogus_lengths_rejected_before_allocation() {
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).get_len("list").unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    #[test]
    fn ids_are_bounds_checked() {
        let mut w = Writer::new();
        w.put_u32(10);
        let bytes = w.into_bytes();
        let err = Reader::new(&bytes).get_id(10, "type id").unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_id(11, "type id").unwrap(), 10);
    }

    #[test]
    fn invalid_bool_and_utf8_rejected() {
        let mut r = Reader::new(&[2u8]);
        assert!(r.get_bool("flag").is_err());
        let mut w = Writer::new();
        w.put_len(2);
        w.put_bytes(&[0xff, 0xfe]);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).get_str("name").is_err());
    }

    #[test]
    fn checksum_is_stable_and_sensitive() {
        let a = checksum(b"pex");
        assert_eq!(a, checksum(b"pex"));
        assert_ne!(a, checksum(b"pey"));
        assert_ne!(checksum(b""), 0);
    }

    #[test]
    fn checksum_is_fnv1a_over_words_then_tail_bytes() {
        // Short inputs are all tail: plain byte-wise FNV-1a 64.
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(checksum(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(checksum(b"foobar"), 0x8594_4171_f739_67e8);
        let bytes: Vec<u8> = (0u8..19).collect();
        let mut h = FNV_OFFSET;
        for word in bytes[..16].chunks(8) {
            h ^= u64::from_le_bytes(word.try_into().unwrap());
            h = h.wrapping_mul(FNV_PRIME);
        }
        for &b in &bytes[16..] {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(checksum(&bytes), h);
    }

    #[test]
    fn checksum_catches_every_single_bit_flip() {
        let bytes: Vec<u8> = (0..67u32).map(|i| (i * 37 % 251) as u8).collect();
        let clean = checksum(&bytes);
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&bad), clean, "flip of bit {bit}");
        }
    }

    #[test]
    fn rows_are_length_checked_once() {
        let mut w = Writer::new();
        for v in [1u32, 2, 3, 4, 5] {
            w.put_u32(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let rows: &[[u8; 8]] = r.take_rows(2, "pairs").unwrap();
        assert_eq!((row_u32(&rows[1], 0), row_u32(&rows[1], 1)), (3, 4));
        assert_eq!(r.remaining(), 4);
        let err = Reader::new(&bytes).take_rows::<8>(3, "pairs").unwrap_err();
        assert!(err.to_string().contains("pairs"), "{err}");
        assert!(Reader::new(&bytes)
            .take_rows::<8>(usize::MAX, "pairs")
            .is_err());
    }

    #[test]
    fn string_table_roundtrips_and_dedupes_in_first_use_order() {
        let mut table = StringTable::new();
        let mut w = Writer::new();
        for s in ["size", "héllo", "", "size", "x"] {
            table.put(&mut w, s);
        }
        let ids = w.into_bytes();
        let ids: Vec<u32> = ids
            .chunks(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(ids, [0, 1, 2, 0, 3]);
        let mut w = Writer::new();
        table.encode(&mut w);
        let bytes = w.into_bytes();
        let strings = Strings::decode(&bytes).unwrap();
        assert_eq!(
            strings.iter().collect::<Vec<_>>(),
            ["size", "héllo", "", "x"]
        );
        assert_eq!(strings.get(1, "name").unwrap(), "héllo");
        let err = strings.get(4, "method name").unwrap_err().to_string();
        assert!(err.contains("method name: name id 4 out of range"), "{err}");
    }

    #[test]
    fn string_table_rejects_bad_text_and_offsets() {
        let table = |ends: &[u32], blob: &[u8]| {
            let mut w = Writer::new();
            w.put_len(ends.len());
            for &e in ends {
                w.put_u32(e);
            }
            w.put_bytes(blob);
            w.into_bytes()
        };
        let err = Strings::decode(&table(&[2], &[0xff, 0xfe])).unwrap_err();
        assert!(err.to_string().contains("not valid UTF-8"), "{err}");
        // An end inside the two-byte `é`.
        let err = Strings::decode(&table(&[1, 2], "é".as_bytes())).unwrap_err();
        assert!(err.to_string().contains("string 0"), "{err}");
        let err = Strings::decode(&table(&[2, 1], b"ab")).unwrap_err();
        assert!(err.to_string().contains("string 1"), "{err}");
        let err = Strings::decode(&table(&[1], b"ab")).unwrap_err();
        assert!(err.to_string().contains("after the last string"), "{err}");
        let err = Strings::decode(&table(&[1, 2, 3], b"aba")).unwrap_err();
        assert!(
            err.to_string().contains("string 2 repeats string 0"),
            "{err}"
        );
        let err = Strings::decode(&table(&[0, 1, 1], b"a")).unwrap_err();
        assert!(
            err.to_string().contains("string 2 repeats string 0"),
            "{err}"
        );
        assert!(Strings::decode(&table(&[3], b"ab")).is_err());
    }
}
