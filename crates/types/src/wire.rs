//! Dependency-free binary wire primitives for the persistent snapshot
//! format (`pex-snapshot`).
//!
//! Every integer is little-endian and fixed-width; strings are
//! length-prefixed UTF-8. [`Reader`] is fully bounds-checked: every read
//! that would run past the end of the buffer, every id that exceeds its
//! declared arena bound, and every length that could not possibly fit in
//! the remaining bytes yields a [`WireError`] with a human-readable
//! message — never a panic. This is what lets the daemon load
//! freshly-deserialized indexes while staying `forbid(unsafe_code)` and
//! panic-free on truncated or corrupted files.
//!
//! The primitives live in `pex-types` (the workspace's dependency root) so
//! every layer — model, engine, serve — can implement its own section
//! codec next to the private fields it serializes.

use std::fmt;

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

/// FNV-1a 64-bit hash, used as the snapshot payload checksum.
///
/// Not cryptographic — it guards against truncation and bit rot, not
/// adversaries (the structural validation in the decoders handles
/// malformed input regardless).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
        let v = self.get_u32(what)? as usize;
        if v >= bound {
            return Err(WireError::new(format!(
                "{what}: id {v} out of range (arena holds {bound})"
            )));
        }
        Ok(v)
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
}
