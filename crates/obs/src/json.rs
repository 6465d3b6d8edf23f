//! The workspace's one JSON reader and writer.
//!
//! Every JSON document the workspace emits is written through
//! [`JsonWriter`]: the serve protocol's responses and `stats`/`health`
//! bodies, the `pex-serve-metrics/1` and `pex-metrics/1` documents
//! ([`MetricsSnapshot::write_json`](crate::MetricsSnapshot::write_json)),
//! the `--trace` event lines ([`Event::to_json`](crate::Event::to_json))
//! and the speedups bench's `BENCH_results.json`. Escaping is therefore
//! correct by construction, whatever characters a metric name, message or
//! bench id holds.
//!
//! The workspace vendors every external dependency, so rather than pulling
//! in a serialization framework this module has a ~200-line
//! recursive-descent parser and a streaming writer on `std` alone. The
//! parser covers the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, literals) with two deliberate simplifications that
//! are fine for line-oriented documents:
//!
//! * numbers are held as `f64` (request ids and limits are small);
//! * object keys keep insertion order (a `Vec`, not a map), so re-emitting
//!   a merged document is stable.

use std::fmt::{self, Write as _};

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in insertion order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Looks up a key in an object; `None` for other shapes or missing keys.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as an unsigned integer, if this is a
    /// non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            // Strict `<`: `u64::MAX as f64` rounds up to 2^64 exactly, so
            // `<=` would accept 18446744073709551616 and saturate it to
            // `u64::MAX`. Every whole f64 strictly below 2^64 converts
            // exactly.
            Value::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Inserts or replaces a key in an object. No-op on non-objects.
    pub fn set(&mut self, key: &str, value: Value) {
        if let Value::Obj(fields) = self {
            if let Some(slot) = fields.iter_mut().find(|(k, _)| k == key) {
                slot.1 = value;
            } else {
                fields.push((key.to_owned(), value));
            }
        }
    }
}

impl fmt::Display for Value {
    /// Serializes back to compact JSON through [`JsonWriter`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut w = JsonWriter::default();
        w.value(self);
        f.write_str(&w.finish())
    }
}

/// Escapes a string for embedding in a JSON document (without the quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The one JSON emitter (see the [module docs](self)); [`Value`]'s
/// `Display` writes through it too.
///
/// It streams into one `String` with a single separator flag, which is all
/// compact JSON needs: an item that follows another gets a comma; a key's
/// value and a container's first item do not. Matching `open`/`close`
/// calls is the caller's job. A serve response *body* (see
/// `pex_serve::proto::assemble_response`) is written by a fresh writer
/// that starts with a key instead of `{`.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    comma: bool,
}

/// Anything [`JsonWriter::value`] can write: numbers, booleans, strings,
/// [`Value`]s, and `Option`s of those (`None` is `null`).
pub trait JsonScalar {
    /// Writes `self` as one JSON value.
    fn write_to(self, w: &mut JsonWriter);
}

impl JsonWriter {
    /// The document written so far.
    pub fn finish(self) -> String {
        self.out
    }

    /// Starts the next item, with a comma unless it comes first.
    fn item(&mut self) -> &mut String {
        if std::mem::replace(&mut self.comma, true) {
            self.out.push(',');
        }
        &mut self.out
    }

    /// Opens an object (`{`) or an array (`[`).
    pub fn open(&mut self, bracket: char) -> &mut Self {
        self.item().push(bracket);
        self.comma = false;
        self
    }

    /// Closes the innermost object (`}`) or array (`]`).
    pub fn close(&mut self, bracket: char) -> &mut Self {
        self.out.push(bracket);
        self.comma = true;
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.value(k).out.push(':');
        self.comma = false;
        self
    }

    /// Writes one value.
    pub fn value(&mut self, v: impl JsonScalar) -> &mut Self {
        v.write_to(self);
        self
    }

    /// Writes `"k":v`.
    pub fn field(&mut self, k: &str, v: impl JsonScalar) -> &mut Self {
        self.key(k).value(v)
    }

    /// Appends a body rendered by another writer: the remaining fields of
    /// the object this writer has open, and its closing brace.
    pub fn body(&mut self, body: &str) -> &mut Self {
        self.item().push_str(body);
        self
    }
}

macro_rules! display_scalar {
    ($($t:ty),*) => {$(
        impl JsonScalar for $t {
            fn write_to(self, w: &mut JsonWriter) {
                let _ = write!(w.item(), "{self}");
            }
        }
    )*};
}
display_scalar!(bool, u32, u64, usize);

impl JsonScalar for f64 {
    /// Whole values below 10^15 print as integers, anything else in Rust's
    /// shortest round-trip form, and (JSON has neither) infinities and NaN
    /// as `null`.
    fn write_to(self, w: &mut JsonWriter) {
        let out = w.item();
        let _ = if !self.is_finite() {
            out.write_str("null")
        } else if self.fract() == 0.0 && self.abs() < 1e15 {
            write!(out, "{}", self as i64)
        } else {
            write!(out, "{self}")
        };
    }
}

impl JsonScalar for &str {
    fn write_to(self, w: &mut JsonWriter) {
        let out = w.item();
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl JsonScalar for &Value {
    fn write_to(self, w: &mut JsonWriter) {
        match self {
            Value::Null => w.value(None::<bool>),
            Value::Bool(b) => w.value(*b),
            Value::Num(n) => w.value(*n),
            Value::Str(s) => w.value(s.as_str()),
            Value::Arr(items) => {
                w.open('[');
                for item in items {
                    w.value(item);
                }
                w.close(']')
            }
            Value::Obj(fields) => {
                w.open('{');
                for (k, v) in fields {
                    w.field(k, v);
                }
                w.close('}')
            }
        };
    }
}

impl<T: JsonScalar> JsonScalar for Option<T> {
    fn write_to(self, w: &mut JsonWriter) {
        match self {
            Some(v) => v.write_to(w),
            None => w.item().push_str("null"),
        }
    }
}

/// A parse failure: byte offset plus a short message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset into the input where parsing failed.
    pub pos: usize,
    /// What was expected.
    pub msg: &'static str,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.msg, self.pos)
    }
}

/// Nesting bound for arrays and objects, the same bound the
/// partial-expression and mini-C# parsers use: no request needs more, and
/// deeper input is rejected rather than risking a stack overflow.
pub const MAX_DEPTH: usize = 128;

/// Parses one JSON document; trailing non-whitespace is an error, and so is
/// nesting deeper than [`MAX_DEPTH`].
pub fn parse(input: &str) -> Result<Value, ParseError> {
    let mut p = Parser {
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { pos: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, ParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// Parses one array or object one level deeper.
    fn nested(
        &mut self,
        f: fn(&mut Self) -> Result<Value, ParseError>,
    ) -> Result<Value, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("JSON nested too deeply"));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let val = self.value()?;
            fields.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Value, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            let cp = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are rejected rather than
                            // combined: the protocol never emits them.
                            let c = char::from_u32(cp)
                                .ok_or_else(|| self.err("unpaired surrogate in \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape sequence")),
                    }
                    self.pos += 1;
                }
                // RFC 8259 §7: U+0000 through U+001F must be escaped.
                Some(0x00..=0x1f) => return Err(self.err("unescaped control character in string")),
                Some(_) => {
                    // Copy the run up to the next quote, escape or control
                    // character in one go (the input is a &str, so the
                    // slice is valid UTF-8).
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        self.pos += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8 in string"))?;
                    out.push_str(chunk);
                }
            }
        }
    }

    fn number(&mut self) -> Result<Value, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        text.parse::<f64>()
            .map(Value::Num)
            .map_err(|_| self.err("invalid number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_protocol_shapes() {
        let v = parse(r#"{"id": 7, "query": "?({img, size})", "limit": 10, "deadline_ms": 0}"#)
            .unwrap();
        assert_eq!(v.get("id").and_then(Value::as_u64), Some(7));
        assert_eq!(
            v.get("query").and_then(Value::as_str),
            Some("?({img, size})")
        );
        assert_eq!(v.get("deadline_ms").and_then(Value::as_u64), Some(0));
        assert!(v.get("missing").is_none());
    }

    #[test]
    fn parses_nested_values_and_escapes() {
        let v = parse(r#"{"a": [1, -2.5, true, null], "s": "x\n\"y\"A"}"#).unwrap();
        let Value::Arr(items) = v.get("a").unwrap() else {
            panic!("array expected")
        };
        assert_eq!(items.len(), 4);
        assert_eq!(items[1].as_f64(), Some(-2.5));
        assert_eq!(v.get("s").and_then(Value::as_str), Some("x\n\"y\"A"));
    }

    #[test]
    fn roundtrips_through_display() {
        let src = r#"{"id":1,"ok":true,"results":[{"expr":"a.b","score":2}],"note":null}"#;
        let v = parse(src).unwrap();
        assert_eq!(v.to_string(), src);
        // Escaped content survives a round trip.
        let v2 = parse(&Value::Str("line\n\"quoted\"".into()).to_string()).unwrap();
        assert_eq!(v2.as_str(), Some("line\n\"quoted\""));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "{\"a\":}",
            "[1,]",
            "nul",
            "\"open",
            "{\"a\":1} trailing",
            "{'single': 1}",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected_where_they_stand() {
        // RFC 8259 §7: U+0000 through U+001F must be escaped in a string.
        for (doc, pos) in [
            ("\"a\tb\"", 2),
            ("\"\u{0}\"", 1),
            ("{\"k\":\"x\ny\"}", 7),
            ("[\"ok\",\"\u{1f}\"]", 7),
            ("{\"a\r\":1}", 3),
        ] {
            let err = parse(doc).expect_err(doc);
            assert_eq!(err.msg, "unescaped control character in string", "{doc:?}");
            assert_eq!(err.pos, pos, "{doc:?}");
        }
        // Escaped, they parse; U+007F and non-ASCII need no escape.
        let v = parse("\"\\t\\u0000\u{7f}\u{e9}\"").unwrap();
        assert_eq!(v.as_str(), Some("\t\u{0}\u{7f}\u{e9}"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err.msg, "JSON nested too deeply");
        assert_eq!(err.pos, MAX_DEPTH);
        // Objects count too, mixed with arrays.
        let mixed = format!("{}1{}", "{\"a\":[".repeat(65), "]}".repeat(65));
        assert!(parse(&mixed).is_err());
        // A huge attack line fails fast instead of overflowing the stack.
        assert!(parse(&"[".repeat(200_000)).is_err());
    }

    #[test]
    fn numbers_convert_conservatively() {
        assert_eq!(parse("3").unwrap().as_u64(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_u64(), None);
        assert_eq!(parse("-3").unwrap().as_u64(), None);
        assert_eq!(parse("1e3").unwrap().as_u64(), Some(1000));
    }

    #[test]
    fn out_of_range_integers_are_rejected_not_saturated() {
        // 2^64 itself: representable as f64 (u64::MAX rounds up to it),
        // but not as a u64 — must be None, not a saturated u64::MAX.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
        assert_eq!(parse("1e300").unwrap().as_u64(), None);
        // The largest whole f64 below 2^64 still converts exactly.
        assert_eq!(
            parse("18446744073709549568").unwrap().as_u64(),
            Some(18446744073709549568)
        );
    }

    #[test]
    fn non_finite_numbers_write_as_null() {
        // `1e999` parses to infinity; echoing it as `inf` would be invalid
        // JSON.
        let v = parse(r#"{"id":1e999,"n":[-0.0,2.5]}"#).unwrap();
        assert_eq!(v.to_string(), r#"{"id":null,"n":[0,2.5]}"#);
        assert_eq!(Value::Num(f64::NAN).to_string(), "null");
    }

    #[test]
    fn set_inserts_and_replaces() {
        let mut v = parse(r#"{"a":1}"#).unwrap();
        v.set("b", Value::Num(2.0));
        v.set("a", Value::Num(9.0));
        assert_eq!(v.to_string(), r#"{"a":9,"b":2}"#);
    }
}
