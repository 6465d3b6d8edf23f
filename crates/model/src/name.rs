//! [`Name`]: the text of a member name, stored inline when short.
//!
//! A resident snapshot holds one name per method, parameter and field, and
//! nearly all of them are short identifiers (`x`, `size`, `GetBounds`). A
//! `String` costs 24 inline bytes plus a heap block for each; a `Name` is
//! 16 bytes and keeps text of up to 15 bytes inline, boxing only longer
//! text.

use std::fmt;
use std::ops::Deref;

/// The most bytes a [`Name`] stores without a heap block.
const INLINE_CAP: usize = 15;

/// An immutable name, 16 bytes wide: up to 15 bytes of UTF-8 inline,
/// longer text behind one box.
///
/// It derefs to `str`, and compares and prints like its text.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Name(Repr);

// The representation is chosen by length alone, and inline bytes past the
// length are always zero, so equal texts always have equal `Repr`s: the
// derived, structural `PartialEq`/`Eq`/`Hash` agree with `str` equality.
// The derived hash is not `str`'s, so `Name` must not implement
// `Borrow<str>`.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline([u8; INLINE_CAP], Len),
    // Doubly boxed: a `Box<str>` is a 16-byte fat pointer and would not
    // fit beside the niche.
    Heap(Box<Box<str>>),
}

/// Length of an inline name. Its 240 unused byte values are the niche that
/// tags [`Repr::Heap`], which keeps `Name` (and `Option<Name>`) at 16 bytes.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
enum Len {
    L0,
    L1,
    L2,
    L3,
    L4,
    L5,
    L6,
    L7,
    L8,
    L9,
    L10,
    L11,
    L12,
    L13,
    L14,
    L15,
}

const LENS: [Len; INLINE_CAP + 1] = [
    Len::L0,
    Len::L1,
    Len::L2,
    Len::L3,
    Len::L4,
    Len::L5,
    Len::L6,
    Len::L7,
    Len::L8,
    Len::L9,
    Len::L10,
    Len::L11,
    Len::L12,
    Len::L13,
    Len::L14,
    Len::L15,
];

const _: () = assert!(std::mem::size_of::<Name>() == 16);
const _: () = assert!(std::mem::size_of::<Option<Name>>() == 16);

impl Name {
    /// Copies `s` into a new name; allocates only when `s` is longer than
    /// 15 bytes.
    pub fn new(s: &str) -> Self {
        Self::inline(s).unwrap_or_else(|| Name(Repr::Heap(Box::new(s.into()))))
    }

    fn inline(s: &str) -> Option<Self> {
        let len = *LENS.get(s.len())?;
        let mut bytes = [0; INLINE_CAP];
        bytes[..s.len()].copy_from_slice(s.as_bytes());
        Some(Name(Repr::Inline(bytes, len)))
    }

    /// The name's text as bytes, without the UTF-8 check of
    /// [`Name::as_str`]: enough to compare.
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline(bytes, len) => &bytes[..*len as usize],
            Repr::Heap(s) => s.as_bytes(),
        }
    }

    /// The name's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline(bytes, len) => std::str::from_utf8(&bytes[..*len as usize])
                .expect("an inline name is copied from a `str`"),
            Repr::Heap(s) => s,
        }
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Self {
        Name::new(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Self {
        Self::inline(&s).unwrap_or_else(|| Name(Repr::Heap(Box::new(s.into_boxed_str()))))
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    use proptest::prelude::*;

    use super::*;

    fn hash_of(n: &Name) -> u64 {
        let mut h = DefaultHasher::new();
        n.hash(&mut h);
        h.finish()
    }

    /// Pins every `str`-facing behaviour of one name to its text.
    fn check_round_trip(s: &str) {
        let n = Name::new(s);
        assert_eq!(n.as_str(), s);
        assert_eq!(&*n, s);
        assert_eq!(Name::from(s.to_owned()), n);
        assert_eq!(Name::from(s), n);
        assert!(n == *s && n == s);
        assert_eq!(n.to_string(), s);
        assert_eq!(format!("{n:?}"), format!("{s:?}"));
        assert_eq!(format!("{n:>20}"), format!("{s:>20}"));
        assert_eq!(hash_of(&n), hash_of(&n.clone()));
    }

    fn check_pair(a: &str, b: &str) {
        let (na, nb) = (Name::new(a), Name::new(b));
        assert_eq!(na == nb, a == b, "{a:?} vs {b:?}");
        assert_eq!(hash_of(&na) == hash_of(&nb), a == b, "{a:?} vs {b:?}");
    }

    #[test]
    fn lengths_on_both_sides_of_the_inline_limit() {
        for s in [
            "",
            "x",
            "fifteen_bytes_x",
            "sixteen_bytes_xy",
            "a much longer member name",
        ] {
            check_round_trip(s);
        }
        assert!(matches!(Name::new("fifteen_bytes_x").0, Repr::Inline(..)));
        assert!(matches!(Name::new("sixteen_bytes_xy").0, Repr::Heap(_)));
    }

    #[test]
    fn a_multibyte_character_straddling_byte_fifteen_is_boxed_whole() {
        // 14 ASCII bytes then a 2-byte 'é': 16 bytes, the last char spans
        // bytes 14..16.
        let s = "abcdefghijklmné";
        assert_eq!(s.len(), 16);
        check_round_trip(s);
        assert!(matches!(Name::new(s).0, Repr::Heap(_)));
        // 13 ASCII bytes then 'é': exactly 15 bytes, stored inline.
        let t = "abcdefghijklmé";
        assert_eq!(t.len(), 15);
        check_round_trip(t);
        assert!(matches!(Name::new(t).0, Repr::Inline(..)));
        check_pair(s, t);
    }

    #[test]
    fn equal_prefixes_of_different_lengths_differ() {
        check_pair("ab", "ab\0");
        check_pair("", "\0");
        check_pair("fifteen_bytes_x", "fifteen_bytes_xy");
    }

    proptest! {
        #[test]
        fn names_behave_like_their_text(s in ".{0,24}", t in ".{0,24}") {
            check_round_trip(&s);
            check_pair(&s, &t);
            check_pair(&s, &s.clone());
        }

        // A three-letter alphabet makes equal pairs, and pairs that differ
        // only in length or by a trailing NUL, common.
        #[test]
        fn short_names_are_equal_exactly_when_their_text_is(
            a in proptest::collection::vec(0usize..3, 0..=17),
            b in proptest::collection::vec(0usize..3, 0..=17),
        ) {
            let text = |v: &[usize]| v.iter().map(|&i| ['a', 'b', '\0'][i]).collect::<String>();
            check_pair(&text(&a), &text(&b));
        }
    }
}
