//! The text table and the keyed name index that the type table, the
//! namespace arena and the code model's member names are built on.

use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// Strings stored back to back as `u32` end offsets into one text blob,
/// the shape of the snapshot's string table: two heap blocks however many
/// strings it holds.
#[derive(Debug, Clone, Default)]
pub struct Text {
    ends: Vec<u32>,
    text: String,
}

impl Text {
    /// A table over end offsets and text laid out as [`Text`] keeps them,
    /// such as a validated snapshot string table's
    /// ([`crate::wire::Strings`]).
    ///
    /// # Panics
    ///
    /// Panics unless the offsets never decrease, end at the text's end and
    /// fall on character boundaries.
    pub fn from_parts(ends: Vec<u32>, text: String) -> Self {
        let mut start = 0;
        for &end in &ends {
            assert!(
                start <= end && text.is_char_boundary(end as usize),
                "text offsets must run forward on character boundaries"
            );
            start = end;
        }
        assert_eq!(start as usize, text.len(), "the last offset ends the text");
        Text { ends, text }
    }

    /// Number of strings.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the table holds no string.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Text bytes plus four per end offset.
    pub fn bytes(&self) -> usize {
        self.text.len() + 4 * self.ends.len()
    }

    /// The string `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this table.
    #[inline]
    pub fn get(&self, id: u32) -> &str {
        let i = id as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.text[start..self.ends[i] as usize]
    }

    /// Appends `s`, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if the text would pass `u32::MAX` bytes.
    pub fn push(&mut self, s: &str) -> u32 {
        let id = self.ends.len() as u32;
        self.text.push_str(s);
        let end = u32::try_from(self.text.len()).expect("text fits u32 offsets");
        self.ends.push(end);
        id
    }

    /// Reserves room for exactly `strings` more strings of `bytes` bytes.
    pub fn reserve_exact(&mut self, strings: usize, bytes: usize) {
        self.ends.reserve_exact(strings);
        self.text.reserve_exact(bytes);
    }

    /// Drops the growth slack.
    pub fn shrink_to_fit(&mut self) {
        self.ends.shrink_to_fit();
        self.text.shrink_to_fit();
    }

    /// Unused capacity, in offsets plus bytes.
    pub fn slack(&self) -> usize {
        self.ends.capacity() - self.ends.len() + self.text.capacity() - self.text.len()
    }
}

/// A name index: each key's keyed hash (std's `RandomState`, since names
/// come from clients' source) maps to a `u32` id. Equal hashes of
/// different keys probe the next hash, so the index copies no text out of
/// the tables it serves and loses no collision. Entries are never removed,
/// so a probe sequence never breaks.
#[derive(Debug, Clone, Default)]
pub struct KeyIndex {
    keys: RandomState,
    ids: HashMap<u64, u32, BuildHasherDefault<PassThrough>>,
}

impl KeyIndex {
    /// An index with room for `n` ids.
    pub fn with_capacity(n: usize) -> Self {
        KeyIndex {
            keys: RandomState::new(),
            ids: HashMap::with_capacity_and_hasher(n, BuildHasherDefault::default()),
        }
    }

    /// The id recorded under `key`: the first one on its probe sequence
    /// that `is` accepts.
    #[inline]
    pub fn find(&self, key: impl Hash, is: impl Fn(u32) -> bool) -> Option<u32> {
        let mut h = self.keys.hash_one(key);
        loop {
            match self.ids.get(&h) {
                Some(&id) if is(id) => return Some(id),
                Some(_) => h = h.wrapping_add(1),
                None => return None,
            }
        }
    }

    /// The id recorded under `key` that `is` accepts, or `new`, recorded
    /// under `key`, when the index holds none.
    #[inline]
    pub fn find_or_insert(&mut self, key: impl Hash, is: impl Fn(u32) -> bool, new: u32) -> u32 {
        let mut h = self.keys.hash_one(key);
        loop {
            match self.ids.entry(h) {
                Entry::Occupied(e) if is(*e.get()) => return *e.get(),
                Entry::Occupied(_) => h = h.wrapping_add(1),
                Entry::Vacant(e) => return *e.insert(new),
            }
        }
    }

    /// Reserves room for `n` more ids.
    pub fn reserve(&mut self, n: usize) {
        self.ids.reserve(n);
    }

    /// The ids the index has room for without growing.
    pub fn capacity(&self) -> usize {
        self.ids.capacity()
    }
}

/// The map hasher of a [`KeyIndex`]: its keys are keyed hashes already,
/// so hashing them again would only cost time.
#[derive(Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn write(&mut self, bytes: &[u8]) {
        // Only `u64` keys reach this hasher; fold other input all the same.
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_reads_back_what_it_holds() {
        let mut text = Text::default();
        let ids: Vec<u32> = ["Point", "", "héllo", "Point"]
            .iter()
            .map(|s| text.push(s))
            .collect();
        assert_eq!(ids, [0, 1, 2, 3]);
        assert_eq!(text.get(2), "héllo");
        assert_eq!(text.get(1), "");
        text.shrink_to_fit();
        assert_eq!(text.slack(), 0);
    }

    #[test]
    fn colliding_hashes_probe_past_each_other() {
        // Every key of one index hashes alike once the keys agree on the
        // part that is hashed; the predicate tells the entries apart.
        let names = ["a", "b", "c"];
        let mut index = KeyIndex::with_capacity(3);
        for (id, name) in names.iter().enumerate() {
            let is = |i: u32| names[i as usize] == *name;
            assert_eq!(index.find_or_insert(0u8, is, id as u32), id as u32);
        }
        for (id, name) in names.iter().enumerate() {
            assert_eq!(
                index.find(0u8, |i| names[i as usize] == *name),
                Some(id as u32)
            );
        }
        assert_eq!(index.find(0u8, |_| false), None);
        assert_eq!(index.find(1u8, |_| true), None);
    }
}
