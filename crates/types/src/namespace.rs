//! Interned namespace paths and the common-prefix computation used by the
//! ranking function's *common namespace* term (paper Section 4.1).

use std::collections::HashMap;
use std::fmt;

use crate::wire::{Reader, StringTable, Strings, WireError, WireResult, Writer};
use crate::NamespaceId;

/// Arena of interned namespace paths.
///
/// A namespace is a dotted path such as `System.Collections`, stored as a
/// list of segments. The empty path is the global namespace and is always
/// present with id [`NamespaceId::GLOBAL`].
///
/// The paper's ranking function treats namespaces as lists of strings and
/// scores method calls by the length of the common prefix of the namespaces
/// of all participating non-primitive types; [`Namespaces::common_prefix_len`]
/// implements that computation.
#[derive(Debug, Clone)]
pub struct Namespaces {
    paths: Vec<Vec<String>>,
    /// Segment trie over every interned path. Node 0 is the empty path; a
    /// node exists exactly when some interned path starts with the node's
    /// path, and carries an id only if that path itself was interned.
    trie: Vec<TrieNode>,
}

/// A node of the [`Namespaces`] path trie: a segment path that some
/// interned namespace starts with. Walking a scope's path once and then
/// [`Namespaces::descend`]ing from the node resolves many names under it
/// without re-walking the shared prefix. Nodes stay valid as more paths
/// are interned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NsPrefix(u32);

impl NsPrefix {
    /// The empty path, a prefix of every namespace.
    pub const ROOT: NsPrefix = NsPrefix(0);
}

#[derive(Debug, Clone, Default)]
struct TrieNode {
    id: Option<NamespaceId>,
    children: HashMap<String, u32>,
}

impl Default for Namespaces {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespaces {
    /// Creates an arena containing only the global namespace.
    pub fn new() -> Self {
        let mut ns = Namespaces {
            paths: Vec::new(),
            trie: vec![TrieNode::default()],
        };
        let id = ns.intern(&[] as &[&str]);
        debug_assert_eq!(id, NamespaceId::GLOBAL);
        ns
    }

    /// Interns a namespace path given as segments, returning its id.
    /// Re-interning an existing path returns the same id.
    pub fn intern<S: AsRef<str>>(&mut self, segments: &[S]) -> NamespaceId {
        match self.insert(segments) {
            Ok(id) | Err(id) => id,
        }
    }

    /// Adds a path to the arena: `Ok` with its fresh id, or `Err` with the
    /// id it already had.
    fn insert<S: AsRef<str>>(&mut self, segments: &[S]) -> Result<NamespaceId, NamespaceId> {
        let mut node = 0;
        for seg in segments {
            let seg = seg.as_ref();
            node = match self.trie[node].children.get(seg) {
                Some(&child) => child as usize,
                None => {
                    let child = self.trie.len();
                    self.trie.push(TrieNode::default());
                    self.trie[node]
                        .children
                        .insert(seg.to_owned(), child as u32);
                    child
                }
            };
        }
        if let Some(id) = self.trie[node].id {
            return Err(id);
        }
        let id = NamespaceId(self.paths.len() as u32);
        self.paths
            .push(segments.iter().map(|s| s.as_ref().to_owned()).collect());
        self.trie[node].id = Some(id);
        Ok(id)
    }

    /// Interns a dotted path such as `"System.Collections"`. The empty string
    /// interns the global namespace.
    pub fn intern_dotted(&mut self, dotted: &str) -> NamespaceId {
        if dotted.is_empty() {
            return NamespaceId::GLOBAL;
        }
        let segs: Vec<&str> = dotted.split('.').collect();
        self.intern(&segs)
    }

    /// The trie node `segments` further down from `from`, if some
    /// interned path continues that way. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `from` was not issued by this arena (or a clone of it).
    pub fn descend<I, S>(&self, from: NsPrefix, segments: I) -> Option<NsPrefix>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut node = from.0;
        for seg in segments {
            node = *self.trie[node as usize].children.get(seg.as_ref())?;
        }
        Some(NsPrefix(node))
    }

    /// The namespace interned at exactly this trie node, if any.
    pub fn namespace_at(&self, prefix: NsPrefix) -> Option<NamespaceId> {
        self.trie[prefix.0 as usize].id
    }

    /// Looks up a previously interned path given as segments, without
    /// interning it or allocating.
    pub fn lookup<I, S>(&self, segments: I) -> Option<NamespaceId>
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.namespace_at(self.descend(NsPrefix::ROOT, segments)?)
    }

    /// Whether some interned namespace has `segments` as a (strict or
    /// full) prefix of its path. The empty path is a prefix of every one.
    pub fn is_prefix<I, S>(&self, segments: I) -> bool
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        self.descend(NsPrefix::ROOT, segments).is_some()
    }

    /// Looks up a previously interned dotted path without interning it.
    pub fn lookup_dotted(&self, dotted: &str) -> Option<NamespaceId> {
        if dotted.is_empty() {
            return Some(NamespaceId::GLOBAL);
        }
        self.lookup(dotted.split('.'))
    }

    /// The segments of a namespace path.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn segments(&self, id: NamespaceId) -> &[String] {
        &self.paths[id.index()]
    }

    /// Renders a namespace as a dotted string (empty for the global one).
    pub fn dotted(&self, id: NamespaceId) -> String {
        self.segments(id).join(".")
    }

    /// Depth (number of segments) of a namespace path.
    pub fn depth(&self, id: NamespaceId) -> usize {
        self.segments(id).len()
    }

    /// Number of interned namespaces, including the global one.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// Whether only the global namespace exists.
    pub fn is_empty(&self) -> bool {
        self.paths.len() <= 1
    }

    /// Iterates over all interned namespace ids.
    pub fn iter(&self) -> impl Iterator<Item = NamespaceId> + '_ {
        (0..self.paths.len() as u32).map(NamespaceId)
    }

    /// Length of the longest common prefix of the paths of two namespaces.
    pub fn common_prefix_len2(&self, a: NamespaceId, b: NamespaceId) -> usize {
        let (pa, pb) = (self.segments(a), self.segments(b));
        pa.iter().zip(pb.iter()).take_while(|(x, y)| x == y).count()
    }

    /// Length of the longest common prefix over a set of namespaces.
    ///
    /// Returns the depth of the sole namespace when the iterator yields one
    /// element, and `0` when it yields none.
    pub fn common_prefix_len<I>(&self, ids: I) -> usize
    where
        I: IntoIterator<Item = NamespaceId>,
    {
        let mut it = ids.into_iter();
        let first = match it.next() {
            Some(id) => id,
            None => return 0,
        };
        let mut len = self.depth(first);
        for id in it {
            len = len.min(self.common_prefix_len2(first, id));
            if len == 0 {
                break;
            }
        }
        len
    }

    /// Serializes the arena for the persistent snapshot: paths in id
    /// order, each a segment count and the segments' string-table ids.
    /// The lookup trie is rebuilt on decode.
    pub fn encode<'a>(&'a self, strings: &mut StringTable<'a>, w: &mut Writer) {
        w.put_len(self.paths.len());
        for path in &self.paths {
            w.put_len(path.len());
            for seg in path {
                strings.put(w, seg);
            }
        }
    }

    /// Decodes an arena written by [`Namespaces::encode`], rebuilding the
    /// path lookup trie and validating that id 0 is the global namespace
    /// and that no path appears twice.
    pub fn decode<'a>(strings: &Strings<'a>, r: &mut Reader<'a>) -> WireResult<Self> {
        let count = r.get_len("namespace count")?;
        if count == 0 {
            return Err(WireError::new(
                "namespace arena is empty (the global namespace must exist)",
            ));
        }
        let mut ns = Namespaces {
            paths: Vec::with_capacity(count),
            trie: vec![TrieNode::default()],
        };
        let mut path = Vec::new();
        for i in 0..count {
            path.clear();
            for seg in r.get_rows::<4>("namespace segments")? {
                path.push(strings.get(u32::from_le_bytes(*seg), "namespace segment")?);
            }
            if i == 0 && !path.is_empty() {
                return Err(WireError::new(
                    "namespace 0 must be the global (empty) namespace",
                ));
            }
            if ns.insert(&path).is_err() {
                return Err(WireError::new(format!(
                    "duplicate namespace path '{}'",
                    path.join(".")
                )));
            }
        }
        Ok(ns)
    }

    /// Parent namespace (path with the last segment removed), if any is
    /// interned. The global namespace has no parent.
    pub fn parent(&self, id: NamespaceId) -> Option<NamespaceId> {
        let segs = self.segments(id);
        if segs.is_empty() {
            return None;
        }
        self.lookup(&segs[..segs.len() - 1])
    }
}

impl fmt::Display for Namespaces {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} namespaces", self.paths.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_namespace_is_id_zero() {
        let ns = Namespaces::new();
        assert_eq!(ns.dotted(NamespaceId::GLOBAL), "");
        assert_eq!(ns.depth(NamespaceId::GLOBAL), 0);
    }

    #[test]
    fn interning_is_idempotent() {
        let mut ns = Namespaces::new();
        let a = ns.intern(&["System", "Collections"]);
        let b = ns.intern_dotted("System.Collections");
        assert_eq!(a, b);
        assert_eq!(ns.dotted(a), "System.Collections");
    }

    #[test]
    fn common_prefix_pairs() {
        let mut ns = Namespaces::new();
        let sc = ns.intern_dotted("System.Collections");
        let sg = ns.intern_dotted("System.Collections.Generic");
        let sd = ns.intern_dotted("System.Drawing");
        let pd = ns.intern_dotted("PaintDotNet");
        assert_eq!(ns.common_prefix_len2(sc, sg), 2);
        assert_eq!(ns.common_prefix_len2(sc, sd), 1);
        assert_eq!(ns.common_prefix_len2(sc, pd), 0);
        assert_eq!(ns.common_prefix_len2(sc, sc), 2);
    }

    #[test]
    fn common_prefix_sets() {
        let mut ns = Namespaces::new();
        let sg = ns.intern_dotted("System.Collections.Generic");
        let sd = ns.intern_dotted("System.Drawing");
        assert_eq!(ns.common_prefix_len([sg, sd]), 1);
        assert_eq!(ns.common_prefix_len([sg]), 3);
        assert_eq!(ns.common_prefix_len(std::iter::empty()), 0);
        assert_eq!(ns.common_prefix_len([sg, sd, NamespaceId::GLOBAL]), 0);
    }

    #[test]
    fn parent_walks_up() {
        let mut ns = Namespaces::new();
        let sys = ns.intern_dotted("System");
        let sc = ns.intern_dotted("System.Collections");
        assert_eq!(ns.parent(sc), Some(sys));
        assert_eq!(ns.parent(sys), Some(NamespaceId::GLOBAL));
        assert_eq!(ns.parent(NamespaceId::GLOBAL), None);
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut ns = Namespaces::new();
        assert_eq!(ns.lookup_dotted("Nope"), None);
        let id = ns.intern_dotted("Yep");
        assert_eq!(ns.lookup_dotted("Yep"), Some(id));
        assert_eq!(ns.lookup_dotted(""), Some(NamespaceId::GLOBAL));
    }

    #[test]
    fn prefixes_of_interned_paths_are_not_namespaces() {
        let mut ns = Namespaces::new();
        let abc = ns.intern_dotted("A.B.C");
        assert_eq!(ns.lookup(["A", "B", "C"]), Some(abc));
        assert_eq!(ns.lookup_dotted("A.B"), None);
        assert_eq!(ns.parent(abc), None);
        assert!(ns.is_prefix(["A", "B"]));
        assert!(ns.is_prefix(std::iter::empty::<&str>()));
        assert!(!ns.is_prefix(["A", "C"]));
        assert!(!ns.is_prefix(["A", "B", "C", "D"]));
        let a = ns.descend(NsPrefix::ROOT, ["A"]).unwrap();
        assert_eq!(ns.namespace_at(a), None);
        let ab_node = ns.descend(a, ["B"]).unwrap();
        assert_eq!(
            ns.descend(ab_node, ["C"]).and_then(|p| ns.namespace_at(p)),
            Some(abc)
        );
        let ab = ns.intern_dotted("A.B");
        assert_eq!(
            ns.namespace_at(ab_node),
            Some(ab),
            "nodes survive interning"
        );
        assert_eq!(ns.parent(abc), Some(ab));
        assert_eq!(ns.dotted(ab), "A.B");
    }
}
