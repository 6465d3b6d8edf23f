//! Interned namespace paths and the common-prefix computation used by the
//! ranking function's *common namespace* term (paper Section 4.1).

use std::fmt;

use crate::text::{KeyIndex, Text};
use crate::wire::{Reader, StringTable, Strings, WireError, WireResult, Writer};
use crate::NamespaceId;

/// Arena of interned namespace paths.
///
/// A namespace is a dotted path such as `System.Collections`, a list of
/// segments. The empty path is the global namespace and is always present
/// with id [`NamespaceId::GLOBAL`].
///
/// The paper's ranking function treats namespaces as lists of strings and
/// scores method calls by the length of the common prefix of the namespaces
/// of all participating non-primitive types; [`Namespaces::common_prefix_len`]
/// implements that computation.
///
/// Paths are held as a segment trie of fixed-width nodes over one text
/// table, which the owning [`crate::TypeTable`] shares for its type names;
/// a child is found through one keyed index over `(parent, segment)`.
#[derive(Debug, Clone)]
pub struct Namespaces {
    text: Text,
    /// Node 0 is the empty path; a node exists exactly when some
    /// interned path starts with the node's path, and carries an id only
    /// if that path itself was interned.
    nodes: Vec<Node>,
    /// Each namespace's node, by id.
    paths: Vec<u32>,
    /// `(parent node, segment)` to child node.
    children: KeyIndex,
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

/// A trie node: 16 bytes.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The parent node ([`NO_ID`] for the root).
    parent: u32,
    /// The last segment's text id ([`NO_ID`] for the root).
    segment: u32,
    /// Number of segments.
    depth: u32,
    /// The namespace interned at this path, or [`NO_ID`].
    namespace: u32,
}

const NO_ID: u32 = u32::MAX;

const ROOT: Node = Node {
    parent: NO_ID,
    segment: NO_ID,
    depth: 0,
    namespace: NO_ID,
};

impl Default for Namespaces {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespaces {
    /// Creates an arena containing only the global namespace.
    pub fn new() -> Self {
        let mut ns = Namespaces::with_capacity(1, 0);
        let id = ns.intern(&[] as &[&str]);
        debug_assert_eq!(id, NamespaceId::GLOBAL);
        ns
    }

    /// An arena of no paths, with room for `paths` paths over `nodes`
    /// trie nodes besides the root.
    fn with_capacity(paths: usize, nodes: usize) -> Self {
        let mut trie = Vec::with_capacity(nodes + 1);
        trie.push(ROOT);
        Namespaces {
            text: Text::default(),
            nodes: trie,
            paths: Vec::with_capacity(paths),
            children: KeyIndex::with_capacity(nodes),
        }
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
            let Namespaces {
                text,
                nodes,
                children,
                ..
            } = self;
            let new = nodes.len() as u32;
            let child = children.find_or_insert((node, seg), is_child(nodes, text, node, seg), new);
            if child == new {
                let depth = nodes[node as usize].depth + 1;
                nodes.push(Node {
                    parent: node,
                    segment: text.push(seg),
                    depth,
                    namespace: NO_ID,
                });
            }
            node = child;
        }
        let at = &mut self.nodes[node as usize];
        if at.namespace != NO_ID {
            return Err(NamespaceId(at.namespace));
        }
        let id = NamespaceId(self.paths.len() as u32);
        at.namespace = id.0;
        self.paths.push(node);
        Ok(id)
    }

    /// The child of trie node `node` along segment `seg`.
    #[inline]
    fn child(&self, node: u32, seg: &str) -> Option<u32> {
        self.children
            .find((node, seg), is_child(&self.nodes, &self.text, node, seg))
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
        assert!((node as usize) < self.nodes.len(), "a foreign trie node");
        for seg in segments {
            node = self.child(node, seg.as_ref())?;
        }
        Some(NsPrefix(node))
    }

    /// The namespace interned at exactly this trie node, if any.
    pub fn namespace_at(&self, prefix: NsPrefix) -> Option<NamespaceId> {
        match self.nodes[prefix.0 as usize].namespace {
            NO_ID => None,
            id => Some(NamespaceId(id)),
        }
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

    /// The segments of a namespace path, outermost first.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this arena.
    pub fn segments(&self, id: NamespaceId) -> Segments<'_> {
        let node = self.paths[id.index()];
        Segments {
            ns: self,
            node,
            next: 0,
            depth: self.nodes[node as usize].depth,
        }
    }

    /// Renders a namespace as a dotted string (empty for the global one).
    pub fn dotted(&self, id: NamespaceId) -> String {
        let mut out = String::new();
        for (i, seg) in self.segments(id).enumerate() {
            if i > 0 {
                out.push('.');
            }
            out.push_str(seg);
        }
        out
    }

    /// Depth (number of segments) of a namespace path.
    pub fn depth(&self, id: NamespaceId) -> usize {
        self.nodes[self.paths[id.index()] as usize].depth as usize
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

    /// Length of the longest common prefix of the paths of two namespaces:
    /// the depth of the deepest trie node both paths pass through.
    pub fn common_prefix_len2(&self, a: NamespaceId, b: NamespaceId) -> usize {
        let (mut x, mut y) = (self.paths[a.index()], self.paths[b.index()]);
        let depth = |n: u32| self.nodes[n as usize].depth;
        let parent = |n: u32| self.nodes[n as usize].parent;
        while depth(x) > depth(y) {
            x = parent(x);
        }
        while depth(y) > depth(x) {
            y = parent(y);
        }
        while x != y {
            x = parent(x);
            y = parent(y);
        }
        depth(x) as usize
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

    /// The text table: segments, and the owning table's type names.
    pub(crate) fn text(&self) -> &Text {
        &self.text
    }

    pub(crate) fn text_mut(&mut self) -> &mut Text {
        &mut self.text
    }

    /// Unused capacity of the arena's vectors, in elements.
    pub(crate) fn slack(&self) -> usize {
        self.text.slack() + self.nodes.capacity() - self.nodes.len() + self.paths.capacity()
            - self.paths.len()
    }

    /// Drops the arena's growth slack.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.shrink_to_fit();
        self.nodes.shrink_to_fit();
        self.paths.shrink_to_fit();
    }

    /// Serializes the arena for the persistent snapshot: paths in id
    /// order, each a segment count and the segments' string-table ids.
    /// The lookup trie is rebuilt on decode.
    pub fn encode<'a>(&'a self, strings: &mut StringTable<'a>, w: &mut Writer) {
        w.put_len(self.paths.len());
        for id in self.iter() {
            let segments = self.segments(id);
            w.put_len(segments.len());
            for seg in segments {
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
        let mut paths = Vec::with_capacity(count);
        let (mut segments, mut bytes) = (0, 0);
        for _ in 0..count {
            let path: &[[u8; 4]] = r.get_rows("namespace segments")?;
            for seg in path {
                bytes += strings
                    .get(u32::from_le_bytes(*seg), "namespace segment")?
                    .len();
            }
            segments += path.len();
            paths.push(path);
        }
        // Shared prefixes make the trie smaller than the paths' segment
        // count: reserve for that many, then drop what is left over.
        let mut ns = Namespaces::with_capacity(count, segments);
        ns.text.reserve_exact(segments, bytes);
        let mut path = Vec::new();
        for (i, ids) in paths.into_iter().enumerate() {
            path.clear();
            for seg in ids {
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
        ns.shrink_to_fit();
        Ok(ns)
    }

    /// Parent namespace (path with the last segment removed), if any is
    /// interned. The global namespace has no parent.
    pub fn parent(&self, id: NamespaceId) -> Option<NamespaceId> {
        match self.nodes[self.paths[id.index()] as usize].parent {
            NO_ID => None,
            parent => self.namespace_at(NsPrefix(parent)),
        }
    }
}

/// Whether trie node `c` is the child of `parent` along `seg`.
fn is_child<'a>(
    nodes: &'a [Node],
    text: &'a Text,
    parent: u32,
    seg: &'a str,
) -> impl Fn(u32) -> bool + 'a {
    move |c| {
        let n = &nodes[c as usize];
        n.parent == parent && text.get(n.segment) == seg
    }
}

/// The segments of one namespace path, outermost first (see
/// [`Namespaces::segments`]). Debug-formats as a list of strings.
#[derive(Clone)]
pub struct Segments<'a> {
    ns: &'a Namespaces,
    /// The path's trie node.
    node: u32,
    /// Depth of the next segment to yield, and of the path.
    next: u32,
    depth: u32,
}

impl<'a> Iterator for Segments<'a> {
    type Item = &'a str;

    fn next(&mut self) -> Option<&'a str> {
        if self.next == self.depth {
            return None;
        }
        self.next += 1;
        let mut node = &self.ns.nodes[self.node as usize];
        while node.depth > self.next {
            node = &self.ns.nodes[node.parent as usize];
        }
        Some(self.ns.text.get(node.segment))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = (self.depth - self.next) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Segments<'_> {}

impl fmt::Debug for Segments<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.clone()).finish()
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
