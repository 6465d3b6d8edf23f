//! Hash-consed expression arena: intern-once storage for enumerated
//! expressions.
//!
//! The completion engine builds and compares millions of candidate
//! expressions per query. As `Box`/`String` trees ([`Expr`]) every chain
//! extension deep-clones its base and every dedup hashes a whole subtree.
//! [`ExprArena`] stores each structurally distinct node exactly once and
//! names it by a dense [`ExprId`]; children are ids, strings are interned
//! [`Sym`]s, and doubles are stored by bit pattern. Consequences:
//!
//! * structural equality and hashing of whole expressions are `u32`
//!   compares ([`ExprId`] is `Copy + Eq + Hash`);
//! * building a node the arena has seen before allocates nothing and
//!   returns the existing id (counted as `arena.hits`; first sights count
//!   as `arena.interned`);
//! * two ids are equal **iff** the materialized expressions are
//!   structurally equal with doubles compared by bit pattern (`NaN` equals
//!   itself, `0.0` and `-0.0` differ), so an id set deduplicates
//!   expressions exactly.
//!
//! An arena belongs to one query: the engine's `Completer`, which every
//! caller builds per query, owns it and drops it with the query, so a
//! request's nodes never outlive the request. It is single-threaded (interior `RefCell`, so `!Sync`).
//! Reads borrow it once per [`ExprArena::read`] guard; interning while a
//! guard is alive on the same arena panics with a `RefCell` borrow error.

use std::cell::{Ref, RefCell};
use std::collections::HashMap;

use pex_types::TypeId;

use crate::{CmpOp, Expr, FieldId, LocalId, MethodId};

/// Dense handle of an interned expression node. Equality is structural
/// equality of the whole subtree (within one arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

impl ExprId {
    /// The id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle of an interned string (literal or opaque label).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub u32);

/// One hash-consed expression node: the [`Expr`] grammar with [`ExprId`]
/// children, [`Sym`] strings, and doubles by bit pattern (which makes the
/// node `Eq + Hash`, a total equality).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ENode {
    /// A local variable or parameter.
    Local(LocalId),
    /// The enclosing receiver.
    This,
    /// A static field or property lookup.
    StaticField(FieldId),
    /// An instance field lookup on an interned base.
    FieldAccess(ExprId, FieldId),
    /// A method call (receiver-first, like [`Expr::Call`]).
    Call(MethodId, Box<[ExprId]>),
    /// Assignment `lhs := rhs`.
    Assign(ExprId, ExprId),
    /// Relational comparison.
    Cmp(CmpOp, ExprId, ExprId),
    /// Integer literal.
    IntLit(i64),
    /// Floating literal, stored by bit pattern (`f64::to_bits`).
    DoubleBits(u64),
    /// Boolean literal.
    BoolLit(bool),
    /// String literal (interned).
    StrLit(Sym),
    /// `null`.
    Null,
    /// The paper's `0` marker.
    Hole0,
    /// An opaque expression with a known type and interned label.
    Opaque {
        /// Static type of the opaque expression.
        ty: TypeId,
        /// Interned rendering label.
        label: Sym,
    },
}

#[derive(Debug, Default)]
struct Inner {
    nodes: Vec<ENode>,
    ids: HashMap<ENode, u32>,
    syms: Vec<Box<str>>,
    sym_ids: HashMap<Box<str>, u32>,
}

/// The hash-consed interner. See the module docs.
#[derive(Debug, Default)]
pub struct ExprArena {
    inner: RefCell<Inner>,
}

/// A read guard over an [`ExprArena`], giving borrow access to nodes and
/// symbols without a per-access borrow check. Hold it for the duration of
/// a walk (scoring, typing); drop it before interning anything.
pub struct ArenaRead<'a>(Ref<'a, Inner>);

impl ArenaRead<'_> {
    /// The node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this arena.
    pub fn node(&self, id: ExprId) -> &ENode {
        &self.0.nodes[id.index()]
    }

    /// The string behind a symbol.
    pub fn sym(&self, s: Sym) -> &str {
        &self.0.syms[s.0 as usize]
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.0.nodes.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.0.nodes.is_empty()
    }
}

impl ExprArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ExprArena::default()
    }

    /// Takes a read guard for walk-heavy consumers (scoring, typing,
    /// materialization helpers). Interning while it is alive panics.
    pub fn read(&self) -> ArenaRead<'_> {
        ArenaRead(self.inner.borrow())
    }

    /// Number of distinct nodes interned so far.
    pub fn len(&self) -> usize {
        self.read().len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.read().is_empty()
    }

    /// Interns one node, returning the existing id when the node was seen
    /// before (`arena.hits`) and a fresh one otherwise (`arena.interned`).
    pub fn intern(&self, node: ENode) -> ExprId {
        let mut inner = self.inner.borrow_mut();
        if let Some(&i) = inner.ids.get(&node) {
            pex_obs::counter!("arena.hits", 1);
            return ExprId(i);
        }
        let i = inner.nodes.len() as u32;
        inner.nodes.push(node.clone());
        inner.ids.insert(node, i);
        pex_obs::counter!("arena.interned", 1);
        ExprId(i)
    }

    /// Interns a string, deduplicated.
    pub fn sym(&self, s: &str) -> Sym {
        let mut inner = self.inner.borrow_mut();
        if let Some(&i) = inner.sym_ids.get(s) {
            return Sym(i);
        }
        let i = inner.syms.len() as u32;
        let boxed: Box<str> = s.into();
        inner.syms.push(boxed.clone());
        inner.sym_ids.insert(boxed, i);
        Sym(i)
    }

    /// Interns `Expr::Local`.
    pub fn local(&self, l: LocalId) -> ExprId {
        self.intern(ENode::Local(l))
    }

    /// Interns `Expr::This`.
    pub fn this(&self) -> ExprId {
        self.intern(ENode::This)
    }

    /// Interns `Expr::StaticField`.
    pub fn static_field(&self, f: FieldId) -> ExprId {
        self.intern(ENode::StaticField(f))
    }

    /// Interns a field access on an interned base.
    pub fn field(&self, base: ExprId, f: FieldId) -> ExprId {
        self.intern(ENode::FieldAccess(base, f))
    }

    /// Interns a call with interned arguments (receiver-first).
    pub fn call(&self, m: MethodId, args: &[ExprId]) -> ExprId {
        self.intern(ENode::Call(m, args.into()))
    }

    /// Interns an assignment.
    pub fn assign(&self, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.intern(ENode::Assign(lhs, rhs))
    }

    /// Interns a comparison.
    pub fn cmp(&self, op: CmpOp, lhs: ExprId, rhs: ExprId) -> ExprId {
        self.intern(ENode::Cmp(op, lhs, rhs))
    }

    /// Interns the `0` hole marker.
    pub fn hole0(&self) -> ExprId {
        self.intern(ENode::Hole0)
    }

    /// Interns a whole [`Expr`] tree bottom-up.
    pub fn intern_expr(&self, e: &Expr) -> ExprId {
        match e {
            Expr::Local(l) => self.local(*l),
            Expr::This => self.this(),
            Expr::StaticField(f) => self.static_field(*f),
            Expr::FieldAccess(base, f) => {
                let b = self.intern_expr(base);
                self.field(b, *f)
            }
            Expr::Call(m, args) => {
                let ids: Vec<ExprId> = args.iter().map(|a| self.intern_expr(a)).collect();
                self.call(*m, &ids)
            }
            Expr::Assign(l, r) => {
                let (l, r) = (self.intern_expr(l), self.intern_expr(r));
                self.assign(l, r)
            }
            Expr::Cmp(op, l, r) => {
                let (l, r) = (self.intern_expr(l), self.intern_expr(r));
                self.cmp(*op, l, r)
            }
            Expr::IntLit(v) => self.intern(ENode::IntLit(*v)),
            Expr::DoubleLit(v) => self.intern(ENode::DoubleBits(v.to_bits())),
            Expr::BoolLit(v) => self.intern(ENode::BoolLit(*v)),
            Expr::StrLit(s) => {
                let s = self.sym(s);
                self.intern(ENode::StrLit(s))
            }
            Expr::Null => self.intern(ENode::Null),
            Expr::Hole0 => self.hole0(),
            Expr::Opaque { ty, label } => {
                let label = self.sym(label);
                self.intern(ENode::Opaque { ty: *ty, label })
            }
        }
    }

    /// Rebuilds the boxed [`Expr`] tree behind an id — the materialization
    /// step at the query boundary. O(size of the expression), paid only for
    /// survivors the caller actually receives.
    pub fn materialize(&self, id: ExprId) -> Expr {
        fn mat(inner: &Inner, id: ExprId) -> Expr {
            match &inner.nodes[id.index()] {
                ENode::Local(l) => Expr::Local(*l),
                ENode::This => Expr::This,
                ENode::StaticField(f) => Expr::StaticField(*f),
                ENode::FieldAccess(b, f) => Expr::FieldAccess(Box::new(mat(inner, *b)), *f),
                ENode::Call(m, args) => {
                    Expr::Call(*m, args.iter().map(|&a| mat(inner, a)).collect())
                }
                ENode::Assign(l, r) => {
                    Expr::Assign(Box::new(mat(inner, *l)), Box::new(mat(inner, *r)))
                }
                ENode::Cmp(op, l, r) => {
                    Expr::Cmp(*op, Box::new(mat(inner, *l)), Box::new(mat(inner, *r)))
                }
                ENode::IntLit(v) => Expr::IntLit(*v),
                ENode::DoubleBits(b) => Expr::DoubleLit(f64::from_bits(*b)),
                ENode::BoolLit(v) => Expr::BoolLit(*v),
                ENode::StrLit(s) => Expr::StrLit(inner.syms[s.0 as usize].to_string()),
                ENode::Null => Expr::Null,
                ENode::Hole0 => Expr::Hole0,
                ENode::Opaque { ty, label } => Expr::Opaque {
                    ty: *ty,
                    label: inner.syms[label.0 as usize].to_string(),
                },
            }
        }
        mat(&self.inner.borrow(), id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The oracle for id equality: [`Expr`] under total structural equality.
    ///
    /// `Expr`'s `PartialEq` follows IEEE 754 for double literals (`NaN != NaN`)
    /// and therefore cannot be `Eq`; this wrapper compares doubles **by bit
    /// pattern**, consistent with [`Expr`]'s `Hash`. Two interned ids must be
    /// equal exactly when their trees are `ExprKey`-equal.
    #[derive(Debug, Clone)]
    struct ExprKey(Expr);

    impl PartialEq for ExprKey {
        fn eq(&self, other: &Self) -> bool {
            fn total_eq(a: &Expr, b: &Expr) -> bool {
                match (a, b) {
                    (Expr::DoubleLit(x), Expr::DoubleLit(y)) => x.to_bits() == y.to_bits(),
                    (Expr::FieldAccess(ab, af), Expr::FieldAccess(bb, bf)) => {
                        af == bf && total_eq(ab, bb)
                    }
                    (Expr::Call(am, aa), Expr::Call(bm, ba)) => {
                        am == bm
                            && aa.len() == ba.len()
                            && aa.iter().zip(ba).all(|(x, y)| total_eq(x, y))
                    }
                    (Expr::Assign(al, ar), Expr::Assign(bl, br)) => {
                        total_eq(al, bl) && total_eq(ar, br)
                    }
                    (Expr::Cmp(ao, al, ar), Expr::Cmp(bo, bl, br)) => {
                        ao == bo && total_eq(al, bl) && total_eq(ar, br)
                    }
                    // Every remaining form contains no `f64`, so the derived
                    // equality is already total.
                    _ => a == b,
                }
            }
            total_eq(&self.0, &other.0)
        }
    }

    impl Eq for ExprKey {}

    impl std::hash::Hash for ExprKey {
        fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
            self.0.hash(state);
        }
    }

    #[test]
    fn interning_deduplicates_structurally() {
        let arena = ExprArena::new();
        let a = arena.local(LocalId(0));
        let b = arena.local(LocalId(0));
        assert_eq!(a, b);
        assert_ne!(a, arena.local(LocalId(1)));
        let f = arena.field(a, FieldId(3));
        let g = arena.field(b, FieldId(3));
        assert_eq!(f, g);
        assert_eq!(arena.len(), 3);
        // Calls dedup by method and argument ids.
        let c1 = arena.call(MethodId(7), &[a, f]);
        let c2 = arena.call(MethodId(7), &[b, g]);
        assert_eq!(c1, c2);
        assert_ne!(c1, arena.call(MethodId(7), &[f, a]));
    }

    #[test]
    fn round_trip_matches_expr_key_equality() {
        let arena = ExprArena::new();
        let exprs = vec![
            Expr::Local(LocalId(0)),
            Expr::This,
            Expr::field(Expr::This, FieldId(0)),
            Expr::Call(MethodId(1), vec![Expr::This, Expr::DoubleLit(1.5)]),
            Expr::assign(Expr::Local(LocalId(0)), Expr::IntLit(3)),
            Expr::cmp(CmpOp::Lt, Expr::IntLit(1), Expr::IntLit(2)),
            Expr::StrLit("hello".into()),
            Expr::Null,
            Expr::Hole0,
            Expr::DoubleLit(f64::NAN),
            Expr::Opaque {
                ty: TypeId::from_index(0),
                label: "x[i]".into(),
            },
        ];
        for e in &exprs {
            let id = arena.intern_expr(e);
            let back = arena.materialize(id);
            assert_eq!(
                ExprKey(back),
                ExprKey(e.clone()),
                "materialize must invert intern_expr for {e:?}"
            );
            // Re-interning the materialized tree returns the same id.
            assert_eq!(arena.intern_expr(&arena.materialize(id)), id);
        }
    }

    #[test]
    fn ids_dedup_exactly_like_expr_keys() {
        let arena = ExprArena::new();
        // NaN equals itself bitwise; 0.0 and -0.0 differ bitwise.
        let exprs = [
            Expr::DoubleLit(f64::NAN),
            Expr::DoubleLit(f64::NAN),
            Expr::DoubleLit(0.0),
            Expr::DoubleLit(-0.0),
            Expr::Call(MethodId(1), vec![Expr::This, Expr::DoubleLit(-0.0)]),
            Expr::Call(MethodId(1), vec![Expr::This, Expr::DoubleLit(0.0)]),
            Expr::Call(MethodId(1), vec![Expr::This, Expr::DoubleLit(0.0)]),
        ];
        let ids: Vec<ExprId> = exprs.iter().map(|e| arena.intern_expr(e)).collect();
        for (a, ia) in exprs.iter().zip(&ids) {
            for (b, ib) in exprs.iter().zip(&ids) {
                assert_eq!(
                    ia == ib,
                    ExprKey(a.clone()) == ExprKey(b.clone()),
                    "{a:?} vs {b:?}"
                );
            }
        }
        assert_eq!(ids[0], ids[1]);
        assert_ne!(ids[2], ids[3]);
    }

    #[test]
    fn symbols_intern_once() {
        let arena = ExprArena::new();
        let a = arena.intern_expr(&Expr::StrLit("s".into()));
        let b = arena.intern_expr(&Expr::StrLit("s".into()));
        assert_eq!(a, b);
        let read = arena.read();
        let ENode::StrLit(s) = read.node(a) else {
            panic!("string literal expected");
        };
        assert_eq!(read.sym(*s), "s");
    }

    #[test]
    fn expr_key_equality_is_total_and_matches_hash() {
        use std::collections::HashSet;
        let mut set: HashSet<ExprKey> = HashSet::new();
        assert!(set.insert(ExprKey(Expr::DoubleLit(f64::NAN))));
        // NaN equals itself bitwise: a duplicate under total equality.
        assert!(!set.insert(ExprKey(Expr::DoubleLit(f64::NAN))));
        // 0.0 and -0.0 differ bitwise: distinct rendered literals.
        assert!(set.insert(ExprKey(Expr::DoubleLit(0.0))));
        assert!(set.insert(ExprKey(Expr::DoubleLit(-0.0))));
        // Structural forms dedup recursively.
        let call = Expr::Call(MethodId(1), vec![Expr::This, Expr::DoubleLit(1.5)]);
        assert!(set.insert(ExprKey(call.clone())));
        assert!(!set.insert(ExprKey(call.clone())));
        assert!(set.insert(ExprKey(Expr::Call(MethodId(1), vec![Expr::This]))));
        assert!(set.insert(ExprKey(Expr::assign(
            Expr::Local(LocalId(0)),
            Expr::IntLit(3)
        ))));
        assert!(set.insert(ExprKey(Expr::cmp(CmpOp::Lt, Expr::This, call))));
    }
}
