//! The complete-expression IR: the paper's Figure 5(a) language plus the
//! literal/opaque forms needed to model real argument expressions.

use pex_types::TypeId;

use crate::{FieldId, LocalId, MethodId};

/// Relational comparison operators. The paper's formal language has `<`;
/// its examples use `>=`; the model supports all four, uniformly treated as
/// a binary method whose two parameters share the more general operand type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Source form of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    /// Parses a source operator.
    pub fn from_symbol(s: &str) -> Option<CmpOp> {
        match s {
            "<" => Some(CmpOp::Lt),
            "<=" => Some(CmpOp::Le),
            ">" => Some(CmpOp::Gt),
            ">=" => Some(CmpOp::Ge),
            _ => None,
        }
    }
}

/// A complete expression.
///
/// Grammar (paper Figure 5(a), receiver folded into the argument list):
///
/// ```text
/// e    ::= call | varName | e.fieldName | e := e | e < e
/// call ::= methodName(e1, ..., en)
/// ```
///
/// plus literals and opaque expressions, which stand for the argument forms
/// the completion engine never generates (constants, array lookups,
/// arithmetic) but which occur in real code and must type-check and render.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A local variable or parameter of the enclosing context.
    Local(LocalId),
    /// The receiver of the enclosing instance method.
    This,
    /// A static field or property lookup (includes enum members).
    StaticField(FieldId),
    /// An instance field or property lookup on a base expression.
    FieldAccess(Box<Expr>, FieldId),
    /// A method call. For instance methods `args[0]` is the receiver, so
    /// `args.len() == method.full_arity()`.
    Call(MethodId, Vec<Expr>),
    /// Assignment `lhs := rhs`.
    Assign(Box<Expr>, Box<Expr>),
    /// Relational comparison.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Integer literal (type `int`).
    IntLit(i64),
    /// Floating literal (type `double`).
    DoubleLit(f64),
    /// Boolean literal (type `bool`).
    BoolLit(bool),
    /// String literal (type `string`).
    StrLit(String),
    /// `null`: types as a wildcard (accepted wherever a reference type is).
    Null,
    /// The paper's `0` marker: a subexpression deliberately left unfilled.
    /// Completions of `?({...})` queries carry `0` for the extra argument
    /// positions the query did not provide. Types as a wildcard.
    Hole0,
    /// An expression the model does not represent structurally (array
    /// lookup, arithmetic, lambda, ...). It has a known type and a rendering
    /// label; the completion engine classifies arguments of this form as
    /// "not guessable" (paper Figure 14).
    Opaque {
        /// Static type of the opaque expression.
        ty: TypeId,
        /// Source-ish text used for rendering.
        label: String,
    },
}

/// The static type of an expression: a known type, or a wildcard.
///
/// Wildcards arise from `null` literals and from the paper's `0` holes,
/// which "type-check as long as some choice of type works".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ValueTy {
    /// A definite type.
    Known(TypeId),
    /// Compatible with every type (the paper's `0`-hole rule and `null`).
    Wildcard,
}

impl ValueTy {
    /// The known type, if any.
    pub fn known(self) -> Option<TypeId> {
        match self {
            ValueTy::Known(t) => Some(t),
            ValueTy::Wildcard => None,
        }
    }

    /// Whether this is the wildcard.
    pub fn is_wildcard(self) -> bool {
        matches!(self, ValueTy::Wildcard)
    }
}

impl From<TypeId> for ValueTy {
    fn from(t: TypeId) -> Self {
        ValueTy::Known(t)
    }
}

/// Coarse classification of expression forms, used to reproduce the paper's
/// Figure 14 (distribution of argument expression kinds) and to decide which
/// omitted arguments are "guessable".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExprKindName {
    /// A local variable or parameter.
    Local,
    /// The literal `this`.
    This,
    /// A chain of field/property lookups (possibly rooted at `this`/static).
    FieldLookup,
    /// A zero-argument method call at the end of a lookup chain.
    ZeroArgCall,
    /// A static field (global) reference.
    StaticField,
    /// Anything the completer cannot generate: literals, `null`, opaque
    /// expressions, calls with arguments, assignments, comparisons.
    NotGuessable,
}

impl ExprKindName {
    /// Human-readable label (matches the paper's Figure 14 legend).
    pub fn label(self) -> &'static str {
        match self {
            ExprKindName::Local => "local variable",
            ExprKindName::This => "this",
            ExprKindName::FieldLookup => "field/property lookup",
            ExprKindName::ZeroArgCall => "zero-argument call",
            ExprKindName::StaticField => "static field",
            ExprKindName::NotGuessable => "not guessable",
        }
    }

    /// All kinds in rendering order.
    pub const ALL: [ExprKindName; 6] = [
        ExprKindName::Local,
        ExprKindName::This,
        ExprKindName::FieldLookup,
        ExprKindName::ZeroArgCall,
        ExprKindName::StaticField,
        ExprKindName::NotGuessable,
    ];
}

impl Expr {
    /// Convenience constructor for `FieldAccess`.
    pub fn field(base: Expr, field: FieldId) -> Expr {
        Expr::FieldAccess(Box::new(base), field)
    }

    /// Convenience constructor for `Assign`.
    pub fn assign(lhs: Expr, rhs: Expr) -> Expr {
        Expr::Assign(Box::new(lhs), Box::new(rhs))
    }

    /// Convenience constructor for `Cmp`.
    pub fn cmp(op: CmpOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(lhs), Box::new(rhs))
    }

    /// Immediate subexpressions, in evaluation order.
    pub fn children(&self) -> Vec<&Expr> {
        match self {
            Expr::FieldAccess(b, _) => vec![b],
            Expr::Call(_, args) => args.iter().collect(),
            Expr::Assign(l, r) | Expr::Cmp(_, l, r) => vec![l, r],
            _ => Vec::new(),
        }
    }

    /// Number of nodes in the expression tree.
    pub fn size(&self) -> usize {
        1 + self.children().iter().map(|c| c.size()).sum::<usize>()
    }

    /// Whether the expression is a "simple chain": a local/`this`/static
    /// rooted sequence of field lookups and zero-argument calls. These are
    /// exactly the shapes the completion engine can synthesize for holes.
    pub fn is_simple_chain(&self) -> bool {
        match self {
            Expr::Local(_) | Expr::This | Expr::StaticField(_) => true,
            Expr::FieldAccess(base, _) => base.is_simple_chain(),
            Expr::Call(_, args) => args.len() == 1 && args[0].is_simple_chain(),
            _ => false,
        }
    }

    /// Classifies the expression for Figure 14. `is_zero_arg_call` must be
    /// provided by the caller because arity lives in the database.
    pub fn kind_name(
        &self,
        is_zero_arg_instance_call: impl Fn(MethodId, usize) -> bool,
    ) -> ExprKindName {
        match self {
            Expr::Local(_) => ExprKindName::Local,
            Expr::This => ExprKindName::This,
            Expr::StaticField(_) => ExprKindName::StaticField,
            Expr::FieldAccess(base, _) => {
                if base.is_simple_chain() {
                    ExprKindName::FieldLookup
                } else {
                    ExprKindName::NotGuessable
                }
            }
            Expr::Call(m, args) => {
                if is_zero_arg_instance_call(*m, args.len())
                    && args.len() == 1
                    && args[0].is_simple_chain()
                {
                    ExprKindName::ZeroArgCall
                } else {
                    ExprKindName::NotGuessable
                }
            }
            _ => ExprKindName::NotGuessable,
        }
    }

    /// The last member name of a lookup chain, if the expression ends in a
    /// field/property lookup or zero-argument call. Used by the ranking
    /// function's *same name* term for comparisons.
    pub fn last_member(&self) -> Option<LastMember> {
        match self {
            Expr::StaticField(f) | Expr::FieldAccess(_, f) => Some(LastMember::Field(*f)),
            Expr::Call(m, _) => Some(LastMember::Method(*m)),
            _ => None,
        }
    }
}

impl std::hash::Hash for Expr {
    /// Structural hash. `Expr` cannot derive `Hash` because of
    /// [`Expr::DoubleLit`]; floating literals hash by bit pattern, matching
    /// the arena's id equality ([`crate::ExprArena`]).
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Expr::Local(l) => l.hash(state),
            Expr::This | Expr::Null | Expr::Hole0 => {}
            Expr::StaticField(f) => f.hash(state),
            Expr::FieldAccess(base, f) => {
                base.hash(state);
                f.hash(state);
            }
            Expr::Call(m, args) => {
                m.hash(state);
                args.hash(state);
            }
            Expr::Assign(l, r) => {
                l.hash(state);
                r.hash(state);
            }
            Expr::Cmp(op, l, r) => {
                op.hash(state);
                l.hash(state);
                r.hash(state);
            }
            Expr::IntLit(v) => v.hash(state),
            Expr::DoubleLit(v) => v.to_bits().hash(state),
            Expr::BoolLit(v) => v.hash(state),
            Expr::StrLit(s) => s.hash(state),
            Expr::Opaque { ty, label } => {
                ty.hash(state);
                label.hash(state);
            }
        }
    }
}

/// The trailing member of a lookup chain (see [`Expr::last_member`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LastMember {
    /// Chain ends in a field or property.
    Field(FieldId),
    /// Chain ends in a method call.
    Method(MethodId),
}

/// A statement in a method body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Declares and initialises local slot `LocalId` (which must be the next
    /// undeclared slot; parameters occupy the leading slots).
    Init(LocalId, Expr),
    /// An expression evaluated for effect (call, assignment, ...).
    Expr(Expr),
    /// `return e;` / `return;`
    Return(Option<Expr>),
    /// `if (cond) { then } else { otherwise }`. Branch bodies may not
    /// declare locals (the live-local model stays a prefix of the slot
    /// table), which matches the paper's statement-level corpus shape.
    If {
        /// The boolean condition (where most of the paper's comparisons
        /// live in real code).
        cond: Expr,
        /// Statements executed when the condition holds.
        then_body: Vec<Stmt>,
        /// Statements executed otherwise (empty for no `else`).
        else_body: Vec<Stmt>,
    },
    /// `while (cond) { body }`. Same no-declarations rule as [`Stmt::If`].
    While {
        /// The boolean condition.
        cond: Expr,
        /// The loop body.
        body: Vec<Stmt>,
    },
}

impl Stmt {
    /// The statement's top-level expression, if any (the condition for
    /// `if`/`while`).
    pub fn expr(&self) -> Option<&Expr> {
        match self {
            Stmt::Init(_, e) | Stmt::Expr(e) => Some(e),
            Stmt::Return(e) => e.as_ref(),
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => Some(cond),
        }
    }

    /// Statements nested directly inside this one (branch/loop bodies).
    pub fn nested(&self) -> Vec<&Stmt> {
        match self {
            Stmt::If {
                then_body,
                else_body,
                ..
            } => then_body.iter().chain(else_body.iter()).collect(),
            Stmt::While { body, .. } => body.iter().collect(),
            _ => Vec::new(),
        }
    }

    /// This statement's expressions plus those of all nested statements,
    /// in source order (used by query-site extraction).
    pub fn exprs_recursive(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        if let Some(e) = self.expr() {
            out.push(e);
        }
        for stmt in self.nested() {
            out.extend(stmt.exprs_recursive());
        }
        out
    }
}

/// A method body: the local slot table (parameters first) and statements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Body {
    /// Names and types of all slots; slots `0..param_count` are parameters.
    pub locals: Vec<(String, TypeId)>,
    /// Number of leading slots that are parameters (always in scope).
    pub param_count: usize,
    /// Statements in order. `Stmt::Init(l, _)` must initialise slots in
    /// increasing order starting at `param_count`.
    pub stmts: Vec<Stmt>,
}

impl Body {
    /// Number of local slots in scope at statement index `at` (parameters
    /// plus locals initialised strictly before `at`).
    pub fn live_locals_at(&self, at: usize) -> usize {
        let mut live = self.param_count;
        for stmt in self.stmts.iter().take(at) {
            if let Stmt::Init(l, _) = stmt {
                live = live.max(l.index() + 1);
            }
        }
        live
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_symbols_round_trip() {
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(CmpOp::from_symbol(op.symbol()), Some(op));
        }
        assert_eq!(CmpOp::from_symbol("=="), None);
    }

    #[test]
    fn simple_chain_classification() {
        let l = Expr::Local(LocalId(0));
        assert!(l.is_simple_chain());
        let fa = Expr::field(Expr::This, FieldId(0));
        assert!(fa.is_simple_chain());
        let deep = Expr::field(fa.clone(), FieldId(1));
        assert!(deep.is_simple_chain());
        assert!(!Expr::IntLit(3).is_simple_chain());
        assert!(!Expr::assign(l.clone(), Expr::IntLit(1)).is_simple_chain());
    }

    #[test]
    fn kind_names() {
        let zero_arg = |_m: MethodId, n: usize| n == 1;
        assert_eq!(
            Expr::Local(LocalId(0)).kind_name(zero_arg),
            ExprKindName::Local
        );
        assert_eq!(Expr::This.kind_name(zero_arg), ExprKindName::This);
        assert_eq!(
            Expr::field(Expr::This, FieldId(0)).kind_name(zero_arg),
            ExprKindName::FieldLookup
        );
        assert_eq!(
            Expr::IntLit(0).kind_name(zero_arg),
            ExprKindName::NotGuessable
        );
        assert_eq!(Expr::Null.kind_name(zero_arg), ExprKindName::NotGuessable);
        assert_eq!(
            Expr::Call(MethodId(0), vec![Expr::This]).kind_name(zero_arg),
            ExprKindName::ZeroArgCall
        );
        assert_eq!(
            Expr::Call(MethodId(0), vec![Expr::This, Expr::IntLit(1)]).kind_name(|_, _| false),
            ExprKindName::NotGuessable
        );
    }

    #[test]
    fn live_locals() {
        let body = Body {
            locals: vec![
                ("p".into(), pex_types::TypeId::from_index(0)),
                ("a".into(), pex_types::TypeId::from_index(0)),
                ("b".into(), pex_types::TypeId::from_index(0)),
            ],
            param_count: 1,
            stmts: vec![
                Stmt::Init(LocalId(1), Expr::IntLit(1)),
                Stmt::Expr(Expr::IntLit(2)),
                Stmt::Init(LocalId(2), Expr::IntLit(3)),
            ],
        };
        assert_eq!(body.live_locals_at(0), 1);
        assert_eq!(body.live_locals_at(1), 2);
        assert_eq!(body.live_locals_at(2), 2);
        assert_eq!(body.live_locals_at(3), 3);
    }

    #[test]
    fn size_counts_nodes() {
        let e = Expr::cmp(
            CmpOp::Ge,
            Expr::field(Expr::This, FieldId(0)),
            Expr::Local(LocalId(0)),
        );
        assert_eq!(e.size(), 4);
    }
}
