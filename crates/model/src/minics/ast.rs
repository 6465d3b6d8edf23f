//! Abstract syntax for the mini-C# language, produced by [`super::parser`].
//!
//! The tree borrows every name and path segment from the source text
//! (`'src`); only string literals are owned, because the lexer unescapes
//! them. A `String` is made only where the [`crate::Database`] keeps a
//! name, so neither building nor dropping a tree allocates per identifier.

use crate::CmpOp;

/// A compilation unit: `using` directives followed by namespace declarations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct File<'src> {
    /// Imported namespaces, each as path segments.
    pub usings: Vec<Vec<&'src str>>,
    /// Namespace blocks.
    pub namespaces: Vec<NsDecl<'src>>,
}

/// A `namespace A.B { ... }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct NsDecl<'src> {
    /// Dotted path segments.
    pub path: Vec<&'src str>,
    /// Types declared in the block.
    pub types: Vec<TypeDecl<'src>>,
}

/// What sort of type a declaration introduces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TypeDeclKind {
    /// `class`
    Class,
    /// `struct`
    Struct,
    /// `interface`
    Interface,
    /// `enum`
    Enum,
}

/// A type declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeDecl<'src> {
    /// Class, struct, interface or enum.
    pub kind: TypeDeclKind,
    /// Simple name.
    pub name: &'src str,
    /// Base list: for classes the first class found becomes the base class,
    /// every other entry must be an interface. For interfaces all entries
    /// are extended interfaces.
    pub bases: Vec<TypeRef<'src>>,
    /// Fields, properties and methods (empty for enums).
    pub members: Vec<MemberDecl<'src>>,
    /// Enum member names (enums only).
    pub enum_members: Vec<&'src str>,
    /// Whether the declaration carried the `[Comparable]` attribute, making
    /// values orderable by the relational operators (the paper's `DateTime`).
    pub comparable: bool,
    /// Source line of the declaration (for error reporting).
    pub line: u32,
    /// Source column of the declaration.
    pub col: u32,
}

/// A (possibly dotted) type reference as written in source.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeRef<'src> {
    /// Path segments; a single segment may also be a primitive keyword.
    pub segments: Vec<&'src str>,
    /// Source line.
    pub line: u32,
    /// Source column.
    pub col: u32,
}

/// A member of a class/struct/interface.
#[derive(Debug, Clone, PartialEq)]
pub enum MemberDecl<'src> {
    /// `static? Type Name;` or `static? Type Name { get; set? ; }`
    Field {
        /// Whether declared `static`.
        is_static: bool,
        /// Declared type.
        ty: TypeRef<'src>,
        /// Member name.
        name: &'src str,
        /// Whether declared with accessor syntax (a property).
        is_property: bool,
        /// Whether declared `private`.
        is_private: bool,
    },
    /// `static? (void|Type) Name(params) body?`
    Method {
        /// Whether declared `static`.
        is_static: bool,
        /// Return type; `None` is `void`.
        ret: Option<TypeRef<'src>>,
        /// Method name.
        name: &'src str,
        /// `(type, name)` parameter list.
        params: Vec<(TypeRef<'src>, &'src str)>,
        /// Body statements; `None` when declared with `;` (interface or
        /// library surface).
        body: Option<Vec<Stmt<'src>>>,
        /// Whether declared `private`.
        is_private: bool,
    },
}

/// A statement in a method body.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt<'src> {
    /// `Type name = expr;` or `var name = expr;` (`ty` is `None` for `var`).
    Local {
        /// Declared type, or `None` for `var`.
        ty: Option<TypeRef<'src>>,
        /// Local name.
        name: &'src str,
        /// Initialiser.
        init: Expr<'src>,
        /// Source line.
        line: u32,
        /// Source column.
        col: u32,
    },
    /// `expr;`
    Expr(Expr<'src>),
    /// `return expr?;`
    Return(Option<Expr<'src>>, u32, u32),
    /// `if (cond) { ... } else { ... }` — branch bodies may not declare
    /// locals.
    If {
        /// Condition expression.
        cond: Expr<'src>,
        /// `then` branch statements.
        then_body: Vec<Stmt<'src>>,
        /// `else` branch statements (empty when absent).
        else_body: Vec<Stmt<'src>>,
        /// Source line of the `if`.
        line: u32,
        /// Source column of the `if`.
        col: u32,
    },
    /// `while (cond) { ... }` — the body may not declare locals.
    While {
        /// Condition expression.
        cond: Expr<'src>,
        /// Loop body statements.
        body: Vec<Stmt<'src>>,
        /// Source line of the `while`.
        line: u32,
        /// Source column of the `while`.
        col: u32,
    },
}

/// An expression as written in source; names are unresolved.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr<'src> {
    /// A bare identifier.
    Ident(&'src str, u32, u32),
    /// `this`
    This(u32, u32),
    /// `base.name`
    Member(Box<Expr<'src>>, &'src str, u32, u32),
    /// `callee(args)` — the callee must end in a name.
    Invoke(Box<Expr<'src>>, Vec<Expr<'src>>, u32, u32),
    /// `lhs = rhs`
    Assign(Box<Expr<'src>>, Box<Expr<'src>>),
    /// `lhs op rhs`
    Cmp(CmpOp, Box<Expr<'src>>, Box<Expr<'src>>),
    /// Integer literal.
    Int(i64),
    /// Floating literal.
    Double(f64),
    /// `true` / `false`
    Bool(bool),
    /// String literal (unescaped, so owned).
    Str(String),
    /// `null`
    Null(u32, u32),
}

impl Expr<'_> {
    /// Source position of the expression, when one was recorded.
    pub fn pos(&self) -> (u32, u32) {
        match self {
            Expr::Ident(_, l, c)
            | Expr::This(l, c)
            | Expr::Member(_, _, l, c)
            | Expr::Invoke(_, _, l, c)
            | Expr::Null(l, c) => (*l, *c),
            Expr::Assign(l, _) | Expr::Cmp(_, l, _) => l.pos(),
            _ => (0, 0),
        }
    }
}
