//! Abstract syntax for the mini-C# language, produced by [`super::parser`].
//!
//! The tree borrows every name and path segment from the source text
//! (`'src`); only string literals are owned, because the lexer unescapes
//! them. A `String` is made only where the [`crate::Database`] keeps a
//! name, so neither building nor dropping a tree allocates per identifier.
//! The segments of every dotted path in a file sit back to back in one
//! arena, [`File::segments`], and a [`Path`] is a range of it; parameter
//! lists share [`File::params`] the same way. So no path or parameter
//! list costs a heap block of its own either.

use crate::CmpOp;

/// A compilation unit: `using` directives followed by namespace declarations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct File<'src> {
    /// Imported namespaces.
    pub usings: Vec<Path>,
    /// Namespace blocks.
    pub namespaces: Vec<NsDecl<'src>>,
    /// The segments of every path in the file, in source order.
    pub segments: Vec<&'src str>,
    /// The `(type, name)` parameters of every method in the file, in
    /// source order.
    pub params: Vec<(TypeRef, &'src str)>,
    /// The source text the tree borrows from.
    pub source: &'src str,
}

impl<'src> File<'src> {
    /// The segments of one of this file's paths.
    pub fn path(&self, path: Path) -> &[&'src str] {
        &self.segments[path.start as usize..][..path.len as usize]
    }

    /// One of this file's parameter lists.
    pub fn params(&self, list: ParamList) -> &[(TypeRef, &'src str)] {
        &self.params[list.start as usize..][..list.len as usize]
    }

    /// A path's text as written, when that is exactly its segments
    /// joined by dots (no space or comment between them), so that equal
    /// texts are equal paths.
    pub fn dotted(&self, path: Path) -> Option<&'src str> {
        let segments = self.path(path);
        if let [only] = segments {
            return Some(only);
        }
        let (first, last) = (segments.first()?, segments.last()?);
        let offset = |s: &str| (s.as_ptr() as usize).checked_sub(self.source.as_ptr() as usize);
        let text = self
            .source
            .get(offset(first)?..offset(last)? + last.len())?;
        let joined = segments.iter().map(|s| s.len() + 1).sum::<usize>() - 1;
        (text.len() == joined).then_some(text)
    }
}

/// A dotted path: a range of its file's [`File::segments`], never empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Path {
    /// Index of the first segment.
    pub start: u32,
    /// Number of segments.
    pub len: u32,
}

/// A method's parameters: a range of its file's [`File::params`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamList {
    /// Index of the first parameter.
    pub start: u32,
    /// Number of parameters.
    pub len: u32,
}

/// A `namespace A.B { ... }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct NsDecl<'src> {
    /// The namespace's path.
    pub path: Path,
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
    pub bases: Vec<TypeRef>,
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TypeRef {
    /// The path; a single segment may also be a primitive keyword.
    pub path: Path,
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
        ty: TypeRef,
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
        ret: Option<TypeRef>,
        /// Method name.
        name: &'src str,
        /// `(type, name)` parameter list.
        params: ParamList,
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
        ty: Option<TypeRef>,
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
