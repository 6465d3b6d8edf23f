//! Recursive-descent parser for the mini-C# language.

use std::collections::VecDeque;

use crate::CmpOp;

use super::ast::{
    Expr, File, MemberDecl, NsDecl, ParamList, Path, Stmt, TypeDecl, TypeDeclKind, TypeRef,
};
use super::lexer::{Kw, Lexer, Token, TokenKind};
use super::{MiniCsError, MiniCsResult};

/// Parses a compilation unit.
///
/// # Errors
///
/// Returns the first lexical error in the text if there is one, else the
/// first syntactic error, with its position.
pub(super) fn parse(source: &str) -> MiniCsResult<File<'_>> {
    let mut lexer = Lexer::new(source);
    let mut lex_error = None;
    let first = lex(&mut lexer, &mut lex_error);
    let mut parser = Parser {
        lexer,
        current: first,
        ahead: VecDeque::new(),
        lex_error,
        depth: 0,
        file: File {
            source,
            ..File::default()
        },
    };
    let parsed = parser.unit();
    // Tokens are lexed as the parser reads them, but a lexical error
    // anywhere in the text outranks a syntax error before it.
    parser.lex_rest()?;
    parsed.map(|()| parser.file)
}

/// An arena index or length as stored in the tree.
fn index(n: usize) -> u32 {
    u32::try_from(n).expect("a file holds under 2^32 path segments and parameters")
}

/// The lexer's next token. A lexical error is kept in `error` and read as
/// the end of the text from there on.
fn lex<'a>(lexer: &mut Lexer<'a>, error: &mut Option<MiniCsError>) -> Token<'a> {
    match lexer.next_token() {
        Ok(token) => token,
        Err(e) => {
            let end = Token {
                kind: TokenKind::Eof,
                line: e.line,
                col: e.col,
            };
            *error = Some(e);
            end
        }
    }
}

/// Nesting bound for the recursive productions (expressions, member and
/// invoke chains, `if`/`while` blocks). Every later stage — resolution,
/// printing, dropping the tree — recurses over the same shape, so deeper
/// input is rejected here rather than risking a stack overflow.
const MAX_DEPTH: usize = 128;

/// A source position: 1-based line and column.
type Pos = (u32, u32);

struct Parser<'a> {
    lexer: Lexer<'a>,
    current: Token<'a>,
    /// Tokens after the current one, lexed for lookahead. Nothing is
    /// lexed past an [`TokenKind::Eof`].
    ahead: VecDeque<Token<'a>>,
    /// The lexical error that ended the token stream, if one did.
    lex_error: Option<MiniCsError>,
    /// Current nesting of the recursive productions (see [`MAX_DEPTH`]).
    depth: usize,
    /// The tree so far; its arenas fill as paths and parameters parse.
    file: File<'a>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.current
    }

    /// The token `k` places after the current one (`Eof` past the end).
    fn nth(&mut self, k: usize) -> &Token<'a> {
        while self.ahead.len() < k && !self.at_end_of_stream() {
            let token = lex(&mut self.lexer, &mut self.lex_error);
            self.ahead.push_back(token);
        }
        match k.min(self.ahead.len()) {
            0 => &self.current,
            k => &self.ahead[k - 1],
        }
    }

    fn at_end_of_stream(&self) -> bool {
        self.ahead.back().unwrap_or(&self.current).kind == TokenKind::Eof
    }

    /// The first lexical error in the text, lexing what the parser left.
    fn lex_rest(&mut self) -> MiniCsResult<()> {
        while !self.at_end_of_stream() {
            let token = lex(&mut self.lexer, &mut self.lex_error);
            self.ahead.push_back(token);
        }
        self.lex_error.take().map_or(Ok(()), Err)
    }

    fn peek_kind(&self) -> &TokenKind<'a> {
        &self.peek().kind
    }

    fn peek_pos(&self) -> Pos {
        let t = self.peek();
        (t.line, t.col)
    }

    /// Consumes the current token, returning its position.
    fn bump(&mut self) -> Pos {
        let pos = self.peek_pos();
        if let Some(next) = self.ahead.pop_front() {
            self.current = next;
        } else if self.current.kind != TokenKind::Eof {
            self.current = lex(&mut self.lexer, &mut self.lex_error);
        }
        pos
    }

    /// Enters one level of nesting, failing cleanly past [`MAX_DEPTH`].
    fn enter(&mut self) -> MiniCsResult<()> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err_here(format!("input nests deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        Ok(())
    }

    /// Runs a production that may [`Parser::enter`] nesting levels and
    /// restores the depth it started at. An error aborts the whole parse,
    /// so only success needs restoring.
    fn nested<T>(
        &mut self,
        production: impl FnOnce(&mut Self) -> MiniCsResult<T>,
    ) -> MiniCsResult<T> {
        let outer = self.depth;
        let result = production(self)?;
        self.depth = outer;
        Ok(result)
    }

    fn err_here(&self, msg: impl Into<String>) -> MiniCsError {
        let t = self.peek();
        MiniCsError::new(t.line, t.col, msg)
    }

    fn expect(&mut self, kind: &TokenKind<'_>, what: &str) -> MiniCsResult<Pos> {
        if self.peek_kind() == kind {
            Ok(self.bump())
        } else {
            Err(self.err_here(format!("expected {what}, found {:?}", self.peek_kind())))
        }
    }

    fn eat(&mut self, kind: &TokenKind<'_>) -> bool {
        if self.peek_kind() == kind {
            self.bump();
            true
        } else {
            false
        }
    }

    fn ident(&mut self, what: &str) -> MiniCsResult<(&'a str, u32, u32)> {
        match *self.peek_kind() {
            TokenKind::Ident(w) => {
                let (line, col) = self.bump();
                Ok((w.text, line, col))
            }
            ref other => Err(self.err_here(format!("expected {what}, found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: Kw) -> bool {
        self.peek_kind().kw() == Some(kw)
    }

    fn eat_keyword(&mut self, kw: Kw) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    /// Parses a dotted path into the file's segment arena.
    fn dotted_path(&mut self, what: &str) -> MiniCsResult<Path> {
        let start = self.file.segments.len();
        let first = self.ident(what)?.0;
        self.file.segments.push(first);
        while self.eat(&TokenKind::Dot) {
            let seg = self.ident("path segment")?.0;
            self.file.segments.push(seg);
        }
        Ok(Path {
            start: index(start),
            len: index(self.file.segments.len() - start),
        })
    }

    /// The compilation unit, parsed into `self.file`.
    fn unit(&mut self) -> MiniCsResult<()> {
        while self.eat_keyword(Kw::Using) {
            let using = self.dotted_path("namespace name")?;
            self.file.usings.push(using);
            self.expect(&TokenKind::Semi, "`;`")?;
        }
        while !matches!(self.peek_kind(), TokenKind::Eof) {
            if !self.at_keyword(Kw::Namespace) {
                return Err(self.err_here("expected `namespace`"));
            }
            self.bump();
            let path = self.dotted_path("namespace name")?;
            self.expect(&TokenKind::LBrace, "`{`")?;
            let mut types = Vec::new();
            while !self.eat(&TokenKind::RBrace) {
                types.push(self.type_decl()?);
            }
            self.file.namespaces.push(NsDecl { path, types });
        }
        Ok(())
    }

    fn type_ref(&mut self) -> MiniCsResult<TypeRef> {
        let (line, col) = self.peek_pos();
        let path = self.dotted_path("type name")?;
        Ok(TypeRef { path, line, col })
    }

    fn type_decl(&mut self) -> MiniCsResult<TypeDecl<'a>> {
        let mut comparable = false;
        while self.eat(&TokenKind::LBracket) {
            let (attr, line, col) = self.ident("attribute name")?;
            match attr {
                "Comparable" => comparable = true,
                other => {
                    return Err(MiniCsError::new(
                        line,
                        col,
                        format!("unknown attribute `{other}`"),
                    ))
                }
            }
            self.expect(&TokenKind::RBracket, "`]`")?;
        }
        // `public` on types is accepted and ignored (everything is public).
        self.eat_keyword(Kw::Public);
        let (line, col) = self.peek_pos();
        let kind = match self.peek_kind().kw() {
            Some(Kw::Class) => TypeDeclKind::Class,
            Some(Kw::Struct) => TypeDeclKind::Struct,
            Some(Kw::Interface) => TypeDeclKind::Interface,
            Some(Kw::Enum) => TypeDeclKind::Enum,
            _ => return Err(self.err_here("expected `class`, `struct`, `interface` or `enum`")),
        };
        self.bump();
        let (name, ..) = self.ident("type name")?;
        let mut decl = TypeDecl {
            kind,
            name,
            bases: Vec::new(),
            members: Vec::new(),
            enum_members: Vec::new(),
            comparable,
            line,
            col,
        };
        if decl.kind == TypeDeclKind::Enum {
            self.expect(&TokenKind::LBrace, "`{`")?;
            if !self.eat(&TokenKind::RBrace) {
                loop {
                    decl.enum_members.push(self.ident("enum member")?.0);
                    if self.eat(&TokenKind::Comma) {
                        if self.eat(&TokenKind::RBrace) {
                            break; // trailing comma
                        }
                        continue;
                    }
                    self.expect(&TokenKind::RBrace, "`}`")?;
                    break;
                }
            }
            return Ok(decl);
        }
        if self.eat(&TokenKind::Colon) {
            decl.bases.push(self.type_ref()?);
            while self.eat(&TokenKind::Comma) {
                decl.bases.push(self.type_ref()?);
            }
        }
        self.expect(&TokenKind::LBrace, "`{`")?;
        while !self.eat(&TokenKind::RBrace) {
            decl.members.push(self.member_decl(decl.kind)?);
        }
        Ok(decl)
    }

    fn member_decl(&mut self, owner: TypeDeclKind) -> MiniCsResult<MemberDecl<'a>> {
        let mut is_static = false;
        let mut is_private = false;
        loop {
            match self.peek_kind().kw() {
                Some(Kw::Static) => is_static = true,
                Some(Kw::Private) => is_private = true,
                Some(Kw::Public) => {} // accepted and ignored
                _ => break,
            }
            self.bump();
        }
        let is_void = self.eat_keyword(Kw::Void);
        let ret = if is_void {
            None
        } else {
            Some(self.type_ref()?)
        };
        let (name, line, col) = self.ident("member name")?;
        match self.peek_kind() {
            TokenKind::LParen => {
                self.bump();
                let start = self.file.params.len();
                if !self.eat(&TokenKind::RParen) {
                    loop {
                        let pty = self.type_ref()?;
                        let (pname, ..) = self.ident("parameter name")?;
                        self.file.params.push((pty, pname));
                        if self.eat(&TokenKind::Comma) {
                            continue;
                        }
                        self.expect(&TokenKind::RParen, "`)`")?;
                        break;
                    }
                }
                let params = ParamList {
                    start: index(start),
                    len: index(self.file.params.len() - start),
                };
                let body = if self.eat(&TokenKind::Semi) {
                    None
                } else {
                    self.expect(&TokenKind::LBrace, "`{` or `;`")?;
                    let mut stmts = Vec::new();
                    while !self.eat(&TokenKind::RBrace) {
                        stmts.push(self.stmt()?);
                    }
                    Some(stmts)
                };
                Ok(MemberDecl::Method {
                    is_static,
                    ret,
                    name,
                    params,
                    body,
                    is_private,
                })
            }
            TokenKind::Semi | TokenKind::LBrace => {
                let ty = match ret {
                    Some(t) => t,
                    None => {
                        return Err(MiniCsError::new(
                            line,
                            col,
                            "fields cannot have type `void`",
                        ))
                    }
                };
                if owner == TypeDeclKind::Interface {
                    return Err(MiniCsError::new(
                        line,
                        col,
                        "interfaces cannot declare fields",
                    ));
                }
                let is_property = if self.eat(&TokenKind::Semi) {
                    false
                } else {
                    self.bump(); // `{`
                    if !self.eat_keyword(Kw::Get) {
                        return Err(self.err_here("expected `get` in property accessor list"));
                    }
                    self.expect(&TokenKind::Semi, "`;`")?;
                    if self.eat_keyword(Kw::Set) {
                        self.expect(&TokenKind::Semi, "`;`")?;
                    }
                    self.expect(&TokenKind::RBrace, "`}`")?;
                    true
                };
                Ok(MemberDecl::Field {
                    is_static,
                    ty,
                    name,
                    is_property,
                    is_private,
                })
            }
            other => Err(self.err_here(format!("expected `(`, `;` or `{{`, found {other:?}"))),
        }
    }

    /// Lookahead test: does a local-variable declaration start here?
    /// Matches `var name =` and `Dotted.Type name =`.
    fn at_local_decl(&mut self) -> bool {
        let is_ident = |p: &mut Self, k: usize| p.nth(k).kind.ident().is_some();
        let is_assign = |p: &mut Self, k: usize| p.nth(k).kind == TokenKind::Assign;
        if !is_ident(self, 0) {
            return false;
        }
        match self.peek_kind().kw() {
            Some(Kw::Var) => return is_ident(self, 1) && is_assign(self, 2),
            Some(
                Kw::This
                | Kw::Return
                | Kw::True
                | Kw::False
                | Kw::Null
                | Kw::If
                | Kw::While
                | Kw::Else,
            ) => return false,
            _ => {}
        }
        let mut k = 1;
        while self.nth(k).kind == TokenKind::Dot {
            if !is_ident(self, k + 1) {
                return false;
            }
            k += 2;
        }
        is_ident(self, k) && is_assign(self, k + 1)
    }

    fn block(&mut self) -> MiniCsResult<Vec<Stmt<'a>>> {
        self.expect(&TokenKind::LBrace, "`{`")?;
        self.nested(|p| {
            p.enter()?;
            let mut stmts = Vec::new();
            while !p.eat(&TokenKind::RBrace) {
                stmts.push(p.stmt()?);
            }
            Ok(stmts)
        })
    }

    fn stmt(&mut self) -> MiniCsResult<Stmt<'a>> {
        if self.at_keyword(Kw::If) {
            let (line, col) = self.bump();
            self.expect(&TokenKind::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            let then_body = self.block()?;
            let else_body = if self.eat_keyword(Kw::Else) {
                self.block()?
            } else {
                Vec::new()
            };
            return Ok(Stmt::If {
                cond,
                then_body,
                else_body,
                line,
                col,
            });
        }
        if self.at_keyword(Kw::While) {
            let (line, col) = self.bump();
            self.expect(&TokenKind::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            let body = self.block()?;
            return Ok(Stmt::While {
                cond,
                body,
                line,
                col,
            });
        }
        if self.at_keyword(Kw::Return) {
            let (line, col) = self.bump();
            if self.eat(&TokenKind::Semi) {
                return Ok(Stmt::Return(None, line, col));
            }
            let e = self.expr()?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(Stmt::Return(Some(e), line, col));
        }
        if self.at_local_decl() {
            let (line, col) = self.peek_pos();
            let ty = if self.eat_keyword(Kw::Var) {
                None
            } else {
                Some(self.type_ref()?)
            };
            let (name, ..) = self.ident("local name")?;
            self.expect(&TokenKind::Assign, "`=`")?;
            let init = self.expr()?;
            self.expect(&TokenKind::Semi, "`;`")?;
            return Ok(Stmt::Local {
                ty,
                name,
                init,
                line,
                col,
            });
        }
        let e = self.expr()?;
        self.expect(&TokenKind::Semi, "`;`")?;
        Ok(Stmt::Expr(e))
    }

    fn expr(&mut self) -> MiniCsResult<Expr<'a>> {
        self.nested(|p| {
            p.enter()?;
            p.assign_expr()
        })
    }

    fn assign_expr(&mut self) -> MiniCsResult<Expr<'a>> {
        let lhs = self.cmp_expr()?;
        if self.eat(&TokenKind::Assign) {
            let rhs = self.expr()?; // right-associative
            return Ok(Expr::Assign(Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> MiniCsResult<Expr<'a>> {
        let lhs = self.postfix()?;
        let op = match self.peek_kind() {
            TokenKind::Lt => Some(CmpOp::Lt),
            TokenKind::Le => Some(CmpOp::Le),
            TokenKind::Gt => Some(CmpOp::Gt),
            TokenKind::Ge => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let rhs = self.postfix()?;
            return Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)));
        }
        Ok(lhs)
    }

    /// A primary followed by `.name` and `(args)` links. Each link nests
    /// the tree one level deeper, so each counts toward [`MAX_DEPTH`] —
    /// including for the arguments parsed inside the chain.
    fn postfix(&mut self) -> MiniCsResult<Expr<'a>> {
        self.nested(Self::postfix_links)
    }

    fn postfix_links(&mut self) -> MiniCsResult<Expr<'a>> {
        let mut e = self.primary()?;
        loop {
            match self.peek_kind() {
                TokenKind::Dot => {
                    self.enter()?;
                    self.bump();
                    let (name, line, col) = self.ident("member name")?;
                    e = Expr::Member(Box::new(e), name, line, col);
                }
                TokenKind::LParen => {
                    self.enter()?;
                    let (line, col) = self.bump();
                    let mut args = Vec::new();
                    if !self.eat(&TokenKind::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if self.eat(&TokenKind::Comma) {
                                continue;
                            }
                            self.expect(&TokenKind::RParen, "`)`")?;
                            break;
                        }
                    }
                    e = Expr::Invoke(Box::new(e), args, line, col);
                }
                _ => return Ok(e),
            }
        }
    }

    fn primary(&mut self) -> MiniCsResult<Expr<'a>> {
        let (line, col) = self.peek_pos();
        match &mut self.current.kind {
            &mut TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            &mut TokenKind::Double(v) => {
                self.bump();
                Ok(Expr::Double(v))
            }
            TokenKind::Str(s) => {
                // The parser never looks back at a consumed token.
                let s = std::mem::take(s).into_string();
                self.bump();
                Ok(Expr::Str(s))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            &mut TokenKind::Ident(w) => {
                self.bump();
                Ok(match w.kw {
                    Some(Kw::This) => Expr::This(line, col),
                    Some(Kw::True) => Expr::Bool(true),
                    Some(Kw::False) => Expr::Bool(false),
                    Some(Kw::Null) => Expr::Null(line, col),
                    _ => Expr::Ident(w.text, line, col),
                })
            }
            other => {
                let msg = format!("expected an expression, found {other:?}");
                Err(self.err_here(msg))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_namespaces_and_types() {
        let f = parse(
            r#"
            using System;
            namespace A.B {
                class C : Base, IFace {
                    int X;
                    static string Name { get; set; }
                    void M(int a, C other) { return; }
                    C Clone();
                }
                enum E { Red, Green, Blue, }
                [Comparable] struct DateTime { }
            }
            "#,
        )
        .unwrap();
        assert_eq!(f.usings.len(), 1);
        assert_eq!(f.path(f.usings[0]), ["System"]);
        let ns = &f.namespaces[0];
        assert_eq!(f.path(ns.path), ["A", "B"]);
        assert_eq!(ns.types.len(), 3);
        let c = &ns.types[0];
        assert_eq!(c.kind, TypeDeclKind::Class);
        assert_eq!(c.bases.len(), 2);
        assert_eq!(c.members.len(), 4);
        assert!(matches!(
            &c.members[1],
            MemberDecl::Field {
                is_property: true,
                is_static: true,
                ..
            }
        ));
        assert!(matches!(
            &c.members[3],
            MemberDecl::Method { body: None, .. }
        ));
        let e = &ns.types[1];
        assert_eq!(e.enum_members, vec!["Red", "Green", "Blue"]);
        assert!(ns.types[2].comparable);
    }

    #[test]
    fn local_decl_vs_expression_lookahead() {
        let f = parse(
            r#"
            namespace N {
                class C {
                    C F;
                    void M(C a) {
                        C x = a;
                        var y = a.F;
                        a.F = x;
                        A.B.D z = a;
                    }
                }
            }
            "#,
        )
        .unwrap();
        let MemberDecl::Method {
            body: Some(stmts), ..
        } = &f.namespaces[0].types[0].members[1]
        else {
            panic!("expected method");
        };
        assert!(matches!(
            &stmts[0],
            Stmt::Local {
                ty: Some(_),
                name: "x",
                ..
            }
        ));
        assert!(matches!(
            &stmts[1],
            Stmt::Local {
                ty: None,
                name: "y",
                ..
            }
        ));
        assert!(matches!(&stmts[2], Stmt::Expr(Expr::Assign(..))));
        assert!(
            matches!(&stmts[3], Stmt::Local { ty: Some(tr), .. } if f.path(tr.path) == ["A", "B", "D"])
        );
    }

    #[test]
    fn expression_shapes() {
        let f = parse(
            r#"
            namespace N {
                class C {
                    void M() {
                        Helper.Go(this.X, p.Distance(q));
                        p.X >= this.Center.X;
                    }
                }
            }
            "#,
        )
        .unwrap();
        let MemberDecl::Method {
            body: Some(stmts), ..
        } = &f.namespaces[0].types[0].members[0]
        else {
            panic!("expected method");
        };
        assert!(matches!(&stmts[0], Stmt::Expr(Expr::Invoke(..))));
        assert!(matches!(&stmts[1], Stmt::Expr(Expr::Cmp(CmpOp::Ge, ..))));
    }

    /// A method body around `stmt`, with a field `F` of the class's own
    /// type so member chains of any length resolve.
    fn in_body(stmt: &str) -> String {
        format!("namespace N {{ class C {{ C F; int G(int x) {{ return x; }} void M(int v) {{ {stmt} }} }} }}")
    }

    #[test]
    fn over_deep_input_fails_cleanly() {
        let n = 100_000;
        let parens = in_body(&format!("{}v{};", "(".repeat(n), ")".repeat(n)));
        let chain = in_body(&format!("this{};", ".F".repeat(n)));
        let calls = in_body(&format!("{}v{};", "this.G(".repeat(n), ")".repeat(n)));
        let assigns = in_body(&format!("{}v;", "v = ".repeat(n)));
        let blocks = in_body(&format!("{}{}", "while (true) { ".repeat(n), "}".repeat(n)));
        for (what, src) in [
            ("parentheses", parens),
            ("member chain", chain),
            ("call arguments", calls),
            ("assignments", assigns),
            ("blocks", blocks),
        ] {
            let err = super::super::compile(&src).expect_err(what);
            assert!(err.msg.contains("nests deeper than 128"), "{what}: {err}");
        }
    }

    #[test]
    fn nesting_within_the_cap_compiles() {
        let n = 40;
        for stmt in [
            format!("{}v{};", "(".repeat(n), ")".repeat(n)),
            format!("this{}.G(v);", ".F".repeat(n)),
            format!("{}v{};", "this.G(".repeat(n), ")".repeat(n)),
            format!("{}v;", "v = ".repeat(n)),
            format!("{}{}", "while (true) { ".repeat(n), "}".repeat(n)),
        ] {
            super::super::compile(&in_body(&stmt)).unwrap_or_else(|e| panic!("{stmt}: {e}"));
        }
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("class C {}").is_err()); // missing namespace
        assert!(parse("namespace N { class C { void M() { return } } }").is_err());
        assert!(parse("namespace N { interface I { int X; } }").is_err());
        assert!(parse("namespace N { class C { void X; } }").is_err());
    }
}
