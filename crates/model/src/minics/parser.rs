//! Recursive-descent parser for the mini-C# language.

use crate::CmpOp;

use super::ast::{Expr, File, MemberDecl, NsDecl, Stmt, TypeDecl, TypeDeclKind, TypeRef};
use super::lexer::{Lexer, Token, TokenKind};
use super::{MiniCsError, MiniCsResult};

/// Parses a compilation unit.
///
/// # Errors
///
/// Returns the first lexical or syntactic error with its position.
pub(super) fn parse(source: &str) -> MiniCsResult<File<'_>> {
    let tokens = Lexer::tokenize(source)?;
    Parser {
        tokens,
        pos: 0,
        depth: 0,
    }
    .file()
}

/// Nesting bound for the recursive productions (expressions, member and
/// invoke chains, `if`/`while` blocks). Every later stage — resolution,
/// printing, dropping the tree — recurses over the same shape, so deeper
/// input is rejected here rather than risking a stack overflow.
const MAX_DEPTH: usize = 128;

/// A source position: 1-based line and column.
type Pos = (u32, u32);

struct Parser<'a> {
    tokens: Vec<Token<'a>>,
    pos: usize,
    /// Current nesting of the recursive productions (see [`MAX_DEPTH`]).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Token<'a> {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
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
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
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
            TokenKind::Ident(s) => {
                let (line, col) = self.bump();
                Ok((s, line, col))
            }
            ref other => Err(self.err_here(format!("expected {what}, found {other:?}"))),
        }
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(self.peek_kind(), TokenKind::Ident(s) if *s == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn dotted_path(&mut self, what: &str) -> MiniCsResult<Vec<&'a str>> {
        let mut segs = vec![self.ident(what)?.0];
        while self.eat(&TokenKind::Dot) {
            segs.push(self.ident("path segment")?.0);
        }
        Ok(segs)
    }

    fn file(&mut self) -> MiniCsResult<File<'a>> {
        let mut file = File::default();
        while self.eat_keyword("using") {
            file.usings.push(self.dotted_path("namespace name")?);
            self.expect(&TokenKind::Semi, "`;`")?;
        }
        while !matches!(self.peek_kind(), TokenKind::Eof) {
            if !self.at_keyword("namespace") {
                return Err(self.err_here("expected `namespace`"));
            }
            self.bump();
            let path = self.dotted_path("namespace name")?;
            self.expect(&TokenKind::LBrace, "`{`")?;
            let mut types = Vec::new();
            while !self.eat(&TokenKind::RBrace) {
                types.push(self.type_decl()?);
            }
            file.namespaces.push(NsDecl { path, types });
        }
        Ok(file)
    }

    fn type_ref(&mut self) -> MiniCsResult<TypeRef<'a>> {
        let (line, col) = self.peek_pos();
        let segments = self.dotted_path("type name")?;
        Ok(TypeRef {
            segments,
            line,
            col,
        })
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
        self.eat_keyword("public");
        let (line, col) = self.peek_pos();
        let kind = if self.eat_keyword("class") {
            TypeDeclKind::Class
        } else if self.eat_keyword("struct") {
            TypeDeclKind::Struct
        } else if self.eat_keyword("interface") {
            TypeDeclKind::Interface
        } else if self.eat_keyword("enum") {
            TypeDeclKind::Enum
        } else {
            return Err(self.err_here("expected `class`, `struct`, `interface` or `enum`"));
        };
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
            if self.eat_keyword("static") {
                is_static = true;
            } else if self.eat_keyword("private") {
                is_private = true;
            } else if self.eat_keyword("public") {
                // accepted and ignored
            } else {
                break;
            }
        }
        let is_void = self.eat_keyword("void");
        let ret = if is_void {
            None
        } else {
            Some(self.type_ref()?)
        };
        let (name, line, col) = self.ident("member name")?;
        match self.peek_kind() {
            TokenKind::LParen => {
                self.bump();
                let mut params = Vec::new();
                if !self.eat(&TokenKind::RParen) {
                    loop {
                        let pty = self.type_ref()?;
                        let (pname, ..) = self.ident("parameter name")?;
                        params.push((pty, pname));
                        if self.eat(&TokenKind::Comma) {
                            continue;
                        }
                        self.expect(&TokenKind::RParen, "`)`")?;
                        break;
                    }
                }
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
                    if !self.eat_keyword("get") {
                        return Err(self.err_here("expected `get` in property accessor list"));
                    }
                    self.expect(&TokenKind::Semi, "`;`")?;
                    if self.eat_keyword("set") {
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
    fn at_local_decl(&self) -> bool {
        let mut i = self.pos;
        let ident_at = |i: usize| self.tokens.get(i)?.kind.ident();
        let Some(first) = ident_at(i) else {
            return false;
        };
        if first == "var" {
            return ident_at(i + 1).is_some()
                && matches!(
                    self.tokens.get(i + 2).map(|t| &t.kind),
                    Some(TokenKind::Assign)
                );
        }
        if matches!(
            first,
            "this" | "return" | "true" | "false" | "null" | "if" | "while" | "else"
        ) {
            return false;
        }
        i += 1;
        while matches!(self.tokens.get(i).map(|t| &t.kind), Some(TokenKind::Dot)) {
            if ident_at(i + 1).is_none() {
                return false;
            }
            i += 2;
        }
        ident_at(i).is_some()
            && matches!(
                self.tokens.get(i + 1).map(|t| &t.kind),
                Some(TokenKind::Assign)
            )
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
        if self.at_keyword("if") {
            let (line, col) = self.bump();
            self.expect(&TokenKind::LParen, "`(`")?;
            let cond = self.expr()?;
            self.expect(&TokenKind::RParen, "`)`")?;
            let then_body = self.block()?;
            let else_body = if self.eat_keyword("else") {
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
        if self.at_keyword("while") {
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
        if self.at_keyword("return") {
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
            let ty = if self.at_keyword("var") {
                self.bump();
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
        match self.peek_kind() {
            &TokenKind::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            &TokenKind::Double(v) => {
                self.bump();
                Ok(Expr::Double(v))
            }
            TokenKind::Str(s) => {
                let s = s.clone();
                self.bump();
                Ok(Expr::Str(s))
            }
            TokenKind::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&TokenKind::RParen, "`)`")?;
                Ok(e)
            }
            &TokenKind::Ident(s) => match s {
                "this" => {
                    self.bump();
                    Ok(Expr::This(line, col))
                }
                "true" => {
                    self.bump();
                    Ok(Expr::Bool(true))
                }
                "false" => {
                    self.bump();
                    Ok(Expr::Bool(false))
                }
                "null" => {
                    self.bump();
                    Ok(Expr::Null(line, col))
                }
                _ => {
                    self.bump();
                    Ok(Expr::Ident(s, line, col))
                }
            },
            other => Err(self.err_here(format!("expected an expression, found {other:?}"))),
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
        assert_eq!(f.usings, vec![vec!["System"]]);
        let ns = &f.namespaces[0];
        assert_eq!(ns.path, vec!["A", "B"]);
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
            matches!(&stmts[3], Stmt::Local { ty: Some(tr), .. } if tr.segments == ["A", "B", "D"])
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
