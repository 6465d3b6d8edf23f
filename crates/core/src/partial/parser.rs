//! Parser for the partial-expression surface syntax.
//!
//! The grammar is the paper's Figure 5(b) with the concrete spellings used
//! throughout the paper's examples:
//!
//! ```text
//! query    ::= operand ((':=' | '=') operand | cmpop operand)?
//! operand  ::= '?' '(' '{' operand,* '}' ')'        unknown-method call
//!            | postfix
//! postfix  ::= primary suffix*
//! suffix   ::= '.?f' | '.?*f' | '.?m' | '.?*m'
//!            | '.' ident | '.' ident '(' operand,* ')' | '(' operand,* ')'
//! primary  ::= '?' | '0' | literal | 'this' | ident
//! ```
//!
//! Known names are resolved against the query's [`Context`] and [`Database`]
//! with C#-style simple-name resolution (local → member of enclosing type →
//! type → namespace root).

use std::error::Error;
use std::fmt;

use pex_model::{CmpOp, Context, Database, Expr, MethodId, ValueTy};
use pex_types::{PrimKind, TypeId};

use super::{PartialExpr, SuffixKind};

/// A parse or resolution error, with a character offset into the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 0-based character offset of the error.
    pub at: usize,
    /// Human-readable description.
    pub msg: String,
}

impl ParseError {
    fn new(at: usize, msg: impl Into<String>) -> Self {
        ParseError {
            at,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at offset {}: {}", self.at, self.msg)
    }
}

impl Error for ParseError {}

/// Parses a partial-expression query in the given code context.
///
/// # Errors
///
/// Returns a [`ParseError`] on malformed syntax or on names that do not
/// resolve in the context.
pub fn parse_partial(db: &Database, ctx: &Context, query: &str) -> Result<PartialExpr, ParseError> {
    let toks = lex(query)?;
    let mut p = Parser {
        db,
        ctx,
        toks,
        pos: 0,
        depth: 0,
    };
    let pe = p.query()?;
    p.expect_eof()?;
    Ok(pe)
}

/// Nesting bound for recursive productions: queries are single expressions,
/// so anything deeper is adversarial input, rejected rather than risking a
/// stack overflow.
const MAX_DEPTH: usize = 128;

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Double(f64),
    Str(String),
    Question,
    Star,
    Dot,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
    AssignOp,
    Cmp(CmpOp),
    Eof,
}

fn lex(src: &str) -> Result<Vec<(Tok, usize)>, ParseError> {
    let chars: Vec<char> = src.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        let at = i;
        match c {
            c if c.is_whitespace() => {
                i += 1;
                continue;
            }
            '?' => {
                out.push((Tok::Question, at));
                i += 1;
            }
            '*' => {
                out.push((Tok::Star, at));
                i += 1;
            }
            '.' => {
                out.push((Tok::Dot, at));
                i += 1;
            }
            '(' => {
                out.push((Tok::LParen, at));
                i += 1;
            }
            ')' => {
                out.push((Tok::RParen, at));
                i += 1;
            }
            '{' => {
                out.push((Tok::LBrace, at));
                i += 1;
            }
            '}' => {
                out.push((Tok::RBrace, at));
                i += 1;
            }
            ',' => {
                out.push((Tok::Comma, at));
                i += 1;
            }
            ':' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push((Tok::AssignOp, at));
                    i += 2;
                } else {
                    return Err(ParseError::new(at, "expected `:=`"));
                }
            }
            '=' => {
                out.push((Tok::AssignOp, at));
                i += 1;
            }
            '<' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push((Tok::Cmp(CmpOp::Le), at));
                    i += 2;
                } else {
                    out.push((Tok::Cmp(CmpOp::Lt), at));
                    i += 1;
                }
            }
            '>' => {
                if chars.get(i + 1) == Some(&'=') {
                    out.push((Tok::Cmp(CmpOp::Ge), at));
                    i += 2;
                } else {
                    out.push((Tok::Cmp(CmpOp::Gt), at));
                    i += 1;
                }
            }
            '"' => {
                let mut s = String::new();
                i += 1;
                loop {
                    match chars.get(i) {
                        None => return Err(ParseError::new(at, "unterminated string literal")),
                        Some('"') => {
                            i += 1;
                            break;
                        }
                        Some(&c) => {
                            s.push(c);
                            i += 1;
                        }
                    }
                }
                out.push((Tok::Str(s), at));
            }
            c if c.is_ascii_digit() => {
                let start = i;
                while chars.get(i).is_some_and(|c| c.is_ascii_digit()) {
                    i += 1;
                }
                let mut is_double = false;
                if chars.get(i) == Some(&'.')
                    && chars.get(i + 1).is_some_and(|c| c.is_ascii_digit())
                {
                    is_double = true;
                    i += 1;
                    while chars.get(i).is_some_and(|c| c.is_ascii_digit()) {
                        i += 1;
                    }
                }
                let text: String = chars[start..i].iter().collect();
                if is_double {
                    out.push((
                        Tok::Double(text.parse().map_err(|_| ParseError::new(at, "bad float"))?),
                        at,
                    ));
                } else {
                    out.push((
                        Tok::Int(
                            text.parse()
                                .map_err(|_| ParseError::new(at, "bad integer"))?,
                        ),
                        at,
                    ));
                }
            }
            c if c.is_ascii_alphabetic() || c == '_' => {
                let start = i;
                while chars
                    .get(i)
                    .is_some_and(|c| c.is_ascii_alphanumeric() || *c == '_')
                {
                    i += 1;
                }
                out.push((Tok::Ident(chars[start..i].iter().collect()), at));
            }
            other => {
                return Err(ParseError::new(
                    at,
                    format!("unexpected character `{other}`"),
                ))
            }
        }
    }
    out.push((Tok::Eof, chars.len()));
    Ok(out)
}

/// Intermediate state of a dotted chain during resolution.
enum St {
    Value(Expr),
    Type(TypeId),
    Ns(Vec<String>),
    Part(PartialExpr),
}

struct Parser<'a> {
    db: &'a Database,
    ctx: &'a Context,
    toks: Vec<(Tok, usize)>,
    pos: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].0
    }

    fn at(&self) -> usize {
        self.toks[self.pos].1
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].0.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), ParseError> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(ParseError::new(self.at(), format!("expected {what}")))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if self.peek() == &Tok::Eof {
            Ok(())
        } else {
            Err(ParseError::new(self.at(), "unexpected trailing input"))
        }
    }

    fn query(&mut self) -> Result<PartialExpr, ParseError> {
        let lhs = self.operand()?;
        match self.peek().clone() {
            Tok::AssignOp => {
                self.bump();
                let rhs = self.operand()?;
                if let (PartialExpr::Known(l), PartialExpr::Known(r)) = (&lhs, &rhs) {
                    return Ok(PartialExpr::Known(Expr::assign(l.clone(), r.clone())));
                }
                Ok(PartialExpr::assign(lhs, rhs))
            }
            Tok::Cmp(op) => {
                self.bump();
                let rhs = self.operand()?;
                if let (PartialExpr::Known(l), PartialExpr::Known(r)) = (&lhs, &rhs) {
                    return Ok(PartialExpr::Known(Expr::cmp(op, l.clone(), r.clone())));
                }
                Ok(PartialExpr::cmp(op, lhs, rhs))
            }
            _ => Ok(lhs),
        }
    }

    fn operand(&mut self) -> Result<PartialExpr, ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(ParseError::new(self.at(), "query is nested too deeply"));
        }
        let result = self.operand_inner();
        self.depth -= 1;
        result
    }

    fn operand_inner(&mut self) -> Result<PartialExpr, ParseError> {
        // `?({...})` unknown-method call vs bare `?` hole.
        if self.peek() == &Tok::Question
            && self.toks.get(self.pos + 1).map(|t| &t.0) == Some(&Tok::LParen)
        {
            self.bump(); // ?
            self.bump(); // (
            self.expect(&Tok::LBrace, "`{`")?;
            let mut args = Vec::new();
            if !self.eat(&Tok::RBrace) {
                loop {
                    args.push(self.operand()?);
                    if self.eat(&Tok::Comma) {
                        continue;
                    }
                    self.expect(&Tok::RBrace, "`}`")?;
                    break;
                }
            }
            self.expect(&Tok::RParen, "`)`")?;
            return Ok(PartialExpr::UnknownCall(args));
        }
        let st = self.postfix()?;
        self.finish(st)
    }

    fn finish(&mut self, st: St) -> Result<PartialExpr, ParseError> {
        match st {
            St::Value(e) => Ok(PartialExpr::Known(e)),
            St::Part(p) => Ok(p),
            St::Type(t) => Err(ParseError::new(
                self.at(),
                format!(
                    "`{}` is a type, not a value",
                    self.db.types().qualified_name(t)
                ),
            )),
            St::Ns(path) => Err(ParseError::new(
                self.at(),
                format!("`{}` is a namespace, not a value", path.join(".")),
            )),
        }
    }

    fn postfix(&mut self) -> Result<St, ParseError> {
        let mut st = self.primary()?;
        loop {
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    st = self.suffix_after_dot(st)?;
                }
                Tok::LParen => {
                    // Call on a bare name is handled inside `primary`; a
                    // stray `(` on a value is an error.
                    return Err(ParseError::new(self.at(), "expression is not callable"));
                }
                _ => return Ok(st),
            }
        }
    }

    fn suffix_after_dot(&mut self, st: St) -> Result<St, ParseError> {
        let at = self.at();
        if self.eat(&Tok::Question) {
            // `.?f`, `.?*f`, `.?m`, `.?*m`
            let star = self.eat(&Tok::Star);
            let kind = match self.bump() {
                Tok::Ident(s) if s == "f" => {
                    if star {
                        SuffixKind::FieldStar
                    } else {
                        SuffixKind::Field
                    }
                }
                Tok::Ident(s) if s == "m" => {
                    if star {
                        SuffixKind::MethodStar
                    } else {
                        SuffixKind::Method
                    }
                }
                _ => return Err(ParseError::new(at, "expected `f` or `m` after `.?`")),
            };
            let base = match st {
                St::Value(e) => PartialExpr::Known(e),
                St::Part(p @ PartialExpr::Suffix(..)) => p,
                St::Part(_) => {
                    return Err(ParseError::new(
                        at,
                        "`.?` suffixes apply only to expressions and other `.?` suffixes",
                    ))
                }
                St::Type(_) | St::Ns(_) => {
                    return Err(ParseError::new(
                        at,
                        "`.?` suffixes apply only to expressions",
                    ))
                }
            };
            return Ok(St::Part(PartialExpr::suffix(base, kind)));
        }
        let name = match self.bump() {
            Tok::Ident(s) => s,
            _ => return Err(ParseError::new(at, "expected a member name after `.`")),
        };
        // A call?
        if self.peek() == &Tok::LParen {
            let args = self.call_args()?;
            return self.resolve_call(st, &name, args, at);
        }
        // Plain member access.
        match st {
            St::Value(e) => {
                let ty = self.value_type(&e, at)?;
                for owner in self.db.member_lookup_chain(ty) {
                    for &f in self.db.fields_of(owner) {
                        let fd = self.db.field(f);
                        if fd.name() == name
                            && !fd.is_static()
                            && self
                                .db
                                .accessible(fd.visibility(), owner, self.ctx.enclosing_type)
                        {
                            return Ok(St::Value(Expr::field(e, f)));
                        }
                    }
                }
                Err(ParseError::new(
                    at,
                    format!(
                        "type `{}` has no accessible instance field `{name}`",
                        self.db.types().qualified_name(ty)
                    ),
                ))
            }
            St::Type(t) => {
                for &f in self.db.fields_of(t) {
                    let fd = self.db.field(f);
                    if fd.name() == name
                        && fd.is_static()
                        && self
                            .db
                            .accessible(fd.visibility(), t, self.ctx.enclosing_type)
                    {
                        return Ok(St::Value(Expr::StaticField(f)));
                    }
                }
                Err(ParseError::new(
                    at,
                    format!(
                        "type `{}` has no accessible static field `{name}`",
                        self.db.types().qualified_name(t)
                    ),
                ))
            }
            St::Ns(mut path) => {
                if let Some(ns) = self.db.types().namespaces().lookup(&path) {
                    if let Some(ty) = self.db.types().lookup(ns, &name) {
                        return Ok(St::Type(ty));
                    }
                }
                path.push(name);
                if self.db.types().namespaces().is_prefix(&path) {
                    return Ok(St::Ns(path));
                }
                Err(ParseError::new(
                    at,
                    format!("unknown namespace or type `{}`", path.join(".")),
                ))
            }
            St::Part(_) => Err(ParseError::new(
                at,
                "cannot access a named member of a hole; use `.?f` / `.?m`",
            )),
        }
    }

    fn call_args(&mut self) -> Result<Vec<PartialExpr>, ParseError> {
        self.expect(&Tok::LParen, "`(`")?;
        let mut args = Vec::new();
        if !self.eat(&Tok::RParen) {
            loop {
                args.push(self.operand()?);
                if self.eat(&Tok::Comma) {
                    continue;
                }
                self.expect(&Tok::RParen, "`)`")?;
                break;
            }
        }
        Ok(args)
    }

    /// Resolves `st.name(args)` to a known-method call (collapsing to a
    /// concrete expression when the call is unambiguous and hole-free).
    fn resolve_call(
        &mut self,
        st: St,
        name: &str,
        args: Vec<PartialExpr>,
        at: usize,
    ) -> Result<St, ParseError> {
        let (candidates, full_args): (Vec<MethodId>, Vec<PartialExpr>) = match st {
            St::Value(recv) => {
                let ty = self.value_type(&recv, at)?;
                let mut cands = Vec::new();
                for owner in self.db.member_lookup_chain(ty) {
                    for &m in self.db.methods_of(owner) {
                        let md = self.db.method(m);
                        if md.name() == name
                            && !md.is_static()
                            && self
                                .db
                                .accessible(md.visibility(), owner, self.ctx.enclosing_type)
                        {
                            cands.push(m);
                        }
                    }
                }
                let mut full = vec![PartialExpr::Known(recv)];
                full.extend(args);
                (cands, full)
            }
            St::Type(t) => {
                let mut cands = Vec::new();
                for owner in self.db.member_lookup_chain(t) {
                    for &m in self.db.methods_of(owner) {
                        let md = self.db.method(m);
                        if md.name() == name
                            && md.is_static()
                            && self
                                .db
                                .accessible(md.visibility(), owner, self.ctx.enclosing_type)
                        {
                            cands.push(m);
                        }
                    }
                }
                (cands, args)
            }
            St::Ns(path) => {
                return Err(ParseError::new(
                    at,
                    format!("cannot call a method on namespace `{}`", path.join(".")),
                ))
            }
            St::Part(_) => return Err(ParseError::new(at, "cannot call a named method on a hole")),
        };
        self.build_known_call(candidates, full_args, name, at)
    }

    fn build_known_call(
        &mut self,
        candidates: Vec<MethodId>,
        args: Vec<PartialExpr>,
        name: &str,
        at: usize,
    ) -> Result<St, ParseError> {
        // Keep only candidates whose arity matches the written argument list.
        let arity = args.len();
        let candidates: Vec<MethodId> = candidates
            .into_iter()
            .filter(|m| self.db.method(*m).full_arity() == arity)
            .collect();
        if candidates.is_empty() {
            return Err(ParseError::new(
                at,
                format!("no accessible method `{name}` takes {arity} argument(s)"),
            ));
        }
        // Collapse to a concrete expression when hole-free and unambiguous.
        let all_known = args.iter().all(|a| matches!(a, PartialExpr::Known(_)));
        if all_known {
            let exprs: Vec<Expr> = args
                .iter()
                .map(|a| match a {
                    PartialExpr::Known(e) => e.clone(),
                    _ => unreachable!("all_known"),
                })
                .collect();
            let mut best: Option<(u32, MethodId)> = None;
            let mut ambiguous = false;
            for &m in &candidates {
                let call = Expr::Call(m, exprs.clone());
                if self.db.expr_ty(&call, self.ctx).is_ok() {
                    let cost: u32 = exprs
                        .iter()
                        .zip(self.db.method(m).full_param_types())
                        .map(|(e, want)| match self.db.expr_ty(e, self.ctx) {
                            Ok(ValueTy::Known(t)) => {
                                self.db.types().type_distance(t, want).unwrap_or(0)
                            }
                            _ => 0,
                        })
                        .sum();
                    match best {
                        Some((b, _)) if cost < b => best = Some((cost, m)),
                        Some((b, _)) if cost == b => ambiguous = true,
                        None => best = Some((cost, m)),
                        _ => {}
                    }
                }
            }
            if let (Some((_, m)), false) = (best, ambiguous) {
                return Ok(St::Value(Expr::Call(m, exprs)));
            }
        }
        Ok(St::Part(PartialExpr::KnownCall { candidates, args }))
    }

    fn value_type(&self, e: &Expr, at: usize) -> Result<TypeId, ParseError> {
        match self.db.expr_ty(e, self.ctx) {
            Ok(ValueTy::Known(t)) => Ok(t),
            Ok(ValueTy::Wildcard) => {
                Err(ParseError::new(at, "cannot access members of `null`/`0`"))
            }
            Err(e) => Err(ParseError::new(at, e.to_string())),
        }
    }

    fn primary(&mut self) -> Result<St, ParseError> {
        let at = self.at();
        match self.bump() {
            Tok::Question => Ok(St::Part(PartialExpr::Hole)),
            Tok::Int(0) => Ok(St::Part(PartialExpr::Hole0)),
            Tok::Int(v) => Ok(St::Value(Expr::IntLit(v))),
            Tok::Double(v) => Ok(St::Value(Expr::DoubleLit(v))),
            Tok::Str(s) => Ok(St::Value(Expr::StrLit(s))),
            Tok::Ident(s) => match s.as_str() {
                "this" => {
                    if self.ctx.this_type().is_some() {
                        Ok(St::Value(Expr::This))
                    } else {
                        Err(ParseError::new(
                            at,
                            "`this` is not available in this context",
                        ))
                    }
                }
                "true" => Ok(St::Value(Expr::BoolLit(true))),
                "false" => Ok(St::Value(Expr::BoolLit(false))),
                "null" => Ok(St::Value(Expr::Null)),
                _ => {
                    // Bare call `Name(args)`?
                    if self.peek() == &Tok::LParen {
                        let args = self.call_args()?;
                        return self.resolve_bare_call(&s, args, at);
                    }
                    self.resolve_simple_name(&s, at)
                }
            },
            other => Err(ParseError::new(at, format!("unexpected token {other:?}"))),
        }
    }

    fn resolve_simple_name(&mut self, name: &str, at: usize) -> Result<St, ParseError> {
        if let Some((id, _)) = self.ctx.local_by_name(name) {
            return Ok(St::Value(Expr::Local(id)));
        }
        if let Some(enclosing) = self.ctx.enclosing_type {
            for owner in self.db.member_lookup_chain(enclosing) {
                for &f in self.db.fields_of(owner) {
                    let fd = self.db.field(f);
                    if fd.name() == name
                        && self.db.accessible(fd.visibility(), owner, Some(enclosing))
                    {
                        if fd.is_static() {
                            return Ok(St::Value(Expr::StaticField(f)));
                        } else if self.ctx.has_this {
                            return Ok(St::Value(Expr::field(Expr::This, f)));
                        }
                    }
                }
            }
        }
        if let Some(p) = PrimKind::from_keyword(name) {
            return Ok(St::Type(self.db.types().prim(p)));
        }
        if name == "object" {
            return Ok(St::Type(self.db.types().object()));
        }
        // A type in the enclosing namespace chain or anywhere by simple name.
        if let Some(t) = self.lookup_type_simple(name) {
            return Ok(St::Type(t));
        }
        if self.db.types().namespaces().is_prefix([name]) {
            return Ok(St::Ns(vec![name.to_owned()]));
        }
        Err(ParseError::new(at, format!("unknown name `{name}`")))
    }

    /// Finds a type by simple name: first in the enclosing type's namespace,
    /// then uniquely across the whole program (API-discovery spirit).
    fn lookup_type_simple(&self, name: &str) -> Option<TypeId> {
        if let Some(enclosing) = self.ctx.enclosing_type {
            let ns = self.db.types().get(enclosing).namespace();
            if let Some(t) = self.db.types().lookup(ns, name) {
                return Some(t);
            }
        }
        let mut found = None;
        for t in self.db.types().iter() {
            if self.db.types().get(t).name() == name {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(t);
            }
        }
        found
    }

    /// Resolves a bare call `Name(args)`.
    ///
    /// In scope, the name may denote instance methods of the enclosing type
    /// (receiver `this`) or statics (no receiver). Out of scope, the
    /// API-discovery fallback considers every public method with the name:
    /// statics take the arguments as written, instance methods get a `?`
    /// receiver hole prepended. When several interpretations are viable the
    /// query becomes their [`PartialExpr::Alt`] union.
    fn resolve_bare_call(
        &mut self,
        name: &str,
        args: Vec<PartialExpr>,
        at: usize,
    ) -> Result<St, ParseError> {
        let mut in_scope: Vec<MethodId> = Vec::new();
        if let Some(enclosing) = self.ctx.enclosing_type {
            for owner in self.db.member_lookup_chain(enclosing) {
                for &m in self.db.methods_of(owner) {
                    let md = self.db.method(m);
                    if md.name() == name
                        && self.db.accessible(md.visibility(), owner, Some(enclosing))
                        && (md.is_static() || self.ctx.has_this)
                    {
                        in_scope.push(m);
                    }
                }
            }
        }
        let (cands, receiver_hole) = if in_scope.is_empty() {
            // API-discovery fallback: any public method with this name.
            let global: Vec<MethodId> = self
                .db
                .methods()
                .filter(|m| {
                    let md = self.db.method(*m);
                    md.name() == name && md.visibility() == pex_model::Visibility::Public
                })
                .collect();
            if global.is_empty() {
                return Err(ParseError::new(at, format!("unknown method `{name}`")));
            }
            (global, PartialExpr::Hole)
        } else {
            (in_scope, PartialExpr::Known(Expr::This))
        };

        let inst: Vec<MethodId> = cands
            .iter()
            .copied()
            .filter(|m| !self.db.method(*m).is_static())
            .collect();
        let stat: Vec<MethodId> = cands
            .iter()
            .copied()
            .filter(|m| self.db.method(*m).is_static())
            .collect();
        let mut alts: Vec<St> = Vec::new();
        if !inst.is_empty() {
            let mut full = vec![receiver_hole];
            full.extend(args.clone());
            if let Ok(st) = self.build_known_call(inst, full, name, at) {
                alts.push(st);
            }
        }
        if !stat.is_empty() {
            if let Ok(st) = self.build_known_call(stat, args.clone(), name, at) {
                alts.push(st);
            }
        }
        match alts.pop() {
            None => Err(ParseError::new(
                at,
                format!(
                    "no accessible method `{name}` takes {} argument(s)",
                    args.len()
                ),
            )),
            Some(only) if alts.is_empty() => Ok(only),
            Some(last) => {
                alts.push(last);
                let parts: Vec<PartialExpr> = alts
                    .into_iter()
                    .map(|st| match st {
                        St::Value(e) => PartialExpr::Known(e),
                        St::Part(p) => p,
                        St::Type(_) | St::Ns(_) => unreachable!("calls resolve to values"),
                    })
                    .collect();
                Ok(St::Part(PartialExpr::Alt(parts)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;
    use pex_model::Local;

    fn setup() -> (Database, Context) {
        let db = compile(
            r#"
            namespace Geo {
                struct Point { int X; int Y; }
                class Shape {
                    Geo.Point Center;
                    static double Distance(Geo.Point a, Geo.Point b);
                    Geo.Point GetSample();
                }
            }
            "#,
        )
        .unwrap();
        let point = db.types().lookup_qualified("Geo.Point").unwrap();
        let shape = db.types().lookup_qualified("Geo.Shape").unwrap();
        let mut ctx = Context::instance(
            shape,
            vec![
                Local {
                    name: "point".into(),
                    ty: point,
                },
                Local {
                    name: "s".into(),
                    ty: shape,
                },
            ],
        );
        ctx.has_this = true;
        (db, ctx)
    }

    #[test]
    fn parses_unknown_call() {
        let (db, ctx) = setup();
        let q = parse_partial(&db, &ctx, "?({point, s})").unwrap();
        let PartialExpr::UnknownCall(args) = q else {
            panic!("wrong shape")
        };
        assert_eq!(args.len(), 2);
        assert!(matches!(args[0], PartialExpr::Known(Expr::Local(_))));
    }

    #[test]
    fn parses_known_call_with_hole() {
        let (db, ctx) = setup();
        let q = parse_partial(&db, &ctx, "Distance(point, ?)").unwrap();
        let PartialExpr::KnownCall { candidates, args } = q else {
            panic!("wrong shape: {q:?}")
        };
        assert_eq!(candidates.len(), 1);
        assert_eq!(args.len(), 2);
        assert!(matches!(args[1], PartialExpr::Hole));
    }

    #[test]
    fn parses_star_suffix_comparison() {
        let (db, ctx) = setup();
        let q = parse_partial(&db, &ctx, "point.?*m >= this.?*m").unwrap();
        assert_eq!(q.shape(), "e.?*m >= e.?*m");
        let q = parse_partial(&db, &ctx, "point.?f := s.?m.?m").unwrap();
        assert_eq!(q.shape(), "e.?f := e.?m.?m");
    }

    #[test]
    fn collapses_complete_calls() {
        let (db, ctx) = setup();
        let q = parse_partial(&db, &ctx, "Distance(point, this.Center)").unwrap();
        assert!(matches!(q, PartialExpr::Known(Expr::Call(..))), "{q:?}");
        // Chained member access through a collapsed zero-arg call.
        let q = parse_partial(&db, &ctx, "s.GetSample().X").unwrap();
        assert!(matches!(q, PartialExpr::Known(Expr::FieldAccess(..))));
    }

    #[test]
    fn resolves_members_and_types() {
        let (db, ctx) = setup();
        let q = parse_partial(&db, &ctx, "this.Center.X").unwrap();
        assert!(matches!(q, PartialExpr::Known(Expr::FieldAccess(..))));
        let q = parse_partial(&db, &ctx, "Geo.Shape.Distance(point, point)").unwrap();
        assert!(matches!(q, PartialExpr::Known(Expr::Call(..))));
        let q = parse_partial(&db, &ctx, "Center.?f").unwrap();
        assert_eq!(q.shape(), "e.?f");
    }

    #[test]
    fn rejects_bad_queries() {
        let (db, ctx) = setup();
        assert!(parse_partial(&db, &ctx, "unknownName").is_err());
        assert!(parse_partial(&db, &ctx, "point.?x").is_err());
        assert!(parse_partial(&db, &ctx, "point.NoSuchField").is_err());
        assert!(parse_partial(&db, &ctx, "Geo").is_err()); // namespace as value
        assert!(parse_partial(&db, &ctx, "?.Foo").is_err());
        assert!(parse_partial(&db, &ctx, "point ?").is_err());
        assert!(parse_partial(&db, &ctx, "NoSuchMethod(point)").is_err());
    }

    #[test]
    fn deep_nesting_is_rejected_not_crashed() {
        let (db, ctx) = setup();
        let bomb = format!("{}point", "?({".repeat(400));
        let err = parse_partial(&db, &ctx, &bomb).unwrap_err();
        assert!(
            err.msg.contains("nested too deeply") || err.msg.contains("expected"),
            "{err}"
        );
    }

    #[test]
    fn zero_is_a_hole_other_ints_are_literals() {
        let (db, ctx) = setup();
        assert!(matches!(
            parse_partial(&db, &ctx, "0").unwrap(),
            PartialExpr::Hole0
        ));
        assert!(matches!(
            parse_partial(&db, &ctx, "3").unwrap(),
            PartialExpr::Known(Expr::IntLit(3))
        ));
    }
}
