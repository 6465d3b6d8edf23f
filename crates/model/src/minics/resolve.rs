//! Name resolution for the lowering in [`super::incremental`]: scopes,
//! type references, override links and method bodies.
//!
//! Resolution follows the C# shape the paper's examples rely on:
//!
//! * a simple name resolves to (in order) a local, a member of the enclosing
//!   type, a type reachable from the enclosing namespaces or `using`s, or a
//!   namespace root;
//! * member access walks a three-state machine (namespace → type → value);
//! * method overloads are selected by arity and implicit convertibility,
//!   preferring the lowest total type distance.

use std::collections::HashMap;

use pex_types::{NsPrefix, PrimKind, TypeId};

use crate::{Body, Database, Expr, LocalId, MethodId, Stmt, ValueTy, Visibility};

use super::ast;
use super::{MiniCsError, MiniCsResult};

/// The visibility a member declaration's `private` flag stands for.
pub(super) fn visibility(is_private: bool) -> Visibility {
    if is_private {
        Visibility::Private
    } else {
        Visibility::Public
    }
}

/// A lookup scope: an index into [`Scopes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(super) struct ScopeId(u32);

/// The lookup scopes of one compile or update, one per `namespace` block,
/// and every type path resolved from them so far.
///
/// A scope lists where names are looked up from inside its block, in
/// priority order: the enclosing namespaces innermost first, then each
/// `using`. Each of those paths is walked down the namespace trie once,
/// when the scope is added; a path no interned namespace starts with is
/// dropped, since nothing can resolve under it.
///
/// Each distinct (scope, path) pair is resolved once per compile. The
/// namespaces and types a path can name are all declared before the first
/// lookup and do not change after it, so a remembered answer never goes
/// stale. A path is remembered by its dotted text, so asking again costs
/// one hash of one string, where the walk hashed each segment under each
/// scope node; the rare path written with spaces or comments between its
/// segments is resolved afresh each time. The keys are source text, which
/// a client chooses, so the memo keeps std's keyed hasher: with a fixed
/// hash, one `update` could pile its paths into one bucket.
pub(super) struct Scopes<'a> {
    /// Per scope: the trie nodes names are looked up under, in priority
    /// order, and the file the scope's block is in.
    scopes: Vec<(Vec<NsPrefix>, &'a ast::File<'a>)>,
    /// (scope, dotted path text) → the type the path names from there.
    resolved: HashMap<(ScopeId, &'a str), Option<TypeId>>,
}

impl<'a> Scopes<'a> {
    pub(super) fn new() -> Self {
        Scopes {
            scopes: Vec::new(),
            resolved: HashMap::new(),
        }
    }

    /// Adds the scope of the block declaring namespace `ns_path` in
    /// `file`. Call it only once every namespace of the compilation is
    /// interned, since the scope keeps only paths that exist by then.
    pub(super) fn add(
        &mut self,
        db: &Database,
        file: &'a ast::File<'a>,
        ns_path: ast::Path,
    ) -> ScopeId {
        let namespaces = db.types().namespaces();
        let ns_path = file.path(ns_path);
        let enclosing = (0..=ns_path.len()).rev().map(|i| &ns_path[..i]);
        let usings = file.usings.iter().map(|&u| file.path(u));
        let prefixes = enclosing
            .chain(usings)
            .filter_map(|path| namespaces.descend(NsPrefix::ROOT, path))
            .collect();
        self.scopes.push((prefixes, file));
        ScopeId(u32::try_from(self.scopes.len() - 1).expect("under 2^32 namespace blocks"))
    }

    /// The file `scope`'s block is in.
    pub(super) fn file(&self, scope: ScopeId) -> &'a ast::File<'a> {
        self.scopes[scope.0 as usize].1
    }

    /// Resolves a type reference written in `scope`'s block.
    pub(super) fn type_ref(
        &mut self,
        db: &Database,
        scope: ScopeId,
        tr: &ast::TypeRef,
    ) -> MiniCsResult<TypeId> {
        let file = self.file(scope);
        let path = file.path(tr.path);
        self.lookup(db, scope, path, || file.dotted(tr.path))
            .ok_or_else(|| {
                MiniCsError::new(
                    tr.line,
                    tr.col,
                    format!("unknown type `{}`", path.join(".")),
                )
            })
    }

    /// The type `path` names from inside `scope`: a primitive keyword or
    /// `object`, else `prefix.name` declared under the first scope path
    /// that has it. `dotted` gives the path's text, the memo key, if it
    /// has one.
    fn lookup(
        &mut self,
        db: &Database,
        scope: ScopeId,
        path: &[&str],
        dotted: impl FnOnce() -> Option<&'a str>,
    ) -> Option<TypeId> {
        let types = db.types();
        let (&name, prefix) = path.split_last().expect("paths are non-empty");
        // Primitive keywords and `object` are lowercase, unlike the type
        // names most paths end in.
        if prefix.is_empty() && name.starts_with(|c: char| c.is_ascii_lowercase()) {
            if let Some(p) = PrimKind::from_keyword(name) {
                return Some(types.prim(p));
            }
            if name == "object" {
                return Some(types.object());
            }
        }
        let namespaces = types.namespaces();
        let walk = || {
            self.scopes[scope.0 as usize].0.iter().find_map(|&at| {
                let ns = namespaces.namespace_at(namespaces.descend(at, prefix)?)?;
                types.lookup(ns, name)
            })
        };
        match dotted() {
            Some(text) => *self.resolved.entry((scope, text)).or_insert_with(walk),
            None => walk(),
        }
    }
}

/// Links each instance method to the nearest method it overrides: same name,
/// same parameter types, declared on a strict supertype. Override chains
/// share abstract-type slots (paper Section 4.1).
///
/// Instance methods are sorted by signature once, so a method is compared
/// only with the few that share its signature, never with every method of
/// every supertype.
pub(super) fn link_overrides(db: &mut Database) {
    let params = |m: MethodId| db.method(m).params().types();
    // Names are interned, so equal name ids are equal names. Per-type
    // lists are in declaration order, which is id order.
    let mut by_signature: Vec<(u32, MethodId)> = Vec::with_capacity(db.method_count());
    by_signature.extend(
        db.types()
            .iter()
            .flat_map(|ty| db.methods_of(ty))
            .map(|&m| (db.method(m), m))
            .filter(|(md, _)| !md.is_static())
            .map(|(md, m)| (md.name_id(), m)),
    );
    by_signature.sort_unstable_by(|&(x, a), &(y, b)| {
        x.cmp(&y)
            .then_with(|| params(a).cmp(params(b)))
            .then(a.cmp(&b))
    });
    let same =
        |&(x, a): &(u32, MethodId), &(y, b): &(u32, MethodId)| x == y && params(a).eq(params(b));
    let mut links = Vec::with_capacity(by_signature.len());
    let mut chain = Vec::new();
    for group in by_signature.chunk_by(same).filter(|g| g.len() > 1) {
        for &(_, m) in group {
            db.member_lookup_chain_into(db.method(m).declaring(), &mut chain);
            // The nearest supertype declaring the signature, and its first
            // such method (the group is in id order).
            let overridden = chain[1..].iter().find_map(|&owner| {
                group
                    .iter()
                    .map(|&(_, cand)| cand)
                    .find(|&cand| db.method(cand).declaring() == owner)
            });
            if let Some(base) = overridden {
                links.push((m, base));
            }
        }
    }
    for (m, base) in links {
        db.set_overrides(m, base);
    }
}

/// Intermediate resolution state for dotted chains.
enum Res<'a> {
    Value(Expr, ValueTy),
    Type(TypeId),
    Namespace(Vec<&'a str>),
}

/// Lowers one body: `'a` borrows the syntax tree, `'s` the model.
struct BodyCompiler<'a, 's> {
    db: &'s Database,
    method: MethodId,
    scopes: &'s mut Scopes<'a>,
    scope: ScopeId,
    body: Body,
    /// Parameter and local names in scope; a later local shadows.
    local_names: HashMap<&'s str, LocalId>,
}

pub(super) fn compile_body<'a: 's, 's>(
    db: &'s Database,
    mid: MethodId,
    scopes: &'s mut Scopes<'a>,
    scope: ScopeId,
    stmts: &'a [ast::Stmt<'a>],
) -> MiniCsResult<Body> {
    let md = db.method(mid);
    let mut body = Body::default();
    let mut local_names = HashMap::new();
    for p in md.params() {
        local_names.insert(p.name, LocalId(body.locals.len() as u32));
        body.locals.push((p.name.to_owned(), p.ty));
    }
    body.param_count = body.locals.len();
    let mut compiler = BodyCompiler {
        db,
        method: mid,
        scopes,
        scope,
        body,
        local_names,
    };
    for stmt in stmts {
        compiler.stmt(stmt)?;
    }
    Ok(compiler.body)
}

impl<'a: 's, 's> BodyCompiler<'a, 's> {
    fn stmt(&mut self, stmt: &'a ast::Stmt<'a>) -> MiniCsResult<()> {
        let lowered = self.lower_stmt(stmt, false)?;
        self.body.stmts.push(lowered);
        Ok(())
    }

    /// Lowers one statement. `nested` statements (inside `if`/`while`
    /// blocks) may not declare locals, keeping the live-local model a
    /// prefix of the slot table.
    fn lower_stmt(&mut self, stmt: &'a ast::Stmt<'a>, nested: bool) -> MiniCsResult<Stmt> {
        match stmt {
            ast::Stmt::Local {
                ty,
                name,
                init,
                line,
                col,
            } => {
                if nested {
                    return Err(MiniCsError::new(
                        *line,
                        *col,
                        "local declarations are not allowed inside `if`/`while` blocks",
                    ));
                }
                let (e, ety) = self.value(init)?;
                let declared = match ty {
                    Some(tr) => self.scopes.type_ref(self.db, self.scope, tr)?,
                    None => ety.known().ok_or_else(|| {
                        MiniCsError::new(*line, *col, "cannot infer the type of `var` from `null`")
                    })?,
                };
                if let ValueTy::Known(t) = ety {
                    if !self.db.types().implicitly_convertible(t, declared) {
                        return Err(MiniCsError::new(
                            *line,
                            *col,
                            format!(
                                "initialiser of type `{}` does not convert to `{}`",
                                self.db.types().qualified_name(t),
                                self.db.types().qualified_name(declared)
                            ),
                        ));
                    }
                }
                let id = LocalId(self.body.locals.len() as u32);
                self.body.locals.push(((*name).to_owned(), declared));
                self.local_names.insert(name, id);
                Ok(Stmt::Init(id, e))
            }
            ast::Stmt::Expr(e) => {
                let (expr, _) = self.value(e)?;
                Ok(Stmt::Expr(expr))
            }
            ast::Stmt::Return(None, ..) => Ok(Stmt::Return(None)),
            ast::Stmt::Return(Some(e), line, col) => {
                let (expr, ety) = self.value(e)?;
                let ret = self.db.method(self.method).return_type();
                if let ValueTy::Known(t) = ety {
                    if !self.db.types().implicitly_convertible(t, ret) {
                        return Err(MiniCsError::new(
                            *line,
                            *col,
                            "return value does not convert to the return type",
                        ));
                    }
                }
                Ok(Stmt::Return(Some(expr)))
            }
            ast::Stmt::If {
                cond,
                then_body,
                else_body,
                line,
                col,
            } => {
                let (cexpr, cty) = self.value(cond)?;
                self.require_bool(cty, *line, *col)?;
                let then_body = self.lower_block(then_body)?;
                let else_body = self.lower_block(else_body)?;
                Ok(Stmt::If {
                    cond: cexpr,
                    then_body,
                    else_body,
                })
            }
            ast::Stmt::While {
                cond,
                body,
                line,
                col,
            } => {
                let (cexpr, cty) = self.value(cond)?;
                self.require_bool(cty, *line, *col)?;
                let body = self.lower_block(body)?;
                Ok(Stmt::While { cond: cexpr, body })
            }
        }
    }

    fn lower_block(&mut self, stmts: &'a [ast::Stmt<'a>]) -> MiniCsResult<Vec<Stmt>> {
        stmts
            .iter()
            .map(|stmt| self.lower_stmt(stmt, true))
            .collect()
    }

    fn require_bool(&self, ty: ValueTy, line: u32, col: u32) -> MiniCsResult<()> {
        match ty {
            ValueTy::Known(t)
                if self
                    .db
                    .types()
                    .implicitly_convertible(t, self.db.types().bool_ty()) =>
            {
                Ok(())
            }
            ValueTy::Wildcard => Ok(()),
            _ => Err(MiniCsError::new(line, col, "condition must be boolean")),
        }
    }

    fn value(&mut self, e: &'a ast::Expr<'a>) -> MiniCsResult<(Expr, ValueTy)> {
        let (line, col) = e.pos();
        match self.resolve(e)? {
            Res::Value(expr, ty) => Ok((expr, ty)),
            Res::Type(t) => Err(MiniCsError::new(
                line,
                col,
                format!(
                    "`{}` is a type, not a value",
                    self.db.types().qualified_name(t)
                ),
            )),
            Res::Namespace(path) => Err(MiniCsError::new(
                line,
                col,
                format!("`{}` is a namespace, not a value", path.join(".")),
            )),
        }
    }

    fn resolve(&mut self, e: &'a ast::Expr<'a>) -> MiniCsResult<Res<'a>> {
        match e {
            ast::Expr::Int(v) => Ok(Res::Value(
                Expr::IntLit(*v),
                ValueTy::Known(self.db.types().int_ty()),
            )),
            ast::Expr::Double(v) => Ok(Res::Value(
                Expr::DoubleLit(*v),
                ValueTy::Known(self.db.types().double_ty()),
            )),
            ast::Expr::Bool(v) => Ok(Res::Value(
                Expr::BoolLit(*v),
                ValueTy::Known(self.db.types().bool_ty()),
            )),
            ast::Expr::Str(s) => Ok(Res::Value(
                Expr::StrLit(s.clone()),
                ValueTy::Known(self.db.types().string_ty()),
            )),
            ast::Expr::Null(..) => Ok(Res::Value(Expr::Null, ValueTy::Wildcard)),
            ast::Expr::This(line, col) => {
                let md = self.db.method(self.method);
                if md.is_static() {
                    return Err(MiniCsError::new(*line, *col, "`this` in a static method"));
                }
                Ok(Res::Value(Expr::This, ValueTy::Known(md.declaring())))
            }
            ast::Expr::Ident(name, line, col) => self.resolve_simple_name(name, *line, *col),
            ast::Expr::Member(base, name, line, col) => {
                let base_res = self.resolve(base)?;
                self.resolve_member(base_res, name, *line, *col)
            }
            ast::Expr::Invoke(callee, args, line, col) => {
                self.resolve_invoke(callee, args, *line, *col)
            }
            ast::Expr::Assign(lhs, rhs) => {
                let (le, lt) = self.value(lhs)?;
                let (re, rt) = self.value(rhs)?;
                let (line, col) = lhs.pos();
                if !matches!(
                    le,
                    Expr::Local(_) | Expr::StaticField(_) | Expr::FieldAccess(..)
                ) {
                    return Err(MiniCsError::new(line, col, "expression is not assignable"));
                }
                if let (ValueTy::Known(l), ValueTy::Known(r)) = (lt, rt) {
                    if !self.db.types().implicitly_convertible(r, l) {
                        return Err(MiniCsError::new(
                            line,
                            col,
                            "assignment source does not convert to the target type",
                        ));
                    }
                }
                Ok(Res::Value(Expr::assign(le, re), lt))
            }
            ast::Expr::Cmp(op, lhs, rhs) => {
                let (le, lt) = self.value(lhs)?;
                let (re, rt) = self.value(rhs)?;
                let (line, col) = lhs.pos();
                if let (ValueTy::Known(l), ValueTy::Known(r)) = (lt, rt) {
                    if self.db.types().comparable_pair(l, r).is_none() {
                        return Err(MiniCsError::new(line, col, "operands are not comparable"));
                    }
                }
                Ok(Res::Value(
                    Expr::cmp(*op, le, re),
                    ValueTy::Known(self.db.types().bool_ty()),
                ))
            }
        }
    }

    fn resolve_simple_name(&mut self, name: &'a str, line: u32, col: u32) -> MiniCsResult<Res<'a>> {
        // 1. Locals and parameters.
        if let Some(&id) = self.local_names.get(name) {
            let ty = self.body.locals[id.index()].1;
            return Ok(Res::Value(Expr::Local(id), ValueTy::Known(ty)));
        }
        // 2. Members of the enclosing type.
        let md = self.db.method(self.method);
        let enclosing = md.declaring();
        for owner in self.db.member_lookup_chain(enclosing) {
            for &f in self.db.fields_of(owner) {
                let fd = self.db.field(f);
                if fd.name() == name && self.db.accessible(fd.visibility(), owner, Some(enclosing))
                {
                    return if fd.is_static() {
                        Ok(Res::Value(Expr::StaticField(f), ValueTy::Known(fd.ty())))
                    } else if md.is_static() {
                        Err(MiniCsError::new(
                            line,
                            col,
                            format!("instance field `{name}` used in a static method"),
                        ))
                    } else {
                        Ok(Res::Value(
                            Expr::field(Expr::This, f),
                            ValueTy::Known(fd.ty()),
                        ))
                    };
                }
            }
        }
        // 3. A type.
        if let Some(ty) = self
            .scopes
            .lookup(self.db, self.scope, &[name], || Some(name))
        {
            return Ok(Res::Type(ty));
        }
        // 4. A namespace root.
        if self.db.types().namespaces().is_prefix([name]) {
            return Ok(Res::Namespace(vec![name]));
        }
        Err(MiniCsError::new(
            line,
            col,
            format!("unknown name `{name}`"),
        ))
    }

    fn resolve_member(
        &mut self,
        base: Res<'a>,
        name: &'a str,
        line: u32,
        col: u32,
    ) -> MiniCsResult<Res<'a>> {
        let enclosing = Some(self.db.method(self.method).declaring());
        match base {
            Res::Value(expr, ty) => {
                let t = ty.known().ok_or_else(|| {
                    MiniCsError::new(line, col, "cannot access a member of `null`")
                })?;
                for owner in self.db.member_lookup_chain(t) {
                    for &f in self.db.fields_of(owner) {
                        let fd = self.db.field(f);
                        if fd.name() == name
                            && !fd.is_static()
                            && self.db.accessible(fd.visibility(), owner, enclosing)
                        {
                            return Ok(Res::Value(Expr::field(expr, f), ValueTy::Known(fd.ty())));
                        }
                    }
                }
                Err(MiniCsError::new(
                    line,
                    col,
                    format!(
                        "type `{}` has no accessible instance field `{name}`",
                        self.db.types().qualified_name(t)
                    ),
                ))
            }
            Res::Type(t) => {
                for &f in self.db.fields_of(t) {
                    let fd = self.db.field(f);
                    if fd.name() == name
                        && fd.is_static()
                        && self.db.accessible(fd.visibility(), t, enclosing)
                    {
                        return Ok(Res::Value(Expr::StaticField(f), ValueTy::Known(fd.ty())));
                    }
                }
                Err(MiniCsError::new(
                    line,
                    col,
                    format!(
                        "type `{}` has no accessible static field `{name}`",
                        self.db.types().qualified_name(t)
                    ),
                ))
            }
            Res::Namespace(mut path) => {
                let namespaces = self.db.types().namespaces();
                if let Some(ns) = namespaces.lookup(&path) {
                    if let Some(ty) = self.db.types().lookup(ns, name) {
                        return Ok(Res::Type(ty));
                    }
                }
                path.push(name);
                if namespaces.is_prefix(&path) {
                    return Ok(Res::Namespace(path));
                }
                Err(MiniCsError::new(
                    line,
                    col,
                    format!("unknown namespace or type `{}`", path.join(".")),
                ))
            }
        }
    }

    fn resolve_invoke(
        &mut self,
        callee: &'a ast::Expr<'a>,
        args: &'a [ast::Expr<'a>],
        line: u32,
        col: u32,
    ) -> MiniCsResult<Res<'a>> {
        let mut lowered: Vec<(Expr, ValueTy)> = Vec::with_capacity(args.len());
        for a in args {
            lowered.push(self.value(a)?);
        }
        let md = self.db.method(self.method);
        let enclosing = md.declaring();

        // Determine the candidate set and the receiver expression.
        // Each candidate says whether it takes the receiver, which is
        // lowered once and moved into the chosen call.
        let (name, receiver, candidates): (&str, Option<Expr>, Vec<(MethodId, bool)>) = match callee
        {
            ast::Expr::Ident(name, ..) => {
                let mut cands = Vec::new();
                for owner in self.db.member_lookup_chain(enclosing) {
                    for &m in self.db.methods_of(owner) {
                        let cd = self.db.method(m);
                        if cd.name() != *name
                            || !self.db.accessible(cd.visibility(), owner, Some(enclosing))
                        {
                            continue;
                        }
                        if cd.is_static() {
                            cands.push((m, false));
                        } else if !md.is_static() {
                            cands.push((m, true));
                        }
                    }
                }
                (*name, Some(Expr::This), cands)
            }
            ast::Expr::Member(base, name, bline, bcol) => {
                let base_res = self.resolve(base)?;
                match base_res {
                    Res::Value(expr, ty) => {
                        let t = ty.known().ok_or_else(|| {
                            MiniCsError::new(*bline, *bcol, "cannot call a method on `null`")
                        })?;
                        let mut cands = Vec::new();
                        for owner in self.db.member_lookup_chain(t) {
                            for &m in self.db.methods_of(owner) {
                                let cd = self.db.method(m);
                                if cd.name() == *name
                                    && !cd.is_static()
                                    && self.db.accessible(cd.visibility(), owner, Some(enclosing))
                                {
                                    cands.push((m, true));
                                }
                            }
                        }
                        (*name, Some(expr), cands)
                    }
                    Res::Type(t) => {
                        let mut cands = Vec::new();
                        for owner in self.db.member_lookup_chain(t) {
                            for &m in self.db.methods_of(owner) {
                                let cd = self.db.method(m);
                                if cd.name() == *name
                                    && cd.is_static()
                                    && self.db.accessible(cd.visibility(), owner, Some(enclosing))
                                {
                                    cands.push((m, false));
                                }
                            }
                        }
                        (*name, None, cands)
                    }
                    Res::Namespace(path) => {
                        return Err(MiniCsError::new(
                            *bline,
                            *bcol,
                            format!("cannot call a method on namespace `{}`", path.join(".")),
                        ))
                    }
                }
            }
            other => {
                let (l, c) = other.pos();
                return Err(MiniCsError::new(
                    l.max(line),
                    c.max(col),
                    "expression is not callable",
                ));
            }
        };

        // Overload selection: arity + convertibility, then min total distance.
        let mut best: Option<(u32, MethodId, bool)> = None;
        for &(m, takes_receiver) in &candidates {
            let cd = self.db.method(m);
            if cd.params().len() != lowered.len() {
                continue;
            }
            let mut total = 0u32;
            let mut ok = true;
            for ((_, at), ty) in lowered.iter().zip(cd.params().types()) {
                match at {
                    ValueTy::Wildcard => {}
                    ValueTy::Known(t) => match self.db.types().type_distance(*t, ty) {
                        Some(d) => total += d,
                        None => {
                            ok = false;
                            break;
                        }
                    },
                }
            }
            if !ok {
                continue;
            }
            if best.as_ref().map(|(b, ..)| total < *b).unwrap_or(true) {
                best = Some((total, m, takes_receiver));
            }
        }
        let Some((_, m, takes_receiver)) = best else {
            return Err(MiniCsError::new(
                line,
                col,
                format!("no matching overload of `{name}` for these argument types"),
            ));
        };
        let mut call_args: Vec<Expr> = Vec::with_capacity(lowered.len() + 1);
        if takes_receiver {
            call_args.push(receiver.expect("receiver-taking candidates come with a receiver"));
        }
        call_args.extend(lowered.into_iter().map(|(e, _)| e));
        let ret = self.db.method(m).return_type();
        Ok(Res::Value(Expr::Call(m, call_args), ValueTy::Known(ret)))
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::super::{ast, compile};
    use super::{PrimKind, Scopes, TypeId};
    use crate::{CallStyle, Context, Database, Expr, Stmt};

    const GEO: &str = r#"
        namespace Geo {
            struct Point { int X; int Y; }
            class Shape {
                Point Center;
                double Area() { return 0.0; }
            }
            class Circle : Shape {
                double Radius;
                double Area() { return this.Radius; }
                static Circle Unit;
                static double Distance(Point a, Point b) { return 0.0; }
            }
            class Client {
                void Run(Circle c, Point p) {
                    var d = Circle.Distance(p, c.Center);
                    double a = c.Area();
                    c.Radius = a;
                    p.X >= c.Center.Y;
                    Helper(d);
                }
                void Helper(double x) { return; }
            }
        }
    "#;

    #[test]
    fn compiles_and_links_overrides() {
        let db = compile(GEO).unwrap();
        let circle_area = db
            .methods()
            .find(|m| {
                db.method(*m).name() == "Area"
                    && db.types().qualified_name(db.method(*m).declaring()) == "Geo.Circle"
            })
            .unwrap();
        let shape_area = db
            .methods()
            .find(|m| {
                db.method(*m).name() == "Area"
                    && db.types().qualified_name(db.method(*m).declaring()) == "Geo.Shape"
            })
            .unwrap();
        assert_eq!(db.method(circle_area).overrides(), Some(shape_area));
        assert_eq!(db.root_method(circle_area), shape_area);
    }

    #[test]
    fn bodies_resolve_locals_members_and_calls() {
        let db = compile(GEO).unwrap();
        let run = db
            .methods()
            .find(|m| db.method(*m).name() == "Run")
            .unwrap();
        let body = db.method(run).body().unwrap();
        assert_eq!(body.param_count, 2);
        assert_eq!(body.locals.len(), 4); // c, p, d, a
                                          // First statement: var d = Circle.Distance(p, c.Center);
        let Stmt::Init(_, Expr::Call(m, args)) = &body.stmts[0] else {
            panic!("expected init with call, got {:?}", body.stmts[0]);
        };
        assert_eq!(db.method(*m).name(), "Distance");
        assert_eq!(args.len(), 2, "static call takes explicit args only");
        // `var` picked up the return type double.
        assert_eq!(body.locals[2].1, db.types().double_ty());
        // Rendering round-trips through context naming.
        let ctx = Context::at_statement(&db, run, body, 1);
        let Stmt::Init(_, a_init) = &body.stmts[1] else {
            panic!()
        };
        assert_eq!(
            crate::render_expr(&db, &ctx, a_init, CallStyle::Receiver),
            "c.Area()"
        );
    }

    #[test]
    fn unqualified_member_and_bare_call() {
        let db = compile(GEO).unwrap();
        let run = db
            .methods()
            .find(|m| db.method(*m).name() == "Run")
            .unwrap();
        let body = db.method(run).body().unwrap();
        // Last statement: Helper(d) resolves to this.Helper(d).
        let Stmt::Expr(Expr::Call(m, args)) = body.stmts.last().unwrap() else {
            panic!("expected bare call");
        };
        assert_eq!(db.method(*m).name(), "Helper");
        assert_eq!(args.len(), 2);
        assert!(matches!(args[0], Expr::This));
    }

    #[test]
    fn overload_selection_prefers_precise_types() {
        let db = compile(
            r#"
            namespace N {
                class Base { }
                class Derived : Base { }
                class Lib {
                    static int Pick(Base b) { return 1; }
                    static int Pick(Derived d) { return 2; }
                }
                class Client {
                    void M(Derived d) { Lib.Pick(d); }
                }
            }
            "#,
        )
        .unwrap();
        let client_m = db.methods().find(|m| db.method(*m).name() == "M").unwrap();
        let body = db.method(client_m).body().unwrap();
        let Stmt::Expr(Expr::Call(m, _)) = &body.stmts[0] else {
            panic!()
        };
        assert_eq!(
            db.method(*m).params().get(0).unwrap().name,
            "d",
            "picked the Derived overload"
        );
    }

    #[test]
    fn error_positions_and_messages() {
        let err = compile("namespace N { class C { void M() { x; } } }").unwrap_err();
        assert!(err.msg.contains("unknown name `x`"), "{err}");
        let err =
            compile("namespace N { class C { int F; void M() { this.F = \"s\"; } } }").unwrap_err();
        assert!(err.msg.contains("does not convert"), "{err}");
        let err = compile("namespace N { class C { static void M() { this.ToString(); } } }")
            .unwrap_err();
        assert!(err.msg.contains("`this` in a static method"), "{err}");
        let err = compile("namespace N { class C { void M(UnknownType t) { } } }").unwrap_err();
        assert!(err.msg.contains("unknown type"), "{err}");
    }

    #[test]
    fn enum_members_resolve_as_static_fields() {
        let db = compile(
            r#"
            namespace N {
                enum Color { Red, Green }
                class C {
                    Color Pick() { return Color.Red; }
                }
            }
            "#,
        )
        .unwrap();
        let pick = db
            .methods()
            .find(|m| db.method(*m).name() == "Pick")
            .unwrap();
        let body = db.method(pick).body().unwrap();
        let Stmt::Return(Some(Expr::StaticField(f))) = &body.stmts[0] else {
            panic!("expected static-field return");
        };
        assert_eq!(db.field(*f).name(), "Red");
    }

    #[test]
    fn if_and_while_statements_lower() {
        let db = compile(
            r#"
            namespace N {
                class C {
                    int Count;
                    void Tick();
                    void M(int limit) {
                        int i = 0;
                        while (i < limit) {
                            this.Tick();
                            this.Count = i;
                        }
                        if (this.Count >= limit) {
                            this.Tick();
                        } else {
                            this.Count = 0;
                        }
                    }
                }
            }
            "#,
        )
        .unwrap();
        let m = db.methods().find(|m| db.method(*m).name() == "M").unwrap();
        let body = db.method(m).body().unwrap();
        assert_eq!(body.stmts.len(), 3);
        let Stmt::While {
            body: loop_body, ..
        } = &body.stmts[1]
        else {
            panic!("expected while, got {:?}", body.stmts[1]);
        };
        assert_eq!(loop_body.len(), 2);
        let Stmt::If {
            then_body,
            else_body,
            ..
        } = &body.stmts[2]
        else {
            panic!("expected if");
        };
        assert_eq!(then_body.len(), 1);
        assert_eq!(else_body.len(), 1);
        db.check_body(m, body).unwrap();
    }

    #[test]
    fn nested_declarations_and_bad_conditions_rejected() {
        let err = compile("namespace N { class C { void M() { if (true) { int x = 1; } } } }")
            .unwrap_err();
        assert!(err.msg.contains("not allowed inside"), "{err}");
        let err =
            compile("namespace N { class C { void M(int k) { while (k) { } } } }").unwrap_err();
        assert!(err.msg.contains("condition must be boolean"), "{err}");
    }

    #[test]
    fn using_directives_open_namespaces() {
        let db = compile(
            r#"
            using Lib.Deep;
            namespace Lib.Deep { class Helper { static int Zero; } }
            namespace App {
                class C {
                    int M() { return Helper.Zero; }
                }
            }
            "#,
        )
        .unwrap();
        assert!(db.types().lookup_qualified("Lib.Deep.Helper").is_some());
    }

    /// Paths over a two-letter alphabet, so scopes, `using`s and type
    /// references collide often.
    fn path(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = Vec<String>> {
        proptest::collection::vec(
            proptest::sample::select(vec!["A".to_owned(), "B".to_owned()]),
            len,
        )
    }

    fn strs(path: &[String]) -> Vec<&str> {
        path.iter().map(String::as_str).collect()
    }

    /// The original resolution: every candidate scope joined to a dotted
    /// string, split back into segments and matched against the interned
    /// paths, then the type found by scanning the table.
    fn reference_type_ref(
        db: &Database,
        ns_path: &[String],
        usings: &[Vec<String>],
        segments: &[String],
    ) -> Option<TypeId> {
        let types = db.types();
        if segments.len() == 1 {
            if let Some(p) = PrimKind::from_keyword(&segments[0]) {
                return Some(types.prim(p));
            }
            if segments[0] == "object" {
                return Some(types.object());
            }
        }
        let (name, prefix) = segments.split_last()?;
        let mut candidates: Vec<Vec<&str>> = Vec::new();
        for i in (0..=ns_path.len()).rev() {
            let mut p: Vec<&str> = ns_path[..i].iter().map(String::as_str).collect();
            p.extend(prefix.iter().map(String::as_str));
            candidates.push(p);
        }
        for u in usings {
            let mut p: Vec<&str> = u.iter().map(String::as_str).collect();
            p.extend(prefix.iter().map(String::as_str));
            candidates.push(p);
        }
        candidates.into_iter().find_map(|cand| {
            let dotted = cand.join(".");
            let key: Vec<String> = if dotted.is_empty() {
                Vec::new()
            } else {
                dotted.split('.').map(str::to_owned).collect()
            };
            let ns = types.namespaces().iter().find(|&id| {
                types
                    .namespaces()
                    .segments(id)
                    .eq(key.iter().map(String::as_str))
            })?;
            types
                .iter()
                .find(|&t| types.get(t).namespace() == ns && types.get(t).name() == name)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Trie-walking, memoized resolution agrees with the join/split
        /// reference on random namespace sets (leaves interned without
        /// their prefixes, types in the global namespace too), `using`
        /// lists and several type references resolved twice from one
        /// scope, written with or without spaces around the dots; so does
        /// the namespace-prefix test.
        #[test]
        fn type_refs_resolve_as_the_join_split_reference(
            namespaces in proptest::collection::vec(path(1..=3), 0..10),
            types in proptest::collection::vec(
                (0usize..11, proptest::sample::select(vec!["A", "T", "U"])),
                0..20,
            ),
            ns_path in path(0..=3),
            usings in proptest::collection::vec(path(1..=2), 0..3),
            refs in proptest::collection::vec(
                (
                    path(0..=2),
                    proptest::sample::select(vec!["A", "T", "U", "int", "object", "Object"]),
                ),
                1..5,
            ),
            spaced in any::<bool>(),
        ) {
            let mut db = Database::new();
            let mut ns_ids = vec![pex_types::NamespaceId::GLOBAL];
            for p in &namespaces {
                ns_ids.push(db.types_mut().namespaces_mut().intern(p));
            }
            for (ns, ty) in types {
                let _ = db.types_mut().declare_class(ns_ids[ns % ns_ids.len()], ty);
            }
            let refs: Vec<Vec<String>> = refs
                .into_iter()
                .map(|(mut prefix, name)| {
                    prefix.push(name.to_owned());
                    prefix
                })
                .collect();
            // A file's paths are ranges of its segment arena, whose
            // segments are slices of the source text.
            let all: Vec<&Vec<String>> = [&ns_path].into_iter().chain(&usings).chain(&refs).collect();
            let dot = if spaced { " . " } else { "." };
            let source = all.iter().map(|p| p.join(dot)).collect::<Vec<_>>().join(" ");
            let mut file = ast::File { source: &source, ..Default::default() };
            let mut paths = Vec::new();
            let mut at = 0;
            for p in &all {
                paths.push(ast::Path { start: file.segments.len() as u32, len: p.len() as u32 });
                for seg in p.iter() {
                    file.segments.push(&source[at..at + seg.len()]);
                    at += seg.len() + dot.len();
                }
                // Paths are separated by a space, not a dot.
                at = at + 1 - if p.is_empty() { 0 } else { dot.len() };
            }
            let tr_paths = paths.split_off(1 + usings.len());
            file.usings = paths.split_off(1);
            let mut scopes = Scopes::new();
            let scope = scopes.add(&db, &file, paths[0]);
            for _ in 0..2 {
                for (&path, segments) in tr_paths.iter().zip(&refs) {
                    let expected_segments = strs(segments);
                    prop_assert_eq!(file.path(path), expected_segments.as_slice());
                    prop_assert_eq!(file.dotted(path).is_some(), !spaced || segments.len() == 1);
                    let tr = ast::TypeRef { path, line: 1, col: 1 };
                    prop_assert_eq!(
                        scopes.type_ref(&db, scope, &tr).ok(),
                        reference_type_ref(&db, &ns_path, &usings, segments)
                    );
                }
            }
            let prefix = &refs[0][..refs[0].len() - 1];
            let nss = db.types().namespaces();
            let reference_prefix = nss.iter().any(|id| {
                let segments: Vec<&str> = nss.segments(id).collect();
                segments.len() >= prefix.len() && segments.iter().zip(prefix).all(|(s, p)| s == p)
            });
            prop_assert_eq!(nss.is_prefix(prefix), reference_prefix);
        }
    }

    #[test]
    fn cross_file_references() {
        let db = super::super::compile_many(&[
            "namespace A { class First { static A.B.Second Make(); } }",
            "namespace A.B { class Second : A.First { } }",
        ])
        .unwrap();
        let second = db.types().lookup_qualified("A.B.Second").unwrap();
        let first = db.types().lookup_qualified("A.First").unwrap();
        assert_eq!(db.types().declared_base(second), Some(first));
    }
}
