//! # pex-abstract
//!
//! Lackwit-style **abstract type inference** (paper Section 4.1, after
//! O'Callahan & Jackson's Lackwit): partitions values into abstract types
//! ("path" vs. "font family name" strings) by unification.
//!
//! An abstract type variable is assigned to every local variable, formal
//! parameter, formal return slot, field and method receiver. A type-equality
//! constraint is added whenever a value is assigned or used as a method call
//! argument. All constraints are equalities on atoms, so the solver is a
//! union-find. Two refinements from the paper:
//!
//! * methods declared on `Object` (`ToString`, `GetHashCode`, ...) generate
//!   no constraints, so they do not merge every receiver's abstract type;
//! * overriding methods share the parameter and return slots of the method
//!   they override.
//!
//! The evaluation re-runs inference per query, "eliminating the expression
//! and all code that follows it in the enclosing method" while keeping the
//! rest of the program; [`MethodSweep`] supports that incrementally.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod unionfind;

pub use unionfind::UnionFind;

use std::collections::HashMap;

use pex_model::arena::{ArenaRead, ENode, ExprId};
use pex_model::{Database, Expr, LocalId, MethodId, Stmt};

/// Identifier of an abstract-type class (a union-find representative).
///
/// Compare classes with `==`; they are only meaningful for the
/// [`AbsTypes`] instance that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AbsClass(u32);

/// The abstract-type solution for (a subset of) a program.
///
/// Construction allocates one variable per slot and unifies override chains;
/// constraints are then added body-by-body (or statement-by-statement). All
/// queries are read-only once the constraints of interest are in.
///
/// The solution does not hold the database it was built from: every method
/// that reads the program takes it as `db`, which must be that same
/// database. Owning nothing borrowed lets a solution live next to its
/// database (a serve snapshot keeps its query site's inference).
#[derive(Debug, Clone)]
pub struct AbsTypes {
    uf: UnionFind,
    method_this: Vec<u32>,
    method_param_start: Vec<u32>,
    method_ret: Vec<u32>,
    field_vars: Vec<u32>,
    body_local_start: HashMap<MethodId, u32>,
}

impl AbsTypes {
    /// Allocates variables for every slot in `db` and links override chains.
    /// No body constraints are added yet.
    ///
    /// The slot tables are sized and filled by raw member id, tombstones
    /// included, because every lookup indexes them by raw id. A
    /// tombstone's slots stay inert: it has no body and no override edge,
    /// so nothing unifies them.
    pub fn new(db: &Database) -> Self {
        let mut uf = UnionFind::new();
        let mut method_this = Vec::with_capacity(db.method_count());
        let mut method_param_start = Vec::with_capacity(db.method_count());
        let mut method_ret = Vec::with_capacity(db.method_count());
        for i in 0..db.method_count() {
            let md = db.method(MethodId::from_index(i));
            method_this.push(uf.push());
            let start = uf.len() as u32;
            method_param_start.push(start);
            for _ in 0..md.params().len() {
                uf.push();
            }
            method_ret.push(uf.push());
        }
        let field_vars = (0..db.field_count()).map(|_| uf.push()).collect();
        let mut body_local_start = HashMap::new();
        for (m, body) in db.bodies() {
            let start = uf.len() as u32;
            for _ in body.param_count..body.locals.len() {
                uf.push();
            }
            body_local_start.insert(m, start);
        }
        let mut this = AbsTypes {
            uf,
            method_this,
            method_param_start,
            method_ret,
            field_vars,
            body_local_start,
        };
        // Overriding methods share the base definition's slots.
        for m in db.methods() {
            if let Some(base) = db.method(m).overrides() {
                let root = db.root_method(m);
                debug_assert_eq!(db.root_method(base), root);
                this.uf
                    .union(this.method_this[m.index()], this.method_this[root.index()]);
                this.uf
                    .union(this.method_ret[m.index()], this.method_ret[root.index()]);
                let n = db
                    .method(m)
                    .params()
                    .len()
                    .min(db.method(root).params().len());
                for i in 0..n {
                    let a = this.method_param_start[m.index()] + i as u32;
                    let b = this.method_param_start[root.index()] + i as u32;
                    this.uf.union(a, b);
                }
            }
        }
        this
    }

    fn is_object_method(db: &Database, m: MethodId) -> bool {
        let root = db.root_method(m);
        db.method(root).declaring() == db.types().object()
    }

    /// Variable of a local slot of `m`'s body (parameters resolve to the
    /// method's parameter slots).
    fn local_var(&self, db: &Database, m: MethodId, l: LocalId) -> Option<u32> {
        debug_assert_eq!(self.method_ret.len(), db.method_count(), "a foreign db");
        let md = db.method(m);
        let param_count = md.params().len();
        if l.index() < param_count {
            return Some(self.method_param_start[m.index()] + l.index() as u32);
        }
        let start = *self.body_local_start.get(&m)?;
        let body = md.body()?;
        if l.index() >= body.locals.len() {
            return None;
        }
        Some(start + (l.index() - param_count) as u32)
    }

    /// Variable of the receiver-first argument slot `i` of a call to `m`
    /// (slot 0 of an instance method is the receiver). `None` for methods
    /// declared on `Object`.
    fn param_var_full(&self, db: &Database, m: MethodId, i: usize) -> Option<u32> {
        if Self::is_object_method(db, m) {
            return None;
        }
        let root = db.root_method(m);
        let md = db.method(root);
        if !md.is_static() {
            if i == 0 {
                return Some(self.method_this[root.index()]);
            }
            let pi = i - 1;
            if pi < md.params().len() {
                return Some(self.method_param_start[root.index()] + pi as u32);
            }
            return None;
        }
        if i < md.params().len() {
            Some(self.method_param_start[root.index()] + i as u32)
        } else {
            None
        }
    }

    fn ret_var(&self, db: &Database, m: MethodId) -> Option<u32> {
        if Self::is_object_method(db, m) {
            return None;
        }
        let root = db.root_method(m);
        Some(self.method_ret[root.index()])
    }

    /// Abstract class of an interned expression evaluated inside
    /// `enclosing` (if it has one; literals and opaque expressions do not).
    /// Only the top node matters (a lookup chain's class is its trailing
    /// member's), so the walk never descends and needs no materialization.
    pub fn expr_class(
        &self,
        db: &Database,
        enclosing: Option<MethodId>,
        arena: &ArenaRead<'_>,
        id: ExprId,
    ) -> Option<AbsClass> {
        let v = match arena.node(id) {
            ENode::Local(l) => self.local_var(db, enclosing?, *l),
            ENode::This => {
                let m = enclosing?;
                let root = db.root_method(m);
                Some(self.method_this[root.index()])
            }
            ENode::StaticField(f) | ENode::FieldAccess(_, f) => Some(self.field_vars[f.index()]),
            ENode::Call(m, _) => self.ret_var(db, *m),
            _ => None,
        }?;
        Some(AbsClass(self.uf.find(v)))
    }

    fn expr_var(&self, db: &Database, enclosing: Option<MethodId>, e: &Expr) -> Option<u32> {
        match e {
            Expr::Local(l) => self.local_var(db, enclosing?, *l),
            Expr::This => {
                let m = enclosing?;
                let root = db.root_method(m);
                Some(self.method_this[root.index()])
            }
            Expr::StaticField(f) | Expr::FieldAccess(_, f) => Some(self.field_vars[f.index()]),
            Expr::Call(m, _) => self.ret_var(db, *m),
            _ => None,
        }
    }

    /// Adds the constraints of one statement of `m`'s body.
    pub fn add_stmt(&mut self, db: &Database, m: MethodId, stmt: &Stmt) {
        let mut pairs = Vec::new();
        self.stmt_constraints(db, m, stmt, &mut pairs);
        for (a, b) in pairs {
            self.uf.union(a, b);
        }
    }

    /// Collects the unification pairs one statement induces, without
    /// applying them. Variable ids are deterministic for a given database,
    /// so collected pairs stay valid for any fresh [`AbsTypes::new`] over
    /// the same database — the basis of [`ConstraintCache`].
    fn stmt_constraints(&self, db: &Database, m: MethodId, stmt: &Stmt, out: &mut Vec<(u32, u32)>) {
        match stmt {
            Stmt::Init(l, e) => {
                self.expr_constraints(db, m, e, out);
                if let (Some(lv), Some(ev)) =
                    (self.local_var(db, m, *l), self.expr_var(db, Some(m), e))
                {
                    out.push((lv, ev));
                }
            }
            Stmt::Expr(e) => self.expr_constraints(db, m, e, out),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                self.expr_constraints(db, m, cond, out);
                for inner in then_body.iter().chain(else_body.iter()) {
                    self.stmt_constraints(db, m, inner, out);
                }
            }
            Stmt::While { cond, body } => {
                self.expr_constraints(db, m, cond, out);
                for inner in body {
                    self.stmt_constraints(db, m, inner, out);
                }
            }
            Stmt::Return(Some(e)) => {
                self.expr_constraints(db, m, e, out);
                if let (Some(rv), Some(ev)) = (self.ret_var(db, m), self.expr_var(db, Some(m), e)) {
                    out.push((rv, ev));
                }
            }
            Stmt::Return(None) => {}
        }
    }

    fn expr_constraints(&self, db: &Database, m: MethodId, e: &Expr, out: &mut Vec<(u32, u32)>) {
        match e {
            Expr::Call(callee, args) => {
                for a in args {
                    self.expr_constraints(db, m, a, out);
                }
                for (i, a) in args.iter().enumerate() {
                    if let (Some(av), Some(pv)) = (
                        self.expr_var(db, Some(m), a),
                        self.param_var_full(db, *callee, i),
                    ) {
                        out.push((av, pv));
                    }
                }
            }
            Expr::Assign(l, r) => {
                self.expr_constraints(db, m, l, out);
                self.expr_constraints(db, m, r, out);
                if let (Some(lv), Some(rv)) =
                    (self.expr_var(db, Some(m), l), self.expr_var(db, Some(m), r))
                {
                    out.push((lv, rv));
                }
            }
            Expr::FieldAccess(b, _) => self.expr_constraints(db, m, b, out),
            Expr::Cmp(_, l, r) => {
                self.expr_constraints(db, m, l, out);
                self.expr_constraints(db, m, r, out);
            }
            _ => {}
        }
    }

    /// Adds the constraints of the first `upto` statements of `m`'s body.
    pub fn add_body_prefix(&mut self, db: &Database, m: MethodId, upto: usize) {
        let Some(body) = db.method(m).body() else {
            return;
        };
        for stmt in body.stmts.iter().take(upto) {
            self.add_stmt(db, m, stmt);
        }
    }

    /// Adds the constraints of `m`'s whole body.
    pub fn add_body(&mut self, db: &Database, m: MethodId) {
        self.add_body_prefix(db, m, usize::MAX);
    }

    /// Adds every body in the program, optionally skipping one method (the
    /// query's enclosing method, whose prefix is added separately).
    pub fn add_all_bodies_except(&mut self, db: &Database, skip: Option<MethodId>) {
        for m in db.methods() {
            if Some(m) != skip {
                self.add_body(db, m);
            }
        }
    }

    /// Applies every cached body's constraints except `skip`'s.
    pub fn apply_cached_except(&mut self, cache: &ConstraintCache, skip: Option<MethodId>) {
        for (m, pairs) in cache.per_method.iter() {
            if Some(*m) == skip {
                continue;
            }
            for &(_, a, b) in pairs {
                self.uf.union(a, b);
            }
        }
    }

    /// Applies `m`'s cached constraints for statements with top-level index
    /// strictly below `upto`.
    pub fn apply_cached_prefix(&mut self, cache: &ConstraintCache, m: MethodId, upto: usize) {
        if let Some(pairs) = cache.per_method.get(&m) {
            for &(stmt, a, b) in pairs {
                if stmt < upto {
                    self.uf.union(a, b);
                }
            }
        }
    }

    /// Convenience: the solution the paper's evaluation uses for a query at
    /// statement `stmt_index` of `enclosing` — every other body in full plus
    /// the enclosing body up to (excluding) the query statement.
    pub fn for_query(db: &Database, enclosing: MethodId, stmt_index: usize) -> Self {
        let mut abs = AbsTypes::new(db);
        abs.add_all_bodies_except(db, Some(enclosing));
        abs.add_body_prefix(db, enclosing, stmt_index);
        abs
    }

    /// Abstract class of the receiver-first argument slot `i` of `m`.
    pub fn param_class(&self, db: &Database, m: MethodId, i: usize) -> Option<AbsClass> {
        self.param_var_full(db, m, i)
            .map(|v| AbsClass(self.uf.find(v)))
    }

    /// Abstract class of a field slot.
    pub fn field_class(&self, f: pex_model::FieldId) -> Option<AbsClass> {
        Some(AbsClass(self.uf.find(self.field_vars[f.index()])))
    }

    /// Abstract class of a method's return slot.
    pub fn return_class(&self, db: &Database, m: MethodId) -> Option<AbsClass> {
        self.ret_var(db, m).map(|v| AbsClass(self.uf.find(v)))
    }

    /// The paper's match predicate: abstract types match only when **both**
    /// are defined and equal ("considered not equal if both are undefined").
    pub fn matches(a: Option<AbsClass>, b: Option<AbsClass>) -> bool {
        matches!((a, b), (Some(x), Some(y)) if x == y)
    }

    /// Renders the non-trivial abstract classes (those merging at least two
    /// slots) as human-readable slot descriptions — the solver's
    /// conclusions, e.g. the Family.Show "path-like" class:
    ///
    /// ```text
    /// [Sys.Path.Combine#arg0, Sys.Directory.Exists#arg0, Sys.Path.Combine#ret, ...]
    /// ```
    ///
    /// Classes are ordered by size (largest first), slots lexicographically.
    pub fn dump_classes(&self, db: &Database) -> Vec<Vec<String>> {
        let mut groups: HashMap<u32, Vec<String>> = HashMap::new();
        let add = |groups: &mut HashMap<u32, Vec<String>>, var: u32, label: String| {
            groups.entry(self.uf.find(var)).or_default().push(label);
        };
        for m in db.methods() {
            let md = db.method(m);
            // Only root definitions get labels; overrides share their slots.
            if md.overrides().is_some() {
                continue;
            }
            let base = db.qualified_method_name(m);
            if !md.is_static() {
                add(
                    &mut groups,
                    self.method_this[m.index()],
                    format!("{base}#this"),
                );
            }
            for (i, _) in md.params().iter().enumerate() {
                add(
                    &mut groups,
                    self.method_param_start[m.index()] + i as u32,
                    format!("{base}#arg{i}"),
                );
            }
            add(
                &mut groups,
                self.method_ret[m.index()],
                format!("{base}#ret"),
            );
            if let Some(body) = md.body() {
                let start = self.body_local_start.get(&m).copied();
                for (li, (name, _)) in body.locals.iter().enumerate().skip(body.param_count) {
                    if let Some(start) = start {
                        add(
                            &mut groups,
                            start + (li - body.param_count) as u32,
                            format!("{base}::{name}"),
                        );
                    }
                }
            }
        }
        for f in db.fields() {
            add(
                &mut groups,
                self.field_vars[f.index()],
                db.qualified_field_name(f),
            );
        }
        let mut out: Vec<Vec<String>> = groups
            .into_values()
            .filter(|slots| slots.len() >= 2)
            .collect();
        for slots in &mut out {
            slots.sort();
        }
        out.sort_by(|a, b| b.len().cmp(&a.len()).then_with(|| a.cmp(b)));
        out
    }
}

/// Precomputed unification constraints for every body, tagged with the
/// top-level statement index they arise from.
///
/// Abstract variable ids depend only on the database (allocation order is
/// fixed), so the cache is computed once and replayed into any number of
/// fresh [`AbsTypes`] instances — turning the per-query re-run of the
/// paper's evaluation from a statement-tree walk into a flat slice of
/// union operations (the "can be done incrementally" remark of Section
/// 5.1).
#[derive(Debug, Clone, Default)]
pub struct ConstraintCache {
    per_method: HashMap<MethodId, Vec<(usize, u32, u32)>>,
}

impl ConstraintCache {
    /// Collects the constraints of every body in the database.
    pub fn build(db: &Database) -> Self {
        let scratch = AbsTypes::new(db);
        let mut per_method = HashMap::new();
        for (m, body) in db.bodies() {
            let mut pairs = Vec::new();
            for (si, stmt) in body.stmts.iter().enumerate() {
                let mut stmt_pairs = Vec::new();
                scratch.stmt_constraints(db, m, stmt, &mut stmt_pairs);
                pairs.extend(stmt_pairs.into_iter().map(|(a, b)| (si, a, b)));
            }
            per_method.insert(m, pairs);
        }
        ConstraintCache { per_method }
    }

    /// Total number of cached constraints.
    pub fn len(&self) -> usize {
        self.per_method.values().map(Vec::len).sum()
    }

    /// Whether no body produced constraints.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Incremental per-method solver for evaluation sweeps.
///
/// Experiments walk the statements of a method in order, re-running inference
/// at each query site with the suffix hidden. `MethodSweep` holds one
/// [`AbsTypes`] with all *other* bodies added and feeds the enclosing body's
/// statements in as the sweep advances — equivalent to a fresh
/// [`AbsTypes::for_query`] at each statement, but amortised.
#[derive(Debug)]
pub struct MethodSweep<'db> {
    db: &'db Database,
    abs: AbsTypes,
    method: MethodId,
    added: usize,
}

impl<'db> MethodSweep<'db> {
    /// Creates a sweep for `method`: all other bodies are added, none of
    /// `method`'s own statements yet (position 0).
    pub fn new(db: &'db Database, method: MethodId) -> Self {
        let mut abs = AbsTypes::new(db);
        abs.add_all_bodies_except(db, Some(method));
        MethodSweep {
            db,
            abs,
            method,
            added: 0,
        }
    }

    /// Like [`MethodSweep::new`], but replays a prebuilt [`ConstraintCache`]
    /// instead of re-walking every body — much faster when sweeping many
    /// methods of the same program.
    pub fn with_cache(db: &'db Database, cache: &ConstraintCache, method: MethodId) -> Self {
        let mut abs = AbsTypes::new(db);
        abs.apply_cached_except(cache, Some(method));
        MethodSweep {
            db,
            abs,
            method,
            added: 0,
        }
    }

    /// Advances so that statements `0..stmt_index` are included, and
    /// returns the solution there. Positions only move forward; a smaller
    /// index leaves the solution as it is (union-find cannot forget).
    pub fn advance_to(&mut self, stmt_index: usize) -> &AbsTypes {
        if let Some(body) = self.db.method(self.method).body() {
            for stmt in body.stmts.iter().take(stmt_index).skip(self.added) {
                self.abs.add_stmt(self.db, self.method, stmt);
            }
            self.added = self.added.max(stmt_index.min(body.stmts.len()));
        }
        &self.abs
    }

    /// The method being swept.
    pub fn method(&self) -> MethodId {
        self.method
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;
    use pex_model::ExprArena;

    /// The paper's Family.Show example: `Path.Combine` chains must infer
    /// a "path-like" abstract type for first arguments and return values,
    /// distinct from the "name-like" second arguments.
    const FAMILY_SHOW: &str = r#"
        namespace Sys {
            class Path {
                static string Combine(string a, string b);
            }
            class Directory {
                static bool Exists(string path);
                static void CreateDirectory(string path);
            }
            class Environment {
                static string GetFolderPath(Sys.Folder f);
            }
            enum Folder { MyDocuments }
            class App { static string ApplicationFolderName; }
            class Const { static string DataFileName; }
        }
        namespace FamilyShow {
            class Store {
                string GetDataPath() {
                    var appLocation = Sys.Path.Combine(
                        Sys.Environment.GetFolderPath(Sys.Folder.MyDocuments),
                        Sys.App.ApplicationFolderName);
                    Sys.Directory.Exists(appLocation);
                    Sys.Directory.CreateDirectory(appLocation);
                    return Sys.Path.Combine(appLocation, Sys.Const.DataFileName);
                }
            }
        }
    "#;

    fn method_by_name(db: &Database, name: &str) -> MethodId {
        db.methods().find(|m| db.method(*m).name() == name).unwrap()
    }

    #[test]
    fn family_show_partitions_paths_from_names() {
        let db = compile(FAMILY_SHOW).unwrap();
        let mut abs = AbsTypes::new(&db);
        abs.add_all_bodies_except(&db, None);

        let combine = method_by_name(&db, "Combine");
        let exists = method_by_name(&db, "Exists");
        let create = method_by_name(&db, "CreateDirectory");
        let get_folder = method_by_name(&db, "GetFolderPath");

        // First arguments of Combine/Exists/CreateDirectory are one class...
        let c0 = abs.param_class(&db, combine, 0);
        assert!(AbsTypes::matches(c0, abs.param_class(&db, exists, 0)));
        assert!(AbsTypes::matches(c0, abs.param_class(&db, create, 0)));
        // ... shared with the return of Combine and GetFolderPath ...
        assert!(AbsTypes::matches(c0, abs.return_class(&db, combine)));
        assert!(AbsTypes::matches(c0, abs.return_class(&db, get_folder)));
        // ... but NOT with Combine's second argument (the "name" type).
        assert!(!AbsTypes::matches(c0, abs.param_class(&db, combine, 1)));
        // The two name-like globals share the second argument's class.
        let name_class = abs.param_class(&db, combine, 1);
        let app_name = db
            .fields()
            .find(|f| db.field(*f).name() == "ApplicationFolderName")
            .unwrap();
        let data_name = db
            .fields()
            .find(|f| db.field(*f).name() == "DataFileName")
            .unwrap();
        assert!(AbsTypes::matches(name_class, abs.field_class(app_name)));
        assert!(AbsTypes::matches(name_class, abs.field_class(data_name)));
    }

    #[test]
    fn dump_classes_shows_the_path_partition() {
        let db = compile(FAMILY_SHOW).unwrap();
        let mut abs = AbsTypes::new(&db);
        abs.add_all_bodies_except(&db, None);
        let classes = abs.dump_classes(&db);
        // The "path-like" class holds Combine's first argument, Exists's
        // argument and Combine's return, among others.
        let path_class = classes
            .iter()
            .find(|c| c.iter().any(|s| s == "Sys.Path.Combine#arg0"))
            .expect("path class exists");
        assert!(
            path_class.iter().any(|s| s == "Sys.Directory.Exists#arg0"),
            "{path_class:?}"
        );
        assert!(
            path_class.iter().any(|s| s == "Sys.Path.Combine#ret"),
            "{path_class:?}"
        );
        // ... and NOT the name-like second argument.
        assert!(
            !path_class.iter().any(|s| s == "Sys.Path.Combine#arg1"),
            "{path_class:?}"
        );
        // Classes are in descending size order.
        for w in classes.windows(2) {
            assert!(w[0].len() >= w[1].len());
        }
    }

    #[test]
    fn undefined_never_matches() {
        assert!(!AbsTypes::matches(None, None));
        assert!(!AbsTypes::matches(Some(AbsClass(1)), None));
        assert!(AbsTypes::matches(Some(AbsClass(1)), Some(AbsClass(1))));
        assert!(!AbsTypes::matches(Some(AbsClass(1)), Some(AbsClass(2))));
    }

    #[test]
    fn object_methods_do_not_merge() {
        let mut db = compile(
            r#"
            namespace N {
                class A { }
                class B { }
                class Client { static void M2(N.A a, N.B b); }
            }
            "#,
        )
        .unwrap();
        // Declare ToString on Object and hand-build a body that calls it on
        // both an A and a B receiver.
        let (obj, string) = (db.types().object(), db.types().string_ty());
        let public = pex_model::Visibility::Public;
        let to_string = db
            .member_batch()
            .add_method(obj, "ToString", false, &[], string, public);
        let a_ty = db.types().lookup_qualified("N.A").unwrap();
        let b_ty = db.types().lookup_qualified("N.B").unwrap();
        let m = db.find_method("N.Client.M2").unwrap();
        let body = pex_model::Body {
            locals: vec![("a".into(), a_ty), ("b".into(), b_ty)],
            param_count: 2,
            stmts: vec![
                pex_model::Stmt::Expr(Expr::Call(to_string, vec![Expr::Local(LocalId(0))])),
                pex_model::Stmt::Expr(Expr::Call(to_string, vec![Expr::Local(LocalId(1))])),
            ],
        };
        db.set_body(m, body);
        let mut abs = AbsTypes::new(&db);
        abs.add_all_bodies_except(&db, None);
        let pa = abs.param_class(&db, m, 0);
        let pb = abs.param_class(&db, m, 1);
        assert!(pa.is_some() && pb.is_some());
        assert_ne!(pa, pb, "Object-declared methods must not merge receivers");
        // The call expression itself has no abstract type.
        let arena = ExprArena::new();
        let call = arena.intern_expr(&Expr::Call(to_string, vec![Expr::Local(LocalId(0))]));
        assert_eq!(abs.expr_class(&db, Some(m), &arena.read(), call), None);
    }

    #[test]
    fn sweep_matches_fresh_solutions() {
        let db = compile(FAMILY_SHOW).unwrap();
        let m = method_by_name(&db, "GetDataPath");
        let nstmts = db.method(m).body().unwrap().stmts.len();
        let combine = method_by_name(&db, "Combine");
        let exists = method_by_name(&db, "Exists");
        let mut sweep = MethodSweep::new(&db, m);
        for k in 0..=nstmts {
            let swept = sweep.advance_to(k);
            let fresh = AbsTypes::for_query(&db, m, k);
            let a = AbsTypes::matches(
                swept.param_class(&db, combine, 0),
                swept.param_class(&db, exists, 0),
            );
            let b = AbsTypes::matches(
                fresh.param_class(&db, combine, 0),
                fresh.param_class(&db, exists, 0),
            );
            assert_eq!(a, b, "sweep and fresh solutions disagree at stmt {k}");
        }
    }

    #[test]
    fn cached_sweeps_match_fresh_solutions() {
        let db = compile(FAMILY_SHOW).unwrap();
        let cache = ConstraintCache::build(&db);
        assert!(!cache.is_empty());
        let m = method_by_name(&db, "GetDataPath");
        let combine = method_by_name(&db, "Combine");
        let exists = method_by_name(&db, "Exists");
        let nstmts = db.method(m).body().unwrap().stmts.len();
        for k in 0..=nstmts {
            let mut fresh = AbsTypes::new(&db);
            fresh.add_all_bodies_except(&db, Some(m));
            fresh.add_body_prefix(&db, m, k);
            let mut cached = AbsTypes::new(&db);
            cached.apply_cached_except(&cache, Some(m));
            cached.apply_cached_prefix(&cache, m, k);
            // Same partition on the interesting slots.
            for (a, b) in [
                (
                    fresh.param_class(&db, combine, 0),
                    cached.param_class(&db, combine, 0),
                ),
                (
                    fresh.param_class(&db, exists, 0),
                    cached.param_class(&db, exists, 0),
                ),
                (
                    fresh.return_class(&db, combine),
                    cached.return_class(&db, combine),
                ),
            ] {
                // Classes are instance-relative; compare match-structure.
                let _ = (a, b);
            }
            assert_eq!(
                AbsTypes::matches(
                    fresh.param_class(&db, combine, 0),
                    fresh.param_class(&db, exists, 0)
                ),
                AbsTypes::matches(
                    cached.param_class(&db, combine, 0),
                    cached.param_class(&db, exists, 0)
                ),
                "fresh and cached solutions disagree at stmt {k}"
            );
            assert_eq!(
                AbsTypes::matches(
                    fresh.param_class(&db, combine, 0),
                    fresh.return_class(&db, combine)
                ),
                AbsTypes::matches(
                    cached.param_class(&db, combine, 0),
                    cached.return_class(&db, combine)
                ),
            );
        }
        // And the sweep wrapper agrees too.
        let mut sweep = MethodSweep::with_cache(&db, &cache, m);
        let swept = sweep.advance_to(nstmts);
        let full = AbsTypes::for_query(&db, m, nstmts);
        assert_eq!(
            AbsTypes::matches(
                swept.param_class(&db, combine, 0),
                swept.param_class(&db, exists, 0)
            ),
            AbsTypes::matches(
                full.param_class(&db, combine, 0),
                full.param_class(&db, exists, 0)
            ),
        );
    }

    #[test]
    fn prefix_hides_later_constraints() {
        let db = compile(FAMILY_SHOW).unwrap();
        let m = method_by_name(&db, "GetDataPath");
        let combine = method_by_name(&db, "Combine");
        let exists = method_by_name(&db, "Exists");
        // Before any statement of GetDataPath, nothing ties Combine's first
        // argument to Exists's argument (no other body mentions them).
        let abs0 = AbsTypes::for_query(&db, m, 0);
        assert!(!AbsTypes::matches(
            abs0.param_class(&db, combine, 0),
            abs0.param_class(&db, exists, 0)
        ));
        // After statement 2 (the Exists call), the *local* appLocation is
        // unified with Exists's parameter, but Combine's first parameter is
        // only tied in by the final `return Path.Combine(appLocation, ...)`.
        let abs2 = AbsTypes::for_query(&db, m, 2);
        let arena = ExprArena::new();
        let app_location = arena.local(LocalId(0));
        assert!(AbsTypes::matches(
            abs2.expr_class(&db, Some(m), &arena.read(), app_location),
            abs2.param_class(&db, exists, 0)
        ));
        assert!(!AbsTypes::matches(
            abs2.param_class(&db, combine, 0),
            abs2.param_class(&db, exists, 0)
        ));
        let abs_full = AbsTypes::for_query(&db, m, 4);
        assert!(AbsTypes::matches(
            abs_full.param_class(&db, combine, 0),
            abs_full.param_class(&db, exists, 0)
        ));
    }

    #[test]
    fn overrides_share_slots() {
        let db = compile(
            r#"
            namespace N {
                class Base { int Consume(string s) { return 0; } }
                class Derived : Base { int Consume(string s) { return 1; } }
            }
            "#,
        )
        .unwrap();
        let base = db
            .methods()
            .find(|m| {
                db.method(*m).name() == "Consume"
                    && db.types().qualified_name(db.method(*m).declaring()) == "N.Base"
            })
            .unwrap();
        let derived = db
            .methods()
            .find(|m| {
                db.method(*m).name() == "Consume"
                    && db.types().qualified_name(db.method(*m).declaring()) == "N.Derived"
            })
            .unwrap();
        let abs = AbsTypes::new(&db);
        assert!(AbsTypes::matches(
            abs.param_class(&db, base, 1),
            abs.param_class(&db, derived, 1)
        ));
        assert!(AbsTypes::matches(
            abs.return_class(&db, base),
            abs.return_class(&db, derived)
        ));
        assert!(AbsTypes::matches(
            abs.param_class(&db, base, 0),
            abs.param_class(&db, derived, 0)
        ));
    }
}
