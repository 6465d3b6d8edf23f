//! The ranking function of paper Figure 7, with per-term toggles.
//!
//! A completion's score is a **sum of non-negative integer terms** (lower is
//! better), so any partial sum is a lower bound — the property the engine's
//! best-first search relies on. The terms, reconstructed from Section 4.1
//! (see DESIGN.md for the reconstruction notes):
//!
//! * **type distance** — `td(type(arg), type(param))` summed over argument
//!   positions; for binary operators, the distance between the two operand
//!   types;
//! * **abstract types** — `+1` per argument whose inferred abstract type
//!   does not match the parameter's (undefined never matches);
//! * **depth** — `2` per member-access link introduced by the expression;
//! * **in-scope static** — `+1` unless the called method is a static method
//!   of the enclosing type (callable without qualification);
//! * **common namespace** — `3 − min(3, p)` where `p` is the common prefix
//!   of the namespaces of the non-primitive argument types and the declaring
//!   type (`p = 0` when fewer than two non-primitive arguments participate);
//! * **matching name** — `+3` on comparisons whose two sides do not end in
//!   lookups of the same name.
//!
//! Zero-argument calls (instance or static) are scored as lookups — depth
//! only — because the paper treats them as property sugar; the call-specific
//! terms apply to calls with declared parameters.
//!
//! Typing, scoring and explaining are one bottom-up walk over interned arena
//! nodes, since every term is read off subexpression types. Each node takes
//! its type from its children's walk results, rejecting exactly what
//! [`Database::expr_ty`] rejects, and adds each term's share into a
//! per-term accumulator. [`Ranker::score`] returns the accumulator's sum
//! with the type and [`Ranker::explain`] the accumulator itself, so the two
//! cannot disagree. Typing an expression is linear in its node count.

mod bound;

pub use bound::ScoreBound;

use pex_abstract::AbsTypes;
use pex_model::{ArenaRead, Context, Database, ENode, ExprArena, ExprId, MethodId, ValueTy};
use pex_types::{NamespaceId, TypeId};

/// The individually toggleable ranking terms (paper Table 2's columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankTerm {
    /// `n` — common namespace.
    Namespace,
    /// `s` — in-scope static.
    InScopeStatic,
    /// `d` — depth.
    Depth,
    /// `m` — matching name.
    MatchingName,
    /// `t` — normal type distance.
    TypeDistance,
    /// `a` — abstract type distance.
    AbstractTypes,
}

impl RankTerm {
    /// All terms, in the paper's `n s d m t a` order.
    pub const ALL: [RankTerm; 6] = [
        RankTerm::Namespace,
        RankTerm::InScopeStatic,
        RankTerm::Depth,
        RankTerm::MatchingName,
        RankTerm::TypeDistance,
        RankTerm::AbstractTypes,
    ];

    /// Position of the term in [`RankTerm::ALL`] (the accumulator index
    /// of the ranking walk).
    pub fn index(self) -> usize {
        match self {
            RankTerm::Namespace => 0,
            RankTerm::InScopeStatic => 1,
            RankTerm::Depth => 2,
            RankTerm::MatchingName => 3,
            RankTerm::TypeDistance => 4,
            RankTerm::AbstractTypes => 5,
        }
    }

    /// The paper's one-letter code for the term.
    pub fn code(self) -> char {
        match self {
            RankTerm::Namespace => 'n',
            RankTerm::InScopeStatic => 's',
            RankTerm::Depth => 'd',
            RankTerm::MatchingName => 'm',
            RankTerm::TypeDistance => 't',
            RankTerm::AbstractTypes => 'a',
        }
    }
}

/// Which ranking terms are active. `Default` enables everything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankConfig {
    /// Common-namespace term.
    pub namespace: bool,
    /// In-scope-static term.
    pub in_scope_static: bool,
    /// Depth (dots) term.
    pub depth: bool,
    /// Matching-name term for comparisons.
    pub matching_name: bool,
    /// Class-hierarchy type distance.
    pub type_distance: bool,
    /// Abstract-type mismatch term.
    pub abstract_types: bool,
}

impl Default for RankConfig {
    fn default() -> Self {
        RankConfig::all()
    }
}

impl RankConfig {
    /// Every term enabled (the paper's "All" configuration).
    pub fn all() -> Self {
        RankConfig {
            namespace: true,
            in_scope_static: true,
            depth: true,
            matching_name: true,
            type_distance: true,
            abstract_types: true,
        }
    }

    /// Every term disabled (scores everything 0; ordering is generation
    /// order — useful as a degenerate baseline).
    pub fn none() -> Self {
        RankConfig {
            namespace: false,
            in_scope_static: false,
            depth: false,
            matching_name: false,
            type_distance: false,
            abstract_types: false,
        }
    }

    /// Only the listed terms enabled (the paper's `+x` columns).
    pub fn only(terms: &[RankTerm]) -> Self {
        let mut cfg = RankConfig::none();
        for t in terms {
            cfg.set(*t, true);
        }
        cfg
    }

    /// All terms except the listed ones (the paper's `-x` columns).
    pub fn without(terms: &[RankTerm]) -> Self {
        let mut cfg = RankConfig::all();
        for t in terms {
            cfg.set(*t, false);
        }
        cfg
    }

    /// Enables or disables one term.
    pub fn set(&mut self, term: RankTerm, on: bool) {
        match term {
            RankTerm::Namespace => self.namespace = on,
            RankTerm::InScopeStatic => self.in_scope_static = on,
            RankTerm::Depth => self.depth = on,
            RankTerm::MatchingName => self.matching_name = on,
            RankTerm::TypeDistance => self.type_distance = on,
            RankTerm::AbstractTypes => self.abstract_types = on,
        }
    }

    /// Whether a term is enabled.
    pub fn enabled(&self, term: RankTerm) -> bool {
        match term {
            RankTerm::Namespace => self.namespace,
            RankTerm::InScopeStatic => self.in_scope_static,
            RankTerm::Depth => self.depth,
            RankTerm::MatchingName => self.matching_name,
            RankTerm::TypeDistance => self.type_distance,
            RankTerm::AbstractTypes => self.abstract_types,
        }
    }

    /// The 15 configurations of the paper's Table 2, with their column
    /// labels: `All`, `-n -s -d -m -t -a -at`, `+n +s +d +m +t +a +at`.
    pub fn table2_variants() -> Vec<(String, RankConfig)> {
        let mut out = vec![("All".to_owned(), RankConfig::all())];
        for t in RankTerm::ALL {
            out.push((format!("-{}", t.code()), RankConfig::without(&[t])));
        }
        out.push((
            "-at".to_owned(),
            RankConfig::without(&[RankTerm::AbstractTypes, RankTerm::TypeDistance]),
        ));
        for t in RankTerm::ALL {
            out.push((format!("+{}", t.code()), RankConfig::only(&[t])));
        }
        out.push((
            "+at".to_owned(),
            RankConfig::only(&[RankTerm::AbstractTypes, RankTerm::TypeDistance]),
        ));
        out
    }
}

/// A per-term decomposition of a completion's score.
///
/// The ranking function is a sum of independent non-negative terms, so the
/// decomposition is exact: the term values always sum to the score under
/// the corresponding configuration (a property test checks this).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoreBreakdown {
    /// `(term, contribution)` for every term, in [`RankTerm::ALL`] order.
    pub terms: [(RankTerm, u32); 6],
    /// The total score under the ranker's configuration.
    pub total: u32,
}

impl ScoreBreakdown {
    /// Builds a breakdown from per-term contributions in [`RankTerm::ALL`]
    /// order; `total` is their sum.
    fn from_contributions(acc: [u32; 6]) -> ScoreBreakdown {
        let mut terms = [(RankTerm::Namespace, 0u32); 6];
        let mut total = 0u32;
        for ((slot, term), value) in terms.iter_mut().zip(RankTerm::ALL).zip(acc) {
            *slot = (term, value);
            total += value;
        }
        ScoreBreakdown { terms, total }
    }

    /// Contribution of one term.
    ///
    /// # Panics
    ///
    /// Panics if `terms` does not contain every [`RankTerm`] variant — the
    /// ranker always constructs breakdowns in [`RankTerm::ALL`] order, so
    /// this only fires on a hand-built malformed value.
    pub fn term(&self, term: RankTerm) -> u32 {
        self.terms
            .iter()
            .find(|(t, _)| *t == term)
            .map(|(_, v)| *v)
            .expect("all terms present")
    }
}

/// Types and scores completed, interned expressions (the specification the
/// engine follows).
///
/// `abs` is optional: without a solution every abstract type is undefined,
/// which uniformly penalises all argument positions when the term is on.
#[derive(Clone, Copy)]
pub struct Ranker<'a> {
    /// The program database.
    pub db: &'a Database,
    /// The query context (locals, enclosing type).
    pub ctx: &'a Context,
    /// Abstract-type solution, if available.
    pub abs: Option<&'a AbsTypes>,
    /// Active terms.
    pub config: RankConfig,
}

impl<'a> std::fmt::Debug for Ranker<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ranker")
            .field("config", &self.config)
            .field("has_abs", &self.abs.is_some())
            .finish()
    }
}

impl<'a> Ranker<'a> {
    /// Creates a ranker.
    pub fn new(
        db: &'a Database,
        ctx: &'a Context,
        abs: Option<&'a AbsTypes>,
        config: RankConfig,
    ) -> Self {
        Ranker {
            db,
            ctx,
            abs,
            config,
        }
    }

    /// The cost of one member-access link.
    pub fn link_cost(&self) -> u32 {
        if self.eval(RankTerm::Depth) {
            2
        } else {
            0
        }
    }

    /// Whether `term` is enabled, counting one evaluation of it
    /// (`rank.term.*.evals`) when it is.
    fn eval(&self, term: RankTerm) -> bool {
        if !self.config.enabled(term) {
            return false;
        }
        match term {
            RankTerm::Namespace => pex_obs::counter!("rank.term.namespace.evals", 1),
            RankTerm::InScopeStatic => pex_obs::counter!("rank.term.in_scope_static.evals", 1),
            RankTerm::Depth => pex_obs::counter!("rank.term.depth.evals", 1),
            RankTerm::MatchingName => pex_obs::counter!("rank.term.matching_name.evals", 1),
            RankTerm::TypeDistance => pex_obs::counter!("rank.term.type_distance.evals", 1),
            RankTerm::AbstractTypes => pex_obs::counter!("rank.term.abstract_types.evals", 1),
        }
        true
    }

    /// Scores an interned expression: the sum of its enabled terms, with
    /// the expression's static type. Returns `None` if the expression does
    /// not type-check in the context — exactly when [`Database::expr_ty`]
    /// rejects it, regardless of which terms are enabled.
    pub fn score(&self, arena: &ExprArena, id: ExprId) -> Option<(u32, ValueTy)> {
        let mut acc = [0u32; 6];
        let ty = self.walk(&arena.read(), id, &mut acc)?;
        Some((acc.iter().sum(), ty))
    }

    /// Decomposes an interned expression's score into per-term
    /// contributions. Terms disabled in this ranker's configuration report
    /// 0, so `total` equals [`Ranker::score`] exactly: both are read off
    /// the same walk. Returns `None` if the expression is ill-typed.
    pub fn explain(&self, arena: &ExprArena, id: ExprId) -> Option<ScoreBreakdown> {
        let mut acc = [0u32; 6];
        self.walk(&arena.read(), id, &mut acc)?;
        Some(ScoreBreakdown::from_contributions(acc))
    }

    /// The one walk over the Figure 7 terms, bottom-up: types `id` from its
    /// children's walk results while adding each term's share of its score
    /// into `acc` (indexed by [`RankTerm::index`]). Returns the node's type,
    /// or `None` as soon as a node fails one of [`Database::expr_ty`]'s
    /// checks.
    fn walk(&self, r: &ArenaRead<'_>, id: ExprId, acc: &mut [u32; 6]) -> Option<ValueTy> {
        pex_obs::counter!("rank.score.evals", 1);
        let types = self.db.types();
        match r.node(id) {
            ENode::Local(l) => self
                .ctx
                .locals
                .get(l.index())
                .map(|loc| ValueTy::Known(loc.ty)),
            ENode::This => self.ctx.this_type().map(ValueTy::Known),
            ENode::IntLit(_) => Some(ValueTy::Known(types.int_ty())),
            ENode::DoubleBits(_) => Some(ValueTy::Known(types.double_ty())),
            ENode::BoolLit(_) => Some(ValueTy::Known(types.bool_ty())),
            ENode::StrLit(_) => Some(ValueTy::Known(types.string_ty())),
            ENode::Null | ENode::Hole0 => Some(ValueTy::Wildcard),
            ENode::Opaque { ty, .. } => Some(ValueTy::Known(*ty)),
            ENode::StaticField(f) => {
                let fd = self.db.field(*f);
                if !fd.is_static() {
                    return None;
                }
                acc[RankTerm::Depth.index()] += self.link_cost();
                Some(ValueTy::Known(fd.ty()))
            }
            ENode::FieldAccess(base, f) => {
                let fd = self.db.field(*f);
                let base_ty = self.walk(r, *base, acc)?;
                if fd.is_static() || !self.converts(base_ty, fd.declaring()) {
                    return None;
                }
                acc[RankTerm::Depth.index()] += self.link_cost();
                Some(ValueTy::Known(fd.ty()))
            }
            ENode::Call(m, args) => self.walk_call(r, *m, args, acc),
            ENode::Assign(l, rhs) => {
                let (l, rhs) = (*l, *rhs);
                let lt = self.walk(r, l, acc)?;
                let rt = self.walk(r, rhs, acc)?;
                if !matches!(
                    r.node(l),
                    ENode::Local(_) | ENode::StaticField(_) | ENode::FieldAccess(..)
                ) {
                    return None;
                }
                let td = match (rt, lt) {
                    (ValueTy::Known(from), ValueTy::Known(to)) => types.type_distance(from, to)?,
                    _ => 0,
                };
                if self.eval(RankTerm::TypeDistance) {
                    acc[RankTerm::TypeDistance.index()] += td;
                }
                self.pair_abs_term(r, l, rhs, acc);
                Some(lt)
            }
            ENode::Cmp(_, l, rhs) => {
                let (l, rhs) = (*l, *rhs);
                let lt = self.walk(r, l, acc)?;
                let rt = self.walk(r, rhs, acc)?;
                let td = match (lt, rt) {
                    (ValueTy::Known(a), ValueTy::Known(b)) => types.comparable_pair(a, b)?.distance,
                    _ => 0,
                };
                if self.eval(RankTerm::TypeDistance) {
                    acc[RankTerm::TypeDistance.index()] += td;
                }
                self.pair_abs_term(r, l, rhs, acc);
                if self.eval(RankTerm::MatchingName) && !self.same_trailing_name(r, l, rhs) {
                    acc[RankTerm::MatchingName.index()] += 3;
                }
                Some(ValueTy::Known(types.bool_ty()))
            }
        }
    }

    fn walk_call(
        &self,
        r: &ArenaRead<'_>,
        m: MethodId,
        args: &[ExprId],
        acc: &mut [u32; 6],
    ) -> Option<ValueTy> {
        let md = self.db.method(m);
        if args.len() != md.full_arity() {
            return None;
        }
        let ret = Some(ValueTy::Known(md.return_type()));
        // Zero-argument calls are lookups: depth cost only.
        if md.params().is_empty() {
            if let Some(&recv) = args.first() {
                let recv_ty = self.walk(r, recv, acc)?;
                if !self.converts(recv_ty, md.declaring()) {
                    return None;
                }
            }
            acc[RankTerm::Depth.index()] += self.link_cost();
            return ret;
        }
        let types = self.db.types();
        // Namespaces of the non-primitive, non-object argument types, for
        // the common-namespace term.
        let mut arg_ns = Vec::new();
        for (i, (&arg, want)) in args.iter().zip(md.full_param_types()).enumerate() {
            if let ValueTy::Known(t) = self.walk(r, arg, acc)? {
                let d = types.type_distance(t, want)?;
                if self.eval(RankTerm::TypeDistance) {
                    acc[RankTerm::TypeDistance.index()] += d;
                }
                if self.config.namespace && !types.get(t).is_primitive() && t != types.object() {
                    arg_ns.push(types.get(t).namespace());
                }
            }
            if self.eval(RankTerm::AbstractTypes) && !self.arg_abs_matches(r, m, i, arg) {
                acc[RankTerm::AbstractTypes.index()] += 1;
            }
        }
        if self.eval(RankTerm::InScopeStatic) && !(md.is_static() && self.static_in_scope(m)) {
            acc[RankTerm::InScopeStatic.index()] += 1;
        }
        if self.eval(RankTerm::Namespace) {
            acc[RankTerm::Namespace.index()] += self.namespace_term(m, arg_ns);
        }
        ret
    }

    /// Whether a value of type `ty` (or a wildcard) converts to `to`.
    fn converts(&self, ty: ValueTy, to: TypeId) -> bool {
        match ty {
            ValueTy::Known(t) => self.db.types().implicitly_convertible(t, to),
            ValueTy::Wildcard => true,
        }
    }

    /// The common-namespace term: `3 - min(3, p)`, where `arg_ns` holds
    /// the namespaces of the call's non-primitive argument types.
    fn namespace_term(&self, m: MethodId, mut arg_ns: Vec<NamespaceId>) -> u32 {
        let sim = if arg_ns.len() <= 1 {
            0
        } else {
            let decl_ns = self
                .db
                .types()
                .get(self.db.method(m).declaring())
                .namespace();
            arg_ns.push(decl_ns);
            self.db.types().namespaces().common_prefix_len(arg_ns)
        };
        3 - (sim.min(3) as u32)
    }

    /// Whether `m` is a static method callable without qualification from
    /// the context (declared on the enclosing type or a supertype of it).
    fn static_in_scope(&self, m: MethodId) -> bool {
        let Some(enclosing) = self.ctx.enclosing_type else {
            return false;
        };
        let declaring = self.db.method(m).declaring();
        self.db.member_lookup_chain(enclosing).contains(&declaring)
    }

    fn arg_abs_matches(&self, r: &ArenaRead<'_>, m: MethodId, i: usize, arg: ExprId) -> bool {
        let Some(abs) = self.abs else { return false };
        let a = abs.expr_class(self.db, self.ctx.enclosing_method, r, arg);
        let p = abs.param_class(self.db, m, i);
        AbsTypes::matches(a, p)
    }

    /// The abstract-type pair penalty of an assignment or comparison: `+1`
    /// unless both sides share an abstract class.
    fn pair_abs_term(&self, r: &ArenaRead<'_>, l: ExprId, rhs: ExprId, acc: &mut [u32; 6]) {
        if !self.eval(RankTerm::AbstractTypes) {
            return;
        }
        let matched = self.abs.is_some_and(|abs| {
            AbsTypes::matches(
                abs.expr_class(self.db, self.ctx.enclosing_method, r, l),
                abs.expr_class(self.db, self.ctx.enclosing_method, r, rhs),
            )
        });
        acc[RankTerm::AbstractTypes.index()] += u32::from(!matched);
    }

    /// Whether both sides end in a member (or local) of the same name.
    fn same_trailing_name(&self, r: &ArenaRead<'_>, l: ExprId, rhs: ExprId) -> bool {
        match (self.trailing_name(r, l), self.trailing_name(r, rhs)) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    fn trailing_name<'s>(&'s self, r: &'s ArenaRead<'_>, id: ExprId) -> Option<&'s str> {
        match r.node(id) {
            ENode::StaticField(f) | ENode::FieldAccess(_, f) => Some(self.db.field(*f).name()),
            ENode::Call(m, _) => Some(self.db.method(*m).name()),
            ENode::Local(l) => self.ctx.locals.get(l.index()).map(|loc| loc.name.as_str()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;
    use pex_model::{CmpOp, Expr, Local};

    fn setup() -> (Database, Context) {
        let db = compile(
            r#"
            namespace Geo {
                struct Point { int X; int Y; }
                class Line {
                    Geo.Point P1;
                    Geo.Point Mid();
                    static double Distance(Geo.Point a, Geo.Point b);
                }
                class Other {
                    static double Far(Geo.Point a, Geo.Point b);
                }
            }
            namespace App.Deep.Nested {
                class Client {
                    static void Use(Geo.Point p) { }
                }
            }
            "#,
        )
        .unwrap();
        let point = db.types().lookup_qualified("Geo.Point").unwrap();
        let line = db.types().lookup_qualified("Geo.Line").unwrap();
        let ctx = Context::instance(
            line,
            vec![
                Local {
                    name: "p".into(),
                    ty: point,
                },
                Local {
                    name: "ln".into(),
                    ty: line,
                },
            ],
        );
        (db, ctx)
    }

    fn e(db: &Database, ctx: &Context, src: &str) -> Expr {
        match crate::parse_partial(db, ctx, src).unwrap() {
            crate::PartialExpr::Known(e) => e,
            other => panic!("not complete: {other:?}"),
        }
    }

    fn score(r: &Ranker<'_>, e: &Expr) -> Option<u32> {
        let arena = ExprArena::new();
        r.score(&arena, arena.intern_expr(e))
            .map(|(score, _)| score)
    }

    #[test]
    fn depth_counts_links_times_two() {
        let (db, ctx) = setup();
        let r = Ranker::new(&db, &ctx, None, RankConfig::only(&[RankTerm::Depth]));
        assert_eq!(score(&r, &e(&db, &ctx, "p")), Some(0));
        assert_eq!(score(&r, &e(&db, &ctx, "ln.P1")), Some(2));
        assert_eq!(score(&r, &e(&db, &ctx, "ln.P1.X")), Some(4));
        assert_eq!(
            score(&r, &e(&db, &ctx, "ln.Mid()")),
            Some(2),
            "zero-arg call = lookup"
        );
        assert_eq!(score(&r, &e(&db, &ctx, "ln.Mid().Y")), Some(4));
        let off = Ranker::new(&db, &ctx, None, RankConfig::none());
        assert_eq!(score(&off, &e(&db, &ctx, "ln.P1.X")), Some(0));
    }

    #[test]
    fn type_distance_on_call_args() {
        let (db, ctx) = setup();
        // Use(p): param type Point, arg Point -> td 0.
        let r = Ranker::new(&db, &ctx, None, RankConfig::only(&[RankTerm::TypeDistance]));
        let call = e(&db, &ctx, "App.Deep.Nested.Client.Use(p)");
        assert_eq!(score(&r, &call), Some(0));
        // Distance(p, ln.P1): args score includes the lookup? depth off -> 0.
        let call2 = e(&db, &ctx, "Geo.Line.Distance(p, ln.P1)");
        assert_eq!(score(&r, &call2), Some(0));
    }

    #[test]
    fn in_scope_static_term() {
        let (db, ctx) = setup();
        let r = Ranker::new(
            &db,
            &ctx,
            None,
            RankConfig::only(&[RankTerm::InScopeStatic]),
        );
        // Distance is a static of the enclosing type Line: no penalty.
        assert_eq!(score(&r, &e(&db, &ctx, "Geo.Line.Distance(p, p)")), Some(0));
        // Far is a static of another type: +1.
        assert_eq!(score(&r, &e(&db, &ctx, "Geo.Other.Far(p, p)")), Some(1));
    }

    #[test]
    fn namespace_term_prefers_cohesive_calls() {
        let (db, ctx) = setup();
        let r = Ranker::new(&db, &ctx, None, RankConfig::only(&[RankTerm::Namespace]));
        // Two non-primitive args in Geo, method in Geo: prefix len 1 -> 3-1=2.
        assert_eq!(score(&r, &e(&db, &ctx, "Geo.Line.Distance(p, p)")), Some(2));
        // Single non-primitive argument: sim forced to 0 -> term 3.
        assert_eq!(
            score(&r, &e(&db, &ctx, "App.Deep.Nested.Client.Use(p)")),
            Some(3)
        );
    }

    #[test]
    fn matching_name_term_on_comparisons() {
        let (db, ctx) = setup();
        let r = Ranker::new(&db, &ctx, None, RankConfig::only(&[RankTerm::MatchingName]));
        let same = e(&db, &ctx, "p.X >= ln.P1.X");
        let diff = e(&db, &ctx, "p.X >= ln.P1.Y");
        assert_eq!(score(&r, &same), Some(0));
        assert_eq!(score(&r, &diff), Some(3));
        // Locals compare by name too.
        let pp = Expr::cmp(CmpOp::Lt, e(&db, &ctx, "p.X"), e(&db, &ctx, "p.X"));
        assert_eq!(score(&r, &pp), Some(0));
    }

    #[test]
    fn ill_typed_scores_none_even_with_terms_off() {
        let (db, ctx) = setup();
        let r = Ranker::new(&db, &ctx, None, RankConfig::none());
        // Point >= Point is not comparable.
        let p = e(&db, &ctx, "p");
        let bad = Expr::cmp(CmpOp::Ge, p.clone(), p);
        assert_eq!(score(&r, &bad), None);
    }

    #[test]
    fn wildcard_holes_cost_abs_mismatch_only() {
        let (db, ctx) = setup();
        let dist = db
            .methods()
            .find(|m| db.method(*m).name() == "Distance")
            .unwrap();
        let call = Expr::Call(dist, vec![e(&db, &ctx, "p"), Expr::Hole0]);
        let r_t = Ranker::new(&db, &ctx, None, RankConfig::only(&[RankTerm::TypeDistance]));
        assert_eq!(score(&r_t, &call), Some(0), "0-holes add no type distance");
        let r_a = Ranker::new(
            &db,
            &ctx,
            None,
            RankConfig::only(&[RankTerm::AbstractTypes]),
        );
        // No abs solution provided: every position mismatches -> +2.
        assert_eq!(score(&r_a, &call), Some(2));
    }

    #[test]
    fn explain_terms_are_solo_scores_and_sum_to_the_score() {
        let (db, ctx) = setup();
        let arena = ExprArena::new();
        let exprs = [
            "p",
            "ln.P1.X",
            "ln.Mid().Y",
            "Geo.Line.Distance(p, ln.P1)",
            "Geo.Other.Far(p, p)",
            "App.Deep.Nested.Client.Use(p)",
            "p.X >= ln.P1.X",
            "p.X >= ln.P1.Y",
        ];
        let configs = [
            RankConfig::all(),
            RankConfig::none(),
            RankConfig::only(&[RankTerm::Depth, RankTerm::Namespace]),
            RankConfig::without(&[RankTerm::TypeDistance]),
        ];
        for config in configs {
            let ranker = Ranker::new(&db, &ctx, None, config);
            for src in exprs {
                let id = arena.intern_expr(&e(&db, &ctx, src));
                let breakdown = ranker.explain(&arena, id).unwrap();
                assert_eq!(
                    Some(breakdown.total),
                    ranker.score(&arena, id).map(|(score, _)| score),
                    "{src}: terms must sum to the score"
                );
                let sum: u32 = breakdown.terms.iter().map(|&(_, v)| v).sum();
                assert_eq!(sum, breakdown.total, "{src}: total is the term sum");
                for (term, v) in breakdown.terms {
                    // Additivity: a term's share is the score under a
                    // configuration enabling only that term.
                    let solo = Ranker::new(&db, &ctx, None, RankConfig::only(&[term]));
                    let want = if config.enabled(term) {
                        solo.score(&arena, id).unwrap().0
                    } else {
                        0
                    };
                    assert_eq!(v, want, "{src}: term {term:?} under {config:?}");
                }
            }
        }
        // Ill-typed expressions explain to None, like score.
        let ranker = Ranker::new(&db, &ctx, None, RankConfig::all());
        let p = e(&db, &ctx, "p");
        let bad = Expr::cmp(CmpOp::Ge, p.clone(), p);
        let id = arena.intern_expr(&bad);
        assert_eq!(ranker.explain(&arena, id), None);
    }

    #[test]
    fn table2_has_fifteen_variants() {
        let variants = RankConfig::table2_variants();
        assert_eq!(variants.len(), 15);
        assert_eq!(variants[0].0, "All");
        assert!(variants.iter().any(|(n, _)| n == "-at"));
        assert!(variants.iter().any(|(n, _)| n == "+at"));
        let minus_d = variants.iter().find(|(n, _)| n == "-d").unwrap();
        assert!(!minus_d.1.depth);
        assert!(minus_d.1.namespace);
        let plus_m = variants.iter().find(|(n, _)| n == "+m").unwrap();
        assert!(plus_m.1.matching_name);
        assert!(!plus_m.1.depth);
    }
}
