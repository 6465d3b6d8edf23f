//! Property tests for the completion engine, run over randomly generated
//! corpora: every output must derive from its query (the Figure 6
//! reference semantics), type-check, carry the specification score, and
//! arrive in non-decreasing score order without duplicates. A brute-force
//! enumerator, built straight from the code model, is the oracle for the
//! complete set of rows on every query shape.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pex_abstract::AbsTypes;
use pex_core::{
    derives, refresh_derived, CandidateScratch, CompleteOptions, Completer, Completion,
    EngineCache, MethodIndex, PartialExpr, RankConfig, Ranker, ReachIndex, SuffixKind,
};
use pex_model::minics::{self, PrintOptions};
use pex_model::{Context, Database, Expr, ExprArena, GlobalRef, LocalId, MethodId, Stmt, ValueTy};
use pex_types::{TypeId, TypeKind};
use rand::SeedableRng;

mod common;
use common::{first_site, query_mix, small_db};

/// The specification score of a boxed expression.
fn spec_score(ranker: &Ranker<'_>, e: &Expr) -> Option<u32> {
    let arena = ExprArena::new();
    ranker
        .score(&arena, arena.intern_expr(e))
        .map(|(score, _)| score)
}

/// The reference enumerator: every expression a query derives, built by
/// structural recursion straight from the code model — globals, instance
/// fields, zero-argument instance methods, accessibility and type
/// distance — with at most `max_depth` links per chain and no budget.
/// Nothing is pruned but placements whose argument cannot convert; the
/// caller keeps the candidates the ranker accepts (the well-typed ones).
struct BruteForce<'a> {
    db: &'a Database,
    ctx: &'a Context,
    max_depth: usize,
}

impl BruteForce<'_> {
    fn exprs(&self, pe: &PartialExpr) -> Vec<Expr> {
        match pe {
            PartialExpr::Known(e) => vec![e.clone()],
            PartialExpr::Hole0 => vec![Expr::Hole0],
            PartialExpr::Hole => {
                let mut roots: Vec<Expr> = (0..self.ctx.locals.len())
                    .map(|i| Expr::Local(LocalId(i as u32)))
                    .collect();
                if self.ctx.this_type().is_some() {
                    roots.push(Expr::This);
                }
                for g in self.db.globals() {
                    roots.push(match g {
                        GlobalRef::Field(f) => Expr::StaticField(f),
                        GlobalRef::Method(m) => Expr::Call(m, Vec::new()),
                    });
                }
                self.chains(roots, true, self.max_depth)
            }
            PartialExpr::Suffix(base, kind) => {
                let links = if kind.is_star() { self.max_depth } else { 1 };
                self.chains(self.exprs(base), kind.allows_methods(), links)
            }
            PartialExpr::UnknownCall(args) => {
                let mut out = Vec::new();
                for items in self.product(args) {
                    for m in self.db.methods().filter(|&m| self.accessible(m)) {
                        let params: Vec<_> = self.db.method(m).full_param_types().collect();
                        self.place(m, &params, &items, &mut vec![None; params.len()], &mut out);
                    }
                }
                out
            }
            PartialExpr::KnownCall { candidates, args } => {
                let mut out = Vec::new();
                for items in self.product(args) {
                    for &m in candidates.iter().filter(|&&m| self.accessible(m)) {
                        out.push(Expr::Call(m, items.clone()));
                    }
                }
                out
            }
            PartialExpr::Assign(l, r) => self
                .product(&[(**l).clone(), (**r).clone()])
                .into_iter()
                .filter(|p| {
                    matches!(
                        p[0],
                        Expr::Local(_) | Expr::StaticField(_) | Expr::FieldAccess(..)
                    )
                })
                .map(|p| Expr::assign(p[0].clone(), p[1].clone()))
                .collect(),
            PartialExpr::Cmp(op, l, r) => self
                .product(&[(**l).clone(), (**r).clone()])
                .into_iter()
                .map(|p| Expr::cmp(*op, p[0].clone(), p[1].clone()))
                .collect(),
            PartialExpr::Alt(alts) => alts.iter().flat_map(|a| self.exprs(a)).collect(),
        }
    }

    /// The roots plus every chain of 1..=`links` instance-field (and, with
    /// `methods`, zero-argument instance call) lookups grown from them.
    fn chains(&self, roots: Vec<Expr>, methods: bool, links: usize) -> Vec<Expr> {
        let from = self.ctx.enclosing_type;
        let mut out = roots.clone();
        let mut frontier = roots;
        for _ in 0..links {
            let mut next = Vec::new();
            for e in &frontier {
                let Ok(ValueTy::Known(t)) = self.db.expr_ty(e, self.ctx) else {
                    continue;
                };
                for f in self.db.instance_fields(t, from) {
                    next.push(Expr::field(e.clone(), f));
                }
                if methods {
                    for m in self.db.zero_arg_instance_methods(t, from) {
                        next.push(Expr::Call(m, vec![e.clone()]));
                    }
                }
            }
            out.extend(next.iter().cloned());
            frontier = next;
        }
        out
    }

    /// Every choice of one expression per argument.
    fn product(&self, args: &[PartialExpr]) -> Vec<Vec<Expr>> {
        let mut combos = vec![Vec::new()];
        for arg in args {
            let choices = self.exprs(arg);
            combos = combos
                .iter()
                .flat_map(|c| {
                    choices.iter().map(move |e| {
                        let mut next = c.clone();
                        next.push(e.clone());
                        next
                    })
                })
                .collect();
        }
        combos
    }

    /// Every injective placement of `items` into the parameter slots of
    /// `m` (receiver first) that each item's type converts to, with `0` in
    /// the remaining slots.
    fn place(
        &self,
        m: MethodId,
        params: &[TypeId],
        items: &[Expr],
        slots: &mut Vec<Option<usize>>,
        out: &mut Vec<Expr>,
    ) {
        let i = slots.iter().flatten().count();
        if i == items.len() {
            let args = slots
                .iter()
                .map(|s| s.map_or(Expr::Hole0, |k| items[k].clone()))
                .collect();
            out.push(Expr::Call(m, args));
            return;
        }
        let fits = |want: TypeId| match self.db.expr_ty(&items[i], self.ctx) {
            Ok(ValueTy::Known(t)) => self.db.types().type_distance(t, want).is_some(),
            Ok(ValueTy::Wildcard) => true,
            Err(_) => false,
        };
        for j in 0..params.len() {
            if slots[j].is_none() && fits(params[j]) {
                slots[j] = Some(i);
                self.place(m, params, items, slots, out);
                slots[j] = None;
            }
        }
    }

    fn accessible(&self, m: MethodId) -> bool {
        let md = self.db.method(m);
        self.db
            .accessible(md.visibility(), md.declaring(), self.ctx.enclosing_type)
    }
}

fn check_stream(
    db: &Database,
    ctx: &Context,
    engine: &Completer<'_>,
    query: &PartialExpr,
    take: usize,
) -> Result<Vec<Completion>, TestCaseError> {
    let completions: Vec<Completion> = engine.completions(query).take(take).collect();
    let ranker = engine.ranker();
    let mut last = 0u32;
    let mut seen = std::collections::HashSet::new();
    for c in &completions {
        prop_assert!(
            derives(db, ctx, query, &c.expr),
            "engine output must derive from the query: {} (query {})",
            engine.render(c),
            query.shape()
        );
        prop_assert!(db.expr_ty(&c.expr, ctx).is_ok(), "output must type-check");
        prop_assert!(c.score >= last, "scores must be non-decreasing");
        last = c.score;
        prop_assert_eq!(
            spec_score(&ranker, &c.expr),
            Some(c.score),
            "engine score must match the specification ranker"
        );
        prop_assert!(seen.insert(format!("{:?}", c.expr)), "no duplicates");
    }
    Ok(completions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn engine_invariants_on_random_corpora(seed in 0u64..500) {
        let db = small_db(seed);
        let Some((enclosing, stmt, target, args)) = first_site(&db) else {
            return Ok(()); // degenerate corpus; nothing to check
        };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let abs = AbsTypes::for_query(&db, enclosing, stmt);
        let index = MethodIndex::build(&db);
        let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), Some(&abs));

        // Unknown-method query from the first argument.
        let q1 = PartialExpr::UnknownCall(vec![PartialExpr::Known(args[0].clone())]);
        let got = check_stream(&db, &ctx, &engine, &q1, 30)?;
        // The intended method must be somewhere findable (it is a real call).
        let rank = engine.rank_of(&q1, 400, |c| matches!(c.expr, Expr::Call(m, _) if m == target));
        prop_assert!(
            rank.rank.is_some(),
            "the real call must be enumerable (got {} items, outcome {:?})",
            got.len(),
            rank.outcome
        );

        // Argument-hole query for position 0.
        let mut hole_args: Vec<PartialExpr> =
            args.iter().map(|a| PartialExpr::Known(a.clone())).collect();
        hole_args[0] = PartialExpr::Hole;
        let q2 = PartialExpr::KnownCall { candidates: vec![target], args: hole_args };
        check_stream(&db, &ctx, &engine, &q2, 30)?;

        // Bare hole and a star-suffix query.
        check_stream(&db, &ctx, &engine, &PartialExpr::Hole, 30)?;
        let q3 = PartialExpr::suffix(PartialExpr::Known(args[0].clone()), SuffixKind::MethodStar);
        check_stream(&db, &ctx, &engine, &q3, 30)?;
    }

    /// On every query shape, the fully drained engine produces exactly the
    /// brute-force set of well-typed completions, each with its
    /// specification score, every row derives from the query, and scores
    /// never decrease.
    #[test]
    fn every_shape_matches_the_brute_force_enumerator(seed in 0u64..300) {
        const MAX_DEPTH: usize = 2;
        let db = small_db(seed);
        let Some((enclosing, stmt, target, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let abs = AbsTypes::for_query(&db, enclosing, stmt);
        let index = MethodIndex::build(&db);
        let reach = ReachIndex::build(&db);
        let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), Some(&abs))
            .with_reach(&reach)
            .with_options(CompleteOptions {
                max_depth: MAX_DEPTH,
                ..Default::default()
            });
        let ranker = engine.ranker();
        let brute = BruteForce { db: &db, ctx: &ctx, max_depth: MAX_DEPTH };

        for query in query_mix(target, &args) {
            let expected: BTreeSet<(String, u32)> = brute
                .exprs(&query)
                .into_iter()
                .filter_map(|e| Some((format!("{e:?}"), spec_score(&ranker, &e)?)))
                .collect();
            let rows: Vec<Completion> = engine.completions(&query).collect();
            let mut last = 0;
            for c in &rows {
                prop_assert!(
                    derives(&db, &ctx, &query, &c.expr),
                    "{} does not derive from {}", engine.render(c), query.shape()
                );
                prop_assert!(c.score >= last, "scores decreased on {}", query.shape());
                last = c.score;
            }
            let got: BTreeSet<(String, u32)> =
                rows.iter().map(|c| (format!("{:?}", c.expr), c.score)).collect();
            prop_assert_eq!(got.len(), rows.len(), "duplicate rows on {}", query.shape());
            prop_assert_eq!(got, expected, "row set diverged on {}", query.shape());
        }
    }

    /// Completions are stable across identical runs (determinism).
    #[test]
    fn completion_order_is_deterministic(seed in 0u64..200) {
        let db = small_db(seed);
        let Some((enclosing, stmt, _, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let q = PartialExpr::UnknownCall(vec![PartialExpr::Known(args[0].clone())]);
        let a: Vec<String> = engine.completions(&q).take(25).map(|c| engine.render(&c)).collect();
        let b: Vec<String> = engine.completions(&q).take(25).map(|c| engine.render(&c)).collect();
        prop_assert_eq!(a, b);
    }

    /// Reachability pruning (the Section 4.2 index) is an optimisation:
    /// it must never change which completions come out, nor their order.
    #[test]
    fn reach_pruning_is_sound(seed in 0u64..200) {
        let db = small_db(seed);
        let Some((enclosing, stmt, target, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let reach = ReachIndex::build(&db);

        // Filtered chain queries are exactly where pruning bites: the
        // argument hole of a known call restricts chain types.
        let mut hole_args: Vec<PartialExpr> =
            args.iter().map(|a| PartialExpr::Known(a.clone())).collect();
        hole_args[0] = PartialExpr::Hole;
        let query = PartialExpr::KnownCall { candidates: vec![target], args: hole_args };

        let plain = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let pruned =
            Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_reach(&reach);
        let a: Vec<String> =
            plain.completions(&query).take(40).map(|c| format!("{:?}", c.expr)).collect();
        let b: Vec<String> =
            pruned.completions(&query).take(40).map(|c| format!("{:?}", c.expr)).collect();
        prop_assert_eq!(a, b, "pruning must not change results");
    }

    /// Disabling ranking terms never changes the *set* of reachable
    /// completions for finite queries, only the order (type-incorrect
    /// candidates stay excluded regardless of configuration).
    #[test]
    fn rank_config_changes_order_not_membership(seed in 0u64..200) {
        let db = small_db(seed);
        let Some((enclosing, stmt, _, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let base = args[0].clone();
        let query = PartialExpr::suffix(PartialExpr::Known(base), SuffixKind::Field);

        let full = Completer::new(&db, &ctx, &index, RankConfig::all(), None);
        let none = Completer::new(&db, &ctx, &index, RankConfig::none(), None);
        let mut a: Vec<String> =
            full.completions(&query).take(100).map(|c| format!("{:?}", c.expr)).collect();
        let mut b: Vec<String> =
            none.completions(&query).take(100).map(|c| format!("{:?}", c.expr)).collect();
        a.sort();
        b.sort();
        prop_assert_eq!(a, b);
    }
}

/// A non-proptest sanity check that the corpus used above actually contains
/// sites (so the properties are not vacuous).
#[test]
fn random_corpora_have_sites() {
    let mut with_sites = 0;
    for seed in 0..10 {
        if first_site(&small_db(seed)).is_some() {
            with_sites += 1;
        }
    }
    assert!(
        with_sites >= 8,
        "only {with_sites}/10 corpora had call sites"
    );
}

/// Statements other than calls exist too — used by the lookup experiments.
/// Scans a band of seeds so the check does not depend on any one PRNG
/// stream producing a particular statement mix.
#[test]
fn random_corpora_have_assignments_and_comparisons() {
    let mut assigns = 0;
    let mut cmps = 0;
    for seed in 0..10 {
        let db = small_db(seed);
        for m in db.methods() {
            if let Some(body) = db.method(m).body() {
                for stmt in &body.stmts {
                    match stmt {
                        Stmt::Expr(Expr::Assign(..)) => assigns += 1,
                        Stmt::Expr(Expr::Cmp(..)) => cmps += 1,
                        _ => {}
                    }
                }
            }
        }
    }
    assert!(assigns > 0);
    assert!(cmps > 0);
}

// ---------------------------------------------------------------------------
// The Figure 8 index against independent oracles.

/// A generated corpus rich in interfaces and structs, printed and compiled
/// back so incremental updates can patch it as the daemon patches a
/// tenant.
fn hierarchy_db(seed: u64) -> Database {
    let lib = pex_corpus::LibraryProfile {
        types: 30,
        namespaces: 3,
        interface_frac: 0.25,
        struct_frac: 0.25,
        subclass_frac: 0.6,
        ..Default::default()
    };
    let client = pex_corpus::ClientProfile {
        classes: 2,
        ..Default::default()
    };
    let db = pex_corpus::generate(&lib, &client, seed);
    minics::compile(&minics::print(&db, PrintOptions::default()))
        .expect("a printed corpus compiles")
}

/// The walk by definition: every method with an argument position, keyed
/// by the nearest of its receiver/parameter types `p` that `ty` converts
/// to — `(distance, p)`, distances from the uncached BFS — then by id.
fn reference_walk(db: &Database, ty: TypeId) -> Vec<MethodId> {
    let types = db.types();
    let mut keyed: Vec<((u32, TypeId), MethodId)> = db
        .methods()
        .filter_map(|m| {
            let key = db
                .method(m)
                .full_param_types()
                .filter_map(|p| types.type_distance_bfs(ty, p).map(|d| (d, p)))
                .min()?;
            Some((key, m))
        })
        .collect();
    keyed.sort();
    keyed.into_iter().map(|(_, m)| m).collect()
}

/// The exact rows as the index used to build them: one pushed list per
/// type, a method skipped when it already ends the list.
fn pushed_rows(db: &Database) -> Vec<Vec<MethodId>> {
    let mut rows = vec![Vec::new(); db.types().len()];
    for m in db.methods() {
        for ty in db.method(m).full_param_types() {
            let row: &mut Vec<MethodId> = &mut rows[ty.index()];
            if row.last() != Some(&m) {
                row.push(m);
            }
        }
    }
    rows
}

/// How `ty` is spelled in mini-C# source, if it can be.
fn type_ref(db: &Database, ty: TypeId) -> Option<String> {
    let def = db.types().get(ty);
    if def.is_primitive() {
        return Some(def.name().to_owned());
    }
    match def.kind() {
        TypeKind::Void => None,
        _ if ty == db.types().object() => Some("object".to_owned()),
        _ => Some(db.types().qualified_name(ty)),
    }
}

/// One random edit of a declared type's printed unit: add a method over
/// random parameter types, drop a bodiless method, or (for a class)
/// implement a further interface. `None` when the pick does not apply.
fn random_edit(db: &Database, rng: &mut impl rand::Rng) -> Option<String> {
    let types: Vec<TypeId> = db
        .types()
        .iter()
        .filter(|&t| {
            matches!(
                db.types().get(t).kind(),
                TypeKind::Class { .. } | TypeKind::Struct | TypeKind::Interface
            ) && t != db.types().object()
        })
        .collect();
    let nameable: Vec<String> = db.types().iter().filter_map(|t| type_ref(db, t)).collect();
    let ty = types[rng.gen_range(0..types.len())];
    let unit = minics::print_type(db, ty, PrintOptions::default());
    let mut lines: Vec<String> = unit.lines().map(str::to_owned).collect();
    let header = lines.iter().position(|l| {
        l.trim_end().ends_with('{') && l.starts_with("    ") && !l.starts_with("     ")
    })?;
    match rng.gen_range(0..3) {
        0 => {
            let params: Vec<String> = (0..rng.gen_range(1..=3))
                .map(|i| format!("{} p{i}", nameable[rng.gen_range(0..nameable.len())]))
                .collect();
            lines.insert(
                header + 1,
                format!("        void AddedByEdit({});", params.join(", ")),
            );
        }
        1 => {
            let decls: Vec<usize> = (0..lines.len())
                .filter(|&i| {
                    let l = lines[i].trim();
                    l.ends_with(");") && l.contains('(') && !l.contains('{') && !l.contains('=')
                })
                .collect();
            if decls.is_empty() {
                return None;
            }
            lines.remove(decls[rng.gen_range(0..decls.len())]);
        }
        _ => {
            if !matches!(db.types().get(ty).kind(), TypeKind::Class { .. }) {
                return None;
            }
            let ifaces: Vec<TypeId> = db
                .types()
                .iter()
                .filter(|&t| matches!(db.types().get(t).kind(), TypeKind::Interface))
                .filter(|t| !db.types().get(ty).interfaces().contains(t))
                .collect();
            if ifaces.is_empty() {
                return None;
            }
            let iface = db
                .types()
                .qualified_name(ifaces[rng.gen_range(0..ifaces.len())]);
            let head = lines[header]
                .trim_end()
                .trim_end_matches('{')
                .trim_end()
                .to_owned();
            let joiner = if head.contains(" : ") { ", " } else { " : " };
            lines[header] = format!("{head}{joiner}{iface} {{");
        }
    }
    Some(lines.join("\n"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn method_index_matches_its_oracles(seed in 0u64..1000, edit_seed in 0u64..1000) {
        let db = hierarchy_db(seed);
        let index = MethodIndex::build(&db);

        // Flat rows equal the push-built lists; the fallback set is every
        // method with an argument position.
        let rows = pushed_rows(&db);
        for ty in db.types().iter() {
            prop_assert_eq!(index.exact(ty), rows[ty.index()].as_slice());
        }
        let with_args: Vec<MethodId> =
            db.methods().filter(|&m| db.method(m).full_arity() > 0).collect();
        prop_assert_eq!(index.all_with_args(), with_args.as_slice());

        // The walk equals the reference order; each count is its length,
        // on the filling lookup and on the memoized one.
        let mut scratch = CandidateScratch::new();
        for ty in db.types().iter() {
            let walk: Vec<MethodId> = index.candidates_for_with(&db, ty, &mut scratch).collect();
            prop_assert_eq!(&walk, &reference_walk(&db, ty), "walk of {}", db.types().qualified_name(ty));
            prop_assert_eq!(index.candidate_count(&db, ty, &mut scratch), walk.len());
            prop_assert_eq!(index.candidate_count(&db, ty, &mut scratch), walk.len());
        }

        // After a random edit, carried and refilled counts equal a fresh
        // build's.
        let mut rng = rand::rngs::StdRng::seed_from_u64(edit_seed);
        let Some(unit) = random_edit(&db, &mut rng) else {
            return Ok(());
        };
        let (mut new_db, diff) = minics::apply_update(&db, &unit)
            .map_err(|e| TestCaseError::fail(format!("{e}\n{unit}")))?;
        let reach = ReachIndex::build(&db);
        let (new_index, _, _, stats) =
            refresh_derived(&db, &mut new_db, &index, &reach, &EngineCache::new(), &diff);
        prop_assert_eq!(stats.candidates + stats.candidates_kept, db.types().len());
        let fresh = MethodIndex::build(&new_db);
        for ty in new_db.types().iter() {
            let want = fresh.candidate_count(&new_db, ty, &mut scratch);
            prop_assert_eq!(want, reference_walk(&new_db, ty).len());
            prop_assert_eq!(
                new_index.candidate_count(&new_db, ty, &mut scratch),
                want,
                "count of {} after\n{}",
                new_db.types().qualified_name(ty),
                unit
            );
        }
    }
}
