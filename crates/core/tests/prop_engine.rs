//! Property tests for the completion engine, run over randomly generated
//! corpora: every output must derive from its query (the Figure 6
//! reference semantics), type-check, carry the specification score, and
//! arrive in non-decreasing score order without duplicates. A brute-force
//! enumerator cross-checks completeness for single-lookup queries.

use std::collections::{HashMap, VecDeque};

use proptest::prelude::*;

use pex_abstract::AbsTypes;
use pex_core::{
    derives, ChainLink, Completer, Completion, MethodIndex, PartialExpr, RankConfig, ReachIndex,
    SuffixKind,
};
use pex_corpus::{generate, ClientProfile, LibraryProfile};
use pex_model::{Context, Database, Expr, MethodId, Stmt, ValueTy};
use pex_types::TypeId;

fn small_db(seed: u64) -> Database {
    let lib = LibraryProfile {
        types: 25,
        namespaces: 4,
        ..Default::default()
    };
    let client = ClientProfile {
        classes: 2,
        ..Default::default()
    };
    generate(&lib, &client, seed)
}

/// The reachability index built the simple way, as the oracle for the
/// flat [`ReachIndex`]: per type, one breadth-first search into a fresh
/// map over the raw (duplicate-bearing) edge lists. Index 0 holds the
/// `.f` link kind, index 1 `.f`-or-`.m()`.
fn reference_reach(db: &Database) -> [Vec<HashMap<TypeId, u32>>; 2] {
    let n = db.types().len();
    let mut field_edges: Vec<Vec<TypeId>> = vec![Vec::new(); n];
    let mut method_edges: Vec<Vec<TypeId>> = vec![Vec::new(); n];
    for ty in db.types().iter() {
        for owner in db.member_lookup_chain(ty) {
            for &f in db.fields_of(owner) {
                let fd = db.field(f);
                if !fd.is_static() {
                    field_edges[ty.index()].push(fd.ty());
                }
            }
            for &m in db.methods_of(owner) {
                let md = db.method(m);
                if !md.is_static()
                    && md.params().is_empty()
                    && md.return_type() != db.types().void_ty()
                {
                    method_edges[ty.index()].push(md.return_type());
                }
            }
        }
    }
    let bfs = |with_methods: bool| -> Vec<HashMap<TypeId, u32>> {
        (0..n)
            .map(|start| {
                let start = TypeId::from_index(start);
                let mut dist = HashMap::from([(start, 0)]);
                let mut queue = VecDeque::from([start]);
                while let Some(t) = queue.pop_front() {
                    let d = dist[&t] + 1;
                    let methods = if with_methods {
                        &method_edges[t.index()][..]
                    } else {
                        &[]
                    };
                    for &next in field_edges[t.index()].iter().chain(methods) {
                        dist.entry(next).or_insert_with(|| {
                            queue.push_back(next);
                            d
                        });
                    }
                }
                dist
            })
            .collect()
    };
    [bfs(false), bfs(true)]
}

/// First call statement site in the corpus, with its context.
fn first_site(db: &Database) -> Option<(MethodId, usize, MethodId, Vec<Expr>)> {
    for m in db.methods() {
        if let Some(body) = db.method(m).body() {
            for (si, stmt) in body.stmts.iter().enumerate() {
                if let Some(Expr::Call(target, args)) = stmt.expr() {
                    if !args.is_empty() {
                        return Some((m, si, *target, args.clone()));
                    }
                }
            }
        }
    }
    None
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
            ranker.score(&c.expr),
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

    /// For `.?f` (exactly zero or one field lookups) the completion set is
    /// small enough to enumerate by hand; the engine must produce exactly
    /// that set.
    #[test]
    fn single_lookup_completions_are_exhaustive(seed in 0u64..300) {
        let db = small_db(seed);
        let Some((enclosing, stmt, _, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None);

        let base = args[0].clone();
        let Ok(ValueTy::Known(base_ty)) = db.expr_ty(&base, &ctx) else { return Ok(()) };
        let query = PartialExpr::suffix(PartialExpr::Known(base.clone()), SuffixKind::Field);

        // Brute force: the base itself plus each accessible instance field.
        let mut expected: Vec<String> = vec![format!("{base:?}")];
        for f in db.instance_fields(base_ty, ctx.enclosing_type) {
            expected.push(format!("{:?}", Expr::field(base.clone(), f)));
        }
        expected.sort();

        let mut got: Vec<String> = engine
            .completions(&query)
            .take(expected.len() + 10)
            .map(|c| format!("{:?}", c.expr))
            .collect();
        got.sort();
        prop_assert_eq!(got, expected);
    }

    /// For `.?*f` with a small depth cap, the completion set must equal the
    /// brute-force enumeration of all field chains up to that length.
    #[test]
    fn star_closure_is_exhaustive_up_to_the_cap(seed in 0u64..200) {
        let db = small_db(seed);
        let Some((enclosing, stmt, _, args)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let index = MethodIndex::build(&db);
        let engine = Completer::new(&db, &ctx, &index, RankConfig::all(), None).with_options(
            pex_core::CompleteOptions {
                max_depth: 2,
                ..Default::default()
            },
        );
        let base = args[0].clone();
        let Ok(ValueTy::Known(base_ty)) = db.expr_ty(&base, &ctx) else { return Ok(()) };
        let query =
            PartialExpr::suffix(PartialExpr::Known(base.clone()), SuffixKind::FieldStar);

        // Brute force: chains of 0..=2 instance-field links.
        let mut expected: Vec<String> = Vec::new();
        let mut frontier = vec![(base.clone(), base_ty)];
        expected.push(format!("{base:?}"));
        for _ in 0..2 {
            let mut next = Vec::new();
            for (e, t) in &frontier {
                for f in db.instance_fields(*t, ctx.enclosing_type) {
                    let fe = Expr::field(e.clone(), f);
                    expected.push(format!("{fe:?}"));
                    next.push((fe, db.field(f).ty()));
                }
            }
            frontier = next;
        }
        expected.sort();
        expected.dedup();

        let mut got: Vec<String> = engine
            .completions(&query)
            .take(expected.len() + 20)
            .map(|c| format!("{:?}", c.expr))
            .collect();
        got.sort();
        prop_assert_eq!(got, expected);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flat reachability index answers every `(from, to)` pair of
    /// both link kinds exactly as the map-per-type oracle does.
    #[test]
    fn reach_index_matches_the_bfs_oracle(seed in 0u64..200, types in 5usize..60) {
        let lib = LibraryProfile { types, namespaces: 4, ..Default::default() };
        let client = ClientProfile { classes: 2, ..Default::default() };
        let db = generate(&lib, &client, seed);
        let reach = ReachIndex::build(&db);
        let [fields, all] = reference_reach(&db);
        for (kind, oracle) in [(ChainLink::Fields, &fields), (ChainLink::FieldsAndMethods, &all)] {
            for from in db.types().iter() {
                let row = reach.reachable(kind, from);
                prop_assert!(row.windows(2).all(|w| w[0].0 < w[1].0), "rows are id-sorted");
                prop_assert_eq!(row.len(), oracle[from.index()].len());
                for to in db.types().iter() {
                    prop_assert_eq!(
                        reach.min_lookups(kind, from, to),
                        oracle[from.index()].get(&to).copied(),
                        "{:?} from {:?} to {:?}", kind, from, to
                    );
                }
            }
        }
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
