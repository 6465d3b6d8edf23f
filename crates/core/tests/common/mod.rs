//! Fixtures shared by the pex-core integration tests: small generated
//! corpora and the query sites they contain.

// Each test binary compiles this module and uses its own subset.
#![allow(dead_code)]

use pex_core::{PartialExpr, SuffixKind};
use pex_corpus::{generate, ClientProfile, LibraryProfile};
use pex_model::{CmpOp, Database, Expr, MethodId};

/// A generated corpus of `types` library types spread over `namespaces`
/// namespaces, with two client classes.
pub fn corpus(seed: u64, types: usize, namespaces: usize) -> Database {
    let lib = LibraryProfile {
        types,
        namespaces,
        ..Default::default()
    };
    let client = ClientProfile {
        classes: 2,
        ..Default::default()
    };
    generate(&lib, &client, seed)
}

/// The standard small corpus: 25 library types over 4 namespaces.
pub fn small_db(seed: u64) -> Database {
    corpus(seed, 25, 4)
}

/// First call statement site in the corpus that has arguments: the
/// enclosing method, the statement index, the called method and its
/// arguments.
pub fn first_site(db: &Database) -> Option<(MethodId, usize, MethodId, Vec<Expr>)> {
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

/// Every expression statement in the corpus, with its enclosing method
/// and statement index.
pub fn sites(db: &Database) -> Vec<(MethodId, usize, Expr)> {
    let mut out = Vec::new();
    for m in db.methods() {
        if let Some(body) = db.method(m).body() {
            for (si, stmt) in body.stmts.iter().enumerate() {
                if let Some(e) = stmt.expr() {
                    out.push((m, si, e.clone()));
                }
            }
        }
    }
    out
}

/// Every query shape the engine compiles, built around a real call site:
/// holes, the four suffixes, unknown and known calls, assignment,
/// comparison and the parser's ambiguity union. Chain-rooted shapes are
/// where best-first pruning engages; product and merge shapes are where it
/// must stay disengaged.
pub fn query_mix(target: MethodId, args: &[Expr]) -> Vec<PartialExpr> {
    let known0 = PartialExpr::Known(args[0].clone());
    let mut hole_args: Vec<PartialExpr> =
        args.iter().map(|a| PartialExpr::Known(a.clone())).collect();
    hole_args[0] = PartialExpr::Hole;
    vec![
        PartialExpr::Hole,
        PartialExpr::suffix(known0.clone(), SuffixKind::Field),
        PartialExpr::suffix(known0.clone(), SuffixKind::FieldStar),
        PartialExpr::suffix(known0.clone(), SuffixKind::MethodStar),
        // A hole-based suffix re-derives each chain through every
        // (base, appended-links) split, so dedup fires and the running
        // threshold must stay disabled — pinned here after a regression.
        PartialExpr::suffix(PartialExpr::Hole, SuffixKind::MethodStar),
        PartialExpr::suffix(PartialExpr::Hole, SuffixKind::FieldStar),
        PartialExpr::UnknownCall(vec![known0.clone()]),
        PartialExpr::KnownCall {
            candidates: vec![target],
            args: hole_args,
        },
        PartialExpr::Assign(Box::new(PartialExpr::Hole), Box::new(known0.clone())),
        PartialExpr::Cmp(
            CmpOp::Lt,
            Box::new(known0.clone()),
            Box::new(PartialExpr::Hole),
        ),
        PartialExpr::Alt(vec![
            PartialExpr::UnknownCall(vec![known0.clone()]),
            PartialExpr::suffix(known0, SuffixKind::Method),
        ]),
    ]
}
