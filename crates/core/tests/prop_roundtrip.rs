//! Render → parse round-trips: expressions extracted from generated
//! corpora, rendered in C# style, must re-resolve to the same expression
//! through the partial-expression parser.

use proptest::prelude::*;

use pex_core::{parse_partial, PartialExpr};
use pex_model::{CallStyle, Context, Expr};

mod common;
use common::{sites, small_db};

/// Whether an expression survives rendering textually: opaque expressions
/// render as pseudo-code, the literal `0` re-parses as a hole, and string
/// escapes are not worth normalising here.
fn renderable(e: &Expr) -> bool {
    match e {
        Expr::Opaque { .. } | Expr::StrLit(_) | Expr::Null | Expr::Hole0 => false,
        Expr::IntLit(v) => *v != 0,
        Expr::DoubleLit(_) => false, // float formatting round-trips are a separate concern
        _ => e.children().iter().all(|c| renderable(c)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn corpus_expressions_round_trip_through_the_parser(seed in 0u64..400) {
        let db = small_db(seed);
        for (m, si, expr) in sites(&db).into_iter().take(30) {
            if !renderable(&expr) {
                continue;
            }
            let body = db.method(m).body().expect("sites come from bodies");
            let ctx = Context::at_statement(&db, m, body, si);
            let text = pex_model::render_expr(&db, &ctx, &expr, CallStyle::Receiver);
            let parsed = parse_partial(&db, &ctx, &text);
            let parsed = match parsed {
                Ok(p) => p,
                Err(e) => {
                    return Err(TestCaseError::fail(format!(
                        "rendered `{text}` failed to parse: {e}"
                    )))
                }
            };
            match parsed {
                PartialExpr::Known(e2) => prop_assert_eq!(
                    &e2, &expr,
                    "render/parse mismatch for `{}`", text
                ),
                // Overload ambiguity can keep the call partial; the original
                // method must then be among the candidates and the structure
                // must still derive the original.
                other => prop_assert!(
                    pex_core::derives(&db, &ctx, &other, &expr),
                    "ambiguous parse of `{}` must still derive the original",
                    text
                ),
            }
        }
    }
}
