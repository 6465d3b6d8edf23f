//! A Prospector-style baseline (Mandelin et al., PLDI 2005 — the paper's
//! closest related work, Section 2.3).
//!
//! Prospector answers "convert a value I have into the type I need" by
//! mining *jungloids*: chains of field lookups, zero-argument calls and
//! unary conversion methods from one type to another, ranked by length.
//! The paper compares against it only qualitatively ("Prospector would give
//! a similar list ... although it does not consider globals"); this module
//! implements the documented model so the comparison can be measured:
//!
//! * seeds are **local variables only** (no globals, no `this`) — the
//!   paper's explicit observation about Prospector's inputs;
//! * chains grow by instance field lookups, zero-argument instance calls,
//!   and static methods taking exactly one argument (the "conversion
//!   method" jungloid step — one thing our engine's chain language does
//!   not generate, matching "it may also find chains ... which our tool
//!   would not find");
//! * results are ranked by chain length (shorter first), Prospector's
//!   primary heuristic.

use std::collections::VecDeque;

use pex_model::{Context, Database, Expr, LocalId, ValueTy};
use pex_types::TypeId;

/// The Prospector-style query engine.
#[derive(Debug, Clone, Copy)]
pub struct Prospector<'a> {
    db: &'a Database,
    /// Maximum jungloid length (steps from the seed).
    pub max_len: usize,
}

impl<'a> Prospector<'a> {
    /// Creates a baseline engine with the default length cap of 4.
    pub fn new(db: &'a Database) -> Self {
        Prospector { db, max_len: 4 }
    }

    /// All jungloids from the context's locals to `target`, shortest first,
    /// capped at `limit` results.
    pub fn query(&self, ctx: &Context, target: TypeId, limit: usize) -> Vec<Expr> {
        let mut out = Vec::new();
        let mut queue: VecDeque<(Expr, TypeId, usize)> = VecDeque::new();
        for (i, local) in ctx.locals.iter().enumerate() {
            queue.push_back((Expr::Local(LocalId(i as u32)), local.ty, 0));
        }
        // Breadth-first over (expression, type) states; expressions are
        // unique chains, so no visited-set is needed for termination (the
        // length cap bounds the frontier).
        while let Some((expr, ty, len)) = queue.pop_front() {
            if out.len() >= limit {
                break;
            }
            if self.db.types().implicitly_convertible(ty, target) {
                out.push(expr.clone());
            }
            if len >= self.max_len {
                continue;
            }
            // Field lookups.
            for f in self.db.instance_fields(ty, ctx.enclosing_type) {
                let fd = self.db.field(f);
                queue.push_back((Expr::field(expr.clone(), f), fd.ty(), len + 1));
            }
            // Zero-argument instance calls.
            for m in self.db.zero_arg_instance_methods(ty, ctx.enclosing_type) {
                let md = self.db.method(m);
                queue.push_back((Expr::Call(m, vec![expr.clone()]), md.return_type(), len + 1));
            }
            // Unary static conversion methods ("jungloid steps").
            for m in self.db.methods() {
                let md = self.db.method(m);
                let params = md.params();
                if md.is_static()
                    && params.len() == 1
                    && md.return_type() != self.db.types().void_ty()
                    && params
                        .get(0)
                        .is_some_and(|p| self.db.types().implicitly_convertible(ty, p.ty))
                    && self
                        .db
                        .accessible(md.visibility(), md.declaring(), ctx.enclosing_type)
                {
                    queue.push_back((Expr::Call(m, vec![expr.clone()]), md.return_type(), len + 1));
                }
            }
        }
        out
    }

    /// Rank (0-based) of `wanted` among the query results, if present in
    /// the first `limit`.
    pub fn rank_of(
        &self,
        ctx: &Context,
        target: TypeId,
        wanted: &Expr,
        limit: usize,
    ) -> Option<usize> {
        self.query(ctx, target, limit)
            .iter()
            .position(|e| e == wanted)
    }

    /// The static type of an expression under this database, when known
    /// (convenience for callers classifying seeds).
    pub fn expr_type(&self, ctx: &Context, e: &Expr) -> Option<TypeId> {
        match self.db.expr_ty(e, ctx).ok()? {
            ValueTy::Known(t) => Some(t),
            ValueTy::Wildcard => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;
    use pex_model::Local;

    /// Prospector's own motivating example, transliterated: IFile →
    /// ICompilationUnit (via JavaCore.createCompilationUnitFrom) → ASTNode
    /// (via AST.parseCompilationUnit — modelled unary here).
    const ECLIPSE: &str = r#"
        namespace Eclipse {
            class IFile { }
            class ICompilationUnit { }
            class ASTNode { }
            class JavaCore {
                static Eclipse.ICompilationUnit CreateCompilationUnitFrom(Eclipse.IFile file);
            }
            class AST {
                static Eclipse.ASTNode ParseCompilationUnit(Eclipse.ICompilationUnit cu);
            }
        }
    "#;

    #[test]
    fn finds_the_two_step_jungloid() {
        let db = compile(ECLIPSE).unwrap();
        let ifile = db.types().lookup_qualified("Eclipse.IFile").unwrap();
        let ast = db.types().lookup_qualified("Eclipse.ASTNode").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![Local {
                name: "file".into(),
                ty: ifile,
            }],
        );
        let p = Prospector::new(&db);
        let results = p.query(&ctx, ast, 10);
        assert_eq!(results.len(), 1, "exactly one conversion chain");
        let rendered =
            pex_model::render_expr(&db, &ctx, &results[0], pex_model::CallStyle::Receiver);
        assert_eq!(
            rendered,
            "Eclipse.AST.ParseCompilationUnit(Eclipse.JavaCore.CreateCompilationUnitFrom(file))"
        );
    }

    #[test]
    fn shorter_jungloids_come_first() {
        let db = compile(
            r#"
            namespace N {
                struct Point { int X; }
                class Line { N.Point P1; }
                class Path { N.Line First; }
            }
            "#,
        )
        .unwrap();
        let point = db.types().lookup_qualified("N.Point").unwrap();
        let line = db.types().lookup_qualified("N.Line").unwrap();
        let path = db.types().lookup_qualified("N.Path").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![
                Local {
                    name: "pt".into(),
                    ty: point,
                },
                Local {
                    name: "ln".into(),
                    ty: line,
                },
                Local {
                    name: "pa".into(),
                    ty: path,
                },
            ],
        );
        let p = Prospector::new(&db);
        let results = p.query(&ctx, point, 10);
        let rendered: Vec<String> = results
            .iter()
            .map(|e| pex_model::render_expr(&db, &ctx, e, pex_model::CallStyle::Receiver))
            .collect();
        assert_eq!(rendered, vec!["pt", "ln.P1", "pa.First.P1"]);
        assert_eq!(p.rank_of(&ctx, point, &results[1], 10), Some(1));
    }

    #[test]
    fn ignores_globals_and_this() {
        // The paper: "it does not consider globals as possible inputs".
        let db = compile(
            r#"
            namespace N {
                struct Point { int X; }
                class Holder {
                    static N.Point Origin;
                    N.Point Mine;
                }
            }
            "#,
        )
        .unwrap();
        let point = db.types().lookup_qualified("N.Point").unwrap();
        let holder = db.types().lookup_qualified("N.Holder").unwrap();
        // Instance context with no locals: Prospector finds nothing even
        // though `this.Mine` and `N.Holder.Origin` exist.
        let ctx = Context::instance(holder, vec![]);
        let p = Prospector::new(&db);
        assert!(p.query(&ctx, point, 10).is_empty());
    }
}
