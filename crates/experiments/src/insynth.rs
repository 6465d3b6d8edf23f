//! An InSynth-style baseline (Gvero, Kuncak, Piskac — CAV 2011; the
//! paper's Section 6).
//!
//! InSynth "produces expressions for a given point in code using the type
//! as well as the context ... it generates expressions from scratch with no
//! input from the programmer to guide it". This module implements that
//! model in its simplest published form: **weighted type-directed term
//! synthesis** — saturate a table of the cheapest well-typed terms per
//! type from the environment's atoms (locals, `this`, globals, enum
//! members) and the program's methods (including multi-argument calls,
//! which neither our engine's holes nor Prospector's jungloids generate
//! from scratch), then list the terms of the requested type by weight.
//!
//! Weights follow InSynth's "prefer simpler terms closer to the program
//! point" heuristic: locals are cheapest, then members, then globals;
//! every application adds the callee cost plus its arguments' weights.

use std::collections::HashMap;

use pex_model::{Context, Database, Expr, GlobalRef, LocalId, ValueTy};
use pex_types::TypeId;

/// One synthesised term with its weight.
#[derive(Debug, Clone)]
struct Term {
    weight: u32,
    expr: Expr,
}

/// The InSynth-style synthesiser.
#[derive(Debug, Clone, Copy)]
pub struct InSynth<'a> {
    db: &'a Database,
    /// Saturation rounds (application nesting depth).
    pub rounds: usize,
    /// Cheapest terms kept per type during saturation.
    pub beam: usize,
}

impl<'a> InSynth<'a> {
    /// Creates a synthesiser with the defaults used by the baseline
    /// comparison (3 rounds, beam 6).
    pub fn new(db: &'a Database) -> Self {
        InSynth {
            db,
            rounds: 3,
            beam: 6,
        }
    }

    /// Terms of (a type convertible to) `target`, cheapest first, capped at
    /// `limit`.
    pub fn query(&self, ctx: &Context, target: TypeId, limit: usize) -> Vec<Expr> {
        let table = self.saturate(ctx);
        let mut hits: Vec<&Term> = table
            .iter()
            .filter(|(ty, _)| self.db.types().implicitly_convertible(**ty, target))
            .flat_map(|(_, terms)| terms.iter())
            .collect();
        hits.sort_by(|a, b| {
            a.weight.cmp(&b.weight).then_with(|| {
                // Deterministic tie-break on structure.
                format!("{:?}", a.expr).cmp(&format!("{:?}", b.expr))
            })
        });
        hits.into_iter()
            .take(limit)
            .map(|t| t.expr.clone())
            .collect()
    }

    /// Rank (0-based) of `wanted` among the synthesised terms.
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

    fn saturate(&self, ctx: &Context) -> HashMap<TypeId, Vec<Term>> {
        let db = self.db;
        let mut table: HashMap<TypeId, Vec<Term>> = HashMap::new();
        let insert = |table: &mut HashMap<TypeId, Vec<Term>>, ty: TypeId, term: Term| {
            let slot = table.entry(ty).or_default();
            if slot.iter().any(|t| t.expr == term.expr) {
                return;
            }
            slot.push(term);
            slot.sort_by(|a, b| {
                a.weight
                    .cmp(&b.weight)
                    .then_with(|| format!("{:?}", a.expr).cmp(&format!("{:?}", b.expr)))
            });
            slot.truncate(self.beam);
        };

        // Atoms: locals (weight 1), this (1), globals (3), enum members (3).
        for (i, local) in ctx.locals.iter().enumerate() {
            insert(
                &mut table,
                local.ty,
                Term {
                    weight: 1,
                    expr: Expr::Local(LocalId(i as u32)),
                },
            );
        }
        if let Some(t) = ctx.this_type() {
            insert(
                &mut table,
                t,
                Term {
                    weight: 1,
                    expr: Expr::This,
                },
            );
            // Fields of `this` are near the program point: weight 2.
            for f in db.instance_fields(t, ctx.enclosing_type) {
                let fd = db.field(f);
                insert(
                    &mut table,
                    fd.ty(),
                    Term {
                        weight: 2,
                        expr: Expr::field(Expr::This, f),
                    },
                );
            }
        }
        for g in db.globals() {
            let (expr, ty) = match g {
                GlobalRef::Field(f) => (Expr::StaticField(f), db.field(f).ty()),
                GlobalRef::Method(m) => (Expr::Call(m, Vec::new()), db.method(m).return_type()),
            };
            insert(&mut table, ty, Term { weight: 3, expr });
        }

        // Saturation: apply every field lookup and method to known terms.
        for _ in 0..self.rounds {
            let snapshot: Vec<(TypeId, Vec<Term>)> =
                table.iter().map(|(t, v)| (*t, v.clone())).collect();
            // Per-round index: the cheapest known term usable at each type
            // (one conversion-target walk per table entry, instead of a
            // whole-table scan per method parameter).
            let mut best_for: HashMap<TypeId, Term> = HashMap::new();
            for (ty, terms) in &snapshot {
                let Some(cheapest) = terms.first() else {
                    continue;
                };
                for (target, _) in db.types().conversion_targets(*ty) {
                    let better = match best_for.get(&target) {
                        None => true,
                        Some(existing) => {
                            cheapest.weight < existing.weight
                                || (cheapest.weight == existing.weight
                                    && format!("{:?}", cheapest.expr)
                                        < format!("{:?}", existing.expr))
                        }
                    };
                    if better {
                        best_for.insert(target, cheapest.clone());
                    }
                }
            }
            // Field lookups and zero-argument calls on existing terms.
            for (ty, terms) in &snapshot {
                for term in terms {
                    for f in db.instance_fields(*ty, ctx.enclosing_type) {
                        let fd = db.field(f);
                        insert(
                            &mut table,
                            fd.ty(),
                            Term {
                                weight: term.weight + 1,
                                expr: Expr::field(term.expr.clone(), f),
                            },
                        );
                    }
                }
            }
            // Method applications with synthesised arguments (the cheapest
            // term per parameter — InSynth's greedy instantiation).
            for m in db.methods() {
                let md = db.method(m);
                if md.return_type() == db.types().void_ty()
                    || !db.accessible(md.visibility(), md.declaring(), ctx.enclosing_type)
                {
                    continue;
                }
                let param_tys: Vec<_> = md.full_param_types().collect();
                if param_tys.is_empty() {
                    continue;
                }
                let mut args = Vec::with_capacity(param_tys.len());
                let mut weight = 2u32;
                let mut ok = true;
                for want in &param_tys {
                    match best_for.get(want) {
                        Some(t) => {
                            weight += t.weight;
                            args.push(t.expr.clone());
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    continue;
                }
                let expr = Expr::Call(m, args);
                // Guard against ill-typed corner cases (e.g. receivers
                // through wildcards) by checking the final term.
                if matches!(db.expr_ty(&expr, ctx), Ok(ValueTy::Known(_))) {
                    insert(&mut table, md.return_type(), Term { weight, expr });
                }
            }
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pex_model::minics::compile;
    use pex_model::Local;

    fn db() -> Database {
        compile(
            r#"
            namespace N {
                struct Point { double X; }
                class Line {
                    N.Point P1;
                    static N.Line Between(N.Point a, N.Point b);
                    double Length();
                }
                class World { static N.Point Origin; }
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn synthesises_atoms_cheapest_first() {
        let db = db();
        let point = db.types().lookup_qualified("N.Point").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![Local {
                name: "p".into(),
                ty: point,
            }],
        );
        let s = InSynth::new(&db);
        let results = s.query(&ctx, point, 10);
        let rendered: Vec<String> = results
            .iter()
            .map(|e| pex_model::render_expr(&db, &ctx, e, pex_model::CallStyle::Receiver))
            .collect();
        assert_eq!(rendered[0], "p", "local first: {rendered:?}");
        assert!(
            rendered.contains(&"N.World.Origin".to_string()),
            "{rendered:?}"
        );
    }

    #[test]
    fn synthesises_nested_applications_from_scratch() {
        let db = db();
        let point = db.types().lookup_qualified("N.Point").unwrap();
        let line = db.types().lookup_qualified("N.Line").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![Local {
                name: "p".into(),
                ty: point,
            }],
        );
        let s = InSynth::new(&db);
        // A Line must be built by calling Between(p, p) — a multi-argument
        // call neither Prospector nor a pex hole generates from scratch.
        let results = s.query(&ctx, line, 10);
        let rendered: Vec<String> = results
            .iter()
            .map(|e| pex_model::render_expr(&db, &ctx, e, pex_model::CallStyle::Receiver))
            .collect();
        assert!(
            rendered.iter().any(|r| r == "N.Line.Between(p, p)"),
            "nested synthesis expected: {rendered:?}"
        );
        // And a double can be reached through the synthesised Line.
        let double = db.types().double_ty();
        let doubles = s.query(&ctx, double, 20);
        let rendered: Vec<String> = doubles
            .iter()
            .map(|e| pex_model::render_expr(&db, &ctx, e, pex_model::CallStyle::Receiver))
            .collect();
        assert!(
            rendered.iter().any(|r| r.contains("p.X")),
            "field of a local: {rendered:?}"
        );
    }

    #[test]
    fn weights_order_is_deterministic() {
        let db = db();
        let point = db.types().lookup_qualified("N.Point").unwrap();
        let ctx = Context::with_locals(
            None,
            vec![Local {
                name: "p".into(),
                ty: point,
            }],
        );
        let s = InSynth::new(&db);
        let a = s.query(&ctx, point, 10);
        let b = s.query(&ctx, point, 10);
        assert_eq!(a, b);
        assert_eq!(s.rank_of(&ctx, point, &a[0], 10), Some(0));
    }
}
