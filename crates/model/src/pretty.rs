//! Rendering of complete expressions in the style of the paper's figures.

use crate::{Context, Database, Expr};

/// How method calls with explicit arguments are rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CallStyle {
    /// Ordinary C# style: `recv.M(a, b)` / `Ns.Type.M(a, b)` for statics.
    #[default]
    Receiver,
    /// The paper's result-list style (Figure 2): the method is shown fully
    /// qualified and the receiver appears in the argument list, e.g.
    /// `PaintDotNet.Pair.Create(size, img)`.
    Flat,
}

/// Renders an expression to source-ish text.
///
/// Zero-argument instance calls always render receiver-style (they are
/// lookup-chain links); other calls follow `style`.
pub fn render_expr(db: &Database, ctx: &Context, expr: &Expr, style: CallStyle) -> String {
    let mut out = String::new();
    write_expr(db, ctx, expr, style, &mut out);
    out
}

fn write_expr(db: &Database, ctx: &Context, expr: &Expr, style: CallStyle, out: &mut String) {
    match expr {
        Expr::Local(l) => {
            match ctx.locals.get(l.index()) {
                Some(loc) => out.push_str(&loc.name),
                None => out.push_str(&format!("<local{}>", l.index())),
            };
        }
        Expr::This => out.push_str("this"),
        Expr::StaticField(f) => {
            out.push_str(&db.qualified_field_name(*f));
        }
        Expr::FieldAccess(base, f) => {
            write_expr(db, ctx, base, style, out);
            out.push('.');
            out.push_str(db.field(*f).name());
        }
        Expr::Call(m, args) => {
            let md = db.method(*m);
            let zero_arg_instance = !md.is_static() && md.params().is_empty();
            if zero_arg_instance {
                // Chain link: `base.M()`.
                write_expr(db, ctx, &args[0], style, out);
                out.push('.');
                out.push_str(md.name());
                out.push_str("()");
                return;
            }
            match style {
                CallStyle::Flat => {
                    out.push_str(&db.qualified_method_name(*m));
                    out.push('(');
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        write_expr(db, ctx, a, style, out);
                    }
                    out.push(')');
                }
                CallStyle::Receiver => {
                    let explicit = if md.is_static() {
                        out.push_str(&db.types().qualified_name(md.declaring()));
                        &args[..]
                    } else {
                        write_expr(db, ctx, &args[0], style, out);
                        &args[1..]
                    };
                    out.push('.');
                    out.push_str(md.name());
                    out.push('(');
                    for (i, a) in explicit.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        write_expr(db, ctx, a, style, out);
                    }
                    out.push(')');
                }
            }
        }
        Expr::Assign(l, r) => {
            write_expr(db, ctx, l, style, out);
            out.push_str(" = ");
            write_expr(db, ctx, r, style, out);
        }
        Expr::Cmp(op, l, r) => {
            write_expr(db, ctx, l, style, out);
            out.push(' ');
            out.push_str(op.symbol());
            out.push(' ');
            write_expr(db, ctx, r, style, out);
        }
        Expr::IntLit(v) => out.push_str(&v.to_string()),
        Expr::DoubleLit(v) => out.push_str(&format!("{v:?}")),
        Expr::BoolLit(v) => out.push_str(if *v { "true" } else { "false" }),
        Expr::StrLit(s) => out.push_str(&format!("{s:?}")),
        Expr::Null => out.push_str("null"),
        Expr::Hole0 => out.push('0'),
        Expr::Opaque { label, .. } => out.push_str(label),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Local, LocalId, Param, Visibility};

    fn setup() -> (Database, Context) {
        let mut db = Database::new();
        let ns = db
            .types_mut()
            .namespaces_mut()
            .intern(&["PaintDotNet", "Actions"]);
        let doc_ns = db.types_mut().namespaces_mut().intern(&["PaintDotNet"]);
        let doc = db.types_mut().declare_class(doc_ns, "Document").unwrap();
        let size = db.types_mut().declare_struct(doc_ns, "Size").unwrap();
        let action = db
            .types_mut()
            .declare_class(ns, "CanvasSizeAction")
            .unwrap();
        let mut batch = db.member_batch();
        batch.add_method(
            action,
            "ResizeDocument",
            true,
            &[
                Param {
                    name: "document",
                    ty: doc,
                },
                Param {
                    name: "newSize",
                    ty: size,
                },
            ],
            doc,
            Visibility::Public,
        );
        batch.add_method(doc, "Flatten", false, &[], doc, Visibility::Public);
        drop(batch);
        let ctx = Context::with_locals(
            None,
            vec![
                Local {
                    name: "img".into(),
                    ty: doc,
                },
                Local {
                    name: "size".into(),
                    ty: size,
                },
            ],
        );
        (db, ctx)
    }

    #[test]
    fn flat_style_matches_paper_figures() {
        let (db, ctx) = setup();
        let m = db
            .methods()
            .find(|m| db.method(*m).name() == "ResizeDocument")
            .unwrap();
        let call = Expr::Call(m, vec![Expr::Local(LocalId(0)), Expr::Local(LocalId(1))]);
        assert_eq!(
            render_expr(&db, &ctx, &call, CallStyle::Flat),
            "PaintDotNet.Actions.CanvasSizeAction.ResizeDocument(img, size)"
        );
        let with_holes = Expr::Call(m, vec![Expr::Local(LocalId(0)), Expr::Hole0]);
        assert_eq!(
            render_expr(&db, &ctx, &with_holes, CallStyle::Flat),
            "PaintDotNet.Actions.CanvasSizeAction.ResizeDocument(img, 0)"
        );
    }

    #[test]
    fn receiver_style_for_statics_qualifies_type() {
        let (db, ctx) = setup();
        let m = db
            .methods()
            .find(|m| db.method(*m).name() == "ResizeDocument")
            .unwrap();
        let call = Expr::Call(m, vec![Expr::Local(LocalId(0)), Expr::Local(LocalId(1))]);
        assert_eq!(
            render_expr(&db, &ctx, &call, CallStyle::Receiver),
            "PaintDotNet.Actions.CanvasSizeAction.ResizeDocument(img, size)"
        );
    }

    #[test]
    fn zero_arg_calls_render_as_chain_links() {
        let (db, ctx) = setup();
        let flatten = db
            .methods()
            .find(|m| db.method(*m).name() == "Flatten")
            .unwrap();
        let call = Expr::Call(flatten, vec![Expr::Local(LocalId(0))]);
        assert_eq!(
            render_expr(&db, &ctx, &call, CallStyle::Flat),
            "img.Flatten()"
        );
    }

    #[test]
    fn operators_and_literals() {
        let (db, ctx) = setup();
        let e = Expr::cmp(crate::CmpOp::Ge, Expr::IntLit(3), Expr::DoubleLit(1.5));
        assert_eq!(render_expr(&db, &ctx, &e, CallStyle::Receiver), "3 >= 1.5");
        let a = Expr::assign(Expr::Local(LocalId(0)), Expr::Null);
        assert_eq!(
            render_expr(&db, &ctx, &a, CallStyle::Receiver),
            "img = null"
        );
    }
}
