//! Pretty-printer: renders a [`Database`] back to mini-C# source.
//!
//! The printer is the inverse of [`super::compile`] up to layout: printing
//! a compiled database and recompiling the output yields an equivalent
//! database (same types, members, signatures and statement structure).
//! It is used to dump generated corpora for human inspection
//! (`pex-experiments dump`) and for round-trip tests.
//!
//! Bodies containing [`Expr::Opaque`] nodes (synthetic stand-ins for
//! unmodelled computation) print them as calls to an undeclared
//! `__opaque` marker inside a comment-friendly form; such bodies are
//! skipped when `skip_unprintable_bodies` is set (the default), keeping the
//! output compilable.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use pex_types::{NamespaceId, TypeId, TypeKind};

use crate::{Body, Context, Database, Expr, Stmt, Visibility};

/// Options for [`print()`].
#[derive(Debug, Clone, Copy)]
pub struct PrintOptions {
    /// Skip method bodies that contain constructs the language cannot
    /// express (opaque expressions); the method prints as a bodiless
    /// declaration instead. Default `true` (keeps output recompilable).
    pub skip_unprintable_bodies: bool,
}

impl Default for PrintOptions {
    fn default() -> Self {
        PrintOptions {
            skip_unprintable_bodies: true,
        }
    }
}

/// Renders the whole database as mini-C# source.
pub fn print(db: &Database, options: PrintOptions) -> String {
    let mut out = String::new();
    // Group types by namespace, skipping the built-ins every table has.
    let mut by_ns: BTreeMap<NamespaceId, Vec<TypeId>> = BTreeMap::new();
    for ty in db.types().iter().filter(|&ty| !db.types().is_builtin(ty)) {
        by_ns
            .entry(db.types().get(ty).namespace())
            .or_default()
            .push(ty);
    }
    for (ns, types) in by_ns {
        let path = db.types().namespaces().dotted(ns);
        let path = if path.is_empty() {
            "Global".to_owned()
        } else {
            path
        };
        let _ = writeln!(out, "namespace {path} {{");
        for ty in types {
            emit_type(db, ty, options, &mut out);
        }
        let _ = writeln!(out, "}}");
    }
    out
}

/// Renders a single type declaration, wrapped in its `namespace` block, as a
/// standalone compilation unit. The output recompiles on its own modulo
/// cross-namespace references, and is the natural "edit unit" for the
/// incremental `update` path: perturb the returned source and feed it back
/// through [`super::apply_update`].
pub fn print_type(db: &Database, ty: TypeId, options: PrintOptions) -> String {
    let mut out = String::new();
    let def = db.types().get(ty);
    let path = db.types().namespaces().dotted(def.namespace());
    let path = if path.is_empty() {
        "Global".to_owned()
    } else {
        path
    };
    let _ = writeln!(out, "namespace {path} {{");
    emit_type(db, ty, options, &mut out);
    let _ = writeln!(out, "}}");
    out
}

fn type_ref(db: &Database, ty: TypeId) -> String {
    let def = db.types().get(ty);
    if def.is_primitive() {
        return def.name().to_owned();
    }
    if ty == db.types().object() {
        return "object".to_owned();
    }
    db.types().qualified_name(ty)
}

fn emit_type(db: &Database, ty: TypeId, options: PrintOptions, out: &mut String) {
    let def = db.types().get(ty);
    let name = def.name();
    match def.kind() {
        TypeKind::Enum => {
            let members: Vec<&str> = db
                .fields_of(ty)
                .iter()
                .map(|f| db.field(*f).name())
                .collect();
            let _ = writeln!(out, "    enum {name} {{ {} }}", members.join(", "));
            return;
        }
        TypeKind::Class { .. } | TypeKind::Struct | TypeKind::Interface => {}
        TypeKind::Primitive(_) | TypeKind::Void => return,
    }
    if def.is_comparable() && !matches!(def.kind(), TypeKind::Enum) {
        let _ = writeln!(out, "    [Comparable]");
    }
    let kw = match def.kind() {
        TypeKind::Class { .. } => "class",
        TypeKind::Struct => "struct",
        TypeKind::Interface => "interface",
        _ => unreachable!("handled above"),
    };
    let mut bases: Vec<String> = Vec::new();
    if let Some(base) = db.types().declared_base(ty) {
        bases.push(type_ref(db, base));
    }
    for &iface in def.interfaces() {
        bases.push(type_ref(db, iface));
    }
    let base_clause = if bases.is_empty() {
        String::new()
    } else {
        format!(" : {}", bases.join(", "))
    };
    let _ = writeln!(out, "    {kw} {name}{base_clause} {{");
    for &f in db.fields_of(ty) {
        let fd = db.field(f);
        let stat = if fd.is_static() { "static " } else { "" };
        let vis = if fd.visibility() == Visibility::Private {
            "private "
        } else {
            ""
        };
        let accessors = if fd.is_property() {
            " { get; set; }"
        } else {
            ";"
        };
        let _ = writeln!(
            out,
            "        {vis}{stat}{} {}{accessors}",
            type_ref(db, fd.ty()),
            fd.name()
        );
    }
    for &m in db.methods_of(ty) {
        print_method(db, m, options, out);
    }
    let _ = writeln!(out, "    }}");
}

fn print_method(db: &Database, m: crate::MethodId, options: PrintOptions, out: &mut String) {
    let md = db.method(m);
    let stat = if md.is_static() { "static " } else { "" };
    let vis = if md.visibility() == Visibility::Private {
        "private "
    } else {
        ""
    };
    let ret = if md.return_type() == db.types().void_ty() {
        "void".to_owned()
    } else {
        type_ref(db, md.return_type())
    };
    let params: Vec<String> = md
        .params()
        .iter()
        .map(|p| format!("{} {}", type_ref(db, p.ty), p.name))
        .collect();
    let header = format!(
        "        {vis}{stat}{ret} {}({})",
        md.name(),
        params.join(", ")
    );
    let body = md.body();
    let printable = body.is_some_and(body_printable);
    match body {
        Some(body) if printable || !options.skip_unprintable_bodies => {
            let _ = writeln!(out, "{header} {{");
            print_body(db, m, body, out);
            let _ = writeln!(out, "        }}");
        }
        _ => {
            let _ = writeln!(out, "{header};");
        }
    }
}

fn body_printable(body: &Body) -> bool {
    fn expr_ok(e: &Expr) -> bool {
        match e {
            Expr::Opaque { .. } => false,
            // `0` holes only occur in completions, never in stored bodies,
            // but guard anyway.
            Expr::Hole0 => false,
            _ => e.children().iter().all(|c| expr_ok(c)),
        }
    }
    body.stmts
        .iter()
        .all(|s| s.exprs_recursive().iter().all(|e| expr_ok(e)))
}

fn print_body(db: &Database, m: crate::MethodId, body: &Body, out: &mut String) {
    for (i, stmt) in body.stmts.iter().enumerate() {
        let ctx = Context::at_statement(db, m, body, i + 1);
        print_stmt(db, body, stmt, &ctx, 3, out);
    }
}

fn print_stmt(
    db: &Database,
    body: &Body,
    stmt: &Stmt,
    ctx: &Context,
    indent: usize,
    out: &mut String,
) {
    let pad = "    ".repeat(indent);
    match stmt {
        Stmt::Init(l, e) => {
            let (name, ty) = &body.locals[l.index()];
            let _ = writeln!(
                out,
                "{pad}{} {name} = {};",
                type_ref(db, *ty),
                render(db, ctx, e)
            );
        }
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{pad}{};", render(db, ctx, e));
        }
        Stmt::Return(Some(e)) => {
            let _ = writeln!(out, "{pad}return {};", render(db, ctx, e));
        }
        Stmt::Return(None) => {
            let _ = writeln!(out, "{pad}return;");
        }
        Stmt::If {
            cond,
            then_body,
            else_body,
        } => {
            let _ = writeln!(out, "{pad}if ({}) {{", render(db, ctx, cond));
            for inner in then_body {
                print_stmt(db, body, inner, ctx, indent + 1, out);
            }
            if else_body.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for inner in else_body {
                    print_stmt(db, body, inner, ctx, indent + 1, out);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::While {
            cond,
            body: loop_body,
        } => {
            let _ = writeln!(out, "{pad}while ({}) {{", render(db, ctx, cond));
            for inner in loop_body {
                print_stmt(db, body, inner, ctx, indent + 1, out);
            }
            let _ = writeln!(out, "{pad}}}");
        }
    }
}

fn render(db: &Database, ctx: &Context, e: &Expr) -> String {
    crate::render_expr(db, ctx, e, crate::CallStyle::Receiver)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minics::compile;

    const SOURCE: &str = r#"
        namespace Geo {
            enum Kind { Open, Closed }
            [Comparable] struct Stamp { }
            interface IShape { double GetArea(); }
            class Shape : Geo.IShape {
                Geo.Stamp Created;
                static int Count;
                private string note;
                double GetArea() { return 0.5; }
            }
            class Circle : Geo.Shape {
                double Radius { get; set; }
                double GetArea() { return this.Radius; }
                static Geo.Circle Make(double r) {
                    Geo.Circle c = Geo.Circle.Unit;
                    c.Radius = r;
                    return c;
                }
                static Geo.Circle Unit;
            }
        }
    "#;

    #[test]
    fn print_then_recompile_preserves_structure() {
        let db = compile(SOURCE).unwrap();
        let printed = print(&db, PrintOptions::default());
        let db2 = crate::minics::compile(&printed)
            .unwrap_or_else(|e| panic!("printed source must recompile: {e}\n{printed}"));
        assert_eq!(db.types().len(), db2.types().len(), "{printed}");
        assert_eq!(db.method_count(), db2.method_count(), "{printed}");
        assert_eq!(db.field_count(), db2.field_count(), "{printed}");
        // Signatures survive: every method in db has a same-shaped method
        // in db2 (same declaring type name, name, arity, staticness).
        for m in db.methods() {
            let md = db.method(m);
            let owner = db.types().qualified_name(md.declaring());
            let found = db2.methods().any(|m2| {
                let md2 = db2.method(m2);
                db2.types().qualified_name(md2.declaring()) == owner
                    && md2.name() == md.name()
                    && md2.params().len() == md.params().len()
                    && md2.is_static() == md.is_static()
            });
            assert!(found, "method {}.{} lost in round trip", owner, md.name());
        }
        // Comparable attribute and enum members survive.
        let stamp2 = db2.types().lookup_qualified("Geo.Stamp").unwrap();
        assert!(db2.types().get(stamp2).is_comparable());
        let kind2 = db2.types().lookup_qualified("Geo.Kind").unwrap();
        assert_eq!(db2.fields_of(kind2).len(), 2);
    }

    #[test]
    fn bodies_round_trip() {
        let db = compile(SOURCE).unwrap();
        let printed = print(&db, PrintOptions::default());
        let db2 = crate::minics::compile(&printed).unwrap();
        let make = db2
            .methods()
            .find(|m| db2.method(*m).name() == "Make")
            .unwrap();
        let body = db2.method(make).body().expect("Make keeps its body");
        assert_eq!(body.stmts.len(), 3);
        assert!(matches!(body.stmts[0], Stmt::Init(..)));
        assert!(matches!(body.stmts[2], Stmt::Return(Some(_))));
    }

    #[test]
    fn control_flow_round_trips() {
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
        let printed = print(&db, PrintOptions::default());
        assert!(printed.contains("while (i < limit) {"), "{printed}");
        assert!(printed.contains("} else {"), "{printed}");
        let db2 = compile(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
        let m = db2
            .methods()
            .find(|m| db2.method(*m).name() == "M")
            .unwrap();
        let body = db2.method(m).body().unwrap();
        assert!(matches!(body.stmts[1], Stmt::While { .. }));
        assert!(matches!(body.stmts[2], Stmt::If { .. }));
    }

    #[test]
    fn private_members_print_as_private() {
        let db = compile(SOURCE).unwrap();
        let printed = print(&db, PrintOptions::default());
        assert!(printed.contains("private string note;"), "{printed}");
        let db2 = crate::minics::compile(&printed).unwrap();
        let note = db2
            .fields()
            .find(|f| db2.field(*f).name() == "note")
            .unwrap();
        assert_eq!(db2.field(note).visibility(), Visibility::Private);
    }

    #[test]
    fn generated_corpora_print_without_panicking() {
        // Bodies with opaque expressions fall back to bodiless declarations.
        let db = compile(SOURCE).unwrap();
        let mut db = db;
        let shape = db.types().lookup_qualified("Geo.Shape").unwrap();
        let int = db.types().int_ty();
        let m =
            db.member_batch()
                .add_method(shape, "WithOpaque", false, &[], int, Visibility::Public);
        db.set_body(
            m,
            Body {
                locals: vec![],
                param_count: 0,
                stmts: vec![Stmt::Return(Some(Expr::Opaque {
                    ty: db.types().int_ty(),
                    label: "Compute()".into(),
                }))],
            },
        );
        let printed = print(&db, PrintOptions::default());
        assert!(printed.contains("int WithOpaque();"), "{printed}");
        assert!(crate::minics::compile(&printed).is_ok());
    }
}
