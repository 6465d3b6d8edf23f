//! Property test: printing a database and recompiling the output preserves
//! its structure, for arbitrary hand-built models.

use proptest::prelude::*;

use pex_model::minics::{compile, print, PrintOptions};
use pex_model::{Database, Param, Visibility};
use pex_types::PrimKind;

/// Strategy: a recipe for a small random model built through the public
/// `Database` and `MemberBatch` API (types, hierarchy, fields, methods —
/// no bodies, which the corpus-level round-trip in `pex-core` covers).
#[derive(Debug, Clone)]
struct Recipe {
    classes: usize,
    bases: Vec<Option<usize>>,
    fields_per_class: Vec<usize>,
    methods_per_class: Vec<usize>,
    static_bits: u64,
}

fn recipe() -> impl Strategy<Value = Recipe> {
    (1usize..6).prop_flat_map(|classes| {
        (
            proptest::collection::vec(proptest::option::of(0..classes.max(1)), classes),
            proptest::collection::vec(0usize..4, classes),
            proptest::collection::vec(0usize..4, classes),
            any::<u64>(),
        )
            .prop_map(
                move |(bases, fields_per_class, methods_per_class, static_bits)| Recipe {
                    classes,
                    bases,
                    fields_per_class,
                    methods_per_class,
                    static_bits,
                },
            )
    })
}

fn build(recipe: &Recipe) -> Database {
    let mut db = Database::new();
    let ns = db.types_mut().namespaces_mut().intern(&["Gen"]);
    let classes: Vec<_> = (0..recipe.classes)
        .map(|i| {
            db.types_mut()
                .declare_class(ns, &format!("C{i}"))
                .expect("unique")
        })
        .collect();
    for (i, base) in recipe.bases.iter().enumerate() {
        if let Some(b) = base {
            if *b < i {
                db.types_mut()
                    .set_base(classes[i], classes[*b])
                    .expect("acyclic");
            }
        }
    }
    let prims = [
        PrimKind::Int,
        PrimKind::Double,
        PrimKind::String,
        PrimKind::Bool,
    ];
    let mut bit = 0;
    let mut next_bit = |recipe: &Recipe| {
        let b = (recipe.static_bits >> (bit % 64)) & 1 == 1;
        bit += 1;
        b
    };
    let mut batch = db.member_batch();
    for (i, &class) in classes.iter().enumerate() {
        for f in 0..recipe.fields_per_class[i] {
            let ty = if f % 2 == 0 {
                batch.types().prim(prims[f % prims.len()])
            } else {
                classes[f % classes.len()]
            };
            let is_static = next_bit(recipe);
            batch
                .add_field(
                    class,
                    &format!("F{f}"),
                    is_static,
                    ty,
                    Visibility::Public,
                    f % 3 == 0,
                )
                .expect("unique per class");
        }
        for m in 0..recipe.methods_per_class[i] {
            let ret = if m % 2 == 0 {
                batch.types().void_ty()
            } else {
                classes[m % classes.len()]
            };
            let params: Vec<Param> = ["p0", "p1", "p2"][..m % 3]
                .iter()
                .enumerate()
                .map(|(p, name)| Param {
                    name,
                    ty: batch.types().prim(prims[p % prims.len()]),
                })
                .collect();
            let is_static = next_bit(recipe);
            batch.add_method(
                class,
                &format!("M{m}"),
                is_static,
                &params,
                ret,
                Visibility::Public,
            );
        }
    }
    drop(batch);
    db
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn print_recompile_preserves_counts(r in recipe()) {
        let db = build(&r);
        let printed = print(&db, PrintOptions::default());
        let db2 = compile(&printed).map_err(|e| {
            TestCaseError::fail(format!("printed source must recompile: {e}\n{printed}"))
        })?;
        prop_assert_eq!(db.types().len(), db2.types().len());
        prop_assert_eq!(db.method_count(), db2.method_count());
        prop_assert_eq!(db.field_count(), db2.field_count());
        // Hierarchy edges survive.
        for ty in db.types().iter() {
            if let Some(base) = db.types().declared_base(ty) {
                let name = db.types().qualified_name(ty);
                let base_name = db.types().qualified_name(base);
                let ty2 = db2.types().lookup_qualified(&name).expect("type survives");
                let base2 = db2.types().declared_base(ty2).expect("base survives");
                prop_assert_eq!(db2.types().qualified_name(base2), base_name);
            }
        }
    }
}

/// A non-ASCII string literal compiles to the text written, not to one
/// Latin-1 character per UTF-8 byte, and survives print → compile
/// unchanged.
#[test]
fn non_ascii_string_literals_survive_compile_print_compile() {
    use pex_model::{Expr, Stmt};

    let literal = |db: &Database| {
        let m = db.find_method("N.C.M").expect("method M");
        match &db.method(m).body().expect("body").stmts[..] {
            [Stmt::Return(Some(Expr::StrLit(s)))] => s.clone(),
            other => panic!("unexpected body {other:?}"),
        }
    };
    let source = "namespace N { class C { string M() { return \"é \\\"ü\\\" 日本 \\\\ ok\"; } } }";
    let db = compile(source).expect("source compiles");
    assert_eq!(literal(&db), "é \"ü\" 日本 \\ ok");
    let again = compile(&print(&db, PrintOptions::default())).expect("printed source compiles");
    assert_eq!(literal(&again), literal(&db));
}
