//! Property test: whatever batches built a model, each type's member
//! lists are what one counting pass over the member rows gives — the live
//! rows that name the type as their declaring type, in id order.
//!
//! A step is a batch that adds members to types in any order (some
//! declared just before it), batches that each add only to a type
//! declared after every type listing members (the generator's client
//! classes, which a drop lists by appending), an update that tombstones
//! some of a type's members, or a batch left empty. The lists are checked
//! after every batch.

use proptest::prelude::*;

use pex_model::minics::apply_update;
use pex_model::{Database, FieldId, MemberBatch, MethodId, TypeId, Visibility};

/// A step: its kind, then the classes to declare and the `(class pick,
/// is a field)` additions of a batch anywhere, the member counts of tail
/// classes, and the class pick and member mask of a removal.
type Step = (u8, usize, Vec<(usize, bool)>, Vec<usize>, usize, u64);

fn step() -> impl Strategy<Value = Step> {
    (
        0u8..4,
        0usize..3,
        proptest::collection::vec((any::<usize>(), any::<bool>()), 0..12),
        proptest::collection::vec(0usize..5, 1..4),
        any::<usize>(),
        any::<u64>(),
    )
}

/// Declares class `C<n>` in namespace `Gen`.
fn declare(db: &mut Database, classes: &mut Vec<TypeId>) {
    let ns = db.types_mut().namespaces_mut().intern(&["Gen"]);
    let name = format!("C{}", classes.len());
    classes.push(db.types_mut().declare_class(ns, &name).unwrap());
}

/// Adds field `F<n>` or method `M<n>` to `class`. Member names are
/// unique model-wide, so an update can keep any subset of a class's
/// members by naming them.
fn add(batch: &mut MemberBatch<'_>, class: TypeId, n: usize, field: bool) {
    let (int, void) = (batch.types().int_ty(), batch.types().void_ty());
    let public = Visibility::Public;
    if field {
        let name = format!("F{n}");
        batch
            .add_field(class, &name, false, int, public, false)
            .unwrap();
    } else {
        batch.add_method(class, &format!("M{n}"), false, &[], void, public);
    }
}

/// The unit re-declaring `class` with the members whose bit in `keep`
/// is set.
fn keeping(db: &Database, class: TypeId, keep: u64) -> String {
    let fields = db.fields_of(class).iter().map(|&f| db.field(f).name());
    let fields = fields.map(|name| format!("int {name};"));
    let methods = db.methods_of(class).iter().map(|&m| db.method(m).name());
    let methods = methods.map(|name| format!("void {name}();"));
    let kept: Vec<String> = (0..)
        .zip(fields.chain(methods))
        .filter_map(|(k, member)| (keep >> (k % 64) & 1 == 1).then_some(member))
        .collect();
    let name = db.types().get(class).name();
    format!("namespace Gen {{ class {name} {{ {} }} }}", kept.join(" "))
}

/// Checks every type's lists against a counting pass over the rows.
fn check(db: &Database, what: &str) -> Result<(), TestCaseError> {
    let mut want = vec![(Vec::new(), Vec::new()); db.types().len()];
    for m in (0..db.method_count()).map(MethodId::from_index) {
        if !db.method_removed(m) {
            want[db.method(m).declaring().index()].0.push(m);
        }
    }
    for f in (0..db.field_count()).map(FieldId::from_index) {
        if !db.field_removed(f) {
            want[db.field(f).declaring().index()].1.push(f);
        }
    }
    let got: Vec<(Vec<MethodId>, Vec<FieldId>)> = db
        .types()
        .iter()
        .map(|ty| (db.methods_of(ty).to_vec(), db.fields_of(ty).to_vec()))
        .collect();
    prop_assert_eq!(got, want, "{}", what);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn batches_list_members_as_a_counting_pass_does(
        steps in proptest::collection::vec(step(), 1..16),
    ) {
        let mut db = Database::new();
        let mut classes = Vec::new();
        declare(&mut db, &mut classes);
        let mut next = 0;
        for (i, (kind, new, adds, counts, class, keep)) in steps.into_iter().enumerate() {
            match kind {
                0 => {
                    for _ in 0..new {
                        declare(&mut db, &mut classes);
                    }
                    let mut batch = db.member_batch();
                    for (pick, field) in adds {
                        next += 1;
                        add(&mut batch, classes[pick % classes.len()], next, field);
                    }
                }
                1 => {
                    for count in counts {
                        declare(&mut db, &mut classes);
                        let mut batch = db.member_batch();
                        for k in 0..count {
                            next += 1;
                            add(&mut batch, *classes.last().unwrap(), next, k % 2 == 0);
                        }
                        drop(batch);
                        check(&db, &format!("step {i}, a tail class"))?;
                    }
                }
                2 => {
                    let source = keeping(&db, classes[class % classes.len()], keep);
                    db = apply_update(&db, &source)
                        .map_err(|e| TestCaseError::fail(format!("step {i}: {e}\n{source}")))?
                        .0;
                }
                _ => drop(db.member_batch()),
            }
            check(&db, &format!("step {i}"))?;
        }
    }
}
