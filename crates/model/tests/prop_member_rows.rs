//! Property test: the per-type member row tables and the body table
//! agree with the member rows they index, through random sequences of
//! `apply_update`s that add, remove and re-signature fields, methods,
//! enum members and bodies, and declare fresh types.
//!
//! The oracles are the simplest reading of the model: a type's members
//! are the live rows that name it as their declaring type, in id order,
//! and a method has a body exactly when its current declaration has one,
//! the body a fresh compile of the current units gives it. Both are
//! checked after every step, and again on a clone and on an
//! encode→decode round trip of the result.

use std::collections::BTreeSet;

use proptest::prelude::*;

use pex_model::minics::{apply_update, compile};
use pex_model::{Database, FieldId, MethodId};
use pex_types::wire::{Reader, StringTable, Strings, Writer};

/// One member slot: `(kind, type, parameter count, flag, flag)`. Kind 0
/// is a field `F<slot>` (type, static, property), kind 1 a method
/// `M<slot>` (return type, parameters, body, static).
type Slot = Option<(u8, u8, u8, bool, bool)>;

/// Slots per class.
const SLOTS: usize = 6;
/// The types a step may re-declare: three classes (`B` derives from
/// `A`), then two enums.
const TYPES: [&str; 5] = ["A", "B", "C", "E", "F"];
const ENUM_MEMBERS: [&str; 4] = ["P", "Q", "R", "S"];

/// A declaration of one type: the class slots, or the enum's member mask.
#[derive(Debug, Clone)]
enum Decl {
    Class(Vec<Slot>),
    Enum(u8),
}

fn slots() -> impl Strategy<Value = Vec<Slot>> {
    proptest::collection::vec(
        proptest::option::of((0u8..2, 0u8..3, 0u8..3, any::<bool>(), any::<bool>())),
        SLOTS,
    )
}

/// A step: which type to (re-)declare, its slots if a class, its member
/// mask if an enum.
fn step() -> impl Strategy<Value = (usize, Vec<Slot>, u8)> {
    (0usize..TYPES.len(), slots(), 1u8..16)
}

fn decl((target, slots, mask): &(usize, Vec<Slot>, u8)) -> Decl {
    if *target < 3 {
        Decl::Class(slots.clone())
    } else {
        Decl::Enum(*mask)
    }
}

/// The unit declaring type `target` as `decl` says.
fn unit(target: usize, decl: &Decl) -> String {
    let name = TYPES[target];
    let body = match decl {
        Decl::Enum(mask) => {
            let members: Vec<&str> = (0..ENUM_MEMBERS.len())
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| ENUM_MEMBERS[i])
                .collect();
            format!("enum {name} {{ {} }}", members.join(", "))
        }
        Decl::Class(slots) => {
            let base = if name == "B" { " : Rows.A" } else { "" };
            let mut members = String::new();
            for (i, slot) in slots.iter().enumerate() {
                let Some((kind, ty, params, a, b)) = *slot else {
                    continue;
                };
                if kind == 0 {
                    let ty = ["int", "bool", "string"][ty as usize];
                    let stat = if a { "static " } else { "" };
                    let prop = if b { " { get; set; }" } else { ";" };
                    members.push_str(&format!(" {stat}{ty} F{i}{prop}"));
                } else {
                    let (ret, ret_body) =
                        [("void", ""), ("int", "return 1;"), ("bool", "return true;")][ty as usize];
                    let stat = if b { "static " } else { "" };
                    let list: Vec<String> = (0..params).map(|p| format!("int p{p}")).collect();
                    let body = if a {
                        format!(" {{ {ret_body} }}")
                    } else {
                        ";".to_owned()
                    };
                    members.push_str(&format!(" {stat}{ret} M{i}({}){body}", list.join(", ")));
                }
            }
            format!("class {name}{base} {{{members} }}")
        }
    };
    format!("namespace Rows {{ {body} }}\n")
}

/// The qualified names of the methods whose current declaration has a
/// body.
fn declared_bodies(decls: &[Option<Decl>]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (target, decl) in decls.iter().enumerate() {
        if let Some(Decl::Class(slots)) = decl {
            for (i, slot) in slots.iter().enumerate() {
                if let Some((1, _, _, true, _)) = slot {
                    out.insert(format!("Rows.{}.M{i}", TYPES[target]));
                }
            }
        }
    }
    out
}

fn roundtrip(db: &Database) -> Database {
    let (mut strings, mut w) = (StringTable::new(), Writer::new());
    db.encode_snapshot(&mut strings, &mut w);
    let bytes = w.into_bytes();
    let mut table = Writer::new();
    strings.encode(&mut table);
    let table = table.into_bytes();
    let strings = Strings::decode(&table).expect("string table decodes");
    Database::decode_snapshot(&strings, &mut Reader::new(&bytes)).expect("database decodes")
}

/// Every type's member lists, as the database hands them out.
type Lists = Vec<(Vec<MethodId>, Vec<FieldId>)>;

/// Checks both oracles on `db` and returns its member lists. `fresh` is
/// a fresh compile of the current units; its bodies name no member, so
/// they compare equal whatever the ids.
fn check(
    db: &Database,
    bodies: &BTreeSet<String>,
    fresh: &Database,
    what: &str,
) -> Result<Lists, TestCaseError> {
    let n_types = db.types().len();
    let mut want: Lists = vec![(Vec::new(), Vec::new()); n_types];
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
    let got: Lists = db
        .types()
        .iter()
        .map(|ty| (db.methods_of(ty).to_vec(), db.fields_of(ty).to_vec()))
        .collect();
    prop_assert_eq!(&got, &want, "{}: member lists", what);

    let with_body: Vec<MethodId> = (0..db.method_count())
        .map(MethodId::from_index)
        .filter(|&m| db.method(m).body().is_some())
        .collect();
    let table: Vec<MethodId> = db.bodies().map(|(m, _)| m).collect();
    prop_assert_eq!(&table, &with_body, "{}: body table", what);
    for (m, body) in db.bodies() {
        prop_assert!(std::ptr::eq(db.method(m).body().unwrap(), body));
        let name = db.qualified_method_name(m);
        let want = fresh
            .find_method(&name)
            .and_then(|f| fresh.method(f).body());
        prop_assert_eq!(Some(body), want, "{}: body of {}", what, name);
    }
    let named: BTreeSet<String> = with_body
        .iter()
        .map(|&m| db.qualified_method_name(m))
        .collect();
    prop_assert_eq!(&named, bodies, "{}: methods with a body", what);
    Ok(got)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn member_rows_and_bodies_match_their_oracles(
        first in step(),
        steps in proptest::collection::vec(step(), 1..12),
    ) {
        // The first compile declares `A` and `E`; the other types are
        // declared fresh by the first step that names them.
        let mut decls: Vec<Option<Decl>> = vec![None; TYPES.len()];
        decls[0] = Some(Decl::Class(first.1.clone()));
        decls[3] = Some(Decl::Enum(first.2));
        let current = |decls: &[Option<Decl>]| -> String {
            (0..TYPES.len())
                .filter_map(|t| decls[t].as_ref().map(|d| unit(t, d)))
                .collect()
        };
        let mut db = compile(&current(&decls)).expect("the first units compile");
        check(&db, &declared_bodies(&decls), &db, "compile")?;
        for (i, step) in steps.iter().enumerate() {
            let decl = decl(step);
            let source = unit(step.0, &decl);
            let (patched, _) = apply_update(&db, &source)
                .map_err(|e| TestCaseError::fail(format!("step {i}: {e}\n{source}")))?;
            decls[step.0] = Some(decl);
            db = patched;
            let bodies = declared_bodies(&decls);
            let fresh = compile(&current(&decls)).expect("the current units compile");
            let lists = check(&db, &bodies, &fresh, &format!("step {i}"))?;
            let copy = db.clone();
            let copied = check(&copy, &bodies, &fresh, &format!("step {i}, clone"))?;
            prop_assert_eq!(copied, lists.clone());
            let decoded = roundtrip(&db);
            let decoded = check(&decoded, &bodies, &fresh, &format!("step {i}, decoded"))?;
            prop_assert_eq!(decoded, lists);
        }
    }
}
