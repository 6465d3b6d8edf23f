//! The query site's abstract types after an update that removes a method.
//!
//! `AbsTypes` indexes its slot tables by raw member id, so it must size
//! them by raw id too: a tombstone keeps inert slots and every later id
//! still reads its own. Both updates here drop `DocumentUtils.Clamp` from
//! the builtin paint snapshot, whose query site sits after it.

use std::collections::HashMap;

use pex_abstract::{AbsClass, AbsTypes};
use pex_corpus::builtin::PAINT_DOT_NET;
use pex_model::{minics, Database, MethodId};
use pex_serve::{Snapshot, SnapshotSource};

const CLAMP: &str =
    "        static System.Drawing.Size Clamp(System.Drawing.Size s) { return s; }\n";
const CLAMP_CALL: &str = "PaintDotNet.Client.DocumentUtils.Clamp(size)";

/// The `PaintDotNet.Client` classes an update replaces, cut from `text`.
fn client_unit(text: &str, classes: &[&str]) -> String {
    let mut unit = String::from("namespace PaintDotNet.Client {\n");
    for class in classes {
        let start = text
            .find(&format!("    class {class} {{"))
            .expect("class in corpus");
        let end = start + text[start..].find("\n    }\n").expect("class end") + 7;
        unit.push_str(&text[start..end]);
    }
    unit.push_str("}\n");
    unit
}

/// A method's key across databases: declaring type, name and parameter
/// types, all by name.
fn method_key(db: &Database, m: MethodId) -> String {
    let md = db.method(m);
    let types = db.types();
    let params: Vec<String> = md
        .params()
        .types()
        .map(|t| types.qualified_name(t))
        .collect();
    format!(
        "{}.{}({})",
        types.qualified_name(md.declaring()),
        md.name(),
        params.join(", ")
    )
}

/// Every live method's slot classes (receiver-first arguments, then the
/// return) and every live field's, in `order`, renumbered by first
/// appearance so solutions over different databases compare.
fn slot_partition(db: &Database, abs: &AbsTypes, order: &[MethodId]) -> Vec<Option<usize>> {
    let mut seen: HashMap<AbsClass, usize> = HashMap::new();
    let mut out = Vec::new();
    let mut push = |class: Option<AbsClass>| {
        let next = seen.len();
        out.push(class.map(|c| *seen.entry(c).or_insert(next)));
    };
    for &m in order {
        for i in 0..db.method(m).full_arity() {
            push(abs.param_class(db, m, i));
        }
        push(abs.return_class(db, m));
    }
    let mut fields: Vec<_> = db.fields().collect();
    fields.sort_by_key(|&f| db.qualified_field_name(f));
    for f in fields {
        push(abs.field_class(f));
    }
    out
}

#[test]
fn a_removed_method_leaves_every_other_slot_where_a_fresh_compile_puts_it() {
    let base = Snapshot::load(&SnapshotSource::Paint).expect("paint builds");
    let clamp = base
        .db
        .find_method("PaintDotNet.Client.DocumentUtils.Clamp")
        .expect("Clamp");
    let site = base.enclosing.expect("paint has a query site");
    assert!(site.index() > clamp.index(), "the site comes after Clamp");

    // Drop Clamp alone: `Startup.Run`, which the update does not name,
    // still calls it, and the site's inference is built over a model with
    // a tombstone before it.
    let text = PAINT_DOT_NET.replacen(CLAMP, "", 1);
    let (stale, stats) = base
        .apply_update(&client_unit(&text, &["DocumentUtils"]))
        .expect("update applies");
    let stale = stale.expect("the update changes the model");
    assert_eq!(stats.members_removed, 1);
    assert!(stale.db.method_removed(clamp));
    assert_eq!(
        stale.db.method(clamp).name(),
        "Clamp",
        "the stale call resolves"
    );
    assert!(stale.site_abs.is_some());

    // Drop it with its caller's call too: that text compiles on its own.
    let text = text.replacen(CLAMP_CALL, "size", 1);
    let (updated, _) = base
        .apply_update(&client_unit(&text, &["DocumentUtils", "Startup"]))
        .expect("update applies");
    let updated = updated.expect("the update changes the model");
    let fresh = minics::compile(&text).expect("edited corpus compiles");
    let fresh_site = fresh
        .methods()
        .find(|&m| method_key(&fresh, m) == method_key(&updated.db, site))
        .expect("the site survives");
    let fresh_abs = AbsTypes::for_query(&fresh, fresh_site, usize::MAX);

    let by_key: HashMap<String, MethodId> = fresh
        .methods()
        .map(|m| (method_key(&fresh, m), m))
        .collect();
    let live: Vec<MethodId> = updated.db.methods().collect();
    let matched: Vec<MethodId> = live
        .iter()
        .map(|&m| by_key[&method_key(&updated.db, m)])
        .collect();
    assert_eq!(
        live.len(),
        fresh.methods().count(),
        "the same methods survive"
    );
    let abs = updated.site_abs.as_ref().expect("the site's inference");
    assert_eq!(
        slot_partition(&updated.db, abs, &live),
        slot_partition(&fresh, &fresh_abs, &matched),
        "slot classes differ from a fresh compile's"
    );
}
