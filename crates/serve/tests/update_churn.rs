//! Bounded member tables under edits: ten thousand updates that alternate
//! a signature edit and a rename to a fresh method name leave the name
//! and parameter tables within twice their size in a fresh compile of the
//! final text. Each rename tombstones a method and mints a new name, and
//! each signature edit leaves parameter rows behind; the tables compact
//! once their dead part outweighs the live part.

use std::sync::Arc;

use pex_model::{minics, Context};
use pex_serve::Snapshot;

const UPDATES: usize = 10_000;

/// The one unit the updates rewrite: method `Step{k}`, with one or two
/// parameters, beside a field and a method that never change.
fn unit(k: usize, wide: bool) -> String {
    let params = if wide {
        "int count, double scale"
    } else {
        "int count"
    };
    format!(
        "namespace Churn {{ class Host {{ int Count; static int Seed(int start) {{ return start; }} \
         void Step{k}({params}); }} }}"
    )
}

#[test]
fn tables_stay_within_twice_a_fresh_compile_after_ten_thousand_updates() {
    let (mut k, mut wide) = (0, false);
    let db = minics::compile(&unit(k, wide)).expect("unit compiles");
    let mut snapshot = Arc::new(Snapshot::from_database(
        "churn".into(),
        db,
        Context::empty(),
        None,
    ));
    for i in 0..UPDATES {
        if i % 2 == 0 {
            wide = !wide;
        } else {
            k += 1;
        }
        let (next, stats) = snapshot
            .apply_update(&unit(k, wide))
            .expect("update applies");
        if i % 2 == 1 {
            assert_eq!((stats.members_added, stats.members_removed), (1, 1));
        }
        snapshot = Arc::new(next.expect("every update changes the model"));
    }
    let db = &snapshot.db;
    assert_eq!(
        db.method_count(),
        2 + UPDATES / 2,
        "one tombstone per rename"
    );
    let fresh = minics::compile(&unit(k, wide)).expect("final unit compiles");
    let (got, want) = (db.table_sizes(), fresh.table_sizes());
    assert!(
        got.name_bytes <= 2 * want.name_bytes,
        "name table: {} bytes, fresh compile {}",
        got.name_bytes,
        want.name_bytes
    );
    assert!(
        got.param_rows <= 2 * want.param_rows,
        "parameter table: {} rows, fresh compile {}",
        got.param_rows,
        want.param_rows
    );
    let step = db
        .find_method(&format!("Churn.Host.Step{k}"))
        .expect("live");
    assert_eq!(db.method(step).params().len(), 1 + usize::from(wide));
}
