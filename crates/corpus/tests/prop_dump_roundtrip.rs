//! Property test: generated projects survive a dump → recompile round trip
//! (the `pex-experiments dump` path), including control-flow statements.
//! A dump split into one compilation unit per namespace block compiles to
//! the same model as the whole dump.

use proptest::prelude::*;

use pex_corpus::{builtin, generate, table1_projects, ClientProfile, LibraryProfile};
use pex_model::minics::{compile, compile_many, print, PrintOptions};
use pex_model::Database;
use pex_types::wire::{StringTable, Writer};

fn encoded(db: &Database) -> Vec<u8> {
    let mut strings = StringTable::new();
    let mut w = Writer::new();
    db.encode_snapshot(&mut strings, &mut w);
    strings.encode(&mut w);
    w.into_bytes()
}

/// The printed source cut before every top-level `namespace` block.
fn namespace_units(printed: &str) -> Vec<&str> {
    let mut starts: Vec<usize> = printed
        .match_indices("namespace ")
        .map(|(i, _)| i)
        .filter(|&i| i == 0 || printed.as_bytes()[i - 1] == b'\n')
        .collect();
    starts.push(printed.len());
    starts.windows(2).map(|w| &printed[w[0]..w[1]]).collect()
}

/// The printer qualifies every type reference, so each namespace block
/// compiles as its own unit; the units must lower to the model the whole
/// dump lowers to, id for id.
#[test]
fn namespace_units_compile_to_the_same_model_as_the_whole_dump() {
    let generated = table1_projects()[0].generate(0.02);
    let models = [
        ("paint", builtin::paint_dot_net()),
        ("geometry", builtin::dynamic_geometry()),
        ("familyshow", builtin::family_show()),
        ("table1", generated),
    ];
    for (name, db) in models {
        let printed = print(&db, PrintOptions::default());
        let units = namespace_units(&printed);
        // The geometry corpus declares a single namespace.
        assert!(units.len() > 1 || name == "geometry", "{name}: one unit");
        let whole = compile(&printed).unwrap_or_else(|e| panic!("{name}: {e}"));
        let split = compile_many(&units).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(
            encoded(&split) == encoded(&whole),
            "{name}: {} units lower to a different model",
            units.len()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn generated_projects_recompile_from_their_dump(seed in 0u64..200) {
        let lib = LibraryProfile {
            types: 30,
            namespaces: 4,
            ..Default::default()
        };
        let client = ClientProfile {
            classes: 2,
            ..Default::default()
        };
        let db = generate(&lib, &client, seed);
        let printed = print(&db, PrintOptions::default());
        let db2 = compile(&printed).map_err(|e| {
            TestCaseError::fail(format!("dump must recompile: {e}"))
        })?;
        // Structure survives exactly: the printer only drops bodies that
        // contain opaque expressions, never declarations.
        prop_assert_eq!(db.types().len(), db2.types().len());
        prop_assert_eq!(db.method_count(), db2.method_count());
        prop_assert_eq!(db.field_count(), db2.field_count());
        // Recompiled bodies type-check (compile() already checks; assert
        // some survived so the property is not vacuous over all seeds).
        let bodies2 = db2
            .methods()
            .filter(|m| db2.method(*m).body().is_some())
            .count();
        let printable = db
            .methods()
            .filter(|m| {
                db.method(*m).body().is_some()
                    && printed.contains(&format!("{}(", db.method(*m).name()))
            })
            .count();
        prop_assert!(bodies2 <= printable || printable == 0);
    }
}
