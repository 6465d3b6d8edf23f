//! A loaded `pex-snapshot/1` artefact must be *indistinguishable* from
//! the snapshot it was saved from: same database rows, same prewarmed
//! caches, same interned arena — and therefore byte-identical protocol
//! responses (expressions, scores, outcomes, explain terms) for every
//! query. These properties pin that equivalence over randomly generated
//! corpora, the same generator the engine's own parity suites use.

use proptest::prelude::*;

use pex_core::CancelToken;
use pex_corpus::{generate, ClientProfile, LibraryProfile};
use pex_model::{Context, Database, MethodId};
use pex_serve::json::{self, Value};
use pex_serve::proto::{self, QueryRequest};
use pex_serve::{persist, RequestDefaults, Snapshot, SnapshotSource};

fn small_db(seed: u64) -> Database {
    let lib = LibraryProfile {
        types: 25,
        namespaces: 4,
        ..Default::default()
    };
    let client = ClientProfile {
        classes: 2,
        ..Default::default()
    };
    generate(&lib, &client, seed)
}

/// First statement site in the corpus (enclosing method + statement
/// index), used as the snapshot's default query context.
fn first_site(db: &Database) -> Option<(MethodId, usize)> {
    for m in db.methods() {
        if let Some(body) = db.method(m).body() {
            if !body.stmts.is_empty() {
                return Some((m, 0));
            }
        }
    }
    None
}

/// Runs one query and normalizes the response for comparison: the only
/// legitimately nondeterministic field is the wall-clock `latency_us`.
/// Everything else — completions, scores, outcome, explain terms, error
/// text — must match exactly between a built and a loaded snapshot.
fn answer(snapshot: &Snapshot, query: &str) -> String {
    let req = QueryRequest {
        id: Some(Value::Num(1.0)),
        project: None,
        query: query.to_owned(),
        limit: Some(20),
        deadline_ms: None,
        max_steps: None,
        max_depth: None,
        locals: Vec::new(),
        trace_id: Some("t-roundtrip".to_owned()),
        trace: false,
        explain: true,
    };
    let (response, _) = proto::execute(
        snapshot,
        &req,
        &RequestDefaults::default(),
        &CancelToken::new(),
        snapshot.site_abs.as_ref(),
    );
    let mut doc = json::parse(&response).expect("responses are valid JSON");
    if doc.get("latency_us").is_some() {
        doc.set("latency_us", Value::Num(0.0));
    }
    doc.to_string()
}

/// A spread of query surfaces: the bare hole, brace queries over the
/// context's locals, member suffixes, and one malformed query (both
/// sides must produce the identical error response too).
fn query_mix(snapshot: &Snapshot) -> Vec<String> {
    let mut queries = vec!["?".to_owned(), "?(".to_owned()];
    let locals: Vec<&str> = snapshot
        .default_ctx
        .locals
        .iter()
        .map(|l| l.name.as_str())
        .collect();
    if let Some(a) = locals.first() {
        queries.push(format!("?({{{a}}})"));
        queries.push(format!("{a}.?f"));
        queries.push(format!("{a}.?m()"));
    }
    if let [a, b, ..] = locals.as_slice() {
        queries.push(format!("?({{{a}, {b}}})"));
    }
    queries
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Save → load → answer: every query produces the byte-identical
    /// response from the loaded snapshot, and re-encoding the loaded
    /// snapshot reproduces the original bytes (the format is canonical).
    #[test]
    fn loaded_snapshot_answers_identically(seed in 0u64..300) {
        let db = small_db(seed);
        let Some((enclosing, stmt)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let built = Snapshot::from_database("prop".to_owned(), db, ctx, Some(enclosing));

        let bytes = persist::to_bytes(&built);
        let loaded = persist::from_bytes(&bytes)
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;

        // Canonical re-encode *before* answering queries (queries intern
        // new expressions into the arena, growing it on both sides).
        prop_assert_eq!(
            persist::to_bytes(&loaded),
            bytes,
            "re-encoding a loaded snapshot must reproduce the file"
        );

        prop_assert_eq!(&loaded.name, &built.name);
        prop_assert_eq!(loaded.enclosing, built.enclosing);
        prop_assert_eq!(loaded.db.method_count(), built.db.method_count());
        prop_assert_eq!(loaded.db.field_count(), built.db.field_count());
        prop_assert_eq!(loaded.cache.arena.len(), built.cache.arena.len());

        for query in query_mix(&built) {
            prop_assert_eq!(
                answer(&loaded, &query),
                answer(&built, &query),
                "responses diverged on query `{}`", query
            );
        }
    }

    /// The loaded caches are already warm: answering from a loaded
    /// snapshot must produce identical rows *again* on a second run (the
    /// arena and memos it rehydrated are internally consistent, not just
    /// equal-looking).
    #[test]
    fn loaded_snapshot_is_self_consistent(seed in 0u64..100) {
        let db = small_db(seed);
        let Some((enclosing, stmt)) = first_site(&db) else { return Ok(()) };
        let body = db.method(enclosing).body().expect("site came from a body");
        let ctx = Context::at_statement(&db, enclosing, body, stmt);
        let built = Snapshot::from_database("prop".to_owned(), db, ctx, Some(enclosing));
        let loaded = persist::from_bytes(&persist::to_bytes(&built))
            .map_err(|e| TestCaseError::fail(format!("decode failed: {e}")))?;

        for query in query_mix(&loaded) {
            let first = answer(&loaded, &query);
            let second = answer(&loaded, &query);
            prop_assert_eq!(first, second, "warm rerun diverged on `{}`", query);
        }
    }
}

/// The format is canonical on the shipped corpus too: decoding the
/// Paint.NET snapshot and encoding it again reproduces every byte, the
/// reachability rows and the rebuilt namespace and type-name lookups
/// included.
#[test]
fn paint_snapshot_reencodes_byte_identically() {
    let built = Snapshot::load(&SnapshotSource::Paint).unwrap();
    let bytes = persist::to_bytes(&built);
    let loaded = persist::from_bytes(&bytes).unwrap();
    assert_eq!(loaded.reach, built.reach);
    assert_eq!(persist::to_bytes(&loaded), bytes);
    let types = loaded.db.types();
    for ty in types.iter() {
        assert_eq!(types.lookup_qualified(&types.qualified_name(ty)), Some(ty));
    }
}
