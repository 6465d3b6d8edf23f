//! Seeded decode fuzzing of the `pex-snapshot` loader. Each case
//! rewrites one or two `u32` words of one section of a valid file and
//! recomputes the checksum, so only the decoders' own validation stands
//! between the bytes and the daemon. A file must either be refused with
//! a clean one-line error or decode to a snapshot that answers queries,
//! takes an update and re-encodes to bytes that decode — never a panic.
//!
//! The inputs are the builtin paint snapshot and a small generated
//! project's. Debug builds run a number of cases that fits `cargo test`
//! time, optimised builds ten times as many.

use std::sync::OnceLock;

use proptest::prelude::*;

use pex_core::CancelToken;
use pex_corpus::{generate, ClientProfile, LibraryProfile};
use pex_model::minics::{self, PrintOptions};
use pex_model::Context;
use pex_serve::json::Value;
use pex_serve::proto::{self, QueryRequest};
use pex_serve::{persist, RequestDefaults, Snapshot, SnapshotSource};

mod common;

use common::{assemble, sections, Sections};

const CASES: u32 = if cfg!(debug_assertions) {
    1_000
} else {
    10_000
};

/// The sections of the paint snapshot and of a small generated
/// project's, served from its first statement site.
fn inputs() -> &'static [Sections; 2] {
    static INPUTS: OnceLock<[Sections; 2]> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let lib = LibraryProfile {
            types: 25,
            namespaces: 4,
            ..Default::default()
        };
        let client = ClientProfile {
            classes: 2,
            ..Default::default()
        };
        let db = generate(&lib, &client, 7);
        let (m, body) = db
            .methods()
            .find_map(|m| Some((m, db.method(m).body().filter(|b| !b.stmts.is_empty())?)))
            .expect("the project has a body");
        let ctx = Context::at_statement(&db, m, body, 0);
        let generated = Snapshot::from_database("fuzz".into(), db, ctx, Some(m));
        let paint = Snapshot::load(&SnapshotSource::Paint).unwrap();
        [&*paint, &generated].map(|s| sections(&persist::to_bytes(s)))
    })
}

/// Decodes `bytes` and says whether they decoded. A refusal must be one
/// clean line. A snapshot must answer five explained queries, take an
/// update that re-declares its `pick`-th declared type (as printed from
/// the decoded model) and declares a fresh one, and re-encode, as
/// decoded and as updated, to bytes that decode.
fn check(bytes: &[u8], pick: usize) -> bool {
    let snapshot = match persist::from_bytes(bytes) {
        Ok(snapshot) => snapshot,
        Err(e) => {
            assert!(!e.is_empty() && !e.contains('\n'), "{e:?}");
            return false;
        }
    };
    let locals = &snapshot.default_ctx.locals;
    let a = locals.first().map_or("x", |l| l.name.as_str());
    let b = locals.last().map_or("x", |l| l.name.as_str());
    for query in [
        "?".to_owned(),
        format!("?({{{a}}})"),
        format!("{a}.?f"),
        format!("{a}.?m()"),
        format!("?({{{a}, {b}}})"),
    ] {
        let req = QueryRequest {
            id: Some(Value::Num(1.0)),
            project: None,
            query,
            limit: Some(10),
            deadline_ms: None,
            max_steps: Some(20_000),
            max_depth: None,
            locals: Vec::new(),
            trace_id: None,
            trace: false,
            explain: true,
        };
        let defaults = RequestDefaults::default();
        let abs = snapshot.site_abs.as_ref();
        proto::execute(&snapshot, &req, &defaults, &CancelToken::new(), abs);
    }
    let types = snapshot.db.types();
    let declared: Vec<_> = types.iter().filter(|&t| !types.is_builtin(t)).collect();
    let mut source = match declared.get(pick % declared.len().max(1)) {
        Some(&ty) => minics::print_type(&snapshot.db, ty, PrintOptions::default()),
        None => String::new(),
    };
    source.push_str("namespace Fuzz { class Probe { int X; static int F(int a) { return a; } } }");
    let updated = snapshot
        .apply_update(&source)
        .ok()
        .and_then(|(next, _)| next);
    for s in std::iter::once(&snapshot).chain(&updated) {
        let again = persist::from_bytes(&persist::to_bytes(s));
        assert!(again.is_ok(), "a re-encoded snapshot fails: {again:?}");
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn mutated_snapshots_decode_cleanly_or_are_refused_cleanly(
        input in 0usize..2,
        section in any::<usize>(),
        words in proptest::collection::vec((any::<usize>(), 0u8..6, any::<u32>()), 1..3),
        pick in any::<usize>(),
    ) {
        let mut parts = inputs()[input].clone();
        let n = parts.len();
        let bytes = &mut parts[section % n].1;
        if bytes.len() >= 4 {
            for (at, how, value) in words {
                let at = at % (bytes.len() - 3);
                let old = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                let new = match how {
                    0 => value,
                    1 => old ^ 1 << (value % 32),
                    2 => old.wrapping_add(1),
                    3 => old.wrapping_sub(1),
                    4 => value % 8,
                    _ => u32::MAX,
                };
                bytes[at..at + 4].copy_from_slice(&new.to_le_bytes());
            }
        }
        check(&assemble(&parts), pick);
    }
}

#[test]
fn the_unmutated_files_pass_and_a_body_claiming_a_parameter_is_refused() {
    for parts in inputs() {
        assert!(check(&assemble(parts), 0));
    }
    let forged = common::paint_body_claiming_a_parameter(&inputs()[0]);
    assert!(!check(&forged, 0));
}
