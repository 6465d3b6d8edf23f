//! Property tests for the one JSON writer: whatever characters a metric
//! name or a diagnostic message holds — quotes, backslashes, control
//! characters, non-ASCII — a metrics snapshot and every trace event line
//! parse back through `pex_obs::json::parse` with their contents intact.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pex_obs::json::{self, JsonWriter, Value};
use pex_obs::{Event, HistogramSnapshot, MetricsSnapshot};

/// Pieces the arbitrary texts are built from: everything JSON escapes,
/// plus multi-byte characters and a separator metric names really use.
const PIECES: &[&str] = &[
    "a", "Z", "9", ".", " ", "\"", "\\", "/", "\n", "\r", "\t", "\u{0}", "\u{1}", "\u{1f}",
    "\u{7f}", "é", "λ", "中", "🦀", "\\u0041",
];

/// An arbitrary text: a run of [`PIECES`] followed by arbitrary
/// non-newline characters.
fn text() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(proptest::sample::select(PIECES.to_vec()), 0..10),
        ".{0,6}",
    )
        .prop_map(|(pieces, tail)| pieces.concat() + &tail)
}

/// Counts stay below 2^53: the parser holds numbers as `f64`, which is
/// exact only up to there.
const EXACT: u64 = 1 << 53;

/// Whether a compact document is free of raw control characters. The
/// writer puts no whitespace between tokens, so any character below
/// U+0020 would sit unescaped inside a string: invalid JSON, which
/// [`json::parse`] rejects too, and a line break that would split a
/// JSON-lines record.
fn strict(doc: &str) -> bool {
    !doc.chars().any(|c| c < ' ')
}

fn parse_u64(v: Option<&Value>) -> Option<u64> {
    v.and_then(Value::as_u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A snapshot written by `write_json` parses back to the same counters,
    /// gauges, and histogram count/sum/max, under the same names.
    #[test]
    fn metrics_snapshots_round_trip(
        counters in proptest::collection::vec((text(), 0u64..EXACT), 0..6),
        gauges in proptest::collection::vec((text(), 0u64..EXACT), 0..4),
        histograms in proptest::collection::vec(
            (text(), proptest::collection::vec(0u64..(1 << 40), 0..20)),
            0..4,
        ),
    ) {
        let snap = MetricsSnapshot {
            counters: counters.into_iter().collect(),
            gauges: gauges.into_iter().collect(),
            histograms: histograms
                .into_iter()
                .map(|(name, samples)| {
                    let mut h = HistogramSnapshot::default();
                    for v in samples {
                        h.record(v);
                    }
                    (name, h)
                })
                .collect(),
        };
        let mut w = JsonWriter::default();
        snap.write_json(&mut w);
        let doc = w.finish();
        prop_assert!(strict(&doc), "raw control character in {doc:?}");
        let parsed = json::parse(&doc).map_err(|e| TestCaseError::fail(format!("{e}: {doc}")))?;

        let section = |key: &str| -> BTreeMap<String, Value> {
            match parsed.get(key) {
                Some(Value::Obj(fields)) => fields.iter().cloned().collect(),
                other => panic!("{key} must be an object, got {other:?}"),
            }
        };
        let numbers = |key: &str| -> BTreeMap<String, u64> {
            section(key)
                .into_iter()
                .map(|(k, v)| (k, v.as_u64().expect("whole number")))
                .collect()
        };
        prop_assert_eq!(numbers("counters"), snap.counters.clone());
        prop_assert_eq!(numbers("gauges"), snap.gauges.clone());
        let hists = section("histograms");
        prop_assert_eq!(hists.len(), snap.histograms.len());
        for (name, h) in &snap.histograms {
            let got = &hists[name];
            prop_assert_eq!(parse_u64(got.get("count")), Some(h.count));
            prop_assert_eq!(parse_u64(got.get("sum")), Some(h.sum));
            prop_assert_eq!(parse_u64(got.get("max")), Some(h.max));
        }
    }

    /// Every event renders as one line that parses with its fields intact.
    #[test]
    fn event_lines_round_trip(
        message in text(),
        name in text(),
        parent in proptest::option::of(text()),
        depth in 0usize..64,
        thread in 0u64..EXACT,
        start_ns in 0u64..EXACT,
        duration_ns in 0u64..EXACT,
    ) {
        // Span and marker names are `&'static str`; a test case leaks its
        // two, which is bounded by the case count.
        let name: &'static str = Box::leak(name.into_boxed_str());
        let parent: Option<&'static str> = parent.map(|p| &*Box::leak(p.into_boxed_str()));
        let events = [
            Event::Message { text: message.clone() },
            Event::SpanEnd { name, parent, depth, thread, start_ns, duration_ns },
            Event::Marker { name, thread, at_ns: start_ns },
        ];
        for event in &events {
            let line = event.to_json();
            prop_assert!(strict(&line), "raw control character in {line:?}");
            let doc = json::parse(&line).map_err(|e| TestCaseError::fail(format!("{e}: {line}")))?;
            let str_field = |k: &str| doc.get(k).and_then(Value::as_str);
            let num_field = |k: &str| parse_u64(doc.get(k));
            match event {
                Event::Message { text } => {
                    prop_assert_eq!(str_field("type"), Some("message"));
                    prop_assert_eq!(str_field("text"), Some(text.as_str()));
                }
                Event::SpanEnd { .. } => {
                    prop_assert_eq!(str_field("type"), Some("span"));
                    prop_assert_eq!(str_field("name"), Some(name));
                    match parent {
                        Some(p) => prop_assert_eq!(str_field("parent"), Some(p)),
                        None => prop_assert_eq!(doc.get("parent"), Some(&Value::Null)),
                    }
                    prop_assert_eq!(num_field("depth"), Some(depth as u64));
                    prop_assert_eq!(num_field("thread"), Some(thread));
                    prop_assert_eq!(num_field("start_ns"), Some(start_ns));
                    prop_assert_eq!(num_field("dur_ns"), Some(duration_ns));
                }
                Event::Marker { .. } => {
                    prop_assert_eq!(str_field("type"), Some("marker"));
                    prop_assert_eq!(str_field("name"), Some(name));
                    prop_assert_eq!(num_field("thread"), Some(thread));
                    prop_assert_eq!(num_field("at_ns"), Some(start_ns));
                }
            }
        }
    }
}
