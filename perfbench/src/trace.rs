//! The traced-run recorder: spans kept in memory (name, start, end,
//! parent, request id), written out when the run ends, and reduced to
//! per-layer self time.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! the program itself is not instrumented. A layer's self time is its
//! span's duration minus the time its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::stats::median;

/// One recorded span.
struct SpanRec {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    request: u64,
    child_ns: u64,
}

/// In-memory span store with a stack for nesting.
pub struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Recorder {
    /// Opens a span named `name` for request `request`; spans opened
    /// before it is closed become its children.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let idx = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
            child_ns: 0,
        });
        self.stack.push(idx);
        idx
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn close(&mut self, idx: usize) {
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
        self.stack.pop();
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        let dur = end_ns - span.start_ns;
        if let Some(p) = span.parent {
            self.spans[p].child_ns += dur;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> R) -> R {
        let idx = self.open(name, request);
        let out = f();
        self.close(idx);
        out
    }

    /// Durations (µs) of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total duration (s) of every span named `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        self.durations_us(name).iter().sum::<f64>() / 1e6
    }

    /// Median self time (µs) per span name: duration minus the time its
    /// children cover.
    pub fn self_time_medians_us(&self) -> BTreeMap<&'static str, (f64, usize)> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(s.child_ns);
            by_name
                .entry(s.name)
                .or_default()
                .push(self_ns as f64 / 1e3);
        }
        by_name
            .into_iter()
            .map(|(k, v)| (k, (median(&v), v.len())))
            .collect()
    }

    /// Per request id: the time (µs) each `root` span's children cover,
    /// i.e. the in-process time of the layers below the root.
    pub fn layer_sums_us(&self, root: &str) -> BTreeMap<u64, Vec<f64>> {
        let mut out: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == root) {
            out.entry(s.request)
                .or_default()
                .push(s.child_ns as f64 / 1e3);
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.request
            );
        }
        std::fs::write(path, out)
    }
}

/// A span on an optional recorder: untraced runs pass `None` and pay
/// nothing but the branch.
pub fn open(rec: &mut Option<&mut Recorder>, name: &'static str, request: u64) -> Option<usize> {
    rec.as_deref_mut().map(|r| r.open(name, request))
}

/// Closes a span opened with [`open`].
pub fn close(rec: &mut Option<&mut Recorder>, idx: Option<usize>) {
    if let (Some(r), Some(i)) = (rec.as_deref_mut(), idx) {
        r.close(i);
    }
}
