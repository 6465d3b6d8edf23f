//! Lock-free metric primitives and the name registry.
//!
//! Counters and histograms use only relaxed atomic read-modify-writes on
//! the hot path. Because `fetch_add` and `fetch_max` commute, aggregate
//! counter totals, histogram bucket counts, and gauge high-water marks are
//! **independent of how work was scheduled across threads** — the property
//! the experiments' determinism oracle pins (`prop_metrics.rs`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::json::JsonWriter;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A fresh zero counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` (relaxed; lock-free).
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (cold path; tests and benches).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// A last-value / high-water-mark metric.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// A fresh zero gauge.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Overwrites the value (last write wins).
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Raises the value to at least `v` (relaxed `fetch_max`; lock-free and
    /// order-independent, so high-water marks are deterministic).
    #[inline]
    pub fn record_max(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Resets to zero (cold path; tests and benches).
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of histogram buckets: bucket 0 holds exact zeros, bucket `i ≥ 1`
/// holds values in `[2^(i-1), 2^i - 1]`, bucket 64 holds `[2^63, u64::MAX]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-bucket log₂ histogram with exact `sum` and `max` side channels.
///
/// Recording is two relaxed `fetch_add`s plus one relaxed `fetch_max` — no
/// locks, no allocation. Bucket counts merge across threads by addition,
/// so totals are schedule-independent. Percentiles read from a
/// [`HistogramSnapshot`] resolve to bucket upper bounds (a ≤2× factor),
/// which is deterministic and plenty for latency triage; `max` is exact.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// A fresh empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index for a value: 0 for 0, else `floor(log2 v) + 1`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of a bucket (what percentile reads report).
    pub fn bucket_upper(i: usize) -> u64 {
        match i {
            0 => 0,
            1..=63 => (1u64 << i) - 1,
            _ => u64::MAX,
        }
    }

    /// Records one sample (relaxed; lock-free).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[Self::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((i, c));
                count += c;
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Resets all buckets (cold path; tests and benches).
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// An owned copy of one histogram's state: mergeable, queryable, and
/// serialisable without touching the live atomics again.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Exact sum of all samples.
    pub sum: u64,
    /// Exact maximum sample (0 when empty).
    pub max: u64,
    /// `(bucket index, count)` pairs for non-empty buckets, ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnapshot {
    /// Records one sample directly into the snapshot — the single-writer
    /// twin of [`Histogram::record`], used where a snapshot is the live
    /// store (e.g. one ring slot of a
    /// [`WindowedHistogram`](crate::WindowedHistogram), which is already
    /// serialised by its slot lock).
    pub fn record(&mut self, v: u64) {
        let i = Histogram::bucket_index(v);
        match self.buckets.binary_search_by_key(&i, |&(bi, _)| bi) {
            Ok(pos) => self.buckets[pos].1 += 1,
            Err(pos) => self.buckets.insert(pos, (i, 1)),
        }
        self.count += 1;
        // Wrapping, matching the live histogram's relaxed `fetch_add`.
        self.sum = self.sum.wrapping_add(v);
        self.max = self.max.max(v);
    }

    /// Merges another snapshot into this one (bucket-wise addition; the
    /// same operation worker-local histograms would need, expressed on
    /// snapshots so the live atomics stay single-writer-free).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
        for &(i, c) in &other.buckets {
            match self.buckets.binary_search_by_key(&i, |&(bi, _)| bi) {
                Ok(pos) => self.buckets[pos].1 += c,
                Err(pos) => self.buckets.insert(pos, (i, c)),
            }
        }
    }

    /// The `q`-th percentile (`0 < q <= 100`), resolved to the upper bound
    /// of the bucket where the cumulative count crosses `q`, clamped to the
    /// exact maximum. Returns 0 for an empty histogram.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for &(i, c) in &self.buckets {
            cumulative += c;
            if cumulative >= rank {
                return Histogram::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// The `q`-th percentile with linear interpolation inside the log₂
    /// bucket where the rank falls: the estimate moves from the bucket's
    /// lower bound toward its upper bound (clamped to the exact `max`) by
    /// the rank's fraction through the bucket. Still bucket-limited (a
    /// bucket spans a 2× range), but substantially closer to the true
    /// percentile than the plain upper-bound read of
    /// [`HistogramSnapshot::percentile`] — this is what the serve layer's
    /// rolling-window stats report, where operators compare against
    /// client-measured latencies.
    pub fn percentile_interp(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut below = 0u64;
        for &(i, c) in &self.buckets {
            if below + c >= rank {
                let lower = if i == 0 {
                    0
                } else {
                    Histogram::bucket_upper(i - 1) + 1
                };
                let upper = Histogram::bucket_upper(i).min(self.max);
                if upper <= lower {
                    return upper;
                }
                let frac = (rank - below) as f64 / c as f64;
                return lower + ((upper - lower) as f64 * frac).round() as u64;
            }
            below += c;
        }
        self.max
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

/// The name → metric map. Registration is a cold-path mutex; handles are
/// `&'static` (storage is leaked, bounded by the distinct-name count), so
/// the hot path never revisits the map.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, &'static Counter>>,
    gauges: Mutex<BTreeMap<String, &'static Gauge>>,
    histograms: Mutex<BTreeMap<String, &'static Histogram>>,
    windowed: Mutex<BTreeMap<String, &'static crate::WindowedHistogram>>,
}

impl Registry {
    /// An empty registry (the process-global one is [`crate::registry`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The named counter, created on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        let mut map = self.counters.lock().expect("registry poisoned");
        if let Some(c) = map.get(name) {
            return c;
        }
        let leaked: &'static Counter = Box::leak(Box::new(Counter::new()));
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// The named gauge, created on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        let mut map = self.gauges.lock().expect("registry poisoned");
        if let Some(g) = map.get(name) {
            return g;
        }
        let leaked: &'static Gauge = Box::leak(Box::new(Gauge::new()));
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// The named histogram, created on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        let mut map = self.histograms.lock().expect("registry poisoned");
        if let Some(h) = map.get(name) {
            return h;
        }
        let leaked: &'static Histogram = Box::leak(Box::new(Histogram::new()));
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// The named rolling-window histogram, created on first use. Windowed
    /// histograms live beside the lifetime metrics but are **not** part of
    /// [`Registry::snapshot`]: a window is a live, clock-relative view, so
    /// readers (the serve `stats` command) query it directly via
    /// [`WindowedHistogram::window`](crate::WindowedHistogram::window).
    pub fn windowed(&self, name: &str) -> &'static crate::WindowedHistogram {
        let mut map = self.windowed.lock().expect("registry poisoned");
        if let Some(w) = map.get(name) {
            return w;
        }
        let leaked: &'static crate::WindowedHistogram =
            Box::leak(Box::new(crate::WindowedHistogram::new()));
        map.insert(name.to_owned(), leaked);
        leaked
    }

    /// A point-in-time copy of every metric, name-sorted (BTreeMap), so
    /// serialisations are deterministic.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: self
                .gauges
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .expect("registry poisoned")
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Zeroes every registered metric (names stay registered). Cold path:
    /// used by tests and benches to isolate measurement windows.
    pub fn reset(&self) {
        for c in self.counters.lock().expect("registry poisoned").values() {
            c.reset();
        }
        for g in self.gauges.lock().expect("registry poisoned").values() {
            g.reset();
        }
        for h in self.histograms.lock().expect("registry poisoned").values() {
            h.reset();
        }
    }
}

/// An owned, name-sorted copy of a registry's state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Writes the snapshot as one deterministic JSON object with
    /// `counters`, `gauges` and `histograms` keys, each name-sorted. A
    /// histogram carries exact count/sum/max, bucket-bound p50/p90/p99, and
    /// its non-empty buckets as `[inclusive upper bound, count]` pairs.
    /// This is the only renderer of a snapshot: `stats`, both
    /// `--metrics-out` documents and `BENCH_results.json` embed it.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.open('{').key("counters").open('{');
        for (k, v) in &self.counters {
            w.field(k, *v);
        }
        w.close('}').key("gauges").open('{');
        for (k, v) in &self.gauges {
            w.field(k, *v);
        }
        w.close('}').key("histograms").open('{');
        for (k, h) in &self.histograms {
            w.key(k)
                .open('{')
                .field("count", h.count)
                .field("sum", h.sum)
                .field("max", h.max)
                .field("p50", h.percentile(50.0))
                .field("p90", h.percentile(90.0))
                .field("p99", h.percentile(99.0))
                .key("buckets")
                .open('[');
            for &(i, c) in &h.buckets {
                w.open('[')
                    .value(Histogram::bucket_upper(i))
                    .value(c)
                    .close(']');
            }
            w.close(']').close('}');
        }
        w.close('}').close('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn bucket_index_covers_the_u64_range() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(1023), 10);
        assert_eq!(Histogram::bucket_index(1024), 11);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Every value lands in the bucket whose bounds contain it.
        for v in [0u64, 1, 2, 3, 7, 8, 100, 4095, 1 << 40, u64::MAX] {
            let i = Histogram::bucket_index(v);
            assert!(v <= Histogram::bucket_upper(i), "{v} above bucket {i}");
            if i > 0 {
                assert!(v > Histogram::bucket_upper(i - 1), "{v} below bucket {i}");
            }
        }
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 900, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1906);
        assert_eq!(s.max, 1000);
        assert_eq!(
            s.buckets,
            vec![(0, 1), (1, 1), (2, 2), (10, 2)],
            "0 | 1 | 2,3 | 900,1000"
        );
        h.reset();
        assert_eq!(h.snapshot(), HistogramSnapshot::default());
    }

    #[test]
    fn percentiles_resolve_to_bucket_bounds_clamped_to_max() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(100); // bucket 7, upper 127
        }
        for _ in 0..10 {
            h.record(5000); // bucket 13, upper 8191
        }
        let s = h.snapshot();
        assert_eq!(s.percentile(50.0), 127);
        assert_eq!(s.percentile(90.0), 127);
        assert_eq!(s.percentile(99.0), 5000, "clamped to exact max");
        assert_eq!(s.percentile(100.0), 5000);
        assert_eq!(HistogramSnapshot::default().percentile(50.0), 0);
        // A single sample: every percentile is that sample's bucket ∩ max.
        let one = Histogram::new();
        one.record(7);
        assert_eq!(one.snapshot().percentile(50.0), 7);
    }

    #[test]
    fn snapshots_merge_bucketwise() {
        let a = Histogram::new();
        let b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [10u64, 2000] {
            b.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        // Merge must equal recording everything into one histogram.
        let all = Histogram::new();
        for v in [1u64, 10, 100, 10, 2000] {
            all.record(v);
        }
        assert_eq!(merged, all.snapshot());
        assert_eq!(merged.count, 5);
        assert_eq!(merged.max, 2000);
    }

    #[test]
    fn merge_is_commutative_on_disjoint_and_overlapping_buckets() {
        let mk = |vals: &[u64]| {
            let h = Histogram::new();
            for &v in vals {
                h.record(v);
            }
            h.snapshot()
        };
        let x = mk(&[1, 1, 64]);
        let y = mk(&[2, 64, 1 << 30]);
        let mut xy = x.clone();
        xy.merge(&y);
        let mut yx = y.clone();
        yx.merge(&x);
        assert_eq!(xy, yx);
    }

    #[test]
    fn registry_snapshot_and_reset() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        r.gauge("g").record_max(9);
        r.gauge("g").record_max(2);
        r.histogram("h").record(5);
        let s = r.snapshot();
        assert_eq!(s.counters["a"], 7);
        assert_eq!(s.gauges["g"], 9);
        assert_eq!(s.histograms["h"].count, 1);
        r.reset();
        let z = r.snapshot();
        assert_eq!(z.counters["a"], 0);
        assert_eq!(z.gauges["g"], 0);
        assert_eq!(z.histograms["h"].count, 0);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_escaped() {
        let r = Registry::new();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        r.counter("a\"b\\c\nd").add(4);
        r.histogram("lat").record(3);
        let render = || {
            let mut w = JsonWriter::default();
            r.snapshot().write_json(&mut w);
            w.finish()
        };
        let json = render();
        let doc = crate::json::parse(&json).unwrap();
        let counters = doc.get("counters").unwrap();
        assert_eq!(counters.get("a.first").and_then(Value::as_u64), Some(2));
        let Value::Obj(entries) = counters else {
            panic!("counters object expected: {json}")
        };
        let names: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a\"b\\c\nd", "a.first", "z.last"], "name-sorted");
        let lat = doc.get("histograms").and_then(|h| h.get("lat")).unwrap();
        assert_eq!(lat.get("p50").and_then(Value::as_u64), Some(3));
        assert_eq!(render(), json, "stable across reads");
        assert_eq!(crate::json::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn snapshot_record_matches_live_histogram() {
        let live = Histogram::new();
        let mut snap = HistogramSnapshot::default();
        for v in [0u64, 1, 3, 900, 900, 1000, u64::MAX] {
            live.record(v);
            snap.record(v);
        }
        assert_eq!(snap, live.snapshot());
    }

    #[test]
    fn interpolated_percentile_stays_within_the_bucket_and_near_the_data() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record(400); // bucket [256, 511]
        }
        let s = h.snapshot();
        let p50 = s.percentile_interp(50.0);
        assert!((256..=400).contains(&p50), "p50 interp {p50}");
        assert!(
            p50 <= s.percentile(50.0),
            "interp never above the upper-bound read"
        );
        // Empty and single-sample degenerate cases.
        assert_eq!(HistogramSnapshot::default().percentile_interp(99.0), 0);
        let one = Histogram::new();
        one.record(7);
        assert_eq!(one.snapshot().percentile_interp(50.0), 7);
    }

    #[test]
    fn registry_serves_windowed_histograms_by_name() {
        let r = Registry::new();
        let w = r.windowed("win");
        w.record(42);
        assert_eq!(r.windowed("win").window(10).count, 1, "same handle by name");
        // Windowed metrics stay out of the lifetime snapshot.
        assert!(r.snapshot().histograms.is_empty());
    }

    #[test]
    fn mean_is_exact() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        assert_eq!(h.snapshot().mean(), 15.0);
        assert_eq!(HistogramSnapshot::default().mean(), 0.0);
    }
}
