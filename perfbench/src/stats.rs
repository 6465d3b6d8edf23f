//! Percentiles and the run report: every metric with its unit and sample
//! count, the correctness verdict, and the final one-line JSON result.

use std::fmt::Write as _;

/// The `q`-quantile (`0..=1`) of unsorted samples, by linear
/// interpolation between closest ranks. `NaN` when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Samples per latency window (see [`Report::latency`]): the fewest that
/// put ten samples beyond the 99th percentile.
pub const WINDOW: usize = 1000;

/// p99, or the highest lower tail percentile that still has at least ten
/// samples beyond it (p50 when even that is not supported).
fn tail_percentile(n: usize) -> f64 {
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(50.0)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
    note: String,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Operations attempted (queries, updates, pings).
    pub attempted: u64,
    /// Attempted operations that failed.
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    /// Records a metric measured over `samples` samples.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metric_note(name, value, unit, samples, String::new());
    }

    /// Records a metric with a short explanatory note for the text report.
    pub fn metric_note(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: String,
    ) {
        self.metrics.retain(|m| m.name != name);
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
            note,
        });
    }

    /// Records a latency distribution in microseconds, given in the order
    /// the requests were issued. The run is cut into windows of
    /// [`WINDOW`] consecutive samples; `<name>_p50_us` is the median of
    /// the windows' medians and `<name>_p99_us` the median of their 99th
    /// percentiles, so a burst of host stalls in one window does not set
    /// the run's figure. With fewer than [`WINDOW`] samples the whole run
    /// is one window and the tail percentile is the highest one with ten
    /// samples beyond it (noted in the text report).
    pub fn latency(&mut self, name: &str, samples_us: &[f64]) {
        let n = samples_us.len();
        let windows: Vec<&[f64]> = if n >= WINDOW {
            samples_us.chunks_exact(WINDOW).collect()
        } else {
            vec![samples_us]
        };
        let p = tail_percentile(windows[0].len());
        let of_windows =
            |q: f64| median(&windows.iter().map(|w| quantile(w, q)).collect::<Vec<_>>());
        let note = format!(
            "median over {} window(s) of {}",
            windows.len(),
            windows[0].len()
        );
        self.metric_note(
            &format!("{name}_p50_us"),
            of_windows(0.5),
            "us",
            n,
            note.clone(),
        );
        let tail_note = if p < 99.0 {
            format!("p{p}, too few samples for p99; {note}")
        } else {
            note
        };
        self.metric_note(
            &format!("{name}_p99_us"),
            of_windows(p / 100.0),
            "us",
            n,
            tail_note,
        );
    }

    /// Fails the run with `message` unless `ok`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(message());
        }
    }

    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Prints the text report (every metric) and, as the last line, the
    /// JSON result carrying exactly the `selected` metrics. A selected
    /// metric that was not measured fails the run. Returns the verdict.
    pub fn print(&mut self, selected: &[(&str, &str)]) -> bool {
        for (name, _) in selected {
            let present = self
                .metrics
                .iter()
                .any(|m| m.name == *name && m.value.is_finite());
            self.check(present, || format!("metric {name} was not measured"));
        }
        let mut text = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                text,
                "metric {:<44} {:>16.4} {:<6} n={}{}",
                m.name,
                m.value,
                m.unit,
                m.samples,
                if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                }
            );
        }
        for f in &self.failures {
            let _ = writeln!(text, "CHECK FAILED: {f}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in selected {
            let Some(m) = self.metrics.iter().find(|m| m.name == *name) else {
                continue;
            };
            if !m.value.is_finite() {
                continue;
            }
            let _ = write!(
                json,
                "{}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                if first { "" } else { ", " },
                m.name,
                m.value,
                unit
            );
            first = false;
        }
        json.push_str("}}");
        print!("{text}");
        println!("{json}");
        self.correct()
    }
}
