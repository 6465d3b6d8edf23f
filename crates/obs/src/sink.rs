//! The event sink: where diagnostics and span events go.
//!
//! A process-global slot holds at most one installed [`EventSink`]. With no
//! sink installed, [`emit_message`] falls back to plain `eprintln!`, so
//! diagnostic text always reaches stderr verbatim — messages are *not*
//! gated by the metrics kill switch (a disabled registry must never eat an
//! error message). Span events are higher-volume and only delivered to
//! sinks that opt in via [`EventSink::wants_spans`].

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::json::JsonWriter;

/// One record flowing through the sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A human-readable diagnostic line (the structured `eprintln!`).
    Message {
        /// The formatted text, without a trailing newline.
        text: String,
    },
    /// A completed tracing span.
    SpanEnd {
        /// Span name (static: span sites name their phase at compile time).
        name: &'static str,
        /// Name of the enclosing span on the same thread, if any.
        parent: Option<&'static str>,
        /// Nesting depth (0 = top-level).
        depth: usize,
        /// Small dense per-process thread label (not the OS thread id).
        thread: u64,
        /// Start time in nanoseconds since the process epoch.
        start_ns: u64,
        /// Wall-clock duration in nanoseconds.
        duration_ns: u64,
    },
    /// An instantaneous point event (e.g. a query budget trip). Markers
    /// follow the span delivery rules: built and delivered only when a
    /// sink wants spans, counted in `marker.<name>` regardless.
    Marker {
        /// Marker name (static, like span names).
        name: &'static str,
        /// Small dense per-process thread label.
        thread: u64,
        /// Time of the mark in nanoseconds since the process epoch.
        at_ns: u64,
    },
}

impl Event {
    /// Renders the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.open('{');
        match self {
            Event::Message { text } => {
                w.field("type", "message").field("text", text.as_str());
            }
            Event::SpanEnd {
                name,
                parent,
                depth,
                thread,
                start_ns,
                duration_ns,
            } => {
                w.field("type", "span")
                    .field("name", *name)
                    .field("parent", *parent)
                    .field("depth", *depth)
                    .field("thread", *thread)
                    .field("start_ns", *start_ns)
                    .field("dur_ns", *duration_ns);
            }
            Event::Marker {
                name,
                thread,
                at_ns,
            } => {
                w.field("type", "marker")
                    .field("name", *name)
                    .field("thread", *thread)
                    .field("at_ns", *at_ns);
            }
        }
        w.close('}');
        w.finish()
    }
}

/// A consumer of [`Event`]s. Implementations must be internally
/// synchronised: `emit` takes `&self` and may be called from any thread.
pub trait EventSink: Send + Sync {
    /// Delivers one event.
    fn emit(&self, event: &Event);

    /// Whether this sink wants [`Event::SpanEnd`] events. Defaults to
    /// `false`; span sites skip event construction entirely when nothing
    /// wants them (durations still reach the `span.*` histograms).
    fn wants_spans(&self) -> bool {
        false
    }

    /// Flushes buffered output. Called by [`flush_sink`]; the global slot
    /// is a static and is never dropped, so buffered sinks rely on this.
    fn flush(&self) {}
}

/// The installed sink. A panicking emitter poisons this lock, and the
/// slot recovers (see [`slot`]): it only ever changes by a whole
/// `replace` or `take`, so a panic while it is held leaves one intact
/// sink or none, never a torn one.
static SINK: Mutex<Option<Box<dyn EventSink>>> = Mutex::new(None);

/// Locks the sink slot, recovering it from poisoning. Sound because of
/// the slot's invariant above; what a sink keeps *inside* itself is its
/// own to recover (as [`JsonLinesSink`] does). One panicking emitter then
/// costs its own event, not every later probe.
fn slot() -> MutexGuard<'static, Option<Box<dyn EventSink>>> {
    SINK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Cached `wants_spans` of the installed sink, readable without the lock so
/// span sites pay one relaxed load when no trace is being collected.
static WANTS_SPANS: AtomicBool = AtomicBool::new(false);

/// Installs `sink` as the process-global event sink, returning the previous
/// one (if any) so callers can restore or flush it.
pub fn set_sink(sink: Box<dyn EventSink>) -> Option<Box<dyn EventSink>> {
    WANTS_SPANS.store(sink.wants_spans(), Ordering::Relaxed);
    slot().replace(sink)
}

/// Removes and returns the installed sink, reverting to the `eprintln!`
/// fallback for messages.
pub fn take_sink() -> Option<Box<dyn EventSink>> {
    WANTS_SPANS.store(false, Ordering::Relaxed);
    slot().take()
}

/// Whether span-end events should be constructed and delivered at all.
#[inline]
pub(crate) fn sink_wants_spans() -> bool {
    WANTS_SPANS.load(Ordering::Relaxed)
}

/// Flushes the installed sink's buffers. A no-op with no sink installed.
pub fn flush_sink() {
    if let Some(sink) = slot().as_ref() {
        sink.flush();
    }
}

/// Sends a diagnostic line through the sink; with none installed, prints it
/// to stderr verbatim (exactly what the replaced `eprintln!` did).
pub fn emit_message(text: &str) {
    match slot().as_ref() {
        Some(sink) => sink.emit(&Event::Message {
            text: text.to_owned(),
        }),
        None => eprintln!("{text}"),
    }
}

/// Delivers a span-end event to the sink if one wants spans.
pub(crate) fn emit_span(event: Event) {
    if let Some(sink) = slot().as_ref() {
        if sink.wants_spans() {
            sink.emit(&event);
        }
    }
}

/// Small dense label for the current thread (0, 1, 2, … in first-probe
/// order), stabler to read in traces than OS thread ids.
pub(crate) fn thread_label() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static LABEL: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    LABEL.with(|l| *l)
}

/// The default human-facing sink: messages go to stderr as plain lines;
/// span events are declined (`wants_spans` = false) but pretty-printed if
/// delivered directly.
#[derive(Debug, Default)]
pub struct StderrPrettySink;

impl EventSink for StderrPrettySink {
    fn emit(&self, event: &Event) {
        match event {
            Event::Message { text } => eprintln!("{text}"),
            Event::SpanEnd {
                name,
                depth,
                duration_ns,
                ..
            } => eprintln!(
                "{:indent$}[span] {name} {duration_ns}ns",
                "",
                indent = depth * 2
            ),
            Event::Marker { name, .. } => eprintln!("[marker] {name}"),
        }
    }
}

/// Serialises every event as one JSON object per line — the `--trace FILE`
/// format. Wants spans.
pub struct JsonLinesSink {
    out: Mutex<TraceOut>,
}

/// The trace file and whether its last line may be unfinished.
struct TraceOut {
    file: BufWriter<File>,
    /// Set while a line is being written and left set if the write failed
    /// or panicked: the next event closes that line before its own.
    torn: bool,
}

impl JsonLinesSink {
    /// Creates (truncating) `path` and buffers writes to it.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        Ok(JsonLinesSink {
            out: Mutex::new(TraceOut {
                file: BufWriter::new(File::create(path)?),
                torn: false,
            }),
        })
    }

    /// Locks the writer, recovering it from poisoning. Sound because the
    /// writer's one invariant — every event on a line of its own — is what
    /// `torn` tracks, and `emit` checks `torn` before it writes: a line a
    /// panic cut short is closed, never continued.
    fn out(&self) -> MutexGuard<'_, TraceOut> {
        self.out.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl EventSink for JsonLinesSink {
    fn emit(&self, event: &Event) {
        let mut line = event.to_json();
        line.push('\n');
        let mut out = self.out();
        // Trace output is best-effort: a full disk must not abort a run,
        // but the line it cut short must not swallow the next event.
        if out.torn && out.file.write_all(b"\n").is_err() {
            return;
        }
        out.torn = true;
        out.torn = out.file.write_all(line.as_bytes()).is_err();
    }

    fn wants_spans(&self) -> bool {
        true
    }

    fn flush(&self) {
        let _ = self.out().file.flush();
    }
}

/// Fans events out to two sinks; span events only reach the ones that want
/// them. Used to keep the stderr pretty-printer while also tracing to file.
pub struct TeeSink(pub Box<dyn EventSink>, pub Box<dyn EventSink>);

impl EventSink for TeeSink {
    fn emit(&self, event: &Event) {
        let is_span = matches!(event, Event::SpanEnd { .. } | Event::Marker { .. });
        for sink in [&self.0, &self.1] {
            if !is_span || sink.wants_spans() {
                sink.emit(event);
            }
        }
    }

    fn wants_spans(&self) -> bool {
        self.0.wants_spans() || self.1.wants_spans()
    }

    fn flush(&self) {
        self.0.flush();
        self.1.flush();
    }
}

/// Serialises tests that touch process-global state (the sink slot, the
/// kill switch, the registry): `cargo test` runs tests concurrently.
#[cfg(test)]
pub(crate) fn test_lock() -> &'static Mutex<()> {
    static LOCK: Mutex<()> = Mutex::new(());
    &LOCK
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A sink that captures everything for assertions. Wants spans.
    #[derive(Default)]
    pub(crate) struct CaptureSink(pub(crate) std::sync::Arc<Mutex<Vec<Event>>>);

    impl EventSink for CaptureSink {
        fn emit(&self, event: &Event) {
            self.0.lock().unwrap().push(event.clone());
        }

        fn wants_spans(&self) -> bool {
            true
        }
    }

    #[test]
    fn message_routes_through_installed_sink_and_back() {
        let _guard = test_lock().lock().unwrap();
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let prev = set_sink(Box::new(CaptureSink(events.clone())));
        assert!(prev.is_none(), "tests must restore the sink slot");
        emit_message("hello sink");
        crate::message!("formatted {}", 42);
        take_sink();
        emit_message("back to stderr"); // fallback path must not panic
        let got = events.lock().unwrap();
        assert_eq!(
            *got,
            vec![
                Event::Message {
                    text: "hello sink".into()
                },
                Event::Message {
                    text: "formatted 42".into()
                },
            ]
        );
    }

    /// A capturing sink whose first `emit` panics (poisoning the slot).
    struct PanicOnceSink {
        panicked: std::sync::atomic::AtomicBool,
        inner: CaptureSink,
    }

    impl EventSink for PanicOnceSink {
        fn emit(&self, event: &Event) {
            if !self.panicked.swap(true, Ordering::Relaxed) {
                panic!("emitter fails once");
            }
            self.inner.emit(event);
        }

        fn wants_spans(&self) -> bool {
            true
        }
    }

    #[test]
    fn a_panicking_emitter_costs_only_its_own_event() {
        let _guard = test_lock().lock().unwrap();
        let events = std::sync::Arc::new(Mutex::new(Vec::new()));
        let prev = set_sink(Box::new(PanicOnceSink {
            panicked: AtomicBool::new(false),
            inner: CaptureSink(events.clone()),
        }));
        assert!(prev.is_none(), "tests must restore the sink slot");
        let lost = std::panic::catch_unwind(|| emit_message("lost"));
        assert!(
            lost.is_err(),
            "the first emit panics while holding the slot"
        );
        assert!(SINK.is_poisoned());
        crate::message!("after {}", 1);
        {
            let _span = crate::span("after.span");
        }
        flush_sink();
        assert!(take_sink().is_some());
        SINK.clear_poison();
        let got = events.lock().unwrap();
        assert_eq!(
            got[0],
            Event::Message {
                text: "after 1".into()
            }
        );
        assert!(
            matches!(
                got[1],
                Event::SpanEnd {
                    name: "after.span",
                    ..
                }
            ),
            "{got:?}"
        );
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn json_lines_sink_closes_a_torn_line_before_the_next_event() {
        let _guard = test_lock().lock().unwrap();
        let dir = std::env::temp_dir().join("pex-obs-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = JsonLinesSink::create(&path).unwrap();
        // A writer cut short mid-line by a panic that poisons its lock.
        let cut = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut out = sink.out.lock().unwrap();
            out.torn = true;
            out.file.write_all(b"{\"type\":\"mess").unwrap();
            panic!("cut mid-line");
        }));
        assert!(cut.is_err());
        sink.emit(&Event::Message {
            text: "after".into(),
        });
        sink.emit(&Event::Message {
            text: "again".into(),
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            text,
            "{\"type\":\"mess\n\
             {\"type\":\"message\",\"text\":\"after\"}\n\
             {\"type\":\"message\",\"text\":\"again\"}\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn event_json_shapes() {
        let m = Event::Message {
            text: "a\"b".into(),
        };
        assert_eq!(m.to_json(), "{\"type\":\"message\",\"text\":\"a\\\"b\"}");
        let s = Event::SpanEnd {
            name: "query",
            parent: Some("replay.map_sites"),
            depth: 1,
            thread: 3,
            start_ns: 10,
            duration_ns: 20,
        };
        assert_eq!(
            s.to_json(),
            "{\"type\":\"span\",\"name\":\"query\",\"parent\":\"replay.map_sites\",\"depth\":1,\"thread\":3,\"start_ns\":10,\"dur_ns\":20}"
        );
        let top = Event::SpanEnd {
            name: "q",
            parent: None,
            depth: 0,
            thread: 0,
            start_ns: 0,
            duration_ns: 1,
        };
        assert!(top.to_json().contains("\"parent\":null"));
    }

    #[test]
    fn json_lines_sink_writes_one_line_per_event() {
        let _guard = test_lock().lock().unwrap();
        let dir = std::env::temp_dir().join("pex-obs-sink-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let sink = JsonLinesSink::create(&path).unwrap();
        sink.emit(&Event::Message { text: "one".into() });
        sink.emit(&Event::SpanEnd {
            name: "s",
            parent: None,
            depth: 0,
            thread: 0,
            start_ns: 1,
            duration_ns: 2,
        });
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"message\""));
        assert!(lines[1].starts_with("{\"type\":\"span\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tee_routes_spans_only_to_span_sinks() {
        struct CountingSink {
            events: std::sync::Arc<Mutex<Vec<Event>>>,
            spans: bool,
        }
        impl EventSink for CountingSink {
            fn emit(&self, event: &Event) {
                self.events.lock().unwrap().push(event.clone());
            }
            fn wants_spans(&self) -> bool {
                self.spans
            }
        }
        let plain = std::sync::Arc::new(Mutex::new(Vec::new()));
        let tracing = std::sync::Arc::new(Mutex::new(Vec::new()));
        let tee = TeeSink(
            Box::new(CountingSink {
                events: plain.clone(),
                spans: false,
            }),
            Box::new(CountingSink {
                events: tracing.clone(),
                spans: true,
            }),
        );
        assert!(tee.wants_spans());
        tee.emit(&Event::Message { text: "m".into() });
        tee.emit(&Event::SpanEnd {
            name: "s",
            parent: None,
            depth: 0,
            thread: 0,
            start_ns: 0,
            duration_ns: 1,
        });
        assert_eq!(plain.lock().unwrap().len(), 1, "messages only");
        assert_eq!(tracing.lock().unwrap().len(), 2, "messages and spans");
    }

    #[test]
    fn thread_labels_are_distinct_across_threads() {
        let here = thread_label();
        assert_eq!(here, thread_label(), "stable within a thread");
        let there = std::thread::spawn(thread_label).join().unwrap();
        assert_ne!(here, there);
    }
}
