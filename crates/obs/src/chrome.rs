//! Chrome trace-event export ([`ChromeTraceSink`]).
//!
//! Produces the JSON object format understood by Perfetto and
//! `chrome://tracing`: `{"traceEvents":[{"name","ph","ts","pid","tid",…}]}`.
//! Spans become duration `B`/`E` pairs, counters become `C` events whose
//! argument carries the running total.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::sink::EventSink;

/// A source of microsecond timestamps for trace events.
///
/// The default ([`WallClock`]) reads monotonic wall time; tests inject a
/// deterministic ticker so golden traces are reproducible.
pub trait TimeSource: Send + Sync + std::fmt::Debug {
    /// Microseconds since an arbitrary fixed origin; must not decrease.
    fn now_micros(&self) -> u64;
}

/// Monotonic wall time, measured from sink construction.
#[derive(Debug)]
pub struct WallClock {
    origin: Instant,
}

impl TimeSource for WallClock {
    fn now_micros(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_micros()).unwrap_or(u64::MAX)
    }
}

/// A deterministic time source: every call advances by one microsecond.
/// Used by the golden trace test.
#[derive(Debug, Default)]
pub struct TickClock {
    ticks: AtomicU64,
}

impl TickClock {
    /// A ticker starting at 0.
    pub fn new() -> TickClock {
        TickClock::default()
    }
}

impl TimeSource for TickClock {
    fn now_micros(&self) -> u64 {
        self.ticks.fetch_add(1, Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct Event {
    name: &'static str,
    /// Trace-event phase: `'B'`, `'E'`, or `'C'`.
    ph: char,
    ts: u64,
    /// For `C` events, the counter's running total.
    value: Option<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    events: Vec<Event>,
    /// Running totals backing the `C` events.
    totals: std::collections::BTreeMap<&'static str, u64>,
}

/// A sink accumulating Chrome trace events in memory; render the
/// finished trace with [`ChromeTraceSink::render`] and load the file in
/// [Perfetto](https://ui.perfetto.dev) or `chrome://tracing`.
///
/// Arm [`ChromeTraceSink::save_on_drop`] to guarantee a complete,
/// Perfetto-loadable file even when the session panics or is cancelled
/// mid-trace: the destructor renders whatever was recorded (the JSON
/// array is always closed because rendering happens from memory, never
/// by incremental appends).
#[derive(Debug)]
pub struct ChromeTraceSink {
    clock: Arc<dyn TimeSource>,
    inner: Mutex<Inner>,
    /// When set, the destructor writes the rendered trace here unless
    /// [`ChromeTraceSink::save`] already wrote this run's trace.
    drop_path: Mutex<Option<std::path::PathBuf>>,
}

impl Default for ChromeTraceSink {
    fn default() -> ChromeTraceSink {
        ChromeTraceSink::new()
    }
}

impl ChromeTraceSink {
    /// A sink timestamping events with monotonic wall time.
    pub fn new() -> ChromeTraceSink {
        ChromeTraceSink::with_time_source(Arc::new(WallClock {
            origin: Instant::now(),
        }))
    }

    /// A sink using the given time source (deterministic tests pass a
    /// [`TickClock`]).
    pub fn with_time_source(clock: Arc<dyn TimeSource>) -> ChromeTraceSink {
        ChromeTraceSink {
            clock,
            inner: Mutex::new(Inner::default()),
            drop_path: Mutex::new(None),
        }
    }

    /// Arms the sink to write the rendered trace to `path` when it is
    /// dropped, unless an explicit [`ChromeTraceSink::save`] happens
    /// first. This is the crash-safety net for `--trace`: a panicking or
    /// cancelled session still leaves a loadable trace behind.
    pub fn save_on_drop(&self, path: std::path::PathBuf) {
        if let Ok(mut slot) = self.drop_path.lock() {
            *slot = Some(path);
        }
    }

    fn push(&self, name: &'static str, ph: char, value: Option<u64>) {
        let ts = self.clock.now_micros();
        if let Ok(mut inner) = self.inner.lock() {
            let value = match value {
                Some(delta) => {
                    let total = inner.totals.entry(name).or_insert(0);
                    *total += delta;
                    Some(*total)
                }
                None => None,
            };
            inner.events.push(Event {
                name,
                ph,
                ts,
                value,
            });
        }
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.inner.lock().map(|i| i.events.len()).unwrap_or(0)
    }

    /// Whether no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Renders the accumulated events as a Chrome trace-event JSON
    /// object. All events carry `pid` 1 and `tid` 1: the solver emits
    /// from the instrumented thread only, and a constant pair keeps the
    /// trace stable for golden tests.
    pub fn render(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        if let Ok(inner) = self.inner.lock() {
            for (i, ev) in inner.events.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":1",
                    escape(ev.name),
                    ev.ph,
                    ev.ts
                );
                if let Some(v) = ev.value {
                    let _ = write!(out, ",\"args\":{{\"value\":{v}}}");
                } else if ev.ph == 'B' {
                    out.push_str(",\"args\":{}");
                }
                out.push('}');
            }
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Renders and writes the trace to `path`. Disarms a pending
    /// [`ChromeTraceSink::save_on_drop`] so the trace is not rewritten
    /// (possibly after further events) when the sink drops.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Ok(mut slot) = self.drop_path.lock() {
            *slot = None;
        }
        std::fs::write(path, self.render())
    }
}

impl Drop for ChromeTraceSink {
    fn drop(&mut self) {
        let path = match self.drop_path.lock() {
            Ok(mut slot) => slot.take(),
            Err(mut poisoned) => poisoned.get_mut().take(),
        };
        if let Some(path) = path {
            // Destructors must not panic and may run during unwinding;
            // a failed write is silently dropped (best effort).
            let _ = std::fs::write(path, self.render());
        }
    }
}

/// Escapes `s` for use inside a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

impl EventSink for ChromeTraceSink {
    fn span_begin(&self, name: &'static str) {
        self.push(name, 'B', None);
    }

    fn span_end(&self, name: &'static str) {
        self.push(name, 'E', None);
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.push(name, 'C', Some(delta));
    }

    fn histogram(&self, name: &'static str, value: u64) {
        // Chrome's counter track is the closest fit: plot each sample.
        let ts = self.clock.now_micros();
        if let Ok(mut inner) = self.inner.lock() {
            inner.events.push(Event {
                name,
                ph: 'C',
                ts,
                value: Some(value),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_balanced_spans_and_running_counter_totals() {
        let sink = ChromeTraceSink::with_time_source(Arc::new(TickClock::new()));
        sink.span_begin("solve");
        sink.counter("facts", 2);
        sink.counter("facts", 3);
        sink.span_end("solve");
        let json = sink.render();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(
            json.contains("\"name\":\"solve\",\"ph\":\"B\",\"ts\":0"),
            "{json}"
        );
        assert!(json.contains("\"ph\":\"E\",\"ts\":3"), "{json}");
        // Counter totals accumulate: 2 then 5.
        assert!(json.contains("\"args\":{\"value\":2}"), "{json}");
        assert!(json.contains("\"args\":{\"value\":5}"), "{json}");
        assert!(json.contains("\"pid\":1"), "{json}");
        assert_eq!(sink.len(), 4);
    }

    #[test]
    fn escapes_are_applied() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn armed_sink_writes_trace_on_drop_even_with_open_spans() {
        let dir = std::env::temp_dir().join(format!("rasc-chrome-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("dropped.json");
        let _ = std::fs::remove_file(&path);
        {
            let sink = ChromeTraceSink::with_time_source(Arc::new(TickClock::new()));
            sink.save_on_drop(path.clone());
            sink.span_begin("interrupted");
            sink.counter("facts", 1);
            // Dropped with the span still open (a cancelled session).
        }
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{json}");
        assert!(json.contains("\"name\":\"interrupted\""), "{json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_save_disarms_the_drop_write() {
        let dir = std::env::temp_dir().join(format!("rasc-chrome-save-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let saved = dir.join("saved.json");
        let armed = dir.join("armed.json");
        let _ = std::fs::remove_file(&armed);
        {
            let sink = ChromeTraceSink::with_time_source(Arc::new(TickClock::new()));
            sink.save_on_drop(armed.clone());
            sink.counter("facts", 1);
            sink.save(&saved).unwrap();
        }
        assert!(saved.exists());
        assert!(!armed.exists(), "drop must not rewrite after explicit save");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
