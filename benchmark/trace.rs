//! Bench-side spans around every call into a library layer.
//!
//! Spans are kept in memory and turned into per-layer metrics, a self-time
//! table, and a Chrome trace-event file when the run ends. While tracing
//! is off, [`span`] is a plain call behind one relaxed atomic load, so the
//! untraced run that gives the end-to-end metrics pays almost nothing.
//!
//! The trace file must nest as one stack (the `rasc_devtools::trace_check`
//! rule), so spans of the thread that called [`start`] become `B`/`E`
//! pairs and spans of other threads (the concurrent serve clients) become
//! `C` samples of their duration in µs, as `rasc_obs::ChromeTraceSink`
//! plots histogram samples.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
/// Orders begin and end events across threads; also serves as span id.
static SEQ: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static MAIN_THREAD: AtomicU64 = AtomicU64::new(0);
static ORIGIN: OnceLock<Instant> = OnceLock::new();
static LOG: Mutex<Vec<Event>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

#[derive(Debug, Clone)]
enum Event {
    Span(SpanRec),
    Count {
        name: &'static str,
        value: u64,
        at: u64,
        seq: u64,
    },
}

/// One completed span: a call into a layer.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    /// Program index or request number the call served.
    pub key: u64,
    pub id: u64,
    /// Id of the enclosing span on the same thread (0 at top level).
    pub parent: u64,
    pub thread: u64,
    /// Nanoseconds since the trace origin.
    pub start: u64,
    pub end: u64,
    /// Position of the end event in the global event order.
    pub end_seq: u64,
}

impl SpanRec {
    fn dur_ns(&self) -> u64 {
        self.end - self.start
    }
}

fn now_ns() -> u64 {
    let origin = ORIGIN.get_or_init(Instant::now);
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Clears the log and makes the calling thread the one whose spans nest.
pub fn start() {
    ORIGIN.get_or_init(Instant::now);
    MAIN_THREAD.store(THREAD.with(|t| *t), Ordering::Relaxed);
    LOG.lock().expect("trace log").clear();
}

/// Turns recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Runs `f` as the layer call `name` serving `key`, recording a span
/// when tracing is on.
pub fn span<T>(name: &'static str, key: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let id = SEQ.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let start = now_ns();
    let out = f();
    let end = now_ns();
    STACK.with(|s| s.borrow_mut().pop());
    let rec = SpanRec {
        name,
        key,
        id,
        parent,
        thread: THREAD.with(|t| *t),
        start,
        end,
        end_seq: SEQ.fetch_add(1, Ordering::Relaxed),
    };
    LOG.lock().expect("trace log").push(Event::Span(rec));
    out
}

/// Records a count measured at a layer boundary (when tracing is on).
pub fn count(name: &'static str, value: u64) {
    if enabled() {
        let event = Event::Count {
            name,
            value,
            at: now_ns(),
            seq: SEQ.fetch_add(1, Ordering::Relaxed),
        };
        LOG.lock().expect("trace log").push(event);
    }
}

/// Everything recorded since [`start`].
pub fn take() -> Trace {
    let events = std::mem::take(&mut *LOG.lock().expect("trace log"));
    Trace {
        events,
        main: MAIN_THREAD.load(Ordering::Relaxed),
    }
}

/// A finished trace, queried for per-layer metrics.
#[derive(Debug)]
pub struct Trace {
    events: Vec<Event>,
    main: u64,
}

impl Trace {
    pub fn spans(&self) -> impl Iterator<Item = &SpanRec> {
        self.events.iter().filter_map(|e| match e {
            Event::Span(s) => Some(s),
            Event::Count { .. } => None,
        })
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &SpanRec> {
        let name = name.to_owned();
        self.spans().filter(move |s| s.name == name)
    }

    /// Total time in spans called `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.dur_ns() as f64 / 1e6).sum()
    }

    /// Median duration of spans whose name starts with `prefix`, in µs.
    pub fn p50_us(&self, prefix: &str) -> f64 {
        let durs: Vec<f64> = self
            .spans()
            .filter(|s| s.name.starts_with(prefix))
            .map(|s| s.dur_ns() as f64 / 1e3)
            .collect();
        crate::quantile(durs, 0.5)
    }

    /// The counts recorded as `name`, in order.
    pub fn counts(&self, name: &str) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|e| match e {
                Event::Count { name: n, value, .. } if *n == name => Some(*value),
                _ => None,
            })
            .collect()
    }

    /// Sum of the counts recorded as `name`.
    pub fn sum(&self, name: &str) -> u64 {
        self.counts(name).iter().sum()
    }

    /// Per span name: calls, total ms, and self ms (total minus the time
    /// covered by child spans).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in self.spans().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for s in self.spans() {
            let row = table.entry(s.name).or_default();
            let own = s
                .dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            row.0 += 1;
            row.1 += s.dur_ns() as f64 / 1e6;
            row.2 += own as f64 / 1e6;
        }
        table
    }

    /// The Chrome trace-event JSON object.
    pub fn chrome_json(&self) -> String {
        // (order key, timestamp µs, rendered event); the order key is the
        // global sequence number, so one thread's events keep their order.
        let mut out: Vec<(u64, u64, String)> = Vec::new();
        let us = |ns: u64| ns / 1000;
        for e in &self.events {
            match e {
                Event::Span(s) if s.thread == self.main => {
                    let args = format!(r#","args":{{"key":{}}}"#, s.key);
                    out.push((s.id, us(s.start), event(s.name, 'B', us(s.start), &args)));
                    out.push((s.end_seq, us(s.end), event(s.name, 'E', us(s.end), "")));
                }
                Event::Span(s) => {
                    let args = format!(r#","args":{{"value":{}}}"#, us(s.dur_ns()));
                    out.push((s.end_seq, us(s.end), event(s.name, 'C', us(s.end), &args)));
                }
                Event::Count {
                    name,
                    value,
                    at,
                    seq,
                    ..
                } => {
                    let args = format!(r#","args":{{"value":{value}}}"#);
                    out.push((*seq, us(*at), event(name, 'C', us(*at), &args)));
                }
            }
        }
        // Time order; on one thread time and sequence agree, and sequence
        // breaks ties so a span's B/E pair stays inside its parent's.
        out.sort_by_key(|&(seq, at, _)| (at, seq));
        let body: Vec<String> = out.into_iter().map(|(_, _, e)| e).collect();
        format!(
            r#"{{"traceEvents":[{}],"displayTimeUnit":"ms"}}"#,
            body.join(",")
        )
    }
}

fn event(name: &str, ph: char, ts: u64, args: &str) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        r#"{{"name":"{name}","ph":"{ph}","ts":{ts},"pid":1,"tid":1{args}}}"#
    );
    s
}
