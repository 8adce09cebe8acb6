//! The [`EventSink`] trait and the trivial sinks.

use std::fmt;
use std::sync::Arc;

/// A consumer of observability events.
///
/// Names are `&'static str` by design: emission sites pass string
/// literals, sinks never allocate to key a counter, and the hot path
/// carries only a pointer-sized payload.
///
/// Implementations must be internally synchronized (`&self` methods,
/// `Send + Sync`) so one sink can be shared by reference across scopes.
pub trait EventSink: Send + Sync + fmt::Debug {
    /// A span named `name` opened (paired with a later [`EventSink::span_end`]).
    fn span_begin(&self, name: &'static str);
    /// The innermost open span named `name` closed.
    fn span_end(&self, name: &'static str);
    /// Counter `name` increased by `delta` (counters are monotone).
    fn counter(&self, name: &'static str, delta: u64);
    /// One sampled value for histogram `name`.
    fn histogram(&self, name: &'static str, value: u64);
    /// Gauge `name` set to `value` (last write wins; not monotone).
    ///
    /// Default-implemented as a no-op so pre-existing sinks that have no
    /// use for point-in-time levels keep compiling unchanged.
    fn gauge(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }
}

/// A sink that discards every event.
///
/// Installing it exercises the full dispatch path (gate + thread-local +
/// dynamic call) without any recording work — the subject of the
/// `BENCH_observability.json` overhead guard.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopSink;

impl EventSink for NoopSink {
    fn span_begin(&self, _name: &'static str) {}
    fn span_end(&self, _name: &'static str) {}
    fn counter(&self, _name: &'static str, _delta: u64) {}
    fn histogram(&self, _name: &'static str, _value: u64) {}
}

/// Broadcasts every event to several sinks (e.g. a
/// [`crate::MetricsRegistry`] for `--profile` plus a
/// [`crate::ChromeTraceSink`] for `--trace`).
#[derive(Debug, Default)]
pub struct Fanout {
    sinks: Vec<Arc<dyn EventSink>>,
}

impl Fanout {
    /// A fanout over the given sinks (events are delivered in order).
    pub fn new(sinks: Vec<Arc<dyn EventSink>>) -> Fanout {
        Fanout { sinks }
    }
}

impl EventSink for Fanout {
    fn span_begin(&self, name: &'static str) {
        for s in &self.sinks {
            s.span_begin(name);
        }
    }

    fn span_end(&self, name: &'static str) {
        for s in &self.sinks {
            s.span_end(name);
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        for s in &self.sinks {
            s.counter(name, delta);
        }
    }

    fn histogram(&self, name: &'static str, value: u64) {
        for s in &self.sinks {
            s.histogram(name, value);
        }
    }

    fn gauge(&self, name: &'static str, value: u64) {
        for s in &self.sinks {
            s.gauge(name, value);
        }
    }
}
