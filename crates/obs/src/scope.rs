//! Scoped sink installation and the free emission functions.
//!
//! Dispatch is two-level:
//!
//! 1. a process-global `AtomicUsize` counts installed sinks across all
//!    threads — when zero (the default), every emission returns after one
//!    relaxed load, so uninstrumented callers pay essentially nothing;
//! 2. a thread-local stack holds this thread's installed sinks — events
//!    go to the innermost one, so parallel tests (each on its own
//!    thread) never observe one another's events.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use crate::sink::EventSink;

/// Number of sinks installed anywhere in the process (the fast gate).
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STACK: RefCell<Vec<Arc<dyn EventSink>>> = const { RefCell::new(Vec::new()) };
}

/// Whether a sink is installed *on this thread* (events would be
/// delivered). Cheap; usable to skip expensive event-payload
/// construction.
pub fn is_active() -> bool {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return false;
    }
    STACK.with(|s| s.try_borrow().map(|v| !v.is_empty()).unwrap_or(false))
}

/// Installs `sink` for the current thread until the returned guard is
/// dropped. Installations nest; the innermost sink receives the events.
///
/// Prefer [`scoped`] where a closure fits; the guard form suits
/// straight-line code like the CLI main loop.
#[must_use = "the sink is uninstalled when the guard drops"]
#[derive(Debug)]
pub struct ScopedSink {
    _priv: (),
}

impl ScopedSink {
    /// Installs `sink` on this thread and returns the RAII guard.
    pub fn install(sink: Arc<dyn EventSink>) -> ScopedSink {
        STACK.with(|s| {
            if let Ok(mut v) = s.try_borrow_mut() {
                v.push(sink);
                ACTIVE.fetch_add(1, Ordering::Relaxed);
            }
        });
        ScopedSink { _priv: () }
    }
}

impl Drop for ScopedSink {
    fn drop(&mut self) {
        STACK.with(|s| {
            if let Ok(mut v) = s.try_borrow_mut() {
                if v.pop().is_some() {
                    ACTIVE.fetch_sub(1, Ordering::Relaxed);
                }
            }
        });
    }
}

/// Runs `f` with `sink` installed on the current thread, uninstalling it
/// afterwards (also on panic, via the guard's destructor).
pub fn scoped<R>(sink: Arc<dyn EventSink>, f: impl FnOnce() -> R) -> R {
    let _guard = ScopedSink::install(sink);
    f()
}

/// Delivers one event to this thread's innermost sink, if any.
#[inline]
fn dispatch(f: impl FnOnce(&dyn EventSink)) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    STACK.with(|s| {
        // `try_borrow` (not `borrow`) so a sink that itself emits events
        // silently drops the re-entrant emission instead of panicking.
        let Ok(stack) = s.try_borrow() else { return };
        if let Some(sink) = stack.last() {
            let sink = Arc::clone(sink);
            drop(stack);
            f(&*sink);
        }
    });
}

/// Increments counter `name` by `delta` on the installed sink.
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    dispatch(|s| s.counter(name, delta));
}

/// Records one `value` sample in histogram `name` on the installed sink.
#[inline]
pub fn histogram(name: &'static str, value: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    dispatch(|s| s.histogram(name, value));
}

/// Sets gauge `name` to `value` on the installed sink (last write wins).
#[inline]
pub fn gauge(name: &'static str, value: u64) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    dispatch(|s| s.gauge(name, value));
}

/// Opens a span: emits `span_begin(name)` now and `span_end(name)` when
/// the returned guard drops. When no sink is active at open time the
/// guard is inert (no end event is emitted even if a sink appears
/// mid-span, keeping B/E pairs balanced).
#[inline]
pub fn span(name: &'static str) -> Span {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return Span { name: None };
    }
    let mut opened = false;
    dispatch(|s| {
        s.span_begin(name);
        opened = true;
    });
    Span {
        name: opened.then_some(name),
    }
}

/// RAII guard for a [`span`]: ends the span on drop.
#[must_use = "the span ends when the guard drops"]
#[derive(Debug)]
pub struct Span {
    name: Option<&'static str>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(name) = self.name {
            dispatch(|s| s.span_end(name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;

    #[test]
    fn events_outside_a_scope_are_dropped() {
        counter("dropped", 1);
        histogram("dropped", 1);
        let s = span("dropped");
        drop(s);
        // Nothing to assert beyond "did not panic"; the registry tests
        // below show scoped delivery works.
    }

    #[test]
    fn innermost_sink_wins_and_uninstall_restores() {
        let outer = Arc::new(MetricsRegistry::new());
        let inner = Arc::new(MetricsRegistry::new());
        scoped(outer.clone(), || {
            counter("c", 1);
            scoped(inner.clone(), || counter("c", 10));
            counter("c", 2);
        });
        assert_eq!(outer.snapshot().counters["c"], 3);
        assert_eq!(inner.snapshot().counters["c"], 10);
    }

    #[test]
    fn guard_form_uninstalls_on_drop() {
        let reg = Arc::new(MetricsRegistry::new());
        {
            let _g = ScopedSink::install(reg.clone());
            assert!(is_active());
            counter("g", 5);
        }
        counter("g", 7);
        assert_eq!(reg.snapshot().counters["g"], 5);
    }

    #[test]
    fn spans_balance_even_across_panics() {
        let reg = Arc::new(MetricsRegistry::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            scoped(reg.clone(), || {
                let _s = span("outer");
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        // The registry tallies a span when it ends.
        assert_eq!(
            reg.snapshot().spans["outer"],
            1,
            "end emitted during unwind"
        );
        assert!(!is_active(), "sink uninstalled during unwind");
    }
}
