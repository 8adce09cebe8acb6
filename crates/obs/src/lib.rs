//! Structured tracing and metrics for the `rasc` workspace (`rasc-obs`).
//!
//! Every layer of the solver pipeline — the bidirectional worklist, the
//! automata constructions, the incremental session's epochs — emits *events*
//! through this crate: hierarchical **spans** (begin/end pairs), monotone
//! **counters**, and **histograms** of sampled values. The crate is
//! deliberately zero-dependency (std only) and designed so that the
//! default state costs one relaxed atomic load per emission site:
//!
//! * When no sink is installed anywhere in the process, every emission
//!   function returns after a single `AtomicUsize` load on a predictable
//!   branch — effectively free on the solver's hot path (the
//!   `observability` bench bin enforces a ≤ 5 % overhead ratio).
//! * Sinks are installed **scoped and per-thread** with [`scoped`] /
//!   [`ScopedSink`], so parallel test binaries never observe one
//!   another's events.
//!
//! Concrete sinks:
//!
//! * [`Recorder`] — in-memory counters/histograms/span tallies, queryable
//!   afterwards (used by the stats-reconciliation property tests);
//! * [`MetricsRegistry`] — lock-free aggregation (atomic counters,
//!   gauges, log₂-bucket histograms with p50/p90/p99 estimates) with
//!   Prometheus-text and JSON exposition, the backing store of the
//!   `rasc serve --admin-addr` telemetry endpoint;
//! * [`ChromeTraceSink`] — Chrome trace-event JSON loadable in Perfetto /
//!   `about:tracing` (`rasc batch --trace out.json`);
//! * [`NoopSink`] — discards everything (the bench guard's subject);
//! * [`Fanout`] — broadcasts to several sinks (`--trace` + `--profile`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rasc_obs::{self as obs, Recorder};
//!
//! let rec = Arc::new(Recorder::new());
//! obs::scoped(rec.clone(), || {
//!     let _span = obs::span("work");
//!     obs::counter("items", 3);
//!     obs::histogram("size", 17);
//! });
//! assert_eq!(rec.counter_value("items"), 3);
//! assert_eq!(rec.span_count("work"), 1);
//! // Outside the scope, emissions are dropped.
//! obs::counter("items", 100);
//! assert_eq!(rec.counter_value("items"), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod metrics;
mod recorder;
mod scope;
mod sink;

pub use chrome::{ChromeTraceSink, TickClock, TimeSource, WallClock};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use recorder::{HistogramSummary, Recorder};
pub use scope::{counter, gauge, histogram, is_active, scoped, span, ScopedSink, Span};
pub use sink::{EventSink, Fanout, NoopSink};
