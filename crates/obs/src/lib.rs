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
//! * [`MetricsRegistry`] — lock-free aggregation (atomic counters,
//!   gauges, log₂-bucket histograms with exact count/min/max/sum and
//!   p50/p90/p99 estimates, completed-span tallies) with Prometheus-text,
//!   JSON and plain-text ([`MetricsSnapshot::report`]) exposition: the
//!   backing store of the `rasc serve --admin-addr` telemetry endpoint,
//!   the `--profile` summary, and the sink the stats-reconciliation
//!   property tests read;
//! * [`ChromeTraceSink`] — Chrome trace-event JSON loadable in Perfetto /
//!   `about:tracing` (`rasc batch --trace out.json`);
//! * [`NoopSink`] — discards everything (the bench guard's subject);
//! * [`Fanout`] — broadcasts to several sinks (`--trace` + `--profile`).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use rasc_obs::{self as obs, MetricsRegistry};
//!
//! let reg = Arc::new(MetricsRegistry::new());
//! obs::scoped(reg.clone(), || {
//!     let _span = obs::span("work");
//!     obs::counter("items", 3);
//!     obs::histogram("size", 17);
//! });
//! // Outside the scope, emissions are dropped.
//! obs::counter("items", 100);
//! let snap = reg.snapshot();
//! assert_eq!(snap.counters["items"], 3);
//! assert_eq!(snap.spans["work"], 1);
//! assert_eq!(snap.histograms["size"].count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chrome;
mod metrics;
mod scope;
mod sink;

pub use chrome::{ChromeTraceSink, TickClock, TimeSource, WallClock};
pub use metrics::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use scope::{counter, gauge, histogram, is_active, scoped, span, ScopedSink, Span};
pub use sink::{EventSink, Fanout, NoopSink};
