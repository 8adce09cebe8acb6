//! The [`MetricsRegistry`] aggregation sink and its exposition encoders.
//!
//! Unlike the [`crate::ChromeTraceSink`], which preserves individual
//! events, the registry *aggregates in place* so a long-running server
//! can answer "what are the p99 latencies right now" without unbounded
//! memory:
//!
//! * **counters** — one `AtomicU64` per name, relaxed `fetch_add`;
//! * **gauges** — one `AtomicU64` per name, relaxed `store`;
//! * **histograms** — 65 fixed log₂ buckets of `AtomicU64` per name
//!   (bucket 0 holds the value 0, bucket *i* ≥ 1 holds values in
//!   `[2^(i-1), 2^i - 1]`), plus sum/min/max atomics. Quantiles are
//!   estimated from the bucket counts and are exact to within one
//!   bucket (a factor of 2) by construction;
//! * **spans** — completed-span tallies, one `AtomicU64` per name.
//!
//! The hot path is lock-free after a name's first emission: names are
//! sharded by hash across 8 shards, each a `RwLock<HashMap>` taken for
//! *read* to find the interned atomic cell; the write lock is only taken
//! once per name process-wide to insert the cell. This keeps the
//! registry inside the ≤ 5 % overhead budget enforced by the
//! `observability` bench alongside [`crate::NoopSink`].
//!
//! Reads go through [`MetricsRegistry::snapshot`], which clones every
//! cell into a [`MetricsSnapshot`]. A histogram's total count is derived
//! from its bucket counts so count and buckets always agree within one
//! snapshot; once emitters are quiescent (e.g. all requests answered), a
//! snapshot is exact. Snapshots render to Prometheus text exposition
//! ([`MetricsSnapshot::to_prometheus`]) or JSON
//! ([`MetricsSnapshot::to_json`]) for the `rasc-serve` admin endpoint.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::chrome::escape;
use crate::sink::EventSink;

/// Number of name shards (power of two).
const SHARDS: usize = 8;

/// Number of log₂ histogram buckets: bucket 0 for the value 0, buckets
/// 1..=64 for each power-of-two range up to `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// The log₂ bucket index holding `value`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (the Prometheus `le` boundary).
#[inline]
pub fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        1..=63 => (1u64 << i) - 1,
        _ => u64::MAX,
    }
}

/// Inclusive lower bound of bucket `i`.
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

#[derive(Debug)]
struct HistoCell {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistoCell {
    fn new() -> HistoCell {
        HistoCell {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Shard {
    counters: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
    gauges: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
    spans: RwLock<HashMap<&'static str, Arc<AtomicU64>>>,
    histograms: RwLock<HashMap<&'static str, Arc<HistoCell>>>,
}

/// Finds (or interns) the cell for `name`: an uncontended read lock on
/// the steady state, a write lock only on a name's first emission. A
/// poisoned lock (panic mid-insert elsewhere) drops the event rather
/// than compounding the failure.
fn cell<T>(
    map: &RwLock<HashMap<&'static str, Arc<T>>>,
    name: &'static str,
    new: impl FnOnce() -> T,
) -> Option<Arc<T>> {
    if let Ok(m) = map.read() {
        if let Some(c) = m.get(name) {
            return Some(Arc::clone(c));
        }
    }
    match map.write() {
        Ok(mut m) => Some(Arc::clone(m.entry(name).or_insert_with(|| Arc::new(new())))),
        Err(_) => None,
    }
}

/// An aggregating [`EventSink`]: lock-free atomic counters, gauges, and
/// log₂-bucket histograms, snapshot-readable at any time.
///
/// Designed to run for the lifetime of a server process, typically as a
/// [`crate::Fanout`] peer next to a trace sink:
///
/// ```
/// use std::sync::Arc;
/// use rasc_obs::{self as obs, MetricsRegistry};
///
/// let reg = Arc::new(MetricsRegistry::new());
/// obs::scoped(reg.clone(), || {
///     obs::counter("serve.requests", 2);
///     obs::histogram("serve.request.micros", 130);
///     obs::gauge("serve.inflight", 1);
/// });
/// let snap = reg.snapshot();
/// assert_eq!(snap.counters.get("serve.requests"), Some(&2));
/// assert!(snap.to_prometheus().contains("serve_requests_total 2"));
/// ```
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    shards: [Shard; SHARDS],
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    fn shard(&self, name: &str) -> &Shard {
        // FNV-1a over the name bytes; names are few and static, so any
        // spreading hash is fine.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// A point-in-time copy of every metric. Each cell is read
    /// atomically and a histogram's count is derived from its bucket
    /// counts, so every individual metric is internally consistent;
    /// concurrent emitters may land between cells of *different*
    /// metrics. Quiescent emitters ⇒ exact snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            if let Ok(m) = shard.counters.read() {
                for (&name, c) in m.iter() {
                    snap.counters
                        .insert(name.to_owned(), c.load(Ordering::Relaxed));
                }
            }
            if let Ok(m) = shard.gauges.read() {
                for (&name, c) in m.iter() {
                    snap.gauges
                        .insert(name.to_owned(), c.load(Ordering::Relaxed));
                }
            }
            if let Ok(m) = shard.spans.read() {
                for (&name, c) in m.iter() {
                    snap.spans
                        .insert(name.to_owned(), c.load(Ordering::Relaxed));
                }
            }
            if let Ok(m) = shard.histograms.read() {
                for (&name, h) in m.iter() {
                    let buckets: Vec<u64> = h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect();
                    snap.histograms.insert(
                        name.to_owned(),
                        HistogramSnapshot {
                            buckets,
                            sum: h.sum.load(Ordering::Relaxed),
                            min: h.min.load(Ordering::Relaxed),
                            max: h.max.load(Ordering::Relaxed),
                        },
                    );
                }
            }
        }
        snap
    }

    /// Shorthand: snapshot and render Prometheus text exposition.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Shorthand: snapshot and render the JSON stats document.
    pub fn render_json(&self) -> String {
        self.snapshot().to_json()
    }
}

impl EventSink for MetricsRegistry {
    fn span_begin(&self, _name: &'static str) {}

    fn span_end(&self, name: &'static str) {
        if let Some(c) = cell(&self.shard(name).spans, name, || AtomicU64::new(0)) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn counter(&self, name: &'static str, delta: u64) {
        if let Some(c) = cell(&self.shard(name).counters, name, || AtomicU64::new(0)) {
            c.fetch_add(delta, Ordering::Relaxed);
        }
    }

    fn histogram(&self, name: &'static str, value: u64) {
        if let Some(h) = cell(&self.shard(name).histograms, name, HistoCell::new) {
            h.record(value);
        }
    }

    fn gauge(&self, name: &'static str, value: u64) {
        if let Some(c) = cell(&self.shard(name).gauges, name, || AtomicU64::new(0)) {
            c.store(value, Ordering::Relaxed);
        }
    }
}

/// A consistent read of one histogram: per-bucket counts plus
/// sum/min/max.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) sample counts, one per log₂ bucket.
    pub buckets: Vec<u64>,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Total number of samples (sum of bucket counts).
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) as the inclusive upper
    /// bound of the bucket containing the rank-⌈q·n⌉ sample. The true
    /// quantile lies in the same bucket, so the estimate is within one
    /// log₂ bucket (a factor of 2) of exact. Returns 0 for an empty
    /// histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }
}

/// A point-in-time copy of a [`MetricsRegistry`]'s contents, ready to
/// encode. Maps are keyed by the original dotted metric names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Monotone counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges (last write wins).
    pub gauges: BTreeMap<String, u64>,
    /// Completed-span tallies.
    pub spans: BTreeMap<String, u64>,
    /// Log₂-bucket histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

/// Maps a dotted metric name onto the Prometheus name grammar
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` (dots and other punctuation become `_`).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): counters as `<name>_total`, spans as
    /// `<name>_spans_total`, gauges verbatim, histograms as cumulative
    /// `_bucket{le="…"}` series (log₂ boundaries up to the last occupied
    /// bucket, then `+Inf`) plus `_sum` and `_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n}_total counter");
            let _ = writeln!(out, "{n}_total {v}");
        }
        for (name, v) in &self.spans {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n}_spans_total counter");
            let _ = writeln!(out, "{n}_spans_total {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge");
            let _ = writeln!(out, "{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let last = h
                .buckets
                .iter()
                .rposition(|&c| c != 0)
                .unwrap_or(0)
                .min(HISTOGRAM_BUCKETS - 1);
            let mut cumulative = 0u64;
            for (i, &c) in h.buckets.iter().enumerate().take(last + 1) {
                cumulative += c;
                let _ = writeln!(
                    out,
                    "{n}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_upper_bound(i)
                );
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count());
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count());
        }
        out
    }

    /// A human-readable report of the counters, the completed-span
    /// tallies and each histogram's count, min, max and sum, one line per
    /// name (what `rasc batch --profile` prints).
    pub fn report(&self) -> String {
        let mut out = String::new();
        for (title, map) in [
            ("counters", &self.counters),
            ("spans (completed)", &self.spans),
        ] {
            if !map.is_empty() {
                let _ = writeln!(out, "{title}:");
                for (name, v) in map {
                    let _ = writeln!(out, "  {name:<40} {v}");
                }
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (name, h) in &self.histograms {
                let _ = writeln!(
                    out,
                    "  {name:<40} n={} min={} max={} sum={}",
                    h.count(),
                    h.min,
                    h.max,
                    h.sum
                );
            }
        }
        out
    }

    /// Renders the snapshot as a JSON object with `counters`, `gauges`,
    /// `spans`, and `histograms` members; each histogram reports count,
    /// sum, min, max, and the p50/p90/p99 estimates.
    pub fn to_json(&self) -> String {
        fn scalar_map(out: &mut String, key: &str, map: &BTreeMap<String, u64>) {
            let _ = write!(out, "\"{key}\":{{");
            for (i, (name, v)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", escape(name));
            }
            out.push('}');
        }
        let mut out = String::from("{");
        scalar_map(&mut out, "counters", &self.counters);
        out.push(',');
        scalar_map(&mut out, "gauges", &self.gauges);
        out.push(',');
        scalar_map(&mut out, "spans", &self.spans);
        out.push_str(",\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let count = h.count();
            let min = if count == 0 { 0 } else { h.min };
            let _ = write!(
                out,
                "\"{}\":{{\"count\":{count},\"sum\":{},\"min\":{min},\"max\":{},\
                 \"p50\":{},\"p90\":{},\"p99\":{}}}",
                escape(name),
                h.sum,
                h.max,
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99)
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_domain() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        for i in 0..HISTOGRAM_BUCKETS {
            let lo = bucket_lower_bound(i);
            let hi = bucket_upper_bound(i);
            assert!(lo <= hi);
            assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
        }
        assert_eq!(bucket_upper_bound(0) + 1, bucket_lower_bound(1));
        assert_eq!(bucket_upper_bound(5) + 1, bucket_lower_bound(6));
    }

    #[test]
    fn registry_aggregates_all_event_kinds() {
        let reg = MetricsRegistry::new();
        reg.counter("c", 2);
        reg.counter("c", 3);
        reg.gauge("g", 7);
        reg.gauge("g", 4);
        reg.span_begin("s");
        reg.span_end("s");
        reg.histogram("h", 0);
        reg.histogram("h", 5);
        reg.histogram("h", 1000);
        let snap = reg.snapshot();
        assert_eq!(snap.counters.get("c"), Some(&5));
        assert_eq!(snap.gauges.get("g"), Some(&4));
        assert_eq!(snap.spans.get("s"), Some(&1));
        let h = snap
            .histograms
            .get("h")
            .cloned()
            .unwrap_or(HistogramSnapshot {
                buckets: Vec::new(),
                sum: 0,
                min: 0,
                max: 0,
            });
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum, 1005);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 1000);
        assert_eq!(h.buckets[bucket_index(0)], 1);
        assert_eq!(h.buckets[bucket_index(5)], 1);
        assert_eq!(h.buckets[bucket_index(1000)], 1);
    }

    #[test]
    fn quantiles_are_within_one_bucket() {
        let reg = MetricsRegistry::new();
        for v in 1..=100u64 {
            reg.histogram("h", v);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["h"];
        // Exact p50 is 50 (bucket 6: 32..=63); estimate must land in it.
        let p50 = h.quantile(0.50);
        assert_eq!(bucket_index(p50), bucket_index(50), "p50 {p50}");
        // p99 is 99 (bucket 7: 64..=127); max-clamped to 100.
        let p99 = h.quantile(0.99);
        assert_eq!(bucket_index(p99), bucket_index(99), "p99 {p99}");
        assert!(p99 <= h.max);
        assert_eq!(h.quantile(0.0), bucket_upper_bound(bucket_index(1)));
        assert_eq!(h.quantile(1.0).max(h.max), h.max);
    }

    #[test]
    fn prometheus_rendering_is_parseable_shape() {
        let reg = MetricsRegistry::new();
        reg.counter("serve.requests", 41);
        reg.counter("serve.requests", 1);
        reg.gauge("serve.inflight", 3);
        reg.histogram("serve.request.micros", 100);
        reg.histogram("serve.request.micros", 200);
        let text = reg.render_prometheus();
        assert!(
            text.contains("# TYPE serve_requests_total counter"),
            "{text}"
        );
        assert!(text.contains("serve_requests_total 42"), "{text}");
        assert!(text.contains("# TYPE serve_inflight gauge"), "{text}");
        assert!(text.contains("serve_inflight 3"), "{text}");
        assert!(
            text.contains("serve_request_micros_bucket{le=\"+Inf\"} 2"),
            "{text}"
        );
        assert!(text.contains("serve_request_micros_sum 300"), "{text}");
        assert!(text.contains("serve_request_micros_count 2"), "{text}");
        // Bucket series is cumulative and ends at the +Inf total.
        assert!(text.contains("le=\"127\"} 1"), "{text}");
        assert!(text.contains("le=\"255\"} 2"), "{text}");
    }

    #[test]
    fn json_rendering_reports_quantiles() {
        let reg = MetricsRegistry::new();
        reg.counter("c", 1);
        reg.histogram("h", 10);
        let json = reg.render_json();
        assert!(json.contains("\"counters\":{\"c\":1}"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
        assert!(json.contains("\"p50\":"), "{json}");
        assert!(json.contains("\"p99\":"), "{json}");
    }

    #[test]
    fn report_lists_counters_spans_and_histograms_in_name_order() {
        let reg = MetricsRegistry::new();
        reg.counter("b", 2);
        reg.counter("a", 3);
        reg.gauge("g", 7);
        reg.span_begin("s");
        reg.span_end("s");
        reg.histogram("h", 10);
        reg.histogram("h", 4);
        let want = format!(
            "counters:\n  {:<40} 3\n  {:<40} 2\nspans (completed):\n  {:<40} 1\n\
             histograms:\n  {:<40} n=2 min=4 max=10 sum=14\n",
            "a", "b", "s", "h"
        );
        assert_eq!(reg.snapshot().report(), want);
        assert_eq!(MetricsRegistry::new().snapshot().report(), "");
    }

    #[test]
    fn prom_name_sanitizes() {
        assert_eq!(prom_name("serve.request.micros"), "serve_request_micros");
        assert_eq!(prom_name("9lives"), "_lives");
        assert_eq!(prom_name("a-b c9"), "a_b_c9");
    }
}
