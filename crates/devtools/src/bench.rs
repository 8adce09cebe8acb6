//! Wall-clock benchmark timing, replacing `criterion` for the offline
//! benchmark harness.

use std::time::{Duration, Instant};

/// Timing summary of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark label.
    pub name: String,
    /// Measured iterations (after warmup).
    pub iters: u32,
    /// Mean time per iteration, in nanoseconds.
    pub mean_ns: f64,
    /// Median time per iteration, in nanoseconds.
    pub median_ns: f64,
    /// Fastest iteration, in nanoseconds.
    pub min_ns: f64,
}

/// Times `f` with a short warmup, then runs it until `min_time` elapses
/// (at least `min_iters` iterations), returning per-iteration statistics.
///
/// The closure's return value is consumed by a black-box sink so the
/// optimizer cannot delete the measured work.
pub fn bench<T>(
    name: &str,
    min_iters: u32,
    min_time: Duration,
    mut f: impl FnMut() -> T,
) -> BenchStats {
    // Warmup: one untimed run (JIT-free Rust, so this mostly warms caches).
    sink(f());
    let mut samples: Vec<f64> = Vec::new();
    let start = Instant::now();
    while samples.len() < min_iters as usize || start.elapsed() < min_time {
        let t0 = Instant::now();
        sink(f());
        samples.push(t0.elapsed().as_nanos() as f64);
        if samples.len() >= 1_000_000 {
            break;
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let iters = samples.len() as u32;
    let mean_ns = samples.iter().sum::<f64>() / f64::from(iters);
    let median_ns = samples[samples.len() / 2];
    BenchStats {
        name: name.to_owned(),
        iters,
        mean_ns,
        median_ns,
        min_ns: samples[0],
    }
}

#[inline]
fn sink<T>(value: T) {
    // An opaque drop: reading the value through a volatile-ish pattern is
    // unnecessary — forbidding inlining of this sink is enough to keep the
    // computed value alive in practice for these coarse benchmarks.
    std::hint::black_box(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_is_positive_and_ordered() {
        let fast = bench("fast", 5, Duration::from_millis(5), || 1 + 1);
        let slow = bench("slow", 5, Duration::from_millis(5), || {
            (0..20_000u64).map(std::hint::black_box).sum::<u64>()
        });
        assert!(fast.median_ns > 0.0);
        assert!(slow.median_ns > fast.median_ns);
        assert!(fast.min_ns <= fast.median_ns);
    }
}
