//! Property test for the metrics aggregation plane
//! ([`rasc::obs::MetricsRegistry`]): quantile accuracy.
//!
//! The registry stores latencies in fixed log₂ buckets, so `quantile(q)`
//! is an estimate: the inclusive upper bound of the bucket holding the
//! rank-⌈q·n⌉ sample, clamped to the observed maximum. That estimate must
//! never undershoot the exact order statistic and must land in the *same*
//! log₂ bucket — i.e. p50/p90/p99 are within one bucket (a factor of two)
//! of the exact quantiles, on any workload. (That the registry's counters
//! reconcile with the solver's statistics is `proptest_obs_reconcile`.)

use rasc::obs::{bucket_index, EventSink, MetricsRegistry};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, Rng};

/// Draws a value whose magnitude spans the full bucket range: mostly
/// small latencies, but with heavy-tail draws up to 2^60 and explicit
/// zeros, so every quantile case exercises bucket boundaries.
fn arb_value(rng: &mut Rng) -> u64 {
    match rng.gen_range(0..10) {
        0 => 0,
        1..=5 => rng.gen_range(0..1000) as u64,
        6 | 7 => rng.gen_range(0..1_000_000) as u64,
        8 => rng.gen_range(0..1 << 30) as u64,
        _ => {
            let shift = rng.gen_range(0..61);
            (rng.next_u64() >> 3) >> (60 - shift)
        }
    }
}

/// The exact q-quantile under the same rank convention the histogram
/// estimator uses: the rank-⌈q·n⌉ smallest sample (1-based), clamped
/// into range.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[usize::try_from(rank - 1).unwrap()]
}

#[test]
fn histogram_quantiles_are_within_one_bucket_of_exact() {
    forall(
        "histogram_quantiles_are_within_one_bucket_of_exact",
        Config::cases(128),
        |rng| (0..rng.gen_range(1..200)).map(|_| arb_value(rng)).collect(),
        |values: &Vec<u64>| {
            let reg = MetricsRegistry::new();
            for &v in values {
                reg.histogram("request.micros", v);
            }
            let snap = reg.snapshot();
            let h = snap
                .histograms
                .get("request.micros")
                .ok_or("histogram must exist after recording")?;

            let mut sorted = values.clone();
            sorted.sort_unstable();
            prop_assert_eq!(h.count(), sorted.len() as u64, "count must be exact");
            prop_assert_eq!(
                h.sum,
                sorted.iter().sum::<u64>(),
                "sum must be exact (not bucketed)"
            );
            prop_assert_eq!(h.min, sorted[0], "min must be exact");
            prop_assert_eq!(h.max, sorted[sorted.len() - 1], "max must be exact");

            for q in [0.5, 0.9, 0.99] {
                let exact = exact_quantile(&sorted, q);
                let est = h.quantile(q);
                prop_assert!(
                    est >= exact,
                    "p{} estimate {est} must not undershoot exact {exact}",
                    (q * 100.0) as u32
                );
                prop_assert_eq!(
                    bucket_index(est),
                    bucket_index(exact),
                    "p{} estimate {est} must land in the same log₂ bucket as \
                     exact {exact}",
                    (q * 100.0) as u32
                );
            }
            Ok(())
        },
    );
}
