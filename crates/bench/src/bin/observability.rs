//! Observability overhead guard: solving the same §5 ladder workload
//! with no sink installed vs with a `NoopSink` installed must cost
//! (almost) the same — the instrumentation contract is that hot-path
//! counters are batched into plain integer adds and only flushed at
//! solve boundaries, so a wired-up-but-discarding subscriber may add at
//! most 5% to solve time. The same ≤5% budget holds for
//! [`rasc_obs::MetricsRegistry`], the aggregating sink `rasc serve` keeps
//! permanently installed, since its hot path is a shard lookup plus one
//! relaxed atomic add.
//!
//! Each timed iteration builds the system and solves it. The arms are
//! interleaved: every round times each arm once, in an order that rotates
//! from round to round, and each sink arm's ratio is taken to the no-sink
//! time of the same round. The guard is the median of those ratios over
//! the rounds, so a host whose speed drifts during the run moves every
//! arm of a round alike instead of one arm alone.
//!
//! Emits `BENCH_observability.json` with the per-arm medians and the
//! ratios' quartiles, and exits non-zero when the guard is violated.
//!
//! Usage: `observability [out.json]`.

use std::sync::Arc;
use std::time::Instant;

use rasc_automata::{adversarial_machine, Dfa};
use rasc_bench::constraints_workload::{edge_list_system, ladder, EdgeListWorkload};
use rasc_inc::json::{obj, Json};
use rasc_obs::{scoped, EventSink, MetricsRegistry, NoopSink};

/// Rounds of the interleaved arms.
const ROUNDS: usize = 60;
/// Solves per arm per round; a round's time for an arm is their median.
const SOLVES: usize = 3;
/// The guard's bound on each sink arm's median ratio to no sink.
const MAX_RATIO: f64 = 1.05;

/// Builds and solves the workload, returning whether the probe reached
/// the sink.
fn solve_once(machine: &Dfa, wl: &EdgeListWorkload) -> bool {
    let (mut sys, vars, _) = edge_list_system(machine, wl);
    sys.solve();
    sys.nonempty(vars[wl.sink])
}

/// Median nanoseconds of `SOLVES` solves under `sink` (none: no sink).
fn time_arm(sink: Option<&Arc<dyn EventSink>>, machine: &Dfa, wl: &EdgeListWorkload) -> f64 {
    let samples: Vec<f64> = (0..SOLVES)
        .map(|_| {
            let t0 = Instant::now();
            let reached = match sink {
                None => solve_once(machine, wl),
                Some(s) => scoped(Arc::clone(s), || solve_once(machine, wl)),
            };
            std::hint::black_box(reached);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// A sink arm against the no-sink arm: its median time, and the
/// quartiles of its per-round ratio to the no-sink time.
struct Overhead {
    median_ns: f64,
    q1: f64,
    ratio: f64,
    q3: f64,
}

impl Overhead {
    fn of(times: &[f64], baseline: &[f64]) -> Overhead {
        let mut ratios: Vec<f64> = times.iter().zip(baseline).map(|(t, b)| t / b).collect();
        ratios.sort_by(f64::total_cmp);
        Overhead {
            median_ns: median(times),
            q1: quantile(&ratios, 0.25),
            ratio: quantile(&ratios, 0.5),
            q3: quantile(&ratios, 0.75),
        }
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_observability.json".to_owned());
    let (sigma, machine) = adversarial_machine(3);
    let wl = ladder(4, 192, &sigma, 7);
    assert!(
        solve_once(&machine, &wl),
        "the probe must reach the sink once the ladder is solved"
    );

    println!(
        "rasc-obs: instrumentation overhead on solving ladder 4x192 ({} edges), \
         {ROUNDS} interleaved rounds of {SOLVES} solves per arm",
        wl.edges.len()
    );

    let sinks: [Option<Arc<dyn EventSink>>; 3] = [
        None,
        Some(Arc::new(NoopSink)),
        Some(Arc::new(MetricsRegistry::new())),
    ];
    // times[arm][round]: the arm's median solve time in that round.
    let mut times = vec![Vec::with_capacity(ROUNDS); sinks.len()];
    for round in 0..ROUNDS {
        for k in 0..sinks.len() {
            let arm = (round + k) % sinks.len();
            times[arm].push(time_arm(sinks[arm].as_ref(), &machine, &wl));
        }
    }
    let baseline_ns = median(&times[0]);
    let noop = Overhead::of(&times[1], &times[0]);
    let registry = Overhead::of(&times[2], &times[0]);

    println!(
        "{:>16}: median {:.3} ms per solve",
        "no sink",
        baseline_ns / 1e6
    );
    for (label, o) in [("noop sink", &noop), ("metrics registry", &registry)] {
        println!(
            "{label:>16}: median {:.3} ms per solve; ratio to no sink in the same round: \
             median {:.3}x (quartiles {:.3}–{:.3})",
            o.median_ns / 1e6,
            o.ratio,
            o.q1,
            o.q3
        );
    }

    let report = obj([
        ("bench", Json::from("observability_overhead")),
        ("machine", Json::from("adversarial(3)")),
        ("workload", Json::from("ladder(4,192), built and solved")),
        ("edges", Json::from(wl.edges.len())),
        (
            "cores",
            Json::from(std::thread::available_parallelism().map_or(1, |n| n.get())),
        ),
        ("rounds", Json::from(ROUNDS)),
        ("solves_per_arm_per_round", Json::from(SOLVES)),
        ("baseline_median_ns", Json::Num(baseline_ns)),
        ("noop_sink_median_ns", Json::Num(noop.median_ns)),
        ("noop_overhead_ratio", Json::Num(noop.ratio)),
        ("noop_ratio_q1", Json::Num(noop.q1)),
        ("noop_ratio_q3", Json::Num(noop.q3)),
        ("metrics_registry_median_ns", Json::Num(registry.median_ns)),
        ("metrics_registry_overhead_ratio", Json::Num(registry.ratio)),
        ("metrics_registry_ratio_q1", Json::Num(registry.q1)),
        ("metrics_registry_ratio_q3", Json::Num(registry.q3)),
        ("max_allowed_ratio", Json::Num(MAX_RATIO)),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write report");
    println!("wrote {out_path}");

    assert!(
        noop.ratio <= MAX_RATIO,
        "a NoopSink subscriber may add at most 5% to solve time \
         (median ratio over the rounds {:.3}x)",
        noop.ratio
    );
    assert!(
        registry.ratio <= MAX_RATIO,
        "the aggregating MetricsRegistry must fit the same 5% budget \
         (median ratio over the rounds {:.3}x)",
        registry.ratio
    );
}
