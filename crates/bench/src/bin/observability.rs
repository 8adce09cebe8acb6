//! Observability overhead guard: solving the same §5 ladder workload
//! with no sink installed vs with a `NoopSink` installed must cost
//! (almost) the same — the instrumentation contract is that hot-path
//! counters are batched into plain integer adds and only flushed at
//! solve boundaries, so a wired-up-but-discarding subscriber may add at
//! most 5% to solve time.
//!
//! Emits `BENCH_observability.json` with the medians and the ratios, and
//! exits non-zero when the guard is violated. The same ≤5% budget is
//! enforced for [`rasc_obs::MetricsRegistry`] — the aggregating sink
//! `rasc serve` keeps permanently installed — since its hot path is a
//! shard lookup plus one relaxed atomic add. A further, informational
//! row measures a real recording subscriber (`Recorder`).
//!
//! Usage: `observability [out.json]`.

use std::sync::Arc;
use std::time::Duration;

use rasc_automata::{adversarial_machine, Dfa};
use rasc_bench::constraints_workload::{edge_list_system, ladder, EdgeListWorkload};
use rasc_devtools::bench;
use rasc_inc::json::{obj, Json};
use rasc_obs::{scoped, EventSink, MetricsRegistry, NoopSink, Recorder};

/// Builds and fully solves the workload, returning the probe answer so
/// the optimizer keeps the work.
fn solve_once(machine: &Dfa, wl: &EdgeListWorkload) -> bool {
    let (sys, vars, _) = edge_list_system(machine, wl);
    sys.nonempty(vars[wl.sink])
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_observability.json".to_owned());
    let (sigma, machine) = adversarial_machine(3);
    let wl = ladder(4, 192, &sigma, 7);

    println!(
        "rasc-obs: instrumentation overhead on ladder 4x192 ({} edges)",
        wl.edges.len()
    );

    let min_iters = 20;
    let min_time = Duration::from_millis(600);
    let baseline = bench("no sink", min_iters, min_time, || solve_once(&machine, &wl));
    let noop = bench("noop sink", min_iters, min_time, || {
        scoped(Arc::new(NoopSink), || solve_once(&machine, &wl))
    });
    let registry_sink: Arc<MetricsRegistry> = Arc::new(MetricsRegistry::new());
    let registry = bench("metrics registry", min_iters, min_time, || {
        scoped(Arc::clone(&registry_sink) as Arc<dyn EventSink>, || {
            solve_once(&machine, &wl)
        })
    });
    let recorder_sink: Arc<Recorder> = Arc::new(Recorder::new());
    let recording = bench("recorder", min_iters, min_time, || {
        scoped(Arc::clone(&recorder_sink) as Arc<dyn EventSink>, || {
            solve_once(&machine, &wl)
        })
    });

    let ratio = noop.median_ns / baseline.median_ns;
    let registry_ratio = registry.median_ns / baseline.median_ns;
    let recorder_ratio = recording.median_ns / baseline.median_ns;
    for (label, stats, r) in [
        ("no sink", &baseline, 1.0),
        ("noop sink", &noop, ratio),
        ("metrics registry", &registry, registry_ratio),
        ("recorder", &recording, recorder_ratio),
    ] {
        println!(
            "{label:>16}: median {:.3} ms over {} iters ({:.3}x baseline)",
            stats.median_ns / 1e6,
            stats.iters,
            r
        );
    }

    let report = obj([
        ("bench", Json::from("observability_overhead")),
        ("machine", Json::from("adversarial(3)")),
        ("workload", Json::from("ladder(4,192)")),
        ("edges", Json::from(wl.edges.len())),
        ("baseline_median_ns", Json::Num(baseline.median_ns)),
        ("noop_sink_median_ns", Json::Num(noop.median_ns)),
        ("metrics_registry_median_ns", Json::Num(registry.median_ns)),
        ("recorder_median_ns", Json::Num(recording.median_ns)),
        ("noop_overhead_ratio", Json::Num(ratio)),
        ("metrics_registry_overhead_ratio", Json::Num(registry_ratio)),
        ("recorder_overhead_ratio", Json::Num(recorder_ratio)),
        ("max_allowed_ratio", Json::Num(1.05)),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write report");
    println!("wrote {out_path}");

    assert!(
        ratio <= 1.05,
        "a NoopSink subscriber may add at most 5% to solve time \
         (got {ratio:.3}x baseline)"
    );
    assert!(
        registry_ratio <= 1.05,
        "the aggregating MetricsRegistry must fit the same 5% budget \
         (got {registry_ratio:.3}x baseline)"
    );
}
