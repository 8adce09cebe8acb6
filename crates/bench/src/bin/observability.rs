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
//! Each arm builds the system and solves it. The guards are each sink
//! arm's median per-round ratio to the no-sink arm (the interleaved
//! rounds of [`rasc_devtools::bench`]). Emits `BENCH_observability.json`
//! and exits non-zero when a guard fails.
//!
//! Usage: `observability [out.json]`.

use std::process::ExitCode;
use std::sync::Arc;

use rasc_automata::{adversarial_machine, Dfa};
use rasc_bench::constraints_workload::{edge_list_system, ladder, EdgeListWorkload};
use rasc_devtools::bench::{median, ratios, Arm, Bound::AtMost, Report};
use rasc_inc::json::Json;
use rasc_obs::{scoped, EventSink, MetricsRegistry, NoopSink};

/// Interleaved rounds, and solves per arm per round (a sample is their median).
const ROUNDS: usize = 60;
const REPS: usize = 3;

/// Builds and solves the workload, returning whether the probe reached
/// the sink.
fn solve_once(machine: &Dfa, wl: &EdgeListWorkload) -> bool {
    let (mut sys, vars, _) = edge_list_system(machine, wl);
    sys.solve();
    sys.nonempty(vars[wl.sink])
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_observability.json".to_owned());
    let (sigma, machine) = adversarial_machine(3);
    let wl = ladder(4, 192, &sigma, 7);
    assert!(
        solve_once(&machine, &wl),
        "the probe must reach the sink once the ladder is solved"
    );

    let sinks: [(&str, Option<Arc<dyn EventSink>>); 3] = [
        ("no_sink", None),
        ("noop_sink", Some(Arc::new(NoopSink))),
        ("metrics_registry", Some(Arc::new(MetricsRegistry::new()))),
    ];
    let mut arms: Vec<Arm> = sinks
        .iter()
        .map(|(_, sink)| {
            let (machine, wl) = (&machine, &wl);
            Arm::new(move || match sink {
                None => solve_once(machine, wl),
                Some(s) => scoped(Arc::clone(s), || solve_once(machine, wl)),
            })
        })
        .collect();
    let mut report = Report::new(
        "observability_overhead",
        [
            ("machine", Json::from("adversarial(3)")),
            ("workload", Json::from("ladder(4,192), built and solved")),
            ("edges", Json::from(wl.edges.len())),
        ],
    );
    let ns = report.interleave(ROUNDS, REPS, &mut arms);
    for ((arm, _), times) in sinks.iter().zip(&ns) {
        report.row([
            ("arm", Json::from(*arm)),
            ("median_ns", Json::Num(median(times))),
        ]);
    }
    for (i, (arm, _)) in sinks.iter().enumerate().skip(1) {
        let expr = format!("{arm} / no_sink");
        report.guard(&expr, &ratios(&ns[i], &ns[0]), AtMost(1.05));
    }
    report.finish(&out_path)
}
