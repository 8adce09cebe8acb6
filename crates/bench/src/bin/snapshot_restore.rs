//! Warm restart (snapshot restore) vs cold replay on dense
//! regular-reachability digraphs: a solved base system is serialized once
//! with the crash-safe snapshot container, then brought back either by
//! deserializing the solved form (`System::restore_bytes`) or by
//! rebuilding and re-solving every constraint from nothing.
//!
//! The dense shape (out-degree 16 over the adversarial 4-state monoid) is
//! the warm-restart stress case: cold solving examines roughly
//! `out_degree` candidate facts per annotation class that survives into
//! the solved form, while the restore path is linear in the solved form
//! itself.
//!
//! Emits `BENCH_snapshot.json` (one row per rung, 2k → 32k constraints,
//! each with the cold solve's `facts_processed` against the
//! `solved_entries` it leaves) and guards the per-round ratio of the two
//! arms: at the largest rung the warm restart must be at least 5× faster
//! than the cold replay.
//!
//! Usage: `snapshot_restore [out.json]`.

use std::process::ExitCode;

use rasc_automata::adversarial_machine;
use rasc_bench::constraints_workload::{dense_rungs, edge_list_system};
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::System;
use rasc_devtools::bench::{median, ratios, Arm, Bound::AtLeast, Report};
use rasc_inc::json::Json;

/// Interleaved rounds, and calls per arm per round: the top rung's replay
/// takes seconds, so a sample is one call.
const ROUNDS: usize = 7;
const REPS: usize = 1;

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_snapshot.json".to_owned());
    let (sigma, machine) = adversarial_machine(4);
    let rungs = dense_rungs(&sigma, &machine).expect("solved systems snapshot");

    let machine = &machine;
    let mut arms: Vec<Arm> = rungs
        .iter()
        .flat_map(|rung| {
            let sink = rung.sink();
            [
                // Cold replay: rebuild the system and re-solve every constraint.
                Arm::new(move || {
                    let (mut sys, _, _) = edge_list_system(machine, &rung.wl);
                    sys.solve();
                    sys.nonempty(sink)
                }),
                // Warm restart: deserialize the solved form and answer.
                Arm::new(move || {
                    System::<MonoidAlgebra>::restore_bytes(&rung.bytes)
                        .expect("valid snapshot")
                        .nonempty(sink)
                }),
            ]
        })
        .collect();
    let mut report = Report::new(
        "snapshot_restore_vs_replay",
        [("machine", Json::from("adversarial(4)"))],
    );
    let ns = report.interleave(ROUNDS, REPS, &mut arms);

    for (rung, times) in rungs.iter().zip(ns.chunks(2)) {
        let (replay, restore) = (&times[0], &times[1]);
        // What one cold replay processes against what it keeps.
        let stats = rung.solved.stats();
        let entries = stats.edges + stats.lower_bounds + stats.upper_bounds;
        report.row(rung.fields().into_iter().chain([
            ("facts_processed", Json::from(stats.facts_processed)),
            ("solved_entries", Json::from(entries)),
            ("replay_median_ns", Json::Num(median(replay))),
            ("restore_median_ns", Json::Num(median(restore))),
            ("speedup", Json::Num(median(&ratios(replay, restore)))),
        ]));
    }
    let speedup = ratios(&ns[4], &ns[5]);
    report.guard("replay / restore at 32k", &speedup, AtLeast(5.0));
    report.finish(&out_path)
}
