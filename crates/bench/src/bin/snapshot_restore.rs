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
//! `solved_entries` it leaves, plus the host's core count) and enforces
//! the acceptance bound: at the largest rung the warm restart must be at
//! least 5× faster than the cold replay.
//!
//! Usage: `snapshot_restore [out.json]`.

use std::time::Duration;

use rasc_automata::{adversarial_machine, Dfa};
use rasc_bench::constraints_workload::{dense, edge_list_system, EdgeListWorkload};
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::{System, VarId};
use rasc_devtools::bench;
use rasc_inc::json::{obj, Json};

fn build_solved(machine: &Dfa, wl: &EdgeListWorkload) -> System<MonoidAlgebra> {
    let (mut sys, _, _) = edge_list_system(machine, wl);
    sys.solve();
    sys
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_snapshot.json".to_owned());
    let (sigma, machine) = adversarial_machine(4);
    let cores = std::thread::available_parallelism().map_or(1, usize::from);

    println!("rasc-inc: warm restart (snapshot restore) vs cold replay ({cores} cores)");
    println!(
        "{:>12} {:>8} {:>10} {:>9} {:>10} {:>14} {:>14} {:>9}",
        "graph", "edges", "facts", "entries", "snap (KB)", "replay (ms)", "restore (ms)", "speedup"
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut last_speedup = 0.0_f64;
    // out_degree * n_vars edges per rung: 2k → 8k → 32k constraints.
    let shapes = [(125usize, 16usize), (500, 16), (2000, 16)];
    for (i, &(n_vars, out_degree)) in shapes.iter().enumerate() {
        let wl = dense(n_vars, out_degree, &sigma, 7 + i as u64);
        let sink = VarId::from_index(wl.sink);

        // The durable artifact: one solved form, serialized once.
        let base = build_solved(&machine, &wl);
        let bytes = base.snapshot_bytes().expect("solved system snapshots");
        // What one cold replay processes against what it keeps.
        let stats = base.stats();
        let solved_entries = stats.edges + stats.lower_bounds + stats.upper_bounds;

        // Cold replay: rebuild the system and re-solve every constraint.
        let replay = bench("replay", 5, Duration::from_millis(400), || {
            build_solved(&machine, &wl).nonempty(sink)
        });

        // Warm restart: deserialize the solved form and answer.
        let restore = bench("restore", 5, Duration::from_millis(400), || {
            let sys = System::<MonoidAlgebra>::restore_bytes(&bytes).expect("valid snapshot");
            sys.nonempty(sink)
        });

        let speedup = replay.median_ns / restore.median_ns;
        last_speedup = speedup;
        println!(
            "{:>12} {:>8} {:>10} {:>9} {:>10.1} {:>14.3} {:>14.3} {:>8.1}x",
            format!("{n_vars}x{out_degree}"),
            wl.edges.len(),
            stats.facts_processed,
            solved_entries,
            bytes.len() as f64 / 1024.0,
            replay.median_ns / 1e6,
            restore.median_ns / 1e6,
            speedup
        );
        rows.push(obj([
            ("n_vars", Json::from(n_vars)),
            ("out_degree", Json::from(out_degree)),
            ("constraints", Json::from(wl.edges.len())),
            ("facts_processed", Json::from(stats.facts_processed)),
            ("solved_entries", Json::from(solved_entries)),
            ("snapshot_bytes", Json::from(bytes.len())),
            ("replay_median_ns", Json::Num(replay.median_ns)),
            ("restore_median_ns", Json::Num(restore.median_ns)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    let report = obj([
        ("bench", Json::from("snapshot_restore_vs_replay")),
        ("machine", Json::from("adversarial(4)")),
        ("cores", Json::from(cores)),
        ("rows", Json::Arr(rows)),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write report");
    println!("wrote {out_path}");

    assert!(
        last_speedup >= 5.0,
        "warm restart must be ≥5× faster than cold replay at the largest \
         rung (got {last_speedup:.1}×)"
    );
}
