//! Copy-on-write fork vs per-connection restore on dense
//! regular-reachability digraphs: a solved base system is serialized
//! once, then brought up per "connection" either by deserializing the
//! whole solved form (`System::restore_bytes` — what `rasc-serve` did
//! for every accepted connection) or by decoding once into a frozen
//! [`rasc_core::BaseSystem`] and forking copy-on-write (`System::fork` —
//! what the server does now).
//!
//! Each arm brings a system up, reads the sink's lower bounds and drops
//! the system. Restore is linear in the solved form; a fork shares the
//! per-variable records 64 variables to a pointer, so its cost hardly
//! grows with the base. Also reports per-connection resident overhead:
//! the RSS delta of holding [`FLEET`] live systems built each way (Linux
//! `/proc`, best effort — reported, not enforced).
//!
//! Emits `BENCH_cow.json` (one row per rung, 2k → 32k constraints) and
//! enforces two bounds: at the largest rung the fork must be at least 5×
//! faster than the per-connection restore, and the largest rung's fork
//! may take at most twice the smallest rung's, though its base has 16
//! times the variables.
//!
//! Usage: `cow_fork [out.json]`.

use std::time::Duration;

use rasc_automata::{adversarial_machine, Dfa};
use rasc_bench::constraints_workload::{dense, edge_list_system, EdgeListWorkload};
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::{BaseSystem, System, VarId};
use rasc_devtools::bench;
use rasc_inc::json::{obj, Json};

/// Concurrent systems held live for the resident-overhead measurement.
const FLEET: usize = 64;

fn build_solved(machine: &Dfa, wl: &EdgeListWorkload) -> System<MonoidAlgebra> {
    let (mut sys, _, _) = edge_list_system(machine, wl);
    sys.solve();
    sys
}

/// Resident set size in KiB, from `/proc/self/statm` (0 where absent).
#[cfg(target_os = "linux")]
fn resident_kb() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    pages * 4096 / 1024
}

#[cfg(not(target_os = "linux"))]
fn resident_kb() -> u64 {
    0
}

/// RSS growth per system, holding `FLEET` of them live at once.
fn fleet_overhead_kb(make: impl Fn() -> System<MonoidAlgebra>) -> u64 {
    let before = resident_kb();
    let fleet: Vec<System<MonoidAlgebra>> = (0..FLEET).map(|_| make()).collect();
    let after = resident_kb();
    drop(fleet);
    after.saturating_sub(before) / FLEET as u64
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_cow.json".to_owned());
    let (sigma, machine) = adversarial_machine(4);

    println!("rasc-inc: copy-on-write fork vs per-connection restore");
    println!(
        "{:>12} {:>8} {:>14} {:>12} {:>9} {:>12} {:>12}",
        "graph", "edges", "restore (ms)", "fork (ms)", "speedup", "rss/conn", "rss/conn"
    );
    println!(
        "{:>12} {:>8} {:>14} {:>12} {:>9} {:>12} {:>12}",
        "", "", "", "", "", "restore(KB)", "fork(KB)"
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut last_speedup = 0.0_f64;
    let mut fork_ns: Vec<f64> = Vec::new();
    // out_degree * n_vars edges per rung: 2k → 8k → 32k constraints.
    let shapes = [(125usize, 16usize), (500, 16), (2000, 16)];
    for (i, &(n_vars, out_degree)) in shapes.iter().enumerate() {
        let wl = dense(n_vars, out_degree, &sigma, 7 + i as u64);
        let sink = VarId::from_index(wl.sink);

        // The durable artifact, serialized once; the frozen base is the
        // decode-once product the server shares across connections.
        let solved = build_solved(&machine, &wl);
        let bytes = solved.snapshot_bytes().expect("solved system snapshots");
        let base: BaseSystem<MonoidAlgebra> = solved.into_base().expect("solved system freezes");

        // Per-connection restore: deserialize the solved form and answer.
        let restore = bench("restore", 5, Duration::from_millis(400), || {
            let sys = System::<MonoidAlgebra>::restore_bytes(&bytes).expect("valid snapshot");
            sys.lower_bounds(sink).count()
        });

        // Copy-on-write fork: alias the frozen base and answer.
        let fork = bench("fork", 5, Duration::from_millis(400), || {
            System::fork(&base).lower_bounds(sink).count()
        });

        let restore_rss = fleet_overhead_kb(|| {
            System::<MonoidAlgebra>::restore_bytes(&bytes).expect("valid snapshot")
        });
        let fork_rss = fleet_overhead_kb(|| System::fork(&base));

        let speedup = restore.median_ns / fork.median_ns;
        last_speedup = speedup;
        fork_ns.push(fork.median_ns);
        println!(
            "{:>12} {:>8} {:>14.3} {:>12.4} {:>8.1}x {:>12} {:>12}",
            format!("{n_vars}x{out_degree}"),
            wl.edges.len(),
            restore.median_ns / 1e6,
            fork.median_ns / 1e6,
            speedup,
            restore_rss,
            fork_rss
        );
        rows.push(obj([
            ("n_vars", Json::from(n_vars)),
            ("out_degree", Json::from(out_degree)),
            ("constraints", Json::from(wl.edges.len())),
            ("snapshot_bytes", Json::from(bytes.len())),
            ("restore_median_ns", Json::Num(restore.median_ns)),
            ("fork_median_ns", Json::Num(fork.median_ns)),
            ("speedup", Json::Num(speedup)),
            ("restore_rss_per_conn_kb", Json::from(restore_rss)),
            ("fork_rss_per_conn_kb", Json::from(fork_rss)),
        ]));
    }

    // The largest rung's fork against the smallest's.
    let growth = fork_ns[fork_ns.len() - 1] / fork_ns[0];
    let report = obj([
        ("bench", Json::from("cow_fork_vs_restore")),
        ("machine", Json::from("adversarial(4)")),
        ("fleet", Json::from(FLEET)),
        ("rows", Json::Arr(rows)),
        ("fork_growth", Json::Num(growth)),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write report");
    println!("wrote {out_path}");

    assert!(
        last_speedup >= 5.0,
        "a copy-on-write fork must be ≥5× faster than a per-connection \
         restore at the largest rung (got {last_speedup:.1}×)"
    );
    assert!(
        growth <= 2.0,
        "a fork of the largest base may take at most 2× a fork of the \
         smallest (got {growth:.2}×)"
    );
}
