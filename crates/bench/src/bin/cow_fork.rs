//! Copy-on-write fork vs per-connection restore on dense
//! regular-reachability digraphs: a solved base system is serialized
//! once, then brought up per "connection" either by deserializing the
//! whole solved form (`System::restore_bytes` — what `rasc-serve` did
//! for every accepted connection) or by decoding once into a frozen
//! [`rasc_core::BaseSystem`] and forking copy-on-write (`System::fork` —
//! what the server does now).
//!
//! Each arm brings a system up, reads the sink's lower bounds and drops
//! the system; a fork is sub-microsecond, so its arm times a batch of
//! [`FORKS`]. Restore is linear in the solved form; a fork shares the
//! per-variable records 64 variables to a pointer, so its cost hardly
//! grows with the base. Also reports per-connection resident overhead:
//! the RSS delta of holding [`FLEET`] live systems built each way (Linux
//! `/proc`, best effort — reported, not enforced).
//!
//! Emits `BENCH_cow.json` (one row per rung, 2k → 32k constraints) and
//! guards two per-round ratios: at the largest rung the fork must be at
//! least 5× faster than the per-connection restore, and the largest
//! rung's fork may take at most twice the smallest rung's, though its
//! base has 16 times the variables.
//!
//! Usage: `cow_fork [out.json]`.

use std::process::ExitCode;

use rasc_automata::adversarial_machine;
use rasc_bench::constraints_workload::dense_rungs;
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::System;
use rasc_devtools::bench::Bound::{AtLeast, AtMost};
use rasc_devtools::bench::{median, ratios, Arm, Report};
use rasc_inc::json::Json;

/// Concurrent systems held live for the resident-overhead measurement.
const FLEET: usize = 64;
/// Forks timed as one batch by the fork arm.
const FORKS: u64 = 1_000;
/// Interleaved rounds, and calls per arm per round (a sample is their median).
const ROUNDS: usize = 20;
const REPS: usize = 3;

/// Resident set size in KiB, from Linux's `/proc/self/statm` (0 where
/// absent).
fn resident_kb() -> u64 {
    let statm = std::fs::read_to_string("/proc/self/statm").unwrap_or_default();
    let pages: u64 = statm
        .split_whitespace()
        .nth(1)
        .and_then(|f| f.parse().ok())
        .unwrap_or(0);
    pages * 4096 / 1024
}

/// RSS growth per system, holding `FLEET` of them live at once.
fn fleet_overhead_kb(make: impl Fn() -> System<MonoidAlgebra>) -> u64 {
    let before = resident_kb();
    let fleet: Vec<System<MonoidAlgebra>> = (0..FLEET).map(|_| make()).collect();
    let after = resident_kb();
    drop(fleet);
    after.saturating_sub(before) / FLEET as u64
}

fn restore(bytes: &[u8]) -> System<MonoidAlgebra> {
    System::restore_bytes(bytes).expect("valid snapshot")
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_cow.json".to_owned());
    let (sigma, machine) = adversarial_machine(4);

    // A rung is its row's fixed fields, the sink, the serialized solved
    // form and the frozen base decoded from it.
    let rungs: Vec<_> = dense_rungs(&sigma, &machine)
        .expect("solved systems snapshot")
        .into_iter()
        .map(|rung| {
            let (mut row, sink) = (rung.fields(), rung.sink());
            let bytes = rung.bytes;
            let base = rung.solved.into_base().expect("solved system freezes");
            row.extend([
                (
                    "restore_rss_per_conn_kb",
                    Json::from(fleet_overhead_kb(|| restore(&bytes))),
                ),
                (
                    "fork_rss_per_conn_kb",
                    Json::from(fleet_overhead_kb(|| System::fork(&base))),
                ),
            ]);
            (row, sink, bytes, base)
        })
        .collect();

    let mut arms: Vec<Arm> = rungs
        .iter()
        .flat_map(|(_, sink, bytes, base)| {
            [
                Arm::new(move || restore(bytes).lower_bounds(*sink).count()),
                Arm::ops(move || {
                    for _ in 0..FORKS {
                        std::hint::black_box(System::fork(base).lower_bounds(*sink).count());
                    }
                    FORKS
                }),
            ]
        })
        .collect();
    let mut report = Report::new(
        "cow_fork_vs_restore",
        [
            ("machine", Json::from("adversarial(4)")),
            ("fleet", Json::from(FLEET)),
            ("forks_per_batch", Json::from(FORKS)),
        ],
    );
    let ns = report.interleave(ROUNDS, REPS, &mut arms);

    for ((row, ..), times) in rungs.iter().zip(ns.chunks(2)) {
        let (restore, fork) = (&times[0], &times[1]);
        report.row(row.iter().cloned().chain([
            ("restore_median_ns", Json::Num(median(restore))),
            ("fork_median_ns", Json::Num(median(fork))),
            ("speedup", Json::Num(median(&ratios(restore, fork)))),
        ]));
    }
    let (speedup, growth) = (ratios(&ns[4], &ns[5]), ratios(&ns[5], &ns[1]));
    report.guard("restore / fork at 32k", &speedup, AtLeast(5.0));
    report.guard("fork at 32k / fork at 2k", &growth, AtMost(2.0));
    report.finish(&out_path)
}
