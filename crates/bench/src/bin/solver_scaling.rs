//! Solver scaling guard: the solved-form storage (entry logs, with a
//! membership set past the log-only tier) must keep the cost *per derived
//! fact* flat as systems grow.
//!
//! Two workload families, each at three growing rungs:
//!
//! * **closure chains** — a probe constant pushed down an annotated
//!   transitive-closure chain (the adversarial 3-state machine), the
//!   regime where the old `flatten(...)`-clone propagation went
//!   quadratic;
//! * **constructor chains** — alternating wrap/project stages, the meet/
//!   decompose machinery, with the probe's lower bounds read back by head
//!   from the lower-bound log.
//!
//! Each arm builds and solves one rung and counts the facts it processed,
//! so a sample is nanoseconds per fact. Emits `BENCH_solver.json` (one
//! row per rung) and guards near-linear scaling: within each family, the
//! per-round ratio of the largest rung's ns per fact to the smallest's
//! must be ≤ 3.
//!
//! Usage: `solver_scaling [out.json]`.

use std::process::ExitCode;

use rasc_automata::{adversarial_machine, Dfa};
use rasc_bench::constraints_workload::{chain, cons_chain, edge_list_system, EdgeListWorkload};
use rasc_devtools::bench::{median, ratios, Arm, Bound::AtMost, Report};
use rasc_inc::json::Json;

/// Interleaved rounds, and calls per arm per round (a sample is their median).
const ROUNDS: usize = 20;
const REPS: usize = 3;

/// Builds and solves one closure-chain rung; returns facts processed.
fn run_chain(machine: &Dfa, wl: &EdgeListWorkload) -> u64 {
    let (mut sys, vars, probe) = edge_list_system(machine, wl);
    sys.solve();
    assert!(
        !sys.lower_bound_annotations(vars[wl.sink], probe).is_empty(),
        "probe must reach the chain sink"
    );
    sys.stats().facts_processed as u64
}

/// Builds and solves one constructor-chain rung; returns facts processed.
fn run_cons(machine: &Dfa, stages: usize) -> u64 {
    let (mut sys, sink, probe) = cons_chain(machine, stages);
    sys.solve();
    assert!(sys.is_consistent());
    assert!(
        !sys.lower_bound_annotations(sink, probe).is_empty(),
        "probe must tunnel through every wrap/project stage"
    );
    sys.stats().facts_processed as u64
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_solver.json".to_owned());
    let (sigma, machine) = adversarial_machine(3);
    let chains: Vec<(usize, EdgeListWorkload)> = [2_000usize, 8_000, 32_000]
        .iter()
        .enumerate()
        .map(|(i, &n)| (n, chain(n, &sigma, 11 + i as u64)))
        .collect();

    // (family, size, facts processed) per rung, in arm order.
    let mut rungs: Vec<(&str, usize, u64)> = Vec::new();
    let mut arms: Vec<Arm> = Vec::new();
    let machine = &machine;
    for (n, wl) in &chains {
        rungs.push(("closure_chain", *n, run_chain(machine, wl)));
        arms.push(Arm::ops(move || run_chain(machine, wl)));
    }
    for n in [1_000usize, 4_000, 16_000] {
        rungs.push(("cons_chain", n, run_cons(machine, n)));
        arms.push(Arm::ops(move || run_cons(machine, n)));
    }
    let mut report = Report::new(
        "solver_scaling",
        [("machine", Json::from("adversarial(3)"))],
    );
    let ns_per_fact = report.interleave(ROUNDS, REPS, &mut arms);

    for ((family, size, facts), ns) in rungs.iter().zip(&ns_per_fact) {
        report.row([
            ("family", Json::from(*family)),
            ("size", Json::from(*size)),
            ("facts_processed", Json::from(*facts)),
            ("median_ns", Json::Num(median(ns) * *facts as f64)),
            ("ns_per_fact", Json::Num(median(ns))),
        ]);
    }
    for (family, first) in [("closure_chain", 0), ("cons_chain", 3)] {
        let expr = format!("{family}: ns/fact at the largest rung / the smallest");
        let growth = ratios(&ns_per_fact[first + 2], &ns_per_fact[first]);
        report.guard(&expr, &growth, AtMost(3.0));
    }
    report.finish(&out_path)
}
