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
//! Emits `BENCH_solver.json` (one row per rung) and enforces near-linear
//! scaling: within each family, ns per processed fact at the largest rung
//! must be ≤ 3× the smallest rung.
//!
//! Usage: `solver_scaling [out.json]`.

use std::time::Duration;

use rasc_automata::adversarial_machine;
use rasc_bench::constraints_workload::{chain, cons_chain, edge_list_system, EdgeListWorkload};
use rasc_devtools::bench;
use rasc_inc::json::{obj, Json};

/// Builds and solves one closure-chain rung; returns facts processed.
fn run_chain(machine: &rasc_automata::Dfa, wl: &EdgeListWorkload) -> usize {
    let (mut sys, vars, probe) = edge_list_system(machine, wl);
    sys.solve();
    assert!(
        !sys.lower_bound_annotations(vars[wl.sink], probe).is_empty(),
        "probe must reach the chain sink"
    );
    sys.stats().facts_processed
}

/// Builds and solves one constructor-chain rung; returns facts processed.
fn run_cons(machine: &rasc_automata::Dfa, stages: usize) -> usize {
    let (mut sys, sink, probe) = cons_chain(machine, stages);
    sys.solve();
    assert!(sys.is_consistent());
    assert!(
        !sys.lower_bound_annotations(sink, probe).is_empty(),
        "probe must tunnel through every wrap/project stage"
    );
    sys.stats().facts_processed
}

struct Rung {
    family: &'static str,
    size: usize,
    facts: usize,
    median_ns: f64,
}

impl Rung {
    fn ns_per_fact(&self) -> f64 {
        self.median_ns / self.facts.max(1) as f64
    }
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_solver.json".to_owned());
    let (sigma, machine) = adversarial_machine(3);

    println!("solver scaling: ns per processed fact across growing rungs");
    println!(
        "{:>12} {:>8} {:>10} {:>12} {:>10}",
        "family", "size", "facts", "median (ms)", "ns/fact"
    );

    let mut rungs: Vec<Rung> = Vec::new();
    for (i, &n) in [2_000usize, 8_000, 32_000].iter().enumerate() {
        let wl = chain(n, &sigma, 11 + i as u64);
        let facts = run_chain(&machine, &wl);
        let stats = bench("chain", 5, Duration::from_secs(2), || {
            run_chain(&machine, &wl)
        });
        rungs.push(Rung {
            family: "closure_chain",
            size: n,
            facts,
            median_ns: stats.median_ns,
        });
    }
    for &stages in &[1_000usize, 4_000, 16_000] {
        let facts = run_cons(&machine, stages);
        let stats = bench("cons", 5, Duration::from_secs(2), || {
            run_cons(&machine, stages)
        });
        rungs.push(Rung {
            family: "cons_chain",
            size: stages,
            facts,
            median_ns: stats.median_ns,
        });
    }

    let mut rows: Vec<Json> = Vec::new();
    for r in &rungs {
        println!(
            "{:>12} {:>8} {:>10} {:>12.3} {:>10.1}",
            r.family,
            r.size,
            r.facts,
            r.median_ns / 1e6,
            r.ns_per_fact()
        );
        rows.push(obj([
            ("family", Json::from(r.family)),
            ("size", Json::from(r.size)),
            ("facts_processed", Json::from(r.facts)),
            ("median_ns", Json::Num(r.median_ns)),
            ("ns_per_fact", Json::Num(r.ns_per_fact())),
        ]));
    }

    let report = obj([
        ("bench", Json::from("solver_scaling")),
        ("machine", Json::from("adversarial(3)")),
        (
            "guard",
            Json::from("largest rung ns/fact <= 3x smallest, per family"),
        ),
        ("rows", Json::Arr(rows)),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write report");
    println!("wrote {out_path}");

    for family in ["closure_chain", "cons_chain"] {
        let fam: Vec<&Rung> = rungs.iter().filter(|r| r.family == family).collect();
        let first = fam.first().expect("rungs").ns_per_fact();
        let last = fam.last().expect("rungs").ns_per_fact();
        assert!(
            last <= 3.0 * first,
            "{family}: ns/fact grew superlinearly — {last:.1} at the largest \
             rung vs {first:.1} at the smallest (limit 3x)"
        );
    }
    println!("scaling guard passed");
}
