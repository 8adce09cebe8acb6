//! Incremental re-solving vs from-scratch solving on the §5 ladder
//! workloads: after a base system is solved, +1% new constraints arrive
//! and are solved either incrementally on the solved [`System`] (epoch
//! push, then each add followed by `solve`, which re-drains only the new
//! facts; epoch pop) or by rebuilding and solving the whole system from
//! nothing.
//!
//! Emits `BENCH_incremental.json` (one row per ladder) and guards the
//! per-round ratio of the two arms: on the largest ladder the incremental
//! path must be at least 5× faster than the from-scratch path.
//!
//! Usage: `incremental_resolve [out.json]`.

use std::process::ExitCode;

use rasc_automata::{adversarial_machine, Dfa, SymbolId};
use rasc_bench::constraints_workload::{edge_list_system, ladder, EdgeListWorkload};
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::{SetExpr, System, VarId};
use rasc_devtools::bench::{median, ratios, Arm, Bound::AtLeast, Report};
use rasc_devtools::Rng;
use rasc_inc::json::Json;

/// Interleaved rounds, and calls per arm per round (a sample is their median).
const ROUNDS: usize = 30;
const REPS: usize = 5;

/// The +1% delta: fresh random edges over the existing variables.
fn delta_edges(wl: &EdgeListWorkload, seed: u64) -> Vec<(usize, usize, Vec<SymbolId>)> {
    let mut rng = Rng::new(seed);
    let n = (wl.edges.len() / 100).max(1);
    let syms: Vec<SymbolId> = wl
        .edges
        .iter()
        .flat_map(|(_, _, w)| w.iter().copied())
        .collect();
    (0..n)
        .map(|_| {
            (
                rng.gen_range(0..wl.n_vars),
                rng.gen_range(0..wl.n_vars),
                vec![syms[rng.gen_range(0..syms.len())]],
            )
        })
        .collect()
}

fn build_base(machine: &Dfa, wl: &EdgeListWorkload) -> (System<MonoidAlgebra>, Vec<VarId>) {
    let (mut sys, vars, _) = edge_list_system(machine, wl);
    sys.solve();
    (sys, vars)
}

fn main() -> ExitCode {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_incremental.json".to_owned());
    let (sigma, machine) = adversarial_machine(3);
    // A rung is its row's fixed fields, the ladder, its +1% delta and the
    // solved base system.
    let mut rungs: Vec<_> = [(4usize, 16usize), (4, 64), (4, 256)]
        .iter()
        .enumerate()
        .map(|(i, &(width, len))| {
            let wl = ladder(width, len, &sigma, 7 + i as u64);
            let delta = delta_edges(&wl, 1000 + i as u64);
            let row = [
                ("ladder_width", Json::from(width)),
                ("ladder_len", Json::from(len)),
                ("base_edges", Json::from(wl.edges.len())),
                ("delta_edges", Json::from(delta.len())),
            ];
            let base = build_base(&machine, &wl);
            (row, wl, delta, base)
        })
        .collect();

    let machine = &machine;
    let mut arms: Vec<Arm> = Vec::new();
    for (_, wl, delta, (sys, vars)) in &mut rungs {
        let (wl, delta, vars) = (&*wl, &*delta, &*vars);
        // From scratch: rebuild and solve base + delta every time.
        arms.push(Arm::new(move || {
            let mut full = wl.clone();
            full.edges.extend(delta.iter().cloned());
            let (sys, vars) = build_base(machine, &full);
            sys.nonempty(vars[full.sink])
        }));
        // Incremental: one pre-solved system; each call opens an epoch,
        // feeds the delta through the worklist, queries, and rolls back so
        // the next call starts from the same base fixpoint.
        arms.push(Arm::new(move || {
            sys.push_epoch();
            for (from, to, word) in delta {
                let ann = sys.algebra_mut().word(word);
                sys.add_ann(SetExpr::var(vars[*from]), SetExpr::var(vars[*to]), ann)
                    .expect("well-formed");
                sys.solve();
            }
            let reached = sys.nonempty(vars[wl.sink]);
            assert!(sys.pop_epoch());
            reached
        }));
    }
    let mut report = Report::new(
        "incremental_vs_scratch",
        [
            ("machine", Json::from("adversarial(3)")),
            ("delta_fraction", Json::Num(0.01)),
        ],
    );
    let ns = report.interleave(ROUNDS, REPS, &mut arms);
    drop(arms);

    for ((row, ..), times) in rungs.iter().zip(ns.chunks(2)) {
        let (scratch, inc) = (&times[0], &times[1]);
        report.row(row.iter().cloned().chain([
            ("scratch_median_ns", Json::Num(median(scratch))),
            ("incremental_median_ns", Json::Num(median(inc))),
            ("speedup", Json::Num(median(&ratios(scratch, inc)))),
        ]));
    }
    let speedup = ratios(&ns[4], &ns[5]);
    report.guard("scratch / incremental at 4x256", &speedup, AtLeast(5.0));
    report.finish(&out_path)
}
