//! Acceptance bound for incremental solving: on the largest bench ladder,
//! re-solving a solved `System` after a +1% constraint delta (epoch push
//! → add → re-drain → pop) must be at least 5× faster than rebuilding and
//! solving the whole system from scratch.
//!
//! The observed gap is two orders of magnitude (see
//! `BENCH_incremental.json`), so the 5× floor has a wide noise margin
//! even on loaded CI machines.

use std::time::Instant;

use rasc::automata::{adversarial_machine, Dfa, SymbolId};
use rasc::constraints::algebra::MonoidAlgebra;
use rasc::constraints::{SetExpr, System, VarId};
use rasc_bench::constraints_workload::{edge_list_system, ladder, EdgeListWorkload};
use rasc_devtools::Rng;

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

#[test]
fn incremental_resolve_beats_scratch_by_5x_on_the_largest_ladder() {
    let (sigma, machine) = adversarial_machine(3);
    let wl = ladder(4, 256, &sigma, 9);
    let delta = delta_edges(&wl, 1009);

    // Best-of-3 for each side, interleaved, to shrug off scheduler noise.
    let mut best_scratch = f64::INFINITY;
    let mut best_inc = f64::INFINITY;
    let (mut sys, vars) = build_base(&machine, &wl);
    let sink = vars[wl.sink];
    // Warm the incremental path once (first epoch interns delta words).
    for _ in 0..4 {
        let t0 = Instant::now();
        let mut full = wl.clone();
        full.edges.extend(delta.iter().cloned());
        let (scratch_sys, scratch_vars) = build_base(&machine, &full);
        let scratch_reached = scratch_sys.nonempty(scratch_vars[full.sink]);
        best_scratch = best_scratch.min(t0.elapsed().as_secs_f64());

        let t1 = Instant::now();
        sys.push_epoch();
        for (from, to, word) in &delta {
            let ann = sys.algebra_mut().word(word);
            sys.add_ann(SetExpr::var(vars[*from]), SetExpr::var(vars[*to]), ann)
                .unwrap();
            sys.solve();
        }
        let inc_reached = sys.nonempty(sink);
        assert!(sys.pop_epoch());
        best_inc = best_inc.min(t1.elapsed().as_secs_f64());

        assert_eq!(inc_reached, scratch_reached, "the two paths must agree");
    }

    let speedup = best_scratch / best_inc;
    assert!(
        speedup >= 5.0,
        "incremental re-solve must be ≥5× faster than scratch \
         (scratch {best_scratch:.4}s, incremental {best_inc:.4}s, {speedup:.1}×)"
    );
}
