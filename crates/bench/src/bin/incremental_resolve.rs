//! Incremental re-solving vs from-scratch solving on the §5 ladder
//! workloads: after a base system is solved, +1% new constraints arrive
//! and are solved either incrementally on the solved [`System`] (epoch
//! push, then each add followed by `solve`, which re-drains only the new
//! facts; epoch pop) or by rebuilding and solving the whole system from
//! nothing.
//!
//! Emits `BENCH_incremental.json` (one row per ladder) and enforces the
//! acceptance bound: on the largest ladder the incremental path must be at
//! least 5× faster than the from-scratch path.
//!
//! Usage: `incremental [out.json]`.

use std::time::Duration;

use rasc_automata::{adversarial_machine, Dfa, SymbolId};
use rasc_bench::constraints_workload::{edge_list_system, ladder, EdgeListWorkload};
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::{SetExpr, System, VarId};
use rasc_devtools::{bench, Rng};
use rasc_inc::json::{obj, Json};

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

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_incremental.json".to_owned());
    let (sigma, machine) = adversarial_machine(3);

    println!("rasc-inc: incremental (+1% constraints) vs from-scratch re-solve");
    println!(
        "{:>12} {:>8} {:>7} {:>14} {:>14} {:>9}",
        "ladder", "edges", "delta", "scratch (ms)", "inc (ms)", "speedup"
    );

    let mut rows: Vec<Json> = Vec::new();
    let mut last_speedup = 0.0_f64;
    let shapes = [(4usize, 16usize), (4, 64), (4, 256)];
    for (i, &(width, len)) in shapes.iter().enumerate() {
        let wl = ladder(width, len, &sigma, 7 + i as u64);
        let delta = delta_edges(&wl, 1000 + i as u64);

        // From-scratch: rebuild and solve base + delta every time.
        let scratch = bench("scratch", 10, Duration::from_millis(400), || {
            let mut full = wl.clone();
            full.edges.extend(delta.iter().cloned());
            let (sys, vars) = build_base(&machine, &full);
            sys.nonempty(vars[full.sink])
        });

        // Incremental: one pre-solved system; each round opens an epoch,
        // feeds the delta through the worklist, queries, and rolls back so
        // the next round starts from the same base fixpoint.
        let (mut sys, vars) = build_base(&machine, &wl);
        let sink = vars[wl.sink];
        let inc = bench("incremental", 10, Duration::from_millis(400), || {
            sys.push_epoch();
            for (from, to, word) in &delta {
                let ann = sys.algebra_mut().word(word);
                sys.add_ann(SetExpr::var(vars[*from]), SetExpr::var(vars[*to]), ann)
                    .expect("well-formed");
                sys.solve();
            }
            let reached = sys.nonempty(sink);
            assert!(sys.pop_epoch());
            reached
        });

        let speedup = scratch.median_ns / inc.median_ns;
        last_speedup = speedup;
        println!(
            "{:>12} {:>8} {:>7} {:>14.3} {:>14.3} {:>8.1}x",
            format!("{width}x{len}"),
            wl.edges.len(),
            delta.len(),
            scratch.median_ns / 1e6,
            inc.median_ns / 1e6,
            speedup
        );
        rows.push(obj([
            ("ladder_width", Json::from(width)),
            ("ladder_len", Json::from(len)),
            ("base_edges", Json::from(wl.edges.len())),
            ("delta_edges", Json::from(delta.len())),
            ("scratch_median_ns", Json::Num(scratch.median_ns)),
            ("incremental_median_ns", Json::Num(inc.median_ns)),
            ("speedup", Json::Num(speedup)),
        ]));
    }

    let report = obj([
        ("bench", Json::from("incremental_vs_scratch")),
        ("machine", Json::from("adversarial(3)")),
        ("delta_fraction", Json::Num(0.01)),
        ("rows", Json::Arr(rows)),
    ]);
    std::fs::write(&out_path, report.render() + "\n").expect("write report");
    println!("wrote {out_path}");

    assert!(
        last_speedup >= 5.0,
        "incremental re-solve must be ≥5× faster than scratch on the largest \
         ladder (got {last_speedup:.1}×)"
    );
}
