//! Compares the annotation-based interprocedural dataflow engine (§3.3 /
//! §6 intro) against the classical context-insensitive iterative solver:
//! soundness (refinement), precision gain (context sensitivity), and the
//! paper's §4 complexity dependence on the number of annotation classes —
//! the gen/kill monoid has `3ⁿ` elements for `n` facts, and bidirectional
//! solving pays for the classes that actually arise, so cost grows with
//! the fact count as well as program size.
//!
//! Usage: `dataflow_vs_iterative [max_size]`.

use rasc_bench::workload::{generate, WorkloadConfig};
use rasc_bench::{secs, timed};
use rasc_cfgir::{Cfg, NodeId};
use rasc_dataflow::{ConstraintDataflow, ForwardDataflow, GenKillSpec, IterativeDataflow};
use rasc_devtools::Rng;

fn main() {
    let max_size: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(32_000);

    println!("§3.3: interprocedural gen/kill dataflow");
    println!(
        "{:>6} {:>8} {:>12} {:>12} {:>12} {:>10} {:>14} {:>16}",
        "facts",
        "size",
        "bidi (s)",
        "fwd (s)",
        "iter (s)",
        "classes",
        "sound?",
        "nodes more precise"
    );
    let mut rng = Rng::new(99);
    for n_facts in [2usize, 4, 8] {
        let mut spec = GenKillSpec::new();
        let mut event_names = Vec::new();
        for i in 0..n_facts {
            let f = spec.fact(&format!("x{i}"));
            spec.event(&format!("def_x{i}"), &[f], &[]);
            spec.event(&format!("kill_x{i}"), &[], &[f]);
            event_names.push(format!("def_x{i}"));
            event_names.push(format!("kill_x{i}"));
        }
        let mut size = 500;
        while size <= max_size {
            let wl = WorkloadConfig::sized(size, event_names.clone(), rng.next_u64());
            let program = generate(&wl);
            let cfg = Cfg::build(&program).expect("valid program");

            let (cdf, t_constraint) = timed(|| {
                let mut df = ConstraintDataflow::new(&cfg, &spec, "main").expect("main");
                df.solve();
                df
            });
            let (fdf, t_forward) = timed(|| {
                let mut df = ForwardDataflow::new(&cfg, &spec, "main").expect("main");
                df.solve();
                df
            });
            let (idf, t_iter) = timed(|| {
                let mut df = IterativeDataflow::new(&cfg, &spec, "main").expect("main");
                df.solve(0);
                df
            });

            // Both constraint engines must agree exactly, and their
            // context-sensitive result must be a subset of the
            // context-insensitive one at every node; count strict wins.
            let mut sound = true;
            let mut wins = 0usize;
            for node in 0..cfg.num_nodes() {
                let n = NodeId::from_index(node);
                let cs = fdf.facts_at(n);
                let ci = idf.facts_at(n);
                if cs & !ci != 0 {
                    sound = false;
                }
                if cs != ci {
                    wins += 1;
                }
                assert_eq!(cdf.facts_at(n), cs, "forward and bidirectional must agree");
            }
            println!(
                "{:>6} {:>8} {:>12} {:>12} {:>12} {:>10} {:>14} {:>16}",
                n_facts,
                program.num_stmts(),
                secs(t_constraint),
                secs(t_forward),
                secs(t_iter),
                cdf.system().stats().annotations,
                if sound { "yes" } else { "NO (bug)" },
                wins
            );
            assert!(sound, "context-sensitive result must refine the baseline");
            size *= 4;
        }
    }
}
