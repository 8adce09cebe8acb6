//! The §9 flow-analysis scaling experiment: the bracket automaton of the
//! primary analysis (§7.2.2) grows with the nesting depth of the largest
//! type, and with it the bidirectional solver's annotation classes — the
//! paper's reason to predict that "a bidirectional solver is unlikely to
//! scale for this problem".
//!
//! Usage: `flow_scaling [max_depth] [chains]` (defaults 7 and 4).

use rasc_bench::flow_workload::nested_pairs_program;
use rasc_bench::{secs, timed};
use rasc_core::SolverStats;
use rasc_flow::{FlowAnalysis, Program};

fn main() {
    let max_depth: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(7);
    let chains: usize = std::env::args()
        .nth(2)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4);

    println!("§9: flow-analysis scaling with type depth ({chains} chains)");
    println!(
        "{:>6} | {:>12} {:>10} {:>10} | {:>12} {:>10}",
        "depth", "primary (s)", "anns", "facts", "dual (s)", "facts"
    );
    for depth in 1..=max_depth {
        let src = nested_pairs_program(depth, chains);
        let program = Program::parse(&src).expect("generated program parses");

        let ((p_stats, ok_p), t_primary) = timed(|| {
            let mut a = FlowAnalysis::new(&program).expect("well-typed");
            a.solve();
            let ok = a.flows("SRC0", "DST0") && !a.flows("SRC0", "DST1");
            (a.system().stats(), ok)
        });
        let ((d_stats, ok_d), t_dual) = timed(|| {
            let mut d = FlowAnalysis::dual(&program).expect("well-typed");
            d.solve();
            let ok = d.flows("SRC0", "DST0") && !d.flows("SRC0", "DST1");
            (d.system().stats(), ok)
        });
        assert!(ok_p && ok_d, "depth {depth}: flows must hold");
        let SolverStats {
            annotations: p_anns,
            facts_processed: p_facts,
            ..
        } = p_stats;
        println!(
            "{:>6} | {:>12} {:>10} {:>10} | {:>12} {:>10}",
            depth,
            secs(t_primary),
            p_anns,
            p_facts,
            secs(t_dual),
            d_stats.facts_processed
        );
    }
    println!();
    println!("(primary = pairs as bracket annotations: the automaton and the");
    println!(" interned annotation count grow with type depth; dual = pairs as");
    println!(" term constructors: annotation growth tracks call depth instead)");
}
