//! The §6.4 parametric-annotation experiment: checking the file-state
//! property with on-the-fly parameter instantiation (substitution
//! environments, one solver pass) versus the explicit-instantiation
//! alternative (one pushdown run per descriptor — what a checker without
//! parametric annotations must do, and how MOPS-style tools scale).
//!
//! Both arms must find the same violations: the nodes of the one pass
//! are the union of the per-descriptor runs' nodes, or the bench fails.
//!
//! Usage: `parametric_bench [size]` (default 4000 statements).

use std::collections::BTreeSet;

use rasc_automata::PropertySpec;
use rasc_bench::workload::generate_parametric;
use rasc_bench::{secs, timed};
use rasc_cfgir::Cfg;
use rasc_pdmc::{properties, ConstraintChecker};
use rasc_pushdown::PdsChecker;

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(4_000);
    let spec = PropertySpec::parse(properties::FILE_STATE).expect("valid spec");
    let (sigma, dfa) = spec.compile();

    println!("§6.4: parametric file-state property, one pass vs per-descriptor runs");
    println!(
        "{:>12} {:>8} | {:>14} {:>8} | {:>20} | {:>10}",
        "descriptors", "size", "subst-env (s)", "envs", "instantiated (s)", "violations"
    );
    // The lazily-built product grows with the number of *simultaneously
    // tracked* descriptors (up to 3^K states' worth of environments):
    // realistic programs keep few descriptors in flight at once, which is
    // why the paper reports minimal overhead. Beyond ~8 the environment
    // count explodes — the honest worst case of §6.4.
    for n_desc in [1usize, 2, 4, 8] {
        let program = generate_parametric(size, n_desc, 0xFD + n_desc as u64);
        let cfg = Cfg::build(&program).expect("valid program");

        // One pass with substitution environments.
        let ((one_pass, envs), t_subst) = timed(|| {
            let mut checker =
                ConstraintChecker::parametric(&cfg, &spec, "main").expect("main exists");
            checker.solve();
            let nodes: BTreeSet<_> = checker.violations().into_iter().collect();
            (nodes, checker.system().stats().annotations)
        });

        // Per-descriptor explicit instantiation (MOPS-style): K runs of
        // the plain checker, each seeing only its descriptor's events.
        let (per_descriptor, t_inst) = timed(|| {
            let mut nodes = BTreeSet::new();
            for d in 0..n_desc {
                let label = format!("fd{d}");
                let checker = PdsChecker::with_event_map(&cfg, &dfa, "main", |name, args| {
                    (args.len() == 1 && args[0] == label)
                        .then(|| sigma.lookup(name))
                        .flatten()
                })
                .expect("main exists");
                nodes.extend(checker.run().into_iter().map(|v| v.node));
            }
            nodes
        });
        assert_eq!(
            one_pass, per_descriptor,
            "{n_desc} descriptors: the one pass and the per-descriptor runs disagree"
        );

        println!(
            "{:>12} {:>8} | {:>14} {:>8} | {:>20} | {:>10}",
            n_desc,
            program.num_stmts(),
            secs(t_subst),
            envs,
            secs(t_inst),
            one_pass.len()
        );
    }
}
