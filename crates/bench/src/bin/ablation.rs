//! Ablation of the §8 solver optimization inherited from BANSHEE: online
//! cycle elimination \[7\]. Runs the Table 1 workload with it on and off;
//! both arms must find the same violations.
//!
//! Usage: `ablation [size]` (default 40000 statements).

use rasc_bench::workload::{generate, WorkloadConfig};
use rasc_bench::{secs, timed};
use rasc_cfgir::Cfg;
use rasc_core::SolverConfig;
use rasc_pdmc::{properties, ConstraintChecker};

fn main() {
    let size: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(40_000);
    let (sigma, property) = properties::full_privilege_property();
    let event_names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
    // A loop-heavy shape (daemon-style event loops): ε-cycles are what
    // cycle elimination targets.
    let mut wl = WorkloadConfig::sized(size, event_names, 0xC0FFEE);
    wl.loop_density = 0.20;
    wl.branch_density = 0.15;
    let program = generate(&wl);
    let cfg = Cfg::build(&program).expect("valid program");
    println!(
        "§8 optimization ablation: privilege property, {} statements",
        program.num_stmts()
    );
    println!(
        "{:<28} {:>10} {:>12} {:>12} {:>10}",
        "configuration", "time (s)", "facts", "collapsed", "violations"
    );

    let configs = [("cycle elimination", true), ("none", false)];
    let mut baseline: Option<usize> = None;
    for (name, cycle_elimination) in configs {
        let config = SolverConfig { cycle_elimination };
        let ((violations, stats), t) = timed(|| {
            let mut checker =
                ConstraintChecker::new_with_config(&cfg, &sigma, &property, "main", config)
                    .expect("main exists");
            checker.solve();
            let v = checker.violations().len();
            (v, checker.system().stats())
        });
        println!(
            "{:<28} {:>10} {:>12} {:>12} {:>10}",
            name,
            secs(t),
            stats.facts_processed,
            stats.cycles_collapsed,
            violations
        );
        match baseline {
            None => baseline = Some(violations),
            Some(b) => assert_eq!(b, violations, "configs must agree"),
        }
    }
}
