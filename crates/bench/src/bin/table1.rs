//! Regenerates the paper's **Table 1**: the process-privilege experiment.
//!
//! Paper setup: the full privilege property (11 states, 9 symbols) checked
//! on VixieCron (4k LoC), At (6k), Sendmail (222k), Apache (229k), with
//! BANSHEE (annotated constraints) vs MOPS (direct pushdown model
//! checker). Here: synthetic MiniImp packages at the same statement
//! counts, the reconstructed privilege property, and three engines —
//! the bidirectional constraint solver (BANSHEE's strategy), the forward
//! constraint solver (§5), and the direct PDS `post*` checker (the MOPS
//! stand-in).
//!
//! Usage: `table1 [--quick]` (`--quick` divides sizes by 10).

use rasc_bench::workload::{generate, WorkloadConfig};
use rasc_bench::{secs, timed};
use rasc_cfgir::Cfg;
use rasc_pdmc::{forward_violations, properties, ConstraintChecker};
use rasc_pushdown::PdsChecker;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { 10 } else { 1 };
    let (sigma, property) = properties::full_privilege_property();
    let event_names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();

    let packages = [
        ("VixieCron-like", 4_000usize, 2usize),
        ("At-like", 6_000, 2),
        ("Sendmail-like", 222_000, 1),
        ("Apache-like", 229_000, 1),
    ];

    println!("Table 1 (reproduction): process privilege property");
    println!(
        "property: {} states ({} minimized), {} symbols",
        property.len(),
        property.minimize().len(),
        sigma.len()
    );
    println!(
        "{:<16} {:>8} {:>9} {:>6} {:>12} {:>12} {:>12}",
        "Benchmark", "Size", "Programs", "Viol?", "bidi (s)", "forward (s)", "pds/MOPS (s)"
    );

    for (name, size, programs) in packages {
        let size = size / scale;
        let mut bidi_total = std::time::Duration::ZERO;
        let mut fwd_total = std::time::Duration::ZERO;
        let mut pds_total = std::time::Duration::ZERO;
        let mut any_violation = false;
        let mut actual_size = 0;
        for pnum in 0..programs {
            let wl =
                WorkloadConfig::sized(size / programs, event_names.clone(), 0xC0FFEE + pnum as u64);
            let program = generate(&wl);
            actual_size += program.num_stmts();
            let cfg = Cfg::build(&program).expect("generated programs are valid");

            // Engine 1: bidirectional annotated constraints (BANSHEE).
            let (bidi_violations, t) = timed(|| {
                let mut checker =
                    ConstraintChecker::new(&cfg, &sigma, &property, "main").expect("main exists");
                checker.solve();
                checker.violations().len()
            });
            bidi_total += t;

            // Engine 2: forward annotated constraints (§5).
            let (fwd_violations, t) = timed(|| {
                forward_violations(&cfg, &sigma, &property, "main")
                    .expect("main exists")
                    .len()
            });
            fwd_total += t;

            // Engine 3: direct pushdown saturation (MOPS stand-in).
            let (pds_violations, t) = timed(|| {
                PdsChecker::new(&cfg, &sigma, &property, "main")
                    .expect("main exists")
                    .run()
                    .len()
            });
            pds_total += t;

            assert_eq!(
                bidi_violations > 0,
                pds_violations > 0,
                "engines must agree on {name} program {pnum}"
            );
            assert_eq!(bidi_violations > 0, fwd_violations > 0);
            any_violation |= bidi_violations > 0;
        }
        println!(
            "{:<16} {:>8} {:>9} {:>6} {:>12} {:>12} {:>12}",
            name,
            actual_size,
            programs,
            if any_violation { "yes" } else { "no" },
            secs(bidi_total),
            secs(fwd_total),
            secs(pds_total)
        );
    }
    println!();
    println!("paper (2.0 GHz Core Duo): VixieCron .52/.57, At .52/.62, Sendmail 2.3/5.1, Apache .6/.7 (BANSHEE/MOPS seconds)");
}
