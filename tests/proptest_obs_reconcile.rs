//! Property test for the observability subsystem (`rasc-obs`): the
//! counters a [`MetricsRegistry`] aggregates must reconcile *exactly* with
//! the solver's own [`SolverStats`] — on the model's random systems, under
//! both cycle-elimination settings, at every solve boundary, and across
//! `push_epoch`/`pop_epoch` rollback.
//!
//! The solver batches hot-path counter deltas and flushes them when a
//! bounded solve returns and when an epoch pop finishes, as matched
//! added/removed (or …/rolled_back) pairs. So for a registry installed
//! for the system's whole lifetime, each *net* count must equal the
//! corresponding statistic: e.g. `solver.edges.added −
//! solver.edges.removed == stats().edges`, and `solver.facts −
//! solver.facts.rolled_back == stats().facts_processed`. Epoch events
//! must balance too: every push is eventually popped, committed, or
//! still open. And the registry tallies every completed solve span.

mod model;

use std::sync::Arc;

use model::{arb_cons, Machine};
use rasc::constraints::{Budget, SolverConfig, SolverStats};
use rasc::obs::{scoped, MetricsRegistry, MetricsSnapshot};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config};

/// Counter `name`'s value (0 when never emitted).
fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Every net registry count must equal its solver statistic. Called only
/// at flush boundaries (after an unbounded solve or a finished pop).
fn reconcile(reg: &MetricsRegistry, stats: &SolverStats, n_clashes: usize) -> Result<(), String> {
    let snap = reg.snapshot();
    let checks: [(&str, &str, usize); 9] = [
        ("solver.edges.added", "solver.edges.removed", stats.edges),
        ("solver.lbs.added", "solver.lbs.removed", stats.lower_bounds),
        ("solver.ubs.added", "solver.ubs.removed", stats.upper_bounds),
        (
            "solver.facts",
            "solver.facts.rolled_back",
            stats.facts_processed,
        ),
        ("solver.fuel", "solver.fuel.rolled_back", stats.fuel_spent),
        (
            "solver.cycles.collapsed",
            "solver.cycles.uncollapsed",
            stats.cycles_collapsed,
        ),
        ("solver.clashes", "solver.clashes.rolled_back", n_clashes),
        (
            "solver.interruptions",
            "solver.interruptions.rolled_back",
            stats.interruptions,
        ),
        (
            "solver.depth_limit_hits",
            "solver.depth_limit_hits.rolled_back",
            stats.depth_limit_hits,
        ),
    ];
    for (added, removed, want) in checks {
        prop_assert_eq!(
            i128::from(counter(&snap, added)) - i128::from(counter(&snap, removed)),
            want as i128,
            "`{added}` − `{removed}` must equal the solver statistic"
        );
    }
    Ok(())
}

#[test]
fn registry_counters_reconcile_with_solver_stats() {
    let m = Machine::odd_a_then_b();
    forall(
        "registry_counters_reconcile_with_solver_stats",
        Config::cases(64),
        |rng| arb_cons(rng, 1, 20),
        |cons| {
            for cycle_elimination in [true, false] {
                // The registry is installed before the system exists, so
                // it observes every mutation of the system's lifetime.
                let reg = Arc::new(MetricsRegistry::new());
                scoped(Arc::clone(&reg) as _, || {
                    let mut sys = m.system(SolverConfig { cycle_elimination });
                    let (first, second) = cons.split_at(cons.len() / 2);

                    for c in first {
                        m.apply(&mut sys, c);
                    }
                    sys.solve();
                    reconcile(&reg, &sys.stats(), sys.clashes().len())?;

                    // Speculative epoch: more constraints, a deliberately
                    // starved bounded solve (spends fuel, usually
                    // interrupts), a finishing solve — then roll it all
                    // back. The net counts must track every phase.
                    sys.push_epoch();
                    for c in second {
                        m.apply(&mut sys, c);
                    }
                    let _ = sys.solve_bounded(&Budget::unlimited().with_steps(2));
                    sys.solve();
                    reconcile(&reg, &sys.stats(), sys.clashes().len())?;

                    prop_assert!(sys.pop_epoch(), "epoch must pop");
                    reconcile(&reg, &sys.stats(), sys.clashes().len())?;

                    // Epoch events balance: every push was popped,
                    // committed, or is still open (none here).
                    let snap = reg.snapshot();
                    prop_assert_eq!(
                        counter(&snap, "solver.epochs.pushed"),
                        counter(&snap, "solver.epochs.popped")
                            + counter(&snap, "solver.epochs.committed")
                            + sys.epoch_depth() as u64,
                        "epoch push/pop/commit events must balance"
                    );
                    // At least the two unbounded solves above completed.
                    prop_assert!(
                        snap.spans.get("solver.solve").copied().unwrap_or(0) >= 2,
                        "solver.solve spans must be tallied"
                    );
                    Ok(())
                })?;
            }
            Ok(())
        },
    );
}
