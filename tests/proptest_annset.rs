//! Property test: the entry-log storage inside the solver (each category's
//! log, with a membership set past the log-only tier) and its cycle
//! collapsing are pure representation — solved forms must be *identical* to
//! those of the model's naive reference solver (chaotic iteration over
//! flat `BTreeSet`s of facts, no indexes, no cycle elimination), on random
//! constraint systems, under both property machines, and must stay
//! identical across `push_epoch`/`pop_epoch` rollback.
//!
//! The comparison covers the model's whole signature — lower bounds,
//! consistency, emptiness, occurrence annotations, acceptance (from the
//! class scan and from the first-accepting-path search the served `occurs`
//! query runs), PN occurrence annotations and constructor annotations —
//! for a solve run straight through and for one that a budget interrupts
//! every few steps.

mod model;

use model::{arb_cons, signature, Machine, RandCon};
use rasc::constraints::algebra::MonoidAlgebra;
use rasc::constraints::{Budget, SolverConfig, System};
use rasc_devtools::{forall, prop_assert_eq, Config};

/// Solves to the fixpoint, in one go or (with `steps`) under a budget of
/// that many steps at a time, resuming until complete.
fn solve(sys: &mut System<MonoidAlgebra>, steps: Option<u64>) {
    match steps {
        None => sys.solve(),
        Some(n) => {
            let budget = Budget::unlimited().with_steps(n);
            while !sys.solve_bounded(&budget).is_complete() {}
        }
    }
}

#[test]
fn indexed_storage_matches_naive_reference_across_rollback() {
    forall(
        "indexed_storage_matches_naive_reference_across_rollback",
        Config::cases(96),
        |rng| {
            let step = rng.gen_range(0..7) as u8;
            (arb_cons(rng, 1, 18), arb_cons(rng, 1, 12), step)
        },
        |(base, extra, step)| {
            for m in Machine::all() {
                let all: Vec<RandCon> = base.iter().chain(extra).cloned().collect();
                let base_ref = m.reference(base);
                let all_ref = m.reference(&all);

                // Once solved straight through, once interrupted every 1–7
                // steps and resumed to completion.
                for steps in [None, Some(u64::from(step % 7) + 1)] {
                    let mut sys = m.system(SolverConfig::default());
                    for c in base {
                        m.apply(&mut sys, c);
                    }
                    solve(&mut sys, steps);
                    prop_assert_eq!(
                        &signature(&mut sys),
                        &base_ref,
                        "indexed solver diverged from naive reference on the base system \
                         (steps {steps:?})"
                    );

                    // Extend inside an epoch: still must match the
                    // reference on the concatenated constraint list.
                    sys.push_epoch();
                    for c in extra {
                        m.apply(&mut sys, c);
                    }
                    solve(&mut sys, steps);
                    prop_assert_eq!(
                        &signature(&mut sys),
                        &all_ref,
                        "indexed solver diverged from naive reference inside the epoch \
                         (steps {steps:?})"
                    );

                    // Rollback must restore exactly the base solved form.
                    sys.pop_epoch();
                    prop_assert_eq!(
                        &signature(&mut sys),
                        &base_ref,
                        "rollback did not restore the base solved form (steps {steps:?})"
                    );

                    // And the rolled-back system must stay fully usable:
                    // re-adding the same increment re-derives the same
                    // fixpoint.
                    for c in extra {
                        m.apply(&mut sys, c);
                    }
                    solve(&mut sys, steps);
                    prop_assert_eq!(
                        &signature(&mut sys),
                        &all_ref,
                        "re-adding the increment after rollback diverged (steps {steps:?})"
                    );
                }
            }
            Ok(())
        },
    );
}
