//! Fault-injection property tests for the resource governor:
//!
//! * **Resume equals uninterrupted** — interrupting a bounded solve at an
//!   arbitrary worklist step (via either [`FaultPlan`] mechanism: fuel
//!   or deadline) and then resuming must converge to exactly
//!   the observable fixpoint of an uninterrupted solve.
//! * **Rollback restores every observable query** — interrupting the
//!   solve of an epoch's constraints and popping the epoch must restore
//!   every observable query result and the solver statistics, and the
//!   system must remain fully usable afterwards.
//!
//! Observables are compared through the model's signatures (sorted
//! annotation renderings, emptiness, acceptance, consistency), never
//! through hash-map iteration order, and every fixpoint is also checked
//! against the model's naive reference.

mod model;

use model::{arb_cons, signature, Machine, RandCon};
use rasc::constraints::{Budget, Outcome, SolverConfig};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, FaultPlan};

#[test]
fn resume_equals_uninterrupted() {
    forall(
        "resume_equals_uninterrupted",
        Config::cases(96),
        |rng| {
            let cons = arb_cons(rng, 1, 24);
            let plans: Vec<FaultPlan> = (0..rng.gen_range(1..5))
                .map(|_| FaultPlan::arbitrary(rng, 40))
                .collect();
            (cons, plans)
        },
        |(cons, plans)| {
            let m = Machine::odd_a_then_b();
            let want = m.reference(cons);

            // Uninterrupted fixpoint.
            let mut uninterrupted = m.build(SolverConfig::default(), cons);
            prop_assert_eq!(&signature(&mut uninterrupted), &want, "uninterrupted");

            // Same constraints, but every solve attempt is sabotaged by a
            // fault plan before an unlimited resume finishes the job.
            let mut sys = m.system(SolverConfig::default());
            for c in cons {
                m.apply(&mut sys, c);
            }
            for plan in plans {
                match sys.solve_bounded(&plan.budget()) {
                    Outcome::Complete => break,
                    Outcome::Interrupted(_) => {
                        // The interrupting fact stays queued for resume.
                        prop_assert!(
                            sys.pending_facts() > 0,
                            "interrupt left no pending work ({plan:?})"
                        );
                    }
                }
            }
            prop_assert!(sys.solve_bounded(&Budget::unlimited()).is_complete());
            prop_assert_eq!(sys.pending_facts(), 0);
            prop_assert_eq!(
                &signature(&mut sys),
                &want,
                "resumed fixpoint diverged from uninterrupted"
            );
            Ok(())
        },
    );
}

#[test]
fn rollback_after_interrupt_restores_all_observables() {
    forall(
        "rollback_after_interrupt_restores_all_observables",
        Config::cases(96),
        |rng| {
            (
                arb_cons(rng, 0, 12),
                arb_cons(rng, 1, 8),
                FaultPlan::arbitrary(rng, 20),
            )
        },
        |(base, extra, plan)| {
            let m = Machine::odd_a_then_b();
            let mut sys = m.system(SolverConfig::default());
            for c in base {
                m.apply(&mut sys, c);
                sys.solve();
            }
            let before = m.reference(base);
            prop_assert_eq!(&signature(&mut sys), &before, "base");
            // The algebra's hash-cons table is a monotone memo and is
            // deliberately not rolled back.
            let mut before_stats = sys.stats();
            before_stats.annotations = 0;

            sys.push_epoch();
            for c in extra {
                m.apply(&mut sys, c);
            }
            let outcome = sys.solve_bounded(&plan.budget());
            // Whether or not the fault tripped, abandoning the epoch must
            // restore the pre-epoch state (pending facts included).
            prop_assert!(sys.pop_epoch());
            prop_assert_eq!(sys.pending_facts(), 0);

            prop_assert_eq!(
                &signature(&mut sys),
                &before,
                "rollback after {outcome:?} changed an observable"
            );
            let mut after_stats = sys.stats();
            after_stats.annotations = 0;
            prop_assert_eq!(&after_stats, &before_stats, "rollback changed stats");

            // The system stays usable: re-adding the epoch's constraints
            // now reaches the same fixpoint as a fresh batch solve.
            for c in extra {
                m.apply(&mut sys, c);
            }
            sys.solve();
            let all: Vec<RandCon> = base.iter().chain(extra).cloned().collect();
            let want = m.reference(&all);
            prop_assert_eq!(
                &signature(&mut sys),
                &want,
                "post-rollback session diverged"
            );
            let mut batch = m.build(SolverConfig::default(), &all);
            prop_assert_eq!(&signature(&mut batch), &want, "batch");
            Ok(())
        },
    );
}
