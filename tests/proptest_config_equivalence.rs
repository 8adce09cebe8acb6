//! Property test: the §8 solver optimization (cycle elimination) must be
//! *semantics-preserving*. Random constraint systems — with cycles,
//! constructors, and projections — are solved with it on and off, and
//! every observable query result must equal the model's naive reference.

mod model;

use model::{arb_cons, signature, Machine, RandCon};
use rasc::constraints::SolverConfig;
use rasc_devtools::{forall, prop_assert_eq, Config};

#[test]
fn optimizations_preserve_all_query_results() {
    forall(
        "optimizations_preserve_all_query_results",
        Config::cases(96),
        |rng| arb_cons(rng, 1, 28),
        |cons| {
            let m = Machine::odd_a_then_b();
            let want = m.reference(cons);
            for cycle_elimination in [true, false] {
                let config = SolverConfig { cycle_elimination };
                let mut sys = m.build(config, cons);
                prop_assert_eq!(
                    &signature(&mut sys),
                    &want,
                    "config {config:?} diverged from the reference"
                );
            }
            Ok(())
        },
    );
}

#[test]
fn solve_is_idempotent_and_monotone() {
    forall(
        "solve_is_idempotent_and_monotone",
        Config::cases(96),
        |rng| arb_cons(rng, 1, 20),
        |cons| {
            // Adding the same constraints twice and re-solving must not change
            // any observable result (the solver is a closure operator).
            let m = Machine::odd_a_then_b();
            let want = m.reference(cons);
            let mut once = m.build(SolverConfig::default(), cons);
            prop_assert_eq!(&signature(&mut once), &want, "solved once");
            let doubled: Vec<RandCon> = cons.iter().chain(cons).cloned().collect();
            prop_assert_eq!(
                &m.reference(&doubled),
                &want,
                "the reference is not a closure"
            );
            let mut twice = m.build(SolverConfig::default(), &doubled);
            prop_assert_eq!(&signature(&mut twice), &want, "solved twice");
            Ok(())
        },
    );
}
