//! Property tests for incremental solving on [`System`]:
//!
//! * **Equivalence** — adding random constraints one at a time to a
//!   [`System`] (re-draining the worklist with `solve` after each) must
//!   yield exactly the observable results of a fresh batch solve of the
//!   same system, under every §8 optimization configuration, and both
//!   must equal the model's naive reference.
//! * **Rollback** — `push_epoch` / add random constraints / `pop_epoch`
//!   must restore every observable query result and the solver statistics
//!   bit-for-bit.

mod model;

use model::{arb_cons, signature, Machine, RandCon};
use rasc::constraints::algebra::MonoidAlgebra;
use rasc::constraints::{SolverConfig, System};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config};

/// Adds `cons` one at a time, solving after each.
fn grow(m: &Machine, sys: &mut System<MonoidAlgebra>, cons: &[RandCon]) {
    for c in cons {
        m.apply(sys, c);
        sys.solve();
    }
}

#[test]
fn incremental_session_matches_fresh_batch_solve() {
    forall(
        "incremental_session_matches_fresh_batch_solve",
        Config::cases(96),
        |rng| arb_cons(rng, 1, 24),
        |cons| {
            let m = Machine::odd_a_then_b();
            let want = m.reference(cons);
            for cycle_elimination in [true, false] {
                let config = SolverConfig { cycle_elimination };
                // Batch: add everything, solve once.
                let mut batch = m.build(config, cons);
                prop_assert_eq!(&signature(&mut batch), &want, "config {config:?} batch");

                // Incremental: one constraint per add, each `solve`
                // re-draining the worklist before the next.
                let mut sys = m.system(config);
                grow(&m, &mut sys, cons);
                prop_assert_eq!(
                    &signature(&mut sys),
                    &want,
                    "config {config:?} diverged incrementally"
                );

                // Asking again answers identically.
                prop_assert_eq!(&signature(&mut sys), &want, "repeated answers diverged");
            }
            Ok(())
        },
    );
}

#[test]
fn pop_epoch_restores_all_observables() {
    forall(
        "pop_epoch_restores_all_observables",
        Config::cases(96),
        |rng| (arb_cons(rng, 0, 12), arb_cons(rng, 1, 8)),
        |(base, extra)| {
            let m = Machine::odd_a_then_b();
            let want = m.reference(base);
            let mut sys = m.system(SolverConfig::default());
            grow(&m, &mut sys, base);
            prop_assert_eq!(&signature(&mut sys), &want, "base");
            // The algebra's hash-cons table is a monotone memo and is
            // deliberately not rolled back (ids are canonical by content),
            // so its size is not part of the restored-state contract.
            let mut before_stats = sys.stats();
            before_stats.annotations = 0;

            sys.push_epoch();
            grow(&m, &mut sys, extra);
            // Mid-epoch queries must leave nothing behind after rollback.
            let all: Vec<RandCon> = base.iter().chain(extra).cloned().collect();
            prop_assert_eq!(&signature(&mut sys), &m.reference(&all), "inside the epoch");
            prop_assert_eq!(sys.epoch_depth(), 1);
            prop_assert!(sys.pop_epoch());

            prop_assert_eq!(
                &signature(&mut sys),
                &want,
                "rollback changed an observable"
            );
            let mut after_stats = sys.stats();
            after_stats.annotations = 0;
            prop_assert_eq!(after_stats, before_stats, "rollback changed stats");
            prop_assert_eq!(sys.epoch_depth(), 0);
            Ok(())
        },
    );
}

#[test]
fn nested_epochs_unwind_in_order() {
    forall(
        "nested_epochs_unwind_in_order",
        Config::cases(64),
        |rng| {
            (
                arb_cons(rng, 0, 8),
                arb_cons(rng, 1, 6),
                arb_cons(rng, 1, 6),
            )
        },
        |(base, mid, top)| {
            let m = Machine::odd_a_then_b();
            let mut live: Vec<RandCon> = base.clone();
            let want_base = m.reference(&live);
            let mut sys = m.system(SolverConfig::default());
            grow(&m, &mut sys, base);
            prop_assert_eq!(&signature(&mut sys), &want_base, "base");

            sys.push_epoch();
            grow(&m, &mut sys, mid);
            live.extend(mid.iter().cloned());
            let want_mid = m.reference(&live);
            prop_assert_eq!(&signature(&mut sys), &want_mid, "mid");

            sys.push_epoch();
            grow(&m, &mut sys, top);
            live.extend(top.iter().cloned());
            prop_assert_eq!(&signature(&mut sys), &m.reference(&live), "top");
            prop_assert_eq!(sys.epoch_depth(), 2);

            prop_assert!(sys.pop_epoch());
            prop_assert_eq!(&signature(&mut sys), &want_mid, "inner rollback");

            prop_assert!(sys.pop_epoch());
            prop_assert_eq!(&signature(&mut sys), &want_base, "outer rollback");
            prop_assert!(!sys.pop_epoch(), "no epoch left");
            Ok(())
        },
    );
}
