//! Property tests for copy-on-write forks ([`System::fork`] over a frozen
//! [`rasc::constraints::BaseSystem`]):
//!
//! * **Fork equals restore equals replay** — a system forked from a
//!   frozen base must answer every observable query exactly like the
//!   original and the model's naive reference, and must re-serialize to
//!   byte-identical snapshot output (pinning provenance records and
//!   solved-form layout under the base/overlay split). Growing the fork
//!   converges to the reference's fixpoint for everything added.
//! * **Forks are isolated** — growth in one fork is invisible to sibling
//!   forks of the same base.
//! * **Epoch rollback on a fork returns to the base fixpoint** — epochs
//!   opened post-fork journal only overlay entries, so `pop_epoch`
//!   restores the shared base's observables exactly, and the obs
//!   counters a registry collects over the fork's lifetime net out to
//!   zero (nothing of the shared base is ever "removed").
//!
//! Forks, like restores, keep the model's dense ids and are read through
//! them.

mod model;

use std::sync::Arc;

use model::{arb_cons, signature, Machine, RandCon, Signature};
use rasc::constraints::algebra::MonoidAlgebra;
use rasc::constraints::{BaseSystem, SolverConfig, System};
use rasc::obs::{scoped, MetricsRegistry};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config};

/// Builds a solved system (with provenance recording, as the batch engine
/// always has it) from `cons`, checks it against the reference, and
/// freezes it into a fork base, keeping its snapshot bytes and signature
/// for later comparison.
fn frozen(
    m: &Machine,
    cons: &[RandCon],
) -> Result<(BaseSystem<MonoidAlgebra>, Vec<u8>, Signature), String> {
    let mut original = m.system(SolverConfig::default());
    original.enable_provenance();
    for c in cons {
        m.apply(&mut original, c);
    }
    original.solve();
    let want = m.reference(cons);
    prop_assert_eq!(&signature(&mut original), &want, "the frozen system");
    let bytes = original.snapshot_bytes().expect("solved system snapshots");
    let base = original.into_base().expect("solved system freezes");
    Ok((base, bytes, want))
}

#[test]
fn fork_equals_restore_and_replay_on_the_full_query_surface() {
    forall(
        "fork_equals_restore_and_replay_on_the_full_query_surface",
        Config::cases(64),
        |rng| (arb_cons(rng, 1, 24), arb_cons(rng, 0, 8)),
        |(cons, extra)| {
            let m = Machine::odd_a_then_b();
            let (base, bytes, want) = frozen(&m, cons)?;

            // A fork answers the whole query surface like the original…
            let mut fork = System::fork(&base);
            prop_assert_eq!(
                &signature(&mut fork),
                &want,
                "fork diverged from the frozen base"
            );
            prop_assert_eq!(
                fork.stats(),
                base.system().stats(),
                "fork statistics diverged from the base"
            );

            // …and like a system restored from the base's snapshot.
            let mut restored = System::<MonoidAlgebra>::restore_bytes(&bytes)
                .expect("round trip of a valid snapshot");
            prop_assert_eq!(
                &signature(&mut restored),
                &want,
                "restore diverged from the frozen base"
            );

            // Re-serializing the fork is byte-identical: the base/overlay
            // split, flatten order, and provenance records are all
            // invisible to the snapshot format.
            let again = fork.snapshot_bytes().expect("forked system snapshots");
            prop_assert_eq!(
                &again,
                &bytes,
                "forked system did not re-snapshot byte-identically"
            );

            // The fork keeps growing like any system, converging to the
            // same fixpoint as the reference for everything added…
            for c in extra {
                m.apply(&mut fork, c);
            }
            fork.solve();
            let all: Vec<RandCon> = cons.iter().chain(extra).cloned().collect();
            let want_grown = m.reference(&all);
            prop_assert_eq!(
                &signature(&mut fork),
                &want_grown,
                "post-fork growth diverged from the reference"
            );
            let mut replay = m.build(SolverConfig::default(), &all);
            prop_assert_eq!(&signature(&mut replay), &want_grown, "replay");

            // …while sibling forks of the same base never see that
            // growth: copy-on-write isolation.
            let mut sibling = System::fork(&base);
            prop_assert_eq!(
                &signature(&mut sibling),
                &want,
                "a sibling fork observed another fork's growth"
            );
            Ok(())
        },
    );
}

#[test]
fn fork_epoch_rollback_returns_to_the_base_fixpoint() {
    forall(
        "fork_epoch_rollback_returns_to_the_base_fixpoint",
        Config::cases(64),
        |rng| (arb_cons(rng, 1, 16), arb_cons(rng, 1, 8)),
        |(cons, extra)| {
            let m = Machine::odd_a_then_b();
            let (base, _bytes, want) = frozen(&m, cons)?;
            let base_stats = base.system().stats();
            let all: Vec<RandCon> = cons.iter().chain(extra).cloned().collect();

            // A registry installed for the fork's whole lifetime sees
            // every mutation the fork performs — and must see the epoch's
            // additions and its rollback cancel exactly, because nothing
            // the shared base owns is ever journaled or removed.
            let reg = Arc::new(MetricsRegistry::new());
            scoped(Arc::clone(&reg) as _, || {
                let mut fork = System::fork(&base);
                fork.push_epoch();
                for c in extra {
                    m.apply(&mut fork, c);
                }
                fork.solve();
                prop_assert_eq!(
                    &signature(&mut fork),
                    &m.reference(&all),
                    "inside the epoch"
                );
                prop_assert!(fork.pop_epoch(), "the pushed epoch must pop");

                prop_assert_eq!(
                    &signature(&mut fork),
                    &want,
                    "epoch rollback on a fork did not restore the base fixpoint"
                );
                let stats = fork.stats();
                prop_assert_eq!(stats.vars, base_stats.vars, "vars not rolled back");
                prop_assert_eq!(stats.edges, base_stats.edges, "edges not rolled back");
                prop_assert_eq!(
                    stats.lower_bounds,
                    base_stats.lower_bounds,
                    "lower bounds not rolled back"
                );
                prop_assert_eq!(
                    stats.upper_bounds,
                    base_stats.upper_bounds,
                    "upper bounds not rolled back"
                );
                prop_assert_eq!(
                    stats.constructors,
                    base_stats.constructors,
                    "constructors not rolled back"
                );

                let snap = reg.snapshot();
                let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
                for (added, removed) in [
                    ("solver.edges.added", "solver.edges.removed"),
                    ("solver.lbs.added", "solver.lbs.removed"),
                    ("solver.ubs.added", "solver.ubs.removed"),
                    ("solver.facts", "solver.facts.rolled_back"),
                    ("solver.fuel", "solver.fuel.rolled_back"),
                ] {
                    prop_assert_eq!(
                        counter(added),
                        counter(removed),
                        "`{added}` and `{removed}` must cancel after a fork's rollback"
                    );
                }
                Ok(())
            })
        },
    );
}
