//! Stateful property test: random scripts of adds, unbounded and bounded
//! solves, epoch pushes, pops and commits, snapshot round trips and
//! freeze→fork run against one provenance-enabled [`System`], which a
//! restore or a fork replaces as it goes. Each feature's own suite tests
//! it alone; this one covers how they interact — fork → push → pop,
//! interrupt → resume → restore, a commit under an open epoch, and so on.
//!
//! The model tracks the live constraint list: an add appends, a pop drops
//! its epoch's constraints, a commit keeps them. At every fixpoint (an
//! empty worklist) the system's signature must equal the naive
//! reference's for that list. A pop must also restore the statistics the
//! push saw. While an epoch is open or work is pending, a snapshot must be
//! refused with a typed state error (and the system is not frozen, which
//! would consume it).

mod model;

use model::{arb_cons, signature, Machine, RandCon};
use rasc::constraints::algebra::MonoidAlgebra;
use rasc::constraints::{Budget, SnapshotError, SolverConfig, SolverStats, System};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, Rng};

#[derive(Debug, Clone)]
enum Op {
    /// Adds one to four constraints.
    Add(Vec<RandCon>),
    Solve,
    /// A solve under a budget of this many steps; it may stop short.
    SolveBounded(u8),
    Push,
    Pop,
    Commit,
    /// Snapshot, then carry on with the system restored from the bytes.
    SnapshotRestore,
    /// Freeze into a base, then carry on with a fork of it.
    FreezeFork,
}

fn arb_op(rng: &mut Rng) -> Op {
    match rng.gen_range(0..18) {
        0..=5 => Op::Add(arb_cons(rng, 1, 5)),
        6 | 7 => Op::Solve,
        8 | 9 => Op::SolveBounded(rng.gen_range(1..8) as u8),
        10 | 11 => Op::Push,
        12 | 13 => Op::Pop,
        14 => Op::Commit,
        15 | 16 => Op::SnapshotRestore,
        _ => Op::FreezeFork,
    }
}

/// Statistics that an epoch pop restores: all but the algebra's hash-cons
/// table, a monotone memo that is deliberately not rolled back.
fn restorable(sys: &System<MonoidAlgebra>) -> SolverStats {
    let mut stats = sys.stats();
    stats.annotations = 0;
    stats
}

#[test]
fn random_scripts_match_the_reference_at_every_fixpoint() {
    forall(
        "random_scripts_match_the_reference_at_every_fixpoint",
        Config::cases(128),
        |rng| -> Vec<Op> { (0..rng.gen_range(1..32)).map(|_| arb_op(rng)).collect() },
        |script| {
            let m = Machine::odd_a_then_b();
            let mut sys = m.system(SolverConfig::default());
            sys.enable_provenance();
            let mut live: Vec<RandCon> = Vec::new();
            // Per open epoch: the live list's length and the statistics
            // at its push.
            let mut epochs: Vec<(usize, SolverStats)> = Vec::new();
            for (step, op) in script.iter().enumerate() {
                let quiescent = sys.pending_facts() == 0 && epochs.is_empty();
                match op {
                    Op::Add(cons) => {
                        for c in cons {
                            m.apply(&mut sys, c);
                        }
                        live.extend(cons.iter().cloned());
                    }
                    Op::Solve => sys.solve(),
                    Op::SolveBounded(n) => {
                        let _ = sys.solve_bounded(&Budget::unlimited().with_steps(u64::from(*n)));
                    }
                    Op::Push => {
                        sys.push_epoch();
                        epochs.push((live.len(), restorable(&sys)));
                    }
                    Op::Pop => {
                        prop_assert_eq!(sys.pop_epoch(), !epochs.is_empty(), "step {step}: pop");
                        if let Some((len, stats)) = epochs.pop() {
                            live.truncate(len);
                            prop_assert_eq!(&restorable(&sys), &stats, "step {step}: pop stats");
                        }
                    }
                    Op::Commit => {
                        let open = epochs.pop().is_some();
                        prop_assert_eq!(sys.commit_epoch(), open, "step {step}: commit");
                    }
                    Op::SnapshotRestore | Op::FreezeFork if !quiescent => {
                        let refused =
                            matches!(sys.snapshot_bytes(), Err(SnapshotError::State { .. }));
                        prop_assert!(
                            refused,
                            "step {step}: snapshot with work pending or an epoch open"
                        );
                    }
                    Op::SnapshotRestore => {
                        let bytes = sys.snapshot_bytes().expect("a quiescent system snapshots");
                        sys = System::restore_bytes(&bytes).expect("a fresh snapshot restores");
                        let again = sys.snapshot_bytes().expect("a restored system snapshots");
                        prop_assert_eq!(&again, &bytes, "step {step}: restore changed the image");
                    }
                    Op::FreezeFork => {
                        let bytes = sys.snapshot_bytes().expect("a quiescent system snapshots");
                        let base = sys.into_base().expect("a quiescent system freezes");
                        sys = System::fork(&base);
                        let again = sys.snapshot_bytes().expect("a fork snapshots");
                        prop_assert_eq!(&again, &bytes, "step {step}: fork changed the image");
                    }
                }
                prop_assert_eq!(sys.epoch_depth(), epochs.len(), "step {step}: epoch depth");
                prop_assert!(sys.provenance_enabled(), "step {step}: provenance lost");
                if sys.pending_facts() == 0 {
                    prop_assert_eq!(
                        &signature(&mut sys),
                        &m.reference(&live),
                        "step {step}: {op:?} left a fixpoint that diverges from the reference"
                    );
                }
            }
            Ok(())
        },
    );
}
