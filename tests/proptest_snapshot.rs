//! Fault-injection property tests for the snapshot subsystem:
//!
//! * **Restore equals replay** — serializing a solved system and
//!   restoring it must reproduce every observable query (occurrence
//!   annotations, emptiness, acceptance, partial matches, consistency),
//!   and the restored system must stay usable: adding more constraints
//!   converges to the same fixpoint as an uninterrupted solve.
//! * **Crash recovery is last-durable-or-typed-error** — for every IO
//!   fault the atomic write protocol can suffer (short write, ENOSPC,
//!   crash before/after rename, torn file, bit rot), recovery either
//!   yields exactly the last durable snapshot's observables or a clean
//!   typed [`SnapshotError`]. No panics, no silently divergent restores.
//! * **Hostile images are typed errors or usable systems** — the section
//!   checksum is FNV-1a, an integrity check that anyone who can write the
//!   file can recompute. An image with payload bytes replaced and its
//!   checksums recomputed either fails to restore as corrupt, or restores
//!   to a system that survives solving, queries and rollback.
//!
//! Observables are compared through the model's signatures (sorted
//! renderings, never hash order), and every fixpoint a test compares is
//! also checked against the model's naive reference. IO faults come from
//! the deterministic [`IoFaultPlan`] machinery in `rasc_devtools`, so
//! every failure replays bit-for-bit from a seed.

mod model;

use model::{arb_cons, signature, Machine, RandCon, Signature};
use rasc::constraints::algebra::MonoidAlgebra;
use rasc::constraints::snapshot::{read_snapshot_file, write_atomic, TAG_ALGEBRA, TAG_SOLVED};
use rasc::constraints::{Budget, SetExpr, SnapshotError, SolverConfig, System, VarId};
use rasc_devtools::{
    forall, prop_assert, prop_assert_eq, Config, FaultyWriter, IoFaultKind, IoFaultPlan, Rng,
};

/// A restored system keeps the model's dense ids, through which its
/// signature is read.
fn restored_signature(bytes: &[u8]) -> Result<Signature, SnapshotError> {
    let mut sys = System::<MonoidAlgebra>::restore_bytes(bytes)?;
    Ok(signature(&mut sys))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rasc-prop-snap-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn restore_equals_replay_on_the_full_query_surface() {
    forall(
        "restore_equals_replay_on_the_full_query_surface",
        Config::cases(64),
        |rng| (arb_cons(rng, 1, 24), arb_cons(rng, 0, 8)),
        |(cons, extra)| {
            let m = Machine::odd_a_then_b();
            let want = m.reference(cons);
            let mut original = m.build(SolverConfig::default(), cons);
            prop_assert_eq!(&signature(&mut original), &want, "the snapshotted system");
            let bytes = original.snapshot_bytes().expect("solved system snapshots");

            // Restore reproduces every observable...
            let mut restored = System::<MonoidAlgebra>::restore_bytes(&bytes)
                .expect("round trip of a valid snapshot");
            prop_assert_eq!(
                restored.num_vars(),
                original.num_vars(),
                "restored variable table diverged"
            );
            prop_assert_eq!(
                &signature(&mut restored),
                &want,
                "restore diverged from the snapshotted system"
            );

            // ...and serialization is deterministic: the restored system
            // re-snapshots to byte-identical output.
            let again = restored
                .snapshot_bytes()
                .expect("restored system snapshots");
            prop_assert_eq!(&again, &bytes, "snapshot bytes are not deterministic");

            // The restored system stays usable: growing it converges to
            // the same fixpoint as replaying everything from scratch.
            for c in extra {
                m.apply(&mut restored, c);
            }
            restored.solve();
            let all: Vec<RandCon> = cons.iter().chain(extra).cloned().collect();
            let want_grown = m.reference(&all);
            prop_assert_eq!(
                &signature(&mut restored),
                &want_grown,
                "post-restore growth diverged from the reference"
            );
            let mut replay = m.build(SolverConfig::default(), &all);
            prop_assert_eq!(&signature(&mut replay), &want_grown, "replay");
            Ok(())
        },
    );
}

#[test]
fn corrupted_snapshots_are_rejected_never_misrestored() {
    forall(
        "corrupted_snapshots_are_rejected_never_misrestored",
        Config::cases(64),
        |rng| {
            let cons = arb_cons(rng, 1, 16);
            let plans: Vec<IoFaultPlan> = (0..rng.gen_range(1..4))
                .map(|_| IoFaultPlan::arbitrary(rng, 4096))
                .collect();
            (cons, plans)
        },
        |(cons, plans)| {
            let m = Machine::odd_a_then_b();
            let original = m.build(SolverConfig::default(), cons);
            let bytes = original.snapshot_bytes().expect("solved system snapshots");
            let want = m.reference(cons);
            prop_assert_eq!(
                &restored_signature(&bytes).expect("pristine bytes restore"),
                &want,
                "pristine restore"
            );

            for plan in plans {
                let Some(mangled) = plan.corrupt(&bytes) else {
                    continue;
                };
                if mangled == *bytes {
                    continue; // truncation past the end is a no-op
                }
                // A torn or bit-rotted snapshot must surface as a typed
                // corruption error — or, if the checksums somehow still
                // pass, restore to exactly the original observables.
                // Silent divergence is the one forbidden outcome.
                match restored_signature(&mangled) {
                    Err(SnapshotError::Corrupt { .. }) => {}
                    Err(other) => {
                        prop_assert!(
                            false,
                            "corruption {plan:?} yielded non-corruption error {other:?}"
                        );
                    }
                    Ok(sig) => {
                        prop_assert_eq!(
                            &sig,
                            &want,
                            "corruption {plan:?} silently restored divergent state"
                        );
                    }
                }
            }
            Ok(())
        },
    );
}

#[test]
fn crash_recovery_yields_last_durable_snapshot_or_typed_error() {
    let dir = temp_dir("crash");
    forall(
        "crash_recovery_yields_last_durable_snapshot_or_typed_error",
        Config::cases(48),
        |rng| {
            (
                arb_cons(rng, 1, 12),
                arb_cons(rng, 1, 8),
                IoFaultPlan::arbitrary(rng, 4096),
            )
        },
        |(base, extra, plan)| {
            let m = Machine::odd_a_then_b();

            // The last durable snapshot: `base` constraints, written
            // atomically and fully fsynced.
            let old_sys = m.build(SolverConfig::default(), base);
            let old_bytes = old_sys.snapshot_bytes().expect("solved system snapshots");
            let want_old = m.reference(base);
            prop_assert_eq!(
                &restored_signature(&old_bytes).expect("durable bytes restore"),
                &want_old,
                "durable restore"
            );

            // The snapshot being written when the fault strikes.
            let all: Vec<RandCon> = base.iter().chain(extra).cloned().collect();
            let new_sys = m.build(SolverConfig::default(), &all);
            let new_bytes = new_sys.snapshot_bytes().expect("solved system snapshots");
            let want_new = m.reference(&all);
            prop_assert_eq!(
                &restored_signature(&new_bytes).expect("new bytes restore"),
                &want_new,
                "new restore"
            );

            let target = dir.join(format!("case-{:x}.snap", plan.at_byte));
            write_atomic(&target, &old_bytes).expect("seeding the durable snapshot");

            if plan.fails_write() {
                // The device fails mid-write: the writer must surface a
                // typed IO error and the durable snapshot on disk must
                // be untouched. (A fault offset past the snapshot's end
                // never fires — the write then simply completes.)
                let mut sink = FaultyWriter::new(Vec::new(), *plan);
                match new_sys.snapshot_to_writer(&mut sink) {
                    Err(SnapshotError::Io(_)) => {
                        prop_assert!(sink.tripped(), "Io error without the fault firing");
                    }
                    Err(other) => {
                        prop_assert!(false, "write fault surfaced as {other:?}, not Io");
                    }
                    Ok(_) => {
                        prop_assert!(
                            plan.at_byte >= new_bytes.len(),
                            "in-range write fault {plan:?} did not fail the snapshot"
                        );
                    }
                }
                let on_disk = read_snapshot_file(&target).expect("durable target readable");
                prop_assert_eq!(&on_disk, &old_bytes, "failed write touched the target");
                prop_assert_eq!(
                    &restored_signature(&on_disk).expect("durable bytes restore"),
                    &want_old,
                    "recovery after failed write lost the durable snapshot"
                );
            } else if let Some((target_state, tmp_state)) =
                plan.crash_state(Some(&old_bytes), &new_bytes)
            {
                // Crash around the rename: materialize exactly the
                // on-disk world the protocol can leave behind.
                match target_state {
                    Some(contents) => std::fs::write(&target, contents).unwrap(),
                    None => {
                        let _ = std::fs::remove_file(&target);
                    }
                }
                let tmp = target.with_extension("snap.tmp");
                match &tmp_state {
                    Some(contents) => std::fs::write(&tmp, contents).unwrap(),
                    None => {
                        let _ = std::fs::remove_file(&tmp);
                    }
                }

                // Recovery reads the target — never the tmp — and must
                // see exactly one of the two committed worlds.
                let recovered = read_snapshot_file(&target)
                    .expect("crash states always leave a readable target");
                let sig = restored_signature(&recovered)
                    .expect("crash states always leave a valid target");
                let expect = match plan.kind {
                    IoFaultKind::CrashBeforeRename => &want_old,
                    _ => &want_new,
                };
                prop_assert_eq!(&sig, expect, "crash recovery saw a third world ({plan:?})");

                // A stray tmp is either a complete new snapshot or torn;
                // restoring it must never panic or silently diverge.
                if let Some(stray) = tmp_state {
                    match restored_signature(&stray) {
                        Err(SnapshotError::Corrupt { .. }) => {}
                        Err(other) => {
                            prop_assert!(false, "stray tmp gave non-corruption error {other:?}");
                        }
                        Ok(sig) => prop_assert_eq!(
                            &sig,
                            &want_new,
                            "complete stray tmp diverged from the new snapshot"
                        ),
                    }
                }
            }

            let _ = std::fs::remove_file(&target);
            let _ = std::fs::remove_file(target.with_extension("snap.tmp"));
            Ok(())
        },
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One hostile edit of an image: one or two payload bytes of the `SOLV`
/// section (`true`) or the `ALGB` section (`false`) replaced, at offsets
/// taken modulo the payload's length.
type Edit = (bool, (u64, u8), Option<(u64, u8)>);

fn arb_edit(rng: &mut Rng) -> Edit {
    let byte = |rng: &mut Rng| (rng.next_u64(), rng.gen_range(0..256) as u8);
    let first = byte(rng);
    let second = rng.gen_bool(0.5).then(|| byte(rng));
    (rng.gen_bool(0.5), first, second)
}

/// FNV-1a 64, the container's section checksum.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Applies `edit` to a copy of `image` and recomputes the edited
/// section's checksum. The container is a 16-byte header, then per
/// section a 4-byte tag, the payload length and the checksum (8 bytes
/// each), and the payload.
fn reseal(image: &[u8], edit: &Edit) -> Vec<u8> {
    let mut out = image.to_vec();
    let tag = if edit.0 { TAG_SOLVED } else { TAG_ALGEBRA };
    let mut at = 16;
    loop {
        let len = u64::from_le_bytes(out[at + 4..at + 12].try_into().unwrap()) as usize;
        let payload = at + 20..at + 20 + len;
        if out[at..at + 4] == tag {
            for (pos, byte) in [Some(edit.1), edit.2].into_iter().flatten() {
                out[payload.start + (pos % len as u64) as usize] = byte;
            }
            let checksum = fnv1a64(&out[payload]);
            out[at + 12..at + 20].copy_from_slice(&checksum.to_le_bytes());
            return out;
        }
        at = payload.end;
    }
}

/// Drives a restored system the way a server would: closes an ε-ring
/// through every variable, solves under a step budget, reads the solved
/// form, then adds and solves inside an epoch and rolls it back.
fn exercise(sys: &mut System<MonoidAlgebra>) {
    let mut ring: Vec<VarId> = (0..sys.num_vars()).map(VarId::from_index).collect();
    ring.push(sys.var("ring"));
    for (i, &v) in ring.iter().enumerate() {
        let next = ring[(i + 1) % ring.len()];
        sys.add(SetExpr::var(v), SetExpr::var(next)).unwrap();
    }
    sys.solve_bounded(&Budget::unlimited().with_steps(20_000));
    let _ = sys.stats();
    let _ = sys.render_solved_form();
    for &v in &ring {
        let _ = sys.lower_bounds(v).count();
    }
    sys.push_epoch();
    let probe = sys.constructor("hostile-probe", &[]);
    sys.add(SetExpr::cons(probe, []), SetExpr::var(ring[0]))
        .unwrap();
    sys.solve_bounded(&Budget::unlimited().with_steps(20_000));
    let _ = sys.lower_bound_annotations(ring[ring.len() - 1], probe);
    sys.pop_epoch();
}

#[test]
fn resealed_hostile_images_are_corrupt_or_usable() {
    forall(
        "resealed_hostile_images_are_corrupt_or_usable",
        Config::cases(400),
        |rng| {
            let cons = arb_cons(rng, 1, 16);
            let edits: Vec<Edit> = (0..16).map(|_| arb_edit(rng)).collect();
            (cons, edits)
        },
        |(cons, edits)| {
            let original = Machine::odd_a_then_b().build(SolverConfig::default(), cons);
            let bytes = original.snapshot_bytes().expect("solved system snapshots");
            for edit in edits {
                match System::<MonoidAlgebra>::restore_bytes(&reseal(&bytes, edit)) {
                    Ok(mut sys) => exercise(&mut sys),
                    Err(SnapshotError::Corrupt { .. }) => {}
                    Err(other) => {
                        prop_assert!(false, "edit {edit:?} gave non-corruption error {other:?}");
                    }
                }
            }
            Ok(())
        },
    );
}
