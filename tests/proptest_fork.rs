//! Property tests for copy-on-write forks ([`System::fork`] over a frozen
//! [`rasc::constraints::BaseSystem`]):
//!
//! * **Fork equals restore equals replay** — a system forked from a
//!   frozen base must answer every observable query (occurrence
//!   annotations, emptiness, acceptance, partial matches, consistency)
//!   exactly like the original, and must re-serialize to byte-identical
//!   snapshot output (pinning provenance records and solved-form layout
//!   under the base/overlay split). Growing the fork converges to the
//!   same fixpoint as replaying everything from scratch.
//! * **Forks are isolated** — growth in one fork is invisible to sibling
//!   forks of the same base.
//! * **Epoch rollback on a fork returns to the base fixpoint** — epochs
//!   opened post-fork journal only overlay entries, so `pop_epoch`
//!   restores the shared base's observables exactly, and the obs
//!   counters a recorder collects over the fork's lifetime net out to
//!   zero (nothing of the shared base is ever "removed").
//!
//! Generators mirror the snapshot fault suite: random constraints over a
//! small fixed shape, compared through sorted semantic signatures.

use std::sync::Arc;

use rasc::automata::{Alphabet, Dfa, SymbolId};
use rasc::constraints::algebra::{Algebra, MonoidAlgebra};
use rasc::constraints::{BaseSystem, ConsId, SetExpr, System, VarId, Variance};
use rasc::obs::{scoped, Recorder};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, Rng};

const N_VARS: usize = 6;

#[derive(Debug, Clone)]
enum RandCon {
    Edge(usize, usize, Option<u8>),
    Const(usize, Option<u8>),
    Wrap(usize, usize), // o(v1) ⊆ v2
    Proj(usize, usize), // o⁻¹(v1) ⊆ v2
    Sink(usize, usize), // v1 ⊆ o(v2)
}

fn arb_sym(rng: &mut Rng) -> Option<u8> {
    if rng.gen_bool(0.5) {
        Some(rng.gen_range(0..2) as u8)
    } else {
        None
    }
}

fn arb_con(rng: &mut Rng) -> RandCon {
    let v = |rng: &mut Rng| rng.gen_range(0..N_VARS);
    match rng.gen_range(0..12) {
        0..=4 => {
            let (a, b) = (v(rng), v(rng));
            let s = arb_sym(rng);
            RandCon::Edge(a, b, s)
        }
        5 | 6 => {
            let a = v(rng);
            let s = arb_sym(rng);
            RandCon::Const(a, s)
        }
        7 | 8 => RandCon::Wrap(v(rng), v(rng)),
        9 | 10 => RandCon::Proj(v(rng), v(rng)),
        _ => RandCon::Sink(v(rng), v(rng)),
    }
}

fn arb_cons(rng: &mut Rng, lo: usize, hi: usize) -> Vec<RandCon> {
    (0..rng.gen_range(lo..hi)).map(|_| arb_con(rng)).collect()
}

fn machine() -> (Alphabet, Dfa) {
    // Odd number of `a`, ending in `b` — 4-state minimal machine.
    let sigma = Alphabet::from_names(["a", "b"]);
    let re = rasc::automata::Regex::parse("b* a (b | a b* a)* b+", &sigma).unwrap();
    let dfa = re.compile(&sigma);
    (sigma, dfa)
}

struct Shape {
    vars: Vec<VarId>,
    probe: ConsId,
    o: ConsId,
}

fn declare(sys: &mut System<MonoidAlgebra>) -> Shape {
    let vars = (0..N_VARS).map(|i| sys.var(&format!("v{i}"))).collect();
    let probe = sys.constructor("probe", &[]);
    let o = sys.constructor("o", &[Variance::Covariant]);
    Shape { vars, probe, o }
}

/// The same dense ids `declare` handed out, for querying forks (which,
/// like restores, are addressed by id rather than re-declared names).
fn dense_shape() -> Shape {
    Shape {
        vars: (0..N_VARS).map(VarId::from_index).collect(),
        probe: ConsId::from_index(0),
        o: ConsId::from_index(1),
    }
}

/// Adds one random constraint directly to a system (no solve).
fn apply(sys: &mut System<MonoidAlgebra>, shape: &Shape, syms: &[SymbolId], c: &RandCon) {
    let ann = |sys: &mut System<MonoidAlgebra>, s: &Option<u8>| match s {
        Some(i) => sys.algebra_mut().word(&[syms[*i as usize]]),
        None => sys.algebra().identity(),
    };
    match *c {
        RandCon::Edge(a, b, ref s) => {
            let w = ann(sys, s);
            sys.add_ann(SetExpr::var(shape.vars[a]), SetExpr::var(shape.vars[b]), w)
                .unwrap();
        }
        RandCon::Const(v, ref s) => {
            let w = ann(sys, s);
            sys.add_ann(
                SetExpr::cons(shape.probe, []),
                SetExpr::var(shape.vars[v]),
                w,
            )
            .unwrap();
        }
        RandCon::Wrap(a, b) => {
            sys.add(
                SetExpr::cons_vars(shape.o, [shape.vars[a]]),
                SetExpr::var(shape.vars[b]),
            )
            .unwrap();
        }
        RandCon::Proj(a, b) => {
            sys.add(
                SetExpr::proj(shape.o, 0, shape.vars[a]),
                SetExpr::var(shape.vars[b]),
            )
            .unwrap();
        }
        RandCon::Sink(a, b) => {
            sys.add(
                SetExpr::var(shape.vars[a]),
                SetExpr::cons_vars(shape.o, [shape.vars[b]]),
            )
            .unwrap();
        }
    }
}

/// Per-variable semantic observation: sorted probe occurrence annotations
/// (rendered), emptiness, `o`-acceptance, partially matched occurrences —
/// plus global consistency.
type Signature = (Vec<(Vec<String>, bool, bool, Vec<String>)>, bool);

fn system_signature(sys: &mut System<MonoidAlgebra>, shape: &Shape) -> Signature {
    let per_var = shape
        .vars
        .iter()
        .map(|&v| {
            let mut occ: Vec<String> = sys
                .occurrence_annotations(v, shape.probe)
                .into_iter()
                .map(|a| sys.algebra().describe(a))
                .collect();
            occ.sort();
            let nonempty = sys.nonempty(v);
            let o_reaches = sys.occurs_accepting(v, shape.o);
            let mut pn: Vec<String> = sys
                .pn_occurrence_annotations(v, shape.probe)
                .into_iter()
                .map(|a| sys.algebra().describe(a))
                .collect();
            pn.sort();
            (occ, nonempty, o_reaches, pn)
        })
        .collect();
    (per_var, sys.is_consistent())
}

/// Builds a solved system (with provenance recording, as the batch
/// engine always has it) from a constraint list.
fn build(dfa: &Dfa, syms: &[SymbolId], cons: &[RandCon]) -> (System<MonoidAlgebra>, Shape) {
    let mut sys = System::new(MonoidAlgebra::new(dfa));
    sys.enable_provenance();
    let shape = declare(&mut sys);
    for c in cons {
        apply(&mut sys, &shape, syms, c);
    }
    sys.solve();
    (sys, shape)
}

/// Freezes a built system into a fork base, keeping its snapshot bytes
/// and solved-form signature for later comparison.
fn frozen(
    dfa: &Dfa,
    syms: &[SymbolId],
    cons: &[RandCon],
) -> (BaseSystem<MonoidAlgebra>, Vec<u8>, Signature) {
    let (mut original, shape) = build(dfa, syms, cons);
    let want = system_signature(&mut original, &shape);
    let bytes = original.snapshot_bytes().expect("solved system snapshots");
    let base = original.into_base().expect("solved system freezes");
    (base, bytes, want)
}

#[test]
fn fork_equals_restore_and_replay_on_the_full_query_surface() {
    forall(
        "fork_equals_restore_and_replay_on_the_full_query_surface",
        Config::cases(64),
        |rng| (arb_cons(rng, 1, 24), arb_cons(rng, 0, 8)),
        |(cons, extra)| {
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();
            let (base, bytes, want) = frozen(&dfa, &syms, cons);
            let shape = dense_shape();

            // A fork answers the whole query surface like the original…
            let mut fork = System::fork(&base);
            let got = system_signature(&mut fork, &shape);
            prop_assert_eq!(&got, &want, "fork diverged from the frozen base");
            prop_assert_eq!(
                fork.stats(),
                base.stats(),
                "fork statistics diverged from the base"
            );

            // …and like a system restored from the base's snapshot.
            let mut restored = System::<MonoidAlgebra>::restore_bytes(&bytes)
                .expect("round trip of a valid snapshot");
            prop_assert_eq!(
                &system_signature(&mut restored, &shape),
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
            // same fixpoint as an uninterrupted replay of everything…
            for c in extra {
                apply(&mut fork, &shape, &syms, c);
            }
            fork.solve();
            let grown = system_signature(&mut fork, &shape);
            let all: Vec<RandCon> = cons.iter().chain(extra).cloned().collect();
            let (mut replay, shape_p) = build(&dfa, &syms, &all);
            let want_grown = system_signature(&mut replay, &shape_p);
            prop_assert_eq!(&grown, &want_grown, "post-fork growth diverged from replay");

            // …while sibling forks of the same base never see that
            // growth: copy-on-write isolation.
            let mut sibling = System::fork(&base);
            prop_assert_eq!(
                &system_signature(&mut sibling, &shape),
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
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();
            let (base, _bytes, want) = frozen(&dfa, &syms, cons);
            let shape = dense_shape();
            let base_stats = base.stats();

            // A recorder installed for the fork's whole lifetime sees
            // every mutation the fork performs — and must see the epoch's
            // additions and its rollback cancel exactly, because nothing
            // the shared base owns is ever journaled or removed.
            let rec = Arc::new(Recorder::new());
            scoped(Arc::clone(&rec) as _, || {
                let mut fork = System::fork(&base);
                fork.push_epoch();
                for c in extra {
                    apply(&mut fork, &shape, &syms, c);
                }
                fork.solve();
                prop_assert!(fork.pop_epoch(), "the pushed epoch must pop");

                let got = system_signature(&mut fork, &shape);
                prop_assert_eq!(
                    &got,
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

                for (added, removed) in [
                    ("solver.edges.added", "solver.edges.removed"),
                    ("solver.lbs.added", "solver.lbs.removed"),
                    ("solver.ubs.added", "solver.ubs.removed"),
                    ("solver.facts", "solver.facts.rolled_back"),
                    ("solver.fuel", "solver.fuel.rolled_back"),
                ] {
                    prop_assert_eq!(
                        i128::from(rec.counter_value(added)),
                        i128::from(rec.counter_value(removed)),
                        "`{added}` and `{removed}` must cancel after a fork's rollback"
                    );
                }
                Ok(())
            })
        },
    );
}
