//! Fault-injection property tests for the resource governor:
//!
//! * **Resume equals uninterrupted** — interrupting a bounded solve at an
//!   arbitrary worklist step (via any [`FaultPlan`] mechanism: fuel,
//!   deadline, cancellation) and then resuming must converge to exactly
//!   the observable fixpoint of an uninterrupted solve.
//! * **Rollback restores every observable query** — interrupting the
//!   solve of an epoch's constraints and popping the epoch must restore
//!   every observable query result and the solver statistics, and the
//!   system must remain fully usable afterwards.
//!
//! Observables are compared through *semantic* signatures (sorted
//! annotation renderings, emptiness, acceptance, consistency), never
//! through hash-map iteration order, so two independently built systems
//! can be compared.

use rasc::automata::{Alphabet, Dfa, SymbolId};
use rasc::constraints::algebra::{Algebra, MonoidAlgebra};
use rasc::constraints::{Budget, ConsId, Outcome, SetExpr, SolverConfig, System, VarId, Variance};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, FaultPlan, Rng};

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
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();

            // Uninterrupted reference fixpoint.
            let mut reference =
                System::with_config(MonoidAlgebra::new(&dfa), SolverConfig::default());
            let shape_r = declare(&mut reference);
            for c in cons {
                apply(&mut reference, &shape_r, &syms, c);
            }
            reference.solve();
            let want = system_signature(&mut reference, &shape_r);

            // Same constraints, but every solve attempt is sabotaged by a
            // fault plan before an unlimited resume finishes the job.
            let mut sys = System::with_config(MonoidAlgebra::new(&dfa), SolverConfig::default());
            let shape = declare(&mut sys);
            for c in cons {
                apply(&mut sys, &shape, &syms, c);
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

            let got = system_signature(&mut sys, &shape);
            prop_assert_eq!(&got, &want, "resumed fixpoint diverged from uninterrupted");
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
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();
            let mut sys = System::new(MonoidAlgebra::new(&dfa));
            let shape = declare(&mut sys);
            for c in base {
                apply(&mut sys, &shape, &syms, c);
                sys.solve();
            }
            let before = system_signature(&mut sys, &shape);
            // The algebra's hash-cons table is a monotone memo and is
            // deliberately not rolled back.
            let mut before_stats = sys.stats();
            before_stats.annotations = 0;

            sys.push_epoch();
            for c in extra {
                apply(&mut sys, &shape, &syms, c);
            }
            let outcome = sys.solve_bounded(&plan.budget());
            // Whether or not the fault tripped, abandoning the epoch must
            // restore the pre-epoch state (pending facts included).
            prop_assert!(sys.pop_epoch());
            prop_assert_eq!(sys.pending_facts(), 0);

            let after = system_signature(&mut sys, &shape);
            prop_assert_eq!(
                &after,
                &before,
                "rollback after {outcome:?} changed an observable"
            );
            let mut after_stats = sys.stats();
            after_stats.annotations = 0;
            prop_assert_eq!(&after_stats, &before_stats, "rollback changed stats");

            // The system stays usable: re-adding the epoch's constraints
            // now reaches the same fixpoint as a fresh batch solve.
            for c in extra {
                apply(&mut sys, &shape, &syms, c);
            }
            sys.solve();
            let resumed = system_signature(&mut sys, &shape);

            let mut batch = System::with_config(MonoidAlgebra::new(&dfa), SolverConfig::default());
            let shape_b = declare(&mut batch);
            for c in base.iter().chain(extra) {
                apply(&mut batch, &shape_b, &syms, c);
            }
            batch.solve();
            let want = system_signature(&mut batch, &shape_b);
            prop_assert_eq!(&resumed, &want, "post-rollback session diverged");
            Ok(())
        },
    );
}
