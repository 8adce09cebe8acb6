//! Property tests for incremental solving on [`System`]:
//!
//! * **Equivalence** — adding random constraints one at a time to a
//!   [`System`] (re-draining the worklist with `solve` after each) must
//!   yield exactly the observable results of a fresh batch solve of the
//!   same system, under every §8 optimization configuration.
//! * **Rollback** — `push_epoch` / add random constraints / `pop_epoch`
//!   must restore every observable query result and the solver statistics
//!   bit-for-bit.

use rasc::automata::{Alphabet, Dfa, SymbolId};
use rasc::constraints::algebra::{Algebra, MonoidAlgebra};
use rasc::constraints::{ConsId, SetExpr, SolverConfig, System, VarId, Variance};
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

/// Per-variable observation of a solved system: sorted probe occurrence
/// annotations (rendered), emptiness, `o`-acceptance, and partially
/// matched occurrences — plus global consistency.
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
fn incremental_session_matches_fresh_batch_solve() {
    forall(
        "incremental_session_matches_fresh_batch_solve",
        Config::cases(96),
        |rng| arb_cons(rng, 1, 24),
        |cons| {
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();
            for cycle_elimination in [true, false] {
                let config = SolverConfig { cycle_elimination };
                // Batch: add everything, solve once.
                let mut batch = System::with_config(MonoidAlgebra::new(&dfa), config);
                let shape = declare(&mut batch);
                for c in cons {
                    apply(&mut batch, &shape, &syms, c);
                }
                batch.solve();
                let want = system_signature(&mut batch, &shape);

                // Incremental: one constraint per add, each `solve`
                // re-draining the worklist before the next.
                let mut sys = System::with_config(MonoidAlgebra::new(&dfa), config);
                let shape_s = declare(&mut sys);
                for c in cons {
                    apply(&mut sys, &shape_s, &syms, c);
                    sys.solve();
                }
                let got = system_signature(&mut sys, &shape_s);
                prop_assert_eq!(&got, &want, "config {config:?} diverged incrementally");

                // Asking again answers identically.
                let again = system_signature(&mut sys, &shape_s);
                prop_assert_eq!(&again, &want, "repeated answers diverged");
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
            // deliberately not rolled back (ids are canonical by content),
            // so its size is not part of the restored-state contract.
            let mut before_stats = sys.stats();
            before_stats.annotations = 0;

            sys.push_epoch();
            for c in extra {
                apply(&mut sys, &shape, &syms, c);
                sys.solve();
            }
            // Mid-epoch queries must leave nothing behind after rollback.
            let _ = system_signature(&mut sys, &shape);
            prop_assert_eq!(sys.epoch_depth(), 1);
            prop_assert!(sys.pop_epoch());

            let after = system_signature(&mut sys, &shape);
            prop_assert_eq!(&after, &before, "rollback changed an observable");
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
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();
            let mut sys = System::new(MonoidAlgebra::new(&dfa));
            let shape = declare(&mut sys);
            for c in base {
                apply(&mut sys, &shape, &syms, c);
                sys.solve();
            }
            let sig_base = system_signature(&mut sys, &shape);

            sys.push_epoch();
            for c in mid {
                apply(&mut sys, &shape, &syms, c);
                sys.solve();
            }
            let sig_mid = system_signature(&mut sys, &shape);

            sys.push_epoch();
            for c in top {
                apply(&mut sys, &shape, &syms, c);
                sys.solve();
            }
            prop_assert_eq!(sys.epoch_depth(), 2);

            prop_assert!(sys.pop_epoch());
            let back_mid = system_signature(&mut sys, &shape);
            prop_assert_eq!(&back_mid, &sig_mid, "inner rollback");

            prop_assert!(sys.pop_epoch());
            let back_base = system_signature(&mut sys, &shape);
            prop_assert_eq!(&back_base, &sig_base, "outer rollback");
            prop_assert!(!sys.pop_epoch(), "no epoch left");
            Ok(())
        },
    );
}
