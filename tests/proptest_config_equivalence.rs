//! Property test: the §8 solver optimization (cycle elimination) must be
//! *semantics-preserving*. Random constraint systems — with cycles,
//! constructors, and projections — are solved with it on and off, and
//! every observable query result must agree.

use rasc::automata::{Alphabet, Dfa, SymbolId};
use rasc::constraints::algebra::{Algebra, MonoidAlgebra};
use rasc::constraints::{ConsId, SetExpr, SolverConfig, System, VarId, Variance};
use rasc_devtools::{forall, prop_assert_eq, Config, Rng};

const N_VARS: usize = 8;

/// A random constraint in a small system: variable edges (possibly cyclic),
/// constructor sources, constructor sinks, and projections.
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

/// Weighted choice mirroring the original distribution 5:2:2:2:1.
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

fn arb_cons(rng: &mut Rng, max: usize) -> Vec<RandCon> {
    (0..rng.gen_range(1..max)).map(|_| arb_con(rng)).collect()
}

struct Built {
    sys: System<MonoidAlgebra>,
    vars: Vec<VarId>,
    probe: ConsId,
    o: ConsId,
}

fn build(machine: &Dfa, syms: &[SymbolId], cons: &[RandCon], config: SolverConfig) -> Built {
    let mut sys = System::with_config(MonoidAlgebra::new(machine), config);
    let vars: Vec<VarId> = (0..N_VARS).map(|i| sys.var(&format!("v{i}"))).collect();
    let probe = sys.constructor("probe", &[]);
    let o = sys.constructor("o", &[Variance::Covariant]);
    for c in cons {
        match *c {
            RandCon::Edge(a, b, s) => {
                let ann = match s {
                    Some(i) => sys.algebra_mut().word(&[syms[i as usize]]),
                    None => sys.algebra().identity(),
                };
                sys.add_ann(SetExpr::var(vars[a]), SetExpr::var(vars[b]), ann)
                    .unwrap();
            }
            RandCon::Const(v, s) => {
                let ann = match s {
                    Some(i) => sys.algebra_mut().word(&[syms[i as usize]]),
                    None => sys.algebra().identity(),
                };
                sys.add_ann(SetExpr::cons(probe, []), SetExpr::var(vars[v]), ann)
                    .unwrap();
            }
            RandCon::Wrap(a, b) => {
                sys.add(SetExpr::cons_vars(o, [vars[a]]), SetExpr::var(vars[b]))
                    .unwrap();
            }
            RandCon::Proj(a, b) => {
                sys.add(SetExpr::proj(o, 0, vars[a]), SetExpr::var(vars[b]))
                    .unwrap();
            }
            RandCon::Sink(a, b) => {
                sys.add(SetExpr::var(vars[a]), SetExpr::cons_vars(o, [vars[b]]))
                    .unwrap();
            }
        }
    }
    sys.solve();
    Built {
        sys,
        vars,
        probe,
        o,
    }
}

/// Per-variable observation: occurrence classes, top-level classes,
/// emptiness, and `o`-reachability.
type VarSignature = (Vec<String>, Vec<String>, bool, bool);

/// The observable signature of a solved system: per variable, the sorted
/// probe occurrence annotations (as rendered strings, stable across
/// algebra instances), plus emptiness and the probe's top-level classes.
fn signature(b: &mut Built) -> Vec<VarSignature> {
    let vars = b.vars.clone();
    vars.iter()
        .map(|&v| {
            let mut occ: Vec<String> = b
                .sys
                .occurrence_annotations(v, b.probe)
                .into_iter()
                .map(|a| b.sys.algebra().describe(a))
                .collect();
            occ.sort();
            let mut top: Vec<String> = b
                .sys
                .lower_bound_annotations(v, b.probe)
                .into_iter()
                .map(|a| b.sys.algebra().describe(a))
                .collect();
            top.sort();
            let nonempty = b.sys.nonempty(v);
            let o_reaches = b.sys.occurs_accepting(v, b.o);
            (occ, top, nonempty, o_reaches)
        })
        .collect()
}

fn machine() -> (Alphabet, Dfa) {
    // L = words with an odd number of `a` and ending in `b` — small but
    // nontrivial (4-state minimal machine).
    let sigma = Alphabet::from_names(["a", "b"]);
    let re = rasc::automata::Regex::parse("b* a (b | a b* a)* b+", &sigma).unwrap();
    let dfa = re.compile(&sigma);
    (sigma, dfa)
}

#[test]
fn optimizations_preserve_all_query_results() {
    forall(
        "optimizations_preserve_all_query_results",
        Config::cases(96),
        |rng| arb_cons(rng, 28),
        |cons| {
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();
            let mut reference: Option<Vec<VarSignature>> = None;
            for cycle_elimination in [true, false] {
                let config = SolverConfig { cycle_elimination };
                let mut built = build(&dfa, &syms, cons, config);
                let sig = signature(&mut built);
                match &reference {
                    None => reference = Some(sig),
                    Some(r) => prop_assert_eq!(r, &sig, "config {config:?} diverged"),
                }
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
        |rng| arb_cons(rng, 20),
        |cons| {
            // Adding the same constraints twice and re-solving must not change
            // any observable result (the solver is a closure operator).
            let (sigma, dfa) = machine();
            let syms: Vec<SymbolId> = sigma.symbols().collect();
            let mut once = build(&dfa, &syms, cons, SolverConfig::default());
            let sig_once = signature(&mut once);
            let doubled: Vec<RandCon> = cons.iter().cloned().chain(cons.iter().cloned()).collect();
            let mut twice = build(&dfa, &syms, &doubled, SolverConfig::default());
            let sig_twice = signature(&mut twice);
            prop_assert_eq!(sig_once, sig_twice);
            Ok(())
        },
    );
}
