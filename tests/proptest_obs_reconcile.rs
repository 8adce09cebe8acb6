//! Property test for the observability subsystem (`rasc-obs`): the
//! counters a [`Recorder`] collects must reconcile *exactly* with the
//! solver's own [`SolverStats`] — on random systems, at every solve
//! boundary, and across `push_epoch`/`pop_epoch` rollback.
//!
//! The solver batches hot-path counter deltas and flushes them when a
//! bounded solve returns and when an epoch pop finishes, as matched
//! added/removed (or …/rolled_back) pairs. So for a subscriber installed
//! for the system's whole lifetime, each *net* count must equal the
//! corresponding statistic: e.g. `solver.edges.added −
//! solver.edges.removed == stats().edges`, and `solver.facts −
//! solver.facts.rolled_back == stats().facts_processed`. Epoch events
//! must balance too: every push is eventually popped, committed, or
//! still open.

use std::sync::Arc;

use rasc::automata::{Alphabet, Dfa, SymbolId};
use rasc::constraints::algebra::MonoidAlgebra;
use rasc::constraints::{
    Budget, ConsId, SetExpr, SolverConfig, SolverStats, System, VarId, Variance,
};
use rasc::obs::{scoped, Recorder};
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, Rng};

const N_VARS: usize = 6;

/// Random surface constraints over a small fixed shape (mirrors the
/// incremental-equivalence suite's generator).
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

fn machine() -> (Alphabet, Dfa) {
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

fn apply(sys: &mut System<MonoidAlgebra>, shape: &Shape, syms: &[SymbolId], c: &RandCon) {
    let ann = |sys: &mut System<MonoidAlgebra>, s: &Option<u8>| match s {
        Some(i) => {
            let sym = syms[*i as usize];
            sys.algebra_mut().word(&[sym])
        }
        None => {
            use rasc::constraints::algebra::Algebra;
            sys.algebra().identity()
        }
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

/// Every net recorder count must equal its solver statistic. Called only
/// at flush boundaries (after an unbounded solve or a finished pop).
fn reconcile(rec: &Recorder, stats: &SolverStats, n_clashes: usize) -> Result<(), String> {
    let net = |added: &str, removed: &str| -> i128 {
        i128::from(rec.counter_value(added)) - i128::from(rec.counter_value(removed))
    };
    let checks: [(&str, &str, usize); 9] = [
        ("solver.edges.added", "solver.edges.removed", stats.edges),
        ("solver.lbs.added", "solver.lbs.removed", stats.lower_bounds),
        ("solver.ubs.added", "solver.ubs.removed", stats.upper_bounds),
        (
            "solver.facts",
            "solver.facts.rolled_back",
            stats.facts_processed,
        ),
        ("solver.fuel", "solver.fuel.rolled_back", stats.fuel_spent),
        (
            "solver.cycles.collapsed",
            "solver.cycles.uncollapsed",
            stats.cycles_collapsed,
        ),
        ("solver.clashes", "solver.clashes.rolled_back", n_clashes),
        (
            "solver.interruptions",
            "solver.interruptions.rolled_back",
            stats.interruptions,
        ),
        (
            "solver.depth_limit_hits",
            "solver.depth_limit_hits.rolled_back",
            stats.depth_limit_hits,
        ),
    ];
    for (added, removed, want) in checks {
        prop_assert_eq!(
            net(added, removed),
            want as i128,
            "`{added}` − `{removed}` must equal the solver statistic"
        );
    }
    Ok(())
}

#[test]
fn recorder_counters_reconcile_with_solver_stats() {
    let (sigma, dfa) = machine();
    let syms: Vec<SymbolId> = sigma.symbols().collect();
    forall(
        "recorder_counters_reconcile_with_solver_stats",
        Config::cases(64),
        |rng| (0..rng.gen_range(1..20)).map(|_| arb_con(rng)).collect(),
        |cons: &Vec<RandCon>| {
            let configs = [
                SolverConfig::default(),
                SolverConfig {
                    cycle_elimination: false,
                },
            ];
            for config in configs {
                // The recorder is installed before the system exists, so
                // it observes every mutation of the system's lifetime.
                let rec = Arc::new(Recorder::new());
                scoped(Arc::clone(&rec) as _, || {
                    let mut sys = System::with_config(MonoidAlgebra::new(&dfa), config);
                    let shape = declare(&mut sys);
                    let (first, second) = cons.split_at(cons.len() / 2);

                    for c in first {
                        apply(&mut sys, &shape, &syms, c);
                    }
                    sys.solve();
                    reconcile(&rec, &sys.stats(), sys.clashes().len())?;

                    // Speculative epoch: more constraints, a deliberately
                    // starved bounded solve (spends fuel, usually
                    // interrupts), a finishing solve — then roll it all
                    // back. The net counts must track every phase.
                    sys.push_epoch();
                    for c in second {
                        apply(&mut sys, &shape, &syms, c);
                    }
                    let _ = sys.solve_bounded(&Budget::unlimited().with_steps(2));
                    sys.solve();
                    reconcile(&rec, &sys.stats(), sys.clashes().len())?;

                    prop_assert!(sys.pop_epoch(), "epoch must pop");
                    reconcile(&rec, &sys.stats(), sys.clashes().len())?;

                    // Epoch events balance: every push was popped,
                    // committed, or is still open (none here).
                    prop_assert_eq!(
                        rec.counter_value("solver.epochs.pushed"),
                        rec.counter_value("solver.epochs.popped")
                            + rec.counter_value("solver.epochs.committed")
                            + sys.epoch_depth() as u64,
                        "epoch push/pop/commit events must balance"
                    );
                    Ok(())
                })?;
            }
            Ok(())
        },
    );
}
