//! The paper's pipeline: MiniImp source → CFG → §6.1 encoding → solve →
//! violation query → witness, timed per program, and the `table1`,
//! `units` and `parametric` workloads built on it.

use std::time::Instant;

use rasc_automata::{Alphabet, PropertySpec};
use rasc_cfgir::{Cfg, NodeId, Program};
use rasc_core::algebra::Algebra;
use rasc_pdmc::{properties, witness_trace, ConstraintChecker};

use crate::encode;
use crate::inputs::{self, Events};
use crate::served::{self, Spec};
use crate::{trace, Run};

/// A property as the pipeline checks it.
pub enum Prop {
    /// A plain property DFA over `sigma`.
    Plain(Spec),
    /// The parametric file-state property (§6.4); `plain` is its compiled
    /// machine, which the oracles instantiate once per descriptor.
    Parametric { spec: PropertySpec, plain: Spec },
}

impl Prop {
    /// Builds the workload's property: the program calls that make up
    /// `setup_s` for the pipeline workloads.
    pub fn compile(workload: &str) -> Prop {
        trace::span("automata.spec", 0, || match workload {
            "units" => {
                let specs: Vec<PropertySpec> = [
                    properties::SIMPLE_PRIVILEGE,
                    properties::CHROOT_JAIL,
                    properties::TEMP_FILE_RACE,
                ]
                .iter()
                .map(|text| PropertySpec::parse(text).expect("bundled spec"))
                .collect();
                let refs: Vec<&PropertySpec> = specs.iter().collect();
                let (sigma, dfa) = properties::combine_specs(&refs);
                Prop::Plain(Spec { sigma, dfa })
            }
            "parametric" => {
                let spec = PropertySpec::parse(properties::FILE_STATE).expect("bundled spec");
                let (sigma, dfa) = spec.compile();
                Prop::Parametric {
                    spec,
                    plain: Spec { sigma, dfa },
                }
            }
            "table1" => {
                let (sigma, dfa) = properties::full_privilege_property();
                Prop::Plain(Spec { sigma, dfa })
            }
            // The serve workloads measure the serving layers, so they use
            // the small Figure 3 property: its few annotations keep query
            // costs from swinging with the events a seed draws.
            _ => {
                let spec = PropertySpec::parse(properties::SIMPLE_PRIVILEGE).expect("bundled spec");
                let (sigma, dfa) = spec.compile();
                Prop::Plain(Spec { sigma, dfa })
            }
        })
    }

    pub fn plain(&self) -> &Spec {
        match self {
            Prop::Plain(s) | Prop::Parametric { plain: s, .. } => s,
        }
    }
}

/// A program to check: its source text and how many descriptors its
/// events use (0 for plain properties).
pub struct Unit {
    pub src: String,
    pub fds: usize,
}

/// The event map an oracle uses for one instantiation: every event for a
/// plain property, descriptor `fd` only for the parametric one.
pub fn event_map(
    sigma: &Alphabet,
    fd: Option<usize>,
) -> impl Fn(&str, &[String]) -> Option<rasc_automata::SymbolId> + '_ {
    let label = fd.map(|d| format!("fd{d}"));
    move |name, args| match &label {
        None => sigma.lookup(name),
        Some(l) => (args.len() == 1 && args[0] == *l)
            .then(|| sigma.lookup(name))
            .flatten(),
    }
}

/// Checks one program from source text to its verdict: the nodes where
/// the property can be violated.
pub fn check(prop: &Prop, key: u64, src: &str) -> Vec<usize> {
    trace::count("cfgir.parse_bytes", src.len() as u64);
    let program =
        trace::span("cfgir.parse", key, || Program::parse(src)).expect("generated text parses");
    let cfg =
        trace::span("cfgir.cfg", key, || Cfg::build(&program)).expect("generated program is valid");
    trace::count("cfgir.cfg_nodes", cfg.num_nodes() as u64);
    match prop {
        Prop::Plain(Spec { sigma, dfa }) => {
            let checker = trace::span("pdmc.encode", key, || {
                ConstraintChecker::new(&cfg, sigma, dfa, "main")
            });
            verdict(checker.expect("main exists"), key)
        }
        Prop::Parametric { spec, .. } => {
            let checker = trace::span("pdmc.encode", key, || {
                ConstraintChecker::parametric(&cfg, spec, "main")
            });
            verdict(checker.expect("main exists"), key)
        }
    }
}

fn verdict<A: Algebra>(mut checker: ConstraintChecker<A>, key: u64) -> Vec<usize> {
    trace::span("core.solve", key, || checker.solve());
    let nodes = trace::span("core.query", key, || checker.violations());
    if trace::enabled() {
        let s = checker.system().stats();
        trace::count("core.solve_facts", s.facts_processed as u64);
        trace::count(
            "core.solve_entries",
            (s.edges + s.lower_bounds + s.upper_bounds) as u64,
        );
        trace::count("core.annotations", s.annotations as u64);
        trace::count("core.violations", nodes.len() as u64);
    }
    nodes.iter().map(|n| n.index()).collect()
}

/// Whether violation `node` has a witness: the solver's call-stack witness
/// (§6.2), rendered, and for a plain property also an event trace.
///
/// This runs after the timed passes. How long a witness search takes
/// depends on where the nearest error path lies, which flips between a
/// few and a few hundred milliseconds from seed to seed; inside the timed
/// check it would swamp every other change in `table1`'s time to verdict.
fn witnessed(prop: &Prop, key: u64, cfg: &Cfg, node: usize) -> bool {
    let n = NodeId::from_index(node);
    match prop {
        Prop::Plain(Spec { sigma, dfa }) => {
            let mut c = ConstraintChecker::new(cfg, sigma, dfa, "main").expect("main exists");
            c.solve();
            trace::span("pdmc.witness", key, || {
                let w = c.witness(n)?;
                let stack = c.render_witness(&w);
                let steps = witness_trace(cfg, sigma, dfa, "main", n)?;
                Some(stack.len() + steps.len())
            })
            .is_some()
        }
        Prop::Parametric { spec, .. } => {
            let mut c = ConstraintChecker::parametric(cfg, spec, "main").expect("main exists");
            c.solve();
            trace::span("pdmc.witness", key, || {
                let w = c.witness(n)?;
                Some(c.render_witness(&w))
            })
            .is_some()
        }
    }
}

/// The PDS and forward-engine node sets for one program; a parametric
/// program's sets are unions over its descriptors.
fn oracle(prop: &Prop, key: u64, unit: &Unit, cfg: &Cfg) -> (Vec<usize>, Vec<usize>) {
    let Spec { sigma, dfa } = prop.plain();
    let instances: Vec<Option<usize>> = match prop {
        Prop::Plain(_) => vec![None],
        Prop::Parametric { .. } => (0..unit.fds).map(Some).collect(),
    };
    let (mut pds, mut fwd) = (Vec::new(), Vec::new());
    for fd in instances {
        let map = event_map(sigma, fd);
        pds.extend(trace::span("pushdown.post_star", key, || {
            encode::pds_nodes(cfg, dfa, &map)
        }));
        fwd.extend(trace::span("core.forward", key, || {
            encode::forward_nodes(cfg, dfa, &map, &[])
        }));
    }
    for set in [&mut pds, &mut fwd] {
        set.sort_unstable();
        set.dedup();
    }
    (pds, fwd)
}

/// Checks `verdicts` against the oracles: the bidirectional node sets
/// must equal the PDS and forward sets exactly, and each program's first
/// violation must have a witness.
pub fn verify(run: &mut Run, prop: &Prop, units: &[Unit], verdicts: &[Vec<usize>]) {
    for (i, (unit, nodes)) in units.iter().zip(verdicts).enumerate() {
        let cfg = Cfg::build(&Program::parse(&unit.src).expect("parses")).expect("valid");
        let (pds, fwd) = oracle(prop, i as u64, unit, &cfg);
        run.expect(*nodes == pds, || {
            format!(
                "program {i}: bidi {} nodes vs PDS {}",
                nodes.len(),
                pds.len()
            )
        });
        run.expect(fwd == pds, || {
            format!(
                "program {i}: forward {} nodes vs PDS {}",
                fwd.len(),
                pds.len()
            )
        });
        if let Some(&n) = nodes.first() {
            run.expect(witnessed(prop, i as u64, &cfg, n), || {
                format!("program {i}: no witness for node {n}")
            });
        }
    }
}

/// The workload's programs. `Run::scale` shrinks `table1`'s programs and
/// the program count of the other two.
fn inputs_for(run: &Run, workload: &str) -> Vec<Unit> {
    let s = run.scale;
    let shapes: Vec<(usize, Events<'static>, usize)> = match workload {
        "table1" => inputs::TABLE1_PACKAGES
            .iter()
            .map(|&(_, stmts)| {
                let stmts = stmts / TABLE1_SCALE / s;
                (stmts, Events::Plain(inputs::TABLE1_EVENTS), 0)
            })
            .collect(),
        "units" => inputs::log_uniform_sizes(UNITS_SIZES, UNITS / s, 100, 1000)
            .into_iter()
            .map(|stmts| (stmts, Events::Plain(inputs::UNIT_EVENTS), 0))
            .collect(),
        _ => {
            let shape = (
                PARAMETRIC_STMTS,
                Events::Descriptors(PARAMETRIC_FDS),
                PARAMETRIC_FDS,
            );
            vec![shape; (PARAMETRIC_PROGRAMS / s).max(1)]
        }
    };
    shapes
        .into_iter()
        .enumerate()
        .map(|(k, (stmts, events, fds))| Unit {
            src: inputs::program(k as u64, run.seed, stmts, events),
            fds,
        })
        .collect()
}

/// Table 1's packages run at this fraction of the paper's sizes, so the
/// PDS oracle and several timed passes fit one run (see README).
const TABLE1_SCALE: usize = 4;
/// Few enough programs for a pass of about half a second, so each
/// program's fastest time is taken over fifteen or more passes.
const UNITS: usize = 300;
/// Seeds the unit sizes, which are part of the workload's shape.
const UNITS_SIZES: u64 = 0x0417;
/// Many mid-sized programs rather than the paper's two large ones: the
/// cost of one program grows erratically with its descriptor count, and
/// a sum over many programs varies far less from seed to seed.
const PARAMETRIC_PROGRAMS: usize = 24;
const PARAMETRIC_STMTS: usize = 2_000;
const PARAMETRIC_FDS: usize = 5;

/// Runs one pipeline workload: `table1`, `units` or `parametric`.
pub fn run(run: &mut Run, workload: &str) {
    let units = inputs_for(run, workload);
    let prop = run.setup(|| Prop::compile(workload));
    if run.traced {
        trace::count(
            "automata.min_states",
            prop.plain().dfa.minimize().len() as u64,
        );
    }
    let mut first: Option<Vec<Vec<usize>>> = None;
    run.measure(
        |run| {
            let verdicts: Vec<Vec<usize>> = units
                .iter()
                .enumerate()
                .map(|(i, u)| {
                    let t = Instant::now();
                    let v = trace::span("check", i as u64, || check(&prop, i as u64, &u.src));
                    run.ops_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    v
                })
                .collect();
            trace::count("pipeline.passes", 1);
            match &first {
                None => first = Some(verdicts),
                Some(f) => run.expect(*f == verdicts, || {
                    "a pass disagreed with the first".to_owned()
                }),
            }
        },
        |run| {
            run.setup(|| Prop::compile(workload));
        },
    );
    verify(run, &prop, &units, &first.unwrap_or_default());
    // The served path must agree with the pipeline on this workload's
    // property; a parametric property is served one descriptor at a time.
    let (events, fd) = match workload {
        "units" => (Events::Plain(inputs::UNIT_EVENTS), None),
        "parametric" => (Events::Descriptors(PARAMETRIC_FDS), Some(0)),
        _ => (Events::Plain(inputs::TABLE1_EVENTS), None),
    };
    let src = inputs::program(
        served::CROSSCHECK_SHAPE,
        run.seed,
        served::CROSSCHECK_STMTS / run.scale,
        events,
    );
    let spec = prop.plain();
    let server = served::crosscheck_program(run, spec, &src, &event_map(&spec.sigma, fd));
    run.extra.extend(server);
}
