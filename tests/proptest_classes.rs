//! Property tests for the right-congruence classes of the three
//! annotation algebras: the class laws on random compositions, and equal
//! verdicts from the class scan (`System::constant_occurrence_classes`)
//! and from whole functions on generated §6.1 programs.

use rasc::automata::{Alphabet, Dfa, PropertySpec};
use rasc::cfgir::{Cfg, NodeId};
use rasc::constraints::algebra::{Algebra, AnnId, GenKillAlgebra, MonoidAlgebra, SubstAlgebra};
use rasc::dataflow::{ConstraintDataflow, GenKillSpec};
use rasc::pdmc::{properties, ConstraintChecker};
use rasc_bench::workload::{generate, generate_parametric, WorkloadConfig};
use rasc_devtools::{forall, prop_assert_eq, Config, Rng};

/// `units`' combined spec: privilege, chroot jail and temp-file race.
fn units_spec() -> (Alphabet, Dfa) {
    let specs: Vec<PropertySpec> = [
        properties::SIMPLE_PRIVILEGE,
        properties::CHROOT_JAIL,
        properties::TEMP_FILE_RACE,
    ]
    .iter()
    .map(|text| PropertySpec::parse(text).unwrap())
    .collect();
    let refs: Vec<&PropertySpec> = specs.iter().collect();
    properties::combine_specs(&refs)
}

fn file_state() -> PropertySpec {
    PropertySpec::parse(properties::FILE_STATE).unwrap()
}

/// Eight facts, each with a `def_xI` event that generates it and a
/// `kill_xI` event that kills it.
fn gen_kill_spec() -> (GenKillSpec, Vec<String>) {
    let mut spec = GenKillSpec::new();
    let mut names = Vec::new();
    for i in 0..8 {
        let f = spec.fact(&format!("x{i}"));
        spec.event(&format!("def_x{i}"), &[f], &[]);
        spec.event(&format!("kill_x{i}"), &[], &[f]);
        names.push(format!("def_x{i}"));
        names.push(format!("kill_x{i}"));
    }
    (spec, names)
}

/// A generated program with one event in every five statements.
fn program(stmts: usize, event_names: Vec<String>, seed: u64) -> rasc::cfgir::Program {
    let mut wl = WorkloadConfig::sized(stmts, event_names, seed);
    wl.event_density = 0.2;
    generate(&wl)
}

/// The annotation of a word of generators, earliest first.
fn word<A: Algebra>(alg: &mut A, gens: &[AnnId], tokens: &[u16]) -> AnnId {
    tokens.iter().fold(alg.identity(), |acc, &t| {
        let g = gens[usize::from(t) % gens.len()];
        alg.compose(g, acc)
    })
}

/// Both class laws for `f`, `g` and the class of `h`.
fn check_laws<A: Algebra>(
    name: &str,
    alg: &mut A,
    gens: &[AnnId],
    (f, g, h): &(Vec<u16>, Vec<u16>, Vec<u16>),
) -> Result<(), String>
where
    A::Class: std::fmt::Debug,
{
    let (f, g, h) = (word(alg, gens, f), word(alg, gens, g), word(alg, gens, h));
    let fg = alg.compose(f, g);
    let start = alg.start_class();
    for a in [f, g, h, fg] {
        let class = alg.apply_class(a, start);
        prop_assert_eq!(
            alg.is_accepting(a),
            alg.class_accepting(class),
            "{name}: acceptance of {} and of its class",
            alg.describe(a)
        );
    }
    let c = alg.apply_class(h, start);
    let inner = alg.apply_class(g, c);
    prop_assert_eq!(
        alg.apply_class(fg, c),
        alg.apply_class(f, inner),
        "{name}: class of a composition"
    );
    Ok(())
}

fn arb_word(rng: &mut Rng) -> Vec<u16> {
    (0..rng.gen_range(0..7))
        .map(|_| rng.next_u64() as u16)
        .collect()
}

#[test]
fn class_laws_hold_for_random_compositions() {
    let (privilege_sigma, privilege) = properties::full_privilege_property();
    let (units_sigma, units) = units_spec();
    let (file_sigma, file_dfa) = file_state().compile();
    forall(
        "class_laws_hold_for_random_compositions",
        Config::cases(256),
        |rng| (arb_word(rng), arb_word(rng), arb_word(rng)),
        |words| {
            for (name, sigma, dfa) in [
                ("full privilege", &privilege_sigma, &privilege),
                ("units", &units_sigma, &units),
            ] {
                let mut alg = MonoidAlgebra::new(dfa);
                let gens: Vec<AnnId> = sigma.symbols().map(|s| alg.symbol(s)).collect();
                check_laws(name, &mut alg, &gens, words)?;
            }

            // Gen/kill over 8 facts: generate or kill one fact, or a mix.
            let mut alg = GenKillAlgebra::new(8);
            let mut gens: Vec<AnnId> = (0..8)
                .flat_map(|i| [(1u64 << i, 0), (0, 1u64 << i)])
                .map(|(gen, kill)| alg.transfer(gen, kill))
                .collect();
            gens.push(alg.transfer(0x0f, 0xf0));
            gens.push(alg.transfer(0x30, 0x0c));
            check_laws("gen/kill", &mut alg, &gens, words)?;

            // File state: open and close, each at one of five descriptors
            // (as in the parametric workload) or plain (reaching every
            // descriptor).
            let mut alg = SubstAlgebra::new(&file_dfa);
            let x = alg.param("x");
            let mut gens = Vec::new();
            for event in ["open", "close"] {
                let sym = file_sigma.lookup(event).unwrap();
                gens.push(alg.plain(sym));
                for fd in ["fd0", "fd1", "fd2", "fd3", "fd4"] {
                    let label = alg.label(fd);
                    gens.push(alg.instantiate(sym, &[(x, label)]));
                }
            }
            check_laws("file state", &mut alg, &gens, words)
        },
    );
}

/// The nodes where `pc` occurs with an accepting annotation, decided one
/// node at a time by the function BFS behind `occurs_accepting`.
fn violations_by_function_bfs<A: Algebra>(
    checker: &mut ConstraintChecker<A>,
    nodes: usize,
) -> Vec<NodeId> {
    (0..nodes)
        .map(NodeId::from_index)
        .filter(|&n| checker.witness(n).is_some())
        .collect()
}

#[test]
fn class_scan_violations_match_the_function_bfs() {
    for (name, (sigma, dfa)) in [
        ("full privilege", properties::full_privilege_property()),
        ("units", units_spec()),
    ] {
        let names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
        let mut found = 0;
        for seed in 0..6u64 {
            let program = program(300, names.clone(), seed);
            let cfg = Cfg::build(&program).unwrap();
            let mut checker = ConstraintChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
            checker.solve();
            let by_class = checker.violations();
            let by_function = violations_by_function_bfs(&mut checker, cfg.num_nodes());
            assert_eq!(by_class, by_function, "{name}, seed {seed}");
            found += by_class.len();
        }
        assert!(found > 0, "{name}: the programs violate the property");
    }
    let spec = file_state();
    for (stmts, descriptors) in [(200, 3), (400, 5)] {
        let mut found = 0;
        for seed in 0..6u64 {
            let program = generate_parametric(stmts, descriptors, seed);
            let cfg = Cfg::build(&program).unwrap();
            let mut checker = ConstraintChecker::parametric(&cfg, &spec, "main").unwrap();
            checker.solve();
            let by_class = checker.violations();
            let by_function = violations_by_function_bfs(&mut checker, cfg.num_nodes());
            assert_eq!(
                by_class, by_function,
                "file state, {descriptors} descriptors, seed {seed}"
            );
            found += by_class.len();
        }
        assert!(
            found > 0,
            "file state, {descriptors} descriptors: the programs leave descriptors open"
        );
    }
}

#[test]
fn gen_kill_facts_match_the_occurrence_annotations() {
    let (spec, names) = gen_kill_spec();
    let mut seen = 0u64;
    for seed in 0..8u64 {
        let program = program(200, names.clone(), seed);
        let cfg = Cfg::build(&program).unwrap();
        let mut df = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
        df.solve();
        for n in (0..cfg.num_nodes()).map(NodeId::from_index) {
            let anns = df.pc_annotations(n);
            let alg = df.system().algebra();
            let facts = anns.iter().fold(0u64, |m, &a| m | alg.apply(a, 0));
            assert_eq!(df.facts_at(n), facts, "seed {seed}, node {n:?}");
            seen |= facts;
        }
    }
    assert_eq!(seen, 0xff, "every fact holds somewhere");
}
