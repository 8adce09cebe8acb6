//! Randomized cross-engine agreement: on generated programs, the
//! annotated-constraint checker (bidirectional), the forward solver
//! encoding, and the direct pushdown `post*` checker must agree on
//! whether — and where — the privilege property is violated.

use rasc::automata::{Alphabet, Dfa, PropertySpec};
use rasc::cfgir::{Cfg, NodeId, Program};
use rasc::constraints::algebra::Algebra;
use rasc::pdmc::{forward_violations, properties, ConstraintChecker};
use rasc::pushdown::PdsChecker;
use rasc_bench::workload::{generate, WorkloadConfig};

fn violating_nodes_constraints(cfg: &Cfg, sigma: &Alphabet, dfa: &Dfa) -> Vec<NodeId> {
    let mut checker = ConstraintChecker::new(cfg, sigma, dfa, "main").unwrap();
    checker.solve();
    checker.violations()
}

fn violating_nodes_forward(cfg: &Cfg, sigma: &Alphabet, dfa: &Dfa) -> Vec<NodeId> {
    forward_violations(cfg, sigma, dfa, "main").unwrap()
}

fn violating_nodes_pds(cfg: &Cfg, sigma: &Alphabet, dfa: &Dfa) -> Vec<NodeId> {
    let checker = PdsChecker::new(cfg, sigma, dfa, "main").unwrap();
    let mut nodes: Vec<NodeId> = checker.run().into_iter().map(|v| v.node).collect();
    nodes.sort();
    nodes.dedup();
    // The backward (pre*) decision procedure must agree on the verdict.
    assert_eq!(
        !nodes.is_empty(),
        checker.violated_backward(),
        "post* vs pre*"
    );
    nodes
}

#[test]
fn three_engines_agree_on_random_programs_simple_property() {
    let spec = PropertySpec::parse(properties::SIMPLE_PRIVILEGE).unwrap();
    let (sigma, dfa) = spec.compile();
    let names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
    for seed in 0..25u64 {
        let wl = WorkloadConfig::sized(120, names.clone(), seed);
        let program = generate(&wl);
        let cfg = Cfg::build(&program).unwrap();
        let a = violating_nodes_constraints(&cfg, &sigma, &dfa);
        let b = violating_nodes_forward(&cfg, &sigma, &dfa);
        let c = violating_nodes_pds(&cfg, &sigma, &dfa);
        assert_eq!(a, b, "bidirectional vs forward, seed {seed}\n{program}");
        assert_eq!(a, c, "constraints vs pushdown, seed {seed}\n{program}");
    }
}

#[test]
fn three_engines_agree_on_random_programs_full_property() {
    let (sigma, dfa) = properties::full_privilege_property();
    let names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
    for seed in 100..115u64 {
        let wl = WorkloadConfig::sized(200, names.clone(), seed);
        let program = generate(&wl);
        let cfg = Cfg::build(&program).unwrap();
        let a = violating_nodes_constraints(&cfg, &sigma, &dfa);
        let b = violating_nodes_forward(&cfg, &sigma, &dfa);
        let c = violating_nodes_pds(&cfg, &sigma, &dfa);
        assert_eq!(a, b, "bidirectional vs forward, seed {seed}");
        assert_eq!(a, c, "constraints vs pushdown, seed {seed}");
    }
}

#[test]
fn engines_agree_on_deep_recursion() {
    let spec = PropertySpec::parse(properties::SIMPLE_PRIVILEGE).unwrap();
    let (sigma, dfa) = spec.compile();
    // Mutually recursive functions with the grant/drop/exec events spread
    // across them.
    let src = "fn a() { event seteuid_zero; if (*) { b(); } }
        fn b() { if (*) { a(); } else { event execl; } }
        fn main() { a(); }";
    let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
    let x = violating_nodes_constraints(&cfg, &sigma, &dfa);
    let y = violating_nodes_pds(&cfg, &sigma, &dfa);
    let z = violating_nodes_forward(&cfg, &sigma, &dfa);
    assert!(!x.is_empty());
    assert_eq!(x, y);
    assert_eq!(x, z);
}

/// Query answers must not depend on hash order. Queries intern the
/// compositions they make, so two checkers that walked lower bounds in
/// different orders number the same annotations differently: the served
/// `anns` listing (annotations in id order) and the witness found first
/// would then change from one checker to the next.
#[test]
fn fresh_checkers_give_identical_listings_and_witnesses() {
    let (sigma, dfa) = properties::full_privilege_property();
    let names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
    let program = generate(&WorkloadConfig::sized(3000, names, 3));
    let cfg = Cfg::build(&program).unwrap();
    let answers = || {
        let mut checker = ConstraintChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
        checker.solve();
        let violations = checker.violations();
        let mut out: Vec<String> = Vec::new();
        for &node in violations.iter().step_by(violations.len() / 8 + 1) {
            let anns = checker.pc_annotations(node);
            let alg = checker.system().algebra();
            out.push(
                anns.iter()
                    .map(|&a| alg.describe(a))
                    .collect::<Vec<_>>()
                    .join(" "),
            );
            let witness = checker.witness(node).expect("a violation has a witness");
            out.push(checker.render_witness(&witness));
        }
        assert!(out.len() >= 8, "the program has violations to list");
        out
    };
    let first = answers();
    for _ in 0..5 {
        assert_eq!(answers(), first);
    }
}
