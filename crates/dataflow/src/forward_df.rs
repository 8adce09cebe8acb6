//! Forward-solver dataflow: one 1-bit machine per fact (§3.3 + §5).
//!
//! The bidirectional engine ([`crate::ConstraintDataflow`]) pays for the
//! product monoid's `3ⁿ` classes; the paper's §5 answer for whole-program
//! analysis is unidirectional solving with the coarser congruence. Here
//! each fact runs on its own Figure 1 machine through the forward solver
//! (`i = |S| = 2` states per fact), which also matches how bit-vector
//! problems decompose classically. Each fact's system is the model
//! checker's forward encoding ([`ForwardChecker::encode`]). Precision is
//! identical to the bidirectional engine — both compute context-sensitive
//! may-facts — which the cross-validation tests assert.

use rasc_automata::{Alphabet, Dfa};
use rasc_cfgir::{Cfg, NodeId};
use rasc_pdmc::{CheckError, ForwardChecker};

use crate::spec::GenKillSpec;

/// A context-sensitive forward may-analysis on the forward solver, one
/// run per fact.
#[derive(Debug)]
pub struct ForwardDataflow {
    /// One checker per fact: the fact holds where its machine accepts.
    checkers: Vec<ForwardChecker>,
    num_nodes: usize,
    facts: Vec<u64>,
}

impl ForwardDataflow {
    /// Builds the analysis for `spec` over `cfg`, starting at `entry`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cfg`] if `entry` is missing.
    pub fn new(cfg: &Cfg, spec: &GenKillSpec, entry: &str) -> Result<ForwardDataflow, CheckError> {
        // The 1-bit machine each fact runs: `g` when the fact is genned,
        // `k` when killed.
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        let machine = Dfa::one_bit(&sigma, g, k);
        let checkers = (0..spec.num_facts())
            .map(|fact| {
                let bit = 1u64 << fact;
                ForwardChecker::encode(cfg, entry, &machine, |name| {
                    let (gen_mask, kill_mask) = spec.effect(name)?;
                    if gen_mask & bit != 0 {
                        Some(g)
                    } else if kill_mask & bit != 0 {
                        Some(k)
                    } else {
                        None
                    }
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(ForwardDataflow {
            checkers,
            num_nodes: cfg.num_nodes(),
            facts: Vec::new(),
        })
    }

    /// Solves all per-fact systems and assembles the fact vectors.
    pub fn solve(&mut self) {
        let mut facts = vec![0u64; self.num_nodes];
        for (fact, checker) in self.checkers.iter_mut().enumerate() {
            checker.solve();
            for node in checker.violations() {
                facts[node.index()] |= 1 << fact;
            }
        }
        self.facts = facts;
    }

    /// The facts that may hold at a node.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ForwardDataflow::solve`].
    pub fn facts_at(&self, n: NodeId) -> u64 {
        assert!(!self.facts.is_empty(), "call solve() first");
        self.facts[n.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintDataflow;
    use rasc_cfgir::Program;

    fn setup(src: &str) -> (Cfg, GenKillSpec) {
        let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
        let mut spec = GenKillSpec::new();
        let x = spec.fact("x");
        let y = spec.fact("y");
        spec.event("def_x", &[x], &[]);
        spec.event("kill_x", &[], &[x]);
        spec.event("def_y", &[y], &[]);
        (cfg, spec)
    }

    #[test]
    fn agrees_with_bidirectional_engine() {
        let programs = [
            "fn main() { a: event def_x; b: event def_y; c: event kill_x; d: skip; }",
            "fn main() { if (*) { event def_x; } else { event def_y; } m: skip; }",
            "fn f() { skip; }
             fn main() { event def_x; f(); p: skip; event kill_x; f(); q: skip; }",
            "fn gen() { event def_x; } fn main() { gen(); p: skip; }",
            "fn main() { while (*) { event def_x; } p: skip; }",
            "fn main() { return; u: event def_x; v: skip; }",
        ];
        for src in programs {
            let (cfg, spec) = setup(src);
            let mut fwd = ForwardDataflow::new(&cfg, &spec, "main").unwrap();
            fwd.solve();
            let mut bidi = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
            bidi.solve();
            for node in 0..cfg.num_nodes() {
                let n = NodeId::from_index(node);
                assert_eq!(fwd.facts_at(n), bidi.facts_at(n), "node {node} of:\n{src}");
            }
        }
    }

    #[test]
    fn context_sensitivity_preserved() {
        let (cfg, spec) = setup(
            "fn f() { skip; }
             fn main() { event def_x; f(); p: skip; event kill_x; f(); q: skip; }",
        );
        let mut fwd = ForwardDataflow::new(&cfg, &spec, "main").unwrap();
        fwd.solve();
        assert_eq!(fwd.facts_at(cfg.label_node("p").unwrap()) & 1, 1);
        assert_eq!(fwd.facts_at(cfg.label_node("q").unwrap()) & 1, 0);
    }
}
