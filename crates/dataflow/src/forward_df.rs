//! Forward-solver dataflow: one 1-bit machine per fact (§3.3 + §5).
//!
//! The bidirectional engine ([`crate::ConstraintDataflow`]) pays for the
//! product monoid's `3ⁿ` classes; the paper's §5 answer for whole-program
//! analysis is unidirectional solving with the coarser congruence. Here
//! each fact runs on its own Figure 1 machine through the forward solver
//! (`i = |S| = 2` states per fact), which also matches how bit-vector
//! problems decompose classically. Precision is identical to the
//! bidirectional engine — both compute context-sensitive may-facts — which
//! the cross-validation tests assert.

use rasc_automata::{Alphabet, Dfa};
use rasc_cfgir::{Cfg, CfgError, EdgeLabel, NodeId};
use rasc_core::forward::ForwardSystem;
use rasc_core::{ConsId, VarId, Variance};

use crate::spec::GenKillSpec;
use crate::well_formed;

/// A context-sensitive forward may-analysis on the forward solver, one
/// run per fact.
#[derive(Debug)]
pub struct ForwardDataflow {
    /// Per-fact `(system, node variables, pc)` triples.
    systems: Vec<(ForwardSystem, Vec<VarId>, ConsId)>,
    facts: Vec<u64>,
}

impl ForwardDataflow {
    /// Builds the analysis for `spec` over `cfg`, starting at `entry`.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::MissingEntry`] if `entry` is missing.
    pub fn new(cfg: &Cfg, spec: &GenKillSpec, entry: &str) -> Result<ForwardDataflow, CfgError> {
        let entry_node = cfg.entry(entry)?.entry;
        let mut systems = Vec::new();
        for fact in 0..spec.num_facts() {
            // Fact-local 1-bit machine: `g` when the fact is genned, `k`
            // when killed.
            let mut sigma = Alphabet::new();
            let g = sigma.intern("g");
            let k = sigma.intern("k");
            let machine = Dfa::one_bit(&sigma, g, k);
            let mut sys = ForwardSystem::new(&machine);
            let vars: Vec<VarId> = (0..cfg.num_nodes())
                .map(|i| sys.var(&format!("S{i}")))
                .collect();
            let pc = sys.constant("pc");
            sys.add_constant(pc, vars[entry_node.index()]);
            for (from, to, label) in cfg.edges() {
                let ann = match label {
                    EdgeLabel::Plain => sys.identity(),
                    EdgeLabel::Event { name, .. } => match spec.effect(name) {
                        Some((gen_mask, kill_mask)) => {
                            let bit = 1u64 << fact;
                            if gen_mask & bit != 0 {
                                sys.word(&[g])
                            } else if kill_mask & bit != 0 {
                                sys.word(&[k])
                            } else {
                                sys.identity()
                            }
                        }
                        None => sys.identity(),
                    },
                };
                sys.add_edge(vars[from.index()], vars[to.index()], ann);
            }
            let eps = sys.identity();
            for site in cfg.call_sites() {
                let callee = &cfg.functions()[site.callee.index()];
                let o_i = sys.declare(&format!("o{}", site.id.index()), &[Variance::Covariant]);
                well_formed(sys.add_source(
                    o_i,
                    &[vars[site.call_node.index()]],
                    vars[callee.entry.index()],
                    eps,
                ));
                well_formed(sys.add_projection(
                    o_i,
                    0,
                    vars[callee.exit.index()],
                    vars[site.return_node.index()],
                    eps,
                ));
            }
            systems.push((sys, vars, pc));
        }
        Ok(ForwardDataflow {
            systems,
            facts: Vec::new(),
        })
    }

    /// Solves all per-fact systems and assembles the fact vectors.
    pub fn solve(&mut self) {
        let n_nodes = self.systems.first().map_or(0, |(_, vars, _)| vars.len());
        let mut facts = vec![0u64; n_nodes];
        for (fact, (sys, vars, pc)) in self.systems.iter_mut().enumerate() {
            sys.solve();
            let occ = sys.constant_occurrence_states(*pc);
            for (node, &var) in vars.iter().enumerate() {
                if occ[var.index()].iter().any(|&s| sys.state_accepting(s)) {
                    facts[node] |= 1 << fact;
                }
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
