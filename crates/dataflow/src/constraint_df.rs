//! Forward may-dataflow via annotated set constraints.

use rasc_cfgir::{Cfg, NodeId};
use rasc_core::algebra::{AnnId, GenKillAlgebra};
use rasc_core::{SolverConfig, System};
use rasc_pdmc::{CheckError, ConstraintChecker};

use crate::spec::GenKillSpec;

/// A context-sensitive forward may-analysis: which facts *may* hold at
/// each program point, for executions from the entry with no initial
/// facts.
///
/// It is the model checker's §6.1 encoding ([`ConstraintChecker::encode`])
/// over the gen/kill algebra: one variable per CFG node, `pc` seeded at
/// the entry, event edges annotated with their gen/kill transfer, and
/// per-call-site constructors matching call/return paths — which is
/// exactly what makes the analysis context-sensitive (facts generated in
/// one calling context do not leak into another).
#[derive(Debug)]
pub struct ConstraintDataflow {
    checker: ConstraintChecker<GenKillAlgebra>,
    facts: Vec<u64>,
}

impl ConstraintDataflow {
    /// Builds the analysis for `spec` over `cfg`, starting at `entry`.
    ///
    /// # Errors
    ///
    /// Returns [`CheckError::Cfg`] if `entry` is missing.
    pub fn new(
        cfg: &Cfg,
        spec: &GenKillSpec,
        entry: &str,
    ) -> Result<ConstraintDataflow, CheckError> {
        let algebra = GenKillAlgebra::new(spec.num_facts() as u32);
        let checker = ConstraintChecker::encode(
            cfg,
            entry,
            algebra,
            SolverConfig::default(),
            |alg, name, _| spec.effect(name).map(|(g, k)| alg.transfer(g, k)),
        )?;
        Ok(ConstraintDataflow {
            checker,
            facts: Vec::new(),
        })
    }

    /// Solves the constraints and computes per-node fact vectors: the
    /// union of the fact vectors (the gen/kill algebra's classes) with
    /// which `pc` reaches each node.
    pub fn solve(&mut self) {
        self.checker.solve();
        self.facts = self
            .checker
            .pc_classes()
            .iter()
            .map(|classes| classes.iter().fold(0u64, |m, &c| m | c))
            .collect();
    }

    /// The facts that may hold at a node (bitmask over the spec's fact
    /// indices). Unreachable nodes report no facts.
    ///
    /// # Panics
    ///
    /// Panics if called before [`ConstraintDataflow::solve`].
    pub fn facts_at(&self, n: NodeId) -> u64 {
        assert!(!self.facts.is_empty(), "call solve() first");
        self.facts[n.index()]
    }

    /// Whether the node is reachable from the entry at all.
    pub fn reachable(&mut self, n: NodeId) -> bool {
        !self.pc_annotations(n).is_empty()
    }

    /// The transfer functions with which `pc` reaches a node, one per
    /// distinct composed path annotation.
    pub fn pc_annotations(&mut self, n: NodeId) -> Vec<AnnId> {
        self.checker.pc_annotations(n)
    }

    /// The underlying constraint system, for diagnostics.
    pub fn system(&self) -> &System<GenKillAlgebra> {
        self.checker.system()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn straight_line_gen_kill() {
        let (cfg, spec) =
            setup("fn main() { a: event def_x; b: event def_y; c: event kill_x; d: skip; }");
        let mut df = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
        df.solve();
        assert_eq!(df.facts_at(cfg.label_after("a").unwrap()), 0b01);
        assert_eq!(df.facts_at(cfg.label_after("b").unwrap()), 0b11);
        assert_eq!(df.facts_at(cfg.label_after("c").unwrap()), 0b10);
    }

    #[test]
    fn branches_merge_with_union() {
        let (cfg, spec) =
            setup("fn main() { if (*) { event def_x; } else { event def_y; } m: skip; }");
        let mut df = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
        df.solve();
        // May-analysis: both facts possible at the merge.
        assert_eq!(df.facts_at(cfg.label_node("m").unwrap()), 0b11);
    }

    #[test]
    fn context_sensitivity_across_calls() {
        // f is called once with x set and once with x killed; the fact
        // must not leak from one context's return to the other.
        let (cfg, spec) = setup(
            "fn f() { skip; }
             fn main() {
                 event def_x;
                 f();
                 p: skip;
                 event kill_x;
                 f();
                 q: skip;
             }",
        );
        let mut df = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
        df.solve();
        assert_eq!(df.facts_at(cfg.label_node("p").unwrap()) & 1, 1, "x at p");
        assert_eq!(
            df.facts_at(cfg.label_node("q").unwrap()) & 1,
            0,
            "x was killed before the second call; a context-insensitive \
             analysis would report it via the first call's return"
        );
    }

    #[test]
    fn facts_generated_in_callee_flow_back() {
        let (cfg, spec) = setup(
            "fn gen() { event def_x; }
             fn main() { gen(); p: skip; }",
        );
        let mut df = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
        df.solve();
        assert_eq!(df.facts_at(cfg.label_node("p").unwrap()) & 1, 1);
    }

    #[test]
    fn loops_terminate_and_accumulate() {
        let (cfg, spec) = setup("fn main() { while (*) { event def_x; } p: skip; }");
        let mut df = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
        df.solve();
        // Zero or more iterations: x may hold at p.
        assert_eq!(df.facts_at(cfg.label_node("p").unwrap()) & 1, 1);
    }

    #[test]
    fn unreachable_code_has_no_facts() {
        let (cfg, spec) = setup("fn main() { return; u: event def_x; v: skip; }");
        let mut df = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
        df.solve();
        assert_eq!(df.facts_at(cfg.label_after("u").unwrap()), 0);
        assert!(!df.reachable(cfg.label_after("u").unwrap()));
    }
}
