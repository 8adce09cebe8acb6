//! Forward may-dataflow via annotated set constraints.

use rasc_cfgir::{Cfg, CfgError, EdgeLabel, NodeId};
use rasc_core::algebra::{AnnId, GenKillAlgebra};
use rasc_core::{ConsId, SetExpr, System, VarId, Variance};

use crate::spec::GenKillSpec;
use crate::well_formed;

/// A context-sensitive forward may-analysis: which facts *may* hold at
/// each program point, for executions from the entry with no initial
/// facts.
///
/// The encoding mirrors the model checker's (§6.1): one variable per CFG
/// node, `pc` seeded at the entry, event edges annotated with their
/// gen/kill transfer, and per-call-site constructors matching call/return
/// paths — which is exactly what makes the analysis context-sensitive
/// (facts generated in one calling context do not leak into another).
#[derive(Debug)]
pub struct ConstraintDataflow {
    sys: System<GenKillAlgebra>,
    node_vars: Vec<VarId>,
    pc: ConsId,
    facts: Vec<u64>,
}

impl ConstraintDataflow {
    /// Builds the analysis for `spec` over `cfg`, starting at `entry`.
    ///
    /// # Errors
    ///
    /// Returns [`CfgError::MissingEntry`] if `entry` is missing.
    pub fn new(cfg: &Cfg, spec: &GenKillSpec, entry: &str) -> Result<ConstraintDataflow, CfgError> {
        let entry_node = cfg.entry(entry)?.entry;
        let mut sys = System::new(GenKillAlgebra::new(spec.num_facts() as u32));
        let node_vars: Vec<VarId> = (0..cfg.num_nodes())
            .map(|i| sys.var(&format!("S{i}")))
            .collect();
        let pc = sys.constructor("pc", &[]);
        well_formed(sys.add(
            SetExpr::cons(pc, []),
            SetExpr::var(node_vars[entry_node.index()]),
        ));

        for (from, to, label) in cfg.edges() {
            let ann = match label {
                EdgeLabel::Plain => None,
                EdgeLabel::Event { name, .. } => spec
                    .effect(name)
                    .map(|(g, k)| sys.algebra_mut().transfer(g, k)),
            };
            let lhs = SetExpr::var(node_vars[from.index()]);
            let rhs = SetExpr::var(node_vars[to.index()]);
            well_formed(match ann {
                Some(a) => sys.add_ann(lhs, rhs, a),
                None => sys.add(lhs, rhs),
            });
        }
        for site in cfg.call_sites() {
            let callee = &cfg.functions()[site.callee.index()];
            let o_i = sys.constructor(&format!("o{}", site.id.index()), &[Variance::Covariant]);
            well_formed(sys.add(
                SetExpr::cons_vars(o_i, [node_vars[site.call_node.index()]]),
                SetExpr::var(node_vars[callee.entry.index()]),
            ));
            well_formed(sys.add(
                SetExpr::proj(o_i, 0, node_vars[callee.exit.index()]),
                SetExpr::var(node_vars[site.return_node.index()]),
            ));
        }

        Ok(ConstraintDataflow {
            sys,
            node_vars,
            pc,
            facts: Vec::new(),
        })
    }

    /// Solves the constraints and computes per-node fact vectors: the
    /// union of the fact vectors (the gen/kill algebra's classes) with
    /// which `pc` reaches each node.
    pub fn solve(&mut self) {
        self.sys.solve();
        let occ = self.sys.constant_occurrence_classes(self.pc);
        self.facts = self
            .node_vars
            .iter()
            .map(|&v| occ[v.index()].iter().fold(0u64, |m, &c| m | c))
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
        let var = self.node_vars[n.index()];
        self.sys.occurrence_annotations(var, self.pc)
    }

    /// The underlying constraint system, for diagnostics.
    pub fn system(&self) -> &System<GenKillAlgebra> {
        &self.sys
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
