//! Backward liveness analysis on the CFG via the backward solver (§5).

use rasc_automata::{Alphabet, Dfa, SymbolId};
use rasc_cfgir::{Cfg, CfgError, EdgeLabel, NodeId};
use rasc_core::backward::{BackwardSystem, ProbeId};
use rasc_core::VarId;

/// A specification for liveness: per-fact *use* and *def* event names.
#[derive(Debug, Clone, Default)]
pub struct LivenessSpecEntry {
    /// The fact's name (e.g. a variable).
    pub fact: String,
    /// Events that use the fact (make it live backwards).
    pub uses: Vec<String>,
    /// Events that define/overwrite the fact (kill liveness backwards).
    pub defs: Vec<String>,
}

/// Backward liveness: a fact is *live* at a node when some path from the
/// node reaches a use before any def.
///
/// Each fact gets its own 3-state machine — `Start --use--> Live(accept)`,
/// `Start --def--> Dead`, with `Live`/`Dead` traps — and a
/// [`BackwardSystem`] run over the CFG (calls treated context-insensitively,
/// the regular-reachability fragment the backward solver handles; see
/// DESIGN.md). This is the paper's point that backward interprocedural
/// bit-vector problems fit the same framework with the backward congruence.
#[derive(Debug)]
pub struct Liveness {
    systems: Vec<(String, BackwardSystem, ProbeId)>,
    node_vars: Vec<VarId>,
}

impl Liveness {
    /// Builds liveness for the given facts over `cfg`.
    ///
    /// # Errors
    ///
    /// Currently infallible in practice, but kept fallible for symmetry
    /// with the other engines.
    pub fn new(cfg: &Cfg, facts: &[LivenessSpecEntry]) -> Result<Liveness, CfgError> {
        let mut systems = Vec::new();
        let mut node_vars_shared: Vec<VarId> = Vec::new();
        for entry in facts {
            // Build the per-fact 3-state machine over the alphabet of this
            // fact's relevant events.
            let mut sigma = Alphabet::new();
            let uses: Vec<SymbolId> = entry.uses.iter().map(|u| sigma.intern(u)).collect();
            let defs: Vec<SymbolId> = entry.defs.iter().map(|d| sigma.intern(d)).collect();
            let mut dfa = Dfa::new(sigma.len());
            let start = dfa.add_state(false);
            let live = dfa.add_state(true);
            let dead = dfa.add_state(false);
            dfa.set_start(start);
            for &s in &uses {
                dfa.set_transition(start, s, live);
            }
            for &s in &defs {
                // A use that is also a def (e.g. `x = x + 1`) counts as a
                // use first on the backward path; keep the use transition.
                if dfa.delta(start, s).is_none() {
                    dfa.set_transition(start, s, dead);
                }
            }
            for sym in sigma.symbols() {
                dfa.set_transition(live, sym, live);
                dfa.set_transition(dead, sym, dead);
            }

            let mut sys = BackwardSystem::new(&dfa);
            let node_vars: Vec<VarId> = (0..cfg.num_nodes())
                .map(|i| sys.var(&format!("S{i}")))
                .collect();
            let end = sys.var("$end");
            let eps = sys.identity();
            // Every point can be "the end of interest".
            for &v in &node_vars {
                sys.add_edge(v, end, eps);
            }
            for (from, to, label) in cfg.edges() {
                let ann = match label {
                    EdgeLabel::Plain => eps,
                    EdgeLabel::Event { name, .. } => match sigma.lookup(name) {
                        Some(s) => sys.word(&[s]),
                        None => eps,
                    },
                };
                sys.add_edge(node_vars[from.index()], node_vars[to.index()], ann);
            }
            for site in cfg.call_sites() {
                let callee = &cfg.functions()[site.callee.index()];
                sys.add_edge(
                    node_vars[site.call_node.index()],
                    node_vars[callee.entry.index()],
                    eps,
                );
                sys.add_edge(
                    node_vars[callee.exit.index()],
                    node_vars[site.return_node.index()],
                    eps,
                );
            }
            let probe = sys.probe(end, &entry.fact);
            node_vars_shared = node_vars;
            systems.push((entry.fact.clone(), sys, probe));
        }
        Ok(Liveness {
            systems,
            node_vars: node_vars_shared,
        })
    }

    /// Runs all per-fact backward solvers.
    pub fn solve(&mut self) {
        for (_, sys, _) in &mut self.systems {
            sys.solve();
        }
    }

    /// Whether `fact` is live at node `n`.
    ///
    /// # Panics
    ///
    /// Panics if `fact` was not declared.
    pub fn live_at(&self, fact: &str, n: NodeId) -> bool {
        let (_, sys, probe) = self
            .systems
            .iter()
            .find(|(f, _, _)| f == fact)
            .unwrap_or_else(|| panic!("unknown fact `{fact}`"));
        sys.reaches_accepting(*probe, self.node_vars[n.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_cfgir::Program;

    fn liveness(src: &str) -> (Cfg, Liveness) {
        let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
        let facts = vec![LivenessSpecEntry {
            fact: "x".to_owned(),
            uses: vec!["use_x".to_owned()],
            defs: vec!["def_x".to_owned()],
        }];
        let mut l = Liveness::new(&cfg, &facts).unwrap();
        l.solve();
        (cfg, l)
    }

    #[test]
    fn live_before_use_dead_after() {
        let (cfg, l) = liveness("fn main() { a: skip; b: event use_x; c: skip; }");
        assert!(l.live_at("x", cfg.label_node("a").unwrap()));
        assert!(l.live_at("x", cfg.label_node("b").unwrap()));
        assert!(!l.live_at("x", cfg.label_node("c").unwrap()));
    }

    #[test]
    fn def_kills_liveness_backward() {
        let (cfg, l) = liveness("fn main() { a: skip; b: event def_x; c: event use_x; d: skip; }");
        assert!(
            !l.live_at("x", cfg.label_node("a").unwrap()),
            "def shadows the use"
        );
        assert!(l.live_at("x", cfg.label_node("c").unwrap()));
    }

    #[test]
    fn branch_makes_live_on_some_path() {
        let (cfg, l) = liveness(
            "fn main() { a: skip; if (*) { event def_x; } else { skip; } u: event use_x; }",
        );
        // On the else path the use is reached without a def.
        assert!(l.live_at("x", cfg.label_node("a").unwrap()));
    }

    #[test]
    fn interprocedural_use_in_callee() {
        let (cfg, l) = liveness(
            "fn f() { event use_x; }
             fn main() { a: skip; f(); b: skip; }",
        );
        assert!(l.live_at("x", cfg.label_node("a").unwrap()));
        assert!(!l.live_at("x", cfg.label_node("b").unwrap()));
    }
}
