//! A classical backward iterative liveness solver, used as a
//! cross-validation oracle for the backward-congruence engine
//! ([`crate::Liveness`]).

use std::collections::{HashSet, VecDeque};

use rasc_cfgir::{Cfg, EdgeLabel, NodeId};

use crate::liveness::LivenessSpecEntry;

/// Classical backward may-liveness over the CFG (calls treated
/// context-insensitively, matching [`crate::Liveness`]'s fragment): a fact
/// is live at a node when some forward path reaches a use before a def.
#[derive(Debug)]
pub struct IterativeLiveness {
    facts: Vec<String>,
    /// live[fact][node]
    live: Vec<Vec<bool>>,
}

impl IterativeLiveness {
    /// Builds and solves liveness for the given facts over `cfg`.
    pub fn solve(cfg: &Cfg, facts: &[LivenessSpecEntry]) -> IterativeLiveness {
        // Forward adjacency with per-edge (use?, def?) classification per
        // fact, walked backward.
        let n = cfg.num_nodes();
        let mut live_all = Vec::new();
        for entry in facts {
            // Edges: (from, to, effect) where effect: 0 = none, 1 = use,
            // 2 = def (use wins when both, matching the engine).
            let uses: HashSet<&str> = entry.uses.iter().map(String::as_str).collect();
            let defs: HashSet<&str> = entry.defs.iter().map(String::as_str).collect();
            let mut edges: Vec<(usize, usize, u8)> = Vec::new();
            for (from, to, label) in cfg.edges() {
                let effect = match label {
                    EdgeLabel::Plain => 0,
                    EdgeLabel::Event { name, .. } => {
                        if uses.contains(name.as_str()) {
                            1
                        } else if defs.contains(name.as_str()) {
                            2
                        } else {
                            0
                        }
                    }
                };
                edges.push((from.index(), to.index(), effect));
            }
            for site in cfg.call_sites() {
                let callee = &cfg.functions()[site.callee.index()];
                edges.push((site.call_node.index(), callee.entry.index(), 0));
                edges.push((callee.exit.index(), site.return_node.index(), 0));
            }
            // live(n) = ∃ edge n→m: effect = use, or (effect = none and
            // live(m)). A def edge kills the path.
            let mut live = vec![false; n];
            let mut incoming: Vec<Vec<usize>> = vec![Vec::new(); n];
            for (i, &(from, _, _)) in edges.iter().enumerate() {
                incoming[from].push(i);
                let _ = i;
            }
            let mut work: VecDeque<usize> = VecDeque::new();
            // Seed: sources of use edges.
            for &(from, _, effect) in &edges {
                if effect == 1 && !live[from] {
                    live[from] = true;
                    work.push_back(from);
                }
            }
            // Propagate backward along effect-free edges.
            let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
            for &(from, to, effect) in &edges {
                if effect == 0 {
                    preds[to].push(from);
                }
            }
            while let Some(node) = work.pop_front() {
                for &p in &preds[node] {
                    if !live[p] {
                        live[p] = true;
                        work.push_back(p);
                    }
                }
            }
            live_all.push(live);
        }
        IterativeLiveness {
            facts: facts.iter().map(|e| e.fact.clone()).collect(),
            live: live_all,
        }
    }

    /// Whether `fact` is live at `n`.
    ///
    /// # Panics
    ///
    /// Panics if `fact` was not declared.
    pub fn live_at(&self, fact: &str, n: NodeId) -> bool {
        let i = self
            .facts
            .iter()
            .position(|f| f == fact)
            .unwrap_or_else(|| panic!("unknown fact `{fact}`"));
        self.live[i][n.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Liveness;
    use rasc_cfgir::Program;

    fn spec() -> Vec<LivenessSpecEntry> {
        vec![LivenessSpecEntry {
            fact: "x".to_owned(),
            uses: vec!["use_x".to_owned()],
            defs: vec!["def_x".to_owned()],
        }]
    }

    #[test]
    fn agrees_with_backward_solver_on_hand_programs() {
        let programs = [
            "fn main() { a: skip; b: event use_x; c: skip; }",
            "fn main() { a: skip; b: event def_x; c: event use_x; }",
            "fn main() { if (*) { event def_x; } else { skip; } u: event use_x; }",
            "fn f() { event use_x; } fn main() { a: skip; f(); b: skip; }",
            "fn main() { while (*) { event use_x; event def_x; } done: skip; }",
        ];
        for src in programs {
            let cfg = rasc_cfgir::Cfg::build(&Program::parse(src).unwrap()).unwrap();
            let mut engine = Liveness::new(&cfg, &spec()).unwrap();
            engine.solve();
            let oracle = IterativeLiveness::solve(&cfg, &spec());
            for node in 0..cfg.num_nodes() {
                let n = rasc_cfgir::NodeId::from_index(node);
                assert_eq!(
                    engine.live_at("x", n),
                    oracle.live_at("x", n),
                    "node {node} of:\n{src}"
                );
            }
        }
    }
}
