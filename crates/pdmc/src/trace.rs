//! Witness event traces for violations.
//!
//! The constraint solutions already provide a witness *stack* (§6.2: the
//! ground term's constructors are the unreturned call sites). For
//! reporting, an *event trace* — the property-relevant statements along a
//! path from the entry to the violation — is also useful. This module
//! reconstructs one by BFS over the product of the CFG and the property
//! machine, treating calls context-insensitively (the trace is a shortest
//! product-graph path; like MOPS's reported traces it may in rare
//! recursive cases be infeasible with respect to exact call/return
//! matching, while the *verdict* always comes from the exact checker).

use std::collections::{HashMap, VecDeque};

use rasc_automata::{Alphabet, Dfa, StateId, SymbolId};
use rasc_cfgir::{Cfg, EdgeLabel, NodeId};

/// One step of a witness trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceStep {
    /// A property-relevant event fired, moving the machine to `state`.
    Event {
        /// The event name.
        name: String,
        /// The property state after the event.
        state: StateId,
    },
    /// Control entered a function.
    Call {
        /// The callee's name.
        callee: String,
    },
    /// Control returned from a function.
    Return {
        /// The callee's name.
        callee: String,
    },
}

/// Reconstructs a shortest event trace from `entry`'s start configuration
/// to `target` with the property machine in an accepting (error) state.
///
/// Returns `None` when no such product path exists (e.g. the node is not
/// a violation).
pub fn witness_trace(
    cfg: &Cfg,
    sigma: &Alphabet,
    property: &Dfa,
    entry: &str,
    target: NodeId,
) -> Option<Vec<TraceStep>> {
    let machine = property.complete();
    let entry_node = cfg.entry(entry).ok()?.entry;
    let start = (entry_node, machine.start()?);

    // Product adjacency: intraprocedural edges plus call/return edges.
    #[derive(Clone)]
    enum Via {
        Plain,
        Event(String, SymbolId),
        Call(String),
        Return(String),
    }
    let mut adj: HashMap<NodeId, Vec<(NodeId, Via)>> = HashMap::new();
    for (from, to, label) in cfg.edges() {
        let via = match label {
            EdgeLabel::Plain => Via::Plain,
            EdgeLabel::Event { name, .. } => match sigma.lookup(name) {
                Some(sym) => Via::Event(name.clone(), sym),
                None => Via::Plain,
            },
        };
        adj.entry(*from).or_default().push((*to, via));
    }
    for site in cfg.call_sites() {
        let callee = &cfg.functions()[site.callee.index()];
        adj.entry(site.call_node)
            .or_default()
            .push((callee.entry, Via::Call(callee.name.clone())));
        adj.entry(callee.exit)
            .or_default()
            .push((site.return_node, Via::Return(callee.name.clone())));
    }

    // BFS over (node, state).
    type ProductPoint = (NodeId, StateId);
    let mut parents: HashMap<ProductPoint, (ProductPoint, Option<TraceStep>)> = HashMap::new();
    let mut queue = VecDeque::from([start]);
    parents.insert(start, (start, None));
    while let Some((node, state)) = queue.pop_front() {
        if node == target && machine.is_accepting(state) {
            // Reconstruct.
            let mut steps = Vec::new();
            let mut cur = (node, state);
            while cur != start {
                let (prev, step) = parents[&cur].clone();
                if let Some(s) = step {
                    steps.push(s);
                }
                cur = prev;
            }
            steps.reverse();
            return Some(steps);
        }
        for (next_node, via) in adj.get(&node).cloned().unwrap_or_default() {
            let (next_state, step) = match &via {
                Via::Plain => (state, None),
                Via::Event(name, sym) => {
                    // An undefined transition would end the run; the
                    // completed machine has none.
                    let Some(s2) = machine.delta(state, *sym) else {
                        continue;
                    };
                    (
                        s2,
                        Some(TraceStep::Event {
                            name: name.clone(),
                            state: s2,
                        }),
                    )
                }
                Via::Call(callee) => (
                    state,
                    Some(TraceStep::Call {
                        callee: callee.clone(),
                    }),
                ),
                Via::Return(callee) => (
                    state,
                    Some(TraceStep::Return {
                        callee: callee.clone(),
                    }),
                ),
            };
            let key = (next_node, next_state);
            if let std::collections::hash_map::Entry::Vacant(e) = parents.entry(key) {
                e.insert(((node, state), step));
                queue.push_back(key);
            }
        }
    }
    None
}

/// Renders a trace compactly for diagnostics, e.g.
/// `"seteuid_zero → call helper → execl"`.
pub fn render_trace(steps: &[TraceStep]) -> String {
    let parts: Vec<String> = steps
        .iter()
        .map(|s| match s {
            TraceStep::Event { name, .. } => name.clone(),
            TraceStep::Call { callee } => format!("call {callee}"),
            TraceStep::Return { callee } => format!("ret {callee}"),
        })
        .collect();
    parts.join(" → ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;
    use rasc_automata::PropertySpec;
    use rasc_cfgir::Program;

    fn setup(src: &str) -> (Cfg, Alphabet, Dfa) {
        let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
        let (sigma, dfa) = PropertySpec::parse(properties::SIMPLE_PRIVILEGE)
            .unwrap()
            .compile();
        (cfg, sigma, dfa)
    }

    #[test]
    fn straight_line_trace() {
        let (cfg, sigma, dfa) =
            setup("fn main() { event seteuid_zero; event execl; after: skip; }");
        let target = cfg.label_node("after").unwrap();
        let trace = witness_trace(&cfg, &sigma, &dfa, "main", target).expect("violation");
        let rendered = render_trace(&trace);
        assert_eq!(rendered, "seteuid_zero → execl");
    }

    #[test]
    fn trace_takes_the_violating_branch() {
        let (cfg, sigma, dfa) = setup(
            "fn main() {
                event seteuid_zero;
                if (*) { event seteuid_nonzero; } else { skip; }
                event execl;
                after: skip;
            }",
        );
        let target = cfg.label_node("after").unwrap();
        let trace = witness_trace(&cfg, &sigma, &dfa, "main", target).expect("violation");
        let rendered = render_trace(&trace);
        // The witness must avoid the privilege-dropping branch.
        assert!(!rendered.contains("seteuid_nonzero"), "{rendered}");
        assert!(rendered.ends_with("execl"));
    }

    #[test]
    fn interprocedural_trace_shows_calls() {
        let (cfg, sigma, dfa) = setup(
            "fn doexec() { event execl; done: skip; }
             fn main() { event seteuid_zero; doexec(); }",
        );
        let target = cfg.label_node("done").unwrap();
        let trace = witness_trace(&cfg, &sigma, &dfa, "main", target).expect("violation");
        let rendered = render_trace(&trace);
        assert_eq!(rendered, "seteuid_zero → call doexec → execl");
    }

    #[test]
    fn safe_points_have_no_trace() {
        let (cfg, sigma, dfa) = setup(
            "fn main() { ok: event seteuid_zero; event seteuid_nonzero; event execl; done: skip; }",
        );
        // Before anything happens the machine cannot be in the error state.
        let before = cfg.label_node("ok").unwrap();
        assert!(witness_trace(&cfg, &sigma, &dfa, "main", before).is_none());
        // And on this program privileges are dropped: no violation at all.
        let done = cfg.label_node("done").unwrap();
        assert!(witness_trace(&cfg, &sigma, &dfa, "main", done).is_none());
    }
}
