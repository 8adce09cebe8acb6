//! P-automata: finite automata over pushdown configurations.

use std::collections::{HashMap, HashSet, VecDeque};

/// A P-automaton recognizing a regular set of pushdown configurations
/// `⟨p, w⟩`: the automaton's first `n_controls` states are the PDS's
/// control states; a configuration is accepted when the stack word `w`
/// (top first) is accepted starting from state `p`.
#[derive(Debug, Clone, Default)]
pub struct ConfigAutomaton {
    n_controls: usize,
    n_states: usize,
    /// Transitions `(from, stack symbol) → {to}`.
    trans: HashMap<(u32, u32), HashSet<u32>>,
    finals: HashSet<u32>,
}

impl ConfigAutomaton {
    /// Creates an automaton whose states `0..n_controls` are the PDS
    /// control states.
    pub fn new(n_controls: usize) -> ConfigAutomaton {
        ConfigAutomaton {
            n_controls,
            n_states: n_controls,
            trans: HashMap::new(),
            finals: HashSet::new(),
        }
    }

    /// Number of control states.
    pub fn n_controls(&self) -> usize {
        self.n_controls
    }

    /// Total number of states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Adds a fresh non-control state.
    pub fn add_state(&mut self) -> u32 {
        let Ok(id) = u32::try_from(self.n_states) else {
            panic!("capacity overflow: too many automaton states (limit 2^32)");
        };
        self.n_states += 1;
        id
    }

    /// Marks a state final.
    pub fn set_final(&mut self, q: u32) {
        self.finals.insert(q);
    }

    /// Whether `q` is final.
    pub fn is_final(&self, q: u32) -> bool {
        self.finals.contains(&q)
    }

    /// Adds the transition `from --γ--> to`; returns `false` if present.
    pub fn add_transition(&mut self, from: u32, gamma: u32, to: u32) -> bool {
        self.trans.entry((from, gamma)).or_default().insert(to)
    }

    /// Whether the transition exists.
    pub fn has_transition(&self, from: u32, gamma: u32, to: u32) -> bool {
        self.trans
            .get(&(from, gamma))
            .is_some_and(|s| s.contains(&to))
    }

    /// The targets of `from --γ-->`.
    pub fn targets(&self, from: u32, gamma: u32) -> impl Iterator<Item = u32> + '_ {
        self.trans
            .get(&(from, gamma))
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// All transitions, in arbitrary order.
    pub fn transitions(&self) -> impl Iterator<Item = (u32, u32, u32)> + '_ {
        self.trans
            .iter()
            .flat_map(|(&(from, gamma), tos)| tos.iter().map(move |&to| (from, gamma, to)))
    }

    /// Whether the configuration `⟨control, stack⟩` (top of stack first)
    /// is accepted.
    pub fn accepts(&self, control: u32, stack: &[u32]) -> bool {
        let mut current: HashSet<u32> = HashSet::from([control]);
        for &gamma in stack {
            let mut next = HashSet::new();
            for &q in &current {
                next.extend(self.targets(q, gamma));
            }
            current = next;
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|&q| self.is_final(q))
    }

    /// Whether *any* configuration with the given control is accepted —
    /// i.e. whether the control state is reachable (for saturated
    /// automata).
    pub fn control_nonempty(&self, control: u32) -> bool {
        // BFS from `control` to a final state.
        let mut seen = HashSet::from([control]);
        let mut queue = VecDeque::from([control]);
        while let Some(q) = queue.pop_front() {
            if self.is_final(q) {
                return true;
            }
            for (&(from, _), tos) in &self.trans {
                if from == q {
                    for &to in tos {
                        if seen.insert(to) {
                            queue.push_back(to);
                        }
                    }
                }
            }
        }
        false
    }

    /// Whether some accepted configuration with the given control has
    /// `gamma` on top of the stack.
    pub fn head_reachable(&self, control: u32, gamma: u32) -> bool {
        self.targets(control, gamma).any(|q| self.nonempty_from(q))
    }

    fn nonempty_from(&self, start: u32) -> bool {
        let mut seen = HashSet::from([start]);
        let mut queue = VecDeque::from([start]);
        while let Some(q) = queue.pop_front() {
            if self.is_final(q) {
                return true;
            }
            for (&(from, _), tos) in &self.trans {
                if from == q {
                    for &to in tos {
                        if seen.insert(to) {
                            queue.push_back(to);
                        }
                    }
                }
            }
        }
        false
    }

    /// Number of transitions.
    pub fn num_transitions(&self) -> usize {
        self.trans.values().map(HashSet::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_configurations() {
        let mut a = ConfigAutomaton::new(2);
        let f = a.add_state();
        a.set_final(f);
        a.add_transition(0, 7, f);
        a.add_transition(1, 7, 1);
        a.add_transition(1, 8, f);
        assert!(a.accepts(0, &[7]));
        assert!(!a.accepts(0, &[8]));
        assert!(a.accepts(1, &[7, 7, 8]));
        assert!(!a.accepts(1, &[7]));
    }

    #[test]
    fn control_emptiness() {
        let mut a = ConfigAutomaton::new(2);
        let f = a.add_state();
        a.set_final(f);
        a.add_transition(0, 3, f);
        assert!(a.control_nonempty(0));
        assert!(!a.control_nonempty(1));
        assert!(a.head_reachable(0, 3));
        assert!(!a.head_reachable(0, 4));
    }

    #[test]
    fn final_control_accepts_empty_stack() {
        let mut a = ConfigAutomaton::new(1);
        a.set_final(0);
        assert!(a.accepts(0, &[]));
        assert!(a.control_nonempty(0));
    }
}
