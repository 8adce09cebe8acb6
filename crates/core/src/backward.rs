//! The backward unidirectional solver (paper §5).
//!
//! The backward construction is symmetric to the forward one, using a
//! *left* congruence: `w ≡_l w' ⇔ ∀x. xw ∈ L(M) iff xw' ∈ L(M)`. The
//! class of a function `f` under `≡_l` is determined by its *acceptance
//! set* `B_f = { s | f(s) ∈ S_accept }`, and composing an earlier function
//! `g` is the preimage `B_{f∘g} = g⁻¹(B_f)` — computable from the class
//! alone. Classes are stored as bitmasks (machines up to 64 states).
//!
//! This solver handles the *regular-reachability fragment*: annotated
//! variable-variable edges with *probes* (accepting sinks) propagated
//! backward. That is exactly the shape of backward interprocedural
//! bit-vector dataflow (liveness-style analyses over the CFG); constructor
//! decomposition through annotated paths requires full representative
//! functions and hence the bidirectional solver (see DESIGN.md).

use std::collections::VecDeque;

use rasc_automata::{Dfa, StateId};

use crate::algebra::{Algebra, AnnId, MonoidAlgebra};
use crate::idhash::IdMap;
use crate::solver::VarId;

/// A probe id: a named accepting sink registered with
/// [`BackwardSystem::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProbeId(u32);

#[derive(Debug, Default)]
struct VarData {
    name: String,
    /// Reversed adjacency: incoming edges `(source var, annotation)`.
    preds: IdMap<VarId, Vec<AnnId>>,
    /// Per-probe acceptance-set classes (bitmask over machine states).
    classes: IdMap<ProbeId, Vec<u64>>,
}

/// A backward solver for the regular-reachability fragment of annotated
/// set constraints.
///
/// # Example
///
/// Liveness-style backward reachability:
///
/// ```
/// use rasc_automata::{Alphabet, Dfa};
/// use rasc_core::backward::BackwardSystem;
///
/// let mut sigma = Alphabet::new();
/// let g = sigma.intern("g");
/// let k = sigma.intern("k");
/// let m = Dfa::one_bit(&sigma, g, k);
/// let mut sys = BackwardSystem::new(&m);
/// let (x, y, z) = (sys.var("X"), sys.var("Y"), sys.var("Z"));
/// let fg = sys.word(&[g]);
/// let fk = sys.word(&[k]);
/// sys.add_edge(x, y, fg);
/// sys.add_edge(y, z, fk);
/// let p = sys.probe(z, "use");
/// sys.solve();
/// // From x, the path carries g then k: the fact is killed, not live.
/// assert!(!sys.reaches_accepting(p, x));
/// // From y, the path carries only k — still not accepting.
/// assert!(!sys.reaches_accepting(p, y));
/// // A direct edge with g is accepting from its source.
/// let w = sys.var("W");
/// sys.add_edge(w, z, fg);
/// sys.solve();
/// assert!(sys.reaches_accepting(p, w));
/// ```
#[derive(Debug)]
pub struct BackwardSystem {
    algebra: MonoidAlgebra,
    vars: Vec<VarData>,
    probes: Vec<(VarId, String)>,
    worklist: VecDeque<(VarId, ProbeId, u64)>,
    facts_processed: usize,
}

impl BackwardSystem {
    /// Creates a backward solver over the annotation language `L(machine)`.
    ///
    /// # Panics
    ///
    /// Panics if the minimized machine has more than 64 states (classes are
    /// bitmasks).
    pub fn new(machine: &Dfa) -> BackwardSystem {
        let algebra = MonoidAlgebra::new(machine);
        assert!(
            algebra.monoid().n_states() <= 64,
            "backward solver supports machines up to 64 states"
        );
        BackwardSystem {
            algebra,
            vars: Vec::new(),
            probes: Vec::new(),
            worklist: VecDeque::new(),
            facts_processed: 0,
        }
    }

    /// Interns the annotation for a word.
    pub fn word(&mut self, word: &[rasc_automata::SymbolId]) -> AnnId {
        self.algebra.word(word)
    }

    /// The identity annotation.
    pub fn identity(&self) -> AnnId {
        self.algebra.identity()
    }

    /// Creates a fresh set variable.
    pub fn var(&mut self, name: &str) -> VarId {
        let id = VarId(crate::id_u32(self.vars.len(), "variables"));
        self.vars.push(VarData {
            name: name.to_owned(),
            ..VarData::default()
        });
        id
    }

    /// The diagnostic name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Adds an annotated edge `X ⊆^f Y`.
    pub fn add_edge(&mut self, x: VarId, y: VarId, ann: AnnId) {
        if insert(self.vars[y.index()].preds.entry(x).or_default(), ann) {
            // Re-propagate y's classes across the new edge.
            let classes: Vec<(ProbeId, u64)> = self.vars[y.index()]
                .classes
                .iter()
                .flat_map(|(&p, ms)| ms.iter().map(move |&m| (p, m)))
                .collect();
            for (p, mask) in classes {
                let m2 = self.preimage(ann, mask);
                self.worklist.push_back((x, p, m2));
            }
        }
    }

    /// Registers an accepting probe at `x`: the sink `X ⊆ ⟨accept⟩`.
    ///
    /// The initial class is the machine's accepting-state set.
    pub fn probe(&mut self, x: VarId, name: &str) -> ProbeId {
        let id = ProbeId(crate::id_u32(self.probes.len(), "probes"));
        self.probes.push((x, name.to_owned()));
        let mut mask = 0u64;
        for s in 0..self.algebra.monoid().n_states() {
            if self.algebra.state_accepting(StateId::from_index(s)) {
                mask |= 1 << s;
            }
        }
        self.worklist.push_back((x, id, mask));
        id
    }

    /// `g⁻¹(B)`: the class of `f ∘ g` given the class `B` of `f`.
    fn preimage(&self, g: AnnId, mask: u64) -> u64 {
        let mut out = 0u64;
        for s in 0..self.algebra.monoid().n_states() {
            let img = self.algebra.apply(g, StateId::from_index(s));
            if mask & (1 << img.index()) != 0 {
                out |= 1 << s;
            }
        }
        out
    }

    /// Runs backward propagation to a fixpoint.
    pub fn solve(&mut self) {
        while let Some((x, p, mask)) = self.worklist.pop_front() {
            self.facts_processed += 1;
            if mask == 0 {
                // The empty class can never accept; prune (the backward
                // analogue of dropping useless annotations).
                continue;
            }
            if !insert_mask(self.vars[x.index()].classes.entry(p).or_default(), mask) {
                continue;
            }
            let preds: Vec<(VarId, AnnId)> = self.vars[x.index()]
                .preds
                .iter()
                .flat_map(|(&w, gs)| gs.iter().map(move |&g| (w, g)))
                .collect();
            for (w, g) in preds {
                let m2 = self.preimage(g, mask);
                self.worklist.push_back((w, p, m2));
            }
        }
    }

    /// Whether a term entering `x` with the empty word reaches the probe
    /// along a path whose total word is in `L(M)` — i.e. whether the start
    /// state lies in one of `x`'s classes.
    pub fn reaches_accepting(&self, p: ProbeId, x: VarId) -> bool {
        self.from_state_reaches(p, x, self.algebra.start_state())
    }

    /// Like [`BackwardSystem::reaches_accepting`] but for a term whose own
    /// annotation already moved the machine to `s`.
    pub fn from_state_reaches(&self, p: ProbeId, x: VarId, s: StateId) -> bool {
        self.vars[x.index()]
            .classes
            .get(&p)
            .is_some_and(|masks| masks.iter().any(|m| m & (1 << s.index()) != 0))
    }

    /// The classes recorded at `x` for probe `p` (for diagnostics).
    pub fn classes(&self, p: ProbeId, x: VarId) -> Vec<u64> {
        self.vars[x.index()]
            .classes
            .get(&p)
            .cloned()
            .unwrap_or_default()
    }

    /// `(variables, facts processed)` counters.
    pub fn stats(&self) -> (usize, usize) {
        (self.vars.len(), self.facts_processed)
    }
}

fn insert(set: &mut Vec<AnnId>, a: AnnId) -> bool {
    match set.binary_search(&a) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, a);
            true
        }
    }
}

fn insert_mask(set: &mut Vec<u64>, m: u64) -> bool {
    match set.binary_search(&m) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, m);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_automata::Alphabet;

    fn one_bit() -> (Alphabet, Dfa) {
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        let dfa = Dfa::one_bit(&sigma, g, k);
        (sigma, dfa)
    }

    #[test]
    fn liveness_style_backward_flow() {
        let (sigma, m) = one_bit();
        let g = sigma.lookup("g").unwrap();
        let k = sigma.lookup("k").unwrap();
        let mut sys = BackwardSystem::new(&m);
        // Chain a --g--> b --eps--> c --k--> d, probe at d.
        let (a, b, c, d) = (sys.var("a"), sys.var("b"), sys.var("c"), sys.var("d"));
        let fg = sys.word(&[g]);
        let fk = sys.word(&[k]);
        let e = sys.identity();
        sys.add_edge(a, b, fg);
        sys.add_edge(b, c, e);
        sys.add_edge(c, d, fk);
        let p = sys.probe(d, "exit");
        sys.solve();
        // Total word from a: g·ε·k = killed ⇒ not accepting.
        assert!(!sys.reaches_accepting(p, a));
        // A second path without the kill.
        sys.add_edge(b, d, e);
        sys.solve();
        assert!(sys.reaches_accepting(p, a), "g then ε accepts");
        assert!(!sys.reaches_accepting(p, c), "only k from c");
    }

    #[test]
    fn classes_collapse_to_acceptance_sets() {
        let (sigma, m) = one_bit();
        let g = sigma.lookup("g").unwrap();
        let k = sigma.lookup("k").unwrap();
        let mut sys = BackwardSystem::new(&m);
        let (a, z) = (sys.var("a"), sys.var("z"));
        let fg = sys.word(&[g]);
        let fk = sys.word(&[k]);
        // Many parallel 2-edge paths; classes at `a` stay ≤ 2^|S| = 4.
        for i in 0..12 {
            let mid = sys.var(&format!("m{i}"));
            sys.add_edge(a, mid, if i % 2 == 0 { fg } else { fk });
            sys.add_edge(mid, z, if i % 3 == 0 { fg } else { fk });
        }
        let p = sys.probe(z, "z");
        sys.solve();
        assert!(sys.classes(p, a).len() <= 4);
        assert!(sys.reaches_accepting(p, a));
    }

    #[test]
    fn incremental_edges_repropagate() {
        let (sigma, m) = one_bit();
        let g = sigma.lookup("g").unwrap();
        let mut sys = BackwardSystem::new(&m);
        let (a, z) = (sys.var("a"), sys.var("z"));
        let p = sys.probe(z, "z");
        sys.solve();
        assert!(!sys.reaches_accepting(p, a));
        let fg = sys.word(&[g]);
        sys.add_edge(a, z, fg);
        sys.solve();
        assert!(sys.reaches_accepting(p, a));
    }
}
