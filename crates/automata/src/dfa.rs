//! Deterministic finite automata: completion, minimization, products.

use std::collections::{HashMap, VecDeque};

use crate::alphabet::{Alphabet, SymbolId};
use crate::nfa::Nfa;

/// A state of a [`Dfa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub(crate) u32);

impl StateId {
    /// Builds a state id from a raw index. The caller must ensure the
    /// index is valid for the automaton it will be used with.
    pub fn from_index(index: usize) -> StateId {
        StateId(crate::id_u32(index, "DFA states"))
    }

    /// The state's index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const NO_STATE: u32 = u32::MAX;

/// A deterministic finite automaton over an interned alphabet.
///
/// States are dense indices; transitions are stored in a flat
/// `states × symbols` table. A DFA may be *partial* while being built;
/// [`Dfa::complete`] adds a dead state so every `(state, symbol)` pair is
/// defined, which the transition-monoid construction requires (representative
/// functions must be total).
///
/// # Example
///
/// ```
/// use rasc_automata::{Alphabet, Dfa};
///
/// let mut sigma = Alphabet::new();
/// let a = sigma.intern("a");
/// let mut dfa = Dfa::new(sigma.len());
/// let s0 = dfa.add_state(false);
/// let s1 = dfa.add_state(true);
/// dfa.set_start(s0);
/// dfa.set_transition(s0, a, s1);
/// dfa.set_transition(s1, a, s0);
/// // L = a(aa)*
/// assert!(dfa.accepts(&[a]));
/// assert!(!dfa.accepts(&[a, a]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dfa {
    alphabet_len: usize,
    /// Flat `state * alphabet_len + symbol` table; `NO_STATE` = undefined.
    trans: Vec<u32>,
    accepting: Vec<bool>,
    start: Option<StateId>,
}

impl Dfa {
    /// Creates an empty DFA over an alphabet with `alphabet_len` symbols.
    pub fn new(alphabet_len: usize) -> Self {
        Dfa {
            alphabet_len,
            trans: Vec::new(),
            accepting: Vec::new(),
            start: None,
        }
    }

    /// The paper's Figure 1: the minimal DFA for the 1-bit gen/kill
    /// language (`g` generates a fact, `k` kills it; a word is accepted iff
    /// the fact holds afterwards).
    ///
    /// State 0 = fact absent (start), state 1 = fact present (accepting).
    pub fn one_bit(alphabet: &Alphabet, gen: SymbolId, kill: SymbolId) -> Self {
        let mut dfa = Dfa::new(alphabet.len());
        let s0 = dfa.add_state(false);
        let s1 = dfa.add_state(true);
        dfa.set_start(s0);
        dfa.set_transition(s0, gen, s1);
        dfa.set_transition(s0, kill, s0);
        dfa.set_transition(s1, gen, s1);
        dfa.set_transition(s1, kill, s0);
        // Symbols other than gen/kill (if any) self-loop: they are
        // irrelevant to this fact.
        for sym in alphabet.symbols() {
            if sym != gen && sym != kill {
                dfa.set_transition(s0, sym, s0);
                dfa.set_transition(s1, sym, s1);
            }
        }
        dfa
    }

    /// Number of symbols in the alphabet this DFA ranges over.
    pub fn alphabet_len(&self) -> usize {
        self.alphabet_len
    }

    /// Adds a fresh state with the given acceptance.
    pub fn add_state(&mut self, accepting: bool) -> StateId {
        let id = StateId(crate::id_u32(self.accepting.len(), "DFA states"));
        self.accepting.push(accepting);
        self.trans
            .extend(std::iter::repeat_n(NO_STATE, self.alphabet_len));
        id
    }

    /// Number of states.
    pub fn len(&self) -> usize {
        self.accepting.len()
    }

    /// Whether the DFA has no states.
    pub fn is_empty(&self) -> bool {
        self.accepting.is_empty()
    }

    /// Sets the start state.
    pub fn set_start(&mut self, s: StateId) {
        self.start = Some(s);
    }

    /// The start state, if set.
    pub fn start(&self) -> Option<StateId> {
        self.start
    }

    /// Marks or unmarks `s` as accepting.
    pub fn set_accepting(&mut self, s: StateId, accepting: bool) {
        self.accepting[s.index()] = accepting;
    }

    /// Whether `s` is accepting.
    pub fn is_accepting(&self, s: StateId) -> bool {
        self.accepting[s.index()]
    }

    /// Iterates over all states.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.len() as u32).map(StateId)
    }

    /// Sets `δ(from, sym) = to`, overwriting any previous target.
    pub fn set_transition(&mut self, from: StateId, sym: SymbolId, to: StateId) {
        debug_assert!(sym.index() < self.alphabet_len, "symbol outside alphabet");
        self.trans[from.index() * self.alphabet_len + sym.index()] = to.0;
    }

    /// `δ(from, sym)`, or `None` if undefined (partial DFA).
    pub fn delta(&self, from: StateId, sym: SymbolId) -> Option<StateId> {
        let raw = self.trans[from.index() * self.alphabet_len + sym.index()];
        (raw != NO_STATE).then_some(StateId(raw))
    }

    /// Runs the DFA on `word` from `from`, returning the final state, or
    /// `None` if a transition is undefined.
    pub fn run_from(&self, from: StateId, word: &[SymbolId]) -> Option<StateId> {
        word.iter().try_fold(from, |s, &sym| self.delta(s, sym))
    }

    /// Whether the DFA accepts `word` (from the start state).
    pub fn accepts(&self, word: &[SymbolId]) -> bool {
        let Some(start) = self.start else {
            return false;
        };
        self.run_from(start, word)
            .is_some_and(|s| self.is_accepting(s))
    }

    /// Whether every `(state, symbol)` transition is defined.
    pub fn is_complete(&self) -> bool {
        self.trans.iter().all(|&t| t != NO_STATE)
    }

    /// Returns a complete DFA accepting the same language, adding a
    /// non-accepting dead state if any transition is undefined.
    pub fn complete(&self) -> Dfa {
        if self.is_complete() {
            return self.clone();
        }
        let mut dfa = self.clone();
        let dead = dfa.add_state(false);
        for i in 0..dfa.trans.len() {
            if dfa.trans[i] == NO_STATE {
                dfa.trans[i] = dead.0;
            }
        }
        dfa
    }

    /// States reachable from the start state, indexed by state.
    pub(crate) fn reachable(&self) -> Vec<bool> {
        let mut seen = vec![false; self.len()];
        let mut queue = VecDeque::new();
        if let Some(s) = self.start {
            seen[s.index()] = true;
            queue.push_back(s);
        }
        while let Some(s) = queue.pop_front() {
            for sym_idx in 0..self.alphabet_len {
                if let Some(t) = self.delta(s, SymbolId(sym_idx as u32)) {
                    if !seen[t.index()] {
                        seen[t.index()] = true;
                        queue.push_back(t);
                    }
                }
            }
        }
        seen
    }

    /// States from which an accepting state is reachable, indexed by state.
    pub fn coreachable(&self) -> Vec<bool> {
        // Build reverse adjacency.
        let mut rev: Vec<Vec<StateId>> = vec![Vec::new(); self.len()];
        for s in self.states() {
            for sym_idx in 0..self.alphabet_len {
                if let Some(t) = self.delta(s, SymbolId(sym_idx as u32)) {
                    rev[t.index()].push(s);
                }
            }
        }
        let mut seen = vec![false; self.len()];
        let mut queue: VecDeque<StateId> = self
            .states()
            .filter(|&s| self.is_accepting(s))
            .inspect(|s| seen[s.index()] = true)
            .collect();
        while let Some(s) = queue.pop_front() {
            for &p in &rev[s.index()] {
                if !seen[p.index()] {
                    seen[p.index()] = true;
                    queue.push_back(p);
                }
            }
        }
        seen
    }

    /// The canonical minimal complete DFA for this DFA's language: Moore's
    /// partition refinement on the completed, reachable part.
    ///
    /// Refinement starts from the accepting/rejecting split. Each round
    /// gives every state a signature, its own block followed by the blocks
    /// of its successors, and renumbers the blocks by sorting the
    /// signatures; it stops when a round splits no block. States of the
    /// result are numbered in the order of their first reachable member, so
    /// the result depends only on the language and the input's numbering.
    ///
    /// The paper requires the input machine to be *minimized* — both
    /// Theorem 2.1's proof and the "no `match` operation needed" argument in
    /// §3.1 rely on it.
    pub fn minimize(&self) -> Dfa {
        let _span = rasc_obs::span("automata.minimize");
        let complete = self.complete();
        let reach = complete.reachable();
        // Map reachable states to dense indices.
        let mut dense: Vec<usize> = Vec::new();
        let mut dense_of: Vec<Option<usize>> = vec![None; complete.len()];
        for s in complete.states() {
            if reach[s.index()] {
                dense_of[s.index()] = Some(dense.len());
                dense.push(s.index());
            }
        }
        let n = dense.len();
        if n == 0 {
            // Empty language, no start: single dead state.
            let mut dfa = Dfa::new(self.alphabet_len);
            let d = dfa.add_state(false);
            dfa.set_start(d);
            for sym_idx in 0..self.alphabet_len {
                dfa.set_transition(d, SymbolId(sym_idx as u32), d);
            }
            return dfa;
        }

        // Dense successor table: succ[i * k + sym] is the dense index of
        // δ(dense[i], sym). Successors of reachable states are reachable.
        let k = self.alphabet_len;
        let mut succ: Vec<usize> = Vec::with_capacity(n * k);
        for &orig in &dense {
            for &t in &complete.trans[orig * k..(orig + 1) * k] {
                succ.push(crate::invariant(
                    dense_of[t as usize],
                    "successors of reachable states are reachable",
                ));
            }
        }

        // block[i] = block id of dense state i, starting from the
        // accepting / rejecting split.
        let mut block: Vec<u32> = dense
            .iter()
            .map(|&orig| u32::from(complete.accepting[orig]))
            .collect();
        let accepting = block.iter().filter(|&&b| b == 1).count();
        let mut nblocks = if 0 < accepting && accepting < n { 2 } else { 1 };
        let width = k + 1;
        let mut signature: Vec<u32> = vec![0; n * width];
        let mut order: Vec<usize> = (0..n).collect();
        loop {
            for i in 0..n {
                let row = &mut signature[i * width..(i + 1) * width];
                row[0] = block[i];
                for (slot, &t) in row[1..].iter_mut().zip(&succ[i * k..(i + 1) * k]) {
                    *slot = block[t];
                }
            }
            let row = |i: usize| &signature[i * width..(i + 1) * width];
            order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
            let mut last = 0;
            for (pos, &i) in order.iter().enumerate() {
                if pos > 0 && row(order[pos - 1]) != row(i) {
                    last += 1;
                }
                block[i] = last;
            }
            // Signatures start with the state's own block, so each round
            // refines the last; an equal count means an equal partition.
            let refined = last as usize + 1;
            if refined == nblocks {
                break;
            }
            nblocks = refined;
        }

        // Build the quotient machine.
        let mut dfa = Dfa::new(self.alphabet_len);
        let mut block_state: Vec<Option<StateId>> = vec![None; nblocks];
        for i in 0..n {
            let b = block[i] as usize;
            if block_state[b].is_none() {
                block_state[b] = Some(dfa.add_state(complete.accepting[dense[i]]));
            }
        }
        let state_of = |i: usize| {
            crate::invariant(
                block_state[block[i] as usize],
                "every block got a state above",
            )
        };
        for i in 0..n {
            let from = state_of(i);
            for (sym_idx, &t) in succ[i * k..(i + 1) * k].iter().enumerate() {
                dfa.set_transition(from, SymbolId(sym_idx as u32), state_of(t));
            }
        }
        let start_orig = crate::invariant(complete.start, "nonempty reachable set implies a start");
        let start_dense =
            crate::invariant(dense_of[start_orig.index()], "the start state is reachable");
        dfa.set_start(state_of(start_dense));
        rasc_obs::counter("automata.minimize.runs", 1);
        rasc_obs::histogram("automata.minimize.states", dfa.len() as u64);
        dfa
    }

    /// The product automaton accepting `L(self) ∩ L(other)` — the parallel
    /// composition with conjunctive acceptance. See [`Dfa::product_by`]
    /// for other acceptance combinations (e.g. union for multi-property
    /// checking, §2.2).
    ///
    /// Both inputs must range over the same alphabet.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ in size.
    pub fn product(&self, other: &Dfa) -> Dfa {
        self.product_by(other, |a, b| a && b)
    }

    /// The parallel composition of two machines with a caller-chosen
    /// acceptance combination: the paper's §2.2 observation that a single
    /// product machine can represent all regular properties of an
    /// application at once (`|a, b| a || b` accepts when *either* property
    /// accepts).
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ in size.
    pub fn product_by(&self, other: &Dfa, accept: impl Fn(bool, bool) -> bool) -> Dfa {
        assert_eq!(
            self.alphabet_len, other.alphabet_len,
            "product requires a common alphabet"
        );
        let a = self.complete();
        let b = other.complete();
        let mut dfa = Dfa::new(self.alphabet_len);
        let (Some(sa), Some(sb)) = (a.start, b.start) else {
            let d = dfa.add_state(false);
            dfa.set_start(d);
            for sym_idx in 0..self.alphabet_len {
                dfa.set_transition(d, SymbolId(sym_idx as u32), d);
            }
            return dfa;
        };
        let mut ids: HashMap<(StateId, StateId), StateId> = HashMap::new();
        let mut worklist = vec![(sa, sb)];
        let s0 = dfa.add_state(accept(a.is_accepting(sa), b.is_accepting(sb)));
        dfa.set_start(s0);
        ids.insert((sa, sb), s0);
        while let Some((pa, pb)) = worklist.pop() {
            let from = ids[&(pa, pb)];
            for sym_idx in 0..self.alphabet_len {
                let sym = SymbolId(sym_idx as u32);
                let ta =
                    crate::invariant(a.delta(pa, sym), "complete DFA defines every transition");
                let tb =
                    crate::invariant(b.delta(pb, sym), "complete DFA defines every transition");
                let to = *ids.entry((ta, tb)).or_insert_with(|| {
                    worklist.push((ta, tb));
                    dfa.add_state(accept(a.is_accepting(ta), b.is_accepting(tb)))
                });
                dfa.set_transition(from, sym, to);
            }
        }
        dfa
    }

    /// An NFA accepting the *reversal* of this DFA's language.
    pub fn reverse(&self) -> Nfa {
        let mut nfa = Nfa::new(self.alphabet_len);
        let states: Vec<crate::nfa::NfaStateId> = self.states().map(|_| nfa.add_state()).collect();
        let fresh_start = nfa.add_state();
        nfa.set_start(fresh_start);
        for s in self.states() {
            if self.is_accepting(s) {
                nfa.add_epsilon(fresh_start, states[s.index()]);
            }
            for sym_idx in 0..self.alphabet_len {
                if let Some(t) = self.delta(s, SymbolId(sym_idx as u32)) {
                    // Reverse the edge.
                    nfa.add_transition(
                        states[t.index()],
                        SymbolId(sym_idx as u32),
                        states[s.index()],
                    );
                }
            }
        }
        if let Some(start) = self.start {
            nfa.set_accepting(states[start.index()], true);
        }
        nfa
    }

    /// Converts to an equivalent NFA.
    pub fn to_nfa(&self) -> Nfa {
        let mut nfa = Nfa::new(self.alphabet_len);
        let states: Vec<crate::nfa::NfaStateId> = self.states().map(|_| nfa.add_state()).collect();
        for s in self.states() {
            nfa.set_accepting(states[s.index()], self.is_accepting(s));
            for sym_idx in 0..self.alphabet_len {
                if let Some(t) = self.delta(s, SymbolId(sym_idx as u32)) {
                    nfa.add_transition(
                        states[s.index()],
                        SymbolId(sym_idx as u32),
                        states[t.index()],
                    );
                }
            }
        }
        if let Some(start) = self.start {
            nfa.set_start(states[start.index()]);
        }
        nfa
    }

    /// Whether this DFA accepts the same language as `other`.
    ///
    /// Decided by a BFS over the pair graph of the completed machines
    /// (Hopcroft–Karp style without the union-find refinement; adequate for
    /// the sizes in this crate).
    pub fn equivalent(&self, other: &Dfa) -> bool {
        assert_eq!(
            self.alphabet_len, other.alphabet_len,
            "equivalence requires a common alphabet"
        );
        let a = self.complete();
        let b = other.complete();
        let (sa, sb) = match (a.start, b.start) {
            (None, None) => return true,
            (None, Some(s)) => return !b.coreachable_from(s),
            (Some(s), None) => return !a.coreachable_from(s),
            (Some(sa), Some(sb)) => (sa, sb),
        };
        let mut seen: HashMap<(StateId, StateId), ()> = HashMap::new();
        let mut queue = VecDeque::from([(sa, sb)]);
        seen.insert((sa, sb), ());
        while let Some((pa, pb)) = queue.pop_front() {
            if a.is_accepting(pa) != b.is_accepting(pb) {
                return false;
            }
            for sym_idx in 0..self.alphabet_len {
                let sym = SymbolId(sym_idx as u32);
                let ta =
                    crate::invariant(a.delta(pa, sym), "complete DFA defines every transition");
                let tb =
                    crate::invariant(b.delta(pb, sym), "complete DFA defines every transition");
                if seen.insert((ta, tb), ()).is_none() {
                    queue.push_back((ta, tb));
                }
            }
        }
        true
    }

    fn coreachable_from(&self, s: StateId) -> bool {
        self.coreachable()[s.index()]
    }

    /// A DFA accepting the complement language `Σ* \ L(self)`.
    pub fn complement(&self) -> Dfa {
        let mut out = self.complete();
        for s in out.states() {
            let acc = out.is_accepting(s);
            out.set_accepting(s, !acc);
        }
        out
    }

    /// The minimal DFA accepting `L(self) ∪ L(other)`.
    ///
    /// # Example
    ///
    /// ```
    /// use rasc_automata::{Alphabet, Regex};
    ///
    /// let sigma = Alphabet::from_names(["a", "b"]);
    /// let l1 = Regex::parse("a", &sigma)?.compile(&sigma);
    /// let l2 = Regex::parse("b b", &sigma)?.compile(&sigma);
    /// let u = l1.union(&l2);
    /// let a = sigma.lookup("a").unwrap();
    /// let b = sigma.lookup("b").unwrap();
    /// assert!(u.accepts(&[a]) && u.accepts(&[b, b]) && !u.accepts(&[b]));
    /// # Ok::<(), rasc_automata::AutomataError>(())
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ in size.
    pub fn union(&self, other: &Dfa) -> Dfa {
        // De Morgan over the intersection product.
        self.complement()
            .product(&other.complement())
            .complement()
            .minimize()
    }

    /// The minimal DFA accepting `L(self) \ L(other)`.
    ///
    /// # Panics
    ///
    /// Panics if the alphabets differ in size.
    pub fn difference(&self, other: &Dfa) -> Dfa {
        self.product(&other.complement()).minimize()
    }

    /// Whether the DFA accepts no word at all.
    pub fn is_language_empty(&self) -> bool {
        match self.start {
            None => true,
            Some(s) => !self.coreachable()[s.index()],
        }
    }

    /// Renders the machine in Graphviz DOT format, naming symbols via
    /// `alphabet`.
    ///
    /// # Panics
    ///
    /// Panics if `alphabet` is smaller than the machine's alphabet.
    pub fn to_dot(&self, alphabet: &Alphabet) -> String {
        use std::fmt::Write as _;
        assert!(alphabet.len() >= self.alphabet_len);
        let mut out = String::from("digraph dfa {\n  rankdir=LR;\n");
        if let Some(s) = self.start {
            let _ = writeln!(out, "  start [shape=point];");
            let _ = writeln!(out, "  start -> q{};", s.index());
        }
        for s in self.states() {
            let shape = if self.is_accepting(s) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  q{} [shape={shape}];", s.index());
        }
        for s in self.states() {
            for sym_idx in 0..self.alphabet_len {
                let sym = SymbolId(sym_idx as u32);
                if let Some(t) = self.delta(s, sym) {
                    let _ = writeln!(
                        out,
                        "  q{} -> q{} [label=\"{}\"];",
                        s.index(),
                        t.index(),
                        alphabet.name(sym)
                    );
                }
            }
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_symbols() -> (Alphabet, SymbolId, SymbolId) {
        let mut sigma = Alphabet::new();
        let a = sigma.intern("a");
        let b = sigma.intern("b");
        (sigma, a, b)
    }

    /// A deliberately redundant DFA for "even number of `a`s".
    fn even_a_redundant(a: SymbolId, b: SymbolId, alphabet_len: usize) -> Dfa {
        let mut dfa = Dfa::new(alphabet_len);
        let s0 = dfa.add_state(true);
        let s1 = dfa.add_state(false);
        let s2 = dfa.add_state(true); // duplicate of s0
        let s3 = dfa.add_state(false); // duplicate of s1
        dfa.set_start(s0);
        dfa.set_transition(s0, a, s1);
        dfa.set_transition(s0, b, s2);
        dfa.set_transition(s1, a, s2);
        dfa.set_transition(s1, b, s3);
        dfa.set_transition(s2, a, s3);
        dfa.set_transition(s2, b, s0);
        dfa.set_transition(s3, a, s0);
        dfa.set_transition(s3, b, s1);
        dfa
    }

    #[test]
    fn minimize_collapses_duplicates() {
        let (sigma, a, b) = two_symbols();
        let dfa = even_a_redundant(a, b, sigma.len());
        let min = dfa.minimize();
        assert_eq!(min.len(), 2);
        assert!(min.equivalent(&dfa));
    }

    #[test]
    fn minimize_unreachable_states_dropped() {
        let (sigma, a, b) = two_symbols();
        let mut dfa = Dfa::new(sigma.len());
        let s0 = dfa.add_state(true);
        let junk = dfa.add_state(false);
        dfa.set_start(s0);
        dfa.set_transition(s0, a, s0);
        dfa.set_transition(s0, b, s0);
        dfa.set_transition(junk, a, s0);
        dfa.set_transition(junk, b, junk);
        let min = dfa.minimize();
        assert_eq!(min.len(), 1);
        assert!(min.equivalent(&dfa));
    }

    #[test]
    fn complete_adds_dead_state() {
        let (sigma, a, _) = two_symbols();
        let mut dfa = Dfa::new(sigma.len());
        let s0 = dfa.add_state(true);
        dfa.set_start(s0);
        dfa.set_transition(s0, a, s0);
        assert!(!dfa.is_complete());
        let c = dfa.complete();
        assert!(c.is_complete());
        assert!(c.equivalent(&dfa));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn product_intersects_languages() {
        let (sigma, a, b) = two_symbols();
        // L1 = even #a, L2 = odd #b
        let l1 = even_a_redundant(a, b, sigma.len()).minimize();
        let mut l2 = Dfa::new(sigma.len());
        let t0 = l2.add_state(false);
        let t1 = l2.add_state(true);
        l2.set_start(t0);
        l2.set_transition(t0, b, t1);
        l2.set_transition(t1, b, t0);
        l2.set_transition(t0, a, t0);
        l2.set_transition(t1, a, t1);
        let p = l1.product(&l2);
        assert!(p.accepts(&[b]));
        assert!(p.accepts(&[a, a, b]));
        assert!(!p.accepts(&[a, b]));
        assert!(!p.accepts(&[b, b]));
    }

    #[test]
    fn reverse_reverses_language() {
        let (sigma, a, b) = two_symbols();
        // L = a b*
        let mut dfa = Dfa::new(sigma.len());
        let s0 = dfa.add_state(false);
        let s1 = dfa.add_state(true);
        dfa.set_start(s0);
        dfa.set_transition(s0, a, s1);
        dfa.set_transition(s1, b, s1);
        let rev = dfa.reverse().determinize();
        // reverse(L) = b* a
        assert!(rev.accepts(&[a]));
        assert!(rev.accepts(&[b, b, a]));
        assert!(!rev.accepts(&[a, b]));
    }

    #[test]
    fn equivalent_detects_difference() {
        let (sigma, a, b) = two_symbols();
        let l1 = even_a_redundant(a, b, sigma.len());
        let mut l2 = l1.clone();
        // Flip one accepting bit: languages differ.
        l2.set_accepting(StateId(1), true);
        assert!(!l1.equivalent(&l2));
        assert!(l1.equivalent(&l1.minimize()));
    }

    #[test]
    fn complement_union_difference() {
        let (sigma, a, b) = two_symbols();
        let even = even_a_redundant(a, b, sigma.len()).minimize();
        let comp = even.complement();
        for w in [vec![], vec![a], vec![a, a], vec![a, b, a]] {
            assert_eq!(comp.accepts(&w), !even.accepts(&w), "{w:?}");
        }
        // L1 = even #a; L2 = words starting with b.
        let mut l2 = Dfa::new(sigma.len());
        let s0 = l2.add_state(false);
        let s1 = l2.add_state(true);
        l2.set_start(s0);
        l2.set_transition(s0, b, s1);
        l2.set_transition(s1, a, s1);
        l2.set_transition(s1, b, s1);
        let union = even.union(&l2);
        let diff = even.difference(&l2);
        for w in [vec![], vec![b], vec![a], vec![b, a], vec![a, a], vec![a, b]] {
            assert_eq!(
                union.accepts(&w),
                even.accepts(&w) || l2.accepts(&w),
                "{w:?}"
            );
            assert_eq!(
                diff.accepts(&w),
                even.accepts(&w) && !l2.accepts(&w),
                "{w:?}"
            );
        }
    }

    #[test]
    fn language_emptiness() {
        let (sigma, a, _) = two_symbols();
        let mut empty = Dfa::new(sigma.len());
        let s = empty.add_state(false);
        empty.set_start(s);
        empty.set_transition(s, a, s);
        assert!(empty.is_language_empty());
        let even = even_a_redundant(a, sigma.lookup("b").unwrap(), sigma.len());
        assert!(!even.is_language_empty());
        // The intersection of a language and its complement is empty.
        assert!(even.product(&even.complement()).is_language_empty());
    }

    #[test]
    fn dot_rendering_mentions_all_states() {
        let (sigma, g, k) = two_symbols();
        let dfa = Dfa::one_bit(&sigma, g, k);
        let dot = dfa.to_dot(&sigma);
        assert!(dot.contains("digraph"));
        assert!(dot.contains("q0"));
        assert!(dot.contains("q1"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("label=\"a\"") || dot.contains("label=\"b\""));
    }

    #[test]
    fn one_bit_language() {
        let (sigma, g, k) = two_symbols();
        let dfa = Dfa::one_bit(&sigma, g, k);
        assert!(dfa.accepts(&[g]));
        assert!(dfa.accepts(&[g, g]));
        assert!(dfa.accepts(&[k, g]));
        assert!(!dfa.accepts(&[g, k]));
        assert!(!dfa.accepts(&[]));
        assert_eq!(dfa.minimize().len(), 2);
    }
}
