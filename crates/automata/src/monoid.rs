//! The transition monoid `F_M^≡` of representative functions.
//!
//! By the paper's Theorem 2.1, two words are `≡_M`-equivalent iff they
//! induce the same state-to-state function on the (minimal) machine `M`.
//! Each equivalence class is therefore represented by a total function
//! `S → S`; the finitely many such functions reachable from the generators
//! `{f_σ}` and the identity `f_ε` form the transition monoid.
//!
//! The constraint solver composes annotations with `∘`; this module interns
//! functions to dense [`FnId`]s and memoizes composition in a dense table
//! indexed by both ids, so each `f ∘ g` is two array reads after the first
//! computation — exactly the paper's "precomputed table" (§4, §8), filled
//! lazily so that machines with superexponential monoids (Figure 2)
//! degrade gracefully: a row is allocated only for a function that is
//! actually composed after something.

use std::collections::HashMap;

use crate::alphabet::{Alphabet, SymbolId};
use crate::dfa::{Dfa, StateId};

/// The composition-table cell of a pair not composed yet. No function id
/// is this large: `u32::MAX` functions would be interned before it.
const NOT_COMPOSED: u32 = u32::MAX;

/// An interned representative function (an element of `F_M^≡`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FnId(pub(crate) u32);

impl FnId {
    /// Builds a function id from a raw index. The caller must ensure the
    /// index is valid for the monoid it will be used with.
    pub fn from_index(index: usize) -> FnId {
        FnId(crate::id_u32(index, "monoid functions"))
    }

    /// The function's index within its monoid.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A representative function: a total map from machine states to machine
/// states, `f(s) = δ(w, s)` for any word `w` in its class.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReprFn(Vec<u32>);

impl ReprFn {
    /// Applies the function to a state.
    pub fn apply(&self, s: StateId) -> StateId {
        StateId(self.0[s.index()])
    }

    /// The number of machine states (the function's domain size).
    pub fn domain_len(&self) -> usize {
        self.0.len()
    }

    /// The state images, indexed by source state.
    pub fn images(&self) -> impl Iterator<Item = StateId> + '_ {
        self.0.iter().map(|&s| StateId(s))
    }
}

/// The transition monoid of a DFA with interned elements and memoized
/// composition.
///
/// The machine should be **minimal and complete** (see [`Dfa::minimize`]);
/// this constructor completes it but deliberately does not minimize — the
/// caller decides the language, and minimizing changes state identities.
///
/// # Example
///
/// ```
/// use rasc_automata::{Alphabet, Dfa, Monoid};
///
/// let mut sigma = Alphabet::new();
/// let g = sigma.intern("g");
/// let k = sigma.intern("k");
/// let dfa = Dfa::one_bit(&sigma, g, k);
/// let mut monoid = Monoid::lazy_of_dfa(&dfa);
/// let fg = monoid.generator(g);
/// let fk = monoid.generator(k);
/// // k then g: the fact ends up set ⇒ f_g ∘ f_k = f_g
/// assert_eq!(monoid.compose(fg, fk), fg);
/// // g then k: the fact ends up clear ⇒ f_k ∘ f_g = f_k
/// assert_eq!(monoid.compose(fk, fg), fk);
/// ```
#[derive(Debug, Clone)]
pub struct Monoid {
    n_states: usize,
    start: StateId,
    accepting: Vec<bool>,
    fns: Vec<ReprFn>,
    by_fn: HashMap<ReprFn, FnId>,
    identity: FnId,
    /// Generator function per alphabet symbol.
    generators: Vec<FnId>,
    /// The composition table: `table[later][earlier]` is the raw id of
    /// `later ∘ earlier`, or [`NOT_COMPOSED`]. Each row is sized to the
    /// interned function count on its first write, and grows if a later
    /// write needs a larger `earlier`.
    table: Vec<Vec<u32>>,
    /// Whether the monoid has been closed under composition.
    closed: bool,
}

impl Monoid {
    /// Builds the monoid *lazily*: only the identity and the per-symbol
    /// generators are interned; further elements appear on demand through
    /// [`Monoid::compose`].
    ///
    /// This is what the solver uses — on adversarial machines only the
    /// functions actually arising in the constraint graph are materialized.
    pub fn lazy_of_dfa(dfa: &Dfa) -> Monoid {
        let complete = dfa.complete();
        let n = complete.len();
        let start = complete.start().unwrap_or(StateId(0));
        let accepting = (0..n)
            .map(|i| complete.is_accepting(StateId(i as u32)))
            .collect();
        let mut monoid = Monoid {
            n_states: n,
            start,
            accepting,
            fns: Vec::new(),
            by_fn: HashMap::new(),
            identity: FnId(0),
            generators: Vec::new(),
            table: Vec::new(),
            closed: false,
        };
        let identity = monoid.intern(ReprFn((0..n as u32).collect()));
        monoid.identity = identity;
        for sym_idx in 0..complete.alphabet_len() {
            let images = (0..n)
                .map(|i| {
                    crate::invariant(
                        complete.delta(StateId(i as u32), SymbolId(sym_idx as u32)),
                        "complete DFA defines every transition",
                    )
                    .0
                })
                .collect();
            let f = monoid.intern(ReprFn(images));
            monoid.generators.push(f);
        }
        monoid
    }

    /// Builds the *entire* monoid `F_M^≡` eagerly (closure of the
    /// generators under composition).
    ///
    /// Used for reporting monoid sizes (the paper's "58 representative
    /// functions" observation, and the Figure 2 superexponential growth
    /// experiment). Beware: the closure can reach `|S|^|S|` elements.
    pub fn of_dfa(dfa: &Dfa) -> Monoid {
        let mut monoid = Monoid::lazy_of_dfa(dfa);
        monoid.close();
        monoid
    }

    /// Closes the monoid under composition, interning every element of
    /// `F_M^≡`. Idempotent.
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        let _span = rasc_obs::span("monoid.close");
        // BFS over words: every f_w arises as f_σ ∘ f_{w'} for |w| = |w'|+1.
        let generators: Vec<FnId> = self.generators.clone();
        let mut frontier: Vec<FnId> = (0..self.fns.len() as u32).map(FnId).collect();
        while let Some(f) = frontier.pop() {
            for &g in &generators {
                let before = self.fns.len();
                let _ = self.compose(g, f);
                if self.fns.len() > before {
                    frontier.push(FnId((self.fns.len() - 1) as u32));
                }
            }
        }
        self.closed = true;
    }

    fn intern(&mut self, f: ReprFn) -> FnId {
        if let Some(&id) = self.by_fn.get(&f) {
            return id;
        }
        let id = FnId(crate::id_u32(self.fns.len(), "monoid functions"));
        self.by_fn.insert(f.clone(), id);
        self.fns.push(f);
        // Monoid table growth: each event is one new element of F_M^≡
        // materialized (Figure 2 machines make this the scaling hazard).
        rasc_obs::counter("monoid.elements", 1);
        id
    }

    /// The identity element `f_ε`.
    pub fn identity(&self) -> FnId {
        self.identity
    }

    /// The generator `f_σ` for symbol `sym`.
    pub fn generator(&self, sym: SymbolId) -> FnId {
        self.generators[sym.index()]
    }

    /// `later ∘ earlier` when it needs no new work: either side is the
    /// identity, or the composition is memoized. A caller sharing the
    /// monoid read-only tries this before [`Monoid::compose`].
    pub fn composed(&self, later: FnId, earlier: FnId) -> Option<FnId> {
        if later == self.identity {
            return Some(earlier);
        }
        if earlier == self.identity {
            return Some(later);
        }
        let known = self
            .table
            .get(later.index())
            .and_then(|row| row.get(earlier.index()));
        known.filter(|&&id| id != NOT_COMPOSED).map(|&id| FnId(id))
    }

    /// `later ∘ earlier` — the representative function of `w_earlier ·
    /// w_later` (the word that does `earlier` first).
    pub fn compose(&mut self, later: FnId, earlier: FnId) -> FnId {
        if let Some(id) = self.composed(later, earlier) {
            return id;
        }
        let images: Vec<u32> = self.fns[earlier.index()]
            .0
            .iter()
            .map(|&mid| self.fns[later.index()].0[mid as usize])
            .collect();
        let id = self.intern(ReprFn(images));
        if self.table.len() <= later.index() {
            self.table.resize_with(later.index() + 1, Vec::new);
        }
        let row = &mut self.table[later.index()];
        if row.len() <= earlier.index() {
            row.resize(self.fns.len().max(earlier.index() + 1), NOT_COMPOSED);
        }
        row[earlier.index()] = id.0;
        rasc_obs::counter("monoid.compose.memoized", 1);
        id
    }

    /// The representative function of a word (composing generators).
    pub fn of_word(&mut self, word: &[SymbolId]) -> FnId {
        let mut f = self.identity;
        for &sym in word {
            let g = self.generator(sym);
            f = self.compose(g, f);
        }
        f
    }

    /// Applies `f` to machine state `s`.
    pub fn apply(&self, f: FnId, s: StateId) -> StateId {
        self.fns[f.index()].apply(s)
    }

    /// Whether `f` represents full words of `L(M)`: `f(s₀) ∈ S_accept`.
    ///
    /// This is the membership test for the paper's `F_accept` (§3.2).
    pub fn is_accepting(&self, f: FnId) -> bool {
        self.accepting[self.apply(f, self.start).index()]
    }

    /// The machine state `f(s₀)` — the *right-congruence class* of `f`
    /// used by the forward solver (§5.1).
    pub fn forward_class(&self, f: FnId) -> StateId {
        self.apply(f, self.start)
    }

    /// Whether machine state `s` is accepting.
    pub fn state_accepting(&self, s: StateId) -> bool {
        self.accepting[s.index()]
    }

    /// The machine's start state.
    pub fn start_state(&self) -> StateId {
        self.start
    }

    /// Number of machine states.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of interned functions. After [`Monoid::close`] this is
    /// `|F_M^≡|`.
    pub fn len(&self) -> usize {
        self.fns.len()
    }

    /// Whether no functions are interned (impossible in practice: the
    /// identity always is).
    pub fn is_empty(&self) -> bool {
        self.fns.is_empty()
    }

    /// Iterates over all interned function ids.
    pub fn fn_ids(&self) -> impl Iterator<Item = FnId> {
        (0..self.fns.len() as u32).map(FnId)
    }

    /// The interned function behind an id.
    pub fn repr_fn(&self, f: FnId) -> &ReprFn {
        &self.fns[f.index()]
    }

    /// The per-symbol generators `f_σ`, indexed by symbol.
    pub fn generators(&self) -> &[FnId] {
        &self.generators
    }

    /// Rebuilds a monoid from previously exported parts (see the snapshot
    /// subsystem in `rasc-core`). The composition table starts empty and the
    /// monoid is treated as unclosed — compositions re-memoize on demand,
    /// which keeps the export format small and order-independent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first structural problem found:
    /// out-of-range state images, identity/generator ids out of range, an
    /// identity that is not the identity function, duplicate functions, or
    /// a wrong-length image vector.
    pub fn from_parts(
        n_states: usize,
        start_index: usize,
        accepting: Vec<bool>,
        fn_images: Vec<Vec<u32>>,
        identity_index: usize,
        generator_indices: &[u32],
    ) -> Result<Monoid, String> {
        if accepting.len() != n_states {
            return Err(format!(
                "accepting vector has {} entries for {} states",
                accepting.len(),
                n_states
            ));
        }
        if start_index >= n_states {
            return Err(format!(
                "start state {start_index} out of range ({n_states} states)"
            ));
        }
        let mut fns = Vec::with_capacity(fn_images.len());
        let mut by_fn = HashMap::with_capacity(fn_images.len());
        for (i, images) in fn_images.into_iter().enumerate() {
            if images.len() != n_states {
                return Err(format!(
                    "function {i} has {} images for {} states",
                    images.len(),
                    n_states
                ));
            }
            if let Some(&bad) = images.iter().find(|&&s| s as usize >= n_states) {
                return Err(format!("function {i} maps to state {bad} out of range"));
            }
            let f = ReprFn(images);
            let id = FnId(crate::id_u32(fns.len(), "monoid functions"));
            if by_fn.insert(f.clone(), id).is_some() {
                return Err(format!("function {i} duplicates an earlier function"));
            }
            fns.push(f);
        }
        if identity_index >= fns.len() {
            return Err(format!(
                "identity id {identity_index} out of range ({} functions)",
                fns.len()
            ));
        }
        if fns[identity_index]
            .0
            .iter()
            .enumerate()
            .any(|(s, &img)| s as u32 != img)
        {
            return Err(format!("function {identity_index} is not the identity"));
        }
        let mut generators = Vec::with_capacity(generator_indices.len());
        for &g in generator_indices {
            if g as usize >= fns.len() {
                return Err(format!(
                    "generator id {g} out of range ({} functions)",
                    fns.len()
                ));
            }
            generators.push(FnId(g));
        }
        Ok(Monoid {
            n_states,
            start: StateId(crate::id_u32(start_index, "machine states")),
            accepting,
            fns,
            by_fn,
            identity: FnId(crate::id_u32(identity_index, "monoid functions")),
            generators,
            table: Vec::new(),
            closed: false,
        })
    }
}

/// Builds the paper's Figure 2 adversarial machine over `n` states, whose
/// transition monoid is the *full* transformation monoid of size `n^n`.
///
/// * `rotate` maps state `i` to `i+1` (mod `n`),
/// * `swap` exchanges states 0 and 1,
/// * `merge` maps state 1 to state 0 (all others fixed).
///
/// State 0 is start and the sole accepting state, which keeps the machine
/// minimal (any two states are separated by a suitable rotation).
///
/// Returns the machine and its alphabet `{rotate, swap, merge}`.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn adversarial_machine(n: usize) -> (Alphabet, Dfa) {
    assert!(n >= 2, "the adversarial machine needs at least two states");
    let mut sigma = Alphabet::new();
    let rotate = sigma.intern("rotate");
    let swap = sigma.intern("swap");
    let merge = sigma.intern("merge");
    let mut dfa = Dfa::new(sigma.len());
    let states: Vec<StateId> = (0..n).map(|i| dfa.add_state(i == 0)).collect();
    dfa.set_start(states[0]);
    for i in 0..n {
        dfa.set_transition(states[i], rotate, states[(i + 1) % n]);
        let swapped = match i {
            0 => 1,
            1 => 0,
            other => other,
        };
        dfa.set_transition(states[i], swap, states[swapped]);
        let merged = if i == 1 { 0 } else { i };
        dfa.set_transition(states[i], merge, states[merged]);
    }
    (sigma, dfa)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_bit() -> (Alphabet, Dfa) {
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        (sigma.clone(), Dfa::one_bit(&sigma, g, k))
    }

    #[test]
    fn one_bit_monoid_has_three_functions() {
        // §3.3: F_M^≡ = { f_ε, f_g, f_k }.
        let (_, dfa) = one_bit();
        let monoid = Monoid::of_dfa(&dfa);
        assert_eq!(monoid.len(), 3);
    }

    #[test]
    fn gen_kill_idempotence_and_cancellation() {
        let (sigma, dfa) = one_bit();
        let mut monoid = Monoid::lazy_of_dfa(&dfa);
        let fg = monoid.generator(sigma.lookup("g").unwrap());
        let fk = monoid.generator(sigma.lookup("k").unwrap());
        assert_eq!(monoid.compose(fg, fg), fg, "f_g ∘ f_g = f_g");
        assert_eq!(monoid.compose(fk, fk), fk, "f_k ∘ f_k = f_k");
        assert_eq!(monoid.compose(fk, fg), fk, "kill after gen kills");
        assert_eq!(monoid.compose(fg, fk), fg, "gen after kill gens");
    }

    #[test]
    fn of_word_matches_dfa_run() {
        let (sigma, dfa) = one_bit();
        let g = sigma.lookup("g").unwrap();
        let k = sigma.lookup("k").unwrap();
        let mut monoid = Monoid::lazy_of_dfa(&dfa);
        for word in [vec![], vec![g], vec![g, k], vec![k, g, g], vec![g, k, g]] {
            let f = monoid.of_word(&word);
            let expected = dfa
                .run_from(dfa.start().unwrap(), &word)
                .expect("complete machine");
            assert_eq!(monoid.forward_class(f), expected, "word {word:?}");
            assert_eq!(monoid.is_accepting(f), dfa.accepts(&word), "word {word:?}");
        }
    }

    #[test]
    fn compose_is_associative_on_small_monoid() {
        let (_, dfa) = one_bit();
        let mut monoid = Monoid::of_dfa(&dfa);
        let ids: Vec<FnId> = monoid.fn_ids().collect();
        for &a in &ids {
            for &b in &ids {
                for &c in &ids {
                    let ab_c = {
                        let ab = monoid.compose(a, b);
                        monoid.compose(ab, c)
                    };
                    let a_bc = {
                        let bc = monoid.compose(b, c);
                        monoid.compose(a, bc)
                    };
                    assert_eq!(ab_c, a_bc);
                }
            }
        }
    }

    #[test]
    fn adversarial_monoid_is_full_transformation_monoid() {
        // Figure 2 / §4: |F_M^≡| = n^n.
        for n in 2..=4usize {
            let (_, dfa) = adversarial_machine(n);
            assert_eq!(dfa.minimize().len(), n, "machine is minimal");
            let monoid = Monoid::of_dfa(&dfa);
            assert_eq!(monoid.len(), n.pow(n as u32), "n = {n}");
        }
    }

    #[test]
    fn identity_is_neutral() {
        let (_, dfa) = adversarial_machine(3);
        let mut monoid = Monoid::of_dfa(&dfa);
        let e = monoid.identity();
        for f in monoid.fn_ids().collect::<Vec<_>>() {
            assert_eq!(monoid.compose(e, f), f);
            assert_eq!(monoid.compose(f, e), f);
        }
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let (sigma, dfa) = one_bit();
        let mut monoid = Monoid::of_dfa(&dfa);
        let parts: Vec<Vec<u32>> = monoid
            .fn_ids()
            .map(|f| {
                monoid
                    .repr_fn(f)
                    .images()
                    .map(|s| s.index() as u32)
                    .collect()
            })
            .collect();
        let accepting: Vec<bool> = (0..monoid.n_states())
            .map(|i| monoid.state_accepting(StateId(i as u32)))
            .collect();
        let gens: Vec<u32> = monoid
            .generators()
            .iter()
            .map(|g| g.index() as u32)
            .collect();
        let mut rebuilt = Monoid::from_parts(
            monoid.n_states(),
            monoid.start_state().index(),
            accepting.clone(),
            parts.clone(),
            monoid.identity().index(),
            &gens,
        )
        .expect("valid parts");
        assert_eq!(rebuilt.len(), monoid.len());
        let g = sigma.lookup("g").unwrap();
        let k = sigma.lookup("k").unwrap();
        for word in [vec![], vec![g], vec![g, k], vec![k, g, g]] {
            let a = monoid.of_word(&word);
            let b = rebuilt.of_word(&word);
            assert_eq!(monoid.is_accepting(a), rebuilt.is_accepting(b), "{word:?}");
        }
        // Validation failures are typed errors, not panics.
        assert!(Monoid::from_parts(2, 5, vec![true, false], parts.clone(), 0, &gens).is_err());
        assert!(
            Monoid::from_parts(2, 0, vec![true, false], vec![vec![0, 9]], 0, &[]).is_err(),
            "out-of-range image"
        );
        assert!(
            Monoid::from_parts(2, 0, vec![true, false], vec![vec![1, 0]], 0, &[]).is_err(),
            "identity that is not the identity"
        );
        assert!(
            Monoid::from_parts(
                2,
                0,
                vec![true, false],
                vec![vec![0, 1], vec![0, 1]],
                0,
                &[]
            )
            .is_err(),
            "duplicate function"
        );
    }

    #[test]
    fn lazy_monoid_interns_on_demand() {
        let (_, dfa) = adversarial_machine(4);
        let mut monoid = Monoid::lazy_of_dfa(&dfa);
        // identity + 3 generators
        assert_eq!(monoid.len(), 4);
        let r = monoid.generator(SymbolId(0));
        let _ = monoid.compose(r, r);
        assert_eq!(monoid.len(), 5);
    }
}
