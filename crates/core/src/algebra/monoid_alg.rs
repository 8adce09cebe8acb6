//! The plain transition-monoid algebra.

use std::sync::Arc;

use rasc_automata::{Dfa, FnId, Monoid, StateId, SymbolId};

use super::{Algebra, AnnId};

/// Annotations drawn from the transition monoid `F_M^≡` of a regular
/// language `L(M)` — the paper's standard construction (§2.4).
///
/// The machine is minimized and completed internally (the paper requires a
/// minimal machine for Theorem 2.1 and for the pruning of necessarily
/// non-accepting annotations). Monoid elements are interned lazily: on
/// adversarial machines (Figure 2) only the functions that actually arise
/// in a constraint graph are materialized.
///
/// Clones share the interned monoid copy-on-write, so forking a system
/// does not copy it: a clone copies it only when it first interns a
/// function or memoizes a composition.
///
/// # Example
///
/// ```
/// use rasc_automata::{Alphabet, Dfa};
/// use rasc_core::algebra::{Algebra, MonoidAlgebra};
///
/// let mut sigma = Alphabet::new();
/// let g = sigma.intern("g");
/// let k = sigma.intern("k");
/// let mut alg = MonoidAlgebra::new(&Dfa::one_bit(&sigma, g, k));
/// let fg = alg.symbol(g);
/// let fk = alg.symbol(k);
/// let fgk = alg.compose(fk, fg); // g then k
/// assert!(!alg.is_accepting(fgk));
/// let fgkg = alg.compose(fg, fgk); // g, k, then g again
/// assert!(alg.is_accepting(fgkg));
/// ```
#[derive(Debug, Clone)]
pub struct MonoidAlgebra {
    /// The interned transition monoid (the snapshot codec in
    /// [`crate::snapshot`] writes and rebuilds all three fields).
    pub(crate) monoid: Arc<Monoid>,
    /// Machine states reachable from the start state.
    pub(crate) reachable: Vec<bool>,
    /// Machine states from which an accepting state is reachable.
    pub(crate) coreachable: Vec<bool>,
}

impl MonoidAlgebra {
    /// Creates the algebra for the language of `machine`.
    ///
    /// The machine is minimized and completed; the original state identities
    /// are not preserved.
    pub fn new(machine: &Dfa) -> MonoidAlgebra {
        let minimal = machine.minimize();
        MonoidAlgebra {
            monoid: Arc::new(Monoid::lazy_of_dfa(&minimal)),
            // The minimized machine contains only reachable states.
            reachable: vec![true; minimal.len()],
            coreachable: minimal.coreachable(),
        }
    }

    /// The generator annotation `f_σ` for an alphabet symbol.
    pub fn symbol(&self, sym: SymbolId) -> AnnId {
        ann(self.monoid.generator(sym))
    }

    /// The annotation of a whole word.
    pub fn word(&mut self, word: &[SymbolId]) -> AnnId {
        let mut f = self.identity();
        for &sym in word {
            f = self.compose_now(self.symbol(sym), f);
        }
        f
    }

    /// Like [`Algebra::compose`] but usable on a `&mut` receiver in
    /// expression position (`compose` through the trait needs the trait in
    /// scope).
    pub fn compose_now(&mut self, later: AnnId, earlier: AnnId) -> AnnId {
        let (later, earlier) = (fnid(later), fnid(earlier));
        let f = match self.monoid.composed(later, earlier) {
            Some(f) => f,
            None => Arc::make_mut(&mut self.monoid).compose(later, earlier),
        };
        ann(f)
    }

    /// Access to the underlying monoid.
    pub fn monoid(&self) -> &Monoid {
        &self.monoid
    }

    /// Whether an accepting state is reachable from machine state `s` —
    /// i.e. whether a forward-propagated path in state `s` can still be
    /// extended to a word of `L(M)`.
    pub fn state_useful(&self, s: StateId) -> bool {
        self.coreachable[s.index()]
    }

    /// Applies a representative function (by annotation id) to a machine
    /// state.
    pub fn apply(&self, a: AnnId, s: StateId) -> StateId {
        self.monoid.apply(fnid(a), s)
    }

    /// The machine's start state (of the internal minimized machine).
    pub fn start_state(&self) -> StateId {
        self.monoid.start_state()
    }

    /// Whether machine state `s` is accepting.
    pub fn state_accepting(&self, s: StateId) -> bool {
        self.monoid.state_accepting(s)
    }
}

fn ann(f: FnId) -> AnnId {
    AnnId(f.index() as u32)
}

fn fnid(a: AnnId) -> FnId {
    FnId::from_index(a.index())
}

impl Algebra for MonoidAlgebra {
    /// The machine state `f(s₀)`.
    type Class = StateId;

    fn identity(&self) -> AnnId {
        ann(self.monoid.identity())
    }

    fn compose(&mut self, later: AnnId, earlier: AnnId) -> AnnId {
        self.compose_now(later, earlier)
    }

    fn is_accepting(&self, a: AnnId) -> bool {
        self.monoid.is_accepting(fnid(a))
    }

    fn is_useful(&self, a: AnnId) -> bool {
        // f is useful iff some reachable state maps to a co-reachable one:
        // then ∃x, y with x·w·y ∈ L(M).
        self.monoid
            .repr_fn(fnid(a))
            .images()
            .enumerate()
            .any(|(s, img)| self.reachable[s] && self.coreachable[img.index()])
    }

    fn start_class(&self) -> StateId {
        self.monoid.start_state()
    }

    fn apply_class(&mut self, f: AnnId, c: StateId) -> StateId {
        self.monoid.apply(fnid(f), c)
    }

    fn class_accepting(&self, c: StateId) -> bool {
        self.monoid.state_accepting(c)
    }

    fn describe(&self, a: AnnId) -> String {
        let f = self.monoid.repr_fn(fnid(a));
        let images: Vec<String> = f.images().map(|s| s.index().to_string()).collect();
        format!("[{}]", images.join(","))
    }

    fn len(&self) -> usize {
        self.monoid.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_automata::{Alphabet, Regex};

    #[test]
    fn one_bit_accepting() {
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        let mut alg = MonoidAlgebra::new(&Dfa::one_bit(&sigma, g, k));
        let fg = alg.word(&[g]);
        let fk = alg.word(&[k]);
        let fe = alg.identity();
        assert!(alg.is_accepting(fg));
        assert!(!alg.is_accepting(fk));
        assert!(!alg.is_accepting(fe));
        assert!(alg.is_useful(fk), "k can be followed by g");
    }

    #[test]
    fn useless_annotations_detected() {
        // L = a (exactly). After two a's the machine is dead forever.
        let sigma = Alphabet::from_names(["a"]);
        let a = sigma.lookup("a").unwrap();
        let m = Regex::parse("a", &sigma).unwrap().compile(&sigma);
        let mut alg = MonoidAlgebra::new(&m);
        let fa = alg.word(&[a]);
        let faa = alg.word(&[a, a]);
        assert!(alg.is_accepting(fa));
        assert!(alg.is_useful(fa));
        assert!(!alg.is_useful(faa), "aa is a substring of no word in L");
    }

    #[test]
    fn identity_annotation_is_neutral() {
        let sigma = Alphabet::from_names(["a", "b"]);
        let m = Regex::parse("a b", &sigma).unwrap().compile(&sigma);
        let mut alg = MonoidAlgebra::new(&m);
        let fa = alg.word(&[sigma.lookup("a").unwrap()]);
        let e = alg.identity();
        assert_eq!(alg.compose(fa, e), fa);
        assert_eq!(alg.compose(e, fa), fa);
    }
}
