//! The n-bit gen/kill algebra (§3.3) with bit-parallel composition.

use super::{Algebra, AnnId};
use crate::idhash::IdMap;

/// Annotations for the paper's *n-bit language*: the product of `n`
/// 1-bit gen/kill machines (Figure 1), used for interprocedural bit-vector
/// dataflow (§3.3).
///
/// Each annotation is a dataflow transfer function
/// `out = (in & !kill) | gen`. The product monoid has `3ⁿ` elements but
/// each is just a pair of masks, so composition is two bitwise operations
/// instead of a table lookup — a specialization the paper's generic
/// construction would realize via a `2ⁿ`-state product automaton. The
/// equivalence of the two is checked by cross-validation tests for small
/// `n` (see `tests/algebra_cross_check.rs`).
///
/// # Example
///
/// ```
/// use rasc_core::algebra::{Algebra, GenKillAlgebra};
///
/// let mut alg = GenKillAlgebra::new(2);
/// let gen0 = alg.transfer(0b01, 0);   // gen fact 0
/// let kill0 = alg.transfer(0, 0b01);  // kill fact 0
/// let path = alg.compose(kill0, gen0); // gen then kill
/// assert_eq!(alg.apply(path, 0b00), 0b00);
/// let path2 = alg.compose(gen0, kill0); // kill then gen
/// assert_eq!(alg.apply(path2, 0b00), 0b01);
/// ```
#[derive(Debug, Clone)]
pub struct GenKillAlgebra {
    bits: u32,
    mask: u64,
    /// Interned `(gen, kill)` pairs; invariant: `gen & kill == 0` (a gen
    /// overrides a kill of the same bit, so kill bits shadowed by gen are
    /// normalized away).
    anns: Vec<(u64, u64)>,
    by_ann: IdMap<(u64, u64), AnnId>,
}

impl GenKillAlgebra {
    /// Creates the algebra tracking `bits` dataflow facts (at most 64).
    ///
    /// # Panics
    ///
    /// Panics if `bits > 64`.
    pub fn new(bits: u32) -> GenKillAlgebra {
        assert!(bits <= 64, "at most 64 dataflow facts are supported");
        let mask = if bits == 64 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let mut alg = GenKillAlgebra {
            bits,
            mask,
            anns: Vec::new(),
            by_ann: IdMap::default(),
        };
        alg.intern(0, 0); // identity
        alg
    }

    /// The number of tracked facts.
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Interns the transfer function with the given gen and kill masks.
    ///
    /// Masks are truncated to the tracked facts; kill bits also present in
    /// `gen` are dropped (gen wins, matching `out = (in & !kill) | gen`).
    pub fn transfer(&mut self, gen: u64, kill: u64) -> AnnId {
        let gen = gen & self.mask;
        let kill = kill & self.mask & !gen;
        self.intern(gen, kill)
    }

    /// The gen mask of an annotation.
    pub fn gen(&self, a: AnnId) -> u64 {
        self.anns[a.index()].0
    }

    /// The kill mask of an annotation.
    pub fn kill(&self, a: AnnId) -> u64 {
        self.anns[a.index()].1
    }

    /// Applies the transfer function to an input fact vector.
    pub fn apply(&self, a: AnnId, input: u64) -> u64 {
        let (gen, kill) = self.anns[a.index()];
        ((input & self.mask) & !kill) | gen
    }

    fn intern(&mut self, gen: u64, kill: u64) -> AnnId {
        if let Some(&id) = self.by_ann.get(&(gen, kill)) {
            return id;
        }
        let id = AnnId(crate::id_u32(self.anns.len(), "annotations"));
        self.anns.push((gen, kill));
        self.by_ann.insert((gen, kill), id);
        id
    }
}

impl Algebra for GenKillAlgebra {
    /// The fact vector a path reaches from the empty one.
    type Class = u64;

    fn identity(&self) -> AnnId {
        AnnId(0)
    }

    fn compose(&mut self, later: AnnId, earlier: AnnId) -> AnnId {
        let (g2, k2) = self.anns[later.index()];
        let (g1, k1) = self.anns[earlier.index()];
        // Standard gen/kill composition: f₂ ∘ f₁.
        let gen = g2 | (g1 & !k2);
        let kill = (k2 | k1) & !gen;
        self.intern(gen, kill)
    }

    fn is_accepting(&self, a: AnnId) -> bool {
        // A word of the product language is accepted by fact i's machine
        // iff fact i holds after running from the empty fact set; "some
        // fact holds" is the natural acceptance for the product-of-accepts
        // query. Per-fact queries use [`GenKillAlgebra::apply`].
        self.anns[a.index()].0 != 0
    }

    fn start_class(&self) -> u64 {
        0
    }

    fn apply_class(&mut self, f: AnnId, c: u64) -> u64 {
        self.apply(f, c)
    }

    fn class_accepting(&self, c: u64) -> bool {
        c != 0
    }

    fn describe(&self, a: AnnId) -> String {
        let (gen, kill) = self.anns[a.index()];
        format!("gen={gen:#b} kill={kill:#b}")
    }

    fn len(&self) -> usize {
        self.anns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_neutral() {
        let mut alg = GenKillAlgebra::new(4);
        let t = alg.transfer(0b0101, 0b1010);
        let e = alg.identity();
        assert_eq!(alg.compose(t, e), t);
        assert_eq!(alg.compose(e, t), t);
    }

    #[test]
    fn gen_overrides_same_bit_kill() {
        let mut alg = GenKillAlgebra::new(1);
        // transfer with both gen and kill on bit 0 behaves as pure gen
        let t = alg.transfer(1, 1);
        assert_eq!(alg.apply(t, 0), 1);
        assert_eq!(alg.apply(t, 1), 1);
        assert_eq!(t, alg.transfer(1, 0), "normalized to the same id");
    }

    #[test]
    fn composition_matches_sequential_application() {
        let mut alg = GenKillAlgebra::new(8);
        let cases = [(0x0f, 0x30), (0x01, 0x0e), (0x00, 0xff), (0xaa, 0x55)];
        for &(g1, k1) in &cases {
            for &(g2, k2) in &cases {
                let f1 = alg.transfer(g1, k1);
                let f2 = alg.transfer(g2, k2);
                let comp = alg.compose(f2, f1);
                for input in [0x00u64, 0xff, 0x5a, 0x21] {
                    let seq = alg.apply(f2, alg.apply(f1, input));
                    assert_eq!(alg.apply(comp, input), seq);
                }
            }
        }
    }

    #[test]
    fn masks_are_truncated() {
        let mut alg = GenKillAlgebra::new(2);
        let t = alg.transfer(u64::MAX, 0);
        assert_eq!(alg.gen(t), 0b11);
    }

    #[test]
    fn accepting_means_some_fact_generated() {
        let mut alg = GenKillAlgebra::new(2);
        let g = alg.transfer(0b10, 0);
        let k = alg.transfer(0, 0b10);
        assert!(alg.is_accepting(g));
        assert!(!alg.is_accepting(k));
        let gk = alg.compose(k, g);
        assert!(!alg.is_accepting(gk));
    }

    #[test]
    fn idempotence_of_gens_and_kills() {
        // §3.3: gens and kills are idempotent.
        let mut alg = GenKillAlgebra::new(1);
        let g = alg.transfer(1, 0);
        let k = alg.transfer(0, 1);
        assert_eq!(alg.compose(g, g), g);
        assert_eq!(alg.compose(k, k), k);
        // and a gen cancels an adjacent matching kill: k then g = g.
        assert_eq!(alg.compose(g, k), g);
    }
}
