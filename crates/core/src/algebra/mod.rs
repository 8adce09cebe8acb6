//! Annotation algebras: the values constraints are annotated with.
//!
//! The solver is generic over an [`Algebra`]: a finite monoid of interned
//! annotation values with an *accepting* predicate. Three implementations
//! cover the paper's applications:
//!
//! * [`MonoidAlgebra`] — representative functions `F_M^≡` of an arbitrary
//!   regular language (§2.4), with the §3.1 optimization of pruning
//!   annotations that can never extend to an accepting word;
//! * [`GenKillAlgebra`] — the n-bit gen/kill language (§3.3) with O(1)
//!   bit-parallel composition;
//! * [`SubstAlgebra`] — parametric annotations via substitution
//!   environments (§6.4), supporting multiple parameters (its docs state
//!   where more than one falls short).

mod genkill;
mod monoid_alg;
mod subst;

pub use genkill::GenKillAlgebra;
pub use monoid_alg::MonoidAlgebra;
pub use subst::{LabelId, ParamId, StateEnvId, SubstAlgebra, SubstEnv};

/// An interned annotation value.
///
/// Ids are only meaningful relative to the [`Algebra`] that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AnnId(pub(crate) u32);

impl AnnId {
    /// The annotation's index within its algebra.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A finite annotation monoid with interned elements.
///
/// `compose` takes `&mut self` because elements are interned on demand
/// (the paper's composition table, built lazily).
///
/// Besides the monoid, an algebra names the classes of the paper's right
/// congruence `≡_r` (§5): `u ≡_r v` when `u·w ∈ L ⟺ v·w ∈ L` for every
/// `w`. Acceptance of a path only depends on the class of its annotation,
/// so a scan that only asks "accepting?" can carry classes instead of
/// whole functions. The class laws are
/// `is_accepting(f) == class_accepting(apply_class(f, start_class()))` and
/// `apply_class(compose(f, g), c) == apply_class(f, apply_class(g, c))`.
pub trait Algebra {
    /// A class of the right congruence: what a path's future acceptance
    /// depends on.
    type Class: Copy + Ord;

    /// The identity annotation `f_ε` (the representative of the empty
    /// word).
    fn identity(&self) -> AnnId;

    /// `later ∘ earlier`: the annotation of a path that performs `earlier`
    /// first (the paper's transitive-closure composition
    /// `se₁ ⊆^f X ⊆^g se₂ ⇒ se₁ ⊆^{g∘f} se₂`).
    fn compose(&mut self, later: AnnId, earlier: AnnId) -> AnnId;

    /// Whether the annotation represents *full words* of the annotation
    /// language — membership in the paper's `F_accept` (§3.2).
    fn is_accepting(&self, a: AnnId) -> bool;

    /// Whether the annotation could still participate in an accepting word
    /// (`∃ x, y. x·w·y ∈ L(M)`). Returning `false` lets the solver drop
    /// the constraint entirely — the paper's observation that a minimized
    /// machine obviates the `match` operation (§3.1).
    fn is_useful(&self, a: AnnId) -> bool {
        let _ = a;
        true
    }

    /// The class of the empty path.
    fn start_class(&self) -> Self::Class;

    /// The class reached from class `c` by a path annotated `f`.
    fn apply_class(&mut self, f: AnnId, c: Self::Class) -> Self::Class;

    /// Whether paths in class `c` are accepted.
    fn class_accepting(&self, c: Self::Class) -> bool;

    /// Human-readable rendering for diagnostics.
    fn describe(&self, a: AnnId) -> String;

    /// The number of interned annotations so far.
    fn len(&self) -> usize;

    /// Whether no annotations are interned (never true in practice: the
    /// identity always is).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
