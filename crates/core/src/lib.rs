//! Regularly annotated set constraints — the paper's core contribution.
//!
//! A *regularly annotated set constraint* is an inclusion `se₁ ⊆ˣ se₂`
//! between set expressions, where `x` is a word over a regular annotation
//! language `L(M)`. Solutions assign each set variable a downward-closed set
//! of *annotated* ground terms; the constraint requires
//! `ρ(se₁)·x ⊆ ρ(se₂)`, where `·x` appends `x` to the annotation of every
//! constructor in a term (paper §2).
//!
//! By Theorems 2.1/2.3 it suffices to track, instead of words, the
//! *representative functions* of their `≡_M` classes — elements of the
//! machine's transition monoid. This crate provides:
//!
//! * [`algebra`] — annotation algebras: the plain transition monoid
//!   ([`algebra::MonoidAlgebra`]), parametric substitution environments for
//!   properties like `open(x)`/`close(x)` ([`algebra::SubstAlgebra`], §6.4),
//!   and an O(1) gen/kill bit-vector algebra ([`algebra::GenKillAlgebra`],
//!   §3.3);
//! * [`System`] — an online bidirectional solver implementing the paper's
//!   resolution rules (§3.1);
//! * [`forward`] — the forward unidirectional solver exploiting the coarser
//!   right congruence (§5);
//! * [`backward`] — the backward solver for the regular-reachability
//!   fragment (§5);
//! * query-style entailment methods on solved systems (§3.2), including
//!   recursive occurrence queries, emptiness, witness extraction, and the
//!   stack-aware intersection queries of §7.5.
//!
//! # Example
//!
//! The paper's Example 2.4 over the 1-bit machine `M_1bit`:
//!
//! ```
//! use rasc_automata::{Alphabet, Dfa};
//! use rasc_core::algebra::{Algebra, MonoidAlgebra};
//! use rasc_core::{SetExpr, System, Variance};
//!
//! let mut sigma = Alphabet::new();
//! let g = sigma.intern("g");
//! let k = sigma.intern("k");
//! let m = Dfa::one_bit(&sigma, g, k);
//! let mut sys = System::new(MonoidAlgebra::new(&m));
//!
//! let (w, x, y, z) = (sys.var("W"), sys.var("X"), sys.var("Y"), sys.var("Z"));
//! let c = sys.constructor("c", &[]);
//! let o = sys.constructor("o", &[Variance::Covariant]);
//!
//! let fg = sys.algebra_mut().word(&[g]);
//! let eps = sys.algebra().identity();
//! // c ⊆^g W        o(W) ⊆^g X
//! // X ⊆ o(Y)       o(Y) ⊆ Z
//! sys.add_ann(SetExpr::cons(c, []), SetExpr::var(w), fg).unwrap();
//! sys.add_ann(SetExpr::cons(o, [SetExpr::var(w)]), SetExpr::var(x), fg).unwrap();
//! sys.add_ann(SetExpr::var(x), SetExpr::cons(o, [SetExpr::var(y)]), eps).unwrap();
//! sys.add_ann(SetExpr::cons(o, [SetExpr::var(y)]), SetExpr::var(z), eps).unwrap();
//! sys.solve();
//!
//! // The solved form contains c ⊆^{f_g} Y (via W ⊆^g Y and f_g ∘ f_g = f_g).
//! let anns = sys.lower_bound_annotations(y, c);
//! assert_eq!(anns.len(), 1);
//! assert!(sys.algebra().is_accepting(anns[0]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algebra;
pub mod backward;
mod budget;
mod constraint;
mod error;
pub mod forward;
mod idhash;
mod notation;
mod provenance;
mod query;
pub mod snapshot;
mod solver;
mod store;
mod term;

pub use budget::{Budget, Clock, InterruptReason, MonotonicClock, Outcome};
pub use constraint::{Constraint, SetExpr};
pub use error::{CoreError, Result};
pub use provenance::ExplainStep;
pub use query::OccurrenceWitness;
pub use snapshot::SnapshotError;
pub use solver::{BaseSystem, Clash, SolverConfig, SolverStats, System, VarId};
pub use term::{ConsId, Constructor, GroundTerm, Variance};

/// Converts an interning index to a `u32` id.
///
/// Overflow here is a *capacity invariant*, not a fallible path: a system
/// with 2³² interned items exhausts memory long before this trips, so the
/// failure mode is a documented panic rather than a threaded error.
pub(crate) fn id_u32(n: usize, what: &str) -> u32 {
    match u32::try_from(n) {
        Ok(v) => v,
        Err(_) => panic!("capacity overflow: too many {what} (limit 2^32)"),
    }
}
