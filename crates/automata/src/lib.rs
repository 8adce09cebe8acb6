//! Finite-automaton machinery for regularly annotated set constraints.
//!
//! This crate provides every regular-language ingredient the constraint
//! solver in `rasc-core` needs:
//!
//! * an interned, named [`Alphabet`] (annotation symbols are *names* such as
//!   `seteuid_zero`, not characters);
//! * [`Regex`] parsing and Thompson construction into an [`Nfa`];
//! * [`Dfa`] subset construction, completion, Moore minimization,
//!   product, reversal and language-level closures (prefix, suffix,
//!   substring) in [`closure`];
//! * the *transition monoid* of a DFA — the set `F_M^≡` of representative
//!   functions of the paper's word-equivalence classes — with memoized
//!   composition ([`Monoid`]);
//! * the annotation specification language of the paper's §8 ([`spec`]),
//!   including parametric symbols such as `open(x)`.
//!
//! # Example
//!
//! ```
//! use rasc_automata::{Alphabet, Dfa, Monoid};
//!
//! // The paper's Figure 1: the 1-bit gen/kill language.
//! let mut alphabet = Alphabet::new();
//! let g = alphabet.intern("g");
//! let k = alphabet.intern("k");
//! let dfa = Dfa::one_bit(&alphabet, g, k);
//! let monoid = Monoid::of_dfa(&dfa);
//! // F_M^≡ = { f_ε, f_g, f_k }
//! assert_eq!(monoid.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
pub mod closure;
mod dfa;
mod error;
mod monoid;
mod nfa;
pub mod regex;
pub mod spec;

pub use alphabet::{Alphabet, SymbolId};

/// Converts an index to `u32`, panicking with a capacity message on
/// overflow. Centralizes the documented "fewer than 2^32 ids" invariant;
/// library code is otherwise free of `unwrap`/`expect` (enforced by the
/// `disallowed-methods` clippy gate in CI).
pub(crate) fn id_u32(n: usize, what: &str) -> u32 {
    match u32::try_from(n) {
        Ok(v) => v,
        Err(_) => panic!("capacity overflow: too many {what} (limit 2^32)"),
    }
}

/// Unwraps an `Option` that a documented invariant guarantees is `Some`,
/// panicking with the invariant's description otherwise.
pub(crate) fn invariant<T>(v: Option<T>, what: &str) -> T {
    match v {
        Some(t) => t,
        None => panic!("internal invariant violated: {what}"),
    }
}
pub use dfa::{Dfa, StateId};
pub use error::{AutomataError, Result};
pub use monoid::{adversarial_machine, FnId, Monoid, ReprFn};
pub use nfa::{Nfa, NfaStateId};
pub use regex::Regex;
pub use spec::{ParamSymbol, PropertySpec};
