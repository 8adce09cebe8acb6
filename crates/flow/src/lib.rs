//! Type-based flow analysis with polymorphic recursion and non-structural
//! subtyping (paper §7).
//!
//! The analysis operates on **MiniLam**, the paper's first-order source
//! language with pairs (§7.1). One typed walk checks a program (Fig. 8)
//! and records its flows between program points (Fig. 9); one
//! [`FlowAnalysis`] writes them under either of two encodings and answers
//! every query:
//!
//! * [`FlowAnalysis::new`] — the paper's primary analysis: function
//!   call/return matching is the *context-free* property, modeled with
//!   per-site constructors `o_i` (the set-constraint/CFL-reachability
//!   reduction of §7.2.1); type-constructor matching is the *regular*
//!   property, modeled with bracket annotations `[ᵢ_π` / `]ᵢ_π` over an
//!   automaton derived from the program's types (Figure 10, §7.2.2).
//!   This combination supports polymorphic recursion *and*
//!   non-structural subtyping — the open problem the paper solves.
//! * [`FlowAnalysis::dual`] (§7.6) — the roles swapped: an n-ary `pair`
//!   constructor carries type matching, and call/return brackets
//!   `[ᵢ`/`]ᵢ` are the regular annotations (recursive call cycles
//!   approximated with ε, i.e. monomorphically — the standard
//!   approximation).
//!
//! Flow queries (§7.3) seed a fresh constant at the source label and test
//! for an *accepting* (bracket-balanced) annotation at the target.
//! Stack-aware alias queries (§7.5) intersect two labels' term sets.
//!
//! # Example
//!
//! The paper's Figure 11 program:
//!
//! ```
//! use rasc_flow::{FlowAnalysis, Program};
//!
//! let src = r#"
//!     fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }
//!     fn main() -> int { pair[i](2@B)@T.2@V }
//! "#;
//! let program = Program::parse(src)?;
//! let mut analysis = FlowAnalysis::new(&program)?;
//! analysis.solve();
//! // Flow from B to V is captured (the paper's §7.4 derivation).
//! assert!(analysis.flows("B", "V"));
//! // The constant 1's label A does not flow to V (it is component 1).
//! assert!(!analysis.flows("A", "V"));
//! // The §7.6 dual finds the same flows here (§7.6's `pair(A,Y) ⊆ H`).
//! let mut dual = FlowAnalysis::dual(&program)?;
//! dual.solve();
//! assert!(dual.flows("B", "V") && !dual.flows("A", "V"));
//! # Ok::<(), rasc_flow::FlowError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod ast;
mod brackets;
mod dual;
mod error;
mod types;

pub use analysis::FlowAnalysis;
pub use ast::{Expr, FunDef, Program, Type};
pub use error::{FlowError, Result};
pub use types::{TypeId, TypeTable};

/// Unwraps the result of adding a constraint that the encoding built from
/// ids it has just created, panicking with the error otherwise. Library
/// code is otherwise free of `unwrap`/`expect` (enforced by the
/// `disallowed-methods` clippy gate in CI).
pub(crate) fn well_formed(added: rasc_core::Result<()>) {
    if let Err(e) = added {
        panic!("internal invariant violated: the encoding built an ill-formed constraint: {e}");
    }
}

/// The variable of a label a flow query was asked about, panicking when
/// the program has no such label (the queries' documented `# Panics`).
pub(crate) fn known_label(var: Result<rasc_core::VarId>) -> rasc_core::VarId {
    match var {
        Ok(v) => v,
        Err(e) => panic!("{e}"),
    }
}
