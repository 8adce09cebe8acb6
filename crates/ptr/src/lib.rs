//! Field-sensitive points-to analysis with *stack-aware* alias queries
//! (paper §7.5).
//!
//! The paper observes that in a constraint-based points-to analysis the
//! solutions themselves encode context-sensitive points-to sets: wrapping
//! values in per-call-site constructors `o_i` makes a points-to set a set
//! of *terms*, and two expressions provably do not alias when their term
//! sets have an empty intersection — even when their flat location sets
//! overlap. The §7.5 example:
//!
//! ```c
//! void main() { int a,b; foo¹(&a,&b); foo²(&b,&a); }
//! void foo(int *x, int *y) { /* may x and y alias? */ }
//! ```
//!
//! Flat points-to sets say `pt(x) = pt(y) = {a, b}` (may alias); the term
//! sets `X = {o₁(a), o₂(b)}`, `Y = {o₂(a), o₁(b)}` are disjoint — no alias.
//!
//! This crate implements:
//!
//! * **MiniPtr**, a small pointer language (`x = &a`, `x = y`, `x = *y`,
//!   `*x = y`, `x = alloc`, field loads/stores, calls with address-of
//!   arguments and returns);
//! * an Andersen-style **field-sensitive resolution phase** using the set
//!   constraint solver (locations as `ref`/`fld` constructors, stores
//!   through contravariant positions, derefs as projections);
//! * a **context-encoding query phase**: the resolved flow graph is
//!   replayed with per-call-site constructors so alias queries intersect
//!   term sets, exactly as §7.5 describes.
//!
//! # Example
//!
//! ```
//! use rasc_ptr::{PointsTo, Program};
//!
//! let src = r#"
//!     fn foo(x, y) { }
//!     fn main() {
//!         foo(&a, &b);
//!         foo(&b, &a);
//!     }
//! "#;
//! let program = Program::parse(src)?;
//! let mut pt = PointsTo::analyze(&program)?;
//! // Flat sets overlap…
//! assert!(pt.may_alias("foo::x", "foo::y")?);
//! // …but the stack-aware query proves the parameters never alias.
//! assert!(!pt.may_alias_stack_aware("foo::x", "foo::y")?);
//! # Ok::<(), rasc_ptr::PtrError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod ast;
mod error;

pub use analysis::PointsTo;
pub use ast::{Arg, FunDef, Program, Stmt};
pub use error::{PtrError, Result};

/// Unwraps the result of adding a constraint that the encoding built from
/// ids it has just created, panicking with the error otherwise. Library
/// code is otherwise free of `unwrap`/`expect` (enforced by the
/// `disallowed-methods` clippy gate in CI).
pub(crate) fn well_formed(added: rasc_core::Result<()>) {
    if let Err(e) = added {
        panic!("internal invariant violated: the encoding built an ill-formed constraint: {e}");
    }
}
