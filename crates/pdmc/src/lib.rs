//! Pushdown model checking via regularly annotated set constraints
//! (paper §6).
//!
//! The encoding of §6.1:
//!
//! * one set variable `S` per CFG node (program point);
//! * `pc ⊆ S_main` seeds the program counter at the entry point;
//! * an irrelevant statement adds `S ⊆ S'`;
//! * a property-relevant statement adds `S ⊆^σ S'` (annotated with the
//!   event symbol);
//! * a call to `f` at site `i` adds `o_i(S) ⊆ F_entry` and
//!   `o_i⁻¹(F_exit) ⊆ S_ret` — call/return matching is the *context-free*
//!   property, carried by the term structure.
//!
//! A security violation is the entailment of an annotated ground term
//! `pc^f` with `f` accepting (error state) at some program point; the
//! wrapping constructors of the witness term are a possible runtime stack
//! (§6.2).
//!
//! Parametric properties (`open(x)`/`close(x)`, §6.4) use the
//! substitution-environment algebra instead of the plain monoid; nothing
//! else in the encoding changes.
//!
//! The encoding is written once per solver. [`ConstraintChecker::encode`]
//! writes it onto the bidirectional [`System`](rasc_core::System) for any
//! annotation algebra; the plain, parametric and spec constructors call
//! it, and so does `rasc-dataflow`'s gen/kill engine (§3.3).
//! [`ForwardChecker::encode`] writes it onto the forward solver of §5;
//! [`forward_violations`] and `rasc-dataflow`'s per-fact forward engine
//! use it.
//!
//! # Example
//!
//! ```
//! use rasc_cfgir::{Cfg, Program};
//! use rasc_pdmc::{properties, ConstraintChecker};
//! use rasc_automata::PropertySpec;
//!
//! let program = Program::parse(
//!     "fn main() { s1: event seteuid_zero; s5: event execl; s6: skip; }",
//! ).unwrap();
//! let cfg = Cfg::build(&program).unwrap();
//! let spec = PropertySpec::parse(properties::SIMPLE_PRIVILEGE).unwrap();
//! let mut checker = ConstraintChecker::from_spec(&cfg, &spec, "main").unwrap();
//! checker.solve();
//! let violations = checker.violations();
//! assert!(violations.contains(&cfg.label_node("s6").unwrap()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod encode;
pub mod properties;
pub mod trace;

pub use encode::{
    forward_violations, CheckError, ConstraintChecker, ForwardChecker, ParametricChecker,
    PlainChecker,
};
pub use trace::{render_trace, witness_trace, TraceStep};
