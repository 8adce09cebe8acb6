//! Interprocedural bit-vector dataflow analysis on the CFG, via gen/kill
//! annotations (paper §3.3 and the §6 introduction).
//!
//! The n-bit gen/kill language of §3.3 makes interprocedural dataflow a
//! direct instance of annotated constraints: CFG edges are constraints
//! annotated with transfer functions, call/return matching is carried by
//! per-site constructors (context-sensitivity for free), and the facts
//! holding at a program point are read off the `pc` occurrence
//! annotations.
//!
//! The constraint engines do not encode the CFG themselves: they reuse
//! `rasc-pdmc`'s §6.1 encoders with a gen/kill annotation per event, so a
//! dataflow problem is a model-checking problem over another algebra.
//! The engines provided:
//!
//! * [`ConstraintDataflow`] — forward may-analysis via annotated set
//!   constraints with the [`GenKillAlgebra`](rasc_core::algebra::GenKillAlgebra)
//!   (context-sensitive: call/return paths are matched), a
//!   [`ConstraintChecker`](rasc_pdmc::ConstraintChecker) over that
//!   algebra;
//! * [`ForwardDataflow`] — the same analysis on §5's forward solver, one
//!   1-bit machine per fact, each a
//!   [`ForwardChecker`](rasc_pdmc::ForwardChecker);
//! * [`IterativeDataflow`] — the classical context-insensitive worklist
//!   baseline, for cross-validation and benchmarking;
//! * [`Liveness`] — a backward analysis built on the
//!   [`BackwardSystem`](rasc_core::backward::BackwardSystem) solver (§5's
//!   backward congruence), one 3-state machine per fact, with
//!   [`IterativeLiveness`] as its baseline.
//!
//! # Example
//!
//! ```
//! use rasc_cfgir::{Cfg, Program};
//! use rasc_dataflow::{ConstraintDataflow, GenKillSpec};
//!
//! let program = Program::parse(
//!     "fn main() { gen_x: event def_x; kill_x: event undef_x; done: skip; }",
//! ).unwrap();
//! let cfg = Cfg::build(&program).unwrap();
//! let mut spec = GenKillSpec::new();
//! let x = spec.fact("x");
//! spec.event("def_x", &[x], &[]);
//! spec.event("undef_x", &[], &[x]);
//! let mut df = ConstraintDataflow::new(&cfg, &spec, "main").unwrap();
//! df.solve();
//! let after_def = cfg.label_after("gen_x").unwrap();
//! let after_kill = cfg.label_after("kill_x").unwrap();
//! assert_eq!(df.facts_at(after_def), 1 << x);
//! assert_eq!(df.facts_at(after_kill), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backward_iterative;
mod constraint_df;
mod forward_df;
mod iterative;
mod liveness;
mod spec;

pub use backward_iterative::IterativeLiveness;
pub use constraint_df::ConstraintDataflow;
pub use forward_df::ForwardDataflow;
pub use iterative::IterativeDataflow;
pub use liveness::{Liveness, LivenessSpecEntry};
pub use spec::GenKillSpec;
