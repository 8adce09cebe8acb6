//! `rasc` — Regularly Annotated Set Constraints.
//!
//! Umbrella crate re-exporting the whole toolkit. See the individual crates
//! for details:
//!
//! * [`automata`] — DFA/NFA machinery, transition monoids, property specs.
//! * [`constraints`] — the annotated set-constraint solver (the paper's core).
//! * [`cfgir`] — the MiniImp language and interprocedural CFGs.
//! * [`pushdown`] — pushdown systems and `post*` saturation (MOPS baseline).
//! * [`pdmc`] — pushdown model checking via annotated constraints.
//! * [`ptr`] — field-sensitive points-to analysis with stack-aware alias queries.
//! * [`dataflow`] — interprocedural bit-vector dataflow via annotations.
//! * [`flow`] — type-based flow analysis with non-structural subtyping.
//! * [`inc`] — the JSON-lines batch protocol over the incremental
//!   solver, with transactional budgeted adds and engine snapshots.
//! * [`obs`] — structured tracing and metrics: event sinks, scoped
//!   installation, Chrome-trace export, and solver provenance.
//! * [`serve`] — the concurrent JSON-lines TCP server: session pools,
//!   admission control, and graceful drain (`rasc serve`).

#![forbid(unsafe_code)]

pub use rasc_automata as automata;
pub use rasc_cfgir as cfgir;
pub use rasc_core as constraints;
pub use rasc_dataflow as dataflow;
pub use rasc_flow as flow;
pub use rasc_inc as inc;
pub use rasc_obs as obs;
pub use rasc_pdmc as pdmc;
pub use rasc_ptr as ptr;
pub use rasc_pushdown as pushdown;
pub use rasc_serve as serve;
