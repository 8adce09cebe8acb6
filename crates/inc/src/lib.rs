//! Incremental solving over the JSON-lines batch protocol (`rasc-inc`).
//!
//! The solver itself is incremental: a [`rasc_core::System`] re-drains
//! only the consequences of a constraint added after `solve` (§5.1's
//! online analysis) and rolls back epochs with `push_epoch` / `pop_epoch`
//! (BANSHEE's backtracking, §8). This crate puts a protocol around it:
//!
//! * [`BatchEngine`] — the JSON-lines batch protocol (`rasc batch` and
//!   the `rasc serve` connection layer) over one `System`, with
//!   [`rasc_core::Budget`]s for client limits and embedder-imposed
//!   resource caps;
//! * [`BatchEngine::run_stream`] — newline-delimited framing over any
//!   `BufRead`/`Write` pair, flushing each response;
//! * [`EngineBase`] — a decoded engine snapshot frozen into a shared
//!   copy-on-write fork base;
//! * [`json`] — the minimal JSON reader/writer backing the protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod json;
mod names;
mod snapshot;
mod stream;

pub use batch::{BatchEngine, RequestStats};
pub use snapshot::EngineBase;
