//! Incremental solving sessions (`rasc-inc`).
//!
//! The session layer over the bidirectional solver:
//!
//! * [`Session`] — incremental constraint addition and epoch-based
//!   rollback over a [`rasc_core::System`], which answers the queries;
//! * [`BatchEngine`] — the JSON-lines batch protocol (`rasc batch` and
//!   the `rasc serve` connection layer), with [`EngineCaps`] for
//!   embedder-imposed resource caps;
//! * [`BatchEngine::run_stream`] — newline-delimited framing over any
//!   `BufRead`/`Write` pair, flushing each response;
//! * [`json`] — the minimal JSON reader/writer backing the protocol.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
pub mod json;
mod session;
mod snapshot;
mod stream;

pub use batch::{BatchEngine, EngineCaps, RequestStats};
pub use session::Session;
pub use snapshot::EngineBase;
