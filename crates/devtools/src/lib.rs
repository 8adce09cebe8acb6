//! Offline development tooling for the `rasc` workspace.
//!
//! The build environment has no access to crates.io, so the usual
//! dev-dependencies (`rand`, `proptest`, `criterion`) are replaced by this
//! small self-contained crate:
//!
//! * [`Rng`] — a seedable xorshift64* PRNG (deterministic per seed);
//! * [`forall`] / [`Config`] — a minimal property-test harness with
//!   counterexample shrinking for `Vec`-shaped inputs;
//! * [`mod@bench`] — the guard benches' interleaved timing loop and their
//!   one `BENCH_*.json` report schema;
//! * [`FaultPlan`] — deterministic fault injection for the solver's
//!   resource governor (trips a budget axis at the N-th solver step);
//! * [`IoFaultPlan`] / [`FaultyWriter`] — deterministic IO fault
//!   injection for the snapshot subsystem (short writes, full disks,
//!   truncation, bit rot, crashes around the atomic rename);
//! * [`hostile`] — adversarial batch-protocol line generation, shared by
//!   the stdin and TCP fuzz suites;
//! * [`validate_chrome_trace`] — schema checker for the Chrome
//!   trace-event files `rasc_obs::ChromeTraceSink` writes;
//! * [`validate_prometheus`] — checker for the Prometheus text
//!   exposition pages the `rasc serve --admin-addr` endpoint emits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
mod fault;
mod faultio;
pub mod hostile;
mod promcheck;
mod prop;
mod rng;
mod trace_check;

pub use fault::{FaultKind, FaultPlan, SteppedClock};
pub use faultio::{FaultyWriter, IoFaultKind, IoFaultPlan};
pub use promcheck::{validate_prometheus, PromSummary};
pub use prop::{forall, Config, Shrink, Unshrunk};
pub use rng::Rng;
pub use trace_check::{validate_chrome_trace, TraceSummary};
