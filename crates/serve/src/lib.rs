//! Concurrent constraint-solving server (`rasc-serve`).
//!
//! Serves the JSON-lines batch protocol of [`rasc_inc::BatchEngine`]
//! over TCP — the online-analysis story of Kodumal & Aiken's engine
//! (demand-driven queries against a persistent solved form) behind a
//! stable service boundary, zero-dependency (std only) like the rest of
//! the workspace:
//!
//! * **Connection isolation** — one [`rasc_inc::BatchEngine`], and with
//!   it one incremental [`rasc_core::System`], per connection, served by
//!   a bounded [`ThreadPool`] with a graceful drain; connections are
//!   isolated (names, epochs, budgets).
//! * **Admission control** — a hard cap on concurrent connections and a
//!   bounded worker queue; overload answers
//!   `{"error":{"code":"overloaded",…}}` in-band and closes, instead of
//!   queuing unboundedly.
//! * **Resource governance** — server-wide per-request caps
//!   (a [`rasc_core::Budget`]) wired into every engine: under a cap,
//!   each `add` is transactional, and one that runs out of budget rolls
//!   back.
//! * **Graceful shutdown** — via [`ServerHandle::shutdown`], the in-band
//!   `{"cmd":"shutdown"}` admin command, or an external shutdown flag
//!   ([`ServeConfig::shutdown_flag`], wired to SIGINT/SIGTERM by the
//!   CLI, and watched by a thread of the server's): the accept loops
//!   block in `accept`, so each trigger takes one drain path that wakes
//!   them with a loopback connection; then in-flight requests finish and
//!   their responses flush, connections close and workers join.
//! * **Cheap connections** — a new connection is accepted as soon as it
//!   arrives, and its engine forks the shared base in O(1): the base's
//!   per-variable records are shared 64 variables to a pointer, and the
//!   fork copies a chunk only when it first writes to it.
//! * **Persistence & warm restart** — with [`ServeConfig::snapshot_dir`]
//!   set, the server loads `<dir>/current.snap` as the base image every
//!   connection's engine forks from, and routes in-band
//!   `{"cmd":"snapshot"}` commands there (client-chosen paths are
//!   disabled): each writes the file atomically and becomes the base of
//!   later connections. Corrupt snapshots are detected (checksums) and
//!   rejected — the server starts cold instead of serving a torn solved
//!   form.
//! * **Observability** — `rasc-obs` counters
//!   (`serve.connections.opened/closed`, `serve.requests`,
//!   `serve.rejected.overload`), `serve.request.micros` latency
//!   histograms (also recorded for shed load, tagged by outcome), and
//!   per-connection/per-request spans, delivered to an internal
//!   [`rasc_obs::MetricsRegistry`] and fanned out to any additional
//!   [`rasc_obs::EventSink`] given in [`ServeConfig::sink`].
//! * **Telemetry plane** — with [`ServeConfig::admin_addr`] set, a
//!   std-only HTTP listener on its own thread answers `GET /metrics`
//!   (Prometheus text exposition), `GET /stats` (JSON with p50/p90/p99
//!   estimates from log₂-bucket histograms), and `GET /healthz`
//!   (warm/cold start, uptime, in-flight requests, snapshot checkpoint
//!   age). With [`ServeConfig::slow_millis`] set, every request at or
//!   over the threshold is appended to a [`SlowLog`] as one JSON line —
//!   request id, command, latency, fuel spent, epoch depth, outcome —
//!   and request ids are correlated across spans, slow-log lines, and
//!   the `"req"` field on in-band error responses.
//!
//! The protocol itself — commands, structured error codes, the guarantee
//! that no input line ever kills a session — is exactly `rasc batch`'s;
//! see [`rasc_inc::BatchEngine`]. A malformed or hostile line gets an
//! in-band error on the same connection, which stays usable.
//!
//! ```no_run
//! use rasc_automata::Alphabet;
//! use rasc_automata::Dfa;
//! use rasc_serve::{ServeConfig, Server};
//!
//! let mut sigma = Alphabet::new();
//! let (g, k) = (sigma.intern("g"), sigma.intern("k"));
//! let machine = Dfa::one_bit(&sigma, g, k);
//! let server = Server::bind("127.0.0.1:0", sigma, &machine, ServeConfig::default())?;
//! println!("listening on {}", server.local_addr());
//! let report = server.run()?; // until a shutdown is initiated
//! println!("served {} requests", report.requests);
//! # std::io::Result::Ok(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admin;
mod pool;
mod server;

pub use admin::SlowLog;
pub use pool::{Overloaded, ThreadPool};
pub use server::{ServeConfig, ServeReport, Server, ServerHandle};
