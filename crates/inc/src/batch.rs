//! The batch query front-end: a JSON-lines command protocol over one
//! incremental [`System`] — the seed of the serving story.
//!
//! Each input line is one JSON object; each produces exactly one JSON
//! response line. Blank lines and `#` comments are skipped. Errors are
//! reported in-band as structured objects —
//! `{"error":{"code":…,"message":…}}` — and **no input line, malformed,
//! hostile, or resource-exhausting, ever kills the stream**: the JSON
//! reader bounds its recursion depth, commands under a budget roll back
//! transactionally, and a `catch_unwind` backstop turns any residual
//! panic into an `internal` error response.
//!
//! ```text
//! {"cmd":"declare","cons":"pair","signature":"++"}
//! {"cmd":"limits","max_steps":10000}
//! {"cmd":"add","lhs":"pair(X,Y)","rhs":"Z","ann":["g"]}
//! {"cmd":"push"}
//! {"cmd":"query","kind":"occurs","var":"Z","cons":"c"}
//! {"cmd":"explain","var":"Z","cons":"c"}
//! {"cmd":"pop"}
//! {"cmd":"stats"}
//! ```
//!
//! * `declare` — declare constructor `cons` with one `+` (covariant) or
//!   `-` (contravariant) per argument; omitted `signature` declares a
//!   constant.
//! * `limits` — set the per-`add` resource budget: `max_steps` (worklist
//!   fuel), `max_millis` (wall-clock deadline), `max_terms`, and
//!   `max_entries` (solved-form memory caps). Omitted fields are
//!   unlimited; `{"cmd":"limits"}` clears every limit. The answer reports
//!   the budget in force: the client's limits clamped axis by axis by the
//!   embedder's caps (see [`BatchEngine::set_caps`]). While that budget
//!   bounds any axis, each `add` is **transactional**: it either fully
//!   solves, or the session is rolled back to exactly its prior state and
//!   the response is
//!   `{"error":{"code":"budget_exhausted","reason":…,
//!   "rolled_back":true,…}}`.
//! * `add` — add `lhs ⊆ rhs` and re-solve incrementally. Expressions are
//!   `X`, `c(X,Y)`, or `c^-1(X)` (1-based projection); variables are
//!   created on first use, constructors must be declared. `ann` is a word
//!   over the property machine's alphabet (omitted = ε).
//! * `push` / `pop` — open / roll back an epoch.
//! * `query` — `kind` is `occurs` (accepting occurrence), `anns`
//!   (occurrence annotation classes), `pn` (partially matched
//!   reachability), or `nonempty`.
//! * `explain` — the provenance chain showing *why* constructor `cons`
//!   reached variable `var`'s lower bound: a list of derivation steps,
//!   each citing a resolution rule and (where applicable) the surface
//!   constraint it came from. Provenance recording is always on for
//!   batch sessions.
//! * `stats` — whole-session solver statistics (including budget fuel,
//!   interruptions, and cycle-search depth-limit hits). An optional
//!   `scope` may only be `"session"`; any other scope is a `bad_request`.
//! * `snapshot` / `restore` — persist the session's solved form to a
//!   crash-safe snapshot file and reload one. `path` selects the file;
//!   omitted, the engine's configured default path (set by the embedder,
//!   e.g. `rasc serve --snapshot-dir`) is used. Embedders may disable
//!   client-chosen paths, in which case only the default is writable.
//!   Torn or tampered snapshot files are rejected with
//!   `snapshot_corrupt` and the session is left untouched.
//!
//! Error codes: `malformed_json`, `bad_request`, `unknown_command`,
//! `unknown_symbol`, `unknown_constructor`, `unknown_variable`,
//! `already_declared`, `no_open_epoch`, `constraint_rejected`,
//! `budget_exhausted`, `snapshot_corrupt`, `io`, `internal`. When the
//! embedder has set a request id ([`BatchEngine::begin_request`]), error
//! responses additionally carry a top-level `"req"` field correlating the
//! error with the embedder's spans and slow-query-log lines.

use std::path::PathBuf;
use std::sync::Arc;

use rasc_automata::{Alphabet, Dfa};
use rasc_core::algebra::{Algebra, MonoidAlgebra};
use rasc_core::{Budget, ConsId, Outcome, SetExpr, SnapshotError, System, VarId, Variance};

use crate::json::{obj, Json};
use crate::names::Names;

/// A structured in-band protocol error: a stable machine-readable code,
/// a human-readable message, and optional extra fields.
#[derive(Debug, Clone)]
struct BatchError {
    code: &'static str,
    message: String,
    extra: Vec<(&'static str, Json)>,
}

impl BatchError {
    fn new(code: &'static str, message: impl Into<String>) -> BatchError {
        BatchError {
            code,
            message: message.into(),
            extra: Vec::new(),
        }
    }

    fn with(mut self, key: &'static str, value: Json) -> BatchError {
        self.extra.push((key, value));
        self
    }

    /// Renders as `{"error":{"code":…,"message":…,…}}`.
    fn render(self) -> Json {
        let mut fields = vec![
            ("code".to_owned(), Json::Str(self.code.to_owned())),
            ("message".to_owned(), Json::Str(self.message)),
        ];
        for (k, v) in self.extra {
            fields.push((k.to_owned(), v));
        }
        Json::Obj(vec![("error".to_owned(), Json::Obj(fields))])
    }
}

fn bad_request(message: impl Into<String>) -> BatchError {
    BatchError::new("bad_request", message)
}

/// A stateful batch-protocol interpreter over one incremental
/// [`System`].
#[derive(Debug)]
pub struct BatchEngine {
    /// The solved form: every `add` re-solves it incrementally, `push` /
    /// `pop` open and roll back its epochs, and queries read it.
    pub(crate) sys: System<MonoidAlgebra>,
    pub(crate) sigma: Alphabet,
    /// Constructor names. A fork of a [`crate::EngineBase`] shares the
    /// base's map and binds its own names beside it.
    pub(crate) cons: Names<ConsId>,
    /// Variable names, shared with a fork base like `cons`.
    pub(crate) vars: Names<VarId>,
    /// The client's limits (the `limits` command).
    limits: Budget,
    /// Embedder-imposed caps clamping every budget (see
    /// [`BatchEngine::set_caps`]).
    caps: Budget,
    /// Default target for the `snapshot`/`restore` commands when the
    /// client omits `path` (wired by `rasc serve --snapshot-dir`).
    snapshot_path: Option<PathBuf>,
    /// Whether the `snapshot`/`restore` commands may take a client-chosen
    /// `path`. Serving embedders disable this so remote clients can only
    /// touch the configured default file.
    client_snapshot_paths: bool,
    /// Observer called with the serialized bytes after each successful
    /// `snapshot` command (the serve layer refreshes its warm-start base
    /// image here).
    snapshot_hook: Option<SnapshotHook>,
    /// The embedder-assigned id of the request being handled; echoed as a
    /// top-level `"req"` field on error responses so operators can join
    /// protocol errors against spans and slow-query-log lines.
    request_id: Option<u64>,
    /// Engine figures captured at the last [`BatchEngine::begin_request`]
    /// boundary; [`BatchEngine::request_delta`] reports deltas against it.
    request_base: RequestStats,
}

/// Point-in-time engine figures sampled around every request: the serve
/// layer's slow-query log diffs two of these. Every field is a counter
/// the engine already keeps, so a sample is O(1) whatever the engine's
/// size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestStats {
    /// Worklist fuel charged against limited budgets so far.
    pub fuel_spent: u64,
    /// Worklist facts processed so far (including duplicates).
    pub facts_processed: u64,
    /// Open epoch depth right now.
    pub epoch_depth: usize,
}

impl RequestStats {
    /// The change from `base` to `self`, saturating at zero: a rolled-back
    /// epoch can move the session's counters *backwards* past the request
    /// boundary, and a delta must never underflow into nonsense.
    pub fn delta_since(&self, base: &RequestStats) -> RequestStats {
        RequestStats {
            fuel_spent: self.fuel_spent.saturating_sub(base.fuel_spent),
            facts_processed: self.facts_processed.saturating_sub(base.facts_processed),
            epoch_depth: self.epoch_depth,
        }
    }
}

/// The callable a [`SnapshotHook`] wraps: serialized snapshot bytes in,
/// nothing out, shareable across the serve layer's threads.
type SnapshotObserver = Box<dyn Fn(&[u8]) + Send + Sync>;

/// A boxed snapshot observer (newtype so [`BatchEngine`] keeps `Debug`).
struct SnapshotHook(SnapshotObserver);

impl std::fmt::Debug for SnapshotHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SnapshotHook(..)")
    }
}

impl BatchEngine {
    /// An engine whose annotations range over `machine`'s transition
    /// monoid, with symbols named by `sigma`.
    pub fn new(sigma: Alphabet, machine: &Dfa) -> BatchEngine {
        let mut sys = System::new(MonoidAlgebra::new(machine));
        // Batch engines always record provenance so `explain` works for
        // every constraint the stream adds (recording must be on *before*
        // the facts it will be asked about are derived).
        sys.enable_provenance();
        BatchEngine {
            sys,
            sigma,
            cons: Names::default(),
            vars: Names::default(),
            limits: Budget::unlimited(),
            caps: Budget::unlimited(),
            snapshot_path: None,
            client_snapshot_paths: true,
            snapshot_hook: None,
            request_id: None,
            request_base: RequestStats::default(),
        }
    }

    /// An engine forked from a shared read-only [`crate::EngineBase`].
    ///
    /// The solved form, provenance records, and name maps are aliased
    /// copy-on-write, so a fork costs the same whatever the base's size:
    /// no solved-form entry, per-variable record or name is copied.
    /// Connection state — limits, caps, hooks — starts fresh exactly as
    /// with [`BatchEngine::new`].
    pub fn fork_from(base: &crate::EngineBase) -> BatchEngine {
        BatchEngine {
            sys: System::fork(&base.base),
            sigma: base.sigma.clone(),
            cons: Names::shared(Arc::clone(&base.cons)),
            vars: Names::shared(Arc::clone(&base.vars)),
            limits: Budget::unlimited(),
            caps: Budget::unlimited(),
            snapshot_path: None,
            client_snapshot_paths: true,
            snapshot_hook: None,
            request_id: None,
            request_base: RequestStats::default(),
        }
    }

    /// The engine's solved system (read-only): the connection's session
    /// state, answering the same queries the protocol asks.
    pub fn session(&self) -> &System<MonoidAlgebra> {
        &self.sys
    }

    /// Imposes embedder-wide resource caps on every `add`. Caps clamp
    /// rather than replace: each `add`'s budget is the client's `limits`
    /// tightened axis by axis by these ([`Budget::min_with`]), so a client
    /// can tighten its budget but never escape the embedder's. A clock on
    /// the caps ([`Budget::with_clock`]) times every deadline; without
    /// one, deadlines read the real monotonic clock.
    pub fn set_caps(&mut self, caps: Budget) {
        self.caps = caps;
    }

    /// Sets the default file the `snapshot`/`restore` commands use when
    /// the client omits `path`.
    pub fn set_snapshot_path(&mut self, path: PathBuf) {
        self.snapshot_path = Some(path);
    }

    /// Allows or forbids client-chosen `path` fields on the
    /// `snapshot`/`restore` commands. Serving embedders pass `false` so a
    /// remote client can only read and write the configured default file.
    pub fn set_client_snapshot_paths(&mut self, allowed: bool) {
        self.client_snapshot_paths = allowed;
    }

    /// Registers an observer called with the serialized bytes after each
    /// successful in-band `snapshot` command.
    pub fn set_snapshot_hook(&mut self, hook: impl Fn(&[u8]) + Send + Sync + 'static) {
        self.snapshot_hook = Some(SnapshotHook(Box::new(hook)));
    }

    /// Marks the start of a new request: records `id` (echoed as `"req"`
    /// on error responses; `None` clears it) and snapshots the engine
    /// figures that [`BatchEngine::request_delta`] reports deltas
    /// against. The serve layer calls this once per request line.
    pub fn begin_request(&mut self, id: Option<u64>) {
        self.request_id = id;
        self.request_base = self.request_stats();
    }

    /// The change in the engine figures since the last
    /// [`BatchEngine::begin_request`] (see [`RequestStats::delta_since`]).
    pub fn request_delta(&self) -> RequestStats {
        self.request_stats().delta_since(&self.request_base)
    }

    /// The engine figures a per-request delta is computed from; O(1), so
    /// it is cheap to sample around every request.
    pub fn request_stats(&self) -> RequestStats {
        RequestStats {
            fuel_spent: u64::try_from(self.sys.fuel_spent()).unwrap_or(u64::MAX),
            facts_processed: u64::try_from(self.sys.facts_processed()).unwrap_or(u64::MAX),
            epoch_depth: self.sys.epoch_depth(),
        }
    }

    /// Handles one input line; `None` for blank/comment lines, otherwise
    /// exactly one JSON response line. Never panics and never aborts the
    /// stream, whatever the input.
    pub fn handle_line(&mut self, line: &str) -> Option<String> {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            return None;
        }
        let response = match Json::parse(trimmed) {
            Ok(cmd) => {
                // Defense in depth: the library crates are swept for
                // panics and gated by clippy, but a serving loop must
                // not die even if one slips through. (A stack overflow
                // is not catchable — hence the parsers' depth limits.)
                let result =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.dispatch(&cmd)));
                match result {
                    Ok(Ok(ok)) => ok,
                    Ok(Err(err)) => err.render(),
                    Err(_) => BatchError::new(
                        "internal",
                        "internal error (caught panic); session state may be inconsistent",
                    )
                    .render(),
                }
            }
            Err(msg) => {
                BatchError::new("malformed_json", format!("malformed JSON: {msg}")).render()
            }
        };
        // Stamp error responses with the embedder's request id so a
        // protocol error in a server log can be joined against the span
        // and slow-query-log entries for the same request.
        let response = match (self.request_id, response) {
            (Some(id), Json::Obj(mut fields)) if fields.iter().any(|(k, _)| k == "error") => {
                fields.push(("req".to_owned(), Json::from(id)));
                Json::Obj(fields)
            }
            (_, r) => r,
        };
        Some(response.render())
    }

    fn dispatch(&mut self, cmd: &Json) -> Result<Json, BatchError> {
        let name = cmd
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("missing `cmd` field"))?;
        match name {
            "declare" => self.declare(cmd),
            "limits" => self.set_limits(cmd),
            "add" => self.add(cmd),
            "push" => {
                self.sys.push_epoch();
                Ok(obj([
                    ("ok", Json::from("push")),
                    ("depth", Json::from(self.sys.epoch_depth())),
                ]))
            }
            "pop" => {
                if !self.pop_epoch() {
                    return Err(BatchError::new("no_open_epoch", "no open epoch"));
                }
                Ok(obj([
                    ("ok", Json::from("pop")),
                    ("depth", Json::from(self.sys.epoch_depth())),
                ]))
            }
            "query" => self.query(cmd),
            "explain" => self.explain(cmd),
            "stats" => self.cmd_stats(cmd),
            "snapshot" => self.cmd_snapshot(cmd),
            "restore" => self.cmd_restore(cmd),
            other => Err(BatchError::new(
                "unknown_command",
                format!("unknown command `{other}`"),
            )),
        }
    }

    /// Rolls back the innermost epoch and unbinds the names it bound;
    /// `false` when no epoch is open.
    fn pop_epoch(&mut self) -> bool {
        if !self.sys.pop_epoch() {
            return false;
        }
        let (n_vars, n_cons) = (self.sys.num_vars(), self.sys.num_constructors());
        self.vars.unbind_past(|v| v.index() < n_vars);
        self.cons.unbind_past(|c| c.index() < n_cons);
        true
    }

    /// Commits the innermost epoch; its names stay bound.
    fn commit_epoch(&mut self) {
        self.sys.commit_epoch();
        if self.sys.epoch_depth() == 0 {
            self.vars.close_epochs();
            self.cons.close_epochs();
        }
    }

    fn declare(&mut self, cmd: &Json) -> Result<Json, BatchError> {
        let name = cmd
            .get("cons")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("declare: missing `cons`"))?;
        if self.cons.contains(name) {
            return Err(BatchError::new(
                "already_declared",
                format!("constructor `{name}` already declared"),
            ));
        }
        if self.vars.contains(name) {
            return Err(BatchError::new(
                "already_declared",
                format!("`{name}` is already a variable"),
            ));
        }
        let signature: Vec<Variance> = match cmd.get("signature").and_then(Json::as_str) {
            None => Vec::new(),
            Some(s) => s
                .chars()
                .map(|c| match c {
                    '+' => Ok(Variance::Covariant),
                    '-' => Ok(Variance::Contravariant),
                    other => Err(bad_request(format!(
                        "declare: bad variance `{other}` (want + or -)"
                    ))),
                })
                .collect::<Result<_, _>>()?,
        };
        let id = self.sys.constructor(name, &signature);
        self.cons.bind(name, id, self.sys.epoch_depth() > 0);
        Ok(obj([
            ("ok", Json::from("declare")),
            ("cons", Json::from(name)),
            ("arity", Json::from(signature.len())),
        ]))
    }

    fn set_limits(&mut self, cmd: &Json) -> Result<Json, BatchError> {
        fn field(cmd: &Json, key: &str) -> Result<Option<u64>, BatchError> {
            match cmd.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(v) => match v.as_u64() {
                    Some(n) => Ok(Some(n)),
                    None => Err(bad_request(format!(
                        "limits: `{key}` must be a non-negative integer"
                    ))),
                },
            }
        }
        let to_usize = |n: u64| usize::try_from(n).unwrap_or(usize::MAX);
        let mut limits = Budget::unlimited();
        if let Some(n) = field(cmd, "max_steps")? {
            limits = limits.with_steps(n);
        }
        if let Some(ms) = field(cmd, "max_millis")? {
            limits = limits.with_deadline_millis(ms);
        }
        if let Some(n) = field(cmd, "max_terms")? {
            limits = limits.with_max_terms(to_usize(n));
        }
        if let Some(n) = field(cmd, "max_entries")? {
            limits = limits.with_max_entries(to_usize(n));
        }
        self.limits = limits;
        // The answer is the budget each `add` now gets: the client's
        // limits clamped by the embedder's caps.
        let effective = self.limits.min_with(&self.caps);
        let report = |v: Option<u64>| v.map_or(Json::Null, Json::from);
        Ok(obj([
            ("ok", Json::from("limits")),
            ("max_steps", report(effective.max_steps())),
            ("max_millis", report(effective.max_millis())),
            ("max_terms", report(effective.max_terms().map(|n| n as u64))),
            (
                "max_entries",
                report(effective.max_entries().map(|n| n as u64)),
            ),
            ("transactional", Json::from(!effective.is_unlimited())),
        ]))
    }

    /// The budget for the next `add` — the client's `limits` clamped by
    /// the embedder's caps — or `None` when nothing bounds the solve.
    fn current_budget(&self) -> Option<Budget> {
        let budget = self.limits.min_with(&self.caps);
        (!budget.is_unlimited()).then_some(budget)
    }

    fn add(&mut self, cmd: &Json) -> Result<Json, BatchError> {
        let lhs_text = cmd
            .get("lhs")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("add: missing `lhs`"))?
            .to_owned();
        let rhs_text = cmd
            .get("rhs")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("add: missing `rhs`"))?
            .to_owned();
        let ann = match cmd.get("ann") {
            None => self.sys.algebra().identity(),
            Some(word) => {
                let names = word
                    .as_arr()
                    .ok_or_else(|| bad_request("add: `ann` must be an array"))?;
                let mut symbols = Vec::with_capacity(names.len());
                for n in names {
                    let n = n
                        .as_str()
                        .ok_or_else(|| bad_request("add: `ann` entries must be strings"))?;
                    let sym = self.sigma.lookup(n).ok_or_else(|| {
                        BatchError::new("unknown_symbol", format!("unknown symbol `{n}`"))
                    })?;
                    symbols.push(sym);
                }
                self.sys.algebra_mut().word(&symbols)
            }
        };
        match self.current_budget() {
            None => {
                let lhs = self.parse_expr(&lhs_text)?;
                let rhs = self.parse_expr(&rhs_text)?;
                self.sys
                    .add_ann(lhs, rhs, ann)
                    .map_err(|e| BatchError::new("constraint_rejected", format!("add: {e}")))?;
                self.sys.solve();
            }
            Some(budget) => {
                // Transactional: the epoch opens before expression parsing
                // so even variables created on first use roll away, and the
                // system is byte-for-byte as before on any failure.
                self.sys.push_epoch();
                let parsed = self
                    .parse_expr(&lhs_text)
                    .and_then(|lhs| Ok((lhs, self.parse_expr(&rhs_text)?)));
                let (lhs, rhs) = match parsed {
                    Ok(pair) => pair,
                    Err(err) => {
                        self.pop_epoch();
                        return Err(err);
                    }
                };
                let outcome = self
                    .sys
                    .add_ann(lhs, rhs, ann)
                    .map(|()| self.sys.solve_bounded(&budget));
                match outcome {
                    Err(e) => {
                        self.pop_epoch();
                        return Err(BatchError::new("constraint_rejected", format!("add: {e}")));
                    }
                    Ok(Outcome::Complete) => self.commit_epoch(),
                    Ok(Outcome::Interrupted(reason)) => {
                        self.pop_epoch();
                        return Err(BatchError::new(
                            "budget_exhausted",
                            format!("add interrupted: {reason}; rolled back"),
                        )
                        .with("reason", Json::from(reason.code()))
                        .with("rolled_back", Json::from(true)));
                    }
                }
            }
        }
        Ok(obj([
            ("ok", Json::from("add")),
            ("constraints", Json::from(self.sys.num_constraints())),
            ("consistent", Json::from(self.sys.is_consistent())),
        ]))
    }

    fn query(&mut self, cmd: &Json) -> Result<Json, BatchError> {
        let kind = cmd
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("query: missing `kind`"))?
            .to_owned();
        let var_name = cmd
            .get("var")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("query: missing `var`"))?;
        let x = self.vars.get(var_name).ok_or_else(|| {
            BatchError::new("unknown_variable", format!("unknown variable `{var_name}`"))
        })?;
        let target = || -> Result<ConsId, BatchError> {
            let name = cmd
                .get("cons")
                .and_then(Json::as_str)
                .ok_or_else(|| bad_request("query: missing `cons`"))?;
            self.cons.get(name).ok_or_else(|| {
                BatchError::new(
                    "unknown_constructor",
                    format!("unknown constructor `{name}`"),
                )
            })
        };
        let sys = &mut self.sys;
        let result = match kind.as_str() {
            "occurs" => Json::from(sys.occurs_accepting(x, target()?)),
            "nonempty" => Json::from(sys.nonempty(x)),
            "anns" => {
                let anns = sys.occurrence_annotations(x, target()?);
                self.describe_all(&anns)
            }
            "pn" => {
                let anns = sys.pn_occurrence_annotations(x, target()?);
                self.describe_all(&anns)
            }
            other => return Err(bad_request(format!("unknown query kind `{other}`"))),
        };
        Ok(obj([
            ("ok", Json::from("query")),
            ("kind", Json::from(kind.as_str())),
            ("var", Json::from(var_name)),
            ("result", result),
        ]))
    }

    fn describe_all(&self, anns: &[rasc_core::algebra::AnnId]) -> Json {
        Json::Arr(
            anns.iter()
                .map(|&a| Json::from(self.sys.algebra().describe(a).as_str()))
                .collect(),
        )
    }

    /// `{"cmd":"explain","var":…,"cons":…}` — the derivation chain that
    /// put constructor `cons` into `var`'s solution, innermost entry
    /// first. Empty `steps` means the occurrence does not hold.
    fn explain(&mut self, cmd: &Json) -> Result<Json, BatchError> {
        let var_name = cmd
            .get("var")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("explain: missing `var`"))?;
        let x = self.vars.get(var_name).ok_or_else(|| {
            BatchError::new("unknown_variable", format!("unknown variable `{var_name}`"))
        })?;
        let cons_name = cmd
            .get("cons")
            .and_then(Json::as_str)
            .ok_or_else(|| bad_request("explain: missing `cons`"))?;
        let c = self.cons.get(cons_name).ok_or_else(|| {
            BatchError::new(
                "unknown_constructor",
                format!("unknown constructor `{cons_name}`"),
            )
        })?;
        let steps: Vec<Json> = self
            .sys
            .explain(x, c)
            .into_iter()
            .map(|step| {
                obj([
                    ("rule", Json::from(step.rule)),
                    ("constraint", step.constraint.map_or(Json::Null, Json::from)),
                    ("description", Json::from(step.description.as_str())),
                ])
            })
            .collect();
        Ok(obj([
            ("ok", Json::from("explain")),
            ("var", Json::from(var_name)),
            ("cons", Json::from(cons_name)),
            ("holds", Json::from(!steps.is_empty())),
            ("steps", Json::Arr(steps)),
        ]))
    }

    /// Resolves the target file for a `snapshot`/`restore` command: the
    /// client's `path` if allowed, else the engine's configured default.
    fn snapshot_target(&self, cmd: &Json, what: &str) -> Result<PathBuf, BatchError> {
        match cmd.get("path") {
            Some(p) => {
                let p = p
                    .as_str()
                    .ok_or_else(|| bad_request(format!("{what}: `path` must be a string")))?;
                if !self.client_snapshot_paths {
                    return Err(bad_request(format!(
                        "{what}: client-chosen paths are disabled; omit `path` to use the \
                         server's snapshot file"
                    )));
                }
                Ok(PathBuf::from(p))
            }
            None => self.snapshot_path.clone().ok_or_else(|| {
                bad_request(format!("{what}: no `path` given and no default configured"))
            }),
        }
    }

    /// Maps the snapshot error taxonomy onto stable protocol codes: file
    /// system failures are `io`, torn/tampered snapshots are
    /// `snapshot_corrupt`, and precondition violations are `bad_request`.
    fn snapshot_error(err: SnapshotError) -> BatchError {
        let code = match &err {
            SnapshotError::Io(_) => "io",
            SnapshotError::Corrupt { .. } => "snapshot_corrupt",
            SnapshotError::State { .. } => "bad_request",
        };
        BatchError::new(code, err.to_string())
    }

    /// `{"cmd":"snapshot"[,"path":…]}` — atomically persist the solved
    /// form. The response reports the file and its size.
    fn cmd_snapshot(&mut self, cmd: &Json) -> Result<Json, BatchError> {
        let path = self.snapshot_target(cmd, "snapshot")?;
        let bytes = self
            .snapshot_to_returning(&path)
            .map_err(Self::snapshot_error)?;
        if let Some(hook) = &self.snapshot_hook {
            (hook.0)(&bytes);
        }
        Ok(obj([
            ("ok", Json::from("snapshot")),
            ("path", Json::from(path.display().to_string().as_str())),
            ("bytes", Json::from(bytes.len())),
        ]))
    }

    /// `{"cmd":"restore"[,"path":…]}` — replace the session with a
    /// snapshotted solved form. On any failure (missing file, corruption,
    /// open epochs) the session is left exactly as it was.
    fn cmd_restore(&mut self, cmd: &Json) -> Result<Json, BatchError> {
        let path = self.snapshot_target(cmd, "restore")?;
        self.restore_from(&path).map_err(Self::snapshot_error)?;
        Ok(obj([
            ("ok", Json::from("restore")),
            ("path", Json::from(path.display().to_string().as_str())),
            ("constraints", Json::from(self.sys.num_constraints())),
            ("vars", Json::from(self.sys.num_vars())),
            ("consistent", Json::from(self.sys.is_consistent())),
        ]))
    }

    /// `{"cmd":"stats"}` / `{"cmd":"stats","scope":"session"}`: the
    /// whole-session totals.
    fn cmd_stats(&self, cmd: &Json) -> Result<Json, BatchError> {
        match cmd.get("scope").map(Json::as_str) {
            None | Some(Some("session")) => Ok(self.stats()),
            _ => Err(bad_request("stats: `scope` must be \"session\"")),
        }
    }

    fn stats(&self) -> Json {
        let s = self.sys.stats();
        obj([
            ("ok", Json::from("stats")),
            ("vars", Json::from(s.vars)),
            ("constructors", Json::from(s.constructors)),
            ("constraints", Json::from(self.sys.num_constraints())),
            ("edges", Json::from(s.edges)),
            ("lower_bounds", Json::from(s.lower_bounds)),
            ("upper_bounds", Json::from(s.upper_bounds)),
            (
                "max_lower_bounds_per_var",
                Json::from(s.max_lower_bounds_per_var),
            ),
            (
                "max_upper_bounds_per_var",
                Json::from(s.max_upper_bounds_per_var),
            ),
            ("annotations", Json::from(s.annotations)),
            ("facts_processed", Json::from(s.facts_processed)),
            ("cycles_collapsed", Json::from(s.cycles_collapsed)),
            ("fuel_spent", Json::from(s.fuel_spent)),
            ("interruptions", Json::from(s.interruptions)),
            ("depth_limit_hits", Json::from(s.depth_limit_hits)),
            ("clashes", Json::from(self.sys.clashes().len())),
            ("consistent", Json::from(self.sys.is_consistent())),
            ("epoch_depth", Json::from(self.sys.epoch_depth())),
        ])
    }

    /// Parses `X`, `c(X,Y)`, or `c^-1(X)`; variables are created on first
    /// use, constructors must be declared.
    fn parse_expr(&mut self, text: &str) -> Result<SetExpr, BatchError> {
        let text = text.trim();
        let Some((head, rest)) = text.split_once('(') else {
            // Bare identifier: a declared constant, or a variable.
            let name = validate_ident(text)?;
            if let Some(c) = self.cons.get(name) {
                return Ok(SetExpr::cons_vars(c, []));
            }
            return Ok(SetExpr::var(self.var_of(name)));
        };
        let Some(args_text) = rest.strip_suffix(')') else {
            return Err(bad_request(format!("expected `)` at end of `{text}`")));
        };
        if let Some((cons_name, index_text)) = head.split_once("^-") {
            // Projection `c^-i(X)`, 1-based index.
            let cons_name = validate_ident(cons_name.trim())?;
            let c = self.cons.get(cons_name).ok_or_else(|| {
                BatchError::new(
                    "unknown_constructor",
                    format!("unknown constructor `{cons_name}`"),
                )
            })?;
            let index: usize = index_text
                .trim()
                .parse()
                .map_err(|_| bad_request(format!("bad projection index in `{text}`")))?;
            if index == 0 {
                return Err(bad_request("projection indices are 1-based"));
            }
            let v = self.arg_var(args_text)?;
            return Ok(SetExpr::proj(c, index - 1, v));
        }
        let cons_name = validate_ident(head.trim())?;
        let c = self.cons.get(cons_name).ok_or_else(|| {
            BatchError::new(
                "unknown_constructor",
                format!("unknown constructor `{cons_name}`"),
            )
        })?;
        let mut args = Vec::new();
        if !args_text.trim().is_empty() {
            for part in args_text.split(',') {
                args.push(self.arg_var(part)?);
            }
        }
        Ok(SetExpr::cons_vars(c, args))
    }

    /// The variable an argument of a constructor or projection names; a
    /// declared constant there would read as a variable of its name.
    fn arg_var(&mut self, text: &str) -> Result<VarId, BatchError> {
        let name = validate_ident(text.trim())?;
        if self.cons.contains(name) {
            return Err(bad_request(format!(
                "constructor argument `{name}` must be a variable"
            )));
        }
        Ok(self.var_of(name))
    }

    fn var_of(&mut self, name: &str) -> VarId {
        if let Some(v) = self.vars.get(name) {
            return v;
        }
        let v = self.sys.var(name);
        self.vars.bind(name, v, self.sys.epoch_depth() > 0);
        v
    }
}

fn validate_ident(text: &str) -> Result<&str, BatchError> {
    let ok = !text.is_empty()
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$');
    if ok {
        Ok(text)
    } else {
        Err(bad_request(format!("bad identifier `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> BatchEngine {
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        let machine = Dfa::one_bit(&sigma, g, k);
        BatchEngine::new(sigma, &machine)
    }

    fn run(e: &mut BatchEngine, line: &str) -> Json {
        Json::parse(&e.handle_line(line).expect("a response")).expect("valid JSON response")
    }

    fn error_code(r: &Json) -> Option<&str> {
        r.get("error")?.get("code")?.as_str()
    }

    #[test]
    fn protocol_session_end_to_end() {
        let mut e = engine();
        assert!(e.handle_line("").is_none());
        assert!(e.handle_line("# comment").is_none());
        let r = run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("declare"));
        run(
            &mut e,
            r#"{"cmd":"declare","cons":"pair","signature":"++"}"#,
        );
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"pair(X,X)","rhs":"P"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"pair^-1(P)","rhs":"Y"}"#);
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"occurs","var":"Y","cons":"c"}"#,
        );
        assert_eq!(r.get("result").unwrap().as_bool(), Some(true));
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"anns","var":"Y","cons":"c"}"#,
        );
        assert_eq!(r.get("result").unwrap().as_arr().unwrap().len(), 1);
        let r = run(&mut e, r#"{"cmd":"query","kind":"nonempty","var":"P"}"#);
        assert_eq!(r.get("result").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn push_pop_restores_results_through_the_protocol() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"declare","cons":"d"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        let r = run(&mut e, r#"{"cmd":"push"}"#);
        assert_eq!(r.get("depth").unwrap().as_u64(), Some(1));
        run(&mut e, r#"{"cmd":"add","lhs":"X","rhs":"Y"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"d","rhs":"Y"}"#);
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"occurs","var":"Y","cons":"c"}"#,
        );
        assert_eq!(r.get("result").unwrap().as_bool(), Some(true));
        let r = run(&mut e, r#"{"cmd":"pop"}"#);
        assert_eq!(r.get("depth").unwrap().as_u64(), Some(0));
        let r = run(&mut e, r#"{"cmd":"stats"}"#);
        assert_eq!(r.get("constraints").unwrap().as_u64(), Some(1));
        // Y was rolled away entirely.
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"occurs","var":"Y","cons":"c"}"#,
        );
        assert_eq!(error_code(&r), Some("unknown_variable"));
        let r = run(&mut e, r#"{"cmd":"pop"}"#);
        assert_eq!(error_code(&r), Some("no_open_epoch"));
    }

    #[test]
    fn errors_are_structured_in_band_and_nonfatal() {
        let mut e = engine();
        let r = run(&mut e, "not json");
        assert_eq!(error_code(&r), Some("malformed_json"));
        assert!(r
            .get("error")
            .unwrap()
            .get("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("JSON"));
        let r = run(&mut e, r#"{"cmd":"add","lhs":"q(X)","rhs":"Y"}"#);
        assert_eq!(error_code(&r), Some("unknown_constructor"));
        let r = run(&mut e, r#"{"cmd":"frobnicate"}"#);
        assert_eq!(error_code(&r), Some("unknown_command"));
        let r = run(&mut e, r#"{"cmd":"add","lhs":"X","rhs":"*bad*"}"#);
        assert_eq!(error_code(&r), Some("bad_request"));
        let r = run(&mut e, r#"{"cmd":"add","lhs":"X","rhs":"Y","ann":["zz"]}"#);
        assert_eq!(error_code(&r), Some("unknown_symbol"));
        let r = run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("declare"));
        let r = run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        assert_eq!(error_code(&r), Some("already_declared"));
    }

    #[test]
    fn a_declared_constant_is_no_argument_of_a_constructor_or_projection() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"k"}"#);
        run(&mut e, r#"{"cmd":"declare","cons":"o","signature":"+"}"#);
        for lhs in ["o(k)", "o^-1(k)"] {
            let r = run(
                &mut e,
                &format!(r#"{{"cmd":"add","lhs":"{lhs}","rhs":"X"}}"#),
            );
            assert_eq!(error_code(&r), Some("bad_request"), "{lhs}");
        }
        // Neither bound a variable named like the constant.
        let r = run(&mut e, r#"{"cmd":"query","kind":"nonempty","var":"k"}"#);
        assert_eq!(error_code(&r), Some("unknown_variable"));
    }

    #[test]
    fn limits_command_reports_and_clears() {
        let mut e = engine();
        let r = run(
            &mut e,
            r#"{"cmd":"limits","max_steps":100,"max_entries":50}"#,
        );
        assert_eq!(r.get("ok").unwrap().as_str(), Some("limits"));
        assert_eq!(r.get("max_steps").unwrap().as_u64(), Some(100));
        assert_eq!(r.get("max_millis"), Some(&Json::Null));
        assert_eq!(r.get("transactional").unwrap().as_bool(), Some(true));
        let r = run(&mut e, r#"{"cmd":"limits"}"#);
        assert_eq!(r.get("transactional").unwrap().as_bool(), Some(false));
        let r = run(&mut e, r#"{"cmd":"limits","max_steps":-3}"#);
        assert_eq!(error_code(&r), Some("bad_request"));
    }

    #[test]
    fn limits_report_the_budget_clamped_by_the_caps() {
        let mut e = engine();
        e.set_caps(Budget::unlimited().with_steps(10));
        // A bare `limits` leaves the cap in force: adds stay transactional.
        let r = run(&mut e, r#"{"cmd":"limits"}"#);
        assert_eq!(r.get("max_steps").unwrap().as_u64(), Some(10));
        assert_eq!(r.get("transactional").unwrap().as_bool(), Some(true));
        let r = run(
            &mut e,
            r#"{"cmd":"limits","max_steps":1000,"max_millis":50}"#,
        );
        assert_eq!(r.get("max_steps").unwrap().as_u64(), Some(10), "{r:?}");
        assert_eq!(r.get("max_millis").unwrap().as_u64(), Some(50), "{r:?}");
        assert_eq!(r.get("max_terms"), Some(&Json::Null));
    }

    #[test]
    fn budget_exhausted_add_rolls_back_and_stream_survives() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"V0","ann":["g"]}"#);
        // A chain long enough that zero solver steps cannot finish it.
        for i in 0..8 {
            let line = format!(r#"{{"cmd":"add","lhs":"V{i}","rhs":"V{}"}}"#, i + 1);
            run(&mut e, &line);
        }
        let before = run(&mut e, r#"{"cmd":"stats"}"#);

        run(&mut e, r#"{"cmd":"limits","max_steps":1}"#);
        let r = run(&mut e, r#"{"cmd":"add","lhs":"V8","rhs":"W"}"#);
        assert_eq!(error_code(&r), Some("budget_exhausted"));
        let err = r.get("error").unwrap();
        assert_eq!(err.get("reason").unwrap().as_str(), Some("steps"));
        assert_eq!(err.get("rolled_back").unwrap().as_bool(), Some(true));

        // Rolled back: stats match, the first-use variable `W` is gone.
        run(&mut e, r#"{"cmd":"limits"}"#);
        let after = run(&mut e, r#"{"cmd":"stats"}"#);
        for key in ["vars", "edges", "lower_bounds", "constraints"] {
            assert_eq!(after.get(key), before.get(key), "{key} changed");
        }
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"occurs","var":"W","cons":"c"}"#,
        );
        assert_eq!(error_code(&r), Some("unknown_variable"));

        // The same add under no limits completes.
        let r = run(&mut e, r#"{"cmd":"add","lhs":"V8","rhs":"W"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("add"));
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"occurs","var":"W","cons":"c"}"#,
        );
        assert_eq!(r.get("result").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rollback_depth_samples_each_real_pop_at_its_pre_pop_depth() {
        let reg = Arc::new(rasc_obs::MetricsRegistry::new());
        rasc_obs::scoped(Arc::clone(&reg) as _, || {
            let mut e = engine();
            run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
            // Each line, with the depth its rollback must sample (`None`:
            // the line rolls nothing back).
            let script: &[(&str, Option<u64>)] = &[
                (r#"{"cmd":"pop"}"#, None), // no open epoch
                (r#"{"cmd":"push"}"#, None),
                (r#"{"cmd":"push"}"#, None),
                (r#"{"cmd":"add","lhs":"c","rhs":"X"}"#, None),
                (r#"{"cmd":"pop"}"#, Some(2)),
                (r#"{"cmd":"pop"}"#, Some(1)),
                (r#"{"cmd":"pop"}"#, None), // no open epoch
                (r#"{"cmd":"limits","max_steps":0}"#, None),
                // Interrupted: the add's own epoch rolls back at depth 1.
                (r#"{"cmd":"add","lhs":"c","rhs":"Y"}"#, Some(1)),
            ];
            let (mut count, mut sum) = (0, 0);
            for &(line, sample) in script {
                run(&mut e, line);
                if let Some(depth) = sample {
                    count += 1;
                    sum += depth;
                }
                let snap = reg.snapshot();
                let h = snap.histograms.get("solver.rollback.depth");
                assert_eq!(h.map_or(0, |h| h.count()), count, "{line}");
                assert_eq!(h.map_or(0, |h| h.sum), sum, "{line}");
                let popped = snap.counters.get("solver.epochs.popped");
                assert_eq!(popped.copied().unwrap_or(0), count, "{line}");
            }
        });
    }

    #[test]
    fn engine_caps_clamp_client_limits() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"V0","ann":["g"]}"#);
        for i in 0..8 {
            let line = format!(r#"{{"cmd":"add","lhs":"V{i}","rhs":"V{}"}}"#, i + 1);
            run(&mut e, &line);
        }
        // A server-wide cap of one step bounds the add even though the
        // client asked for a generous budget of its own.
        e.set_caps(Budget::unlimited().with_steps(1));
        run(&mut e, r#"{"cmd":"limits","max_steps":1000000}"#);
        let r = run(&mut e, r#"{"cmd":"add","lhs":"V8","rhs":"W"}"#);
        assert_eq!(error_code(&r), Some("budget_exhausted"));
        let err = r.get("error").unwrap();
        assert_eq!(err.get("rolled_back").unwrap().as_bool(), Some(true));
        // Clearing the client limits does not lift the cap either.
        run(&mut e, r#"{"cmd":"limits"}"#);
        let r = run(&mut e, r#"{"cmd":"add","lhs":"V8","rhs":"W"}"#);
        assert_eq!(error_code(&r), Some("budget_exhausted"));
        // Lifting the cap restores unbounded adds.
        e.set_caps(Budget::unlimited());
        assert!(Budget::unlimited().is_unlimited());
        let r = run(&mut e, r#"{"cmd":"add","lhs":"V8","rhs":"W"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("add"));
    }

    #[test]
    fn explain_returns_a_derivation_chain() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(
            &mut e,
            r#"{"cmd":"declare","cons":"pair","signature":"++"}"#,
        );
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"pair(X,X)","rhs":"P"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"pair^-1(P)","rhs":"Y"}"#);
        let r = run(&mut e, r#"{"cmd":"explain","var":"Y","cons":"c"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("explain"));
        assert_eq!(r.get("holds").unwrap().as_bool(), Some(true));
        let steps = r.get("steps").unwrap().as_arr().unwrap();
        assert!(!steps.is_empty());
        // The chain bottoms out at a surface constraint.
        assert!(steps
            .iter()
            .any(|s| s.get("constraint").is_some_and(|c| c.as_u64().is_some())));
        // An occurrence that does not hold explains to an empty chain.
        let r = run(&mut e, r#"{"cmd":"explain","var":"P","cons":"c"}"#);
        assert_eq!(r.get("holds").unwrap().as_bool(), Some(false));
        assert!(r.get("steps").unwrap().as_arr().unwrap().is_empty());
        // Unknown names are structured in-band errors.
        let r = run(&mut e, r#"{"cmd":"explain","var":"Zz","cons":"c"}"#);
        assert_eq!(error_code(&r), Some("unknown_variable"));
        let r = run(&mut e, r#"{"cmd":"explain","var":"Y","cons":"qq"}"#);
        assert_eq!(error_code(&r), Some("unknown_constructor"));
        let r = run(&mut e, r#"{"cmd":"explain","var":"Y"}"#);
        assert_eq!(error_code(&r), Some("bad_request"));
    }

    #[test]
    fn stats_scope_is_session_or_a_bad_request() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"limits","max_steps":100000}"#);
        e.begin_request(Some(7));
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        // `session` scope is the whole-session totals.
        let r = run(&mut e, r#"{"cmd":"stats","scope":"session"}"#);
        assert!(r.get("fuel_spent").unwrap().as_u64().unwrap() > 0);
        assert!(r.get("vars").is_some());
        // Every other scope, `request` included, is rejected in-band.
        for scope in [r#""request""#, r#""bogus""#, "3"] {
            let r = run(&mut e, &format!(r#"{{"cmd":"stats","scope":{scope}}}"#));
            assert_eq!(error_code(&r), Some("bad_request"), "{scope}");
        }
    }

    #[test]
    fn error_responses_carry_the_request_id_when_set() {
        let mut e = engine();
        let r = run(&mut e, r#"{"cmd":"nope"}"#);
        assert!(r.get("req").is_none(), "no id set: no req field");
        e.begin_request(Some(42));
        let r = run(&mut e, r#"{"cmd":"nope"}"#);
        assert_eq!(error_code(&r), Some("unknown_command"));
        assert_eq!(r.get("req").unwrap().as_u64(), Some(42));
        // Success responses stay unchanged.
        let r = run(&mut e, r#"{"cmd":"stats"}"#);
        assert!(r.get("req").is_none());
        e.begin_request(None);
        let r = run(&mut e, r#"{"cmd":"nope"}"#);
        assert!(r.get("req").is_none(), "cleared id: no req field");
    }

    #[test]
    fn request_stats_deltas_saturate_across_rollback() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"limits","max_steps":100000}"#);
        run(&mut e, r#"{"cmd":"push"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        // Boundary taken *after* the epoch's work…
        e.begin_request(None);
        let base_fuel = e.request_stats().fuel_spent;
        assert!(base_fuel > 0);
        // …then the epoch rolls back, moving fuel_spent backwards.
        run(&mut e, r#"{"cmd":"pop"}"#);
        let d = e.request_delta();
        assert_eq!(d.fuel_spent, 0, "saturates instead of underflowing");
        assert_eq!(d.epoch_depth, 0);
    }

    #[test]
    fn stats_reports_budget_and_bound_counters() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        let r = run(&mut e, r#"{"cmd":"stats"}"#);
        for key in ["fuel_spent", "interruptions", "depth_limit_hits"] {
            assert_eq!(r.get(key).unwrap().as_u64(), Some(0), "{key} not zero");
        }
        assert_eq!(r.get("constructors").unwrap().as_u64(), Some(1));
        // A committed bounded add leaves its fuel charge visible.
        run(&mut e, r#"{"cmd":"limits","max_steps":100000}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"X","rhs":"Y"}"#);
        run(&mut e, r#"{"cmd":"limits"}"#);
        let r = run(&mut e, r#"{"cmd":"stats"}"#);
        assert!(r.get("fuel_spent").unwrap().as_u64().unwrap() > 0);
        assert!(r.get("annotations").unwrap().as_u64().unwrap() > 0);
        assert!(r.get("max_lower_bounds_per_var").unwrap().as_u64().unwrap() > 0);
        assert!(r.get("max_upper_bounds_per_var").is_some());
    }

    #[test]
    fn zero_step_cap_blocks_every_add_until_lifted() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        e.set_caps(Budget::unlimited().with_steps(0));
        // A client asking for *more* budget cannot escape the zero cap.
        run(&mut e, r#"{"cmd":"limits","max_steps":5}"#);
        let r = run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        assert_eq!(error_code(&r), Some("budget_exhausted"));
        e.set_caps(Budget::unlimited());
        let r = run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("add"));
    }

    #[test]
    fn caps_and_limits_tighten_per_axis_not_wholesale() {
        // The server caps terms; the client caps steps; the effective
        // budget honors both axes at once.
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        e.set_caps(Budget::unlimited().with_max_terms(1));
        run(&mut e, r#"{"cmd":"limits","max_steps":100000}"#);
        // Exceeding the *server's* term cap trips even though the client
        // never mentioned terms (the add interns a source and a variable).
        let r = run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        assert_eq!(error_code(&r), Some("budget_exhausted"));
        assert_eq!(
            r.get("error").unwrap().get("reason").unwrap().as_str(),
            Some("memory"),
            "term-cap interrupts report the memory reason code"
        );
    }

    #[test]
    fn snapshot_and_restore_commands_round_trip_in_band() {
        let dir = std::env::temp_dir().join(format!("rasc-batch-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("inband.snap");
        let path_json = Json::Str(path.display().to_string()).render();

        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        let r = run(
            &mut e,
            &format!(r#"{{"cmd":"snapshot","path":{path_json}}}"#),
        );
        assert_eq!(r.get("ok").unwrap().as_str(), Some("snapshot"));
        assert!(r.get("bytes").unwrap().as_u64().unwrap() > 0);

        // Diverge, then restore back to the snapshotted state.
        run(&mut e, r#"{"cmd":"add","lhs":"X","rhs":"Y"}"#);
        let r = run(
            &mut e,
            &format!(r#"{{"cmd":"restore","path":{path_json}}}"#),
        );
        assert_eq!(r.get("ok").unwrap().as_str(), Some("restore"));
        assert_eq!(r.get("constraints").unwrap().as_u64(), Some(1));
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"occurs","var":"Y","cons":"c"}"#,
        );
        assert_eq!(error_code(&r), Some("unknown_variable"));
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"occurs","var":"X","cons":"c"}"#,
        );
        assert_eq!(r.get("result").unwrap().as_bool(), Some(true));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_command_errors_are_typed_and_stable() {
        let dir = std::env::temp_dir().join(format!("rasc-batch-snaperr-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut e = engine();
        // No path and no default: bad_request.
        let r = run(&mut e, r#"{"cmd":"snapshot"}"#);
        assert_eq!(error_code(&r), Some("bad_request"));
        let r = run(&mut e, r#"{"cmd":"restore"}"#);
        assert_eq!(error_code(&r), Some("bad_request"));
        // Missing file: io.
        let absent = Json::Str(dir.join("absent.snap").display().to_string()).render();
        let r = run(&mut e, &format!(r#"{{"cmd":"restore","path":{absent}}}"#));
        assert_eq!(error_code(&r), Some("io"));
        // Torn file: snapshot_corrupt — and the session survives.
        let torn = dir.join("torn.snap");
        let full = e.snapshot_bytes().unwrap();
        std::fs::write(&torn, &full[..full.len() - 3]).unwrap();
        let torn_json = Json::Str(torn.display().to_string()).render();
        let r = run(
            &mut e,
            &format!(r#"{{"cmd":"restore","path":{torn_json}}}"#),
        );
        assert_eq!(error_code(&r), Some("snapshot_corrupt"));
        let r = run(&mut e, r#"{"cmd":"stats"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("stats"));
        // Client paths can be disabled; the default path still works and
        // the snapshot hook observes the bytes.
        let seen = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(0));
        let seen_in_hook = std::sync::Arc::clone(&seen);
        e.set_client_snapshot_paths(false);
        e.set_snapshot_path(dir.join("default.snap"));
        e.set_snapshot_hook(move |bytes| {
            seen_in_hook.store(bytes.len() as u64, std::sync::atomic::Ordering::SeqCst);
        });
        let elsewhere = Json::Str(dir.join("elsewhere.snap").display().to_string()).render();
        let r = run(
            &mut e,
            &format!(r#"{{"cmd":"snapshot","path":{elsewhere}}}"#),
        );
        assert_eq!(error_code(&r), Some("bad_request"));
        let r = run(&mut e, r#"{"cmd":"snapshot"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("snapshot"));
        assert_eq!(
            r.get("bytes").unwrap().as_u64(),
            Some(seen.load(std::sync::atomic::Ordering::SeqCst))
        );
        // Restoring with an open epoch is refused as bad_request.
        run(&mut e, r#"{"cmd":"push"}"#);
        let r = run(&mut e, r#"{"cmd":"restore"}"#);
        assert_eq!(error_code(&r), Some("bad_request"));
        run(&mut e, r#"{"cmd":"pop"}"#);
        let r = run(&mut e, r#"{"cmd":"restore"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("restore"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn generous_budget_commits_transactionally() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"limits","max_steps":100000}"#);
        let r = run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"X","ann":["g"]}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("add"));
        let r = run(
            &mut e,
            r#"{"cmd":"query","kind":"occurs","var":"X","cons":"c"}"#,
        );
        assert_eq!(r.get("result").unwrap().as_bool(), Some(true));
        // No epoch leaked by the internal transaction.
        let r = run(&mut e, r#"{"cmd":"stats"}"#);
        assert_eq!(r.get("epoch_depth").unwrap().as_u64(), Some(0));
        // And explicit user epochs still compose with budgets.
        run(&mut e, r#"{"cmd":"push"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"X","rhs":"Y"}"#);
        let r = run(&mut e, r#"{"cmd":"stats"}"#);
        assert_eq!(r.get("epoch_depth").unwrap().as_u64(), Some(1));
        let r = run(&mut e, r#"{"cmd":"pop"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("pop"));
    }

    /// Whether `name` is bound as a variable: `nonempty` answers for a
    /// bound name and says `unknown_variable` otherwise.
    fn bound(e: &mut BatchEngine, name: &str) -> bool {
        let line = format!(r#"{{"cmd":"query","kind":"nonempty","var":"{name}"}}"#);
        error_code(&run(e, &line)).is_none()
    }

    #[test]
    fn each_pop_unbinds_exactly_the_names_its_epoch_bound() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"A"}"#);
        // Nested epochs: B in the outer one, C and the constructor d in
        // the inner one.
        run(&mut e, r#"{"cmd":"push"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"A","rhs":"B"}"#);
        run(&mut e, r#"{"cmd":"push"}"#);
        run(&mut e, r#"{"cmd":"declare","cons":"d"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"d","rhs":"C"}"#);
        run(&mut e, r#"{"cmd":"pop"}"#);
        assert!(bound(&mut e, "A") && bound(&mut e, "B"));
        assert!(!bound(&mut e, "C"), "C was bound in the inner epoch");
        let r = run(&mut e, r#"{"cmd":"declare","cons":"d"}"#);
        assert_eq!(r.get("ok").unwrap().as_str(), Some("declare"), "d unbound");
        run(&mut e, r#"{"cmd":"pop"}"#);
        assert!(bound(&mut e, "A") && !bound(&mut e, "B"));

        // A transactional add that runs out of budget unbinds the names
        // its parse bound; one that completes keeps them once committed.
        for i in 0..4 {
            let line = format!(r#"{{"cmd":"add","lhs":"A","rhs":"V{i}"}}"#);
            run(&mut e, &line);
        }
        run(&mut e, r#"{"cmd":"limits","max_steps":1}"#);
        let r = run(&mut e, r#"{"cmd":"add","lhs":"V3","rhs":"W"}"#);
        assert_eq!(error_code(&r), Some("budget_exhausted"));
        assert!(!bound(&mut e, "W") && bound(&mut e, "V3"));
        run(&mut e, r#"{"cmd":"limits","max_steps":100000}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"V3","rhs":"W"}"#);
        assert!(bound(&mut e, "W"));
        assert_eq!(e.vars.logged(), 0, "committed names leave no log");
    }

    #[test]
    fn a_fork_binds_fresh_names_beside_the_shared_base() {
        let mut e = engine();
        run(&mut e, r#"{"cmd":"declare","cons":"c"}"#);
        run(&mut e, r#"{"cmd":"add","lhs":"c","rhs":"A"}"#);
        let base = crate::EngineBase::decode(&e.snapshot_bytes().unwrap(), &e.sigma).unwrap();
        let mut fork = BatchEngine::fork_from(&base);
        run(&mut fork, r#"{"cmd":"push"}"#);
        run(&mut fork, r#"{"cmd":"add","lhs":"A","rhs":"B"}"#);
        assert!(bound(&mut fork, "A") && bound(&mut fork, "B"));
        assert!(
            Arc::ptr_eq(fork.vars.base(), &base.vars) && !base.vars.contains_key("B"),
            "the fork's first name leaves the base's map shared and unchanged"
        );
        run(&mut fork, r#"{"cmd":"pop"}"#);
        assert!(bound(&mut fork, "A") && !bound(&mut fork, "B"));
        run(&mut fork, r#"{"cmd":"add","lhs":"A","rhs":"B"}"#);
        assert!(bound(&mut fork, "B"), "bound for good outside an epoch");
        assert!(Arc::ptr_eq(fork.vars.base(), &base.vars));
    }
}
