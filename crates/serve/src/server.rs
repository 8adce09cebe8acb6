//! The TCP server: accept loop, admission control, per-connection
//! sessions, and graceful drain.

use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rasc_automata::{Alphabet, Dfa};
use rasc_core::snapshot::read_snapshot_file;
use rasc_core::{Budget, SnapshotError};
use rasc_inc::json::{obj, Json};
use rasc_inc::{BatchEngine, EngineBase};
use rasc_obs::{self as obs, EventSink, Fanout, MetricsRegistry, MetricsSnapshot, ScopedSink};

use crate::admin::{run_admin, ContentType, SlowLog};
use crate::pool::ThreadPool;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How often an idle connection's blocked read re-checks for a drain —
/// the upper bound on how long an idle connection delays one. The
/// signal-flag watcher checks the flag this often, and a failed `accept`
/// (say, out of file descriptors) backs off this long. The accept loops
/// themselves block in `accept`: a drain wakes them (see
/// [`Shared::begin_drain`]).
const POLL: Duration = Duration::from_millis(20);

/// How long a drain waits for its wake-up connection to a listener.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Server-wide configuration: concurrency, admission control, and the
/// per-request resource caps applied to every connection's engine.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads; each serves one connection at a time.
    pub threads: usize,
    /// Admission cap on connections being served or waiting for a worker.
    /// Arrivals beyond it receive `{"error":{"code":"overloaded",…}}` and
    /// are closed instead of queuing unboundedly.
    pub max_connections: usize,
    /// Per-request resource caps wired into every connection's
    /// [`BatchEngine`] (the protocol `limits` command can tighten but
    /// never exceed them). A clock set on the caps
    /// ([`Budget::with_clock`]) times every engine's deadlines.
    pub caps: Budget,
    /// Observability sink installed on every worker (and the accept
    /// thread) for the server's counters, latency histograms, and
    /// per-connection spans.
    pub sink: Option<Arc<dyn EventSink>>,
    /// Warm-restart directory. When set, the server decodes
    /// `<dir>/current.snap` **once** at startup into a shared read-only
    /// base that every new connection forks copy-on-write (a few `Arc`
    /// bumps per connection, whatever the base's size), routes the
    /// in-band `{"cmd":"snapshot"}` command to that file (client-chosen
    /// paths are disabled). A corrupt base file is rejected with a
    /// `snap.corrupt_rejected` counter and the server starts cold; an
    /// unreadable (but present) file is counted as
    /// `serve.base.io_errors`.
    pub snapshot_dir: Option<PathBuf>,
    /// External shutdown request (the CLI wires its SIGINT/SIGTERM
    /// handler here): setting it true initiates the same graceful drain
    /// as [`ServerHandle::begin_shutdown`]. A signal handler can only
    /// store to the flag, so [`Server::run`] watches it from a thread of
    /// its own, which checks it every 20 ms until the drain begins.
    pub shutdown_flag: Option<Arc<AtomicBool>>,
    /// Address of the admin telemetry listener (`rasc serve
    /// --admin-addr`). When set, the server answers `GET /metrics`
    /// (Prometheus text exposition), `GET /stats` (JSON with p50/p90/p99
    /// latency estimates), and `GET /healthz` (uptime, warm/cold start,
    /// in-flight requests, snapshot checkpoint age) from an internal
    /// [`MetricsRegistry`] that aggregates every `serve.*`/`snap.*`
    /// event. The listener runs on its own thread and never touches the
    /// solver.
    pub admin_addr: Option<String>,
    /// Slow-query threshold in milliseconds: any request whose handling
    /// latency reaches it is appended to the slow-query log as one JSON
    /// line (request id, command, latency, fuel spent, epoch depth,
    /// outcome). `None` disables the log.
    pub slow_millis: Option<u64>,
    /// Destination of the slow-query log. `None` with
    /// [`ServeConfig::slow_millis`] set defaults to stderr.
    pub slow_log: Option<Arc<SlowLog>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            threads: 4,
            max_connections: 64,
            caps: Budget::unlimited(),
            sink: None,
            snapshot_dir: None,
            shutdown_flag: None,
            admin_addr: None,
            slow_millis: None,
            slow_log: None,
        }
    }
}

/// Counters aggregated over one server lifetime, returned by
/// [`Server::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeReport {
    /// Connections accepted and served (including ones still counted
    /// during drain).
    pub connections: u64,
    /// Requests answered across all connections.
    pub requests: u64,
    /// Connections refused by admission control.
    pub rejected: u64,
}

#[derive(Debug)]
struct Shared {
    sigma: Alphabet,
    dfa: Dfa,
    config: ServeConfig,
    draining: AtomicBool,
    /// `(done, cv)`: flipped and broadcast once the server has fully
    /// drained and stopped.
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Connections admitted and not yet finished (serving or queued).
    active: AtomicUsize,
    next_conn: AtomicU64,
    connections: AtomicU64,
    requests: AtomicU64,
    rejected: AtomicU64,
    /// Warm-restart file (`<snapshot_dir>/current.snap`) when persistence
    /// is configured. Every in-band `snapshot` writes it atomically.
    snapshot_path: Option<PathBuf>,
    /// The decoded, frozen base image: parsed and validated **once** (at
    /// startup or when an in-band `snapshot` swaps it), and every new
    /// connection builds its engine with [`BatchEngine::fork_from`] — a
    /// few `Arc` bumps instead of a full per-connection restore.
    base: Mutex<Option<Arc<EngineBase>>>,
    /// Aggregated telemetry behind the admin endpoint. Always present;
    /// it is installed (fanned out with [`ServeConfig::sink`]) on every
    /// worker so `serve.*` counters and latency histograms accumulate
    /// here whether or not an admin listener is configured.
    metrics: Arc<MetricsRegistry>,
    /// The sink every server thread installs: the metrics registry,
    /// fanned out with the embedder's [`ServeConfig::sink`] if any.
    effective_sink: Arc<dyn EventSink>,
    /// The protocol listener's resolved address (port 0 resolved).
    addr: SocketAddr,
    /// Resolved admin listener address (port 0 resolved), when configured.
    admin_addr: Option<SocketAddr>,
    /// Monotone request-id source shared by every connection.
    next_req: AtomicU64,
    /// Requests currently being handled (the `/healthz` in-flight gauge).
    inflight: AtomicUsize,
    /// Server start time (the `/healthz` uptime origin).
    started: Instant,
    /// Whether startup restored a warm base image (`/healthz`).
    warm_start: bool,
    /// When the base image was last made durable, as `(stamp, age at
    /// stamp)`: a fresh in-band `snapshot` records `(now, 0)`, while the
    /// startup load records the snapshot **file's** age (from its mtime)
    /// so a warm restart reports how stale the image really is, not how
    /// long this process has been up. `/healthz` reports
    /// `stamp.elapsed() + age`. The pair sidesteps `Instant` arithmetic
    /// that would fail when the file is older than the process.
    last_checkpoint: Mutex<Option<(Instant, Duration)>>,
}

impl Shared {
    /// Routes one admin request path to its response body.
    fn admin_route(&self, path: &str) -> Option<(ContentType, String)> {
        match path {
            "/metrics" => Some((ContentType::PromText, self.metrics.render_prometheus())),
            "/stats" => Some((ContentType::Json, self.metrics.render_json())),
            "/healthz" => Some((ContentType::Json, self.health_json())),
            _ => None,
        }
    }

    /// The `/healthz` body: liveness plus the operational facts a probe
    /// wants before routing traffic here.
    fn health_json(&self) -> String {
        let uptime = u64::try_from(self.started.elapsed().as_millis()).unwrap_or(u64::MAX);
        let checkpoint_age = lock(&self.last_checkpoint).map(|(stamp, age_at_stamp)| {
            u64::try_from((stamp.elapsed() + age_at_stamp).as_millis()).unwrap_or(u64::MAX)
        });
        obj([
            ("ok", Json::from(true)),
            ("draining", Json::from(self.is_draining())),
            ("warm_start", Json::from(self.warm_start)),
            ("uptime_millis", Json::from(uptime)),
            (
                "inflight_requests",
                Json::from(self.inflight.load(Ordering::SeqCst)),
            ),
            (
                "active_connections",
                Json::from(self.active.load(Ordering::SeqCst)),
            ),
            ("requests", Json::from(self.requests.load(Ordering::SeqCst))),
            (
                "connections",
                Json::from(self.connections.load(Ordering::SeqCst)),
            ),
            ("rejected", Json::from(self.rejected.load(Ordering::SeqCst))),
            (
                "checkpoint_age_millis",
                checkpoint_age.map_or(Json::Null, Json::from),
            ),
        ])
        .render()
    }

    fn is_draining(&self) -> bool {
        // An externally wired shutdown flag (the CLI's signal handler)
        // requests the same graceful drain as ServerHandle::begin_shutdown.
        if let Some(flag) = &self.config.shutdown_flag {
            if flag.load(Ordering::SeqCst) {
                self.begin_drain();
            }
        }
        self.draining.load(Ordering::SeqCst)
    }

    /// The one drain path, taken by [`ServerHandle::begin_shutdown`], the
    /// in-band `shutdown` and the signal flag: flags the drain, then
    /// wakes each listener blocked in `accept` with one loopback
    /// connection, which its accept loop drops on seeing the flag. Only
    /// the first call wakes.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        for addr in std::iter::once(self.addr).chain(self.admin_addr) {
            let _ = TcpStream::connect_timeout(&reachable(addr), WAKE_TIMEOUT);
        }
    }
}

/// Where a local client reaches a listener bound to `addr`: a wildcard
/// bind is reached on loopback.
fn reachable(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// A cloneable handle for inspecting and stopping a running [`Server`].
#[derive(Debug, Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals a graceful shutdown and returns immediately: the accept
    /// loop stops, in-flight requests complete, connections close.
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Signals a graceful shutdown and blocks until the server has fully
    /// drained and stopped.
    pub fn shutdown(&self) {
        self.begin_shutdown();
        let mut done = lock(&self.shared.done);
        while !*done {
            done = self
                .shared
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Whether a shutdown has been initiated.
    pub fn is_draining(&self) -> bool {
        self.shared.is_draining()
    }

    /// The admin telemetry listener's resolved address, when configured
    /// (useful with an `--admin-addr` port of 0).
    pub fn admin_addr(&self) -> Option<SocketAddr> {
        self.shared.admin_addr
    }

    /// A point-in-time copy of the server's aggregated metrics — what
    /// `GET /metrics` and `GET /stats` render, available in-process for
    /// embedders and tests.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }
}

/// A concurrent JSON-lines constraint-solving server: one
/// [`BatchEngine`] (over its own incremental `System`) per connection,
/// served by a bounded [`ThreadPool`].
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    /// Admin telemetry listener, bound when `--admin-addr` is configured.
    admin_listener: Option<TcpListener>,
    addr: SocketAddr,
    shared: Arc<Shared>,
    pool: ThreadPool,
}

impl Server {
    /// Binds `addr` and prepares the worker pool. The server speaks the
    /// batch protocol of [`BatchEngine`]; each connection gets a fresh
    /// engine over `machine`'s annotation monoid.
    pub fn bind(
        addr: impl ToSocketAddrs,
        sigma: Alphabet,
        machine: &Dfa,
        config: ServeConfig,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Queue capacity matches the admission cap, so a connection that
        // passed admission is never refused by the pool.
        let pool = ThreadPool::new(config.threads, config.max_connections.max(1));
        // Bind the admin listener here so port 0 resolves before run()
        // and a bad --admin-addr fails loudly at startup, not mid-serve.
        let admin_listener = match &config.admin_addr {
            Some(spec) => Some(TcpListener::bind(spec.as_str())?),
            None => None,
        };
        let admin_addr = match &admin_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let mut config = config;
        if config.slow_millis.is_some() && config.slow_log.is_none() {
            config.slow_log = Some(Arc::new(SlowLog::stderr()));
        }
        let metrics = Arc::new(MetricsRegistry::new());
        let effective_sink: Arc<dyn EventSink> = match &config.sink {
            Some(user) => Arc::new(Fanout::new(vec![
                Arc::clone(&metrics) as Arc<dyn EventSink>,
                Arc::clone(user),
            ])),
            None => Arc::clone(&metrics) as Arc<dyn EventSink>,
        };
        let snapshot_path = match &config.snapshot_dir {
            Some(dir) => {
                std::fs::create_dir_all(dir)?;
                Some(dir.join("current.snap"))
            }
            None => None,
        };
        // Load and decode the warm-restart image under the server's sink,
        // so bind-time telemetry (`snap.restore.micros`,
        // `snap.corrupt_rejected`, `serve.base.io_errors`) lands in the
        // same registry the admin endpoint scrapes.
        let loaded = {
            let _sink_guard = ScopedSink::install(Arc::clone(&effective_sink));
            snapshot_path
                .as_deref()
                .and_then(|p| load_base_image(p, &sigma))
        };
        let warm_start = loaded.is_some();
        // A warm start's image was made durable when the file was last
        // written, not now: seed the checkpoint clock with the file's age
        // so `/healthz` reports real staleness across restarts.
        let initial_checkpoint = loaded.as_ref().map(|_| {
            let file_age = snapshot_path
                .as_deref()
                .and_then(|p| std::fs::metadata(p).ok())
                .and_then(|m| m.modified().ok())
                .and_then(|mtime| mtime.elapsed().ok())
                .unwrap_or(Duration::ZERO);
            (Instant::now(), file_age)
        });
        let shared = Arc::new(Shared {
            sigma,
            dfa: machine.clone(),
            config,
            draining: AtomicBool::new(false),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            active: AtomicUsize::new(0),
            next_conn: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            snapshot_path,
            base: Mutex::new(loaded.map(Arc::new)),
            metrics,
            effective_sink,
            addr,
            admin_addr,
            next_req: AtomicU64::new(0),
            inflight: AtomicUsize::new(0),
            started: Instant::now(),
            warm_start,
            last_checkpoint: Mutex::new(initial_checkpoint),
        });
        Ok(Server {
            listener,
            admin_listener,
            addr,
            shared,
            pool,
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle for stopping and inspecting the server from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            shared: Arc::clone(&self.shared),
            addr: self.addr,
        }
    }

    /// Runs the accept loop on the calling thread until a shutdown is
    /// initiated (via [`ServerHandle`], the in-band `shutdown` admin
    /// command or [`ServeConfig::shutdown_flag`]), then drains: stops
    /// accepting, finishes in-flight requests, closes connections, joins
    /// the workers, and wakes every [`ServerHandle::shutdown`] waiter.
    /// The loop blocks in `accept`, so a new connection is admitted as
    /// soon as it arrives.
    pub fn run(self) -> io::Result<ServeReport> {
        let Server {
            listener,
            admin_listener,
            addr: _,
            shared,
            pool,
        } = self;
        let _sink_guard = ScopedSink::install(Arc::clone(&shared.effective_sink));
        // A signal handler can only set the flag, so a thread watches it
        // and starts the drain that wakes the accept loops.
        let flag_watch = shared.config.shutdown_flag.is_some().then(|| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                while !shared.is_draining() {
                    std::thread::sleep(POLL);
                }
            })
        });
        // The admin plane answers scrapes from the registry on its own
        // thread; it stops once the drain begins.
        let admin_thread = admin_listener.map(|l| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let drain_check = Arc::clone(&shared);
                let route_shared = Arc::clone(&shared);
                run_admin(
                    l,
                    POLL,
                    move || drain_check.is_draining(),
                    move |path| route_shared.admin_route(path),
                );
            })
        });
        while !shared.is_draining() {
            match listener.accept() {
                // A connection that arrives once the drain has begun —
                // the drain's own wake-up among them — is dropped.
                Ok((stream, _peer)) if !shared.is_draining() => admit(&shared, &pool, stream),
                Ok(_) => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient accept failures (EMFILE, aborted handshakes)
                // must not kill the server.
                Err(_) => std::thread::sleep(POLL),
            }
        }
        // Stop accepting, then drain.
        drop(listener);
        pool.drain();
        *lock(&shared.done) = true;
        shared.done_cv.notify_all();
        for thread in admin_thread.into_iter().chain(flag_watch) {
            let _ = thread.join();
        }
        Ok(ServeReport {
            connections: shared.connections.load(Ordering::SeqCst),
            requests: shared.requests.load(Ordering::SeqCst),
            rejected: shared.rejected.load(Ordering::SeqCst),
        })
    }

    /// Runs the server on a background thread, returning its handle and
    /// the join handle yielding the final [`ServeReport`].
    pub fn spawn(self) -> (ServerHandle, JoinHandle<io::Result<ServeReport>>) {
        let handle = self.handle();
        let join = std::thread::spawn(move || self.run());
        (handle, join)
    }
}

/// Reads, validates, and fully decodes a warm-restart base image into a
/// shared fork base. Every failure degrades to a cold start, but the
/// three failure modes are kept distinct — an operator must be able to
/// tell "first boot" from "my disk is broken" from "my snapshot is torn":
///
/// * a genuinely **absent** file is the expected first boot and stays
///   silent;
/// * any other **IO failure** (permissions, `EISDIR`, transient read
///   errors) bumps `serve.base.io_errors` and logs one stderr line;
/// * **corrupt or mismatched** contents bump `snap.corrupt_rejected`
///   (inside [`EngineBase::decode`]) and log one stderr line.
fn load_base_image(path: &std::path::Path, sigma: &Alphabet) -> Option<EngineBase> {
    let bytes = match read_snapshot_file(path) {
        Ok(b) => b,
        Err(SnapshotError::Io(e)) if e.kind() == ErrorKind::NotFound => return None,
        Err(e) => {
            obs::counter("serve.base.io_errors", 1);
            eprintln!(
                "rasc-serve: cannot read warm-restart image {}: {e}; starting cold",
                path.display()
            );
            return None;
        }
    };
    match EngineBase::decode(&bytes, sigma) {
        Ok(base) => Some(base),
        Err(e) => {
            // decode() already counted `snap.corrupt_rejected` for torn
            // contents; mismatched-configuration (State) rejections ride
            // the warm-start-failure counter instead.
            if matches!(e, SnapshotError::State { .. }) {
                obs::counter("serve.warm_start_failures", 1);
            }
            eprintln!(
                "rasc-serve: rejecting warm-restart image {}: {e}; starting cold",
                path.display()
            );
            None
        }
    }
}

/// Decrements the active-connection count when the connection finishes —
/// or when an admitted job is dropped unrun during shutdown.
#[derive(Debug)]
struct ConnTicket(Arc<Shared>);

impl Drop for ConnTicket {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

fn admit(shared: &Arc<Shared>, pool: &ThreadPool, stream: TcpStream) {
    if shared.active.load(Ordering::SeqCst) >= shared.config.max_connections {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
        obs::counter("serve.rejected.overload", 1);
        // Shed load still shows up in the latency aggregates (tagged by
        // outcome), not just the overload counter — otherwise a p99 read
        // from /metrics silently excludes exactly the requests that were
        // turned away.
        let started = Instant::now();
        reject_overloaded(stream);
        let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        obs::histogram("serve.request.micros", micros);
        obs::histogram("serve.request.micros.overload", micros);
        return;
    }
    shared.active.fetch_add(1, Ordering::SeqCst);
    let ticket = ConnTicket(Arc::clone(shared));
    let shared_job = Arc::clone(shared);
    let enqueued = pool.try_execute(move || {
        let _ticket = ticket; // released when the connection finishes
        handle_connection(&shared_job, stream);
    });
    // Admission passed, so the only way the pool refuses is a drain that
    // began concurrently; the dropped job's ticket releases its slot and
    // the stream simply closes.
    if enqueued.is_err() {
        shared.rejected.fetch_add(1, Ordering::SeqCst);
    }
}

/// Answers an un-admitted connection with a typed in-band error before
/// closing it, so clients can tell overload from a network failure.
fn reject_overloaded(stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut stream = stream;
    let line = obj([(
        "error",
        obj([
            ("code", Json::from("overloaded")),
            (
                "message",
                Json::from("connection limit reached; retry later"),
            ),
        ]),
    )])
    .render();
    let _ = stream.write_all(line.as_bytes());
    let _ = stream.write_all(b"\n");
    let _ = stream.flush();
}

/// Whether `line` is the in-band `{"cmd":"shutdown"}` admin command (the
/// substring test is just a cheap pre-filter before parsing).
fn is_shutdown_command(line: &str) -> bool {
    line.contains("shutdown")
        && Json::parse(line.trim())
            .ok()
            .and_then(|j| j.get("cmd").and_then(Json::as_str).map(str::to_owned))
            .is_some_and(|cmd| cmd == "shutdown")
}

fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _sink_guard = ScopedSink::install(Arc::clone(&shared.effective_sink));
    let _span = obs::span("serve.connection");
    obs::counter("serve.connections.opened", 1);
    shared.connections.fetch_add(1, Ordering::SeqCst);

    let conn_id = shared.next_conn.fetch_add(1, Ordering::SeqCst);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL));
    let Ok(read_half) = stream.try_clone() else {
        obs::counter("serve.connections.closed", 1);
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);

    // Warm connections fork from the shared decoded base — a handful of
    // `Arc` bumps over the frozen solved form instead of re-parsing the
    // snapshot image per connection. The fork is private copy-on-write:
    // nothing this connection adds is visible to any other.
    let base = lock(&shared.base).clone();
    let mut engine = match &base {
        Some(b) => {
            obs::counter("serve.warm_starts", 1);
            BatchEngine::fork_from(b)
        }
        None => BatchEngine::new(shared.sigma.clone(), &shared.dfa),
    };
    engine.set_caps(shared.config.caps.clone());

    // Remote clients must not choose filesystem paths: without a
    // snapshot directory, snapshot and restore have no file at all.
    engine.set_client_snapshot_paths(false);
    if let Some(path) = &shared.snapshot_path {
        // Persistence: snapshot/restore target the server's file only,
        // and an in-band snapshot, once written, becomes the fork base of
        // subsequent connections. A refresh that fails deep validation
        // keeps the previous base — never half-swapped.
        engine.set_snapshot_path(path.clone());
        let base_image = Arc::clone(shared);
        engine.set_snapshot_hook(move |bytes| {
            match EngineBase::decode(bytes, &base_image.sigma) {
                Ok(decoded) => *lock(&base_image.base) = Some(Arc::new(decoded)),
                Err(_) => obs::counter("serve.base.refresh_failures", 1),
            }
            *lock(&base_image.last_checkpoint) = Some((Instant::now(), Duration::ZERO));
        });
    }

    // One request line at a time. The buffer persists across read
    // timeouts (a timed-out `read_line` keeps what it already consumed),
    // so slow senders frame correctly while idle connections still
    // notice a drain within one poll interval.
    let mut line = String::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break, // client closed
            Ok(_) => {
                let request = std::mem::take(&mut line);
                if !serve_request(shared, &mut engine, conn_id, &request, &mut writer) {
                    break;
                }
                // Finish the request just answered, then close: a drain
                // never truncates an in-flight response.
                if shared.is_draining() {
                    break;
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.is_draining() {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }

    obs::counter("serve.connections.closed", 1);
}

/// Captures the first bytes of the response flowing through it, so the
/// serving loop can classify the outcome (ok vs typed error) and quote
/// the error code in the slow-query log without re-parsing or buffering
/// the whole response.
struct ResponseTee<'a, W: Write> {
    inner: &'a mut W,
    prefix: Vec<u8>,
    cap: usize,
}

impl<W: Write> Write for ResponseTee<'_, W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(data)?;
        let room = self.cap.saturating_sub(self.prefix.len());
        self.prefix.extend_from_slice(&data[..n.min(room)]);
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Pulls `"code":"…"` out of a captured error-response prefix.
fn error_code_from_prefix(prefix: &str) -> &str {
    let Some(rest) = prefix.split_once("\"code\":\"").map(|(_, r)| r) else {
        return "unknown";
    };
    rest.split('"').next().unwrap_or("unknown")
}

/// Decrements the in-flight gauge when a request finishes (also on
/// unwind, so `/healthz` never reports phantom in-flight work).
struct InflightGuard<'a>(&'a Shared);

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        let now = self
            .0
            .inflight
            .fetch_sub(1, Ordering::SeqCst)
            .saturating_sub(1);
        obs::gauge("serve.inflight", u64::try_from(now).unwrap_or(u64::MAX));
    }
}

/// Handles one request line; returns `false` when the connection should
/// close (client gone, or a shutdown command was honored).
fn serve_request<W: Write>(
    shared: &Arc<Shared>,
    engine: &mut BatchEngine,
    conn_id: u64,
    request: &str,
    writer: &mut W,
) -> bool {
    if is_shutdown_command(request) {
        let response = obj([
            ("ok", Json::from("shutdown")),
            ("draining", Json::from(true)),
        ])
        .render();
        let _ = writer.write_all(response.as_bytes());
        let _ = writer.write_all(b"\n");
        let _ = writer.flush();
        obs::counter("serve.shutdown_commands", 1);
        shared.begin_drain();
        return false;
    }
    let inflight = shared.inflight.fetch_add(1, Ordering::SeqCst) + 1;
    obs::gauge(
        "serve.inflight",
        u64::try_from(inflight).unwrap_or(u64::MAX),
    );
    let _inflight = InflightGuard(shared);
    // The timer and the span cover the request's own accounting too, so
    // `serve.request.micros` is what the request cost the server.
    let started = Instant::now();
    let _span = obs::span("serve.request");
    let req_id = shared.next_req.fetch_add(1, Ordering::SeqCst) + 1;
    // The id gauge rides inside the span, correlating trace events with
    // slow-log lines and the `"req"` field on error responses.
    obs::gauge("serve.request.id", req_id);
    engine.begin_request(Some(req_id));
    let mut tee = ResponseTee {
        inner: writer,
        prefix: Vec::new(),
        cap: 256,
    };
    let handled = engine.handle_framed_line(request, &mut tee);
    let prefix = String::from_utf8_lossy(&tee.prefix).into_owned();
    match handled {
        Ok(true) => {
            shared.requests.fetch_add(1, Ordering::SeqCst);
            obs::counter("serve.requests", 1);
            let micros = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
            obs::histogram("serve.request.micros", micros);
            let errored = prefix.starts_with("{\"error\"");
            if errored {
                obs::counter("serve.requests.errors", 1);
                obs::histogram("serve.request.micros.error", micros);
            } else {
                obs::histogram("serve.request.micros.ok", micros);
            }
            if let (Some(threshold), Some(log)) =
                (shared.config.slow_millis, &shared.config.slow_log)
            {
                if micros >= threshold.saturating_mul(1000) {
                    obs::counter("serve.slow_requests", 1);
                    let delta = engine.request_delta();
                    let cmd = Json::parse(request.trim())
                        .ok()
                        .and_then(|j| j.get("cmd").and_then(Json::as_str).map(str::to_owned))
                        .unwrap_or_else(|| "<malformed>".to_owned());
                    let outcome = if errored {
                        format!("error:{}", error_code_from_prefix(&prefix))
                    } else {
                        "ok".to_owned()
                    };
                    log.record(
                        &obj([
                            ("slow", Json::from(true)),
                            ("req", Json::from(req_id)),
                            ("conn", Json::from(conn_id)),
                            ("cmd", Json::Str(cmd)),
                            ("micros", Json::from(micros)),
                            ("fuel", Json::from(delta.fuel_spent)),
                            ("epoch_depth", Json::from(delta.epoch_depth)),
                            ("outcome", Json::Str(outcome)),
                        ])
                        .render(),
                    );
                }
            }
            true
        }
        Ok(false) => true, // blank/comment line
        Err(_) => false,   // write failed: client is gone
    }
}
