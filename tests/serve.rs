//! Integration tests for `rasc-serve`: concurrent loopback clients,
//! hostile input over TCP, admission control, graceful shutdown with a
//! request deterministically in flight, every drain trigger waking the
//! blocked accept loops, crash-safe warm restart from a
//! snapshot directory (and no client-chosen snapshot paths, with or
//! without one), and the admin telemetry plane (`/metrics`,
//! `/stats`, `/healthz`, the slow-query log, request-id correlation,
//! and the `rasc stats` poller).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rasc::automata::{Alphabet, Dfa};
use rasc::constraints::snapshot::SNAPSHOT_VERSION;
use rasc::constraints::Budget;
use rasc::constraints::Clock;
use rasc::inc::json::Json;
use rasc::serve::{ServeConfig, ServeReport, Server, ServerHandle};
use rasc_devtools::SteppedClock;

/// A connected client speaking one JSON line per request.
struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: BufWriter::new(stream),
            line: String::new(),
        }
    }

    fn send(&mut self, request: &str) {
        self.writer.write_all(request.as_bytes()).expect("write");
        self.writer.write_all(b"\n").expect("write");
        self.writer.flush().expect("flush");
    }

    /// Reads one response line; `None` on clean EOF.
    fn recv(&mut self) -> Option<String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => None,
            Ok(_) => Some(self.line.trim_end().to_owned()),
            Err(e) => panic!("read failed: {e}"),
        }
    }

    fn roundtrip(&mut self, request: &str) -> String {
        self.send(request);
        self.recv().expect("server closed unexpectedly")
    }
}

fn spawn_server(config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
    let mut sigma = Alphabet::new();
    let (g, k) = (sigma.intern("g"), sigma.intern("k"));
    let machine = Dfa::one_bit(&sigma, g, k);
    let server = Server::bind("127.0.0.1:0", sigma, &machine, config).expect("bind");
    let (handle, join) = server.spawn();
    let join = std::thread::spawn(move || {
        join.join().expect("server thread").expect("server io");
    });
    (handle, join)
}

#[test]
fn concurrent_clients_get_isolated_sessions() {
    let (handle, join) = spawn_server(ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Every client declares the same constructor name and builds a
    // different system under it — no cross-talk is observable.
    let workers: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                let r = c.roundtrip(r#"{"cmd":"declare","cons":"pc"}"#);
                assert!(r.contains(r#""ok":"declare""#), "client {i}: {r}");
                // `g` drives the one-bit machine to its accepting state,
                // so the occurrence is annotation-live.
                let r = c.roundtrip(&format!(
                    r#"{{"cmd":"add","lhs":"pc","rhs":"Var{i}","ann":["g"]}}"#
                ));
                assert!(r.contains(r#""ok":"add""#), "client {i}: {r}");
                // Our own variable occurs; the neighbours' never do.
                let r = c.roundtrip(&format!(
                    r#"{{"cmd":"query","kind":"occurs","var":"Var{i}","cons":"pc"}}"#
                ));
                assert!(r.contains(r#""result":true"#), "client {i}: {r}");
                let other = (i + 1) % 4;
                let r = c.roundtrip(&format!(
                    r#"{{"cmd":"query","kind":"occurs","var":"Var{other}","cons":"pc"}}"#
                ));
                assert!(
                    r.contains(r#""code":"unknown_variable""#),
                    "sessions must be isolated — client {i} saw {other}'s state: {r}"
                );
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client");
    }

    handle.shutdown();
    join.join().expect("server joins");
}

#[test]
fn hostile_tcp_input_never_kills_the_connection() {
    let (handle, join) = spawn_server(ServeConfig::default());
    let addr = handle.addr();

    let mut rng = rasc_devtools::Rng::new(0xfeed_beef);
    let mut c = Client::connect(addr);
    let mut expected = 0usize;
    let mut got = 0usize;
    for _ in 0..400 {
        let line = rasc_devtools::hostile::hostile_line(&mut rng);
        c.send(&line);
        if !rasc_devtools::hostile::is_silent(&line) {
            expected += 1;
            let response = c.recv().expect("connection must survive hostile input");
            let parsed = Json::parse(&response).expect("responses are valid JSON");
            assert!(
                parsed.get("ok").is_some() || parsed.get("error").is_some(),
                "every response is a typed ok/error: {response}"
            );
            got += 1;
        }
    }
    assert_eq!(got, expected);

    // The same connection still serves well-formed requests afterwards,
    // and a served `stats` reports the solver's fact counter.
    let r = c.roundtrip(r#"{"cmd":"stats"}"#);
    assert!(r.contains(r#""ok":"stats""#), "{r}");
    let stats = Json::parse(&r).expect("stats is valid JSON");
    assert!(
        stats
            .get("facts_processed")
            .and_then(Json::as_u64)
            .is_some(),
        "stats response should report solver facts: {r}"
    );

    handle.shutdown();
    join.join().expect("server joins");
}

#[test]
fn overload_is_a_typed_in_band_error() {
    let (handle, join) = spawn_server(ServeConfig {
        threads: 1,
        max_connections: 1,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Client A occupies the only slot (a completed round-trip proves it
    // was admitted, not merely connected).
    let mut a = Client::connect(addr);
    let r = a.roundtrip(r#"{"cmd":"declare","cons":"pc"}"#);
    assert!(r.contains(r#""ok":"declare""#), "{r}");

    // Client B is refused with a typed error, then EOF.
    let mut b = Client::connect(addr);
    let refusal = b.recv().expect("overload answers in-band before closing");
    let parsed = Json::parse(&refusal).expect("refusal is valid JSON");
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("overloaded"),
        "{refusal}"
    );
    assert_eq!(b.recv(), None, "refused connections close after the error");

    // Client A is unaffected.
    let r = a.roundtrip(r#"{"cmd":"add","lhs":"pc","rhs":"Main"}"#);
    assert!(r.contains(r#""ok":"add""#), "{r}");

    handle.shutdown();
    join.join().expect("server joins");
}

#[test]
fn per_request_caps_clamp_client_limits() {
    let (handle, join) = spawn_server(ServeConfig {
        caps: Budget::unlimited().with_steps(1),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let mut c = Client::connect(addr);
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains("ok"));
    // The client asks for a huge budget; the server-wide cap wins. A
    // growing chain makes each add dearer until the one-step cap bites,
    // and the failing add rolls back transactionally.
    assert!(c
        .roundtrip(r#"{"cmd":"limits","max_steps":1000000}"#)
        .contains(r#""ok":"limits""#));
    let mut requests = vec![r#"{"cmd":"add","lhs":"pc","rhs":"V0","ann":["g"]}"#.to_owned()];
    for i in 0..10 {
        requests.push(format!(
            r#"{{"cmd":"add","lhs":"V{i}","rhs":"V{}","ann":["g"]}}"#,
            i + 1
        ));
    }
    let mut clamped = false;
    for req in &requests {
        let r = c.roundtrip(req);
        if r.contains(r#""code":"budget_exhausted""#) {
            assert!(r.contains(r#""rolled_back":true"#), "{r}");
            clamped = true;
            break;
        }
        assert!(r.contains(r#""ok":"add""#), "{r}");
    }
    assert!(
        clamped,
        "a one-step server cap must clamp the client's million-step budget"
    );
    // The connection survives the refusal.
    assert!(c
        .roundtrip(r#"{"cmd":"stats"}"#)
        .contains(r#""ok":"stats""#));

    handle.shutdown();
    join.join().expect("server joins");
}

/// A [`Clock`] that signals when first consulted, then blocks until
/// released — making "a request is in flight on a worker" a
/// deterministic state instead of a sleep-based race.
#[derive(Debug)]
struct GateClock {
    entered: mpsc::Sender<()>,
    gate: Arc<(Mutex<bool>, Condvar)>,
    signalled: AtomicBool,
    inner: SteppedClock,
}

impl Clock for GateClock {
    fn now_millis(&self) -> u64 {
        if !self.signalled.swap(true, Ordering::SeqCst) {
            let _ = self.entered.send(());
            let (open, cv) = &*self.gate;
            let mut open = open.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        }
        self.inner.now_millis()
    }
}

#[test]
fn graceful_shutdown_drains_the_in_flight_request() {
    let (entered_tx, entered_rx) = mpsc::channel();
    let gate = Arc::new((Mutex::new(false), Condvar::new()));
    let clock = Arc::new(GateClock {
        entered: entered_tx,
        gate: Arc::clone(&gate),
        signalled: AtomicBool::new(false),
        inner: SteppedClock::default(),
    });
    // A (huge) deadline cap makes every add consult the clock when its
    // budget starts — which is where the gate holds the request open.
    let (handle, join) = spawn_server(ServeConfig {
        threads: 2,
        caps: Budget::unlimited()
            .with_deadline_millis(u64::MAX / 4)
            .with_clock(clock),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Client A's add blocks on the gate inside its budget — in flight.
    let mut a = Client::connect(addr);
    a.send(r#"{"cmd":"declare","cons":"pc"}"#);
    a.send(r#"{"cmd":"add","lhs":"pc","rhs":"Main"}"#);
    entered_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("the add must reach its budget's clock");

    // Client B issues the in-band shutdown command.
    let mut b = Client::connect(addr);
    let r = b.roundtrip(r#"{"cmd":"shutdown"}"#);
    assert!(
        r.contains(r#""ok":"shutdown""#) && r.contains(r#""draining":true"#),
        "{r}"
    );
    assert_eq!(b.recv(), None, "the admin connection closes after the ack");
    assert!(handle.is_draining());

    // Release the gate: the in-flight request completes and its full
    // response is delivered before the connection closes.
    {
        let (open, cv) = &*gate;
        *open.lock().unwrap() = true;
        cv.notify_all();
    }
    let declare = a.recv().expect("queued declare answered");
    assert!(declare.contains(r#""ok":"declare""#), "{declare}");
    let add = a
        .recv()
        .expect("a drain never truncates an in-flight response");
    assert!(add.contains(r#""ok":"add""#), "{add}");
    assert_eq!(a.recv(), None, "the drained connection then closes");

    join.join().expect("server joins");
    // The listener is gone: new connections are refused.
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "a drained server must not accept new connections"
    );
}

/// How long a drained server's `run` may take to return. The accept
/// loops block in `accept`, so a drain that failed to wake one would
/// hang `run` for good; these tests fail at the deadline instead.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// Binds a server with an admin listener, so a drain has two accept
/// loops to wake, and runs it on a thread of its own. The receiver gets
/// what `run` returns.
fn run_watched(config: ServeConfig) -> (ServerHandle, mpsc::Receiver<ServeReport>) {
    let mut sigma = Alphabet::new();
    let (g, k) = (sigma.intern("g"), sigma.intern("k"));
    let machine = Dfa::one_bit(&sigma, g, k);
    let config = ServeConfig {
        admin_addr: Some("127.0.0.1:0".to_owned()),
        ..config
    };
    let server = Server::bind("127.0.0.1:0", sigma, &machine, config).expect("bind");
    let handle = server.handle();
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run().expect("server io"));
    });
    // Give `run` time to block in `accept`, the state a drain must wake.
    std::thread::sleep(Duration::from_millis(100));
    (handle, rx)
}

#[test]
fn begin_shutdown_wakes_a_server_that_never_accepted_a_connection() {
    let (handle, returned) = run_watched(ServeConfig::default());
    handle.begin_shutdown();
    let report = returned
        .recv_timeout(DRAIN_DEADLINE)
        .expect("run returns after begin_shutdown");
    assert_eq!(report.connections, 0, "the drain's wake-up is not served");
}

#[test]
fn in_band_shutdown_drains_while_another_connection_idles() {
    let (handle, returned) = run_watched(ServeConfig {
        threads: 2,
        ..ServeConfig::default()
    });
    let mut idle = Client::connect(handle.addr());
    assert!(idle
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));
    let mut admin = Client::connect(handle.addr());
    assert!(admin
        .roundtrip(r#"{"cmd":"shutdown"}"#)
        .contains(r#""ok":"shutdown""#));
    let report = returned
        .recv_timeout(DRAIN_DEADLINE)
        .expect("run returns after the in-band shutdown");
    assert_eq!(idle.recv(), None, "the idle connection closes");
    assert_eq!((report.connections, report.requests), (2, 1));
}

#[test]
fn shutdown_flag_wakes_an_idle_server() {
    let flag = Arc::new(AtomicBool::new(false));
    let (_handle, returned) = run_watched(ServeConfig {
        shutdown_flag: Some(Arc::clone(&flag)),
        ..ServeConfig::default()
    });
    flag.store(true, Ordering::SeqCst);
    returned
        .recv_timeout(DRAIN_DEADLINE)
        .expect("run returns after the shutdown flag is raised");
}

fn snapshot_temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rasc-serve-snap-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

#[test]
fn snapshot_dir_warm_restarts_across_server_generations() {
    let dir = snapshot_temp_dir("warm");

    // Generation 1: build state, capture it with the in-band command.
    let (handle, join) = spawn_server(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));
    assert!(c
        .roundtrip(r#"{"cmd":"add","lhs":"pc","rhs":"Main","ann":["g"]}"#)
        .contains(r#""ok":"add""#));

    // Remote clients must not choose filesystem paths on the server.
    let r = c.roundtrip(r#"{"cmd":"snapshot","path":"/tmp/evil.snap"}"#);
    let parsed = Json::parse(&r).expect("valid JSON");
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "client-chosen snapshot paths must be refused in serve mode: {r}"
    );

    let r = c.roundtrip(r#"{"cmd":"snapshot"}"#);
    assert!(
        r.contains(r#""ok":"snapshot""#) && r.contains("current.snap"),
        "{r}"
    );
    handle.shutdown();
    join.join().expect("server joins");
    assert!(
        dir.join("current.snap").exists(),
        "the in-band snapshot leaves a checkpoint behind"
    );

    // Generation 2: a fresh server over the same directory warm-starts
    // every new connection from the captured solved form — names,
    // constraints, and annotations all answer without replay.
    let (handle, join) = spawn_server(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    let r = c.roundtrip(r#"{"cmd":"query","kind":"occurs","var":"Main","cons":"pc"}"#);
    assert!(
        r.contains(r#""result":true"#),
        "warm restart lost the solved form: {r}"
    );
    // The restored session keeps growing like any other.
    assert!(c
        .roundtrip(r#"{"cmd":"add","lhs":"pc","rhs":"Other","ann":["g"]}"#)
        .contains(r#""ok":"add""#));
    let r = c.roundtrip(r#"{"cmd":"query","kind":"occurs","var":"Other","cons":"pc"}"#);
    assert!(r.contains(r#""result":true"#), "{r}");

    handle.shutdown();
    join.join().expect("server joins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn without_a_snapshot_dir_clients_choose_no_snapshot_paths() {
    let (handle, join) = spawn_server(ServeConfig::default());
    let mut c = Client::connect(handle.addr());
    let path = std::env::temp_dir().join(format!("rasc-serve-no-dir-{}.snap", std::process::id()));
    let _ = std::fs::remove_file(&path);
    // Neither writes the file, and `restore` does not reveal whether
    // one exists.
    let answers: Vec<(&str, String)> = ["snapshot", "restore"]
        .into_iter()
        .map(|cmd| {
            let r = c.roundtrip(&format!(r#"{{"cmd":"{cmd}","path":"{}"}}"#, path.display()));
            (cmd, r)
        })
        .collect();
    let wrote = path.exists();
    let _ = std::fs::remove_file(&path);
    for (cmd, r) in answers {
        let parsed = Json::parse(&r).expect("valid JSON");
        let code = parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str);
        assert_eq!(code, Some("bad_request"), "{cmd}: {r}");
    }
    assert!(!wrote, "a client wrote a file on the server");
    handle.shutdown();
    join.join().expect("server joins");
}

#[test]
fn corrupt_base_image_degrades_to_a_cold_start() {
    let dir = snapshot_temp_dir("corrupt");
    std::fs::write(dir.join("current.snap"), b"RASCSNAP\x01torn-to-bits").expect("seed");

    // Binding must neither panic nor serve the torn image.
    let (handle, join) = spawn_server(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    let r = c.roundtrip(r#"{"cmd":"query","kind":"occurs","var":"Main","cons":"pc"}"#);
    assert!(
        r.contains(r#""code":"unknown_constructor""#) || r.contains(r#""code":"unknown_variable""#),
        "a corrupt base image must yield a cold start, not a mis-restore: {r}"
    );
    // The connection is fully usable; an explicit in-band restore of the
    // torn file reports the typed corruption error.
    let r = c.roundtrip(r#"{"cmd":"restore"}"#);
    let parsed = Json::parse(&r).expect("valid JSON");
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("snapshot_corrupt"),
        "{r}"
    );
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));

    handle.shutdown();
    join.join().expect("server joins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn previous_format_base_image_is_rejected_and_counted() {
    // Version 4 images also held each edge's mirror at its target;
    // version 3 images per-variable mutation stamps; version 2 images the
    // projection-merging memo and the cycle-search depth; version 1 images
    // upper bounds copied backward along edges.
    for old in [1u32, 2, 3, 4] {
        let dir = snapshot_temp_dir(&format!("v{old}"));

        // Generation 1 writes a real image.
        let (handle, join) = spawn_server(ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let mut c = Client::connect(handle.addr());
        assert!(c
            .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
            .contains(r#""ok":"declare""#));
        assert!(c
            .roundtrip(r#"{"cmd":"add","lhs":"pc","rhs":"Main","ann":["g"]}"#)
            .contains(r#""ok":"add""#));
        assert!(c
            .roundtrip(r#"{"cmd":"snapshot"}"#)
            .contains(r#""ok":"snapshot""#));
        handle.shutdown();
        join.join().expect("server joins");

        // Its header now names an earlier format. The checksums cover the
        // sections only, so everything after the version is still intact.
        let path = dir.join("current.snap");
        let mut bytes = std::fs::read(&path).expect("image written");
        assert_eq!(
            bytes[8..12],
            SNAPSHOT_VERSION.to_le_bytes(),
            "the image is in the current format"
        );
        bytes[8..12].copy_from_slice(&old.to_le_bytes());
        std::fs::write(&path, &bytes).expect("rewrite header");

        // Generation 2 rejects it as corrupt and starts cold.
        let (handle, join) = spawn_server(ServeConfig {
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let snap = handle.metrics_snapshot();
        assert_eq!(
            snap.counters.get("snap.corrupt_rejected").copied(),
            Some(1),
            "a version-{old} image must be counted as rejected: {:?}",
            snap.counters
        );
        let mut c = Client::connect(handle.addr());
        let r = c.roundtrip(r#"{"cmd":"query","kind":"occurs","var":"Main","cons":"pc"}"#);
        assert!(
            r.contains(r#""code":"unknown_constructor""#)
                || r.contains(r#""code":"unknown_variable""#),
            "a version-{old} image must yield a cold start: {r}"
        );

        handle.shutdown();
        join.join().expect("server joins");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn external_shutdown_flag_drains_and_checkpoints() {
    let dir = snapshot_temp_dir("flag");
    let flag = Arc::new(AtomicBool::new(false));
    let (handle, join) = spawn_server(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        shutdown_flag: Some(Arc::clone(&flag)),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let mut c = Client::connect(addr);
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));
    assert!(c
        .roundtrip(r#"{"cmd":"add","lhs":"pc","rhs":"Main","ann":["g"]}"#)
        .contains(r#""ok":"add""#));
    assert!(c
        .roundtrip(r#"{"cmd":"snapshot"}"#)
        .contains(r#""ok":"snapshot""#));

    // Raising the externally wired flag (the CLI's SIGINT/SIGTERM
    // handler) initiates the same graceful drain as the admin command.
    flag.store(true, Ordering::SeqCst);
    assert!(handle.is_draining());
    assert_eq!(c.recv(), None, "drained connections close");
    join.join().expect("server joins");
    assert!(
        TcpStream::connect_timeout(&addr, Duration::from_millis(500)).is_err(),
        "a signal-drained server must stop accepting"
    );
    assert!(
        dir.join("current.snap").exists(),
        "the in-band snapshot's checkpoint survives a signal-driven shutdown"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// One raw HTTP exchange against the admin endpoint: returns the status
/// line and the body after the header block.
fn admin_exchange(addr: SocketAddr, request: &str) -> (String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect admin");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    use std::io::Read;
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("header block");
    let status = head.lines().next().unwrap_or("").to_owned();
    (status, body.to_owned())
}

fn admin_get(addr: SocketAddr, path: &str) -> (String, String) {
    admin_exchange(
        addr,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

#[test]
fn metrics_scrape_matches_client_side_request_count_exactly() {
    let (handle, join) = spawn_server(ServeConfig {
        threads: 4,
        admin_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let admin = handle.admin_addr().expect("admin listener is configured");

    // A fleet of clients issues a known number of requests, counted
    // client-side; joining the workers quiesces the server.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 6;
    let workers: Vec<_> = (0..CLIENTS)
        .map(|i| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr);
                assert!(c
                    .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
                    .contains(r#""ok":"declare""#));
                for j in 0..PER_CLIENT - 2 {
                    let r = c.roundtrip(&format!(
                        r#"{{"cmd":"add","lhs":"pc","rhs":"V{i}_{j}","ann":["g"]}}"#
                    ));
                    assert!(r.contains(r#""ok":"add""#), "{r}");
                }
                assert!(c
                    .roundtrip(r#"{"cmd":"stats"}"#)
                    .contains(r#""ok":"stats""#));
            })
        })
        .collect();
    for w in workers {
        w.join().expect("client");
    }

    let (status, page) = admin_get(admin, "/metrics");
    assert!(status.contains(" 200 "), "{status}");
    let summary = rasc_devtools::validate_prometheus(&page)
        .unwrap_or_else(|e| panic!("scrape must be a valid exposition page: {e}\n{page}"));
    assert_eq!(
        summary.values.get("serve_requests_total").copied(),
        Some((CLIENTS * PER_CLIENT) as f64),
        "scraped request count must equal the client-side count exactly:\n{page}"
    );
    assert_eq!(
        summary.values.get("serve_request_micros_count").copied(),
        Some((CLIENTS * PER_CLIENT) as f64),
        "every request must land in the latency histogram:\n{page}"
    );
    assert_eq!(
        summary
            .values
            .get("serve_connections_opened_total")
            .copied(),
        Some(CLIENTS as f64),
        "{page}"
    );

    // The in-process snapshot agrees with the scraped page.
    let snap = handle.metrics_snapshot();
    assert_eq!(
        snap.counters.get("serve.requests").copied(),
        Some((CLIENTS * PER_CLIENT) as u64)
    );

    handle.shutdown();
    join.join().expect("server joins");
}

#[test]
fn admin_endpoint_serves_stats_and_healthz_and_rejects_the_rest() {
    let (handle, join) = spawn_server(ServeConfig {
        admin_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    });
    let admin = handle.admin_addr().expect("admin listener is configured");

    let mut c = Client::connect(handle.addr());
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));

    // /healthz: a cold-started, non-draining server with no checkpoint.
    let (status, body) = admin_get(admin, "/healthz");
    assert!(status.contains(" 200 "), "{status}");
    let health = Json::parse(&body).expect("healthz is valid JSON");
    assert_eq!(health.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(health.get("draining").and_then(Json::as_bool), Some(false));
    assert_eq!(
        health.get("warm_start").and_then(Json::as_bool),
        Some(false)
    );
    assert!(health.get("uptime_millis").is_some(), "{body}");
    assert_eq!(
        health.get("checkpoint_age_millis"),
        Some(&Json::Null),
        "no snapshot dir, so no checkpoint age: {body}"
    );

    // /stats: the JSON rendering of the same registry the scrape reads.
    let (status, body) = admin_get(admin, "/stats");
    assert!(status.contains(" 200 "), "{status}");
    let stats = Json::parse(&body).expect("stats is valid JSON");
    assert!(
        stats.get("counters").is_some() && stats.get("histograms").is_some(),
        "{body}"
    );

    // Query strings are stripped before routing.
    let (status, _) = admin_get(admin, "/metrics?format=prometheus");
    assert!(status.contains(" 200 "), "{status}");

    // Unknown paths 404; non-GET methods 405; both leave the server up.
    let (status, _) = admin_get(admin, "/nope");
    assert!(status.contains(" 404 "), "{status}");
    let (status, _) = admin_exchange(
        admin,
        "POST /metrics HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(status.contains(" 405 "), "{status}");
    let (status, _) = admin_get(admin, "/healthz");
    assert!(status.contains(" 200 "), "{status}");

    handle.shutdown();
    join.join().expect("server joins");
}

/// A `Write` handing every byte to a shared buffer — lets a test read
/// back what the server's [`rasc::serve::SlowLog`] wrote.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn slow_log_records_requests_with_correlated_ids() {
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let (handle, join) = spawn_server(ServeConfig {
        admin_addr: Some("127.0.0.1:0".to_owned()),
        // A zero-millisecond threshold makes every request "slow", so the
        // log's shape is testable without timing games.
        slow_millis: Some(0),
        slow_log: Some(Arc::new(rasc::serve::SlowLog::to_writer(Box::new(
            buf.clone(),
        )))),
        ..ServeConfig::default()
    });

    let mut c = Client::connect(handle.addr());
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));
    // An erroring request: its response must carry the request id, and
    // its slow-log line must record the error outcome.
    let r = c.roundtrip(r#"{"cmd":"stats","scope":"bogus"}"#);
    let parsed = Json::parse(&r).expect("valid JSON");
    assert_eq!(
        parsed
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str),
        Some("bad_request"),
        "{r}"
    );
    let err_req = parsed
        .get("req")
        .and_then(Json::as_u64)
        .expect("error responses carry the request id");

    handle.shutdown();
    join.join().expect("server joins");

    let logged = String::from_utf8(buf.0.lock().unwrap().clone()).expect("utf8 log");
    let lines: Vec<Json> = logged
        .lines()
        .map(|l| Json::parse(l).expect("slow-log lines are valid JSON"))
        .collect();
    assert_eq!(lines.len(), 2, "both requests were slow at 0ms:\n{logged}");
    for line in &lines {
        assert_eq!(line.get("slow").and_then(Json::as_bool), Some(true));
        assert!(line.get("micros").is_some(), "{logged}");
        assert!(line.get("fuel").is_some(), "{logged}");
        assert!(line.get("epoch_depth").is_some(), "{logged}");
        assert!(line.get("conn").is_some(), "{logged}");
    }
    assert_eq!(
        lines[0].get("cmd").and_then(Json::as_str),
        Some("declare"),
        "{logged}"
    );
    assert_eq!(
        lines[0].get("outcome").and_then(Json::as_str),
        Some("ok"),
        "{logged}"
    );
    assert_eq!(
        lines[1].get("cmd").and_then(Json::as_str),
        Some("stats"),
        "{logged}"
    );
    assert_eq!(
        lines[1].get("outcome").and_then(Json::as_str),
        Some("error:bad_request"),
        "{logged}"
    );
    // Correlation: the slow-log line for the failing request names the
    // same id the in-band error response carried.
    assert_eq!(
        lines[1].get("req").and_then(Json::as_u64),
        Some(err_req),
        "slow-log and error-response request ids must correlate:\n{logged}"
    );
}

#[test]
fn rasc_stats_cli_polls_the_admin_endpoint() {
    let (handle, join) = spawn_server(ServeConfig {
        admin_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    });
    let admin = handle.admin_addr().expect("admin listener is configured");

    let mut c = Client::connect(handle.addr());
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));

    let bin = env!("CARGO_BIN_EXE_rasc");
    let out = std::process::Command::new(bin)
        .args(["stats", "--addr", &admin.to_string()])
        .output()
        .expect("run rasc stats");
    assert!(out.status.success(), "{out:?}");
    let body = String::from_utf8(out.stdout).expect("utf8");
    let stats = Json::parse(body.trim()).expect("rasc stats prints the /stats JSON");
    assert!(
        stats
            .get("counters")
            .and_then(|cs| cs.get("serve.requests"))
            .is_some(),
        "{body}"
    );

    let out = std::process::Command::new(bin)
        .args(["stats", "--addr", &admin.to_string(), "--metrics"])
        .output()
        .expect("run rasc stats --metrics");
    assert!(out.status.success(), "{out:?}");
    let page = String::from_utf8(out.stdout).expect("utf8");
    rasc_devtools::validate_prometheus(&page)
        .unwrap_or_else(|e| panic!("rasc stats --metrics must print a valid page: {e}\n{page}"));

    handle.shutdown();
    join.join().expect("server joins");
}

#[test]
fn warm_restart_healthz_reports_the_snapshot_files_age() {
    let dir = snapshot_temp_dir("age");

    // Generation 1 leaves a checkpoint behind with an in-band snapshot.
    let (handle, join) = spawn_server(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let mut c = Client::connect(handle.addr());
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));
    assert!(c
        .roundtrip(r#"{"cmd":"snapshot"}"#)
        .contains(r#""ok":"snapshot""#));
    handle.shutdown();
    join.join().expect("server joins");

    // The image now ages on disk while no server is running.
    std::thread::sleep(Duration::from_millis(300));

    // Generation 2 must report the *file's* age, not its own uptime: a
    // freshly started process serving a 300ms-old image is the exact case
    // the old `Instant::now()` initialization got wrong.
    let (handle, join) = spawn_server(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        admin_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::default()
    });
    let admin = handle.admin_addr().expect("admin listener is configured");
    let (status, body) = admin_get(admin, "/healthz");
    assert!(status.contains(" 200 "), "{status}");
    let health = Json::parse(&body).expect("healthz is valid JSON");
    assert_eq!(health.get("warm_start").and_then(Json::as_bool), Some(true));
    let age = health
        .get("checkpoint_age_millis")
        .and_then(Json::as_u64)
        .expect("a warm start has a checkpoint age");
    let uptime = health
        .get("uptime_millis")
        .and_then(Json::as_u64)
        .expect("uptime is always present");
    assert!(
        age >= 250,
        "checkpoint age must include the image's on-disk age: got {age}ms ({body})"
    );
    assert!(
        age > uptime,
        "checkpoint age ({age}ms) must exceed process uptime ({uptime}ms) right after a \
         warm restart — equal values mean the age was reset to process start ({body})"
    );

    handle.shutdown();
    join.join().expect("server joins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unreadable_base_image_is_counted_not_silently_swallowed() {
    let dir = snapshot_temp_dir("eisdir");
    // A *directory* where the image file should be: reads fail with an IO
    // error that is not NotFound — the "disk is broken" case that must be
    // distinguishable from a clean first boot.
    std::fs::create_dir_all(dir.join("current.snap")).expect("seed dir");

    let (handle, join) = spawn_server(ServeConfig {
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    let snap = handle.metrics_snapshot();
    assert_eq!(
        snap.counters.get("serve.base.io_errors").copied(),
        Some(1),
        "an unreadable (but present) base image must be counted: {:?}",
        snap.counters
    );
    assert_eq!(
        snap.counters.get("snap.corrupt_rejected").copied(),
        None,
        "an IO failure is not a corruption: {:?}",
        snap.counters
    );

    // The server degraded to a functional cold start.
    let mut c = Client::connect(handle.addr());
    let r = c.roundtrip(r#"{"cmd":"query","kind":"occurs","var":"Main","cons":"pc"}"#);
    assert!(
        r.contains(r#""code":"unknown_constructor""#) || r.contains(r#""code":"unknown_variable""#),
        "cold start expected: {r}"
    );
    assert!(c
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));

    handle.shutdown();
    join.join().expect("server joins");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_forks_race_in_band_snapshot_swaps() {
    let dir = snapshot_temp_dir("race");
    let (handle, join) = spawn_server(ServeConfig {
        threads: 8,
        snapshot_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Seed the shared base: one cold connection builds state and captures
    // it, making every later connection fork instead of restore.
    let mut seed = Client::connect(addr);
    assert!(seed
        .roundtrip(r#"{"cmd":"declare","cons":"pc"}"#)
        .contains(r#""ok":"declare""#));
    assert!(seed
        .roundtrip(r#"{"cmd":"add","lhs":"pc","rhs":"Base","ann":["g"]}"#)
        .contains(r#""ok":"add""#));
    assert!(seed
        .roundtrip(r#"{"cmd":"snapshot"}"#)
        .contains(r#""ok":"snapshot""#));

    // A writer keeps swapping the shared base `Arc` via in-band snapshots
    // while a fleet of readers forks from whichever base is current.
    const READERS: usize = 6;
    const ROUNDS: usize = 5;
    let writer = std::thread::spawn(move || {
        let mut w = Client::connect(addr);
        for j in 0..READERS * 2 {
            let r = w.roundtrip(&format!(
                r#"{{"cmd":"add","lhs":"pc","rhs":"W{j}","ann":["g"]}}"#
            ));
            assert!(r.contains(r#""ok":"add""#), "{r}");
            let r = w.roundtrip(r#"{"cmd":"snapshot"}"#);
            assert!(r.contains(r#""ok":"snapshot""#), "{r}");
        }
    });
    let readers: Vec<_> = (0..READERS)
        .map(|t| {
            std::thread::spawn(move || {
                for i in 0..ROUNDS {
                    let mut c = Client::connect(addr);
                    // Every base the writer publishes contains the seeded
                    // fact, so every fork must see it.
                    let r =
                        c.roundtrip(r#"{"cmd":"query","kind":"occurs","var":"Base","cons":"pc"}"#);
                    assert!(r.contains(r#""result":true"#), "reader {t}.{i}: {r}");
                    // Private growth stays private to this fork.
                    let r = c.roundtrip(&format!(
                        r#"{{"cmd":"add","lhs":"pc","rhs":"R{t}_{i}","ann":["g"]}}"#
                    ));
                    assert!(r.contains(r#""ok":"add""#), "reader {t}.{i}: {r}");
                    let r = c.roundtrip(&format!(
                        r#"{{"cmd":"query","kind":"occurs","var":"R{t}_{i}","cons":"pc"}}"#
                    ));
                    assert!(r.contains(r#""result":true"#), "reader {t}.{i}: {r}");
                    let other = (t + 1) % READERS;
                    let r = c.roundtrip(&format!(
                        r#"{{"cmd":"query","kind":"occurs","var":"R{other}_{i}","cons":"pc"}}"#
                    ));
                    assert!(
                        r.contains(r#""code":"unknown_variable""#),
                        "forks must be isolated — reader {t}.{i} saw {other}'s state: {r}"
                    );
                }
            })
        })
        .collect();
    writer.join().expect("writer");
    for r in readers {
        r.join().expect("reader");
    }

    // Every reader connection after the seed snapshot forked the shared
    // base rather than restoring from bytes.
    let snap = handle.metrics_snapshot();
    let warm = snap.counters.get("serve.warm_starts").copied().unwrap_or(0);
    assert!(
        warm >= (READERS * ROUNDS) as u64,
        "expected at least {} forked connections, saw {warm}: {:?}",
        READERS * ROUNDS,
        snap.counters
    );
    assert_eq!(
        snap.counters.get("serve.base.refresh_failures").copied(),
        None,
        "no snapshot swap may fail decoding: {:?}",
        snap.counters
    );

    handle.shutdown();
    join.join().expect("server joins");
    let _ = std::fs::remove_dir_all(&dir);
}
