//! The served path: an in-process `rasc_serve::Server` driven over TCP by
//! this process's client threads, the `serve-ingest`, `serve-query` and
//! `serve-whatif` workloads, and the served cross-check every workload
//! ends with.
//!
//! Every request's expected response comes from replaying the same
//! stream in-process through `BatchEngine::handle_line`, and every
//! `occurs` answer in those replays is checked against the PDS and
//! forward oracles, so a served answer is right only if it matches an
//! independent engine.

use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Instant;

use rasc_automata::{Alphabet, Dfa};
use rasc_cfgir::{Cfg, Program};
use rasc_devtools::Rng;
use rasc_inc::json::Json;
use rasc_inc::{BatchEngine, EngineBase};
use rasc_serve::{ServeConfig, ServeReport, Server, ServerHandle};

use crate::encode::{self, EventMap, Extra};
use crate::inputs::{self, Events};
use crate::pipeline::{self, Prop, Unit};
use crate::{quantile, trace, Run};

/// A plain property as a server is bound with it.
pub struct Spec {
    pub sigma: Alphabet,
    pub dfa: Dfa,
}

/// Statements of the program every workload's served cross-check ingests,
/// and how many of its nodes the cross-check queries.
pub const CROSSCHECK_STMTS: usize = 1_000;
const CROSSCHECK_QUERIES: usize = 256;
/// The cross-check program's shape seed.
pub const CROSSCHECK_SHAPE: u64 = 0xC055;
/// Statements of the base program the query and what-if workloads fork.
/// Ingesting it over TCP is their set-up, and it is repeated for
/// `setup_s`: at 8k statements each ingest takes about 1.4 s.
const BASE_STMTS: usize = 8_000;
/// Statements of each of the two programs a `serve-ingest` connection
/// streams, so each connection's engine grows to 10k statements. Serving
/// cost grows about quadratically with that size: a pass takes 0.36 s at
/// 2 × 2k, 2.8 s at 2 × 5k and 11 s at 2 × 10k on a 2-core host, and a
/// run must fit a warm-up and three passes in 30 s.
const INGEST_STMTS: usize = 5_000;
const INGEST_QUERIES: usize = 256;
/// Connections each `serve-query` client opens per pass, and requests
/// per connection.
const QUERY_CONNECTIONS: usize = 4;
const QUERY_REQUESTS: usize = 64;
const TEMPLATES: usize = 32;
/// The load: client threads, each holding at most one connection.
const CLIENTS: usize = 2;

/// A running server whose base (if any) was ingested over TCP and
/// checkpointed with `{"cmd":"snapshot"}`.
struct Served {
    addr: SocketAddr,
    handle: ServerHandle,
    join: Option<JoinHandle<io::Result<ServeReport>>>,
    dir: PathBuf,
    /// The responses to the ingested lines, in order.
    ingest: Vec<String>,
    /// Client-observed latency of every request sent to this server, µs.
    client_us: Mutex<Vec<f64>>,
}

/// A fresh directory for one server's snapshot, under the directory the
/// benchmark executable was built into, so a run writes only inside its
/// build tree.
fn state_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let exe = std::env::current_exe().expect("own executable path");
    let build = exe.parent().expect("executable has a directory");
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    build.join(format!("benchmark-state-{}-{n}", std::process::id()))
}

impl Served {
    /// Binds a server (2 worker threads), streams `base` into one
    /// connection and checkpoints it, so every later connection forks it.
    /// An empty `base` leaves the server cold.
    fn start(spec: &Spec, base: &[String]) -> Served {
        let dir = state_dir();
        let config = ServeConfig {
            threads: CLIENTS,
            // Above the client count: a client reconnecting before the
            // server has reaped its previous connection is not refused.
            max_connections: 4 * CLIENTS,
            snapshot_dir: Some(dir.clone()),
            ..ServeConfig::default()
        };
        let server = trace::span("serve.bind", 0, || {
            Server::bind("127.0.0.1:0", spec.sigma.clone(), &spec.dfa, config)
        })
        .expect("bind a loopback port");
        let addr = server.local_addr();
        let (handle, join) = server.spawn();
        let mut served = Served {
            addr,
            handle,
            join: Some(join),
            dir,
            ingest: Vec::new(),
            client_us: Mutex::new(Vec::new()),
        };
        if !base.is_empty() {
            let mut conn = Conn::open(addr).expect("connect to the bench server");
            for (i, line) in base.iter().enumerate() {
                let answer = served.ask(&mut conn, line, i as u64).0.unwrap_or_default();
                served.ingest.push(answer);
            }
            let answer = served
                .ask(&mut conn, r#"{"cmd":"snapshot"}"#, 0)
                .0
                .unwrap_or_default();
            assert!(
                answer.contains(r#""ok":"snapshot""#),
                "checkpoint failed: {answer}"
            );
        }
        served
    }

    /// Sends one request on `conn`; returns the answer and the latency
    /// this client saw, in µs.
    fn ask(&self, conn: &mut Conn, line: &str, key: u64) -> (io::Result<String>, f64) {
        let t = Instant::now();
        let answer = trace::span(kind(line).0, key, || conn.ask(line).map(str::to_owned));
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.client_us.lock().expect("latency log").push(us);
        (answer, us)
    }

    /// The checkpointed base image.
    fn snapshot(&self) -> Vec<u8> {
        std::fs::read(self.dir.join("current.snap")).expect("checkpoint written")
    }

    /// Runs `script` on a new connection, comparing every response with
    /// the expected one; also records connect → first answer.
    fn play(&self, script: &Script, key: u64) -> Played {
        let t = Instant::now();
        match Conn::open(self.addr) {
            Ok(mut conn) => self.play_on(&mut conn, script, key, Some(t)),
            Err(_) => Played {
                failed: script.lines.len() as u64,
                ..Played::default()
            },
        }
    }

    /// Runs `script` on `conn`; with `connected` set, the time from it to
    /// the first answer is a connect sample.
    fn play_on(
        &self,
        conn: &mut Conn,
        script: &Script,
        key: u64,
        connected: Option<Instant>,
    ) -> Played {
        let mut played = Played::default();
        for (line, expect) in script.lines.iter().zip(&script.expect) {
            let (answer, us) = self.ask(conn, line, key);
            match answer {
                Ok(a) if canonical(&a) == expect.as_str() => {}
                Ok(a) => {
                    played.failed += 1;
                    eprintln!("served answer differs: {line} -> {a}, expected {expect}");
                }
                Err(_) => played.failed += 1,
            }
            if let (Some(t), true) = (connected, played.op_ms.is_empty()) {
                played.connect_ms.push(t.elapsed().as_secs_f64() * 1e3);
            }
            played.op_ms.push(us / 1e3);
        }
        played
    }

    /// Stops the server and reports its request latencies: the server's
    /// own `serve.request.micros` p50/p99 and the client-minus-server p50
    /// gap, over every request this server answered.
    fn finish(self) -> [(&'static str, f64); 3] {
        let snap = self.handle.metrics_snapshot();
        let hist = snap.histograms.get("serve.request.micros");
        let p50 = hist.map_or(0.0, |h| h.quantile(0.5) as f64);
        let p99 = hist.map_or(0.0, |h| h.quantile(0.99) as f64);
        let client = quantile(
            std::mem::take(&mut *self.client_us.lock().expect("latency log")),
            0.5,
        );
        [
            ("serve.server_p50_us", p50),
            ("serve.server_p99_us", p99),
            ("serve.gap_us", client - p50),
        ]
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One blocking client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            line: String::new(),
        })
    }

    fn ask(&mut self, request: &str) -> io::Result<&str> {
        let mut framed = String::with_capacity(request.len() + 1);
        framed.push_str(request);
        framed.push('\n');
        self.writer.write_all(framed.as_bytes())?;
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        Ok(self.line.trim_end())
    }
}

/// What played scripts observed: request latencies, connect → first
/// answer times, and requests whose answer was wrong or missing.
#[derive(Debug, Default)]
struct Played {
    op_ms: Vec<f64>,
    connect_ms: Vec<f64>,
    failed: u64,
}

impl Played {
    fn add(&mut self, other: Played) {
        self.op_ms.extend(other.op_ms);
        self.connect_ms.extend(other.connect_ms);
        self.failed += other.failed;
    }
}

/// Which oracle answer an `occurs` line must get: node `node` of
/// program `program`, with what-if template `template` added.
#[derive(Debug, Clone, Copy)]
struct Truth {
    program: usize,
    node: usize,
    template: Option<usize>,
}

/// One connection's requests, the responses they must get, and the
/// oracle answer behind each `occurs` request.
#[derive(Debug, Clone, Default)]
struct Script {
    lines: Vec<String>,
    expect: Vec<String>,
    truth: Vec<Option<Truth>>,
}

impl Script {
    fn push(&mut self, line: String, truth: Option<Truth>) {
        self.lines.push(line);
        self.truth.push(truth);
    }

    fn occurs(&mut self, prefix: &str, program: usize, node: usize, template: Option<usize>) {
        let truth = Truth {
            program,
            node,
            template,
        };
        self.push(encode::occurs_line(prefix, node), Some(truth));
    }
}

const KINDS: [(&str, &str, &str); 6] = [
    (r#""add""#, "serve.add", "inc.add"),
    (r#""query""#, "serve.query", "inc.query"),
    (r#""declare""#, "serve.declare", "inc.declare"),
    (r#""push""#, "serve.push", "inc.push"),
    (r#""pop""#, "serve.pop", "inc.pop"),
    (r#""snapshot""#, "serve.snapshot", "inc.snapshot"),
];

fn kind(line: &str) -> (&'static str, &'static str) {
    // Lines start with `{"cmd":`; the command name follows.
    let cmd = line.get(7..).unwrap_or("");
    KINDS
        .iter()
        .find(|(k, _, _)| cmd.starts_with(k))
        .map_or(("serve.other", "inc.other"), |&(_, s, i)| (s, i))
}

/// An `anns` answer lists annotation classes in an order that depends on
/// hash-map iteration inside the engine, so answers compare as sorted
/// sets; every other answer compares byte for byte.
fn canonical(answer: &str) -> Cow<'_, str> {
    if !answer.contains(r#""kind":"anns""#) {
        return Cow::Borrowed(answer);
    }
    let Ok(Json::Obj(mut fields)) = Json::parse(answer) else {
        return Cow::Borrowed(answer);
    };
    for (key, value) in &mut fields {
        if let (true, Json::Arr(items)) = (key == "result", value) {
            items.sort_by_cached_key(Json::render);
        }
    }
    Cow::Owned(Json::Obj(fields).render())
}

/// Replays `lines` in-process, returning the engine's responses.
fn replay(engine: &mut BatchEngine, lines: &[String], key: u64) -> Vec<String> {
    lines
        .iter()
        .map(|l| trace::span(kind(l).1, key, || engine.handle_line(l)).unwrap_or_default())
        .collect()
}

/// Fills in each script's expected responses by replaying it on a fork
/// of `served`'s checkpoint, or on a cold engine when there is none.
fn expect_scripts(served: &Served, spec: &Spec, scripts: &mut [Script]) {
    let base = (!served.ingest.is_empty()).then(|| {
        let bytes = served.snapshot();
        trace::count("inc.snapshot_bytes", bytes.len() as u64);
        trace::span("inc.decode", 0, || EngineBase::decode(&bytes, &spec.sigma))
            .expect("checkpoint decodes")
    });
    for (i, script) in scripts.iter_mut().enumerate() {
        let mut engine = match &base {
            Some(b) => trace::span("inc.fork", i as u64, || BatchEngine::fork_from(b)),
            None => BatchEngine::new(spec.sigma.clone(), &spec.dfa),
        };
        let answers = replay(&mut engine, &script.lines, i as u64);
        script.expect = answers.iter().map(|a| canonical(a).into_owned()).collect();
        if base.is_none() {
            count_ingest(&engine);
        }
    }
}

/// Records what ingesting into `engine` from cold cost the solver.
fn count_ingest(engine: &BatchEngine) {
    let s = engine.session().stats();
    trace::count("inc.ingest_facts", s.facts_processed as u64);
    trace::count(
        "inc.ingest_entries",
        (s.edges + s.lower_bounds + s.upper_bounds) as u64,
    );
}

/// Checks the served responses to the base ingest against a cold
/// in-process replay of the same lines.
fn check_ingest(run: &mut Run, served: &Served, spec: &Spec, base: &[String]) {
    let mut engine = BatchEngine::new(spec.sigma.clone(), &spec.dfa);
    let expect = replay(&mut engine, base, 0);
    count_ingest(&engine);
    let differing = expect
        .iter()
        .zip(&served.ingest)
        .filter(|(a, b)| a != b)
        .count();
    run.tally(
        base.len() as u64,
        differing as u64,
        "served ingest responses differ from in-process replay",
    );
}

/// Checks each replayed `occurs` answer against its oracle answer.
fn check_truths(run: &mut Run, scripts: &[Script], truth: impl Fn(Truth) -> bool) {
    for script in scripts {
        for (answer, t) in script.expect.iter().zip(&script.truth) {
            let Some(t) = *t else { continue };
            let got = Json::parse(answer)
                .ok()
                .and_then(|j| j.get("result").and_then(Json::as_bool));
            run.expect(got == Some(truth(t)), || {
                format!("occurs {t:?}: engine says {answer}")
            });
        }
    }
}

/// Queries seeded nodes of the base program over a forked connection and
/// checks the answers against the oracle's node set `truth`.
fn crosscheck(run: &mut Run, served: &Served, spec: &Spec, nodes: usize, truth: &[usize]) {
    let mut script = Script::default();
    let picks = spread(
        &mut Rng::new(run.seed ^ CROSSCHECK_SHAPE),
        nodes,
        CROSSCHECK_QUERIES,
    );
    for (i, node) in picks.into_iter().enumerate() {
        // Every eighth query sits in an empty epoch, so every workload
        // also times `push` and `pop`; the answer is the base's.
        let epoch = i % 8 == 0;
        if epoch {
            script.push(r#"{"cmd":"push"}"#.to_owned(), None);
        }
        script.occurs("a", 0, node, None);
        if epoch {
            script.push(r#"{"cmd":"pop"}"#.to_owned(), None);
        }
    }
    let mut scripts = [script];
    expect_scripts(served, spec, &mut scripts);
    check_truths(run, &scripts, |t| truth.binary_search(&t.node).is_ok());
    let played = served.play(&scripts[0], 0);
    run.tally(
        scripts[0].lines.len() as u64,
        played.failed,
        "served cross-check answers differ",
    );
    run.connect_ms.extend(played.connect_ms);
}

/// The served cross-check of a pipeline or `serve-ingest` workload: serve
/// `src` as a checkpointed base and query its nodes against the PDS.
/// Returns the cross-check server's latency metrics.
pub fn crosscheck_program(
    run: &mut Run,
    spec: &Spec,
    src: &str,
    map: &EventMap<'_>,
) -> [(&'static str, f64); 3] {
    let cfg = Cfg::build(&Program::parse(src).expect("parses")).expect("valid");
    let lines = encode::protocol_lines(&cfg, &spec.sigma, map, "a");
    let served = Served::start(spec, &lines);
    check_ingest(run, &served, spec, &lines);
    let truth = encode::pds_nodes(&cfg, &spec.dfa, map);
    crosscheck(run, &served, spec, cfg.num_nodes(), &truth);
    served.finish()
}

/// `count` nodes of `0..n`, evenly spaced, in seeded order. Query costs
/// differ a lot between nodes, so the nodes a script asks about are part
/// of the workload's shape, and the seed only orders them.
fn spread(rng: &mut Rng, n: usize, count: usize) -> Vec<usize> {
    let mut nodes: Vec<usize> = (0..count).map(|i| (i * n + n / 2) / count % n).collect();
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, rng.gen_range(0..i + 1));
    }
    nodes
}

/// A what-if template: a program point and the event chain added after it.
type Template = (usize, Vec<Extra>);

/// Each client's connection scripts for one pass, and the what-if
/// templates they use.
fn scripts(
    workload: &str,
    seed: u64,
    cfgs: &[Cfg],
    spec: &Spec,
    scale: usize,
) -> (Vec<Vec<Script>>, Vec<Template>) {
    let mut rng = Rng::new(seed ^ 0x5E4E);
    let n = cfgs[0].num_nodes();
    let mut templates: Vec<Template> = Vec::new();
    let mut clients = vec![Vec::new(); CLIENTS];
    match workload {
        // Two fresh programs into a cold engine, then queries on both.
        "serve-ingest" => {
            let map = pipeline::event_map(&spec.sigma, None);
            let queries = (INGEST_QUERIES / scale).max(2);
            for (c, own) in clients.iter_mut().enumerate() {
                let mut s = Script::default();
                for (p, prefix) in ["a", "b"].into_iter().enumerate() {
                    for line in encode::protocol_lines(&cfgs[2 * c + p], &spec.sigma, &map, prefix)
                    {
                        s.push(line, None);
                    }
                }
                let picks: Vec<Vec<usize>> = (0..2)
                    .map(|p| spread(&mut rng, cfgs[2 * c + p].num_nodes(), queries / 2))
                    .collect();
                for (a, b) in picks[0].iter().zip(&picks[1]) {
                    s.occurs("a", 2 * c, *a, None);
                    s.occurs("b", 2 * c + 1, *b, None);
                }
                own.push(s);
            }
        }
        // Read-only connections: 80% `occurs`, 20% `anns`, together
        // covering the base evenly.
        "serve-query" => {
            let connections = CLIENTS * QUERY_CONNECTIONS;
            let nodes = spread(&mut rng, n, connections * QUERY_REQUESTS);
            let phase = rng.gen_range(0..5);
            for (k, chunk) in nodes.chunks(QUERY_REQUESTS).enumerate() {
                let mut s = Script::default();
                for (i, &node) in chunk.iter().enumerate() {
                    if i % 5 == phase {
                        let v = encode::var("a", node);
                        s.push(
                            format!(r#"{{"cmd":"query","kind":"anns","var":"{v}","cons":"apc"}}"#),
                            None,
                        );
                    } else {
                        s.occurs("a", 0, node, None);
                    }
                }
                clients[k % CLIENTS].push(s);
            }
        }
        // What-if transactions on the shared base: "if these 1–3 events
        // followed this program point, would the property be violated?"
        // push, add the event chain on fresh variables, occurs at its end,
        // pop, and occurs at the program point again.
        _ => {
            let symbols: Vec<_> = spec.sigma.symbols().collect();
            for point in spread(&mut rng, n, TEMPLATES) {
                let chain: Vec<Extra> = (0..1 + rng.gen_range(0..3))
                    .map(|j| {
                        (
                            if j == 0 { point } else { n + j - 1 },
                            n + j,
                            *rng.choose(&symbols),
                        )
                    })
                    .collect();
                templates.push((point, chain));
            }
            // Every client runs every template, each in its own order.
            for own in &mut clients {
                let mut order: Vec<usize> = (0..TEMPLATES).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.gen_range(0..i + 1));
                }
                let mut s = Script::default();
                for t in order {
                    let (point, chain) = &templates[t];
                    s.push(r#"{"cmd":"push"}"#.to_owned(), None);
                    for &(from, to, sym) in chain {
                        s.push(
                            encode::add_line("a", from, to, Some(spec.sigma.name(sym))),
                            None,
                        );
                    }
                    s.occurs("a", 0, n + chain.len() - 1, Some(t));
                    s.push(r#"{"cmd":"pop"}"#.to_owned(), None);
                    s.occurs("a", 0, *point, None);
                }
                own.push(s);
            }
        }
    }
    (clients, templates)
}

/// Runs one served workload: `serve-ingest`, `serve-query` or
/// `serve-whatif`.
pub fn run(run: &mut Run, workload: &str) {
    run.ops_overlap = true;
    let ingest = workload == "serve-ingest";
    let (count, stmts) = if ingest {
        (2 * CLIENTS, INGEST_STMTS)
    } else {
        (1, BASE_STMTS)
    };
    let programs: Vec<Unit> = (0..count)
        .map(|k| Unit {
            src: inputs::program(
                k as u64,
                run.seed,
                stmts / run.scale,
                Events::Plain(inputs::PRIVILEGE_EVENTS),
            ),
            fds: 0,
        })
        .collect();
    let cfgs: Vec<Cfg> = programs
        .iter()
        .map(|u| Cfg::build(&Program::parse(&u.src).expect("parses")).expect("valid"))
        .collect();
    let prop = Prop::compile(workload);
    let spec = prop.plain();
    let map = pipeline::event_map(&spec.sigma, None);
    let base = if ingest {
        Vec::new()
    } else {
        encode::protocol_lines(&cfgs[0], &spec.sigma, &map, "a")
    };
    let (mut clients, templates) = scripts(workload, run.seed, &cfgs, spec, run.scale);

    let start = || {
        let Prop::Plain(spec) = Prop::compile(workload) else {
            unreachable!("plain property")
        };
        Served::start(&spec, &base)
    };
    let served = run.setup(start);
    if run.traced {
        trace::count("automata.min_states", spec.dfa.minimize().len() as u64);
    }
    if !ingest {
        check_ingest(run, &served, spec, &base);
    }
    for own in &mut clients {
        expect_scripts(&served, spec, own);
    }

    // What-if sessions are long-lived: each client keeps one connection
    // (opened in the warm-up pass) for the whole run. Query clients
    // reconnect for every script, which is what they measure.
    let mut sessions: Vec<Option<Conn>> = (0..CLIENTS).map(|_| None).collect();
    let persistent = workload == "serve-whatif";
    run.measure(
        |run| {
            let played: Vec<Played> = std::thread::scope(|scope| {
                let threads: Vec<_> = clients
                    .iter()
                    .zip(&mut sessions)
                    .enumerate()
                    .map(|(c, (own, session))| {
                        let served = &served;
                        scope.spawn(move || {
                            let mut all = Played::default();
                            for (i, s) in own.iter().enumerate() {
                                let key = (c * own.len() + i) as u64;
                                all.add(if persistent {
                                    let conn = session.get_or_insert_with(|| {
                                        Conn::open(served.addr).expect("connect")
                                    });
                                    served.play_on(conn, s, key, None)
                                } else {
                                    served.play(s, key)
                                });
                            }
                            all
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            for p in played {
                run.tally(
                    p.op_ms.len() as u64,
                    p.failed,
                    "served answers differ from in-process replay",
                );
                run.ops_ms.extend(p.op_ms);
                run.connect_ms.extend(p.connect_ms);
            }
        },
        |run| {
            // A cold server is cheap to start, so its set-up is re-timed
            // between passes, as the pipeline workloads' is.
            if ingest {
                run.setup(start);
            }
        },
    );
    drop(sessions);

    // The oracles: the pipeline, PDS and forward engines on every program,
    // and the forward engine on the base plus each template.
    let verdicts: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, u)| pipeline::check(&prop, i as u64, &u.src))
        .collect();
    trace::count("pipeline.passes", 1);
    pipeline::verify(run, &prop, &programs, &verdicts);
    let what_if: Vec<Vec<usize>> = templates
        .iter()
        .map(|(_, chain)| encode::forward_nodes(&cfgs[0], &spec.dfa, &map, chain))
        .collect();
    for own in &clients {
        check_truths(run, own, |t| match t.template {
            Some(k) => what_if[k].binary_search(&t.node).is_ok(),
            None => verdicts[t.program].binary_search(&t.node).is_ok(),
        });
    }
    if ingest {
        let events = Events::Plain(inputs::PRIVILEGE_EVENTS);
        let src = inputs::program(
            CROSSCHECK_SHAPE,
            run.seed,
            CROSSCHECK_STMTS / run.scale,
            events,
        );
        crosscheck_program(run, spec, &src, &map);
    } else {
        crosscheck(run, &served, spec, cfgs[0].num_nodes(), &verdicts[0]);
    }
    // The server the passes ran against reports the request latencies.
    run.extra.extend(served.finish());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(workload: &str, seed: u64) -> Vec<String> {
        let stmts = if workload == "serve-ingest" { 300 } else { 600 };
        let cfgs: Vec<Cfg> = (0..2 * CLIENTS as u64)
            .map(|k| {
                let src = inputs::program(k, seed, stmts, Events::Plain(inputs::PRIVILEGE_EVENTS));
                Cfg::build(&Program::parse(&src).expect("parses")).expect("valid")
            })
            .collect();
        let Prop::Plain(spec) = Prop::compile(workload) else {
            unreachable!()
        };
        let map = pipeline::event_map(&spec.sigma, None);
        let mut all = encode::protocol_lines(&cfgs[0], &spec.sigma, &map, "a");
        let (clients, _) = scripts(workload, seed, &cfgs, &spec, 1);
        all.extend(clients.into_iter().flatten().flat_map(|s| s.lines));
        all
    }

    #[test]
    fn same_seed_gives_identical_protocol_lines() {
        for workload in ["serve-ingest", "serve-query", "serve-whatif"] {
            assert_eq!(lines(workload, 5), lines(workload, 5), "{workload}");
            assert_ne!(lines(workload, 5), lines(workload, 6), "{workload}");
        }
    }
}
