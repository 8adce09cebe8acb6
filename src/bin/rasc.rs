//! The `rasc` command-line interface.
//!
//! ```text
//! rasc check      --spec FILE --program FILE [--entry NAME] [--engine E] [--trace]
//! rasc dataflow   --program FILE --fact NAME=GEN/KILL … [--at LABEL]
//! rasc flow       --program FILE --from LABEL --to LABEL [--dual] [--pn]
//! rasc points-to  --program FILE [--sets] [--alias X Y] [--stack-aware]
//! rasc spec       --spec FILE [--dot] [--monoid]
//! rasc cfg        --program FILE [--dot]
//! rasc batch      --spec FILE [--input FILE] [--trace FILE] [--profile]
//! rasc serve      --spec FILE [--addr HOST:PORT] [--threads N] [--limits SPEC]
//!                 [--max-connections N] [--snapshot-dir DIR] [--trace FILE] [--profile]
//!                 [--admin-addr HOST:PORT] [--slow-millis N]
//! rasc stats      --addr HOST:PORT [--metrics] [--watch SECS]
//! rasc snapshot   --spec FILE --out SNAP [--input FILE]
//! rasc restore    --spec FILE --snapshot SNAP [--input FILE]
//! ```
//!
//! `check` verifies a §8-syntax property specification against a MiniImp
//! program, with the bidirectional constraint checker (`--engine
//! constraints`, the default), the §5 forward solver (`forward`) or the
//! PDS `post*` checker (`pushdown`); `flow` runs the §7 type-based flow
//! analysis on a MiniLam program (`--dual` for the §7.6 encoding);
//! `points-to` runs the §7.5 analysis on a MiniPtr program;
//! `batch` runs an incremental solving session over a JSON-lines command
//! stream (see `rasc::inc::BatchEngine` for the protocol); its `--trace`
//! flag writes a Chrome trace-event file (load it in Perfetto or
//! `chrome://tracing`) and `--profile` prints an event-count summary to
//! stderr when the stream ends.
//!
//! `serve` exposes the same protocol over TCP (one session per
//! connection; see `rasc::serve`): `--threads` sizes the worker pool,
//! `--max-connections` caps admission, and
//! `--limits steps=N,millis=N,terms=N,entries=N` sets server-wide
//! per-request resource caps. The server drains gracefully when any
//! client sends `{"cmd":"shutdown"}` or on SIGINT/SIGTERM; with
//! `--snapshot-dir DIR` it warm-starts every connection from
//! `DIR/current.snap` and routes in-band `{"cmd":"snapshot"}` commands
//! there. `--trace`/`--profile` work as in `batch`.
//! `--admin-addr` opens the telemetry plane — an HTTP listener
//! answering `GET /metrics` (Prometheus text), `GET /stats` (JSON
//! with quantile estimates), and `GET /healthz` — and `--slow-millis N`
//! appends every request at or over N milliseconds to a slow-query log
//! on stderr (one JSON line per slow request).
//!
//! `stats` polls a running server's admin endpoint: it prints the
//! `GET /stats` JSON body (or the raw `/metrics` exposition page with
//! `--metrics`) once, or repeatedly every `--watch SECS` seconds.
//!
//! `snapshot` runs a batch command stream and then persists the solved
//! form to a crash-safe snapshot file; `restore` reloads such a file and
//! runs a (typically query-only) stream against it without re-solving —
//! the warm-restart path.

use std::collections::HashMap;
use std::process::ExitCode;

use rasc::automata::{Monoid, PropertySpec};
use rasc::cfgir::Cfg;
use rasc::dataflow::{ConstraintDataflow, GenKillSpec};
use rasc::flow::FlowAnalysis;
use rasc::pdmc::{forward_violations, render_trace, witness_trace, ConstraintChecker};
use rasc::ptr::PointsTo;
use rasc::pushdown::PdsChecker;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("rasc: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let command: fn(&Opts) -> Result<(), String> = match cmd.as_str() {
        "check" => check,
        "dataflow" => dataflow,
        "flow" => flow,
        "points-to" => points_to,
        "spec" => spec_cmd,
        "cfg" => cfg_cmd,
        "batch" => batch,
        "serve" => serve,
        "stats" => stats_cmd,
        "snapshot" => snapshot_cmd,
        "restore" => restore_cmd,
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            return Ok(());
        }
        other => return Err(format!("unknown command `{other}`\n{}", usage())),
    };
    command(&parse_opts(cmd, &args[1..])?)
}

fn usage() -> String {
    "usage:\n  \
     rasc check      --spec FILE --program FILE [--entry NAME] [--engine constraints|forward|pushdown] [--trace]\n  \
     rasc dataflow   --program FILE --fact NAME=GEN/KILL ... [--at LABEL]\n  \
     rasc flow       --program FILE --from LABEL --to LABEL [--dual] [--pn]\n  \
     rasc points-to  --program FILE [--sets] [--alias X Y] [--stack-aware]\n  \
     rasc spec       --spec FILE [--dot] [--monoid]\n  \
     rasc cfg        --program FILE [--dot]\n  \
     rasc batch      --spec FILE [--input FILE] [--trace FILE] [--profile]   (JSON-lines commands on stdin or FILE)\n  \
     rasc serve      --spec FILE [--addr HOST:PORT] [--threads N] [--limits steps=N,millis=N,terms=N,entries=N] [--max-connections N] [--snapshot-dir DIR] [--trace FILE] [--profile] [--admin-addr HOST:PORT] [--slow-millis N]\n  \
     rasc stats      --addr HOST:PORT [--metrics] [--watch SECS]   (poll a running server's admin endpoint)\n  \
     rasc snapshot   --spec FILE --out SNAP [--input FILE]   (run a command stream, then persist the solved form)\n  \
     rasc restore    --spec FILE --snapshot SNAP [--input FILE]   (reload a solved form, then run a command stream)"
        .to_owned()
}

#[derive(Debug, Default)]
struct Opts {
    flags: Vec<String>,
    values: HashMap<String, Vec<String>>,
}

impl Opts {
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.values
            .get(name)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    fn values(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    fn required(&self, name: &str) -> Result<&str, String> {
        self.value(name)
            .ok_or_else(|| format!("missing required option --{name}"))
    }
}

/// How many values `cmd`'s option `--name` takes (0 for a bare flag), or
/// `None` when `cmd` has no such option. Arity is per-command: `check
/// --trace` is a bare flag (print a witness trace), while `batch --trace
/// FILE` names the trace-event output file.
fn arity(cmd: &str, name: &str) -> Option<usize> {
    let (flags, valued): (&[&str], &[&str]) = match cmd {
        "check" => (&["trace"], &["spec", "program", "entry", "engine"]),
        "dataflow" => (&[], &["program", "fact", "at"]),
        "flow" => (&["dual", "pn"], &["program", "from", "to"]),
        "points-to" if name == "alias" => return Some(2),
        "points-to" => (&["sets", "stack-aware"], &["program"]),
        "spec" => (&["dot", "monoid"], &["spec"]),
        "cfg" => (&["dot"], &["program"]),
        "batch" => (&["profile"], &["spec", "input", "trace"]),
        "serve" => (
            &["profile"],
            &[
                "spec",
                "addr",
                "threads",
                "limits",
                "max-connections",
                "snapshot-dir",
                "trace",
                "admin-addr",
                "slow-millis",
            ],
        ),
        "stats" => (&["metrics"], &["addr", "watch"]),
        "snapshot" => (&[], &["spec", "out", "input"]),
        "restore" => (&[], &["spec", "snapshot", "input"]),
        _ => (&[], &[]),
    };
    if flags.contains(&name) {
        Some(0)
    } else if valued.contains(&name) {
        Some(1)
    } else {
        None
    }
}

fn parse_opts(cmd: &str, args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument `{arg}`"));
        };
        let Some(n) = arity(cmd, name) else {
            return Err(format!("unknown option --{name} for {cmd}"));
        };
        if n == 0 {
            opts.flags.push(name.to_owned());
            i += 1;
        } else {
            if i + 1 + n > args.len() {
                return Err(format!("--{name} expects {n} value(s)"));
            }
            let vals: Vec<String> = args[i + 1..i + 1 + n].to_vec();
            if vals.iter().any(|v| v.starts_with("--")) {
                return Err(format!("--{name} expects {n} value(s)"));
            }
            opts.values.entry(name.to_owned()).or_default().extend(vals);
            i += 1 + n;
        }
    }
    Ok(opts)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))
}

fn check(opts: &Opts) -> Result<(), String> {
    let spec_text = read(opts.required("spec")?)?;
    let program_text = read(opts.required("program")?)?;
    let entry = opts.value("entry").unwrap_or("main");
    let engine = opts.value("engine").unwrap_or("constraints");

    let spec = PropertySpec::parse(&spec_text).map_err(|e| e.to_string())?;
    // The forward and pushdown engines check the one machine
    // `spec.compile()` builds, which cannot tell a parametric property's
    // instances (one per descriptor) apart.
    if spec.is_parametric() && matches!(engine, "forward" | "pushdown") {
        return Err(format!(
            "engine `{engine}` cannot check a parametric property; use --engine constraints"
        ));
    }
    let program = rasc::cfgir::Program::parse(&program_text).map_err(|e| e.to_string())?;
    let cfg = Cfg::build(&program).map_err(|e| e.to_string())?;
    let (sigma, dfa) = spec.compile();

    let violations: Vec<rasc::cfgir::NodeId> = match engine {
        "constraints" => {
            if spec.is_parametric() {
                let mut checker =
                    ConstraintChecker::parametric(&cfg, &spec, entry).map_err(|e| e.to_string())?;
                checker.solve();
                checker.violations()
            } else {
                let mut checker =
                    ConstraintChecker::new(&cfg, &sigma, &dfa, entry).map_err(|e| e.to_string())?;
                checker.solve();
                checker.violations()
            }
        }
        "forward" => forward_violations(&cfg, &sigma, &dfa, entry).map_err(|e| e.to_string())?,
        "pushdown" => {
            let checker = PdsChecker::new(&cfg, &sigma, &dfa, entry).map_err(|e| e.to_string())?;
            let mut nodes: Vec<_> = checker.run().into_iter().map(|v| v.node).collect();
            nodes.sort();
            nodes.dedup();
            nodes
        }
        other => return Err(format!("unknown engine `{other}`")),
    };

    if violations.is_empty() {
        println!(
            "ok: property holds ({} program points checked)",
            cfg.num_nodes()
        );
        return Ok(());
    }
    println!(
        "VIOLATION: {} program point(s) can reach an error state",
        violations.len()
    );
    if opts.flag("trace") {
        if let Some(first) = violations.first() {
            match witness_trace(&cfg, &sigma, &dfa, entry, *first) {
                Some(steps) => println!("witness: {}", render_trace(&steps)),
                None => println!("witness: (parametric property — no single-machine trace)"),
            }
        }
    }
    Err(format!("{} violation(s) found", violations.len()))
}

fn dataflow(opts: &Opts) -> Result<(), String> {
    let program_text = read(opts.required("program")?)?;
    let program = rasc::cfgir::Program::parse(&program_text).map_err(|e| e.to_string())?;
    let cfg = Cfg::build(&program).map_err(|e| e.to_string())?;
    let mut spec = GenKillSpec::new();
    let mut fact_names = Vec::new();
    for decl in opts.values("fact") {
        // NAME=GEN/KILL, e.g. x=def_x/kill_x
        let (name, rest) = decl
            .split_once('=')
            .ok_or_else(|| format!("bad --fact `{decl}` (want NAME=GEN/KILL)"))?;
        let (gen, kill) = rest
            .split_once('/')
            .ok_or_else(|| format!("bad --fact `{decl}` (want NAME=GEN/KILL)"))?;
        let f = spec.fact(name);
        spec.event(gen, &[f], &[]);
        spec.event(kill, &[], &[f]);
        fact_names.push(name.to_owned());
    }
    if fact_names.is_empty() {
        return Err("at least one --fact NAME=GEN/KILL is required".to_owned());
    }
    let mut df = ConstraintDataflow::new(&cfg, &spec, "main").map_err(|e| e.to_string())?;
    df.solve();
    match opts.value("at") {
        Some(label) => {
            let node = cfg
                .label_node(label)
                .ok_or_else(|| format!("no statement labeled `{label}`"))?;
            let bits = df.facts_at(node);
            let holding: Vec<&str> = fact_names
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, n)| n.as_str())
                .collect();
            println!("at `{label}`: {{{}}}", holding.join(", "));
        }
        None => {
            println!(
                "solved {} facts over {} program points",
                fact_names.len(),
                cfg.num_nodes()
            );
        }
    }
    Ok(())
}

fn flow(opts: &Opts) -> Result<(), String> {
    let program_text = read(opts.required("program")?)?;
    let from = opts.required("from")?;
    let to = opts.required("to")?;
    let program = rasc::flow::Program::parse(&program_text).map_err(|e| e.to_string())?;
    let mut a = if opts.flag("dual") {
        FlowAnalysis::dual(&program)
    } else {
        FlowAnalysis::new(&program)
    }
    .map_err(|e| e.to_string())?;
    a.solve();
    a.label_var(from).map_err(|e| e.to_string())?;
    a.label_var(to).map_err(|e| e.to_string())?;
    if opts.flag("pn") {
        println!("{from} flows to {to} (PN): {}", a.flows_pn(from, to));
    } else {
        println!("{from} flows to {to} (matched): {}", a.flows(from, to));
    }
    Ok(())
}

fn points_to(opts: &Opts) -> Result<(), String> {
    let program_text = read(opts.required("program")?)?;
    let program = rasc::ptr::Program::parse(&program_text).map_err(|e| e.to_string())?;
    let mut pt = PointsTo::analyze(&program).map_err(|e| e.to_string())?;
    let alias = opts.values("alias");
    if alias.len() == 2 {
        let (x, y) = (&alias[0], &alias[1]);
        let result = if opts.flag("stack-aware") {
            pt.may_alias_stack_aware(x, y).map_err(|e| e.to_string())?
        } else {
            pt.may_alias(x, y).map_err(|e| e.to_string())?
        };
        println!("may-alias({x}, {y}) = {result}");
    }
    if opts.flag("sets") {
        for f in &program.funs {
            let mut vars: Vec<String> = f.params.clone();
            for s in &f.stmts {
                if let rasc::ptr::Stmt::AddrOf { dst, .. }
                | rasc::ptr::Stmt::Copy { dst, .. }
                | rasc::ptr::Stmt::Load { dst, .. }
                | rasc::ptr::Stmt::Alloc { dst }
                | rasc::ptr::Stmt::FieldLoad { dst, .. } = s
                {
                    vars.push(dst.clone());
                }
            }
            vars.sort();
            vars.dedup();
            for v in vars {
                let key = format!("{}::{v}", f.name);
                if let Ok(set) = pt.points_to(&key) {
                    println!("pt({key}) = {{{}}}", set.join(", "));
                }
            }
        }
    }
    Ok(())
}

/// The `--trace`/`--profile` observability sinks shared by `batch` and
/// `serve`: a Chrome trace-event collector, a metrics registry, and the
/// single (possibly fanned-out) sink combining whichever were requested.
struct ObsSetup {
    chrome: Option<std::sync::Arc<rasc::obs::ChromeTraceSink>>,
    profile: Option<std::sync::Arc<rasc::obs::MetricsRegistry>>,
    sink: Option<std::sync::Arc<dyn rasc::obs::EventSink>>,
}

impl ObsSetup {
    fn from_opts(opts: &Opts) -> ObsSetup {
        use std::sync::Arc;

        use rasc::obs;

        // Arm save-on-drop immediately: if the workload panics or the
        // process unwinds before `finish`, the partial trace is still
        // written as a well-formed (Perfetto-loadable) JSON array. The
        // explicit `save` in `finish` disarms it.
        let chrome = opts.value("trace").map(|path| {
            let sink = Arc::new(obs::ChromeTraceSink::new());
            sink.save_on_drop(std::path::PathBuf::from(path));
            sink
        });
        let profile = opts
            .flag("profile")
            .then(|| Arc::new(obs::MetricsRegistry::new()));
        let mut sinks: Vec<Arc<dyn obs::EventSink>> = Vec::new();
        if let Some(c) = &chrome {
            sinks.push(Arc::clone(c) as Arc<dyn obs::EventSink>);
        }
        if let Some(r) = &profile {
            sinks.push(Arc::clone(r) as Arc<dyn obs::EventSink>);
        }
        let sink = match sinks.len() {
            0 => None,
            1 => sinks.pop(),
            _ => Some(Arc::new(obs::Fanout::new(sinks)) as Arc<dyn obs::EventSink>),
        };
        ObsSetup {
            chrome,
            profile,
            sink,
        }
    }

    /// Saves the Chrome trace (if requested) and prints the registry's
    /// report (if requested) once the workload is done.
    fn finish(&self, opts: &Opts) -> Result<(), String> {
        if let (Some(sink), Some(path)) = (&self.chrome, opts.value("trace")) {
            sink.save(std::path::Path::new(path))
                .map_err(|e| format!("cannot write trace `{path}`: {e}"))?;
            eprintln!("rasc: wrote {} trace events to {path}", sink.len());
        }
        if let Some(r) = &self.profile {
            eprint!("{}", r.snapshot().report());
        }
        Ok(())
    }
}

fn batch(opts: &Opts) -> Result<(), String> {
    use rasc::obs;

    let spec_text = read(opts.required("spec")?)?;
    let spec = PropertySpec::parse(&spec_text).map_err(|e| e.to_string())?;
    let (sigma, dfa) = spec.compile();

    // Observability: --trace collects a Chrome trace-event file,
    // --profile an in-memory event summary; both fan out to one scoped
    // sink so instrumentation costs nothing when neither is requested.
    let setup = ObsSetup::from_opts(opts);
    let _guard = setup.sink.clone().map(obs::ScopedSink::install);

    // The framing (one response line per command, flushed immediately so
    // pipe-driven clients never wait on a buffer) is the library's
    // `run_stream`, shared with the TCP serve layer.
    let mut engine = rasc::inc::BatchEngine::new(sigma, &dfa);
    let stdout = std::io::stdout();
    let out = stdout.lock();
    let result = match opts.value("input") {
        Some(path) => engine.run_stream(read(path)?.as_bytes(), out),
        None => {
            let stdin = std::io::stdin();
            engine.run_stream(stdin.lock(), out)
        }
    };
    result.map_err(|e| e.to_string())?;

    setup.finish(opts)
}

fn serve(opts: &Opts) -> Result<(), String> {
    let spec_text = read(opts.required("spec")?)?;
    let spec = PropertySpec::parse(&spec_text).map_err(|e| e.to_string())?;
    let (sigma, dfa) = spec.compile();

    let addr = opts.value("addr").unwrap_or("127.0.0.1:7878");
    let parse_num = |name: &str| -> Result<Option<usize>, String> {
        opts.value(name)
            .map(|v| {
                v.parse::<usize>()
                    .map_err(|_| format!("--{name} expects a non-negative integer, got `{v}`"))
            })
            .transpose()
    };

    let mut config = rasc::serve::ServeConfig::default();
    if let Some(n) = parse_num("threads")? {
        config.threads = n.max(1);
    }
    if let Some(n) = parse_num("max-connections")? {
        config.max_connections = n.max(1);
    }
    if let Some(spec) = opts.value("limits") {
        config.caps = parse_limits(spec)?;
    }
    if let Some(dir) = opts.value("snapshot-dir") {
        config.snapshot_dir = Some(std::path::PathBuf::from(dir));
    }
    if let Some(spec) = opts.value("admin-addr") {
        config.admin_addr = Some(spec.to_owned());
    }
    if let Some(v) = opts.value("slow-millis") {
        let n: u64 = v
            .parse()
            .map_err(|_| format!("--slow-millis expects a non-negative integer, got `{v}`"))?;
        config.slow_millis = Some(n);
    }
    // SIGINT/SIGTERM request the same graceful drain as the in-band
    // shutdown command: stop accepting, finish in-flight requests, then
    // exit cleanly.
    config.shutdown_flag = signals::install();

    let setup = ObsSetup::from_opts(opts);
    config.sink = setup.sink.clone();

    let server = rasc::serve::Server::bind(addr, sigma, &dfa, config.clone())
        .map_err(|e| format!("cannot bind `{addr}`: {e}"))?;
    eprintln!(
        "rasc: serving on {} ({} threads, max {} connections); \
         send {{\"cmd\":\"shutdown\"}} to drain",
        server.local_addr(),
        config.threads,
        config.max_connections
    );
    if let Some(admin) = server.handle().admin_addr() {
        eprintln!("rasc: admin endpoint on http://{admin} (/metrics, /stats, /healthz)");
    }
    let report = server.run().map_err(|e| e.to_string())?;
    eprintln!(
        "rasc: drained — {} connections, {} requests, {} rejected",
        report.connections, report.requests, report.rejected
    );

    setup.finish(opts)
}

/// `rasc stats`: poll a running server's admin endpoint over plain
/// HTTP/1.1 (no client library — the endpoint speaks the minimal subset
/// a raw `TcpStream` exchange needs). Prints the `GET /stats` JSON body,
/// or the raw Prometheus exposition page with `--metrics`; with
/// `--watch SECS` it re-polls forever at that interval.
fn stats_cmd(opts: &Opts) -> Result<(), String> {
    let addr = opts.required("addr")?;
    let path = if opts.flag("metrics") {
        "/metrics"
    } else {
        "/stats"
    };
    let watch: Option<u64> = opts
        .value("watch")
        .map(|v| {
            v.parse::<u64>()
                .map_err(|_| format!("--watch expects a number of seconds, got `{v}`"))
        })
        .transpose()?;
    loop {
        let body = http_get(addr, path)?;
        println!("{}", body.trim_end());
        match watch {
            Some(secs) => std::thread::sleep(std::time::Duration::from_secs(secs.max(1))),
            None => return Ok(()),
        }
    }
}

/// One `GET` against the admin endpoint: connect, send the request,
/// read to EOF (the server answers `Connection: close`), strip the
/// header block, and fail unless the status line says 200.
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};

    let mut stream = std::net::TcpStream::connect(addr)
        .map_err(|e| format!("cannot connect to `{addr}`: {e}"))?;
    let _ = stream.set_read_timeout(Some(std::time::Duration::from_secs(5)));
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("cannot send request to `{addr}`: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response from `{addr}`: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed HTTP response from `{addr}`"))?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("`{addr}{path}` answered `{status}`"));
    }
    Ok(body.to_owned())
}

/// Graceful-shutdown signal wiring for `rasc serve`.
///
/// The handler only flips an atomic flag — the one operation that is
/// async-signal-safe — and a thread of the serve layer watches it and
/// starts the drain that wakes the blocked accept loops. The
/// raw `signal(2)` FFI lives here, in the binary, because every library
/// crate in the workspace is `#![forbid(unsafe_code)]`.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }

    /// Installs SIGINT/SIGTERM handlers and returns the flag they set.
    pub fn install() -> Option<Arc<AtomicBool>> {
        let flag = Arc::clone(FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))));
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
        Some(flag)
    }
}

/// On non-Unix targets signals are not wired; ^C terminates the process
/// the default way, without a graceful drain.
#[cfg(not(unix))]
mod signals {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    pub fn install() -> Option<Arc<AtomicBool>> {
        None
    }
}

/// `rasc snapshot`: run a batch command stream (responses to stdout,
/// exactly as `rasc batch`), then atomically persist the session's solved
/// form to `--out`.
fn snapshot_cmd(opts: &Opts) -> Result<(), String> {
    let spec_text = read(opts.required("spec")?)?;
    let out_path = opts.required("out")?.to_owned();
    let spec = PropertySpec::parse(&spec_text).map_err(|e| e.to_string())?;
    let (sigma, dfa) = spec.compile();

    let mut engine = rasc::inc::BatchEngine::new(sigma, &dfa);
    let stdout = std::io::stdout();
    let out = stdout.lock();
    let result = match opts.value("input") {
        Some(path) => engine.run_stream(read(path)?.as_bytes(), out),
        None => {
            let stdin = std::io::stdin();
            engine.run_stream(stdin.lock(), out)
        }
    };
    result.map_err(|e| e.to_string())?;

    let bytes = engine
        .snapshot_to(std::path::Path::new(&out_path))
        .map_err(|e| e.to_string())?;
    eprintln!("rasc: wrote {bytes}-byte snapshot to {out_path}");
    Ok(())
}

/// `rasc restore`: reload a snapshot into a fresh session (no
/// re-solving) and run a command stream — typically queries — against it.
fn restore_cmd(opts: &Opts) -> Result<(), String> {
    let spec_text = read(opts.required("spec")?)?;
    let snap_path = opts.required("snapshot")?.to_owned();
    let spec = PropertySpec::parse(&spec_text).map_err(|e| e.to_string())?;
    let (sigma, dfa) = spec.compile();

    let mut engine = rasc::inc::BatchEngine::new(sigma, &dfa);
    engine
        .restore_from(std::path::Path::new(&snap_path))
        .map_err(|e| e.to_string())?;
    eprintln!(
        "rasc: restored {} constraints from {snap_path}",
        engine.session().num_constraints()
    );

    let stdout = std::io::stdout();
    let out = stdout.lock();
    let result = match opts.value("input") {
        Some(path) => engine.run_stream(read(path)?.as_bytes(), out),
        None => {
            let stdin = std::io::stdin();
            engine.run_stream(stdin.lock(), out)
        }
    };
    result.map_err(|e| e.to_string())
}

/// Parses `--limits steps=N,millis=N,terms=N,entries=N` (any subset).
fn parse_limits(spec: &str) -> Result<rasc::constraints::Budget, String> {
    let mut caps = rasc::constraints::Budget::unlimited();
    for part in spec.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("bad --limits entry `{part}` (want key=value)"))?;
        let n: u64 = value
            .trim()
            .parse()
            .map_err(|_| format!("bad --limits value in `{part}`"))?;
        let as_usize = usize::try_from(n).unwrap_or(usize::MAX);
        match key.trim() {
            "steps" => caps = caps.with_steps(n),
            "millis" => caps = caps.with_deadline_millis(n),
            "terms" => caps = caps.with_max_terms(as_usize),
            "entries" => caps = caps.with_max_entries(as_usize),
            other => {
                return Err(format!(
                    "unknown --limits key `{other}` (want steps, millis, terms, or entries)"
                ))
            }
        }
    }
    Ok(caps)
}

fn spec_cmd(opts: &Opts) -> Result<(), String> {
    let spec_text = read(opts.required("spec")?)?;
    let spec = PropertySpec::parse(&spec_text).map_err(|e| e.to_string())?;
    let (sigma, dfa) = spec.compile();
    println!(
        "states: {} ({} minimized), symbols: {}, parametric: {}",
        dfa.len(),
        dfa.minimize().len(),
        sigma.len(),
        spec.is_parametric()
    );
    if opts.flag("monoid") {
        let monoid = Monoid::of_dfa(&dfa.minimize());
        println!("|F_M^≡| = {}", monoid.len());
    }
    if opts.flag("dot") {
        print!("{}", dfa.to_dot(&sigma));
    }
    Ok(())
}

fn cfg_cmd(opts: &Opts) -> Result<(), String> {
    let program_text = read(opts.required("program")?)?;
    let program = rasc::cfgir::Program::parse(&program_text).map_err(|e| e.to_string())?;
    let cfg = Cfg::build(&program).map_err(|e| e.to_string())?;
    if opts.flag("dot") {
        print!("{}", cfg.to_dot());
    } else {
        println!(
            "functions: {}, program points: {}, edges: {}, call sites: {}",
            cfg.functions().len(),
            cfg.num_nodes(),
            cfg.edges().len(),
            cfg.call_sites().len()
        );
    }
    Ok(())
}
