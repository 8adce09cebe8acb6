//! The `rasc` end-to-end benchmark: the paper's pipeline (MiniImp source →
//! CFG → §6.1 encoding → solve → violation query and witness) and the
//! served path (a request as a TCP client sees it), on six seeded
//! workloads, with every answer checked against an independent engine.
//!
//! ```text
//! benchmark --workload <name|all> --seed <n> [--seconds <s>] [--trace 0|1]
//!           [--trace-out FILE] [--repeat N]
//! ```
//!
//! An untraced run (`--trace 0`) prints the end-to-end metrics. A traced
//! run (`--trace 1`) prints the per-layer metrics, computed from spans the
//! benchmark records around its calls into each library crate, and with
//! `--trace-out` writes them as a Chrome trace. Each metric is one JSON
//! line `{"workload","metric","value","unit"}`; the last line is
//! `{"correct","attempted","failed","metrics"}`. A wrong answer makes the
//! exit code 1. `--workload all` and `--repeat N` run each workload in a
//! child process of its own, so peak memory and set-up time are per run.
//! README.md describes the workloads and metrics.

mod encode;
mod inputs;
mod pipeline;
mod served;
mod trace;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Instant;

use rasc_inc::json::{obj, Json};

const WORKLOADS: [&str; 6] = [
    "table1",
    "units",
    "parametric",
    "serve-ingest",
    "serve-query",
    "serve-whatif",
];

/// Printed by an untraced run: (name, unit).
const END_TO_END: [(&str, &str); 3] = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms")];

/// Printed by a traced run: (name, unit).
const PER_LAYER: [(&str, &str); 37] = [
    ("op.p99_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("cfgir.parse_ms", "ms"),
    ("cfgir.parse_mb_per_s", "MB/s"),
    ("cfgir.cfg_ms", "ms"),
    ("cfgir.cfg_nodes", "count"),
    ("automata.spec_ms", "ms"),
    ("automata.min_states", "count"),
    ("pdmc.encode_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.solve_facts", "count"),
    ("core.solve_entries", "count"),
    ("core.solve_useful_ratio", "ratio"),
    ("core.annotations", "count"),
    ("core.query_ms", "ms"),
    ("core.violations", "count"),
    ("pdmc.witness_ms", "ms"),
    ("core.forward_ms", "ms"),
    ("pushdown.post_star_ms", "ms"),
    ("pushdown.bidi_over_pds", "ratio"),
    ("inc.add_us", "us"),
    ("inc.query_us", "us"),
    ("inc.push_us", "us"),
    ("inc.pop_us", "us"),
    ("inc.decode_ms", "ms"),
    ("inc.fork_us", "us"),
    ("inc.snapshot_bytes", "bytes"),
    ("inc.ingest_facts", "count"),
    ("inc.ingest_useful_ratio", "ratio"),
    ("serve.add_us", "us"),
    ("serve.query_us", "us"),
    ("serve.push_us", "us"),
    ("serve.pop_us", "us"),
    ("serve.server_p50_us", "us"),
    ("serve.server_p99_us", "us"),
    ("serve.gap_us", "us"),
    ("serve.connect_ms", "ms"),
];

/// `trace.overhead_ratio`, the last per-layer metric.
const OVERHEAD: (&str, &str) = ("trace.overhead_ratio", "ratio");

/// Timed passes per run at least, whatever `--seconds` says; a traced run
/// needs two traced and two untraced passes.
const MIN_PASSES: usize = 3;
const MIN_TRACED_PASSES: usize = 4;
/// One set-up slot repeats the set-up at least this often, and until this
/// much time has passed.
const MIN_SETUPS: usize = 3;
const SETUP_SLOT_SECONDS: f64 = 0.02;

/// One workload run: its settings, what it measured, and its verdicts.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Divides every input size: 1 for the benchmark, more in tests.
    pub scale: usize,
    /// Whether a pass's operations overlap in time (the served workloads'
    /// concurrent clients) rather than run one after another.
    pub ops_overlap: bool,
    /// Answers checked, and how many of them were wrong or missing.
    pub attempted: u64,
    pub failed: u64,
    setup_s: Vec<f64>,
    passes: Vec<Pass>,
    /// Latency of each operation of the pass under way: a program check
    /// or a request, in ms, in the same order on every pass.
    pub ops_ms: Vec<f64>,
    /// Connect → first answer of each served connection, in ms.
    pub connect_ms: Vec<f64>,
    peak_rss_mb: f64,
    /// Per-layer values a workload computes itself.
    pub extra: Vec<(&'static str, f64)>,
}

/// One timed pass over the workload's fixed input.
struct Pass {
    seconds: f64,
    traced: bool,
    ops_ms: Vec<f64>,
}

impl Run {
    fn new(seed: u64, seconds: f64, traced: bool, scale: usize) -> Run {
        Run {
            seed,
            seconds,
            traced,
            scale,
            ops_overlap: false,
            attempted: 0,
            failed: 0,
            setup_s: Vec::new(),
            passes: Vec::new(),
            ops_ms: Vec::new(),
            connect_ms: Vec::new(),
            peak_rss_mb: 0.0,
            extra: Vec::new(),
        }
    }

    /// Counts one checked answer.
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.tally(1, 1, &what());
        } else {
            self.attempted += 1;
        }
    }

    /// Counts `attempted` checked answers of which `failed` were wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("benchmark: {failed} wrong: {what}");
        }
    }

    /// Runs the set-up `f` at least `MIN_SETUPS` times and for at least
    /// `SETUP_SLOT_SECONDS`, timing each call for `setup_s`; returns the
    /// last result. A cheap set-up is also re-timed between passes, so
    /// its samples span the run as the passes do. `setup_s` is the
    /// fastest call: a set-up is the same single-client computation every
    /// time, which the host can only slow down, and the median of a cheap
    /// one moved by two-thirds between runs, with the share of its calls
    /// that fell into the host's slow spells.
    pub fn setup<T>(&mut self, mut f: impl FnMut() -> T) -> T {
        let begin = Instant::now();
        let mut last = None;
        for i in 0.. {
            if i >= MIN_SETUPS && begin.elapsed().as_secs_f64() >= SETUP_SLOT_SECONDS {
                break;
            }
            // Drop the previous result first, outside the timing, so two
            // set-ups never hold memory at once.
            drop(last.take());
            let t = Instant::now();
            last = Some(f());
            self.setup_s.push(t.elapsed().as_secs_f64());
        }
        last.expect("set-up ran")
    }

    /// Runs one untimed warm-up pass, then timed passes for `seconds`,
    /// calling `between` after each timed pass, outside its timing. A
    /// traced run alternates untraced and traced passes, so the two can
    /// be compared.
    pub fn measure(&mut self, mut pass: impl FnMut(&mut Run), mut between: impl FnMut(&mut Run)) {
        // Peak memory is that of the warm-up and the first timed pass,
        // which is never traced: forget the set-up's.
        reset_peak_rss();
        trace::set_enabled(false);
        pass(self);
        self.ops_ms.clear();
        self.connect_ms.clear();
        let begin = Instant::now();
        let min = if self.traced {
            MIN_TRACED_PASSES
        } else {
            MIN_PASSES
        };
        // A single-threaded pass runs on one CPU at a time, and on a shared
        // host each CPU is slowed down by its own neighbours, for seconds
        // at a time. Successive passes of each kind take turns on the
        // CPUs, so each operation's fastest time comes from every CPU.
        let cpus = (!self.ops_overlap).then(affinity::get).flatten();
        while self.passes.len() < min || begin.elapsed().as_secs_f64() < self.seconds {
            let traced = self.traced && self.passes.len() % 2 == 1;
            if let Some(cpus) = &cpus {
                let turn = self.passes.iter().filter(|p| p.traced == traced).count();
                affinity::set(&affinity::only(cpus, turn));
            }
            trace::set_enabled(traced);
            let t = Instant::now();
            pass(self);
            self.passes.push(Pass {
                seconds: t.elapsed().as_secs_f64(),
                traced,
                ops_ms: std::mem::take(&mut self.ops_ms),
            });
            if self.passes.len() == 1 {
                self.peak_rss_mb = peak_rss_mb();
            }
            between(self);
        }
        if let Some(cpus) = &cpus {
            affinity::set(cpus);
        }
        trace::set_enabled(self.traced);
    }

    /// The median time of the traced or the untraced passes.
    fn median_pass_s(&self, traced: bool) -> f64 {
        let times = self
            .passes
            .iter()
            .filter(|p| p.traced == traced)
            .map(|p| p.seconds)
            .collect();
        quantile(times, 0.5)
    }

    /// Every operation latency of the untraced passes, in ms.
    fn untraced_ops_ms(&self) -> Vec<f64> {
        let untraced = self.passes.iter().filter(|p| !p.traced);
        untraced.flat_map(|p| p.ops_ms.iter().copied()).collect()
    }

    /// Each operation's fastest latency over the untraced passes, in ms.
    fn fastest_ops_ms(&self) -> Vec<f64> {
        let mut untraced = self.passes.iter().filter(|p| !p.traced);
        let mut fastest = untraced.next().map_or_else(Vec::new, |p| p.ops_ms.clone());
        for p in untraced {
            for (f, &ms) in fastest.iter_mut().zip(&p.ops_ms) {
                *f = f.min(ms);
            }
        }
        fastest
    }

    /// `pass_s` and `op_p50_ms`. When a pass runs its operations one after
    /// another, each operation counts at its fastest over the passes: a
    /// program check is the same computation on every pass, and the host
    /// only ever slows it down. `pass_s` is then the sum of those times,
    /// a pass free of the host's slow spells. Overlapping requests wait on
    /// each other and on the scheduler, which is part of what they
    /// measure, so their pass time and latency are medians.
    fn pass_and_op_p50(&self) -> (f64, f64) {
        if self.ops_overlap {
            let ops = self.untraced_ops_ms();
            (self.median_pass_s(false), quantile(ops, 0.5))
        } else {
            let fastest = self.fastest_ops_ms();
            (fastest.iter().sum::<f64>() / 1e3, quantile(fastest, 0.5))
        }
    }
}

/// Makes the next `peak_rss_mb` reading the peak from now on, starting
/// from the memory in use. The allocator keeps freed memory in per-thread
/// arenas, so the set-up's garbage is handed back to the kernel first.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` only releases free pages of the
        // allocator's own arenas, under their locks; it may be called at
        // any time from any thread, and its argument is a byte count.
        unsafe {
            malloc_trim(0);
        }
    }
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The calling thread's CPU affinity, through the C library's
/// `sched_getaffinity` and `sched_setaffinity`. Elsewhere than on Linux,
/// `get` gives `None` and passes run wherever the scheduler puts them.
mod affinity {
    /// A `cpu_set_t`: one bit per CPU, for up to 1024 CPUs.
    pub type Mask = [u64; 16];

    #[cfg(target_os = "linux")]
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on, if there are several.
    pub fn get() -> Option<Mask> {
        #[cfg(target_os = "linux")]
        {
            let mut mask: Mask = [0; 16];
            // SAFETY: the call writes at most `size` bytes into `mask`,
            // which is that large; pid 0 is the calling thread.
            let ok =
                unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
            let cpus: u32 = mask.iter().map(|w| w.count_ones()).sum();
            (ok == 0 && cpus > 1).then_some(mask)
        }
        #[cfg(not(target_os = "linux"))]
        None
    }

    /// Restricts the calling thread to `mask`'s CPUs. On failure it keeps
    /// running where it may, which only makes the timings noisier.
    pub fn set(mask: &Mask) {
        #[cfg(target_os = "linux")]
        // SAFETY: the call reads `size` bytes of `mask`, which is that
        // large; pid 0 is the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr());
        }
        #[cfg(not(target_os = "linux"))]
        let _ = mask;
    }

    /// The `turn`-th CPU of `mask` alone, counting round.
    pub fn only(mask: &Mask, turn: usize) -> Mask {
        let bit = |c: usize| mask[c / 64] >> (c % 64) & 1 == 1;
        let cpus: Vec<usize> = (0..64 * mask.len()).filter(|&c| bit(c)).collect();
        let cpu = cpus[turn % cpus.len()];
        let mut one: Mask = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        one
    }
}

/// The `q`-quantile: the value with `⌊q·n⌋` of the `n` values below it,
/// so the upper median for `q` = 0.5 and an even count; 0 for an empty
/// sample. On `table1`'s four programs the median is then a large
/// program, whose fastest check the host's slow spells move far less
/// than that of a small one.
pub fn quantile(mut xs: Vec<f64>, q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).floor() as usize;
    xs[rank.min(xs.len() - 1)]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `workload` and returns its metrics with units, in catalogue order.
fn execute(
    workload: &str,
    run: &mut Run,
) -> (Vec<(&'static str, &'static str, f64)>, trace::Trace) {
    trace::start();
    trace::set_enabled(run.traced);
    match workload {
        "table1" | "units" | "parametric" => pipeline::run(run, workload),
        _ => served::run(run, workload),
    }
    trace::set_enabled(false);
    let t = trace::take();
    let values: BTreeMap<&str, f64> = if run.traced {
        per_layer(run, &t)
    } else {
        let (pass_s, op_p50_ms) = run.pass_and_op_p50();
        BTreeMap::from([
            ("setup_s", quantile(run.setup_s.clone(), 0.0)),
            ("pass_s", pass_s),
            ("op_p50_ms", op_p50_ms),
        ])
    };
    let catalogue: Vec<(&str, &str)> = if run.traced {
        PER_LAYER.iter().copied().chain([OVERHEAD]).collect()
    } else {
        END_TO_END.to_vec()
    };
    let metrics = catalogue
        .into_iter()
        .map(|(name, unit)| (name, unit, values[name]))
        .collect();
    (metrics, t)
}

/// The per-layer metrics from a traced run. Pipeline stages are per
/// pass over the workload's programs (for the serve workloads, the
/// oracle's check of their programs); request costs are medians.
fn per_layer(run: &Run, t: &trace::Trace) -> BTreeMap<&'static str, f64> {
    let passes = t.sum("pipeline.passes").max(1) as f64;
    let per_pass = |name: &str| t.total_ms(name) / passes;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let bidi_ms = per_pass("pdmc.encode") + per_pass("core.solve") + per_pass("core.query");
    let facts = t.sum("core.solve_facts") as f64;
    let mut m = BTreeMap::from([
        ("op.p99_ms", quantile(run.untraced_ops_ms(), 0.99)),
        ("peak_rss_mb", run.peak_rss_mb),
        ("cfgir.parse_ms", per_pass("cfgir.parse")),
        (
            "cfgir.parse_mb_per_s",
            ratio(
                t.sum("cfgir.parse_bytes") as f64 / 1e6,
                t.total_ms("cfgir.parse") / 1e3,
            ),
        ),
        ("cfgir.cfg_ms", per_pass("cfgir.cfg")),
        ("cfgir.cfg_nodes", t.sum("cfgir.cfg_nodes") as f64 / passes),
        ("automata.spec_ms", t.p50_us("automata.spec") / 1e3),
        ("automata.min_states", t.sum("automata.min_states") as f64),
        ("pdmc.encode_ms", per_pass("pdmc.encode")),
        ("core.solve_ms", per_pass("core.solve")),
        ("core.solve_facts", facts / passes),
        (
            "core.solve_entries",
            t.sum("core.solve_entries") as f64 / passes,
        ),
        (
            "core.solve_useful_ratio",
            ratio(t.sum("core.solve_entries") as f64, facts),
        ),
        (
            "core.annotations",
            t.sum("core.annotations") as f64 / passes,
        ),
        ("core.query_ms", per_pass("core.query")),
        ("core.violations", t.sum("core.violations") as f64 / passes),
        ("pdmc.witness_ms", per_pass("pdmc.witness")),
        ("core.forward_ms", t.total_ms("core.forward")),
        ("pushdown.post_star_ms", t.total_ms("pushdown.post_star")),
        (
            "pushdown.bidi_over_pds",
            ratio(bidi_ms, t.total_ms("pushdown.post_star")),
        ),
        ("inc.add_us", t.p50_us("inc.add")),
        ("inc.query_us", t.p50_us("inc.query")),
        ("inc.push_us", t.p50_us("inc.push")),
        ("inc.pop_us", t.p50_us("inc.pop")),
        ("inc.decode_ms", t.p50_us("inc.decode") / 1e3),
        ("inc.fork_us", t.p50_us("inc.fork")),
        ("inc.snapshot_bytes", largest(t, "inc.snapshot_bytes")),
        ("inc.ingest_facts", largest(t, "inc.ingest_facts")),
        (
            "inc.ingest_useful_ratio",
            ratio(
                t.sum("inc.ingest_entries") as f64,
                t.sum("inc.ingest_facts") as f64,
            ),
        ),
        ("serve.add_us", t.p50_us("serve.add")),
        ("serve.query_us", t.p50_us("serve.query")),
        ("serve.push_us", t.p50_us("serve.push")),
        ("serve.pop_us", t.p50_us("serve.pop")),
        ("serve.connect_ms", quantile(run.connect_ms.clone(), 0.5)),
        (
            OVERHEAD.0,
            ratio(run.median_pass_s(true), run.median_pass_s(false)),
        ),
    ]);
    m.extend(run.extra.iter().copied());
    m
}

/// The largest count recorded as `name` (one per ingest or checkpoint;
/// the largest is the workload's main server).
fn largest(t: &trace::Trace, name: &str) -> f64 {
    t.counts(name).into_iter().max().unwrap_or(0) as f64
}

/// A metric line and its value as the result object holds it.
fn metric_json(workload: &str, name: &str, unit: &str, value: f64) -> (String, Json) {
    let line = obj([
        ("workload", Json::from(workload)),
        ("metric", Json::from(name)),
        ("value", Json::Num(value)),
        ("unit", Json::from(unit)),
    ]);
    let entry = obj([("value", Json::Num(value)), ("unit", Json::from(unit))]);
    (line.render(), entry)
}

fn result_line(attempted: u64, failed: u64, metrics: Vec<(String, Json)>) -> String {
    obj([
        ("correct", Json::from(failed == 0 && attempted > 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The metrics of a result object: (name, unit, value).
fn metrics_of(result: &Json) -> Vec<(String, String, f64)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Vec::new();
    };
    metrics
        .iter()
        .filter_map(|(name, m)| {
            let unit = m.get("unit").and_then(Json::as_str)?;
            let Some(Json::Num(v)) = m.get("value") else {
                return None;
            };
            Some((name.clone(), unit.to_owned(), *v))
        })
        .collect()
}

fn count(result: &Json, key: &str) -> u64 {
    result.get(key).and_then(Json::as_u64).unwrap_or(0)
}

/// Runs one workload in this process and prints its metrics, after a
/// line with the host's core count.
fn run_one(args: &Args) -> ExitCode {
    let mut run = Run::new(args.seed, args.seconds, args.traced, 1);
    let (metrics, t) = execute(&args.workload, &mut run);
    if args.traced {
        for (name, (calls, total, own)) in t.self_times() {
            eprintln!("{name:<20} {calls:>8} calls {total:>12.3} ms {own:>12.3} ms self");
        }
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, t.chrome_json()).expect("write the trace file");
    }
    let info = obj([
        ("workload", Json::from(args.workload.as_str())),
        ("seed", Json::from(args.seed)),
        ("host_cores", Json::from(host_cores())),
        ("passes", Json::from(run.passes.len())),
    ]);
    println!("{}", info.render());
    let mut entries = Vec::new();
    for (name, unit, value) in metrics {
        let (line, entry) = metric_json(&args.workload, name, unit, value);
        println!("{line}");
        entries.push((name.to_owned(), entry));
    }
    println!("{}", result_line(run.attempted, run.failed, entries));
    if run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` with `seed` in a child process; returns the child's
/// output lines before its result object, and the result if the child
/// succeeded.
fn child(args: &Args, workload: &str, seed: u64) -> (Vec<String>, Option<Json>) {
    let exe = std::env::current_exe().expect("own executable path");
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .output()
        .expect("run a child benchmark");
    let text = String::from_utf8_lossy(&out.stdout).into_owned();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let result = lines.pop().and_then(|l| Json::parse(&l).ok());
    (lines, result.filter(|_| out.status.success()))
}

/// `--workload all` and `--repeat N`: one child per workload and seed.
/// With `--repeat`, prints each metric's median, its (max − min) / median,
/// and its interquartile range / median over the N seeds.
fn run_children(args: &Args) -> ExitCode {
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        w => vec![w],
    };
    let (mut attempted, mut failed, mut ok) = (0, 0, true);
    let mut entries = Vec::new();
    for w in workloads {
        let mut values: BTreeMap<String, (String, Vec<f64>)> = BTreeMap::new();
        for i in 0..args.repeat {
            let seed = args.seed + i as u64;
            let (lines, result) = child(args, w, seed);
            if args.repeat == 1 {
                lines.iter().for_each(|l| println!("{l}"));
            }
            let Some(result) = result else {
                eprintln!("benchmark: {w} with seed {seed} failed");
                ok = false;
                continue;
            };
            attempted += count(&result, "attempted");
            failed += count(&result, "failed");
            for (name, unit, v) in metrics_of(&result) {
                values.entry(name).or_insert((unit, Vec::new())).1.push(v);
            }
        }
        for (name, (unit, vs)) in values {
            let median = quantile(vs.clone(), 0.5);
            if args.repeat > 1 {
                let spread = |d: f64| Json::Num(if median == 0.0 { 0.0 } else { d / median });
                let (lo, hi) = (quantile(vs.clone(), 0.0), quantile(vs.clone(), 1.0));
                let line = obj([
                    ("workload", Json::from(w)),
                    ("metric", Json::from(name.as_str())),
                    ("runs", Json::from(vs.len())),
                    ("median", Json::Num(median)),
                    ("range_over_median", spread(hi - lo)),
                    ("iqr_over_median", spread(quartiles(&vs))),
                    ("unit", Json::from(unit.as_str())),
                ]);
                println!("{}", line.render());
            }
            entries.push((
                format!("{w}.{name}"),
                metric_json(w, &name, &unit, median).1,
            ));
        }
    }
    println!("{}", result_line(attempted, failed, entries));
    if ok && failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Q3 − Q1 with the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`.
fn quartiles(values: &[f64]) -> f64 {
    let mut xs = values.to_vec();
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let at = |p: f64| {
        let pos = p * (n + 1) as f64;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        xs[j - 1] + (xs[j] - xs[j - 1]) * (pos - j as f64)
    };
    at(0.75) - at(0.25)
}

#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    trace_out: Option<String>,
    repeat: usize,
}

const USAGE: &str = "usage: benchmark --workload <table1|units|parametric|serve-ingest|serve-query|serve-whatif|all> \
--seed <n> [--seconds <s>] [--trace 0|1] [--trace-out FILE] [--repeat N]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 12.0,
        traced: false,
        trace_out: None,
        repeat: 1,
    };
    let mut seed = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--trace-out" => args.trace_out = Some(value()?.clone()),
            "--repeat" => {
                args.repeat = value()?.parse().map_err(|_| "--repeat takes an integer")?
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.seed = seed.ok_or("--seed is required")?;
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if args.repeat == 0 || !args.seconds.is_finite() || args.seconds < 0.0 {
        return Err("--repeat must be positive and --seconds non-negative".to_owned());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" || args.repeat > 1 {
        run_children(&args)
    } else {
        run_one(&args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Input sizes are divided by this in tests.
    const SMOKE_SCALE: usize = 20;

    #[test]
    fn every_workload_prints_every_metric_and_a_valid_trace() {
        for traced in [false, true] {
            for workload in WORKLOADS {
                let mut run = Run::new(11, 0.0, traced, SMOKE_SCALE);
                let (metrics, t) = execute(workload, &mut run);
                assert_eq!(run.failed, 0, "{workload}: wrong answers");
                assert!(run.attempted > 0, "{workload}: nothing checked");
                let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
                let expected: Vec<&str> = if traced {
                    PER_LAYER.iter().chain([&OVERHEAD]).map(|m| m.0).collect()
                } else {
                    END_TO_END.iter().map(|m| m.0).collect()
                };
                assert_eq!(names, expected, "{workload}");
                for (name, _, value) in &metrics {
                    assert!(value.is_finite(), "{workload}: {name} = {value}");
                }
                if traced {
                    let summary = rasc_devtools::validate_chrome_trace(&t.chrome_json())
                        .unwrap_or_else(|e| panic!("{workload}: {e}"));
                    assert!(summary.begins > 0, "{workload}: no spans");
                }
            }
        }
    }

    #[test]
    fn quartile_spread_matches_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartiles(&xs) - 5.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_takes_the_upper_median() {
        assert_eq!(quantile(vec![4.0, 1.0, 3.0, 2.0], 0.5), 3.0);
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 0.0), 1.0);
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 1.0), 3.0);
        assert_eq!(quantile(Vec::new(), 0.5), 0.0);
    }

    #[test]
    fn arguments_are_checked() {
        let argv = |s: &str| s.split_whitespace().map(str::to_owned).collect::<Vec<_>>();
        let a =
            parse_args(&argv("--workload units --seed 3 --seconds 2 --trace 1")).expect("valid");
        assert_eq!((a.seed, a.seconds, a.traced), (3, 2.0, true));
        for bad in [
            "--workload units",
            "--workload nope --seed 1",
            "--seed 1 --workload units --trace 2",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }
}
