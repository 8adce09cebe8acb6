//! Load generator for `rasc-serve`: a loopback client fleet driving the
//! JSON-lines protocol through a real TCP server, measuring throughput
//! and latency percentiles at 1, 4, and 16 concurrent clients.
//!
//! Clients are **closed-loop with think time**: each waits for its
//! response, then sleeps ~1 ms (PRNG-jittered) before the next request.
//! With per-request service time far below the think time, adding
//! clients raises throughput by overlapping their idle periods — the
//! scaling this bench guards (16 clients must deliver ≥ 3× the
//! single-client rate) measures the server's ability to interleave
//! connections, and holds even on a single-core host where CPU-bound
//! clients could never scale.
//!
//! Each rung is an arm of [`rasc_devtools::bench`]'s interleaved rounds:
//! a round runs every rung for its share of `--secs`, and the guard is
//! the median over the rounds of the 16-client rung's throughput over the
//! one-client rung's. Emits `BENCH_serve.json` and exits non-zero when
//! the guard fails.
//!
//! Usage: `serve_load [out.json] [--secs S]` (default 1.2 s per rung).

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use rasc_automata::{Alphabet, Dfa};
use rasc_devtools::bench::{median, quantile, ratios, Arm, Bound::AtLeast, Report};
use rasc_devtools::Rng;
use rasc_inc::json::Json;
use rasc_serve::{ServeConfig, Server};

/// Mean think time between a client's requests, in microseconds.
const THINK_MICROS: u64 = 1_000;
/// Rounds of the interleaved rungs; each runs a rung for `secs / ROUNDS`.
const ROUNDS: usize = 6;
/// Concurrent clients per rung.
const CLIENTS: [usize; 3] = [1, 4, 16];

/// Connects, seeds a tiny session, then issues closed-loop queries with
/// jittered think time until the deadline. Returns each query's latency
/// in microseconds.
fn run_client(addr: SocketAddr, seed: u64, duration: Duration) -> Vec<f64> {
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    let mut request = |req: &str| {
        writer.write_all(req.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
        writer.flush().expect("flush");
        line.clear();
        reader.read_line(&mut line).expect("read");
        assert!(line.contains("\"ok\""), "{req} failed: {line:?}");
    };

    // Per-connection session setup: the server gives every connection
    // its own engine, so names do not collide across clients.
    for setup in [
        r#"{"cmd":"declare","cons":"probe"}"#,
        r#"{"cmd":"add","lhs":"probe","rhs":"Src"}"#,
        r#"{"cmd":"add","lhs":"Src","rhs":"Dst","ann":["g","k"]}"#,
    ] {
        request(setup);
    }

    let mut rng = Rng::new(seed);
    let mut latencies_us = Vec::new();
    let deadline = Instant::now() + duration;
    while Instant::now() < deadline {
        let t0 = Instant::now();
        request(r#"{"cmd":"query","kind":"occurs","var":"Dst","cons":"probe"}"#);
        latencies_us.push(t0.elapsed().as_micros() as f64);
        // Think: uniform in [0.5, 1.5) × the mean, so clients desynchronize.
        let jitter = THINK_MICROS / 2 + (rng.next_u64() % THINK_MICROS);
        std::thread::sleep(Duration::from_micros(jitter));
    }
    latencies_us
}

/// Runs one rung of `clients` concurrent closed-loop clients, returning
/// every query's latency in microseconds.
fn run_rung(addr: SocketAddr, clients: usize, duration: Duration) -> Vec<f64> {
    let handles: Vec<_> = (0..clients)
        .map(|i| std::thread::spawn(move || run_client(addr, 0x5eed + i as u64, duration)))
        .collect();
    handles
        .into_iter()
        .flat_map(|h| h.join().expect("client thread"))
        .collect()
}

fn main() -> ExitCode {
    let mut out_path = "BENCH_serve.json".to_owned();
    let mut secs = 1.2f64;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--secs" {
            secs = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--secs expects a number");
        } else {
            out_path = a;
        }
    }
    let window = Duration::from_secs_f64(secs / ROUNDS as f64);

    let mut sigma = Alphabet::new();
    let (g, k) = (sigma.intern("g"), sigma.intern("k"));
    let machine = Dfa::one_bit(&sigma, g, k);
    let config = ServeConfig {
        threads: 16,
        max_connections: 64,
        ..ServeConfig::default()
    };
    let server = Server::bind("127.0.0.1:0", sigma, &machine, config).expect("bind");
    let addr = server.local_addr();
    let (handle, join) = server.spawn();

    // Warmup rung (discarded): populates code paths and the listener.
    run_rung(addr, 2, Duration::from_millis(200));

    // Each rung's latencies over every round; a sample is the rung's
    // wall time per completed query.
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); CLIENTS.len()];
    let mut arms: Vec<Arm> = CLIENTS
        .iter()
        .zip(&mut latencies)
        .map(|(&clients, lat)| {
            Arm::ops(move || {
                let run = run_rung(addr, clients, window);
                let requests = run.len() as u64;
                lat.extend(run);
                requests
            })
        })
        .collect();
    let mut report = Report::new(
        "serve_load",
        [
            ("threads", Json::from(16usize)),
            ("max_connections", Json::from(64usize)),
            ("think_micros", Json::from(THINK_MICROS)),
            ("secs_per_rung", Json::Num(secs)),
        ],
    );
    let ns_per_request = report.interleave(ROUNDS, 1, &mut arms);
    drop(arms);

    handle.begin_shutdown();
    handle.shutdown();
    let served = join.join().expect("server thread").expect("server io");
    println!(
        "server saw {} connections, {} requests, {} rejected",
        served.connections, served.requests, served.rejected
    );

    for ((clients, lat), ns) in CLIENTS.iter().zip(&latencies).zip(&ns_per_request) {
        report.row([
            ("clients", Json::from(*clients)),
            ("requests", Json::from(lat.len())),
            ("throughput_rps", Json::Num(1e9 / median(ns))),
            ("p50_micros", Json::Num(quantile(lat, 0.50))),
            ("p99_micros", Json::Num(quantile(lat, 0.99))),
        ]);
    }
    let speedup = ratios(&ns_per_request[0], &ns_per_request[2]);
    report.guard("rps 16 clients / 1 client", &speedup, AtLeast(3.0));
    report.finish(&out_path)
}
