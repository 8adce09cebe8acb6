//! Size-independence guard for per-request accounting. The bookkeeping a
//! served request does around its own work — `begin_request`,
//! `request_stats` and a transactional `add` of a fresh edge — must cost
//! about the same on a 1k-variable engine as on a fork of a 16k-variable
//! base. Both engines set a step limit with the protocol's `limits`
//! command, as a capped server does, so every `add` takes the
//! transactional epoch path.
//!
//! `pop` is left out: pruning rolled-away names still scans the name map.

use std::time::{Duration, Instant};

use rasc::automata::{Alphabet, Regex};
use rasc::inc::{BatchEngine, EngineBase};

const SMALL_VARS: usize = 1_000;
const LARGE_VARS: usize = 16_384;
const BATCH: usize = 256;
const BATCHES: usize = 5;

fn sigma() -> Alphabet {
    Alphabet::from_names(["g", "k"])
}

/// An engine holding a `pc`-headed chain over `n` variables, so every
/// variable has an edge and a lower bound for an O(vars) walk to count.
fn chain(n: usize) -> BatchEngine {
    let sigma = sigma();
    let dfa = Regex::parse("g (k g)*", &sigma).unwrap().compile(&sigma);
    let mut e = BatchEngine::new(sigma, &dfa);
    let mut lines = vec![
        r#"{"cmd":"declare","cons":"pc"}"#.to_owned(),
        r#"{"cmd":"add","lhs":"pc","rhs":"V0","ann":["g"]}"#.to_owned(),
    ];
    lines.extend((1..n).map(|i| {
        format!(
            r#"{{"cmd":"add","lhs":"V{}","rhs":"V{i}","ann":["k"]}}"#,
            i - 1
        )
    }));
    for line in &lines {
        let r = e.handle_line(line).expect("answered");
        assert!(r.contains(r#""ok""#), "{line} -> {r}");
    }
    e
}

/// One request's worth of accounting plus work per line, the way the
/// serve layer wraps each request line.
fn run_batch(e: &mut BatchEngine, lines: &[String]) -> Duration {
    let started = Instant::now();
    for (id, line) in lines.iter().enumerate() {
        e.begin_request(Some(id as u64));
        let r = e.handle_line(line).expect("answered");
        std::hint::black_box(e.request_stats());
        assert!(r.contains(r#""ok":"add""#), "{line} -> {r}");
    }
    started.elapsed()
}

/// `BATCH` adds of edges between fresh variables, so no add propagates
/// into the existing solved form.
fn fresh_edges(batch: usize) -> Vec<String> {
    (0..BATCH)
        .map(|i| format!(r#"{{"cmd":"add","lhs":"A{batch}_{i}","rhs":"B{batch}_{i}"}}"#))
        .collect()
}

#[test]
fn request_accounting_cost_does_not_grow_with_the_engine() {
    let mut small = chain(SMALL_VARS);
    let base = chain(LARGE_VARS).snapshot_bytes().expect("snapshot");
    let base = EngineBase::decode(&base, &sigma()).expect("base decodes");
    let mut large = BatchEngine::fork_from(&base);
    assert!(large.session().num_vars() >= LARGE_VARS);
    for e in [&mut small, &mut large] {
        let r = e
            .handle_line(r#"{"cmd":"limits","max_steps":1000000000}"#)
            .expect("answered");
        assert!(r.contains(r#""transactional":true"#), "{r}");
    }
    // Warm-up: the fork's first fresh name copies the shared name map.
    run_batch(&mut small, &fresh_edges(0));
    run_batch(&mut large, &fresh_edges(0));

    // Interleaved, so both sides see the same host noise; fastest of each.
    let (mut best_small, mut best_large) = (Duration::MAX, Duration::MAX);
    for b in 1..=BATCHES {
        let lines = fresh_edges(b);
        best_small = best_small.min(run_batch(&mut small, &lines));
        best_large = best_large.min(run_batch(&mut large, &lines));
    }
    let ratio = best_large.as_secs_f64() / best_small.as_secs_f64();
    assert!(
        ratio <= 3.0,
        "{BATCH} requests cost {best_large:?} on a fork of {LARGE_VARS} variables \
         against {best_small:?} on {SMALL_VARS} ({ratio:.1}×, bound 3×)"
    );
}
