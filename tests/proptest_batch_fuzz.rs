//! Hostile-input fuzzing of the batch protocol: 10k adversarial lines —
//! garbage bytes, punctuation soup, deep nesting, truncated and
//! type-mangled commands — must each produce exactly one well-formed JSON
//! response (or none, for blank/comment lines), never a panic, and never
//! kill the stream: the engine must still answer a valid command at the
//! end.
//!
//! Plus a property pin on per-request accounting: the deltas
//! [`RequestStats::delta_since`] reports must stay saturating across
//! epoch rollback — a `pop` can move the engine's cumulative counters
//! *backwards* past a request boundary, and the delta must then clamp to
//! zero rather than underflow. At every boundary the O(1) counters
//! [`BatchEngine::request_stats`] reads must also equal the full
//! `System::stats` walk, on a fresh engine and on a fork of a decoded
//! base.

use rasc::automata::{Alphabet, Regex};
use rasc::inc::json::Json;
use rasc::inc::{BatchEngine, EngineBase, RequestStats};
use rasc_devtools::hostile::hostile_line;
use rasc_devtools::{forall, prop_assert, prop_assert_eq, Config, Rng};

const N_LINES: usize = 10_000;

fn sigma() -> Alphabet {
    Alphabet::from_names(["g", "k"])
}

fn engine() -> BatchEngine {
    let sigma = sigma();
    let dfa = Regex::parse("g (k g)*", &sigma).unwrap().compile(&sigma);
    BatchEngine::new(sigma, &dfa)
}

#[test]
fn ten_thousand_hostile_lines_never_kill_the_stream() {
    let mut engine = engine();
    let mut rng = Rng::new(0xFEED_FACE);
    let mut responses = 0usize;
    for i in 0..N_LINES {
        // Mix in blanks and comments, which must produce no response.
        let line = match i % 97 {
            0 => "   ".to_owned(),
            1 => "# comment".to_owned(),
            _ => hostile_line(&mut rng),
        };
        let expected_silent = rasc_devtools::hostile::is_silent(&line);
        match engine.handle_line(&line) {
            None => assert!(expected_silent, "line {i} swallowed: {line:?}"),
            Some(resp) => {
                assert!(!expected_silent, "line {i} answered a comment: {line:?}");
                let parsed = Json::parse(&resp);
                assert!(
                    parsed.is_ok(),
                    "line {i}: response is not well-formed JSON: {resp:?} (input {line:?})"
                );
                responses += 1;
            }
        }
    }
    assert!(responses > N_LINES / 2, "only {responses} responses");

    // The stream survived: a valid command still gets an `ok` answer.
    let resp = engine
        .handle_line(r#"{"cmd":"stats"}"#)
        .expect("stats answered");
    let json = Json::parse(&resp).expect("well-formed");
    assert!(json.get("ok").is_some(), "engine wedged after fuzz: {resp}");
}

/// One step of a random protocol script for the delta-accounting pin.
#[derive(Debug, Clone)]
enum Step {
    /// Add an annotated edge between two of a small pool of variables.
    Add(usize, usize),
    /// Bound every later `add` to this many worklist steps, so adds spend
    /// fuel, run transactionally, and roll back when the bound is tight.
    Limit(usize),
    /// Open a rollback epoch.
    Push,
    /// Pop (and roll back) the innermost epoch, if any is open.
    Pop,
    /// End the current request and start a new one.
    Boundary,
}

fn arb_step(rng: &mut Rng) -> Step {
    match rng.gen_range(0..11) {
        0..=4 => Step::Add(rng.gen_range(0..4), rng.gen_range(0..4)),
        5 | 6 => Step::Push,
        7 | 8 => Step::Pop,
        9 => Step::Limit(rng.gen_range(1..32)),
        _ => Step::Boundary,
    }
}

/// `delta_since` must behave like per-field saturating subtraction with
/// an `epoch_depth` passthrough — in particular it must never underflow
/// when a rollback moved a cumulative counter backwards past the request
/// boundary.
fn check_delta(before: &RequestStats, after: &RequestStats) -> Result<(), String> {
    let d = after.delta_since(before);
    for (name, base, now, got) in [
        (
            "fuel_spent",
            before.fuel_spent,
            after.fuel_spent,
            d.fuel_spent,
        ),
        (
            "facts_processed",
            before.facts_processed,
            after.facts_processed,
            d.facts_processed,
        ),
    ] {
        prop_assert!(
            got <= now,
            "{name}: delta {got} exceeds the request-end counter {now}"
        );
        if now >= base {
            prop_assert_eq!(
                got,
                now - base,
                "{name}: forward progress must report the exact difference"
            );
        } else {
            prop_assert_eq!(
                got,
                0u64,
                "{name}: a rollback past the request boundary must clamp to zero"
            );
        }
    }
    prop_assert_eq!(
        d.epoch_depth,
        after.epoch_depth,
        "epoch_depth is a point-in-time passthrough, not a difference"
    );
    Ok(())
}

/// The O(1) counters `request_stats` reads must agree with the O(vars)
/// `System::stats` walk that the `stats` command reports.
fn check_counters(e: &BatchEngine) -> Result<(), String> {
    let fast = e.request_stats();
    let full = e.session().stats();
    prop_assert_eq!(fast.fuel_spent, full.fuel_spent as u64, "fuel_spent");
    prop_assert_eq!(
        fast.facts_processed,
        full.facts_processed as u64,
        "facts_processed"
    );
    prop_assert_eq!(fast.epoch_depth, e.session().epoch_depth(), "epoch_depth");
    Ok(())
}

/// Snapshot bytes of an engine that has solved a chain over the script's
/// variables under a step limit, so a fork of it starts with nonzero
/// `facts_processed` and `fuel_spent`.
fn base_image() -> Vec<u8> {
    let mut e = engine();
    for line in [
        r#"{"cmd":"declare","cons":"pc"}"#,
        r#"{"cmd":"limits","max_steps":1000}"#,
        r#"{"cmd":"add","lhs":"pc","rhs":"V0","ann":["g"]}"#,
        r#"{"cmd":"add","lhs":"V0","rhs":"V1","ann":["k"]}"#,
        r#"{"cmd":"add","lhs":"V1","rhs":"V2","ann":["g"]}"#,
    ] {
        let r = e.handle_line(line).expect("answered");
        assert!(r.contains(r#""ok""#), "{line} -> {r}");
    }
    let full = e.session().stats();
    assert!(full.fuel_spent > 0 && full.facts_processed > 0);
    e.snapshot_bytes().expect("snapshot")
}

/// Runs `script` on `e` (which has `pc` declared), checking the counters
/// and the deltas at every request boundary and at the end.
fn run_script(e: &mut BatchEngine, script: &[Step]) -> Result<(), String> {
    e.begin_request(None);
    let mut before = e.request_stats();
    for step in script {
        match step {
            Step::Add(i, j) => {
                // Growing chains keep the solver working; responses may
                // be ok, a typed clash, or a rolled-back budget error.
                let line = if i == j {
                    format!(r#"{{"cmd":"add","lhs":"pc","rhs":"V{i}","ann":["g"]}}"#)
                } else {
                    format!(r#"{{"cmd":"add","lhs":"V{i}","rhs":"V{j}","ann":["g"]}}"#)
                };
                e.handle_line(&line).expect("add answered");
            }
            Step::Limit(n) => {
                let line = format!(r#"{{"cmd":"limits","max_steps":{n}}}"#);
                e.handle_line(&line).expect("limits answered");
            }
            Step::Push => {
                e.handle_line(r#"{"cmd":"push"}"#).expect("push answered");
            }
            Step::Pop => {
                e.handle_line(r#"{"cmd":"pop"}"#).expect("pop answered");
            }
            Step::Boundary => {
                check_counters(e)?;
                let after = e.request_stats();
                check_delta(&before, &after)?;
                e.begin_request(None);
                before = e.request_stats();
            }
        }
    }
    check_counters(e)?;
    let after = e.request_stats();
    check_delta(&before, &after)
}

#[test]
fn per_request_deltas_saturate_across_epoch_rollback() {
    let base = EngineBase::decode(&base_image(), &sigma()).expect("base decodes");
    forall(
        "per_request_deltas_saturate_across_epoch_rollback",
        Config::cases(64),
        |rng| (0..rng.gen_range(4..40)).map(|_| arb_step(rng)).collect(),
        |script: &Vec<Step>| {
            let mut fresh = engine();
            assert!(fresh
                .handle_line(r#"{"cmd":"declare","cons":"pc"}"#)
                .expect("declare answered")
                .contains(r#""ok":"declare""#));
            run_script(&mut fresh, script)?;
            // Forks start from the base's counters, and a pop on a fork
            // rolls them back to those, not to zero.
            run_script(&mut BatchEngine::fork_from(&base), script)
        },
    );
}
