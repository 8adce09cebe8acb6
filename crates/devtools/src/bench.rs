//! The guard benches' one timing loop and one report schema, replacing
//! `criterion` for the offline bench binaries.
//!
//! A guard bench times a few *arms* (fork and restore, scratch and
//! incremental, the rungs of a ladder) and bounds a ratio between two of
//! them. [`Report::interleave`] runs every arm once per round, in an
//! order that rotates from round to round, so a host whose speed drifts
//! during the run moves every arm of a round alike instead of one arm
//! alone. A guard is the median over the rounds of a ratio between two
//! arms of the same round, reported with its quartiles.
//!
//! Every `BENCH_*.json` a [`Report`] writes has the same top-level keys:
//! `bench`, `cores`, `rounds`, `reps`, `inputs` (the bin's fixed inputs),
//! `rows` (the bin's table) and `guards`, each guard with its `expr`,
//! `median`, `q1`, `q3`, `op`, `bound` and whether it passed (`pass`).

use std::process::ExitCode;
use std::time::Instant;

use rasc_inc::json::{obj, Json};

/// One timed arm of a bench: a closure returning the operations it ran.
pub struct Arm<'a>(Box<dyn FnMut() -> u64 + 'a>);

impl<'a> Arm<'a> {
    /// An arm whose every call is one operation. The closure's value goes
    /// through [`std::hint::black_box`], so the optimizer cannot delete
    /// the measured work.
    pub fn new<T>(mut f: impl FnMut() -> T + 'a) -> Arm<'a> {
        Arm::ops(move || {
            std::hint::black_box(f());
            1
        })
    }

    /// An arm whose call returns how many operations it ran: a batch of
    /// sub-microsecond operations timed as one, the facts a solve
    /// processed, or the requests a client fleet completed.
    pub fn ops(f: impl FnMut() -> u64 + 'a) -> Arm<'a> {
        Arm(Box::new(f))
    }
}

/// The `q`-quantile of `samples`, interpolated linearly between the two
/// nearest ranks of the sorted values, so the median of an even count is
/// the mean of the middle two (NaN when there are none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = sorted.len().saturating_sub(1) as f64 * q;
    match (
        sorted.get(pos.floor() as usize),
        sorted.get(pos.ceil() as usize),
    ) {
        (Some(lo), Some(hi)) => lo + (hi - lo) * pos.fract(),
        _ => f64::NAN,
    }
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Round by round, `num`'s sample over `den`'s.
pub fn ratios(num: &[f64], den: &[f64]) -> Vec<f64> {
    num.iter().zip(den).map(|(n, d)| n / d).collect()
}

/// The side of its bound a guard's median ratio must fall on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// The median ratio may be at most this.
    AtMost(f64),
    /// The median ratio must be at least this.
    AtLeast(f64),
}

/// A named field of a report's inputs or rows.
pub type Field = (&'static str, Json);

/// One guard bench's record: its fixed inputs, how its arms were timed,
/// its rows and its guards.
pub struct Report {
    bench: &'static str,
    inputs: Vec<Field>,
    rounds: usize,
    reps: usize,
    rows: Vec<Json>,
    guards: Vec<Json>,
}

impl Report {
    /// A report for `bench` with the bin's fixed inputs.
    pub fn new(bench: &'static str, inputs: impl IntoIterator<Item = Field>) -> Report {
        Report {
            bench,
            inputs: inputs.into_iter().collect(),
            rounds: 0,
            reps: 0,
            rows: Vec::new(),
            guards: Vec::new(),
        }
    }

    /// Times `arms` over `rounds` rounds. Round `r` runs arm
    /// `(r + k) % arms.len()` as its `k`-th, and an arm's sample in a
    /// round is its median nanoseconds per operation over `reps` calls.
    /// Returns `ns[arm][round]`.
    pub fn interleave(&mut self, rounds: usize, reps: usize, arms: &mut [Arm]) -> Vec<Vec<f64>> {
        (self.rounds, self.reps) = (rounds, reps);
        let n = arms.len();
        let mut ns = vec![Vec::with_capacity(rounds); n];
        for round in 0..rounds {
            for arm in (0..n).map(|k| (round + k) % n) {
                let samples: Vec<f64> = (0..reps)
                    .map(|_| {
                        let t0 = Instant::now();
                        let ops = (arms[arm].0)();
                        t0.elapsed().as_nanos() as f64 / ops.max(1) as f64
                    })
                    .collect();
                ns[arm].push(median(&samples));
            }
        }
        ns
    }

    /// Appends one row of the bin's table.
    pub fn row(&mut self, fields: impl IntoIterator<Item = Field>) {
        self.rows.push(obj(fields));
    }

    /// Guards the median of the per-round `ratios` against `bound`;
    /// `expr` names the ratio.
    pub fn guard(&mut self, expr: &str, ratios: &[f64], bound: Bound) {
        let median = median(ratios);
        let (op, bound, pass) = match bound {
            Bound::AtMost(b) => ("<=", b, median <= b),
            Bound::AtLeast(b) => (">=", b, median >= b),
        };
        self.guards.push(obj([
            ("expr", Json::from(expr)),
            ("median", Json::Num(median)),
            ("q1", Json::Num(quantile(ratios, 0.25))),
            ("q3", Json::Num(quantile(ratios, 0.75))),
            ("op", Json::from(op)),
            ("bound", Json::Num(bound)),
            ("pass", Json::from(pass)),
        ]));
    }

    /// The `BENCH_*.json` record.
    fn to_json(&self) -> Json {
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        obj([
            ("bench", Json::from(self.bench)),
            ("cores", Json::from(cores)),
            ("rounds", Json::from(self.rounds)),
            ("reps", Json::from(self.reps)),
            ("inputs", obj(self.inputs.iter().cloned())),
            ("rows", Json::Arr(self.rows.clone())),
            ("guards", Json::Arr(self.guards.clone())),
        ])
    }

    /// Prints the rows as a table and the guards' verdicts, writes the
    /// record to `out_path`, and fails when a guard fails or the record
    /// cannot be written.
    pub fn finish(self, out_path: &str) -> ExitCode {
        let json = self.to_json();
        let field = |j: &Json, k: &str| cell(j.get(k));
        let [bench, cores, rounds, reps, inputs] =
            ["bench", "cores", "rounds", "reps", "inputs"].map(|k| field(&json, k));
        println!("{bench} on {cores} cores, {rounds} rounds of {reps} calls per arm: {inputs}");
        print!("{}", table(&self.rows));
        let mut ok = true;
        for g in &self.guards {
            let [expr, median, q1, q3, op, bound, pass] =
                ["expr", "median", "q1", "q3", "op", "bound", "pass"].map(|k| field(g, k));
            println!("guard {expr}: median {median} (q1 {q1}, q3 {q3}) {op} {bound}, pass: {pass}");
            ok &= g.get("pass").and_then(Json::as_bool) == Some(true);
        }
        match std::fs::write(out_path, json.render() + "\n") {
            Ok(()) => println!("wrote {out_path}"),
            Err(e) => {
                eprintln!("cannot write {out_path}: {e}");
                ok = false;
            }
        }
        ExitCode::from(u8::from(!ok))
    }
}

/// A table cell: strings bare, whole numbers without a fraction, other
/// numbers to three decimals (one from 100 up), and nothing for no value.
fn cell(v: Option<&Json>) -> String {
    match v {
        None => String::new(),
        Some(Json::Str(s)) => s.clone(),
        Some(Json::Num(x)) if x.fract() != 0.0 && x.abs() >= 100.0 => format!("{x:.1}"),
        Some(Json::Num(x)) if x.fract() != 0.0 => format!("{x:.3}"),
        Some(other) => other.render(),
    }
}

/// The rows as right-aligned columns headed by the first row's keys.
fn table(rows: &[Json]) -> String {
    let Some(Json::Obj(first)) = rows.first() else {
        return String::new();
    };
    let keys: Vec<&String> = first.iter().map(|(k, _)| k).collect();
    let mut grid: Vec<Vec<String>> = vec![keys.iter().map(|k| k.to_string()).collect()];
    for r in rows {
        grid.push(keys.iter().map(|k| cell(r.get(k))).collect());
    }
    let widths: Vec<usize> = (0..keys.len())
        .map(|i| grid.iter().map(|r| r[i].len() + 2).max().unwrap_or(0))
        .collect();
    let mut out = String::new();
    for r in &grid {
        for (c, w) in r.iter().zip(&widths) {
            out += &format!("{c:>w$}");
        }
        out += "\n";
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn rounds_rotate_the_arm_order_and_batches_time_one_operation() {
        let calls = RefCell::new(Vec::new());
        let spin =
            || std::hint::black_box((0..20_000u64).map(std::hint::black_box).sum::<u64>() > 0);
        // Arm 2 times arm 0's work ten times over as one batch.
        let mut arms: Vec<Arm> = [1, 1, 10]
            .into_iter()
            .enumerate()
            .map(|(i, batch)| {
                let calls = &calls;
                Arm::ops(move || {
                    calls.borrow_mut().push(i);
                    (0..batch).for_each(|_| assert!(spin()));
                    batch
                })
            })
            .collect();
        let ns = Report::new("rotation", []).interleave(4, 3, &mut arms);
        drop(arms);
        // Each arm runs its `reps` calls back to back, then the next arm.
        let order = [[0, 1, 2], [1, 2, 0], [2, 0, 1], [0, 1, 2]];
        let expect: Vec<usize> = order.iter().flatten().flat_map(|&i| [i, i, i]).collect();
        assert_eq!(calls.into_inner(), expect);
        assert!(ns.iter().all(|arm| arm.len() == 4));
        let per_op = median(&ratios(&ns[2], &ns[0]));
        assert!(per_op > 0.3 && per_op < 3.0, "{per_op}");
    }

    #[test]
    fn a_guard_reports_its_ratios_median_quartiles_and_verdict() {
        assert_eq!(ratios(&[2.0, 12.0], &[1.0, 2.0]), [2.0, 6.0]);
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.0]), 7.0);
        // An even count's median is the mean of the middle two, not the upper.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0, 5.0], 0.875), 4.5);
        let mut report = Report::new("guards", [("machine", Json::from("m"))]);
        report.row([("size", Json::from(3usize)), ("ns", Json::Num(1.5))]);
        for bound in [Bound::AtMost(5.0), Bound::AtLeast(6.0), Bound::AtMost(6.0)] {
            report.guard("a / b", &[2.0, 10.0, 6.0, 4.0, 8.0], bound);
        }
        assert_eq!(table(&report.rows), "  size     ns\n     3  1.500\n");
        let json = report.to_json().render();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let guard = |op: &str, bound: u32, pass: bool| {
            format!(
                r#"{{"expr":"a / b","median":6,"q1":4,"q3":8,"op":"{op}","bound":{bound},"pass":{pass}}}"#
            )
        };
        let guards = [
            guard("<=", 5, false),
            guard(">=", 6, true),
            guard("<=", 6, true),
        ];
        let expect = format!(
            r#"{{"bench":"guards","cores":{cores},"rounds":0,"reps":0,"inputs":{{"machine":"m"}},"rows":[{{"size":3,"ns":1.5}}],"guards":[{}]}}"#,
            guards.join(",")
        );
        assert_eq!(json, expect);
    }
}
