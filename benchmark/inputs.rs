//! The benchmark's own seeded MiniImp source-text generator.
//!
//! It writes program *text*, so every check starts where a user's does:
//! at `Program::parse`. It deliberately shares no code with
//! `rasc_bench::workload`, so the bench's inputs stay fixed when the
//! older bench bins change or go away.
//!
//! A program's control structure (functions, calls, branches, loops) comes
//! from its `shape` seed and its property events from the run's seed. A
//! workload keeps one shape per program slot, so a different `--seed`
//! changes every event — and with them the verdicts, annotations and
//! witnesses — while the program's size and call graph, which set most of
//! the analysis cost, stay put. Fully random call graphs made the cost of
//! one program swing by tens of percent from seed to seed.
//!
//! Each function body gets an exact statement budget, so a program has
//! exactly the requested number of statements as `Program::num_stmts`
//! counts them (an `if` or `while` counts one plus its blocks).

use rasc_devtools::Rng;

/// The events a generated program performs.
#[derive(Debug, Clone, Copy)]
pub enum Events<'a> {
    /// Argument-less events drawn uniformly from these names.
    Plain(&'a [&'a str]),
    /// `open(fdK)` / `close(fdK)` over this many descriptors (§6.4).
    Descriptors(usize),
}

/// The symbols of `properties::SIMPLE_PRIVILEGE` (the paper's Figure 3).
pub const PRIVILEGE_EVENTS: &[&str] = &["seteuid_zero", "seteuid_nonzero", "execl"];

/// The symbols of `properties::full_privilege_property` (Table 1).
pub const TABLE1_EVENTS: &[&str] = &[
    "seteuid_zero",
    "seteuid_user",
    "setuid_zero",
    "setuid_user",
    "setresuid_user",
    "setegid_zero",
    "setegid_user",
    "setgid_user",
    "execl",
];

/// The union alphabet of the privilege, chroot and temp-file specs.
pub const UNIT_EVENTS: &[&str] = &[
    "seteuid_zero",
    "seteuid_nonzero",
    "execl",
    "chroot",
    "chdir_root",
    "fs_op",
    "mktemp",
    "open_tainted",
    "mkstemp",
];

/// The paper's Table 1 packages: name and statement count. Each is checked
/// as one program, as the paper checks each package.
pub const TABLE1_PACKAGES: [(&str, usize); 4] = [
    ("VixieCron", 4_000),
    ("At", 6_000),
    ("Sendmail", 222_000),
    ("Apache", 229_000),
];

// Statement mix, as fractions of the statements drawn: shaped like the
// paper's C packages (calls and branches common, property events rare).
const CALL: f64 = 0.12;
const BRANCH: f64 = 0.10;
const LOOP: f64 = 0.04;
/// Event density for plain properties; descriptor events are denser so a
/// descriptor is usually open somewhere.
const PLAIN_EVENT: f64 = 0.04;
const DESCRIPTOR_EVENT: f64 = 0.10;
/// Nesting depth beyond which only straight-line statements are drawn.
const MAX_DEPTH: usize = 4;

/// A program of exactly `stmts` statements whose entry is `main`, with its
/// structure drawn from `shape` and its events from `seed`.
pub fn program(shape: u64, seed: u64, stmts: usize, events: Events<'_>) -> String {
    let mut g = Gen {
        rng: Rng::new(shape),
        events_rng: Rng::new(seed ^ shape.rotate_left(17)),
        out: String::with_capacity(stmts * 16),
        funs: (stmts / 40).clamp(1, 4000),
        events,
    };
    let (per_fun, extra) = (stmts / g.funs, stmts % g.funs);
    for f in 0..g.funs {
        if f == 0 {
            g.out.push_str("fn main() {\n");
        } else {
            g.out.push_str(&format!("fn f{f}() {{\n"));
        }
        g.block(per_fun + usize::from(f < extra), 0);
        g.out.push_str("}\n");
    }
    g.out
}

/// Statement counts drawn log-uniformly from `[lo, hi]`.
pub fn log_uniform_sizes(seed: u64, n: usize, lo: usize, hi: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed);
    let (lo_ln, hi_ln) = ((lo as f64).ln(), (hi as f64).ln());
    (0..n)
        .map(|_| (lo_ln + rng.gen_f64() * (hi_ln - lo_ln)).exp().round() as usize)
        .collect()
}

struct Gen<'a> {
    /// Draws the structure.
    rng: Rng,
    /// Draws which event each event statement performs.
    events_rng: Rng,
    out: String,
    funs: usize,
    events: Events<'a>,
}

impl Gen<'_> {
    /// Emits exactly `budget` statements.
    fn block(&mut self, budget: usize, depth: usize) {
        let event_density = match self.events {
            Events::Plain(_) => PLAIN_EVENT,
            Events::Descriptors(_) => DESCRIPTOR_EVENT,
        };
        let mut remaining = budget;
        while remaining > 0 {
            let roll = self.rng.gen_f64();
            let nested = depth < MAX_DEPTH;
            if roll < event_density {
                self.event();
                remaining -= 1;
            } else if roll < event_density + CALL && self.funs > 1 {
                let callee = self.rng.gen_range(1..self.funs);
                self.out.push_str(&format!("f{callee}();\n"));
                remaining -= 1;
            } else if roll < event_density + CALL + BRANCH && nested && remaining >= 4 {
                let inner = remaining / 2;
                self.out.push_str("if (*) {\n");
                self.block(inner / 2, depth + 1);
                self.out.push_str("} else {\n");
                self.block(inner - inner / 2, depth + 1);
                self.out.push_str("}\n");
                remaining -= inner + 1;
            } else if roll < event_density + CALL + BRANCH + LOOP && nested && remaining >= 3 {
                let body = remaining / 3;
                self.out.push_str("while (*) {\n");
                self.block(body, depth + 1);
                self.out.push_str("}\n");
                remaining -= body + 1;
            } else if self.rng.gen_bool(0.3) {
                // Statements the property does not observe.
                let k = self.rng.gen_range(0..16);
                self.out.push_str(&format!("event noop{k};\n"));
                remaining -= 1;
            } else {
                self.out.push_str("skip;\n");
                remaining -= 1;
            }
        }
    }

    fn event(&mut self) {
        match self.events {
            Events::Plain(names) => {
                let name = *self.events_rng.choose(names);
                self.out.push_str(&format!("event {name};\n"));
            }
            Events::Descriptors(n) => {
                let fd = self.events_rng.gen_range(0..n);
                let name = if self.events_rng.gen_bool(0.5) {
                    "open"
                } else {
                    "close"
                };
                self.out.push_str(&format!("event {name}(fd{fd});\n"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_cfgir::Program;

    #[test]
    fn same_seed_gives_identical_text() {
        for events in [Events::Plain(PRIVILEGE_EVENTS), Events::Descriptors(4)] {
            let text = program(1, 7, 3_000, events);
            assert_eq!(text, program(1, 7, 3_000, events));
            let other_seed = program(1, 8, 3_000, events);
            assert_ne!(text, other_seed);
            // Only the events differ: the statement skeleton is the shape's.
            let is_event = |l: &&str| l.starts_with("event ");
            let skeleton = |t: &String| {
                t.lines()
                    .filter(|l| !is_event(l))
                    .collect::<Vec<_>>()
                    .join("\n")
            };
            assert_eq!(skeleton(&text), skeleton(&other_seed));
            let events = |t: &String| t.lines().filter(is_event).count();
            assert_eq!(events(&text), events(&other_seed));
        }
        assert_eq!(
            log_uniform_sizes(3, 50, 100, 1000),
            log_uniform_sizes(3, 50, 100, 1000)
        );
    }

    #[test]
    fn text_round_trips_through_the_parser_at_the_requested_size() {
        for (seed, stmts, events) in [
            (1, 1, Events::Plain(UNIT_EVENTS)),
            (2, 777, Events::Plain(UNIT_EVENTS)),
            (3, 5_000, Events::Plain(TABLE1_EVENTS)),
            (4, 2_000, Events::Descriptors(8)),
        ] {
            let text = program(seed, seed + 100, stmts, events);
            let parsed = Program::parse(&text).expect("generated text parses");
            assert_eq!(parsed.num_stmts(), stmts);
            let reparsed = Program::parse(&parsed.to_string()).expect("printed text parses");
            assert_eq!(parsed, reparsed);
        }
    }

    #[test]
    fn table1_packages_match_the_paper_sizes() {
        for (k, (name, paper)) in TABLE1_PACKAGES.into_iter().enumerate() {
            let text = program(k as u64, 1, paper, Events::Plain(TABLE1_EVENTS));
            let total = Program::parse(&text).expect("parses").num_stmts();
            let off = total.abs_diff(paper) as f64 / paper as f64;
            assert!(
                off <= 0.05,
                "{name}: {total} statements vs {paper} in the paper"
            );
        }
    }

    #[test]
    fn log_uniform_sizes_stay_in_range() {
        let sizes = log_uniform_sizes(9, 1000, 100, 1000);
        assert!(sizes.iter().all(|s| (100..=1000).contains(s)));
        let below_median = sizes.iter().filter(|&&s| s < 316).count();
        assert!((400..600).contains(&below_median), "{below_median}");
    }
}
