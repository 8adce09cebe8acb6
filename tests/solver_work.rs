//! Pins the solver's work on one fixed program with exact counts.
//!
//! The program is the one `tests/alloc_budget.rs` measures: a generated
//! 3000-statement program checked against the full privilege property.
//! Solving is deterministic, so every count below repeats exactly; a
//! change to the resolution rules that does more (or less) work, or finds
//! other violations, moves them.

use rasc::cfgir::Cfg;
use rasc::pdmc::{properties, ConstraintChecker};
use rasc_bench::workload::{generate, WorkloadConfig};

#[test]
fn solver_work_on_the_fixed_program_is_pinned() {
    let (sigma, dfa) = properties::full_privilege_property();
    let names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
    let program = generate(&WorkloadConfig::sized(3000, names, 3));
    let cfg = Cfg::build(&program).unwrap();
    let mut checker = ConstraintChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
    checker.solve();
    let stats = checker.system().stats();
    let violations = checker.violations().len();
    println!("{stats:?}, {violations} violations");

    // When upper bounds were also copied backward along every edge, the
    // same program took 23,776 facts and kept 7,890 upper bounds; edges,
    // lower bounds and violations were as with projection merging below.
    // With projection merging, each of the program's 330 projections
    // (every key distinct) added an auxiliary variable and an ε edge:
    // 3,401 vars, 3,290 edges, 7,196 lower bounds and 12,891 facts, with
    // the same upper bounds and violations as now.
    assert_eq!(stats.vars, 3_071, "variables");
    assert_eq!(stats.facts_processed, 12_436, "facts processed");
    assert_eq!(stats.upper_bounds, 330, "upper bounds");
    assert_eq!(stats.edges, 2_963, "edges");
    assert_eq!(stats.lower_bounds, 7_029, "lower bounds");
    assert_eq!(violations, 819, "violations");
}
