//! Pins the solver's work on fixed programs with exact counts.
//!
//! The privilege program is the one `tests/alloc_budget.rs` measures: a
//! generated 3000-statement program checked against the full privilege
//! property. The parametric program has five file descriptors and is
//! checked against the file-state property. Solving is deterministic, so
//! every count below repeats exactly; a change to the resolution rules
//! that does more (or less) work, or finds other violations, moves them.

use rasc::automata::PropertySpec;
use rasc::cfgir::Cfg;
use rasc::constraints::algebra::Algebra;
use rasc::pdmc::{properties, ConstraintChecker};
use rasc_bench::workload::{generate, generate_parametric, WorkloadConfig};

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
    // the same upper bounds and violations as now. When each cycle
    // collapse also re-enqueued every edge into the collapsed variable
    // under the winner's id (from a mirror of the edges at their targets),
    // it took 12,436 facts and kept 2,963 edges; the rest was as now.
    assert_eq!(stats.vars, 3_071, "variables");
    assert_eq!(stats.facts_processed, 11_721, "facts processed");
    assert_eq!(stats.upper_bounds, 330, "upper bounds");
    assert_eq!(stats.edges, 2_901, "edges");
    assert_eq!(stats.lower_bounds, 7_029, "lower bounds");
    assert_eq!(violations, 819, "violations");
}

#[test]
fn parametric_scan_work_on_the_fixed_program_is_pinned() {
    let spec = PropertySpec::parse(properties::FILE_STATE).unwrap();
    let program = generate_parametric(2000, 5, 3);
    let cfg = Cfg::build(&program).unwrap();
    let mut checker = ConstraintChecker::parametric(&cfg, &spec, "main").unwrap();
    checker.solve();
    let stats = checker.system().stats();
    let solved = checker.system().algebra().len();
    let violations = checker.violations().len();
    let scanned = checker.system().algebra().len();
    println!("{stats:?}, {violations} violations, {solved} -> {scanned} annotations");

    assert_eq!(stats.vars, 2_028, "variables");
    assert_eq!(stats.facts_processed, 6_593, "facts processed");
    assert_eq!(violations, 355, "violations");
    // The scan carries state environments, so it interns no substitution
    // environment. When it composed whole environments, the algebra grew
    // from 48 to 108 annotations here.
    assert_eq!(solved, 48, "annotations after the solve");
    assert_eq!(scanned, 48, "annotations after the violation scan");
}
