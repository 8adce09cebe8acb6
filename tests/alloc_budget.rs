//! Pins allocation budgets with exact counts.
//!
//! A counting global allocator tallies, per thread, the blocks it hands
//! out (`alloc`, `alloc_zeroed`) and the blocks it frees (`dealloc`); a
//! `realloc` resizes a block and counts as neither. Solving one fixed generated program and
//! dropping the solved system must stay under a budget per solved entry.
//! Building a property's algebra and parsing a program, the set-up every
//! small check pays, must each stay under a fixed budget.
//! The counts depend only on the inputs and the code, not on hash seeds
//! or timing, so they repeat exactly from run to run.
//!
//! The allocator is process-wide; counting per thread keeps the harness's
//! own threads, and the other test in this file, out of each tally.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rasc::automata::PropertySpec;
use rasc::cfgir::{Cfg, Program};
use rasc::constraints::algebra::MonoidAlgebra;
use rasc::constraints::System as Solver;
use rasc::pdmc::{properties, ConstraintChecker};
use rasc_bench::workload::{generate, WorkloadConfig};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    // `try_with`: the slot is gone while the thread tears down.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, which upholds the `GlobalAlloc` contract; the counters are
// const-initialized thread-locals, so counting never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: the caller's guarantees on `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`
        // underneath, with `layout`; the caller guarantees `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        // SAFETY: `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn counts() -> (u64, u64) {
    (ALLOCS.with(Cell::get), FREES.with(Cell::get))
}

/// Solve allocations plus drop frees per solved entry. Measured on this
/// program: 5.06 (45,859 + 47,035 for 18,376 entries) when every solved
/// category kept a `HashMap` with one vec per key, 1.94 (15,743 + 19,916)
/// with log-only storage for categories of up to eight entries. The bound
/// sits between the two. Since upper bounds stay where they were
/// asserted, it reads 2.69 (12,350 + 16,755 for 10,816 entries): the
/// counts fell by 18%, but the entries they are divided by fell by 41%.
/// Without projection merging's auxiliary variables and ε edges it reads
/// 2.64 (11,576 + 15,677 for 10,322 entries). With one membership set of
/// `(key, annotation)` pairs per large category, instead of one sorted
/// set per key, no per-constructor lower-bound buckets and no mirror of
/// each edge at its target, it reads 1.33 (4,421 + 9,208 for 10,260
/// entries). The bound sits between the last two.
const BUDGET_PER_ENTRY: f64 = 2.0;

#[test]
fn solve_and_drop_stay_within_the_allocation_budget() {
    let (sigma, dfa) = properties::full_privilege_property();
    let names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
    let program = generate(&WorkloadConfig::sized(3000, names, 3));
    let cfg = Cfg::build(&program).unwrap();
    let mut checker = ConstraintChecker::new(&cfg, &sigma, &dfa, "main").unwrap();

    let before = counts();
    checker.solve();
    let solve_allocs = counts().0 - before.0;
    let entries = checker.system().solved_entries();
    let before = counts();
    drop(checker);
    let drop_frees = counts().1 - before.1;

    let per_entry = (solve_allocs + drop_frees) as f64 / entries as f64;
    println!("{solve_allocs} solve allocations, {drop_frees} drop frees, {entries} entries");
    assert!(entries > 10_000, "the program is large enough to measure");
    assert!(
        per_entry <= BUDGET_PER_ENTRY,
        "{per_entry:.2} allocations plus frees per solved entry (budget {BUDGET_PER_ENTRY}): \
         {solve_allocs} solve allocations + {drop_frees} drop frees for {entries} entries"
    );
}

/// Allocations of `MonoidAlgebra::new` on the combined property of the
/// units workload (27 product states, 9 after minimization). Measured:
/// 1,247 when `Dfa::minimize` refined by splitters, building a `HashMap`
/// of member vectors for each one, and 54 with Moore rounds over flat
/// arrays. The bound sits between the two.
const ALGEBRA_BUDGET: u64 = 200;

/// Allocations of `Program::parse` on a printed 1,000-statement generated
/// program. Measured: 2,862 when every identifier token owned a `String`
/// that the parser cloned again, and 588 with tokens borrowed from the
/// source. The bound sits between the two.
const PARSE_BUDGET: u64 = 1_200;

#[test]
fn property_algebra_and_parse_stay_within_their_allocation_budgets() {
    let specs: Vec<PropertySpec> = [
        properties::SIMPLE_PRIVILEGE,
        properties::CHROOT_JAIL,
        properties::TEMP_FILE_RACE,
    ]
    .iter()
    .map(|text| PropertySpec::parse(text).unwrap())
    .collect();
    let refs: Vec<&PropertySpec> = specs.iter().collect();
    let (sigma, dfa) = properties::combine_specs(&refs);
    let before = counts().0;
    let algebra = MonoidAlgebra::new(&dfa);
    let algebra_allocs = counts().0 - before;
    drop(algebra);

    let names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
    let src = generate(&WorkloadConfig::sized(1000, names, 3)).to_string();
    let before = counts().0;
    let program = Program::parse(&src).unwrap();
    let parse_allocs = counts().0 - before;

    println!(
        "MonoidAlgebra::new: {algebra_allocs} allocations ({} states); \
         Program::parse: {parse_allocs} allocations ({} bytes)",
        dfa.len(),
        src.len()
    );
    assert!(
        program.funs.len() > 1,
        "the program is large enough to measure"
    );
    assert!(
        algebra_allocs <= ALGEBRA_BUDGET,
        "MonoidAlgebra::new made {algebra_allocs} allocations (budget {ALGEBRA_BUDGET})"
    );
    assert!(
        parse_allocs <= PARSE_BUDGET,
        "Program::parse made {parse_allocs} allocations (budget {PARSE_BUDGET})"
    );
}

/// Allocations plus frees of one `System::fork` of `base` and the drop of
/// that fork.
fn fork_and_drop_allocations(base: &rasc::constraints::BaseSystem<MonoidAlgebra>) -> u64 {
    let before = counts();
    let fork = Solver::fork(base);
    drop(fork);
    let after = counts();
    (after.0 - before.0) + (after.1 - before.1)
}

/// A solved base over the full privilege property, built from a
/// generated program of `statements` statements.
fn privilege_base(statements: usize) -> (rasc::constraints::BaseSystem<MonoidAlgebra>, usize) {
    let (sigma, dfa) = properties::full_privilege_property();
    let names: Vec<String> = sigma.symbols().map(|s| sigma.name(s).to_owned()).collect();
    let program = generate(&WorkloadConfig::sized(statements, names, 3));
    let cfg = Cfg::build(&program).unwrap();
    let mut checker = ConstraintChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
    checker.solve();
    let bytes = checker.system().snapshot_bytes().unwrap();
    let mut sys = Solver::<MonoidAlgebra>::restore_bytes(&bytes).unwrap();
    sys.enable_provenance();
    let vars = sys.num_vars();
    (sys.into_base().unwrap(), vars)
}

/// A fork shares the base's per-variable records chunk by chunk, so
/// forking a base eight times larger, and dropping the fork, makes
/// exactly as many allocations. When a fork copied one record per
/// variable the larger base cost proportionally more.
#[test]
fn fork_and_drop_allocations_do_not_grow_with_the_base() {
    let (small, small_vars) = privilege_base(1_000);
    let (large, large_vars) = privilege_base(8_000);
    let small_allocs = fork_and_drop_allocations(&small);
    let large_allocs = fork_and_drop_allocations(&large);
    println!(
        "fork + drop: {small_allocs} allocations and frees at {small_vars} variables, \
         {large_allocs} at {large_vars}"
    );
    assert!(large_vars > 6 * small_vars, "the bases differ in size");
    assert_eq!(
        small_allocs, large_allocs,
        "forking and dropping a {large_vars}-variable base must allocate exactly as \
         forking a {small_vars}-variable one"
    );
}
