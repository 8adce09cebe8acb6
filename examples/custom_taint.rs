//! Building a *new* analysis on the framework: interprocedural taint
//! tracking.
//!
//! Nothing here is pre-built in `rasc` — this is what a downstream user
//! writes. The recipe (the same one §6 uses for privilege and §3.3 for
//! dataflow):
//!
//! 1. describe the per-value state machine in the §8 spec language
//!    (taint sources, sanitizers, dangerous sinks);
//! 2. one set variable per program point, `pc` seeded at the entry;
//! 3. property-relevant statements become annotated edges; call/return
//!    matching comes from per-site constructors — context sensitivity for
//!    free;
//! 4. violations are accepting occurrences of `pc`.
//!
//! Run with `cargo run --example custom_taint`.

use rasc::automata::{Alphabet, Dfa, PropertySpec};
use rasc::cfgir::{Cfg, EdgeLabel, Program};
use rasc::constraints::algebra::{Algebra, MonoidAlgebra};
use rasc::constraints::{ConsId, SetExpr, System, VarId, Variance};

/// The taint discipline: a value read from the network is tainted until
/// sanitized; executing a query with a tainted value is a violation.
const TAINT: &str = "
start state Clean :
    | read_network -> Tainted;

state Tainted :
    | sanitize -> Clean
    | run_query -> Injected;

accept state Injected;
";

/// The whole encoding, by hand, on the public API: one variable per
/// program point, `pc` seeded at `main`'s entry, one annotated edge per
/// statement, and per call site a constructor and its projection.
/// Returns the solved system, the program points' variables and `pc`.
fn encode(
    cfg: &Cfg,
    sigma: &Alphabet,
    machine: &Dfa,
) -> (System<MonoidAlgebra>, Vec<VarId>, ConsId) {
    let mut sys = System::new(MonoidAlgebra::new(machine));
    let vars: Vec<VarId> = (0..cfg.num_nodes())
        .map(|i| sys.var(&format!("S{i}")))
        .collect();
    let pc = sys.constructor("pc", &[]);
    let entry = cfg.entry("main").expect("main exists").entry;
    sys.add(SetExpr::cons(pc, []), SetExpr::var(vars[entry.index()]))
        .expect("well-formed");
    for (from, to, label) in cfg.edges() {
        let ann = match label {
            EdgeLabel::Event { name, .. } => match sigma.lookup(name) {
                Some(sym) => sys.algebra().symbol(sym),
                None => sys.algebra().identity(),
            },
            EdgeLabel::Plain => sys.algebra().identity(),
        };
        sys.add_ann(
            SetExpr::var(vars[from.index()]),
            SetExpr::var(vars[to.index()]),
            ann,
        )
        .expect("well-formed");
    }
    for site in cfg.call_sites() {
        let callee = &cfg.functions()[site.callee.index()];
        let o_i = sys.constructor(&format!("o{}", site.id.index()), &[Variance::Covariant]);
        sys.add(
            SetExpr::cons_vars(o_i, [vars[site.call_node.index()]]),
            SetExpr::var(vars[callee.entry.index()]),
        )
        .expect("well-formed");
        sys.add(
            SetExpr::proj(o_i, 0, vars[callee.exit.index()]),
            SetExpr::var(vars[site.return_node.index()]),
        )
        .expect("well-formed");
    }
    sys.solve();
    (sys, vars, pc)
}

/// The program points `pc` reaches in an accepting (injected) state.
fn injected(sys: &mut System<MonoidAlgebra>, vars: &[VarId], pc: ConsId) -> Vec<usize> {
    let occ = sys.constant_occurrence_classes(pc);
    (0..vars.len())
        .filter(|&n| {
            occ[vars[n].index()]
                .iter()
                .any(|&c| sys.algebra().class_accepting(c))
        })
        .collect()
}

fn main() {
    let spec = PropertySpec::parse(TAINT).expect("valid spec");
    let (sigma, machine) = spec.compile();

    // A web handler: the sanitizer runs only on one branch, and the query
    // happens inside a helper two calls deep.
    let src = r#"
        fn run() { q: event run_query; done: skip; }
        fn db_layer() { run(); }
        fn handler() {
            event read_network;
            if (*) { event sanitize; } else { skip; }
            db_layer();
        }
        fn main() {
            while (*) { handler(); }
        }
    "#;
    let program = Program::parse(src).expect("valid MiniImp");
    let cfg = Cfg::build(&program).expect("valid program");
    let (mut sys, vars, pc) = encode(&cfg, &sigma, &machine);

    // Query: can an injected state reach the point after the query?
    let injected_points = injected(&mut sys, &vars, pc);
    println!(
        "program points reachable with an injected query: {}",
        injected_points.len()
    );
    let after_query = cfg.label_node("done").expect("label exists");
    assert!(
        injected_points.contains(&after_query.index()),
        "the unsanitized branch reaches run_query tainted"
    );

    // The witness term's constructors are the runtime stack (§6.2): the
    // violation is two frames deep (handler's db_layer call, db_layer's
    // run call — the handler itself was entered from main's loop).
    let w = sys
        .occurrence_witness(vars[after_query.index()], pc)
        .expect("violation");
    println!(
        "witness stack depth: {} (pc wrapped per unreturned call)",
        w.stack.len()
    );
    assert!(w.stack.len() >= 2);

    // Sanitizing on every path fixes it.
    let fixed_src = src.replace(
        "if (*) { event sanitize; } else { skip; }",
        "event sanitize;",
    );
    let fixed = Program::parse(&fixed_src).expect("valid MiniImp");
    let fixed_cfg = Cfg::build(&fixed).expect("valid program");
    let (mut sys2, vars2, pc2) = encode(&fixed_cfg, &sigma, &machine);
    assert!(
        injected(&mut sys2, &vars2, pc2).is_empty(),
        "sanitizing on every path removes the risk"
    );
    println!("ok: custom taint analysis found the bug and cleared the fix");
}
