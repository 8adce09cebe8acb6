//! API-surface tests: error displays, statistics, term rendering — the
//! small contracts a library's users rely on.

use rasc_automata::{Alphabet, Dfa};
use rasc_core::algebra::{Algebra, GenKillAlgebra, MonoidAlgebra};
use rasc_core::{CoreError, GroundTerm, SetExpr, SolverConfig, System, Variance};

fn one_bit() -> (Alphabet, Dfa) {
    let mut sigma = Alphabet::new();
    let g = sigma.intern("g");
    let k = sigma.intern("k");
    let dfa = Dfa::one_bit(&sigma, g, k);
    (sigma, dfa)
}

#[test]
fn error_displays_are_lowercase_and_informative() {
    let errors: Vec<CoreError> = vec![
        CoreError::ArityMismatch {
            constructor: "pair".to_owned(),
            expected: 2,
            found: 1,
        },
        CoreError::ProjectionOnRight,
        CoreError::ProjectionIndex {
            constructor: "pair".to_owned(),
            arity: 2,
            index: 5,
        },
        CoreError::ContravariantAnnotation {
            constructor: "fun".to_owned(),
            position: 0,
        },
        CoreError::ForeignId,
    ];
    for e in errors {
        let msg = e.to_string();
        assert!(!msg.is_empty());
        assert!(
            msg.chars().next().unwrap().is_lowercase(),
            "error messages start lowercase: {msg}"
        );
        assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        // std::error::Error is implemented.
        let _: &dyn std::error::Error = &e;
    }
}

#[test]
fn stats_reflect_solved_state() {
    let (sigma, dfa) = one_bit();
    let g = sigma.lookup("g").unwrap();
    let mut sys = System::new(MonoidAlgebra::new(&dfa));
    let c = sys.constructor("c", &[]);
    let (x, y) = (sys.var("X"), sys.var("Y"));
    let fg = sys.algebra_mut().word(&[g]);
    sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
        .unwrap();
    sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
    sys.solve();
    let stats = sys.stats();
    assert_eq!(stats.vars, 2);
    assert_eq!(stats.constructors, 1);
    assert_eq!(stats.edges, 1);
    assert_eq!(stats.lower_bounds, 2, "c at X and at Y");
    assert!(stats.facts_processed >= 3);
    assert!(stats.annotations >= 3, "identity + generators");
    // Debug output is never empty (C-DEBUG-NONEMPTY).
    assert!(!format!("{stats:?}").is_empty());
}

#[test]
fn var_and_constructor_names_round_trip() {
    let (_, dfa) = one_bit();
    let mut sys = System::new(MonoidAlgebra::new(&dfa));
    let v = sys.var("my_var");
    let c = sys.constructor("my_cons", &[Variance::Covariant]);
    assert_eq!(sys.var_name(v), "my_var");
    let decl = sys.constructor_decl(c);
    assert_eq!(decl.name(), "my_cons");
    assert_eq!(decl.arity(), 1);
    assert_eq!(decl.signature(), &[Variance::Covariant]);
}

#[test]
fn ground_term_display_and_metrics() {
    let (sigma, dfa) = one_bit();
    let g = sigma.lookup("g").unwrap();
    let mut sys = System::new(MonoidAlgebra::new(&dfa));
    let c = sys.constructor("c", &[]);
    let o = sys.constructor("o", &[Variance::Covariant]);
    let (a, x) = (sys.var("A"), sys.var("X"));
    let fg = sys.algebra_mut().word(&[g]);
    sys.add_ann(SetExpr::cons(c, []), SetExpr::var(a), fg)
        .unwrap();
    sys.add(SetExpr::cons_vars(o, [a]), SetExpr::var(x))
        .unwrap();
    sys.solve();
    let terms = sys.ground_terms(x, 3, 8);
    assert!(!terms.is_empty());
    for t in &terms {
        assert_eq!(t.depth(), 2);
        assert_eq!(t.size(), 2);
        let rendered = format!("{t}");
        assert!(
            rendered.contains('('),
            "compound term renders args: {rendered}"
        );
    }
    let constant = GroundTerm::constant(c, terms[0].ann);
    assert_eq!(constant.depth(), 1);
}

#[test]
fn clash_reporting_deduplicates() {
    let (_, dfa) = one_bit();
    let mut sys = System::new(MonoidAlgebra::new(&dfa));
    let c = sys.constructor("c", &[]);
    let d = sys.constructor("d", &[]);
    let (x, y) = (sys.var("X"), sys.var("Y"));
    sys.add(SetExpr::cons(c, []), SetExpr::var(x)).unwrap();
    sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
    // The same mismatched pair meets twice (directly and via Y).
    sys.add(SetExpr::var(x), SetExpr::cons(d, [])).unwrap();
    sys.add(SetExpr::var(y), SetExpr::cons(d, [])).unwrap();
    sys.solve();
    assert!(!sys.is_consistent());
    // Identical clashes (same constructors, same class) are reported once.
    let unique: std::collections::HashSet<_> = sys.clashes().iter().collect();
    assert_eq!(unique.len(), sys.clashes().len());
}

#[test]
fn config_accessors_and_defaults() {
    let config = SolverConfig::default();
    assert!(config.cycle_elimination);
}

#[test]
fn genkill_describe_is_never_empty() {
    let mut alg = GenKillAlgebra::new(4);
    let t = alg.transfer(0b0101, 0b1010);
    assert!(!alg.describe(t).is_empty());
    assert!(!alg.describe(alg.identity()).is_empty());
    assert_eq!(alg.bits(), 4);
}

#[test]
fn constraints_are_recorded_in_order() {
    let (_, dfa) = one_bit();
    let mut sys = System::new(MonoidAlgebra::new(&dfa));
    let (x, y, z) = (sys.var("X"), sys.var("Y"), sys.var("Z"));
    sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
    sys.add(SetExpr::var(y), SetExpr::var(z)).unwrap();
    assert_eq!(sys.num_constraints(), 2);
    assert_eq!(sys.constraint(0).unwrap().lhs, SetExpr::var(x));
    assert_eq!(sys.constraint(1).unwrap().rhs, SetExpr::var(z));
}
