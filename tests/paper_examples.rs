//! Integration tests reproducing every worked example in the paper's
//! application sections (§6 and §7) through the public API.

use rasc::automata::PropertySpec;
use rasc::cfgir::{Cfg, Program};
use rasc::constraints::algebra::Algebra;
use rasc::flow::FlowAnalysis;
use rasc::pdmc::{properties, ConstraintChecker};
use rasc::pushdown::PdsChecker;

/// §6.3: the privilege property on the paper's exact example program.
#[test]
fn section_6_3_constraint_path() {
    let src = "fn main() {
        s1: event seteuid_zero;
        if (*) { s3: event seteuid_nonzero; } else { s4: skip; }
        s5: event execl;
        s6: skip;
    }";
    let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
    let spec = PropertySpec::parse(properties::SIMPLE_PRIVILEGE).unwrap();
    let mut checker = ConstraintChecker::from_spec(&cfg, &spec, "main").unwrap();
    checker.solve();

    // "The constraints imply pc^{f_error} is in S6."
    let s6 = cfg.label_node("s6").unwrap();
    let violations = checker.violations();
    assert!(violations.contains(&s6));

    // pc's annotations at S6 include the error class and (via the then
    // branch) a non-error class.
    let anns = checker.pc_annotations(s6);
    assert!(anns.len() >= 2, "both branches reach s6");
    let n_accepting = {
        let alg = checker.system().algebra();
        anns.iter().filter(|&&a| alg.is_accepting(a)).count()
    };
    assert_eq!(n_accepting, 1, "exactly the else-branch class errs");

    // Before the execl there is no violation.
    assert!(!violations.contains(&cfg.label_node("s5").unwrap()));

    // The direct pushdown engine agrees on the violating point.
    let (sigma, dfa) = spec.compile();
    let pds = PdsChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
    let heads = pds.run();
    assert!(heads.iter().any(|v| v.node == s6));
}

/// §6.4 / Figures 5–7: parametric file-descriptor tracking.
#[test]
fn section_6_4_parametric_file_state() {
    let src = "fn main() {
        s1: event open(fd1);
        s2: event open(fd2);
        s3: event close(fd1);
        s4: skip;
    }";
    let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
    let spec = PropertySpec::parse(properties::FILE_STATE).unwrap();
    let mut checker = ConstraintChecker::parametric(&cfg, &spec, "main").unwrap();
    checker.solve();

    // After s1: fd1 open. After s2: both open. After s3: only fd2.
    let expect = [
        ("s1", vec!["fd1"]),
        ("s2", vec!["fd1", "fd2"]),
        ("s3", vec!["fd2"]),
    ];
    for (label, open) in expect {
        let node = cfg.label_after(label).unwrap();
        let anns = checker.pc_annotations(node);
        assert_eq!(anns.len(), 1, "one path class at {label}");
        let alg = checker.system().algebra();
        let mut names: Vec<String> = alg
            .accepting_instances(anns[0])
            .iter()
            .flat_map(|(key, _)| key.values().map(|l| alg.label_name(*l).to_owned()))
            .collect();
        names.sort();
        assert_eq!(names, open, "open set after {label}");
    }
}

/// §6.4 in a branching/interprocedural setting: instantiations from
/// different paths merge per-parameter.
#[test]
fn parametric_across_calls_and_branches() {
    let src = "fn opener() { event open(fd_log); }
        fn main() {
            opener();
            if (*) { event close(fd_log); } else { skip; }
            done: skip;
        }";
    let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
    let spec = PropertySpec::parse(properties::FILE_STATE).unwrap();
    let mut checker = ConstraintChecker::parametric(&cfg, &spec, "main").unwrap();
    checker.solve();
    let done = cfg.label_node("done").unwrap();
    let anns = checker.pc_annotations(done);
    // Two path classes: one where fd_log is closed, one where it leaks.
    let alg = checker.system().algebra();
    let leak_classes = anns.iter().filter(|&&a| alg.is_accepting(a)).count();
    assert_eq!(leak_classes, 1, "the else path leaks fd_log");
    assert_eq!(anns.len(), 2);
}

/// §7.4 / Figures 11–12, and the §7.6 dual: `B` flows to `V`; the two
/// formulations agree on all labeled flows.
#[test]
fn section_7_4_and_7_6_agree() {
    let src = "fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }\n\
               fn main() -> int { pair[i](2@B)@T.2@V }";
    let program = rasc::flow::Program::parse(src).unwrap();
    let mut primary = FlowAnalysis::new(&program).unwrap();
    primary.solve();
    let mut dual = FlowAnalysis::dual(&program).unwrap();
    dual.solve();

    for src_label in ["A", "B"] {
        for dst in ["T", "V"] {
            assert_eq!(
                primary.flows(src_label, dst),
                dual.flows(src_label, dst),
                "{src_label} → {dst}"
            );
        }
    }
    assert!(primary.flows("B", "V"));
    assert!(!primary.flows("A", "V"));
    // A flows to T only inside the pair (PN view), not at top level.
    assert!(!primary.flows("A", "T"));
    assert!(primary.flows_pn("A", "T"));
}

/// §7.5: stack-aware alias queries on the paper's two-call pattern.
#[test]
fn section_7_5_stack_aware_alias() {
    // The MiniLam rendition of the paper's foo(&a,&b)/foo(&b,&a) example:
    // a two-parameter function is modeled as two single-parameter
    // functions sharing call sites; the discriminating fact is that each
    // result set holds {o_s1(a), o_s2(b)} vs {o_s1(b), o_s2(a)}.
    let src = "fn fst(p: int) -> int { p@X }\n\
               fn snd(q: int) -> int { q@Y }\n\
               fn main() -> int {\n\
                   ((fst[c1](1@LA)@XA, snd[c1b](2@LB)@YB),\n\
                    (fst[c2](2@LB2)@XB, snd[c2b](1@LA2)@YA)).1.1\n\
               }";
    let program = rasc::flow::Program::parse(src).unwrap();
    let mut a = FlowAnalysis::new(&program).unwrap();
    a.solve();
    // XA holds lit1-via-c1; YA holds lit1-via-c2b: different literals?
    // lit constants are per-occurrence, so 1@LA and 1@LA2 are distinct
    // abstract values: XA ∩ YA = ∅.
    assert!(!a.may_alias("XA", "YA").unwrap());
    // But each aliases itself.
    assert!(a.may_alias("XA", "XA").unwrap());
}

/// The full privilege property drives the same checker (the Table 1
/// configuration) on a hand-written violating program.
#[test]
fn full_privilege_property_end_to_end() {
    let (sigma, dfa) = properties::full_privilege_property();
    let src = "fn drop_uid() { event setresuid_user; }
        fn main() {
            drop_uid();
            s: event execl;
            t: skip;
        }";
    let cfg = Cfg::build(&Program::parse(src).unwrap()).unwrap();
    let mut checker = ConstraintChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
    checker.solve();
    // uid dropped but gid still effective-root: still a violation.
    assert!(checker.violated());

    let fixed = "fn drop_all() { event setresuid_user; event setgid_user; }
        fn main() { drop_all(); event execl; }";
    let cfg = Cfg::build(&Program::parse(fixed).unwrap()).unwrap();
    let mut checker = ConstraintChecker::new(&cfg, &sigma, &dfa, "main").unwrap();
    checker.solve();
    assert!(!checker.violated());
}
