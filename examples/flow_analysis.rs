//! Type-based flow analysis (§7): the Figure 11 program under both the
//! primary analysis (calls as terms, type brackets as annotations) and
//! the §7.6 dual (call brackets as annotations, `pair` as a term
//! constructor), plus a stack-aware alias query (§7.5).
//!
//! Run with `cargo run --example flow_analysis`.

use rasc::flow::{FlowAnalysis, Program};

fn main() {
    // Figure 11 (non-structural subtyping example):
    //   pair (y:int) : β = (1^A, y^Y)^P
    //   main () : int = (pair^i 2^B).2^V
    let src = r#"
        fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }
        fn main() -> int { pair[i](2@B)@T.2@V }
    "#;
    let program = Program::parse(src).expect("valid MiniLam");

    // Primary analysis: polymorphic recursion + non-structural subtyping.
    let mut primary = FlowAnalysis::new(&program).expect("well-typed");
    primary.solve();
    println!("primary analysis (§7.2, calls = terms, pairs = brackets):");
    for (src, dst) in [("B", "V"), ("A", "V"), ("B", "T"), ("A", "T")] {
        println!("  {src} flows to {dst}: {}", primary.flows(src, dst));
    }
    assert!(primary.flows("B", "V"), "the §7.4 derivation");
    assert!(!primary.flows("A", "V"), "A is the first component");

    // Dual analysis: the same facts via the swapped encoding (§7.6).
    let mut dual = FlowAnalysis::dual(&program).expect("well-typed");
    dual.solve();
    println!("dual analysis (§7.6, calls = brackets, pairs = terms):");
    for (src, dst) in [("B", "V"), ("A", "V")] {
        println!("  {src} flows to {dst}: {}", dual.flows(src, dst));
    }
    assert_eq!(dual.flows("B", "V"), primary.flows("B", "V"));
    assert_eq!(dual.flows("A", "V"), primary.flows("A", "V"));

    // Stack-aware aliasing (§7.5): two uses of `id` at different sites
    // carry different constants; the context is encoded in the terms, so
    // the results provably do not alias even though the flat value sets
    // both contain "some int literal".
    let alias_src = r#"
        fn id(x: int) -> int { x }
        fn main() -> int { (id[s1](1@ONE)@R1, id[s2](2@TWO)@R2).1 }
    "#;
    let alias_program = Program::parse(alias_src).expect("valid MiniLam");
    let mut alias = FlowAnalysis::new(&alias_program).expect("well-typed");
    alias.solve();
    println!("stack-aware alias queries (§7.5):");
    println!("  R1 alias R1: {}", alias.may_alias("R1", "R1").unwrap());
    println!("  R1 alias R2: {}", alias.may_alias("R1", "R2").unwrap());
    assert!(alias.may_alias("R1", "R1").unwrap());
    assert!(!alias.may_alias("R1", "R2").unwrap());
    assert!(alias.flows("ONE", "R1"));
    assert!(
        !alias.flows("ONE", "R2"),
        "contexts separated by call matching"
    );
    println!("ok: Figure 11 reproduced under both analyses");
}
