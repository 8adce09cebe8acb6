//! Exact-output pins: the paper-notation text of a small solved system
//! (`render_solved_form` and every `explain` chain), and the bytes of its
//! snapshot image. The system covers each source shape (a constant, a
//! one- and a two-argument application), each sink shape (a constant, an
//! application, a projection), each surface expression shape (variable,
//! constant, application, projection, and a projection bounded by an
//! application), annotated and ε entries, both clash kinds, an entry
//! solved before provenance recording began, and an ε-cycle collapse.

use rasc_automata::{Alphabet, Dfa};
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::{ConsId, SetExpr, System, VarId, Variance};

/// The pinned system, solved, with every variable and constructor.
fn pinned_system() -> (System<MonoidAlgebra>, Vec<VarId>, Vec<ConsId>) {
    let mut sigma = Alphabet::new();
    let g = sigma.intern("g");
    let k = sigma.intern("k");
    let mut sys = System::new(MonoidAlgebra::new(&Dfa::one_bit(&sigma, g, k)));
    let co = Variance::Covariant;
    let c = sys.constructor("c", &[]);
    let d = sys.constructor("d", &[]);
    let o = sys.constructor("o", &[co]);
    let pair = sys.constructor("pair", &[co, co]);
    let f = sys.constructor("f", &[Variance::Contravariant]);
    let names = ["W", "X", "Y", "Z", "A", "B", "P", "Q", "R", "F1", "F2"];
    let vars: Vec<VarId> = names.iter().map(|n| sys.var(n)).collect();
    let [w, x, y, z, a, b, p, q, r, f1, f2] = vars[..] else {
        unreachable!("eleven names")
    };
    let fg = sys.algebra_mut().word(&[g]);
    let fk = sys.algebra_mut().word(&[k]);
    let var = SetExpr::var;

    // Solved before recording starts: explained as an axiom.
    sys.add_ann(SetExpr::cons(c, []), var(w), fg).unwrap();
    sys.enable_provenance();
    // The §2.4 running example: resolution derives W ⊆^g Y.
    sys.add_ann(SetExpr::cons_vars(o, [w]), var(x), fg).unwrap();
    sys.add(var(x), SetExpr::cons_vars(o, [y])).unwrap();
    sys.add(SetExpr::cons_vars(o, [y]), var(z)).unwrap();
    // Projections, one of them bounded by an application.
    sys.add_ann(SetExpr::cons_vars(pair, [w, y]), var(a), fk)
        .unwrap();
    sys.add(SetExpr::proj(pair, 0, a), var(b)).unwrap();
    sys.add(SetExpr::proj(pair, 1, a), SetExpr::cons_vars(o, [r]))
        .unwrap();
    // A constructor mismatch at B.
    sys.add(var(b), SetExpr::cons(d, [])).unwrap();
    // An annotated constraint at a contravariant position.
    sys.add_ann(SetExpr::cons_vars(f, [f1]), var(f2), fg)
        .unwrap();
    sys.add(var(f2), SetExpr::cons_vars(f, [f1])).unwrap();
    // A constant source, carried through the application-bounded
    // projection by `o(F1)`.
    sys.add(SetExpr::cons(d, []), var(f1)).unwrap();
    sys.add(SetExpr::cons_vars(o, [f1]), var(y)).unwrap();
    sys.solve();
    // An ε-cycle P → Q → P carrying a lower bound and a sink.
    sys.add(var(z), var(p)).unwrap();
    sys.add(var(p), SetExpr::cons_vars(o, [r])).unwrap();
    sys.add(var(p), var(q)).unwrap();
    sys.add(var(q), var(p)).unwrap();
    sys.solve();
    (sys, vars, vec![c, d, o, pair, f])
}

/// Every explain chain of the system, one step per line, grouped by the
/// `(variable, constructor)` query that produced it.
fn every_explain_step(sys: &System<MonoidAlgebra>, vars: &[VarId], cons: &[ConsId]) -> String {
    let mut out = String::new();
    for &v in vars {
        for &c in cons {
            let steps = sys.explain(v, c);
            if steps.is_empty() {
                continue;
            }
            out.push_str(&format!(
                "explain {} {}\n",
                sys.var_name(v),
                sys.constructor_decl(c).name()
            ));
            for s in steps {
                let cited = s.constraint.map_or("-".to_owned(), |i| i.to_string());
                out.push_str(&format!("  {} {cited}: {}\n", s.rule, s.description));
            }
        }
    }
    out
}

const SOLVED_FORM: &str = "\
c ⊆^[1,1] W
W ⊆^[1,1] Y
W ⊆^[0,0] B
o(W) ⊆^[1,1] X
X ⊆ o(Y)
o(F1) ⊆ Y
c ⊆^[1,1] Y
Y ⊆^[0,0] $proj
Y ⊆ R
o(Y) ⊆ Z
Z ⊆ Q
pair(W, Y) ⊆^[0,0] A
pair⁻1(A) ⊆ B
pair⁻2(A) ⊆ $proj
c ⊆^[0,0] B
B ⊆ d
o(Y) ⊆ Q
Q ⊆ Q
Q ⊆ o(R)
d ⊆^[0,0] R
o(F1) ⊆ R
c ⊆^[1,1] R
d ⊆ F1
F1 ⊆^[0,0] R
f(F1) ⊆^[1,1] F2
F2 ⊆ f(F1)
o(F1) ⊆^[0,0] $proj
c ⊆^[0,0] $proj
$proj ⊆ o(R)
";

const EXPLAIN_STEPS: &str = "\
explain W c
  axiom -: c ⊆^[1,1] W (solved before provenance recording was enabled)
explain X o
  constraint 1: o(W) ⊆^[1,1] X — from constraint #1: o(W) ⊆^[1,1] X
explain Y c
  trans-lb -: c ⊆^[1,1] Y — lower bound pushed across edge W ⊆^[1,1] Y
  resolve -: W ⊆^[1,1] Y — §3.1 resolution at X
  constraint 1: o(W) ⊆^[1,1] X — from constraint #1: o(W) ⊆^[1,1] X
  constraint 2: X ⊆ o(Y) — from constraint #2: X ⊆ o(Y)
  axiom -: c ⊆^[1,1] W (solved before provenance recording was enabled)
explain Y o
  constraint 11: o(F1) ⊆ Y — from constraint #11: o(F1) ⊆ Y
explain Z o
  constraint 3: o(Y) ⊆ Z — from constraint #3: o(Y) ⊆ Z
explain A pair
  constraint 4: pair(W, Y) ⊆^[0,0] A — from constraint #4: pair(W, Y) ⊆^[0,0] A
explain B c
  trans-lb -: c ⊆^[0,0] B — lower bound pushed across edge W ⊆^[0,0] B
  resolve -: W ⊆^[0,0] B — §3.1 resolution at A
  constraint 4: pair(W, Y) ⊆^[0,0] A — from constraint #4: pair(W, Y) ⊆^[0,0] A
  constraint 5: A ⊆ pair⁻1(·) ⊆ B — from constraint #5: pair⁻1(A) ⊆ B
  axiom -: c ⊆^[1,1] W (solved before provenance recording was enabled)
explain P o
  trans-lb -: o(Y) ⊆ Q — lower bound pushed across edge Z ⊆ Q
  constraint 12: Z ⊆ Q — from constraint #12: Z ⊆ Q
  constraint 3: o(Y) ⊆ Z — from constraint #3: o(Y) ⊆ Z
explain Q o
  trans-lb -: o(Y) ⊆ Q — lower bound pushed across edge Z ⊆ Q
  constraint 12: Z ⊆ Q — from constraint #12: Z ⊆ Q
  constraint 3: o(Y) ⊆ Z — from constraint #3: o(Y) ⊆ Z
explain R c
  trans-lb -: c ⊆^[1,1] R — lower bound pushed across edge Y ⊆ R
  resolve -: Y ⊆ R — §3.1 resolution at Q
  trans-lb -: o(Y) ⊆ Q — lower bound pushed across edge Z ⊆ Q
  constraint 12: Z ⊆ Q — from constraint #12: Z ⊆ Q
  constraint 3: o(Y) ⊆ Z — from constraint #3: o(Y) ⊆ Z
  collapse -: Q ⊆ o(R) — re-derived when P was collapsed into its ε-cycle class
  trans-lb -: c ⊆^[1,1] Y — lower bound pushed across edge W ⊆^[1,1] Y
  resolve -: W ⊆^[1,1] Y — §3.1 resolution at X
  constraint 1: o(W) ⊆^[1,1] X — from constraint #1: o(W) ⊆^[1,1] X
  constraint 2: X ⊆ o(Y) — from constraint #2: X ⊆ o(Y)
  axiom -: c ⊆^[1,1] W (solved before provenance recording was enabled)
explain R d
  trans-lb -: d ⊆^[0,0] R — lower bound pushed across edge F1 ⊆^[0,0] R
  resolve -: F1 ⊆^[0,0] R — §3.1 resolution at $proj
  trans-lb -: o(F1) ⊆^[0,0] $proj — lower bound pushed across edge Y ⊆^[0,0] $proj
  resolve -: Y ⊆^[0,0] $proj — §3.1 resolution at A
  constraint 4: pair(W, Y) ⊆^[0,0] A — from constraint #4: pair(W, Y) ⊆^[0,0] A
  constraint 6: A ⊆ pair⁻2(·) ⊆ $proj — from constraint #6: pair⁻2(A) ⊆ o(R)
  constraint 11: o(F1) ⊆ Y — from constraint #11: o(F1) ⊆ Y
  constraint 6: $proj ⊆ o(R) — from constraint #6: pair⁻2(A) ⊆ o(R)
  constraint 10: d ⊆ F1 — from constraint #10: d ⊆ F1
explain R o
  trans-lb -: o(F1) ⊆ R — lower bound pushed across edge Y ⊆ R
  resolve -: Y ⊆ R — §3.1 resolution at Q
  trans-lb -: o(Y) ⊆ Q — lower bound pushed across edge Z ⊆ Q
  constraint 12: Z ⊆ Q — from constraint #12: Z ⊆ Q
  constraint 3: o(Y) ⊆ Z — from constraint #3: o(Y) ⊆ Z
  collapse -: Q ⊆ o(R) — re-derived when P was collapsed into its ε-cycle class
  constraint 11: o(F1) ⊆ Y — from constraint #11: o(F1) ⊆ Y
explain F1 d
  constraint 10: d ⊆ F1 — from constraint #10: d ⊆ F1
explain F2 f
  constraint 8: f(F1) ⊆^[1,1] F2 — from constraint #8: f(F1) ⊆^[1,1] F2
";

#[test]
fn notation_of_a_small_system_is_pinned() {
    let (sys, vars, cons) = pinned_system();
    let rendered = sys.render_solved_form();
    let steps = every_explain_step(&sys, &vars, &cons);
    assert_eq!(rendered, SOLVED_FORM, "render_solved_form text changed");
    assert_eq!(steps, EXPLAIN_STEPS, "explain steps changed");
}

/// FNV-1a 64 of a byte string.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn snapshot_image_is_pinned() {
    let (sys, _, _) = pinned_system();
    let bytes = sys.snapshot_bytes().unwrap();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (2527, 0xc6d4_27ba_9276_4e18),
        "the snapshot image changed: a change to its layout needs a \
         SNAPSHOT_VERSION bump (and this pin updated with it)"
    );
}
