//! Differential properties of the two §7 flow encodings over random
//! well-typed MiniLam programs. Without recursion the primary (§7.2)
//! and the dual (§7.6) are both exact, so they agree on every matched
//! and PN flow. With recursion the dual approximates recursive call
//! cycles with ε, so it finds every flow the primary finds, and maybe
//! more.

use std::fmt;

use rasc::flow::{Expr, FlowAnalysis, FunDef, Program, Type};
use rasc_devtools::{forall, prop_assert, Config, Rng, Shrink};

/// At most this many labels per program (so at most its square of
/// label pairs per encoding).
const MAX_LABELS: usize = 30;

/// A generated program and its labels, shown as MiniLam source when a
/// property fails.
#[derive(Clone)]
struct Lam {
    program: Program,
    labels: Vec<String>,
}

impl fmt::Debug for Lam {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.program)
    }
}

impl Shrink for Lam {}

/// `int`, or a pair nested at most `depth` deep.
fn arb_type(rng: &mut Rng, depth: usize) -> Type {
    if depth == 0 || rng.gen_bool(0.6) {
        return Type::Int;
    }
    Type::Pair(
        Box::new(arb_type(rng, depth - 1)),
        Box::new(arb_type(rng, depth - 1)),
    )
}

/// A signature type: mostly `int`, so that calls find callees.
fn arb_sig_type(rng: &mut Rng) -> Type {
    if rng.gen_bool(0.85) {
        Type::Int
    } else {
        arb_type(rng, 2)
    }
}

fn pair_depth(ty: &Type) -> usize {
    match ty {
        Type::Int => 0,
        Type::Pair(a, b) => 1 + pair_depth(a).max(pair_depth(b)),
    }
}

/// Generates `main` (no parameter, never called) and 3–6 functions
/// `f1…` of one parameter `x`, over `int` and pairs up to depth 2. Each
/// call gets a fresh site. Without `recursive`, a function calls only
/// later ones.
fn arb_program(rng: &mut Rng, recursive: bool) -> Lam {
    let funs = rng.gen_range(4..8);
    let sigs: Vec<(Option<Type>, Type)> = (0..funs)
        .map(|i| ((i > 0).then(|| arb_sig_type(rng)), arb_sig_type(rng)))
        .collect();
    let mut gen = Gen {
        rng,
        sigs,
        recursive,
        labels: Vec::new(),
        sites: 0,
        lets: 0,
    };
    // Bodies last to first, so that `main` does not take every label.
    let mut program = Program::default();
    for i in (0..funs).rev() {
        let (param, ret) = gen.sigs[i].clone();
        let env: Vec<(String, Type)> = param.iter().map(|t| ("x".to_owned(), t.clone())).collect();
        let fuel = gen.rng.gen_range(3..6);
        let body = gen.expr(&ret, &env, i, fuel, false);
        program.funs.push(FunDef {
            name: fun_name(i),
            param: param.map(|t| ("x".to_owned(), t)),
            ret,
            body,
        });
    }
    program.funs.reverse();
    Lam {
        program,
        labels: gen.labels,
    }
}

fn fun_name(i: usize) -> String {
    if i == 0 {
        "main".to_owned()
    } else {
        format!("f{i}")
    }
}

struct Gen<'r> {
    rng: &'r mut Rng,
    /// Each function's parameter and return type.
    sigs: Vec<(Option<Type>, Type)>,
    recursive: bool,
    labels: Vec<String>,
    sites: usize,
    lets: usize,
}

impl Gen<'_> {
    /// A fresh label on most expressions.
    fn label(&mut self) -> Option<String> {
        if self.labels.len() >= MAX_LABELS || !self.rng.gen_bool(0.8) {
            return None;
        }
        let label = format!("L{}", self.labels.len());
        self.labels.push(label.clone());
        Some(label)
    }

    /// An expression of type `ty` inside function `caller`. A
    /// `projected` one (the subject of a projection) is not a `let`,
    /// whose body the projection would take when printed as source.
    fn expr(
        &mut self,
        ty: &Type,
        env: &[(String, Type)],
        caller: usize,
        fuel: usize,
        projected: bool,
    ) -> Expr {
        if fuel == 0 {
            return self.leaf(ty, env);
        }
        let fuel = fuel - 1;
        match self.rng.gen_range(0..9) {
            0 => self.leaf(ty, env),
            1 => match ty {
                Type::Int => self.leaf(ty, &[]),
                Type::Pair(a, b) => Expr::Pair {
                    fst: Box::new(self.expr(a, env, caller, fuel, false)),
                    snd: Box::new(self.expr(b, env, caller, fuel, false)),
                    label: self.label(),
                },
            },
            // A projection out of a wider pair, still at most 2 deep.
            2 if pair_depth(ty) < 2 => {
                let other = arb_type(self.rng, 1);
                let index = self.rng.gen_range(0..2);
                let (a, b) = if index == 0 {
                    (ty.clone(), other)
                } else {
                    (other, ty.clone())
                };
                let wider = Type::Pair(Box::new(a), Box::new(b));
                Expr::Proj {
                    subject: Box::new(self.expr(&wider, env, caller, fuel, true)),
                    index,
                    label: self.label(),
                }
            }
            3 => Expr::Choice {
                fst: Box::new(self.expr(ty, env, caller, fuel, false)),
                snd: Box::new(self.expr(ty, env, caller, fuel, false)),
                label: self.label(),
            },
            4 if !projected => {
                let name = format!("v{}", self.lets);
                self.lets += 1;
                let bound_ty = arb_type(self.rng, 2);
                let bound = self.expr(&bound_ty, env, caller, fuel, false);
                let mut inner = env.to_vec();
                inner.push((name.clone(), bound_ty));
                Expr::Let {
                    name,
                    bound: Box::new(bound),
                    body: Box::new(self.expr(ty, &inner, caller, fuel, false)),
                }
            }
            _ => {
                // Recursive programs favour neighbours, and the last
                // function calls no one, so that cycles are small and
                // calls leave them.
                let last = self.sigs.len() - 1;
                let near = self.recursive && self.rng.gen_bool(0.5);
                let callees: Vec<usize> = (1..self.sigs.len())
                    .filter(|&g| self.sigs[g].1 == *ty && caller < last)
                    .filter(|&g| {
                        if self.recursive {
                            !near || g.abs_diff(caller) == 1
                        } else {
                            g > caller
                        }
                    })
                    .collect();
                if callees.is_empty() {
                    return self.leaf(ty, env);
                }
                let callee = *self.rng.choose(&callees);
                let site = format!("s{}", self.sites);
                self.sites += 1;
                let arg = self.sigs[callee]
                    .0
                    .clone()
                    .map(|param| Box::new(self.expr(&param, env, caller, fuel, false)));
                Expr::Call {
                    callee: fun_name(callee),
                    site,
                    arg,
                    label: self.label(),
                }
            }
        }
    }

    /// A variable of type `ty` when one is in scope (usually), else a
    /// literal or a pair of leaves.
    fn leaf(&mut self, ty: &Type, env: &[(String, Type)]) -> Expr {
        let vars: Vec<&String> = env
            .iter()
            .filter(|(_, t)| t == ty)
            .map(|(x, _)| x)
            .collect();
        if !vars.is_empty() && self.rng.gen_bool(0.9) {
            return Expr::Var {
                name: (*self.rng.choose(&vars)).clone(),
                label: self.label(),
            };
        }
        match ty {
            Type::Int => Expr::Int {
                value: self.rng.gen_range(0..10) as i64,
                label: self.label(),
            },
            Type::Pair(a, b) => Expr::Pair {
                fst: Box::new(self.leaf(a, env)),
                snd: Box::new(self.leaf(b, env)),
                label: self.label(),
            },
        }
    }
}

/// `(flows, flows_pn)` for every ordered label pair, source-major.
type Answers = Vec<(bool, bool)>;

fn answers(mut analysis: FlowAnalysis, labels: &[String]) -> Answers {
    analysis.solve();
    let mut out = Vec::with_capacity(labels.len() * labels.len());
    for src in labels {
        for dst in labels {
            out.push((analysis.flows(src, dst), analysis.flows_pn(src, dst)));
        }
    }
    out
}

/// The primary's and the dual's answers.
fn both(lam: &Lam) -> (Answers, Answers) {
    let primary = FlowAnalysis::new(&lam.program).expect("generated programs are well-typed");
    let dual = FlowAnalysis::dual(&lam.program).expect("generated programs are well-typed");
    (answers(primary, &lam.labels), answers(dual, &lam.labels))
}

/// The source and destination label of pair number `k`.
fn pair_at(lam: &Lam, k: usize) -> (&str, &str) {
    let n = lam.labels.len();
    (&lam.labels[k / n], &lam.labels[k % n])
}

#[test]
fn encodings_agree_on_programs_without_recursion() {
    forall(
        "encodings_agree_on_programs_without_recursion",
        Config::cases(64),
        |rng| arb_program(rng, false),
        |lam| {
            let (primary, dual) = both(lam);
            for (k, (p, d)) in primary.iter().zip(&dual).enumerate() {
                let (src, dst) = pair_at(lam, k);
                prop_assert!(p.0 == d.0, "{src} → {dst}: primary {} dual {}", p.0, d.0);
                prop_assert!(
                    p.1 == d.1,
                    "{src} → {dst} (PN): primary {} dual {}",
                    p.1,
                    d.1
                );
            }
            Ok(())
        },
    );
}

#[test]
fn dual_finds_every_flow_the_primary_finds_under_recursion() {
    forall(
        "dual_finds_every_flow_the_primary_finds_under_recursion",
        Config::cases(64),
        |rng| arb_program(rng, true),
        |lam| {
            let (primary, dual) = both(lam);
            for (k, (p, d)) in primary.iter().zip(&dual).enumerate() {
                let (src, dst) = pair_at(lam, k);
                prop_assert!(!p.0 || d.0, "{src} → {dst}: the dual misses a matched flow");
                prop_assert!(!p.1 || d.1, "{src} → {dst}: the dual misses a PN flow");
            }
            Ok(())
        },
    );
}
