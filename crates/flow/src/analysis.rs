//! The §7 flow analysis: one typed walk of a program (Fig. 8) records
//! its flows between program points (Fig. 9), and two encodings write
//! them as constraints — the primary (§7.2–§7.5: calls as terms, type
//! brackets as regular annotations) and the dual (§7.6: pairs as terms,
//! call brackets as regular annotations).

use std::collections::HashMap;

use rasc_core::algebra::{Algebra, AnnId, MonoidAlgebra};
use rasc_core::{ConsId, SetExpr, System, VarId, Variance};

use crate::ast::{Expr, Program};
use crate::brackets::BracketLang;
use crate::dual::CallBrackets;
use crate::error::{FlowError, Result};
use crate::types::{TypeId, TypeTable};
use crate::{known_label, well_formed};

/// A program point: an index into [`Walk::points`], one per signature
/// slot (a function's parameter and return) and per expression.
type Point = usize;

/// One flow between program points, as the typed walk meets it.
#[derive(Clone, Copy)]
enum Flow {
    /// A literal's own constant flows to `to`.
    Lit { value: i64, to: Point },
    /// `from ⊆ to`: a variable use, a `choice` arm, a function body.
    Copy { from: Point, to: Point },
    /// The pair `(fst, snd)` of pair type `ty` flows to `to`.
    Pair {
        fst: Point,
        snd: Point,
        ty: TypeId,
        to: Point,
    },
    /// Component `index` of `from`, of pair type `ty`, flows to `to`.
    Proj {
        from: Point,
        index: usize,
        ty: TypeId,
        to: Point,
    },
    /// The call at `site` passes `arg` to the callee's parameter.
    Arg {
        site: usize,
        arg: Point,
        param: Point,
    },
    /// The callee's return `ret` flows back to the call at `site`.
    Ret { site: usize, ret: Point, to: Point },
}

/// A call site: the function its first call sits in and the function
/// that call calls (a reused site name is the same instantiation).
pub(crate) struct Site {
    pub(crate) name: String,
    pub(crate) caller: usize,
    pub(crate) callee: usize,
}

/// What type-checking a program records: its types, its program points
/// (signature slots first, then each body in walk order) and their
/// labels, the flows between them, and its call sites.
pub(crate) struct Walk<'p> {
    types: TypeTable,
    /// Each point's variable name: its label, or what the point is.
    points: Vec<String>,
    labels: HashMap<String, Point>,
    flows: Vec<Flow>,
    /// The call sites, in the order first met.
    pub(crate) sites: Vec<Site>,
    /// The call graph: every call's caller and callee.
    pub(crate) calls: Vec<(usize, usize)>,
    /// Each function's index by name, and its signature by index.
    funs: HashMap<&'p str, usize>,
    sigs: Vec<Sig>,
    /// Each site's index in `sites` by name.
    site_ids: HashMap<&'p str, usize>,
}

/// A function's parameter and return points, with their types.
#[derive(Clone, Copy)]
struct Sig {
    param: Option<(TypeId, Point)>,
    ret: (TypeId, Point),
}

type Env<'p> = HashMap<&'p str, (TypeId, Point)>;

impl<'p> Walk<'p> {
    /// Type-checks `program` (Fig. 8) and records its flows (Fig. 9).
    ///
    /// # Errors
    ///
    /// Returns the type errors and [`FlowError::MissingMain`] that
    /// [`FlowAnalysis::new`] documents.
    pub(crate) fn run(program: &'p Program) -> Result<Walk<'p>> {
        if program.find("main").is_none() {
            return Err(FlowError::MissingMain);
        }
        let mut walk = Walk {
            types: TypeTable::new(),
            points: Vec::new(),
            labels: HashMap::new(),
            flows: Vec::new(),
            sites: Vec::new(),
            calls: Vec::new(),
            funs: HashMap::new(),
            sigs: Vec::new(),
            site_ids: HashMap::new(),
        };
        // Signatures first (mutual recursion).
        for (i, f) in program.funs.iter().enumerate() {
            let param = f.param.as_ref().map(|(_, ty)| {
                let t = walk.types.intern(ty);
                (t, walk.point(format!("{}::param", f.name)))
            });
            let ret_ty = walk.types.intern(&f.ret);
            let ret = (ret_ty, walk.point(format!("{}::ret", f.name)));
            walk.funs.insert(&f.name, i);
            walk.sigs.push(Sig { param, ret });
        }
        for (i, f) in program.funs.iter().enumerate() {
            let sig = walk.sigs[i];
            let mut env = Env::new();
            if let (Some((name, _)), Some(param)) = (&f.param, sig.param) {
                env.insert(name, param);
            }
            let (body_ty, body) = walk.expr(&f.body, &env, i)?;
            let (ret_ty, ret) = sig.ret;
            walk.check(ret_ty, body_ty, || format!("return of `{}`", f.name))?;
            walk.flows.push(Flow::Copy {
                from: body,
                to: ret,
            });
        }
        Ok(walk)
    }

    fn point(&mut self, name: String) -> Point {
        self.points.push(name);
        self.points.len() - 1
    }

    /// A new point for an expression, named by its label if it has one.
    fn labeled(&mut self, label: &Option<String>, what: &str) -> Point {
        let p = self.point(label.clone().unwrap_or_else(|| what.to_owned()));
        if let Some(l) = label {
            self.labels.insert(l.clone(), p);
        }
        p
    }

    /// A type mismatch in `context` unless `found` is `expected`.
    fn check(&self, expected: TypeId, found: TypeId, context: impl Fn() -> String) -> Result<()> {
        if expected == found {
            return Ok(());
        }
        Err(FlowError::TypeMismatch {
            context: context(),
            expected: self.types.render(expected),
            found: self.types.render(found),
        })
    }

    /// Checks `e` and records its flows; returns its type and point.
    fn expr(&mut self, e: &'p Expr, env: &Env<'p>, caller: usize) -> Result<(TypeId, Point)> {
        match e {
            Expr::Int { value, label } => {
                let to = self.labeled(label, "int");
                self.flows.push(Flow::Lit { value: *value, to });
                Ok((self.types.int(), to))
            }
            Expr::Var { name, label } => {
                let &(ty, from) = env
                    .get(name.as_str())
                    .ok_or_else(|| FlowError::Unbound(name.clone()))?;
                let to = self.labeled(label, name);
                self.flows.push(Flow::Copy { from, to });
                Ok((ty, to))
            }
            Expr::Pair { fst, snd, label } => {
                let (t1, fst) = self.expr(fst, env, caller)?;
                let (t2, snd) = self.expr(snd, env, caller)?;
                let ty = self.types.pair(t1, t2);
                let to = self.labeled(label, "pair");
                self.flows.push(Flow::Pair { fst, snd, ty, to });
                Ok((ty, to))
            }
            Expr::Proj {
                subject,
                index,
                label,
            } => {
                let (ty, from) = self.expr(subject, env, caller)?;
                let component =
                    self.types
                        .component(ty, *index)
                        .ok_or_else(|| FlowError::ProjectNonPair {
                            found: self.types.render(ty),
                        })?;
                let to = self.labeled(label, "proj");
                self.flows.push(Flow::Proj {
                    from,
                    index: *index,
                    ty,
                    to,
                });
                Ok((component, to))
            }
            Expr::Call {
                callee,
                site,
                arg,
                label,
            } => {
                let &f = self
                    .funs
                    .get(callee.as_str())
                    .ok_or_else(|| FlowError::Unbound(callee.clone()))?;
                let sig = self.sigs[f];
                let site = *self.site_ids.entry(site).or_insert_with(|| {
                    self.sites.push(Site {
                        name: site.clone(),
                        caller,
                        callee: f,
                    });
                    self.sites.len() - 1
                });
                self.calls.push((caller, f));
                match (arg, sig.param) {
                    (Some(a), Some((param_ty, param))) => {
                        let (arg_ty, arg) = self.expr(a, env, caller)?;
                        self.check(param_ty, arg_ty, || format!("argument of `{callee}`"))?;
                        self.flows.push(Flow::Arg { site, arg, param });
                    }
                    (None, None) => {}
                    (arg, param) => {
                        let count = |some: bool| if some { "one argument" } else { "no argument" };
                        return Err(FlowError::TypeMismatch {
                            context: format!("arity of call to `{callee}`"),
                            expected: count(param.is_some()).to_owned(),
                            found: count(arg.is_some()).to_owned(),
                        });
                    }
                }
                let (ret_ty, ret) = sig.ret;
                let to = self.labeled(label, "call");
                self.flows.push(Flow::Ret { site, ret, to });
                Ok((ret_ty, to))
            }
            Expr::Let { name, bound, body } => {
                let bound = self.expr(bound, env, caller)?;
                let mut inner = env.clone();
                inner.insert(name, bound);
                self.expr(body, &inner, caller)
            }
            Expr::Choice { fst, snd, label } => {
                let (t1, fst) = self.expr(fst, env, caller)?;
                let (t2, snd) = self.expr(snd, env, caller)?;
                self.check(t1, t2, || "arms of choice".to_owned())?;
                let to = self.labeled(label, "choice");
                self.flows.push(Flow::Copy { from: fst, to });
                self.flows.push(Flow::Copy { from: snd, to });
                Ok((t1, to))
            }
        }
    }
}

/// How an encoding writes the four flows in which §7.2 and §7.6 differ.
enum Encoding {
    /// §7.2: a pair's components enter it under `[ᵢ_π` and a projection
    /// leaves under `]ᵢ_π`; a call wraps its argument in its site's
    /// constructor `o_i` and projects the return back out of it.
    Primary {
        brackets: BracketLang,
        sites: Vec<ConsId>,
    },
    /// §7.6: one binary constructor per pair type; a call's argument
    /// enters under `[ᵢ` and its return leaves under `]ᵢ` (both ε at a
    /// recursive site).
    Dual {
        pairs: HashMap<TypeId, ConsId>,
        calls: Vec<(AnnId, AnnId)>,
    },
}

/// The §7 context-sensitive, field-sensitive flow analysis of a MiniLam
/// program, under either encoding: [`FlowAnalysis::new`], the paper's
/// primary analysis, or [`FlowAnalysis::dual`]. Both share the type
/// checking, the program points and every query.
///
/// See the crate-level documentation for an example.
#[derive(Debug)]
pub struct FlowAnalysis {
    sys: System<MonoidAlgebra>,
    types: TypeTable,
    labels: HashMap<String, VarId>,
    probes: HashMap<String, ConsId>,
}

impl FlowAnalysis {
    /// Type-checks `program` and generates the primary analysis's
    /// constraints (§7.2): polymorphic recursion (calls and returns
    /// matched by per-site constructors) combined with non-structural
    /// subtyping (type-constructor matching as a regular bracket
    /// language, Figure 10).
    ///
    /// # Errors
    ///
    /// Returns type errors ([`FlowError::TypeMismatch`],
    /// [`FlowError::ProjectNonPair`], [`FlowError::Unbound`]) and
    /// [`FlowError::MissingMain`].
    pub fn new(program: &Program) -> Result<FlowAnalysis> {
        let walk = Walk::run(program)?;
        let brackets = BracketLang::build(&walk.types);
        let mut sys = System::new(MonoidAlgebra::new(&brackets.dfa));
        let sites = walk
            .sites
            .iter()
            .map(|s| sys.constructor(&format!("o_{}", s.name), &[Variance::Covariant]))
            .collect();
        Ok(FlowAnalysis::write(
            walk,
            sys,
            &Encoding::Primary { brackets, sites },
        ))
    }

    /// Type-checks `program` and generates the dual analysis's
    /// constraints (§7.6): an n-ary `pair` constructor per pair type
    /// carries type matching, and call/return brackets `[ᵢ`/`]ᵢ` are the
    /// regular annotations, with recursive call cycles approximated by ε
    /// (monomorphically — the standard approximation). The dual finds
    /// every flow the primary analysis finds, and on programs without
    /// recursion exactly those.
    ///
    /// # Errors
    ///
    /// As [`FlowAnalysis::new`].
    pub fn dual(program: &Program) -> Result<FlowAnalysis> {
        let walk = Walk::run(program)?;
        let machine = CallBrackets::build(&walk.sites, &walk.calls);
        let mut sys = System::new(MonoidAlgebra::new(&machine.dfa));
        let pairs = walk
            .types
            .pairs()
            .map(|pt| {
                let c = sys.constructor(
                    &format!("pair_t{}", pt.index()),
                    &[Variance::Covariant, Variance::Covariant],
                );
                (pt, c)
            })
            .collect();
        let calls = machine
            .symbols
            .iter()
            .map(|symbols| match *symbols {
                Some((open, close)) => (
                    sys.algebra_mut().word(&[open]),
                    sys.algebra_mut().word(&[close]),
                ),
                None => (sys.algebra().identity(), sys.algebra().identity()),
            })
            .collect();
        Ok(FlowAnalysis::write(
            walk,
            sys,
            &Encoding::Dual { pairs, calls },
        ))
    }

    /// Creates a variable per program point and writes every flow.
    fn write(walk: Walk<'_>, mut sys: System<MonoidAlgebra>, enc: &Encoding) -> FlowAnalysis {
        let vars: Vec<VarId> = walk.points.iter().map(|name| sys.var(name)).collect();
        let var = |p: Point| SetExpr::var(vars[p]);
        for &flow in &walk.flows {
            match (flow, enc) {
                (Flow::Lit { value, to }, _) => {
                    // A distinct constant per literal occurrence, so alias
                    // queries (§7.5) see concrete abstract values.
                    let lit = sys.constructor(&format!("lit_{value}_{to}"), &[]);
                    well_formed(sys.add(SetExpr::cons(lit, []), var(to)));
                }
                (Flow::Copy { from, to }, _) => well_formed(sys.add(var(from), var(to))),
                // tl(σ₁) ⊆^{[1_π} P and tl(σ₂) ⊆^{[2_π} P (§7.2.2).
                (Flow::Pair { fst, snd, ty, to }, Encoding::Primary { brackets, .. }) => {
                    for (i, part) in [fst, snd].into_iter().enumerate() {
                        let open = sys.algebra_mut().word(&[brackets.open(i, ty)]);
                        well_formed(sys.add_ann(var(part), var(to), open));
                    }
                }
                // pair(A, Y) ⊆ H: one n-ary constructor (§7.6).
                (Flow::Pair { fst, snd, ty, to }, Encoding::Dual { pairs, .. }) => {
                    let pair = SetExpr::cons_vars(pairs[&ty], [vars[fst], vars[snd]]);
                    well_formed(sys.add(pair, var(to)));
                }
                // P ⊆^{]ᵢ_π} Z.
                (
                    Flow::Proj {
                        from,
                        index,
                        ty,
                        to,
                    },
                    Encoding::Primary { brackets, .. },
                ) => {
                    let close = sys.algebra_mut().word(&[brackets.close(index, ty)]);
                    well_formed(sys.add_ann(var(from), var(to), close));
                }
                // pair⁻ⁱ(T) ⊆ V.
                (
                    Flow::Proj {
                        from,
                        index,
                        ty,
                        to,
                    },
                    Encoding::Dual { pairs, .. },
                ) => well_formed(sys.add(SetExpr::proj(pairs[&ty], index, vars[from]), var(to))),
                // o_i(A) ⊆ P_f (Fig. 12: o_i(B) ⊆ Y).
                (Flow::Arg { site, arg, param }, Encoding::Primary { sites, .. }) => {
                    well_formed(sys.add(SetExpr::cons_vars(sites[site], [vars[arg]]), var(param)));
                }
                // B ⊆^{[ᵢ} Y.
                (Flow::Arg { site, arg, param }, Encoding::Dual { calls, .. }) => {
                    well_formed(sys.add_ann(var(arg), var(param), calls[site].0));
                }
                // o_i⁻¹(R_f) ⊆ T (Fig. 12: o_i⁻¹(H) ⊆ T).
                (Flow::Ret { site, ret, to }, Encoding::Primary { sites, .. }) => {
                    well_formed(sys.add(SetExpr::proj(sites[site], 0, vars[ret]), var(to)));
                }
                // H ⊆^{]ᵢ} T.
                (Flow::Ret { site, ret, to }, Encoding::Dual { calls, .. }) => {
                    well_formed(sys.add_ann(var(ret), var(to), calls[site].1));
                }
            }
        }
        let labels = walk
            .labels
            .into_iter()
            .map(|(label, p)| (label, vars[p]))
            .collect();
        FlowAnalysis {
            sys,
            types: walk.types,
            labels,
            probes: HashMap::new(),
        }
    }

    /// Runs constraint resolution.
    pub fn solve(&mut self) {
        self.sys.solve();
    }

    /// The set variable of a source label.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownLabel`] if no expression carries it.
    pub fn label_var(&self, label: &str) -> Result<VarId> {
        self.labels
            .get(label)
            .copied()
            .ok_or_else(|| FlowError::UnknownLabel(label.to_owned()))
    }

    /// Whether values *flow* from `src` to `dst` along a matched path
    /// (§7.3): a fresh constant seeded at `src` appears at `dst`'s top
    /// level with a balanced (accepting) bracket annotation.
    ///
    /// # Panics
    ///
    /// Panics if either label is unknown (use [`FlowAnalysis::label_var`]
    /// to validate labels first when they come from user input).
    pub fn flows(&mut self, src: &str, dst: &str) -> bool {
        let probe = self.probe(src);
        let dst_var = known_label(self.label_var(dst));
        self.sys
            .lower_bound_annotations(dst_var, probe)
            .iter()
            .any(|&a| self.sys.algebra().is_accepting(a))
    }

    /// Like the matched query but along *PN paths* (§7.3): the value may
    /// sit inside unreturned calls or unprojected structure (the P part)
    /// and may have escaped through unmatched returns/projections (the N
    /// part). Acceptance is "substring of a matched flow" — for the
    /// bracket languages here, exactly the N-then-P words.
    ///
    /// # Panics
    ///
    /// Panics if either label is unknown, as [`Self::flows`] does.
    pub fn flows_pn(&mut self, src: &str, dst: &str) -> bool {
        let probe = self.probe(src);
        let dst_var = known_label(self.label_var(dst));
        let anns = self.sys.pn_occurrence_annotations(dst_var, probe);
        anns.iter().any(|&a| self.sys.algebra().is_useful(a))
    }

    /// Stack-aware alias query (§7.5): do the two labels' solutions share
    /// a ground term? Under the primary analysis, term sets encode calling
    /// contexts, so labels whose flat value sets overlap can still be
    /// proven non-aliased. Under the dual the contexts are annotations,
    /// which the intersection ignores, so it answers the
    /// context-insensitive question.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownLabel`] for an unknown label.
    pub fn may_alias(&mut self, l1: &str, l2: &str) -> Result<bool> {
        let v1 = self.label_var(l1)?;
        let v2 = self.label_var(l2)?;
        Ok(self.sys.intersect_nonempty(v1, v2))
    }

    fn probe(&mut self, src: &str) -> ConsId {
        if let Some(&c) = self.probes.get(src) {
            return c;
        }
        let var = known_label(self.label_var(src));
        let c = self.sys.constructor(&format!("probe_{src}"), &[]);
        well_formed(self.sys.add(SetExpr::cons(c, []), SetExpr::var(var)));
        self.sys.solve();
        self.probes.insert(src.to_owned(), c);
        c
    }

    /// The underlying constraint system.
    pub fn system(&self) -> &System<MonoidAlgebra> {
        &self.sys
    }

    /// The interned type table (for diagnostics).
    pub fn types(&self) -> &TypeTable {
        &self.types
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Program;

    fn analyze(src: &str) -> FlowAnalysis {
        let program = Program::parse(src).unwrap();
        let mut a = FlowAnalysis::new(&program).unwrap();
        a.solve();
        a
    }

    const FIG11: &str = "fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }\n\
                         fn main() -> int { pair[i](2@B)@T.2@V }";

    #[test]
    fn figure_11_flow_b_to_v() {
        let mut a = analyze(FIG11);
        assert!(a.flows("B", "V"), "the paper's §7.4 derivation");
        assert!(!a.flows("A", "V"), "component 1 does not reach .2");
        // Y → V crosses an *unmatched return* (an N-path); the solver
        // models matched and P-paths (unreturned calls), so this is not
        // reported — see DESIGN.md.
        assert!(!a.flows("Y", "V"));
        // B → Y enters the callee without returning: a P-path, visible to
        // the PN query but not the matched one.
        assert!(!a.flows("B", "Y"));
    }

    #[test]
    fn partially_matched_flow_into_callee() {
        let mut a = analyze(FIG11);
        // B flows into the callee's parameter y, but wrapped in o_i (the
        // call never "returns" on this path): PN yes, matched no... except
        // the parameter label Y is inside the callee where the probe is
        // wrapped.
        assert!(a.flows_pn("B", "Y"));
    }

    #[test]
    fn projection_components_do_not_mix() {
        let mut a = analyze("fn main() -> int { (1@ONE, 2@TWO).1@FST }");
        assert!(a.flows("ONE", "FST"));
        assert!(!a.flows("TWO", "FST"));
    }

    #[test]
    fn polymorphic_recursion_contexts_separated() {
        // id is used at two sites with different values; matched flow must
        // keep them apart.
        let mut a = analyze(
            "fn id(x: int) -> int { x }\n\
             fn main() -> int { (id[s1](1@L1)@R1, id[s2](2@L2)@R2).1 }",
        );
        assert!(a.flows("L1", "R1"));
        assert!(a.flows("L2", "R2"));
        assert!(!a.flows("L1", "R2"), "cross-context flow excluded");
        assert!(!a.flows("L2", "R1"));
    }

    #[test]
    fn recursive_function_terminates() {
        let mut a = analyze(
            "fn rec(x: int) -> int { rec[r](x@IN)@OUT }\n\
             fn main() -> int { rec[top](5@SEED)@RES }",
        );
        // The recursion never returns a base value; SEED flows into IN
        // (partially matched) but no matched flow reaches RES.
        assert!(a.flows_pn("SEED", "IN"));
        assert!(!a.flows("SEED", "RES"));
    }

    #[test]
    fn nested_pair_flow() {
        let mut a = analyze(
            "fn mk(x: int) -> ((int, int), int) { ((x@X1, 2)@INNER, 3)@OUTER }\n\
             fn main() -> int { mk[m](7@SRC)@GOT.1.1@DST }",
        );
        assert!(a.flows("SRC", "DST"));
        assert!(!a.flows("SRC", "OUTER"), "SRC is nested, not at top level");
    }

    #[test]
    fn stack_aware_alias_negative() {
        // Two call sites exchanging two constants: the same flat values,
        // disjoint term sets (the §7.5 idea transplanted to MiniLam).
        let mut a = analyze(
            "fn id(x: int) -> int { x@MID }\n\
             fn main() -> int { (id[s1](1@ONE)@R1, id[s2](2@TWO)@R2).1 }",
        );
        assert!(a.may_alias("R1", "R1").unwrap(), "a label aliases itself");
        assert!(!a.may_alias("R1", "R2").unwrap(), "distinct literals");
    }

    #[test]
    fn let_bindings_flow_through() {
        let mut a = analyze(
            "fn main() -> int {\n\
                 let p = (1@ONE, 2@TWO)@P;\n\
                 let x = p.1@FST;\n\
                 x@USE\n\
             }",
        );
        assert!(a.flows("ONE", "USE"));
        assert!(!a.flows("TWO", "USE"));
        assert!(a.flows("FST", "USE"));
    }

    #[test]
    fn let_shadowing_uses_innermost_binding() {
        let mut a = analyze(
            "fn main() -> int {\n\
                 let x = 1@OUTER;\n\
                 let x = 2@INNER;\n\
                 x@USE\n\
             }",
        );
        assert!(a.flows("INNER", "USE"));
        assert!(!a.flows("OUTER", "USE"));
    }

    #[test]
    fn choice_merges_both_arms() {
        let mut a = analyze("fn main() -> int { choice(1@L, 2@R)@C }");
        assert!(a.flows("L", "C"));
        assert!(a.flows("R", "C"));
    }

    #[test]
    fn choice_with_calls_remains_context_sensitive() {
        // Both arms call id at different sites; the merge must not create
        // cross-context flow.
        let mut a = analyze(
            "fn id(x: int) -> int { x }\n\
             fn main() -> int {\n\
                 choice(id[s1](1@L1)@R1, id[s2](2@L2)@R2)@C\n\
             }",
        );
        assert!(a.flows("L1", "C"));
        assert!(a.flows("L2", "C"));
        assert!(!a.flows("L1", "R2"));
    }

    #[test]
    fn choice_arms_must_agree_in_type() {
        let program = Program::parse("fn main() -> int { choice(1, (2, 3)).1 }");
        if let Ok(p) = program {
            assert!(matches!(
                FlowAnalysis::new(&p),
                Err(FlowError::TypeMismatch { .. })
            ));
        }
    }

    #[test]
    fn type_errors_reported() {
        let program = Program::parse("fn main() -> int { (1, 2) }").unwrap();
        assert!(matches!(
            FlowAnalysis::new(&program),
            Err(FlowError::TypeMismatch { .. })
        ));
        let program = Program::parse("fn main() -> int { 1 .1 }").unwrap();
        assert!(matches!(
            FlowAnalysis::new(&program),
            Err(FlowError::ProjectNonPair { .. })
        ));
        let program = Program::parse("fn main() -> int { nope }").unwrap();
        assert!(matches!(
            FlowAnalysis::new(&program),
            Err(FlowError::Unbound(_))
        ));
        let program = Program::parse("fn f() -> int { 1 }").unwrap();
        assert!(matches!(
            FlowAnalysis::new(&program),
            Err(FlowError::MissingMain)
        ));
    }

    #[test]
    fn unknown_labels_rejected() {
        let a = analyze(FIG11);
        assert!(matches!(
            a.label_var("NOPE"),
            Err(FlowError::UnknownLabel(_))
        ));
    }
}
