//! The primary flow analysis (§7.2–§7.5): calls as terms, type brackets
//! as regular annotations.

use std::collections::HashMap;

use rasc_core::algebra::{Algebra, MonoidAlgebra};
use rasc_core::{ConsId, SetExpr, System, VarId, Variance};

use crate::ast::{Expr, Program};
use crate::brackets::BracketLang;
use crate::error::{FlowError, Result};
use crate::types::{TypeId, TypeTable};
use crate::{known_label, well_formed};

/// Per-function signature labels: one top-level label for the parameter
/// and one for the return (constraints extend only to top-level
/// constructors, §7.2).
#[derive(Debug, Clone, Copy)]
struct FunSig {
    param_ty: Option<TypeId>,
    param_label: Option<VarId>,
    ret_ty: TypeId,
    ret_label: VarId,
}

/// The paper's primary context-sensitive, field-sensitive flow analysis:
/// polymorphic recursion (calls/returns matched by per-site constructors)
/// combined with non-structural subtyping (type-constructor matching as a
/// regular bracket language).
///
/// See the crate-level documentation for an example.
#[derive(Debug)]
pub struct FlowAnalysis {
    sys: System<MonoidAlgebra>,
    brackets: BracketLang,
    types: TypeTable,
    labels: HashMap<String, VarId>,
    label_types: HashMap<String, TypeId>,
    probes: HashMap<String, ConsId>,
}

impl FlowAnalysis {
    /// Type-checks `program` and generates its constraints.
    ///
    /// # Errors
    ///
    /// Returns type errors ([`FlowError::TypeMismatch`],
    /// [`FlowError::ProjectNonPair`], [`FlowError::Unbound`]) and
    /// [`FlowError::MissingMain`].
    pub fn new(program: &Program) -> Result<FlowAnalysis> {
        if program.find("main").is_none() {
            return Err(FlowError::MissingMain);
        }
        // Intern every type occurring anywhere: declared signatures plus
        // the types of all subexpressions (a checking pre-pass), so the
        // bracket automaton covers every pair the program constructs.
        let mut types = TypeTable::new();
        collect_types(program, &mut types)?;
        let brackets = BracketLang::build(&types);
        let mut sys: System<MonoidAlgebra> = System::new(MonoidAlgebra::new(&brackets.dfa));

        // Function signatures first (mutual recursion).
        let mut sigs: HashMap<String, FunSig> = HashMap::new();
        for f in &program.funs {
            let (param_ty, param_label) = match &f.param {
                Some((_, ty)) => {
                    let t = types.intern(ty);
                    (Some(t), Some(sys.var(&format!("{}::param", f.name))))
                }
                None => (None, None),
            };
            let ret_ty = types.intern(&f.ret);
            let ret_label = sys.var(&format!("{}::ret", f.name));
            sigs.insert(
                f.name.clone(),
                FunSig {
                    param_ty,
                    param_label,
                    ret_ty,
                    ret_label,
                },
            );
        }

        let mut analysis = FlowAnalysis {
            sys,
            brackets,
            types,
            labels: HashMap::new(),
            label_types: HashMap::new(),
            probes: HashMap::new(),
        };

        // Generate constraints per function body.
        let mut sites: HashMap<String, ConsId> = HashMap::new();
        for f in &program.funs {
            let sig = sigs[&f.name];
            let mut env: HashMap<&str, (TypeId, VarId)> = HashMap::new();
            if let (Some((name, _)), Some(t), Some(l)) = (&f.param, sig.param_ty, sig.param_label) {
                env.insert(name, (t, l));
            }
            let (body_ty, body_label) = analysis.gen(&f.body, &env, &sigs, &mut sites)?;
            if body_ty != sig.ret_ty {
                return Err(FlowError::TypeMismatch {
                    context: format!("return of `{}`", f.name),
                    expected: analysis.types.render(sig.ret_ty),
                    found: analysis.types.render(body_ty),
                });
            }
            well_formed(
                analysis
                    .sys
                    .add(SetExpr::var(body_label), SetExpr::var(sig.ret_label)),
            );
        }
        Ok(analysis)
    }

    fn fresh(&mut self, label: &Option<String>, ty: TypeId, what: &str) -> VarId {
        let v = self.sys.var(label.as_deref().unwrap_or(what));
        if let Some(l) = label {
            self.labels.insert(l.clone(), v);
            self.label_types.insert(l.clone(), ty);
        }
        v
    }

    fn gen(
        &mut self,
        e: &Expr,
        env: &HashMap<&str, (TypeId, VarId)>,
        sigs: &HashMap<String, FunSig>,
        sites: &mut HashMap<String, ConsId>,
    ) -> Result<(TypeId, VarId)> {
        match e {
            Expr::Int { value, label } => {
                let ty = self.types.int();
                let v = self.fresh(label, ty, "int");
                // Seed a distinct constant per literal occurrence so alias
                // queries (§7.5) see concrete abstract values.
                let k = self.sys.num_vars();
                let lit = self.sys.constructor(&format!("lit_{value}_{k}"), &[]);
                well_formed(self.sys.add(SetExpr::cons(lit, []), SetExpr::var(v)));
                Ok((ty, v))
            }
            Expr::Var { name, label } => {
                let &(ty, src) = env
                    .get(name.as_str())
                    .ok_or_else(|| FlowError::Unbound(name.clone()))?;
                let v = self.fresh(label, ty, name);
                well_formed(self.sys.add(SetExpr::var(src), SetExpr::var(v)));
                Ok((ty, v))
            }
            Expr::Pair { fst, snd, label } => {
                let (t1, l1) = self.gen(fst, env, sigs, sites)?;
                let (t2, l2) = self.gen(snd, env, sigs, sites)?;
                // The pair type must already be interned (it is a subterm
                // of some declared type, or we intern it now for
                // expression-local pairs).
                let pair_ty = self.pair_type(t1, t2)?;
                let p = self.fresh(label, pair_ty, "pair");
                // tl(σ₁) ⊆^{[1_π} P and tl(σ₂) ⊆^{[2_π} P (§7.2.2).
                let a1 = self.bracket_open(0, pair_ty);
                let a2 = self.bracket_open(1, pair_ty);
                well_formed(self.sys.add_ann(SetExpr::var(l1), SetExpr::var(p), a1));
                well_formed(self.sys.add_ann(SetExpr::var(l2), SetExpr::var(p), a2));
                Ok((pair_ty, p))
            }
            Expr::Proj {
                subject,
                index,
                label,
            } => {
                let (pt, pl) = self.gen(subject, env, sigs, sites)?;
                let comp_ty =
                    self.types
                        .component(pt, *index)
                        .ok_or_else(|| FlowError::ProjectNonPair {
                            found: self.types.render(pt),
                        })?;
                let z = self.fresh(label, comp_ty, "proj");
                // P ⊆^{]ᵢ_π} Z.
                let a = self.bracket_close(*index, pt);
                well_formed(self.sys.add_ann(SetExpr::var(pl), SetExpr::var(z), a));
                Ok((comp_ty, z))
            }
            Expr::Call {
                callee,
                site,
                arg,
                label,
            } => {
                let sig = *sigs
                    .get(callee)
                    .ok_or_else(|| FlowError::Unbound(callee.clone()))?;
                // Per-site constructor o_i (§7.2.1).
                let o_i = match sites.get(site) {
                    Some(&c) => c,
                    None => {
                        let c = self
                            .sys
                            .constructor(&format!("o_{site}"), &[Variance::Covariant]);
                        sites.insert(site.clone(), c);
                        c
                    }
                };
                match (arg, sig.param_ty, sig.param_label) {
                    (Some(a), Some(pt), Some(pl)) => {
                        let (at, al) = self.gen(a, env, sigs, sites)?;
                        if at != pt {
                            return Err(FlowError::TypeMismatch {
                                context: format!("argument of `{callee}`"),
                                expected: self.types.render(pt),
                                found: self.types.render(at),
                            });
                        }
                        // o_i(A) ⊆ P_f (Fig. 12: o_i(B) ⊆ Y).
                        well_formed(
                            self.sys
                                .add(SetExpr::cons_vars(o_i, [al]), SetExpr::var(pl)),
                        );
                    }
                    (None, None, None) => {}
                    _ => {
                        return Err(FlowError::TypeMismatch {
                            context: format!("arity of call to `{callee}`"),
                            expected: if sig.param_ty.is_some() {
                                "one argument".to_owned()
                            } else {
                                "no argument".to_owned()
                            },
                            found: if arg.is_some() {
                                "one argument".to_owned()
                            } else {
                                "no argument".to_owned()
                            },
                        })
                    }
                }
                let t = self.fresh(label, sig.ret_ty, "call");
                // o_i⁻¹(R_f) ⊆ T (Fig. 12: o_i⁻¹(H) ⊆ T).
                well_formed(
                    self.sys
                        .add(SetExpr::proj(o_i, 0, sig.ret_label), SetExpr::var(t)),
                );
                Ok((sig.ret_ty, t))
            }
            Expr::Let { name, bound, body } => {
                let (bt, bl) = self.gen(bound, env, sigs, sites)?;
                let mut inner = env.clone();
                inner.insert(name, (bt, bl));
                self.gen(body, &inner, sigs, sites)
            }
            Expr::Choice { fst, snd, label } => {
                let (t1, l1) = self.gen(fst, env, sigs, sites)?;
                let (t2, l2) = self.gen(snd, env, sigs, sites)?;
                if t1 != t2 {
                    return Err(FlowError::TypeMismatch {
                        context: "arms of choice".to_owned(),
                        expected: self.types.render(t1),
                        found: self.types.render(t2),
                    });
                }
                let v = self.fresh(label, t1, "choice");
                well_formed(self.sys.add(SetExpr::var(l1), SetExpr::var(v)));
                well_formed(self.sys.add(SetExpr::var(l2), SetExpr::var(v)));
                Ok((t1, v))
            }
        }
    }

    fn pair_type(&mut self, t1: TypeId, t2: TypeId) -> Result<TypeId> {
        let before = self.types.all().count();
        let id = self.types.pair(t1, t2);
        if self.types.all().count() != before {
            // The collect_types pre-pass interns every expression type, so
            // a fresh pair type here is a bug in the pre-pass.
            return Err(FlowError::Internal(format!(
                "pair type {} missed by the type-collection pre-pass",
                self.types.render(id)
            )));
        }
        Ok(id)
    }

    fn bracket_open(&mut self, component: usize, pair: TypeId) -> rasc_core::algebra::AnnId {
        let sym = self.brackets.open(component, pair);
        self.sys.algebra_mut().word(&[sym])
    }

    fn bracket_close(&mut self, component: usize, pair: TypeId) -> rasc_core::algebra::AnnId {
        let sym = self.brackets.close(component, pair);
        self.sys.algebra_mut().word(&[sym])
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
    /// a ground term? Term sets encode calling contexts, so labels whose
    /// flat value sets overlap can still be proven non-aliased.
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

/// Type-checking pre-pass: interns the type of every subexpression so the
/// bracket automaton covers every pair the program can construct. The
/// error cases are re-checked (with labels available) during constraint
/// generation; this pass only needs the types.
pub(crate) fn collect_types(program: &Program, types: &mut TypeTable) -> Result<()> {
    // Signatures first.
    let mut sigs: HashMap<&str, (Option<TypeId>, TypeId)> = HashMap::new();
    for f in &program.funs {
        let param = f.param.as_ref().map(|(_, ty)| types.intern(ty));
        let ret = types.intern(&f.ret);
        sigs.insert(&f.name, (param, ret));
    }

    fn walk(
        e: &Expr,
        env: &HashMap<&str, TypeId>,
        sigs: &HashMap<&str, (Option<TypeId>, TypeId)>,
        types: &mut TypeTable,
    ) -> Result<TypeId> {
        match e {
            Expr::Int { .. } => Ok(types.int()),
            Expr::Var { name, .. } => env
                .get(name.as_str())
                .copied()
                .ok_or_else(|| FlowError::Unbound(name.clone())),
            Expr::Pair { fst, snd, .. } => {
                let t1 = walk(fst, env, sigs, types)?;
                let t2 = walk(snd, env, sigs, types)?;
                Ok(types.pair(t1, t2))
            }
            Expr::Proj { subject, index, .. } => {
                let pt = walk(subject, env, sigs, types)?;
                types
                    .component(pt, *index)
                    .ok_or_else(|| FlowError::ProjectNonPair {
                        found: types.render(pt),
                    })
            }
            Expr::Call { callee, arg, .. } => {
                let &(param, ret) = sigs
                    .get(callee.as_str())
                    .ok_or_else(|| FlowError::Unbound(callee.clone()))?;
                if let Some(a) = arg {
                    walk(a, env, sigs, types)?;
                }
                let _ = param;
                Ok(ret)
            }
            Expr::Let { name, bound, body } => {
                let bt = walk(bound, env, sigs, types)?;
                let mut inner = env.clone();
                inner.insert(name, bt);
                walk(body, &inner, sigs, types)
            }
            Expr::Choice { fst, snd, .. } => {
                let t1 = walk(fst, env, sigs, types)?;
                let t2 = walk(snd, env, sigs, types)?;
                if t1 != t2 {
                    return Err(FlowError::TypeMismatch {
                        context: "arms of choice".to_owned(),
                        expected: types.render(t1),
                        found: types.render(t2),
                    });
                }
                Ok(t1)
            }
        }
    }

    for f in &program.funs {
        let mut env: HashMap<&str, TypeId> = HashMap::new();
        if let Some((name, ty)) = &f.param {
            let t = types.intern(ty);
            env.insert(name, t);
        }
        walk(&f.body, &env, &sigs, types)?;
    }
    Ok(())
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
