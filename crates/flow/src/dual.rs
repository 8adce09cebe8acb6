//! The dual analysis (§7.6): call/return brackets as annotations, an
//! n-ary `pair` constructor for types.
//!
//! This is the widely-used approximation the paper contrasts with its
//! primary analysis: context sensitivity comes from *annotations* `[ᵢ`/`]ᵢ`
//! per instantiation site, approximated to a regular language by treating
//! recursive call cycles monomorphically (their sites get ε annotations),
//! while field sensitivity is exact via a binary `pair` constructor and
//! its projections (§7.6's point that an n-ary constructor discovers each
//! component edge once).

use std::collections::{HashMap, HashSet};

use rasc_automata::{Alphabet, Dfa, SymbolId};
use rasc_core::algebra::{Algebra, MonoidAlgebra};
use rasc_core::{ConsId, SetExpr, System, VarId, Variance};

use crate::ast::{Expr, Program};
use crate::error::{FlowError, Result};
use crate::types::{TypeId, TypeTable};
use crate::{known_label, well_formed};

#[derive(Debug, Clone, Copy)]
struct FunSig {
    param_ty: Option<TypeId>,
    param_label: Option<VarId>,
    ret_ty: TypeId,
    ret_label: VarId,
}

/// A call site discovered in the program.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Site {
    name: String,
    caller: String,
    callee: String,
    /// Part of a recursive cycle ⇒ ε-annotated (monomorphic).
    recursive: bool,
}

/// The §7.6 dual flow analysis.
///
/// # Example
///
/// ```
/// use rasc_flow::{DualAnalysis, Program};
///
/// let src = r#"
///     fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }
///     fn main() -> int { pair[i](2@B)@T.2@V }
/// "#;
/// let program = Program::parse(src)?;
/// let mut dual = DualAnalysis::new(&program)?;
/// dual.solve();
/// assert!(dual.flows("B", "V"));
/// assert!(!dual.flows("A", "V"));
/// # Ok::<(), rasc_flow::FlowError>(())
/// ```
#[derive(Debug)]
pub struct DualAnalysis {
    sys: System<MonoidAlgebra>,
    labels: HashMap<String, VarId>,
    probes: HashMap<String, ConsId>,
    /// `[ᵢ` / `]ᵢ` symbols per (non-recursive) site name.
    open_syms: HashMap<String, SymbolId>,
    close_syms: HashMap<String, SymbolId>,
    pair_cons: HashMap<TypeId, ConsId>,
}

impl DualAnalysis {
    /// Type-checks `program` and generates the dual constraints.
    ///
    /// # Errors
    ///
    /// Same error conditions as [`crate::FlowAnalysis::new`].
    pub fn new(program: &Program) -> Result<DualAnalysis> {
        if program.find("main").is_none() {
            return Err(FlowError::MissingMain);
        }
        let mut types = TypeTable::new();
        crate::analysis::collect_types(program, &mut types)?;

        let sites = collect_sites(program);
        let (sigma, dfa, open_syms, close_syms) = call_bracket_machine(&sites);
        let _ = sigma;
        let mut sys: System<MonoidAlgebra> = System::new(MonoidAlgebra::new(&dfa));

        // Pair constructors per pair type.
        let mut pair_cons = HashMap::new();
        for pt in types.pairs().collect::<Vec<_>>() {
            let c = sys.constructor(
                &format!("pair_t{}", pt.index()),
                &[Variance::Covariant, Variance::Covariant],
            );
            pair_cons.insert(pt, c);
        }

        let mut sigs: HashMap<String, FunSig> = HashMap::new();
        for f in &program.funs {
            let (param_ty, param_label) = match &f.param {
                Some((_, ty)) => (
                    Some(types.intern(ty)),
                    Some(sys.var(&format!("{}::param", f.name))),
                ),
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

        let site_map: HashMap<&str, &Site> = sites.iter().map(|s| (s.name.as_str(), s)).collect();
        let mut dual = DualAnalysis {
            sys,
            labels: HashMap::new(),
            probes: HashMap::new(),
            open_syms,
            close_syms,
            pair_cons,
        };

        for f in &program.funs {
            let sig = sigs[&f.name];
            let mut env: HashMap<&str, (TypeId, VarId)> = HashMap::new();
            if let (Some((name, _)), Some(t), Some(l)) = (&f.param, sig.param_ty, sig.param_label) {
                env.insert(name, (t, l));
            }
            let (body_ty, body_label) = dual.gen(&f.body, &env, &sigs, &site_map, &mut types)?;
            if body_ty != sig.ret_ty {
                return Err(FlowError::TypeMismatch {
                    context: format!("return of `{}`", f.name),
                    expected: types.render(sig.ret_ty),
                    found: types.render(body_ty),
                });
            }
            well_formed(
                dual.sys
                    .add(SetExpr::var(body_label), SetExpr::var(sig.ret_label)),
            );
        }
        Ok(dual)
    }

    fn fresh(&mut self, label: &Option<String>, what: &str) -> VarId {
        let v = self.sys.var(label.as_deref().unwrap_or(what));
        if let Some(l) = label {
            self.labels.insert(l.clone(), v);
        }
        v
    }

    fn gen(
        &mut self,
        e: &Expr,
        env: &HashMap<&str, (TypeId, VarId)>,
        sigs: &HashMap<String, FunSig>,
        site_map: &HashMap<&str, &Site>,
        types: &mut TypeTable,
    ) -> Result<(TypeId, VarId)> {
        match e {
            Expr::Int { value, label } => {
                let v = self.fresh(label, "int");
                let k = self.sys.num_vars();
                let lit = self.sys.constructor(&format!("lit_{value}_{k}"), &[]);
                well_formed(self.sys.add(SetExpr::cons(lit, []), SetExpr::var(v)));
                Ok((types.int(), v))
            }
            Expr::Var { name, label } => {
                let &(ty, src) = env
                    .get(name.as_str())
                    .ok_or_else(|| FlowError::Unbound(name.clone()))?;
                let v = self.fresh(label, name);
                well_formed(self.sys.add(SetExpr::var(src), SetExpr::var(v)));
                Ok((ty, v))
            }
            Expr::Pair { fst, snd, label } => {
                let (t1, l1) = self.gen(fst, env, sigs, site_map, types)?;
                let (t2, l2) = self.gen(snd, env, sigs, site_map, types)?;
                let pair_ty = types.pair(t1, t2);
                let p = self.fresh(label, "pair");
                let c = self.pair_cons[&pair_ty];
                // pair(A, Y) ⊆ H — one n-ary constructor (§7.6).
                well_formed(
                    self.sys
                        .add(SetExpr::cons_vars(c, [l1, l2]), SetExpr::var(p)),
                );
                Ok((pair_ty, p))
            }
            Expr::Proj {
                subject,
                index,
                label,
            } => {
                let (pt, pl) = self.gen(subject, env, sigs, site_map, types)?;
                let comp_ty =
                    types
                        .component(pt, *index)
                        .ok_or_else(|| FlowError::ProjectNonPair {
                            found: types.render(pt),
                        })?;
                let z = self.fresh(label, "proj");
                let c = self.pair_cons[&pt];
                // pair⁻ⁱ(T) ⊆ V.
                well_formed(self.sys.add(SetExpr::proj(c, *index, pl), SetExpr::var(z)));
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
                let site_info = site_map[site.as_str()];
                let (open, close) = if site_info.recursive {
                    (self.sys.algebra().identity(), self.sys.algebra().identity())
                } else {
                    (
                        self.sys.algebra_mut().word(&[self.open_syms[site]]),
                        self.sys.algebra_mut().word(&[self.close_syms[site]]),
                    )
                };
                match (arg, sig.param_ty, sig.param_label) {
                    (Some(a), Some(pt), Some(pl)) => {
                        let (at, al) = self.gen(a, env, sigs, site_map, types)?;
                        if at != pt {
                            return Err(FlowError::TypeMismatch {
                                context: format!("argument of `{callee}`"),
                                expected: types.render(pt),
                                found: types.render(at),
                            });
                        }
                        // B ⊆^{[ᵢ} Y.
                        well_formed(self.sys.add_ann(SetExpr::var(al), SetExpr::var(pl), open));
                    }
                    (None, None, None) => {}
                    _ => {
                        return Err(FlowError::TypeMismatch {
                            context: format!("arity of call to `{callee}`"),
                            expected: "matching arity".to_owned(),
                            found: "mismatched arity".to_owned(),
                        })
                    }
                }
                let t = self.fresh(label, "call");
                // H ⊆^{]ᵢ} T.
                well_formed(
                    self.sys
                        .add_ann(SetExpr::var(sig.ret_label), SetExpr::var(t), close),
                );
                Ok((sig.ret_ty, t))
            }
            Expr::Let { name, bound, body } => {
                let (bt, bl) = self.gen(bound, env, sigs, site_map, types)?;
                let mut inner = env.clone();
                inner.insert(name, (bt, bl));
                self.gen(body, &inner, sigs, site_map, types)
            }
            Expr::Choice { fst, snd, label } => {
                let (t1, l1) = self.gen(fst, env, sigs, site_map, types)?;
                let (t2, l2) = self.gen(snd, env, sigs, site_map, types)?;
                if t1 != t2 {
                    return Err(FlowError::TypeMismatch {
                        context: "arms of choice".to_owned(),
                        expected: types.render(t1),
                        found: types.render(t2),
                    });
                }
                let v = self.fresh(label, "choice");
                well_formed(self.sys.add(SetExpr::var(l1), SetExpr::var(v)));
                well_formed(self.sys.add(SetExpr::var(l2), SetExpr::var(v)));
                Ok((t1, v))
            }
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

    /// Matched flow from `src` to `dst`: the probe appears at `dst`'s top
    /// level with balanced call brackets.
    ///
    /// # Panics
    ///
    /// Panics on unknown labels (validate with
    /// [`DualAnalysis::label_var`] first for user input).
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
}

fn collect_sites(program: &Program) -> Vec<Site> {
    fn walk(e: &Expr, caller: &str, out: &mut Vec<(String, String, String)>) {
        match e {
            Expr::Int { .. } | Expr::Var { .. } => {}
            Expr::Pair { fst, snd, .. } => {
                walk(fst, caller, out);
                walk(snd, caller, out);
            }
            Expr::Proj { subject, .. } => walk(subject, caller, out),
            Expr::Call {
                callee, site, arg, ..
            } => {
                out.push((site.clone(), caller.to_owned(), callee.clone()));
                if let Some(a) = arg {
                    walk(a, caller, out);
                }
            }
            Expr::Let { bound, body, .. } => {
                walk(bound, caller, out);
                walk(body, caller, out);
            }
            Expr::Choice { fst, snd, .. } => {
                walk(fst, caller, out);
                walk(snd, caller, out);
            }
        }
    }
    let mut raw = Vec::new();
    for f in &program.funs {
        walk(&f.body, &f.name, &mut raw);
    }
    // Call-graph reachability, to mark recursive sites.
    let mut edges: HashMap<&str, HashSet<&str>> = HashMap::new();
    for (_, caller, callee) in &raw {
        edges.entry(caller).or_default().insert(callee);
    }
    let reaches = |from: &str, to: &str| -> bool {
        let mut seen: HashSet<&str> = HashSet::new();
        let mut stack = vec![from];
        while let Some(f) = stack.pop() {
            if f == to {
                return true;
            }
            if let Some(nexts) = edges.get(f) {
                for &n in nexts {
                    if seen.insert(n) {
                        stack.push(n);
                    }
                }
            }
        }
        false
    };
    let flags: Vec<bool> = raw
        .iter()
        .map(|(_, caller, callee)| caller == callee || reaches(callee, caller))
        .collect();
    let mut sites: Vec<Site> = Vec::new();
    for ((name, caller, callee), recursive) in raw.iter().cloned().zip(flags) {
        if sites.iter().any(|s| s.name == name) {
            continue; // reused site name: same instantiation
        }
        sites.push(Site {
            name,
            caller,
            callee,
            recursive,
        });
    }
    sites
}

/// Builds the bounded call-bracket machine: states are chains of open
/// (non-recursive) sites where each next call happens inside the previous
/// callee; the empty chain is the sole accepting state.
fn call_bracket_machine(
    sites: &[Site],
) -> (
    Alphabet,
    Dfa,
    HashMap<String, SymbolId>,
    HashMap<String, SymbolId>,
) {
    let mut sigma = Alphabet::new();
    let mut open_syms = HashMap::new();
    let mut close_syms = HashMap::new();
    let active: Vec<&Site> = sites.iter().filter(|s| !s.recursive).collect();
    for s in &active {
        open_syms.insert(s.name.clone(), sigma.intern(&format!("open_{}", s.name)));
        close_syms.insert(s.name.clone(), sigma.intern(&format!("close_{}", s.name)));
    }
    let mut dfa = Dfa::new(sigma.len());
    let s0 = dfa.add_state(true);
    let dead = dfa.add_state(false);
    dfa.set_start(s0);
    for sym in sigma.symbols() {
        dfa.set_transition(dead, sym, dead);
    }
    let mut chains: Vec<Vec<usize>> = vec![Vec::new()];
    let mut chain_ids: HashMap<Vec<usize>, usize> = HashMap::new();
    chain_ids.insert(Vec::new(), 0);
    let mut dfa_states = vec![s0];
    let mut i = 0;
    while i < chains.len() {
        let chain = chains[i].clone();
        let state = dfa_states[i];
        for (k, s) in active.iter().enumerate() {
            let open = open_syms[&s.name];
            let close = close_syms[&s.name];
            let open_valid = match chain.last() {
                None => true,
                Some(&top) => active[top].callee == s.caller,
            };
            if open_valid {
                let mut next = chain.clone();
                next.push(k);
                let idx = *chain_ids.entry(next.clone()).or_insert_with(|| {
                    chains.push(next);
                    dfa_states.push(dfa.add_state(false));
                    chains.len() - 1
                });
                dfa.set_transition(state, open, dfa_states[idx]);
            } else {
                dfa.set_transition(state, open, dead);
            }
            match chain.last() {
                Some(&top) if top == k => {
                    let prev = &chain[..chain.len() - 1];
                    let idx = chain_ids[prev];
                    dfa.set_transition(state, close, dfa_states[idx]);
                }
                _ => dfa.set_transition(state, close, dead),
            }
        }
        i += 1;
    }
    (sigma, dfa, open_syms, close_syms)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> DualAnalysis {
        let program = Program::parse(src).unwrap();
        let mut d = DualAnalysis::new(&program).unwrap();
        d.solve();
        d
    }

    const FIG11: &str = "fn pair(y: int) -> (int, int) { (1@A, y@Y)@P }\n\
                         fn main() -> int { pair[i](2@B)@T.2@V }";

    #[test]
    fn figure_11_dual_derivation() {
        // §7.6: B ⊆^{[i} Y, pair(A,Y) ⊆ H, H ⊆^{]i} T, pair⁻²(T) ⊆ V
        // implies B ⊆ V.
        let mut d = analyze(FIG11);
        assert!(d.flows("B", "V"));
        assert!(!d.flows("A", "V"), "A is the first component");
    }

    #[test]
    fn context_sensitivity_through_brackets() {
        let mut d = analyze(
            "fn id(x: int) -> int { x }\n\
             fn main() -> int { (id[s1](1@L1)@R1, id[s2](2@L2)@R2).1 }",
        );
        assert!(d.flows("L1", "R1"));
        assert!(!d.flows("L1", "R2"), "bracket mismatch [s1 ]s2");
    }

    #[test]
    fn recursion_approximated_monomorphically() {
        // Both call sites of `rec` are recursive (rec ↔ main? no: rec
        // reaches itself) — the inner site gets ε; contexts through it
        // merge, which is exactly the standard approximation.
        let mut d = analyze(
            "fn rec(x: int) -> int { rec[inner](x@IN)@OUT }\n\
             fn main() -> int { rec[top](5@SEED)@RES }",
        );
        // SEED flows into IN: [top is open, then the ε inner bracket.
        assert!(d.flows_pn("SEED", "IN") || !d.flows("SEED", "IN"));
        // No matched flow to RES (rec never returns a value).
        assert!(!d.flows("SEED", "RES"));
    }

    #[test]
    fn mutual_recursion_sites_epsilon() {
        let program = Program::parse(
            "fn even(x: int) -> int { odd[a](x) }\n\
             fn odd(x: int) -> int { even[b](x) }\n\
             fn main() -> int { even[top](1@S)@R }",
        )
        .unwrap();
        let sites = collect_sites(&program);
        let a = sites.iter().find(|s| s.name == "a").unwrap();
        let b = sites.iter().find(|s| s.name == "b").unwrap();
        let top = sites.iter().find(|s| s.name == "top").unwrap();
        assert!(a.recursive && b.recursive);
        assert!(!top.recursive);
    }

    #[test]
    fn fields_do_not_mix_via_constructor() {
        let mut d = analyze("fn main() -> int { (1@ONE, 2@TWO).1@FST }");
        assert!(d.flows("ONE", "FST"));
        assert!(!d.flows("TWO", "FST"));
    }

    #[test]
    fn value_inside_unprojected_pair_is_pn_only() {
        let mut d = analyze("fn main() -> (int, int) { (1@ONE, 2@TWO)@P }");
        assert!(!d.flows("ONE", "P"), "wrapped in the pair constructor");
        assert!(d.flows_pn("ONE", "P"));
    }
}
