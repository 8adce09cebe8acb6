//! The two-phase points-to analysis.
//!
//! **Phase 1 — resolution.** Andersen-style field-sensitive inclusion
//! constraints: a location is a `ref(get, set)` term (plus one
//! `fld_f(get, set)` term per program field) whose `get` position is
//! covariant and whose `set` position is contravariant; loads are
//! projections, stores flow into the contravariant position. The solver's
//! transitive closure *is* the points-to closure.
//!
//! **Phase 2 — context encoding (§7.5).** The solved value-flow graph is
//! replayed with locations as constants and per-call-site constructors
//! `o_i` wrapping argument/return flow. Points-to sets become term sets
//! (`{o₁(a), o₂(b)}`), and the stack-aware alias query is term-set
//! intersection. Flows discovered through pointers in phase 1 are replayed
//! context-insensitively (the monovariant approximation — the paper's
//! polymorphic treatment of §7.2.1 would wrap them too).

use std::collections::{HashMap, HashSet};

use rasc_automata::Dfa;
use rasc_core::algebra::MonoidAlgebra;
use rasc_core::{ConsId, SetExpr, SolverConfig, System, VarId, Variance};

use crate::ast::{Arg, Program, Stmt};
use crate::error::{PtrError, Result};
use crate::well_formed;

/// The trivial annotation machine: one accepting state, empty alphabet
/// (points-to constraints are unannotated; the framework degenerates to
/// plain set constraints).
fn trivial_machine() -> Dfa {
    let mut dfa = Dfa::new(0);
    let s = dfa.add_state(true);
    dfa.set_start(s);
    dfa
}

/// A solved points-to analysis; see the crate docs for an example.
#[derive(Debug)]
pub struct PointsTo {
    /// Phase-1 system (resolution).
    resolve: System<MonoidAlgebra>,
    /// Phase-2 system (context-encoded query sets).
    query: System<MonoidAlgebra>,
    /// `fn::var` → phase-1 variable.
    vars1: HashMap<String, VarId>,
    /// `fn::var` → phase-2 variable.
    vars2: HashMap<String, VarId>,
    /// Phase-1 location identity: the `get` contents variable of each
    /// location source → the location's display name.
    loc_of_contents: HashMap<VarId, String>,
}

impl PointsTo {
    /// Runs both phases on `program`.
    ///
    /// # Errors
    ///
    /// Returns [`PtrError::UnknownFunction`] / [`PtrError::ArityMismatch`]
    /// for bad calls.
    pub fn analyze(program: &Program) -> Result<PointsTo> {
        let fields: Vec<String> = program.fields().iter().map(|s| (*s).to_owned()).collect();

        // ---------- Phase 1: resolution ----------
        // Cycle elimination is off: the phase-2 replay matches solved
        // edges against recorded call-boundary pairs by variable identity,
        // which collapsing would blur.
        let config = SolverConfig {
            cycle_elimination: false,
        };
        let mut sys = System::with_config(MonoidAlgebra::new(&trivial_machine()), config);
        let r#ref = sys.constructor("ref", &[Variance::Covariant, Variance::Contravariant]);
        let fld: HashMap<String, ConsId> = fields
            .iter()
            .map(|f| {
                (
                    f.clone(),
                    sys.constructor(
                        &format!("fld_{f}"),
                        &[Variance::Covariant, Variance::Contravariant],
                    ),
                )
            })
            .collect();

        let mut vars1: HashMap<String, VarId> = HashMap::new();
        let mut loc_of_contents: HashMap<VarId, String> = HashMap::new();
        // Call-boundary edges to *exclude* from the phase-2 replay.
        let mut boundary: HashSet<(VarId, VarId)> = HashSet::new();
        // Recorded facts for phase 2: (target var name-id, location name).
        let mut loc_sources: Vec<(VarId, String)> = Vec::new();
        // Call records: (site, callee, arg vars (phase-1 ids), dst).
        struct CallRec {
            site: usize,
            callee: String,
            args: Vec<VarId>,
            dst: Option<VarId>,
        }
        let mut calls: Vec<CallRec> = Vec::new();

        let var = |sys: &mut System<MonoidAlgebra>,
                   vars: &mut HashMap<String, VarId>,
                   f: &str,
                   name: &str|
         -> VarId {
            let key = format!("{f}::{name}");
            if let Some(&v) = vars.get(&key) {
                return v;
            }
            let v = sys.var(&key);
            vars.insert(key, v);
            v
        };

        // Per-function return variable.
        let mut rets: HashMap<String, VarId> = HashMap::new();
        for f in &program.funs {
            let r = sys.var(&format!("{}::$ret", f.name));
            rets.insert(f.name.clone(), r);
            for p in &f.params {
                var(&mut sys, &mut vars1, &f.name, p);
            }
        }

        // Emit one location (ref + per-field terms) flowing into `target`.
        let emit_location =
            |sys: &mut System<MonoidAlgebra>,
             contents: VarId,
             name: &str,
             target: VarId,
             loc_sources: &mut Vec<(VarId, String)>,
             loc_of_contents: &mut HashMap<VarId, String>| {
                well_formed(sys.add(
                    SetExpr::cons_vars(r#ref, [contents, contents]),
                    SetExpr::var(target),
                ));
                loc_of_contents.insert(contents, name.to_owned());
                loc_sources.push((target, name.to_owned()));
                for cons in fld.values() {
                    // Per-(location, field) contents variable.
                    let fcontents = sys.var(&format!("{name}.$field{}", cons.index()));
                    well_formed(sys.add(
                        SetExpr::cons_vars(*cons, [fcontents, fcontents]),
                        SetExpr::var(target),
                    ));
                }
            };

        let mut site = 0usize;
        for f in &program.funs {
            for (k, s) in f.stmts.iter().enumerate() {
                match s {
                    Stmt::AddrOf { dst, of } => {
                        let d = var(&mut sys, &mut vars1, &f.name, dst);
                        let contents = var(&mut sys, &mut vars1, &f.name, of);
                        let name = format!("{}::{of}", f.name);
                        emit_location(
                            &mut sys,
                            contents,
                            &name,
                            d,
                            &mut loc_sources,
                            &mut loc_of_contents,
                        );
                    }
                    Stmt::Alloc { dst } => {
                        let d = var(&mut sys, &mut vars1, &f.name, dst);
                        let name = format!("{}::alloc#{k}", f.name);
                        let contents = sys.var(&format!("{name}.$contents"));
                        emit_location(
                            &mut sys,
                            contents,
                            &name,
                            d,
                            &mut loc_sources,
                            &mut loc_of_contents,
                        );
                    }
                    Stmt::Copy { dst, src } => {
                        let d = var(&mut sys, &mut vars1, &f.name, dst);
                        let s = var(&mut sys, &mut vars1, &f.name, src);
                        well_formed(sys.add(SetExpr::var(s), SetExpr::var(d)));
                    }
                    Stmt::Load { dst, src } => {
                        let d = var(&mut sys, &mut vars1, &f.name, dst);
                        let s = var(&mut sys, &mut vars1, &f.name, src);
                        well_formed(sys.add(SetExpr::proj(r#ref, 0, s), SetExpr::var(d)));
                    }
                    Stmt::Store { dst, src } => {
                        let d = var(&mut sys, &mut vars1, &f.name, dst);
                        let s = var(&mut sys, &mut vars1, &f.name, src);
                        let top = sys.var("$discard");
                        well_formed(sys.add(SetExpr::var(d), SetExpr::cons_vars(r#ref, [top, s])));
                    }
                    Stmt::FieldLoad { dst, base, field } => {
                        let d = var(&mut sys, &mut vars1, &f.name, dst);
                        let b = var(&mut sys, &mut vars1, &f.name, base);
                        well_formed(sys.add(SetExpr::proj(fld[field], 0, b), SetExpr::var(d)));
                    }
                    Stmt::FieldStore { base, field, src } => {
                        let b = var(&mut sys, &mut vars1, &f.name, base);
                        let s = var(&mut sys, &mut vars1, &f.name, src);
                        let top = sys.var("$discard");
                        well_formed(
                            sys.add(SetExpr::var(b), SetExpr::cons_vars(fld[field], [top, s])),
                        );
                    }
                    Stmt::Call { dst, callee, args } => {
                        let fun = program
                            .find(callee)
                            .ok_or_else(|| PtrError::UnknownFunction(callee.clone()))?;
                        if fun.params.len() != args.len() {
                            return Err(PtrError::ArityMismatch {
                                function: callee.clone(),
                                expected: fun.params.len(),
                                found: args.len(),
                            });
                        }
                        let mut arg_vars = Vec::new();
                        for (i, a) in args.iter().enumerate() {
                            // Materialize every argument as a temp so the
                            // boundary edge is identifiable for phase 2.
                            let t = sys.var(&format!("{}::$arg{site}_{i}", f.name));
                            match a {
                                Arg::Var(v) => {
                                    let av = var(&mut sys, &mut vars1, &f.name, v);
                                    well_formed(sys.add(SetExpr::var(av), SetExpr::var(t)));
                                }
                                Arg::AddrOf(of) => {
                                    let contents = var(&mut sys, &mut vars1, &f.name, of);
                                    let name = format!("{}::{of}", f.name);
                                    emit_location(
                                        &mut sys,
                                        contents,
                                        &name,
                                        t,
                                        &mut loc_sources,
                                        &mut loc_of_contents,
                                    );
                                }
                            }
                            let p = var(&mut sys, &mut vars1, callee, &fun.params[i]);
                            well_formed(sys.add(SetExpr::var(t), SetExpr::var(p)));
                            boundary.insert((t, p));
                            arg_vars.push(t);
                        }
                        let dst_var = match dst {
                            Some(d) => {
                                let dv = var(&mut sys, &mut vars1, &f.name, d);
                                let r = rets[callee.as_str()];
                                well_formed(sys.add(SetExpr::var(r), SetExpr::var(dv)));
                                boundary.insert((r, dv));
                                Some(dv)
                            }
                            None => None,
                        };
                        calls.push(CallRec {
                            site,
                            callee: callee.clone(),
                            args: arg_vars,
                            dst: dst_var,
                        });
                        site += 1;
                    }
                    Stmt::Return { var: v } => {
                        let rv = var(&mut sys, &mut vars1, &f.name, v);
                        let r = rets[f.name.as_str()];
                        well_formed(sys.add(SetExpr::var(rv), SetExpr::var(r)));
                    }
                }
            }
        }
        sys.solve();

        // ---------- Phase 2: context-encoded query sets ----------
        let mut qsys = System::new(MonoidAlgebra::new(&trivial_machine()));
        // Mirror every phase-1 variable.
        let n1 = sys.num_vars();
        let mirror: Vec<VarId> = (0..n1).map(|i| qsys.var(&format!("q{i}"))).collect();
        let vars2: HashMap<String, VarId> = vars1
            .iter()
            .map(|(k, v)| (k.clone(), mirror[v.index()]))
            .collect();

        // Location constants.
        let mut loc_consts: HashMap<String, ConsId> = HashMap::new();
        for (target, name) in &loc_sources {
            let c = *loc_consts
                .entry(name.clone())
                .or_insert_with(|| qsys.constructor(&format!("loc_{name}"), &[]));
            well_formed(qsys.add(SetExpr::cons(c, []), SetExpr::var(mirror[target.index()])));
        }

        // Replay the solved value-flow graph, minus call-boundary edges.
        for i in 0..n1 {
            let from = VarId::from_index(i);
            for (to, _ann) in sys.edges_from(from) {
                if boundary.contains(&(from, to)) {
                    continue;
                }
                well_formed(qsys.add(
                    SetExpr::var(mirror[from.index()]),
                    SetExpr::var(mirror[to.index()]),
                ));
            }
        }

        // Calls: wrap with per-site constructors (§7.5).
        for call in &calls {
            let o_i = qsys.constructor(&format!("o{}", call.site), &[Variance::Covariant]);
            let fun = program
                .find(&call.callee)
                .ok_or_else(|| PtrError::UnknownFunction(call.callee.clone()))?;
            for (i, &t) in call.args.iter().enumerate() {
                let p = vars1[&format!("{}::{}", call.callee, fun.params[i])];
                well_formed(qsys.add(
                    SetExpr::cons_vars(o_i, [mirror[t.index()]]),
                    SetExpr::var(mirror[p.index()]),
                ));
            }
            if let Some(dv) = call.dst {
                let r = rets[call.callee.as_str()];
                // Matched return (unwraps this site's wrapper)…
                well_formed(qsys.add(
                    SetExpr::proj(o_i, 0, mirror[r.index()]),
                    SetExpr::var(mirror[dv.index()]),
                ));
                // …plus the bare flow for callee-origin locations (values
                // never wrapped by this call).
                well_formed(qsys.add(
                    SetExpr::var(mirror[r.index()]),
                    SetExpr::var(mirror[dv.index()]),
                ));
            }
        }
        qsys.solve();

        Ok(PointsTo {
            resolve: sys,
            query: qsys,
            vars1,
            vars2,
            loc_of_contents,
        })
    }

    fn lookup1(&self, name: &str) -> Result<VarId> {
        self.vars1
            .get(name)
            .copied()
            .ok_or_else(|| PtrError::UnknownVariable(name.to_owned()))
    }

    fn lookup2(&self, name: &str) -> Result<VarId> {
        self.vars2
            .get(name)
            .copied()
            .ok_or_else(|| PtrError::UnknownVariable(name.to_owned()))
    }

    /// The flat points-to set of `fn::var`: sorted location names.
    ///
    /// # Errors
    ///
    /// Returns [`PtrError::UnknownVariable`] for unknown names.
    pub fn points_to(&self, name: &str) -> Result<Vec<String>> {
        let v = self.lookup1(name)?;
        let mut out: Vec<String> = self
            .resolve
            .lower_bounds(v)
            .filter_map(|(_cons, args, _ann)| {
                args.first()
                    .and_then(|a| self.loc_of_contents.get(a))
                    .cloned()
            })
            .collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Flat may-alias: do the two points-to sets share a location?
    ///
    /// # Errors
    ///
    /// Returns [`PtrError::UnknownVariable`] for unknown names.
    pub fn may_alias(&self, x: &str, y: &str) -> Result<bool> {
        let a: HashSet<String> = self.points_to(x)?.into_iter().collect();
        Ok(self.points_to(y)?.iter().any(|l| a.contains(l)))
    }

    /// Stack-aware may-alias (§7.5): do the two *term* sets — locations
    /// wrapped in their call-site constructors — intersect?
    ///
    /// Always a subset of [`PointsTo::may_alias`]: contexts can only
    /// separate, never merge.
    ///
    /// # Errors
    ///
    /// Returns [`PtrError::UnknownVariable`] for unknown names.
    pub fn may_alias_stack_aware(&mut self, x: &str, y: &str) -> Result<bool> {
        let a = self.lookup2(x)?;
        let b = self.lookup2(y)?;
        Ok(self.query.intersect_nonempty(a, b))
    }

    /// The context-sensitive points-to terms of `fn::var`, rendered for
    /// diagnostics (e.g. `["o0(loc_main::a)", "o1(loc_main::b)"]`).
    ///
    /// # Errors
    ///
    /// Returns [`PtrError::UnknownVariable`] for unknown names.
    pub fn points_to_terms(&mut self, name: &str) -> Result<Vec<String>> {
        let v = self.lookup2(name)?;
        let terms = self.query.ground_terms(v, 8, 64);
        let mut out: Vec<String> = terms.iter().map(|t| self.render(t)).collect();
        out.sort();
        out.dedup();
        Ok(out)
    }

    fn render(&self, t: &rasc_core::GroundTerm) -> String {
        let name = self.query.constructor_decl(t.cons).name().to_owned();
        if t.args.is_empty() {
            name
        } else {
            let args: Vec<String> = t.args.iter().map(|a| self.render(a)).collect();
            format!("{name}({})", args.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(src: &str) -> PointsTo {
        PointsTo::analyze(&Program::parse(src).unwrap()).unwrap()
    }

    #[test]
    fn basic_address_and_copy() {
        let pt = analyze("fn main() { p = &a; q = p; r = &b; }");
        assert_eq!(pt.points_to("main::p").unwrap(), ["main::a"]);
        assert_eq!(pt.points_to("main::q").unwrap(), ["main::a"]);
        assert_eq!(pt.points_to("main::r").unwrap(), ["main::b"]);
        assert!(pt.may_alias("main::p", "main::q").unwrap());
        assert!(!pt.may_alias("main::p", "main::r").unwrap());
    }

    #[test]
    fn loads_and_stores() {
        // *p = q; r = *p  ⇒  r points to whatever q points to.
        let pt = analyze("fn main() { p = &a; q = &b; *p = q; r = *p; }");
        assert_eq!(pt.points_to("main::r").unwrap(), ["main::b"]);
        // And `a`'s contents now include &b.
        assert_eq!(pt.points_to("main::a").unwrap(), ["main::b"]);
    }

    #[test]
    fn fields_are_separated() {
        let pt = analyze(
            "fn main() {
                 o = alloc;
                 x = &a; y = &b;
                 o.f = x; o.g = y;
                 fx = o.f; gy = o.g;
             }",
        );
        assert_eq!(pt.points_to("main::fx").unwrap(), ["main::a"]);
        assert_eq!(pt.points_to("main::gy").unwrap(), ["main::b"]);
    }

    #[test]
    fn interprocedural_flow_and_returns() {
        let pt = analyze(
            "fn id(p) { return p; }
             fn main() { x = &a; y = id(x); }",
        );
        assert_eq!(pt.points_to("main::y").unwrap(), ["main::a"]);
        assert_eq!(pt.points_to("id::p").unwrap(), ["main::a"]);
    }

    #[test]
    fn the_papers_section_7_5_example() {
        // void main() { int a,b; foo¹(&a,&b); foo²(&b,&a); }
        // void foo(int *x, int *y) { /* may x and y be aliased? */ }
        let mut pt = analyze(
            "fn foo(x, y) { }
             fn main() {
                 foo(&a, &b);
                 foo(&b, &a);
             }",
        );
        // Flat sets: pt(x) = pt(y) = {a, b} ⇒ may alias.
        assert_eq!(pt.points_to("foo::x").unwrap(), ["main::a", "main::b"]);
        assert_eq!(pt.points_to("foo::y").unwrap(), ["main::a", "main::b"]);
        assert!(pt.may_alias("foo::x", "foo::y").unwrap());
        // Term sets: X = {o₁(a), o₂(b)}, Y = {o₂(a), o₁(b)} — disjoint.
        assert!(!pt.may_alias_stack_aware("foo::x", "foo::y").unwrap());
        // The rendered terms match the paper's presentation.
        let x_terms = pt.points_to_terms("foo::x").unwrap();
        assert_eq!(x_terms.len(), 2);
        assert!(x_terms.iter().all(|t| t.starts_with("o")));
    }

    #[test]
    fn genuinely_aliased_parameters_stay_aliased() {
        let mut pt = analyze(
            "fn foo(x, y) { }
             fn main() { foo(&a, &a); }",
        );
        assert!(pt.may_alias_stack_aware("foo::x", "foo::y").unwrap());
    }

    #[test]
    fn callee_allocations_flow_to_callers() {
        let mut pt = analyze(
            "fn mk() { n = alloc; return n; }
             fn main() { x = mk(); y = mk(); }",
        );
        assert_eq!(pt.points_to("main::x").unwrap(), ["mk::alloc#0"]);
        // Allocation-site abstraction: both calls share the site, so the
        // stack-aware query cannot separate them (the paper's wrapped
        // allocation-function caveat, solved there by deeper stacks).
        assert!(pt.may_alias_stack_aware("main::x", "main::y").unwrap());
    }

    #[test]
    fn alias_through_copies_is_preserved() {
        let mut pt = analyze(
            "fn foo(x, y) { }
             fn main() { p = &a; q = p; foo(p, q); }",
        );
        assert!(pt.may_alias_stack_aware("foo::x", "foo::y").unwrap());
    }

    #[test]
    fn unknown_names_error() {
        let pt = analyze("fn main() { p = &a; }");
        assert!(matches!(
            pt.points_to("main::zzz"),
            Err(PtrError::UnknownVariable(_))
        ));
        assert!(matches!(
            PointsTo::analyze(&Program::parse("fn main() { ghost(); }").unwrap()),
            Err(PtrError::UnknownFunction(_))
        ));
        assert!(matches!(
            PointsTo::analyze(&Program::parse("fn f(a) {} fn main() { f(); }").unwrap()),
            Err(PtrError::ArityMismatch { .. })
        ));
    }
}
