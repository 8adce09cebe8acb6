//! The paper's notation for a solved system: [`System::render_solved_form`]
//! prints every solved-form entry, and [`System::explain`] walks the
//! provenance records behind one lower bound back to surface constraints.
//!
//! An entry reads `lhs ⊆^f rhs`, where `^f` is the algebra's
//! [`Algebra::describe`] of the annotation and is left out for `f_ε`. A
//! constructor application reads `c(X, Y)` (a constant reads `c`) and a
//! projection `c⁻ⁱ(X)`, with 1-based `i`. Variables print as their class
//! representative's name, except that a `collapse` step of `explain`
//! names the variable that was collapsed.

use std::fmt::Write as _;

use crate::algebra::{Algebra, AnnId};
use crate::constraint::SetExpr;
use crate::idhash::IdSet;
use crate::provenance::{ExplainStep, ProvKey, Provenance, Reason};
use crate::solver::{Sink, System, VarId};
use crate::term::ConsId;

/// Stands in for an id that an epoch rollback dropped.
const DROPPED: &str = "<dropped>";

impl<A: Algebra> System<A> {
    /// Explains why constructor `c` appears in `v`'s solution: the chain
    /// of surface constraints and derivation steps that produced the
    /// (lexicographically first) solved-form lower bound `c(…) ⊆^g v`.
    ///
    /// Returns an empty chain when provenance recording is not enabled
    /// (see [`System::enable_provenance`]), or when no such lower bound
    /// exists. Steps are pre-order: each derived entry is followed by the
    /// explanations of its premises.
    pub fn explain(&self, v: VarId, c: ConsId) -> Vec<ExplainStep> {
        let Some(prov) = self.prov.as_deref() else {
            return Vec::new();
        };
        let root = self.find(v);
        let Some((src, ann)) = self
            .lbs_of(root)
            .filter(|&(src, _)| self.source(src).cons == c)
            .min()
        else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut seen = IdSet::default();
        self.explain_key(prov, ProvKey::Lb(root, src, ann), &mut out, &mut seen, 0);
        out
    }

    /// Recursive provenance walk: emits the step for `key`, then the
    /// steps of its premises (bounded by a visited set and a depth cap).
    fn explain_key(
        &self,
        prov: &Provenance,
        key: ProvKey,
        out: &mut Vec<ExplainStep>,
        seen: &mut IdSet<ProvKey>,
        depth: usize,
    ) {
        if depth > 64 || !seen.insert(key) {
            return;
        }
        let entry = self.describe_key(key);
        let reason = prov
            .reason(&key)
            .or_else(|| prov.reason(&self.canonical_key(key)));
        let (constraint, rule, description, premises) = match reason.copied() {
            None => (
                None,
                "axiom",
                format!("{entry} (solved before provenance recording was enabled)"),
                [None, None],
            ),
            Some(Reason::Constraint(i)) => (
                Some(i),
                "constraint",
                format!(
                    "{entry} — from constraint #{i}: {}",
                    self.describe_constraint(i)
                ),
                [None, None],
            ),
            Some(Reason::TransLb { edge, lb }) => {
                let edge = ProvKey::Edge(edge.0, edge.1, edge.2);
                (
                    None,
                    "trans-lb",
                    format!(
                        "{entry} — lower bound pushed across edge {}",
                        self.describe_key(edge)
                    ),
                    [Some(edge), Some(ProvKey::Lb(lb.0, lb.1, lb.2))],
                )
            }
            Some(Reason::Meet {
                var,
                src,
                src_ann,
                snk,
                snk_ann,
            }) => (
                None,
                "resolve",
                format!("{entry} — §3.1 resolution at {}", self.var_name_safe(var)),
                [
                    Some(ProvKey::Lb(var, src, src_ann)),
                    Some(ProvKey::Ub(var, snk, snk_ann)),
                ],
            ),
            Some(Reason::Collapsed { from }) => (
                None,
                "collapse",
                format!(
                    "{entry} — re-derived when {} was collapsed into its ε-cycle class",
                    self.own_name(from)
                ),
                [None, None],
            ),
        };
        out.push(ExplainStep {
            constraint,
            rule,
            description,
        });
        for premise in premises.into_iter().flatten() {
            self.explain_key(prov, premise, out, seen, depth + 1);
        }
    }

    /// Maps every variable component of `key` to its current canonical
    /// representative (keys are recorded pre-collapse).
    fn canonical_key(&self, key: ProvKey) -> ProvKey {
        match key {
            ProvKey::Edge(x, y, a) => ProvKey::Edge(self.find(x), self.find(y), a),
            ProvKey::Lb(x, s, a) => ProvKey::Lb(self.find(x), s, a),
            ProvKey::Ub(x, s, a) => ProvKey::Ub(self.find(x), s, a),
        }
    }

    /// A variable's class name, tolerating ids dropped by rollback.
    fn var_name_safe(&self, v: VarId) -> &str {
        if v.index() >= self.num_vars() {
            return DROPPED;
        }
        self.own_name(self.find(v))
    }

    /// A variable's own name, even when it was collapsed into a class.
    fn own_name(&self, v: VarId) -> &str {
        self.vars.get(v.index()).map_or(DROPPED, |d| &*d.name)
    }

    /// The `^f` of an inclusion `⊆^f`; empty for `f_ε`.
    fn ann_suffix(&self, a: AnnId) -> String {
        if a == self.algebra.identity() {
            String::new()
        } else {
            format!("^{}", self.algebra.describe(a))
        }
    }

    /// A constructor application `c(X, Y)`, or `c` for a constant.
    fn applied(&self, cons: ConsId, args: &[VarId]) -> String {
        let head = self.constructor_decl(cons).name();
        if args.is_empty() {
            return head.to_owned();
        }
        let args: Vec<&str> = args.iter().map(|&a| self.var_name_safe(a)).collect();
        format!("{head}({})", args.join(", "))
    }

    /// The projection `c⁻ⁱ(subject)` of 0-based position `index`.
    fn projection(&self, cons: ConsId, index: usize, subject: &str) -> String {
        format!(
            "{}⁻{}({subject})",
            self.constructor_decl(cons).name(),
            index + 1
        )
    }

    /// Renders a solved-form entry. A projection sink, which has no
    /// right-hand side of its own, reads `X ⊆ c⁻ⁱ(·) ⊆ Z`.
    fn describe_key(&self, key: ProvKey) -> String {
        match key {
            ProvKey::Edge(x, y, a) => format!(
                "{} ⊆{} {}",
                self.var_name_safe(x),
                self.ann_suffix(a),
                self.var_name_safe(y)
            ),
            ProvKey::Lb(x, src, a) => {
                let source = self
                    .sources
                    .get(src.0 as usize)
                    .map_or_else(|| DROPPED.to_owned(), |s| self.applied(s.cons, &s.args));
                format!("{source} ⊆{} {}", self.ann_suffix(a), self.var_name_safe(x))
            }
            ProvKey::Ub(x, snk, a) => {
                let sink = match self.sinks.get(snk.0 as usize) {
                    None => DROPPED.to_owned(),
                    Some(Sink::Cons { cons, args }) => self.applied(*cons, args),
                    Some(Sink::Proj {
                        cons,
                        index,
                        target,
                    }) => format!(
                        "{} ⊆ {}",
                        self.projection(*cons, *index, "·"),
                        self.var_name_safe(*target)
                    ),
                };
                format!("{} ⊆{} {sink}", self.var_name_safe(x), self.ann_suffix(a))
            }
        }
    }

    /// Renders surface constraint `i` (tolerating rolled-back indices).
    fn describe_constraint(&self, i: usize) -> String {
        let Some(con) = self.constraints.get(i) else {
            return "<rolled back>".to_owned();
        };
        let render = |e: &SetExpr| match e {
            SetExpr::Var(v) => self.var_name_safe(*v).to_owned(),
            SetExpr::Cons(c, args) => self.applied(*c, args),
            SetExpr::Proj(c, index, v) => self.projection(*c, *index, self.var_name_safe(*v)),
        };
        format!(
            "{} ⊆{} {}",
            render(&con.lhs),
            self.ann_suffix(con.ann),
            render(&con.rhs)
        )
    }

    /// Renders the solved form in the paper's notation (for diagnostics
    /// and teaching): per class representative, its lower bounds, its
    /// edges and its upper bounds, with annotations shown via the
    /// algebra's [`Algebra::describe`].
    pub fn render_solved_form(&self) -> String {
        let mut out = String::new();
        for (i, v) in self.vars.iter().enumerate() {
            let x = VarId::from_index(i);
            if self.find(x) != x {
                continue; // collapsed into its cycle representative
            }
            // Entry logs render in insertion order — deterministic across
            // runs, and restored byte-identically by epoch rollback.
            let lbs = v.lbs.iter_entries().map(|(src, a)| ProvKey::Lb(x, src, a));
            let edges = v.succs.iter_entries().map(|(y, a)| ProvKey::Edge(x, y, a));
            for key in lbs.chain(edges) {
                let _ = writeln!(out, "{}", self.describe_key(key));
            }
            for (snk, a) in v.ubs.iter_entries() {
                let _ = match *self.sink(snk) {
                    Sink::Cons { .. } => {
                        writeln!(out, "{}", self.describe_key(ProvKey::Ub(x, snk, a)))
                    }
                    Sink::Proj {
                        cons,
                        index,
                        target,
                    } => writeln!(
                        out,
                        "{} ⊆{} {}",
                        self.projection(cons, index, self.var_name_safe(x)),
                        self.ann_suffix(a),
                        self.var_name_safe(target)
                    ),
                };
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use crate::algebra::Algebra;
    use crate::solver::tests::one_bit_system;
    use crate::{SetExpr, Variance};

    #[test]
    fn solved_form_renders_the_papers_notation() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (w, x, y) = (sys.var("W"), sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(w), fg)
            .unwrap();
        sys.add(SetExpr::cons_vars(o, [w]), SetExpr::var(x))
            .unwrap();
        sys.add(SetExpr::proj(o, 0, x), SetExpr::var(y)).unwrap();
        sys.solve();
        let rendered = sys.render_solved_form();
        assert!(rendered.contains("c ⊆^"), "{rendered}");
        assert!(rendered.contains("o(W) ⊆ X"), "{rendered}");
        assert!(
            rendered.contains("W ⊆"),
            "derived edge from projection: {rendered}"
        );
    }

    #[test]
    fn explain_traces_derivation_to_surface_constraints() {
        // The §2.4 running example: c ⊆^g W, o(W) ⊆^g X, X ⊆ o(Y),
        // o(Y) ⊆ Z — solving derives c ⊆^{f_g} Y via resolution and
        // transitive closure.
        let (mut sys, g, _k) = one_bit_system();
        sys.enable_provenance();
        assert!(sys.provenance_enabled());
        let (w, x, y, z) = (sys.var("W"), sys.var("X"), sys.var("Y"), sys.var("Z"));
        let c = sys.constructor("c", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let fg = sys.algebra_mut().word(&[g]);
        let eps = sys.algebra().identity();
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(w), fg)
            .unwrap();
        sys.add_ann(SetExpr::cons_vars(o, [w]), SetExpr::var(x), fg)
            .unwrap();
        sys.add_ann(SetExpr::var(x), SetExpr::cons_vars(o, [y]), eps)
            .unwrap();
        sys.add_ann(SetExpr::cons_vars(o, [y]), SetExpr::var(z), eps)
            .unwrap();
        sys.solve();

        let steps = sys.explain(y, c);
        assert!(!steps.is_empty(), "derivation chain must be non-empty");
        // The chain bottoms out in the surface constraints that caused
        // the flow: c ⊆^g W (index 0) and the resolution participants.
        assert!(
            steps.iter().any(|s| s.constraint == Some(0)),
            "chain cites constraint #0: {steps:#?}"
        );
        assert!(
            steps.iter().any(|s| s.rule == "resolve"),
            "W flows to Y only through §3.1 resolution: {steps:#?}"
        );
        // A variable with no such lower bound has nothing to explain.
        assert!(sys.explain(x, c).is_empty());
    }

    #[test]
    fn explain_is_empty_without_provenance() {
        let (mut sys, g, _k) = one_bit_system();
        let w = sys.var("W");
        let c = sys.constructor("c", &[]);
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(w), fg)
            .unwrap();
        sys.solve();
        assert_eq!(sys.lower_bound_annotations(w, c).len(), 1);
        assert!(sys.explain(w, c).is_empty(), "recording never enabled");
    }
}
