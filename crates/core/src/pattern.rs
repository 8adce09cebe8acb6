//! The paper's general query form (§3.2): "whether a set of terms (given
//! by a set expression) intersected with a variable is non-empty, given
//! that the constructors must be annotated in certain states".
//!
//! A [`TermPattern`] describes a set of annotated ground terms —
//! constructor shape plus a per-node annotation predicate — and
//! [`System::matches_pattern`] decides whether a variable's least solution
//! intersects it. This is the query shape used to "search for the
//! existence of a term denoting an error in the program".

use crate::algebra::{Algebra, AnnId};
use crate::idhash::IdSet;
use crate::solver::{SrcId, System, VarId};
use crate::term::ConsId;

/// A predicate on a term node's composed annotation class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnnPred {
    /// Any annotation.
    Any,
    /// The class must represent full words of `L(M)` (`F_accept`, §3.2).
    Accepting,
    /// The class must be extendable to a word of `L(M)`
    /// ([`Algebra::is_useful`]).
    Useful,
    /// The class must *not* be accepting.
    Rejecting,
}

impl AnnPred {
    fn holds<A: Algebra>(self, alg: &A, a: AnnId) -> bool {
        match self {
            AnnPred::Any => true,
            AnnPred::Accepting => alg.is_accepting(a),
            AnnPred::Useful => alg.is_useful(a),
            AnnPred::Rejecting => !alg.is_accepting(a),
        }
    }
}

/// A pattern over annotated ground terms.
///
/// # Example
///
/// ```
/// use rasc_automata::{Alphabet, Dfa};
/// use rasc_core::algebra::MonoidAlgebra;
/// use rasc_core::{AnnPred, SetExpr, System, TermPattern};
///
/// let mut sigma = Alphabet::new();
/// let g = sigma.intern("g");
/// let k = sigma.intern("k");
/// let mut sys = System::new(MonoidAlgebra::new(&Dfa::one_bit(&sigma, g, k)));
/// let c = sys.constructor("c", &[]);
/// let x = sys.var("X");
/// let fg = sys.algebra_mut().word(&[g]);
/// sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)?;
/// sys.solve();
/// // The §3.2 error-term query: is c in X with an accepting annotation?
/// assert!(sys.matches_pattern(x, &TermPattern::accepting_constant(c)));
/// assert!(!sys.matches_pattern(x, &TermPattern::Annotated(AnnPred::Rejecting)));
/// # Ok::<(), rasc_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TermPattern {
    /// Matches any term (any constructor, any annotation, any components).
    Any,
    /// Matches terms rooted at `cons` whose composed annotation satisfies
    /// `ann` and whose components match `args` (which must have the
    /// constructor's arity).
    Cons {
        /// The required root constructor.
        cons: ConsId,
        /// Predicate on the root's composed annotation.
        ann: AnnPred,
        /// Component patterns.
        args: Vec<TermPattern>,
    },
    /// Matches any term whose composed annotation satisfies the predicate
    /// (constructor and components unconstrained, but components must be
    /// inhabited).
    Annotated(AnnPred),
}

impl TermPattern {
    /// A constant with an accepting annotation — the §3.2 error-term
    /// query for nullary `t`.
    pub fn accepting_constant(cons: ConsId) -> TermPattern {
        TermPattern::Cons {
            cons,
            ann: AnnPred::Accepting,
            args: Vec::new(),
        }
    }
}

impl<A: Algebra> System<A> {
    /// Whether the least solution of `x` contains a term matching
    /// `pattern` — the general entailment query of §3.2.
    ///
    /// Constructor annotations are the composed path classes (the
    /// query-time reconstruction of the §8 optimization): a node's
    /// annotation is `outer ∘ f` where `f` is the lower-bound entry's path
    /// class and `outer` the composition above it.
    pub fn matches_pattern(&mut self, x: VarId, pattern: &TermPattern) -> bool {
        let id = self.algebra().identity();
        let mut in_progress = IdSet::default();
        self.pattern_match(x, id, pattern, &mut in_progress)
    }

    fn pattern_match(
        &mut self,
        x: VarId,
        outer: AnnId,
        pattern: &TermPattern,
        in_progress: &mut IdSet<(VarId, AnnId, usize)>,
    ) -> bool {
        // Cycle guard: a (var, ann, pattern-identity) triple currently on
        // the stack cannot justify itself (least-fixpoint semantics).
        let key = (self.find(x), outer, pattern as *const _ as usize);
        if !in_progress.insert(key) {
            return false;
        }
        let result = self.pattern_match_inner(x, outer, pattern, in_progress);
        in_progress.remove(&key);
        result
    }

    fn pattern_match_inner(
        &mut self,
        x: VarId,
        outer: AnnId,
        pattern: &TermPattern,
        in_progress: &mut IdSet<(VarId, AnnId, usize)>,
    ) -> bool {
        // One `Copy` pair per entry: the recursion below needs `&mut self`.
        let lbs: Vec<(SrcId, AnnId)> = self.lbs_of(x).collect();
        for (src, f) in lbs {
            let total = self.algebra_mut().compose(outer, f);
            let (cons, arity) = (self.source(src).cons, self.source(src).args.len());
            match pattern {
                TermPattern::Any => {
                    if self.inhabited(src, total, in_progress) {
                        return true;
                    }
                }
                TermPattern::Annotated(pred) => {
                    if pred.holds(self.algebra(), total) && self.inhabited(src, total, in_progress)
                    {
                        return true;
                    }
                }
                TermPattern::Cons {
                    cons: want,
                    ann,
                    args: arg_pats,
                } => {
                    if cons != *want || !ann.holds(self.algebra(), total) {
                        continue;
                    }
                    // A pattern whose arity disagrees with the
                    // constructor's cannot describe any of its terms:
                    // no match (rather than a debug panic).
                    if arg_pats.len() != arity {
                        continue;
                    }
                    let all = arg_pats.iter().enumerate().all(|(i, p)| {
                        let a = self.source(src).args[i];
                        self.pattern_match(a, total, p, in_progress)
                    });
                    if all {
                        return true;
                    }
                }
            }
        }
        false
    }

    /// Whether all of `src`'s component variables are inhabited under
    /// `outer` (for wildcard patterns: the term must actually exist in the
    /// least solution).
    fn inhabited(
        &mut self,
        src: SrcId,
        outer: AnnId,
        in_progress: &mut IdSet<(VarId, AnnId, usize)>,
    ) -> bool {
        (0..self.source(src).args.len()).all(|i| {
            let a = self.source(src).args[i];
            self.pattern_match(a, outer, &TermPattern::Any, in_progress)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::MonoidAlgebra;
    use crate::{SetExpr, Variance};
    use rasc_automata::{Alphabet, Dfa};

    fn one_bit_system() -> (
        System<MonoidAlgebra>,
        rasc_automata::SymbolId,
        rasc_automata::SymbolId,
    ) {
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        let m = Dfa::one_bit(&sigma, g, k);
        (System::new(MonoidAlgebra::new(&m)), g, k)
    }

    #[test]
    fn accepting_constant_query() {
        let (mut sys, g, k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(y), fk)
            .unwrap();
        sys.solve();
        let pat = TermPattern::accepting_constant(c);
        assert!(sys.matches_pattern(x, &pat));
        assert!(!sys.matches_pattern(y, &pat));
        // But the k-annotated one matches a Rejecting query.
        let rej = TermPattern::Cons {
            cons: c,
            ann: AnnPred::Rejecting,
            args: vec![],
        };
        assert!(sys.matches_pattern(y, &rej));
    }

    #[test]
    fn structured_pattern_with_nested_predicates() {
        // Build o^?(c^g) and ask for o(anything-accepting) — the §3.2
        // "search for a term denoting an error" shape.
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let d = sys.constructor("d", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (a, b, x) = (sys.var("A"), sys.var("B"), sys.var("X"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(a), fg)
            .unwrap();
        sys.add(SetExpr::cons(d, []), SetExpr::var(b)).unwrap();
        sys.add(SetExpr::cons_vars(o, [a]), SetExpr::var(x))
            .unwrap();
        sys.add(SetExpr::cons_vars(o, [b]), SetExpr::var(x))
            .unwrap();
        sys.solve();

        let err_inside = TermPattern::Cons {
            cons: o,
            ann: AnnPred::Any,
            args: vec![TermPattern::Annotated(AnnPred::Accepting)],
        };
        assert!(sys.matches_pattern(x, &err_inside), "o(c^g) matches");

        let d_inside = TermPattern::Cons {
            cons: o,
            ann: AnnPred::Any,
            args: vec![TermPattern::Cons {
                cons: d,
                ann: AnnPred::Accepting,
                args: vec![],
            }],
        };
        assert!(
            !sys.matches_pattern(x, &d_inside),
            "d's annotation is ε, not accepting"
        );
    }

    #[test]
    fn wildcard_requires_inhabited_components() {
        let (mut sys, _, _) = one_bit_system();
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (empty, x) = (sys.var("E"), sys.var("X"));
        sys.add(SetExpr::cons_vars(o, [empty]), SetExpr::var(x))
            .unwrap();
        sys.solve();
        // o(E) with E empty: the least solution of X has no ground term.
        assert!(!sys.matches_pattern(x, &TermPattern::Any));
    }

    #[test]
    fn cyclic_structure_terminates() {
        let (mut sys, _, _) = one_bit_system();
        let o = sys.constructor("o", &[Variance::Covariant]);
        let x = sys.var("X");
        sys.add(SetExpr::cons_vars(o, [x]), SetExpr::var(x))
            .unwrap();
        sys.solve();
        // X ⊇ o(X): no finite term exists in the least solution.
        assert!(!sys.matches_pattern(x, &TermPattern::Any));
    }

    #[test]
    fn mixed_cycle_with_base_case_matches() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let x = sys.var("X");
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add(SetExpr::cons_vars(o, [x]), SetExpr::var(x))
            .unwrap();
        sys.solve();
        // X ⊇ {c^g, o(c^g), o(o(c^g)), …}: plenty of terms.
        assert!(sys.matches_pattern(x, &TermPattern::Any));
        assert!(sys.matches_pattern(
            x,
            &TermPattern::Cons {
                cons: o,
                ann: AnnPred::Any,
                args: vec![TermPattern::Cons {
                    cons: o,
                    ann: AnnPred::Any,
                    args: vec![TermPattern::Annotated(AnnPred::Accepting)],
                }],
            }
        ));
    }
}
