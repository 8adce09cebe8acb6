//! Entailment queries on solved systems (paper §3.2).
//!
//! Following the §8 optimization, the solver never materializes the
//! representative-function variables that annotate constructors; the
//! queries here reconstruct the composed constructor annotations during the
//! entailment computation itself, by a memoized descent over
//! `(variable, annotation)` pairs.
//!
//! The whole-program violation scan
//! ([`System::constant_occurrence_classes`]) only decides acceptance, and
//! acceptance depends only on a path's class under the right congruence
//! `≡_r` (§5), so it carries [`Algebra::Class`]es instead of functions.

use std::collections::{HashMap, VecDeque};

use crate::algebra::{Algebra, AnnId};
use crate::idhash::{IdMap, IdSet};
use crate::solver::{SrcId, System, VarId};
use crate::term::{ConsId, GroundTerm};

/// A witness for an occurrence query: the chain of constructors wrapping
/// the matched constant, outermost first.
///
/// In the pushdown-model-checking encoding (§6.2) the wrapping constructors
/// are per-call-site constructors `o_i`, so the witness is a possible
/// runtime stack leading to the error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OccurrenceWitness {
    /// Wrapping constructors, outermost first (empty when the constant
    /// reaches the queried variable at the top level).
    pub stack: Vec<ConsId>,
    /// The constant's composed annotation (an accepting one).
    pub ann: AnnId,
}

impl<A: Algebra> System<A> {
    /// All composed annotations with which the constant `target` occurs
    /// *at any depth* inside the least solution of `x`.
    ///
    /// This is the paper's general query: whether a set of terms containing
    /// `target` annotated in certain states intersects `ρ(X)` (§3.2). The
    /// result is a finite set of algebra elements.
    pub fn occurrence_annotations(&mut self, x: VarId, target: ConsId) -> Vec<AnnId> {
        let id = self.algebra().identity();
        let mut found = Vec::new();
        let mut seen: IdSet<(VarId, AnnId)> = IdSet::default();
        let mut queue: VecDeque<(VarId, AnnId)> = VecDeque::new();
        seen.insert((x, id));
        queue.push_back((x, id));
        // Reused per pop: `compose` needs `&mut self`, so the entries are
        // copied out as `Copy` pairs first.
        let mut lbs: Vec<(SrcId, AnnId)> = Vec::new();
        while let Some((v, outer)) = queue.pop_front() {
            lbs.clear();
            lbs.extend(self.lbs_of(v));
            for &(src, f) in &lbs {
                let total = self.algebra_mut().compose(outer, f);
                let s = self.source(src);
                if s.cons == target {
                    found.push(total);
                }
                for &arg in &s.args {
                    if seen.insert((arg, total)) {
                        queue.push_back((arg, total));
                    }
                }
            }
        }
        found.sort();
        found.dedup();
        found
    }

    /// Whether `target` occurs at any depth in `ρ(X)` with an *accepting*
    /// composed annotation — the paper's
    /// `C ⊨ ⋁_{f ∈ F_accept} t ⊆^f X` entailment.
    pub fn occurs_accepting(&mut self, x: VarId, target: ConsId) -> bool {
        self.occurrence_witness(x, target).is_some()
    }

    /// Like [`System::occurs_accepting`], also returning the wrapping
    /// constructor stack (a witness path, §6.2).
    pub fn occurrence_witness(&mut self, x: VarId, target: ConsId) -> Option<OccurrenceWitness> {
        // BFS over (variable, outer-annotation) pairs, recording parents to
        // reconstruct the wrapping stack.
        let id = self.algebra().identity();
        let start = (x, id);
        let mut parents: IdMap<(VarId, AnnId), ((VarId, AnnId), ConsId)> = IdMap::default();
        let mut seen: IdSet<(VarId, AnnId)> = IdSet::default();
        let mut queue: VecDeque<(VarId, AnnId)> = VecDeque::new();
        seen.insert(start);
        queue.push_back(start);
        let mut lbs: Vec<(SrcId, AnnId)> = Vec::new();
        while let Some((v, outer)) = queue.pop_front() {
            lbs.clear();
            lbs.extend(self.lbs_of(v));
            for &(src, f) in &lbs {
                let total = self.algebra_mut().compose(outer, f);
                let s = self.source(src);
                if s.cons == target && self.algebra().is_accepting(total) {
                    // Reconstruct the wrapping stack.
                    let mut stack = Vec::new();
                    let mut cur = (v, outer);
                    while let Some(&(prev, via)) = parents.get(&cur) {
                        stack.push(via);
                        cur = prev;
                    }
                    stack.reverse();
                    return Some(OccurrenceWitness { stack, ann: total });
                }
                for &arg in &s.args {
                    let next = (arg, total);
                    if seen.insert(next) {
                        parents.insert(next, ((v, outer), s.cons));
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    }

    /// For every variable, the right-congruence classes
    /// ([`Algebra::Class`]) of the paths by which the constant `target`
    /// occurs at any depth in its least solution. `target` occurs at `X`
    /// with an accepting annotation iff one of `X`'s classes satisfies
    /// [`Algebra::class_accepting`].
    ///
    /// Computed *bottom-up* in a single fixpoint, so checking a whole
    /// program's worth of variables (the §6.2 violation scan) costs one
    /// pass instead of one descent per variable:
    /// `occ(X) = {f(s₀) | (target, f) ∈ lb(X)} ∪
    ///           {f(s) | (c(…,Y,…), f) ∈ lb(X), s ∈ occ(Y)}`.
    /// Each class is `h(s₀)` for a composed annotation `h` that
    /// [`System::occurrence_annotations`] would find at `X`. For a plain
    /// property machine a class is one state rather than one function, so
    /// the scan interns no compositions.
    pub fn constant_occurrence_classes(&mut self, target: ConsId) -> Vec<Vec<A::Class>> {
        let n = self.num_vars();
        let start = self.algebra().start_class();
        let mut occ: Vec<Vec<A::Class>> = vec![Vec::new(); n];
        // uses[y] = (x, f) for each lb entry `c(…) ⊆^f x` whose source has
        // an argument in y's class. Only class roots are visited, and uses
        // are keyed by root, so each cycle class is solved once.
        let mut uses: Vec<Vec<(usize, AnnId)>> = vec![Vec::new(); n];
        // The `target` lower bounds, classed once the walk over the solved
        // form (which borrows `self`) is done.
        let mut seeds: Vec<(usize, AnnId)> = Vec::new();
        for x in 0..n {
            let v = VarId(x as u32);
            if self.find(v) != v {
                continue;
            }
            for (src, f) in self.lbs_of(v) {
                let s = self.source(src);
                if s.cons == target {
                    seeds.push((x, f));
                }
                for &arg in &s.args {
                    uses[self.find(arg).index()].push((x, f));
                }
            }
        }
        let mut worklist: VecDeque<(usize, A::Class)> = VecDeque::new();
        for (x, f) in seeds {
            let c = self.algebra_mut().apply_class(f, start);
            if insert_sorted(&mut occ[x], c) {
                worklist.push_back((x, c));
            }
        }
        while let Some((y, c)) = worklist.pop_front() {
            for &(x, f) in &uses[y] {
                let reached = self.algebra_mut().apply_class(f, c);
                if insert_sorted(&mut occ[x], reached) {
                    worklist.push_back((x, reached));
                }
            }
        }
        // Collapsed ids share their root's occurrences.
        for x in 0..n {
            let root = self.find(VarId(x as u32)).index();
            if root != x {
                occ[x] = occ[root].clone();
            }
        }
        occ
    }

    /// Whether the least solution of `x` is non-empty.
    ///
    /// Constructors are non-strict (§2.1), but the *least* solution of a
    /// constructor expression is empty whenever a component variable's
    /// least solution is empty, so this is a standard productivity
    /// fixpoint.
    pub fn nonempty(&self, x: VarId) -> bool {
        self.alive_vars()[x.index()]
    }

    /// Per-variable emptiness of the least solution.
    fn alive_vars(&self) -> Vec<bool> {
        let mut alive = vec![false; self.num_vars()];
        loop {
            let mut changed = false;
            for v in 0..self.num_vars() {
                if alive[v] {
                    continue;
                }
                let v_id = VarId(v as u32);
                let productive = self.lbs_of(v_id).any(|(src, _)| {
                    self.source(src)
                        .args
                        .iter()
                        .all(|a| alive[self.find(*a).index()])
                });
                if productive {
                    alive[v] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        // Mirror liveness through the cycle-elimination classes: stale ids
        // share their root's fate.
        for v in 0..alive.len() {
            let root = self.find(VarId(v as u32)).index();
            if alive[root] {
                alive[v] = true;
            }
        }
        alive
    }

    /// Whether the least solutions of `x` and `y` share a ground term
    /// (ignoring annotations) — the *stack-aware alias query* of §7.5:
    /// an empty intersection proves the two labels are never aliased, even
    /// when their flat points-to sets overlap.
    pub fn intersect_nonempty(&self, x: VarId, y: VarId) -> bool {
        // Discover the pair graph reachable from (x, y), then run a
        // Knaster–Tarski least-fixpoint iteration over it.
        let mut pairs: Vec<(VarId, VarId)> = Vec::new();
        let mut index: IdMap<(VarId, VarId), usize> = IdMap::default();
        let mut stack = vec![(x, y)];
        index.insert((x, y), 0);
        pairs.push((x, y));
        while let Some((a, b)) = stack.pop() {
            for (src_a, _) in self.lbs_of(a) {
                let sa = self.source(src_a);
                for (src_b, _) in self.lbs_of(b) {
                    let sb = self.source(src_b);
                    if sa.cons != sb.cons {
                        continue;
                    }
                    for (&pa, &pb) in sa.args.iter().zip(&sb.args) {
                        if let std::collections::hash_map::Entry::Vacant(e) = index.entry((pa, pb))
                        {
                            e.insert(pairs.len());
                            pairs.push((pa, pb));
                            stack.push((pa, pb));
                        }
                    }
                }
            }
        }
        let mut truth = vec![false; pairs.len()];
        loop {
            let mut changed = false;
            for (i, &(a, b)) in pairs.iter().enumerate() {
                if truth[i] {
                    continue;
                }
                let holds = self.lbs_of(a).any(|(src_a, _)| {
                    let sa = self.source(src_a);
                    self.lbs_of(b).any(|(src_b, _)| {
                        let sb = self.source(src_b);
                        sb.cons == sa.cons
                            && sa
                                .args
                                .iter()
                                .zip(&sb.args)
                                .all(|(&pa, &pb)| truth[index[&(pa, pb)]])
                    })
                });
                if holds {
                    truth[i] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        truth[0]
    }

    /// Like [`System::occurrence_annotations`] but along *PN paths*
    /// (partially matched reachability, §6.2/§7.3): in addition to matched
    /// flows and flows into unreturned calls (term depth), the probe may
    /// traverse projection constraints *unmatched* — the N-part of a PN
    /// path, a return not matched by a call on the path.
    ///
    /// Callers decide acceptance: for fully matched queries use
    /// [`Algebra::is_accepting`]; for may-contain/PN queries,
    /// [`Algebra::is_useful`] characterizes substrings of accepted words
    /// (for bracket-like languages those are exactly the N-then-P forms).
    pub fn pn_occurrence_annotations(&mut self, x: VarId, target: ConsId) -> Vec<AnnId> {
        // Phase 1: Q(v) = annotations with which the bare target sits at
        // the top level of v, closed under (a) solved edges and (b)
        // unmatched projection hops.
        let mut q: Vec<Vec<AnnId>> = vec![Vec::new(); self.num_vars()];
        let mut worklist: VecDeque<(VarId, AnnId)> = VecDeque::new();
        for v in 0..self.num_vars() {
            let v = self.find(VarId(v as u32));
            for f in self.lower_bound_annotations(v, target) {
                if insert_sorted(&mut q[v.index()], f) {
                    worklist.push_back((v, f));
                }
            }
        }
        while let Some((v, f)) = worklist.pop_front() {
            for (w, g) in self.edges_from(v) {
                let h = self.algebra_mut().compose(g, f);
                if self.algebra().is_useful(h) && insert_sorted(&mut q[w.index()], h) {
                    worklist.push_back((w, h));
                }
            }
            for (target_var, g) in self.proj_sinks_of(v) {
                let h = self.algebra_mut().compose(g, f);
                if self.algebra().is_useful(h) && insert_sorted(&mut q[target_var.index()], h) {
                    worklist.push_back((target_var, h));
                }
            }
        }
        // Phase 2: descend from x through term structure, combining with Q.
        // Work with canonical (cycle-collapsed) ids: phase 1 inserted its
        // hop results at canonical variables only.
        let id = self.algebra().identity();
        let mut out: Vec<AnnId> = Vec::new();
        let mut seen: IdSet<(VarId, AnnId)> = IdSet::default();
        let mut bfs: VecDeque<(VarId, AnnId)> = VecDeque::new();
        let x0 = self.find(x);
        seen.insert((x0, id));
        bfs.push_back((x0, id));
        let mut lbs: Vec<(SrcId, AnnId)> = Vec::new();
        while let Some((v, outer)) = bfs.pop_front() {
            for &f in &q[v.index()] {
                let total = self.algebra_mut().compose(outer, f);
                insert_sorted(&mut out, total);
            }
            lbs.clear();
            lbs.extend(self.lbs_of(v));
            for &(src, f) in &lbs {
                let total = self.algebra_mut().compose(outer, f);
                for &arg in &self.source(src).args {
                    let arg = self.find(arg);
                    if seen.insert((arg, total)) {
                        bfs.push_back((arg, total));
                    }
                }
            }
        }
        out
    }

    /// Reconstructs the *constructor annotation variables* (`α`, `β`, …)
    /// that the solver — following the §8 optimization — never
    /// materializes during resolution.
    ///
    /// Each constructor expression `c^β(X…)` occurring in the constraints
    /// is seeded with `f_ε` (the query convention `f_ε ⊆ β` of §3.2), and
    /// each resolution `c^α(…) ⊆^f c^β(…)` contributes `f ∘ α ⊆ β`,
    /// iterated to a fixpoint. Returns, for each expression (keyed by
    /// constructor and argument variables), its annotation set.
    pub fn constructor_annotations(&mut self) -> HashMap<(ConsId, Vec<VarId>), Vec<AnnId>> {
        let id = self.algebra().identity();
        let mut ann: HashMap<(ConsId, Vec<VarId>), Vec<AnnId>> = HashMap::new();
        // Seed every constructor expression occurring anywhere.
        let exprs = self.constructor_expr_keys();
        for key in exprs {
            ann.entry(key).or_default().push(id);
        }
        // A function constraint `f∘α ⊆ β` is only *semantically* forced
        // when the source expression denotes a non-empty set in the least
        // solution (an empty source satisfies the inclusion for any β).
        let alive = self.alive_vars();
        // Fixpoint over resolutions: for every variable where a source
        // meets a constructor sink of the same head, push f∘α into β —
        // unless resolution discarded the meeting because `f` can never
        // extend to an accepting word.
        loop {
            let mut changed = false;
            for x in 0..self.num_vars() {
                let x = VarId(x as u32);
                let meets = self.source_sink_meets(x);
                for (src_key, snk_key, g, h) in meets {
                    if !src_key.1.iter().all(|a| alive[self.find(*a).index()]) {
                        continue;
                    }
                    let f = self.algebra_mut().compose(h, g);
                    if !self.algebra().is_useful(f) {
                        continue;
                    }
                    let alphas = ann.get(&src_key).cloned().unwrap_or_default();
                    for a in alphas {
                        let v = self.algebra_mut().compose(f, a);
                        let betas = ann.entry(snk_key.clone()).or_default();
                        if insert_sorted(betas, v) {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        ann
    }

    /// Enumerates annotated ground terms of the least solution of `x`, up
    /// to `max_depth` constructor levels, returning at most `max_count`
    /// terms. Intended for diagnostics and for displaying context-sensitive
    /// points-to sets (§7.5).
    ///
    /// Constructor-level annotations are reconstructed with
    /// [`System::constructor_annotations`], so each lower-bound entry can
    /// yield one term per annotation class of its constructor occurrence.
    pub fn ground_terms(
        &mut self,
        x: VarId,
        max_depth: usize,
        max_count: usize,
    ) -> Vec<GroundTerm> {
        let outer = self.algebra().identity();
        let cons_anns = self.constructor_annotations();
        let set = self.ground_terms_at(x, outer, max_depth, max_count, &cons_anns);
        set.into_iter().collect()
    }

    fn ground_terms_at(
        &mut self,
        x: VarId,
        outer: AnnId,
        max_depth: usize,
        max_count: usize,
        cons_anns: &HashMap<(ConsId, Vec<VarId>), Vec<AnnId>>,
    ) -> std::collections::BTreeSet<GroundTerm> {
        use std::collections::BTreeSet;
        let mut out: BTreeSet<GroundTerm> = BTreeSet::new();
        if max_depth == 0 || max_count == 0 {
            return out;
        }
        let lbs: Vec<(SrcId, AnnId)> = self.lbs_of(x).collect();
        for (src, f) in lbs {
            let key = (self.source(src).cons, self.source(src).args.clone());
            let occ_anns = cons_anns
                .get(&key)
                .cloned()
                .unwrap_or_else(|| vec![self.algebra().identity()]);
            let (cons, args) = key;
            if out.len() >= max_count {
                return out;
            }
            // The component path annotation (appended to everything
            // below this level).
            let path = self.algebra_mut().compose(outer, f);
            if args.is_empty() {
                for &alpha in &occ_anns {
                    let root = self.algebra_mut().compose(path, alpha);
                    out.insert(GroundTerm::constant(cons, root));
                    if out.len() >= max_count {
                        return out;
                    }
                }
                continue;
            }
            // Cartesian product of component terms (distinct terms
            // only, capped).
            let mut component_terms: Vec<Vec<GroundTerm>> = Vec::with_capacity(args.len());
            let mut dead = false;
            for &arg in &args {
                let terms: Vec<GroundTerm> = self
                    .ground_terms_at(arg, path, max_depth - 1, max_count, cons_anns)
                    .into_iter()
                    .collect();
                if terms.is_empty() {
                    dead = true;
                    break;
                }
                component_terms.push(terms);
            }
            if dead {
                continue;
            }
            let mut combos: Vec<Vec<GroundTerm>> = vec![Vec::new()];
            for terms in &component_terms {
                let mut next = Vec::new();
                'outer: for combo in &combos {
                    for t in terms {
                        if next.len() > max_count {
                            break 'outer;
                        }
                        let mut c = combo.clone();
                        c.push(t.clone());
                        next.push(c);
                    }
                }
                combos = next;
            }
            for combo in combos {
                for &alpha in &occ_anns {
                    if out.len() >= max_count {
                        return out;
                    }
                    let root = self.algebra_mut().compose(path, alpha);
                    out.insert(GroundTerm {
                        cons,
                        ann: root,
                        args: combo.clone(),
                    });
                }
            }
        }
        out
    }
}

fn insert_sorted<T: Ord>(set: &mut Vec<T>, a: T) -> bool {
    match set.binary_search(&a) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, a);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::algebra::{Algebra, MonoidAlgebra};
    use crate::{SetExpr, System, Variance};
    use rasc_automata::{Alphabet, Dfa, Regex};

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
    fn occurrence_through_wrapping() {
        // pc flows into a call-site wrapper; the annotation g happens
        // inside the "callee"; pc should be found accepting at depth 1.
        let (mut sys, g, _) = one_bit_system();
        let pc = sys.constructor("pc", &[]);
        let o1 = sys.constructor("o1", &[Variance::Covariant]);
        let (s_main, f_entry, f_err) = (sys.var("Smain"), sys.var("Fentry"), sys.var("Ferr"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add(SetExpr::cons(pc, []), SetExpr::var(s_main))
            .unwrap();
        sys.add(SetExpr::cons_vars(o1, [s_main]), SetExpr::var(f_entry))
            .unwrap();
        sys.add_ann(SetExpr::var(f_entry), SetExpr::var(f_err), fg)
            .unwrap();
        sys.solve();
        let w = sys.occurrence_witness(f_err, pc).expect("pc reaches error");
        assert_eq!(w.stack, vec![o1]);
        assert!(sys.algebra().is_accepting(w.ann));
        // At the call site itself, pc's annotation is ε: not accepting.
        assert!(!sys.occurs_accepting(s_main, pc));
    }

    #[test]
    fn occurrence_annotations_collects_all_classes() {
        let (mut sys, g, k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(y), fk)
            .unwrap();
        sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        sys.solve();
        let anns = sys.occurrence_annotations(y, c);
        assert_eq!(anns.len(), 2, "both f_g and f_k reach Y");
    }

    #[test]
    fn nonempty_requires_productive_components() {
        let (mut sys, _, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let pair = sys.constructor("pair", &[Variance::Covariant, Variance::Covariant]);
        let (a, b, x, y) = (sys.var("A"), sys.var("B"), sys.var("X"), sys.var("Y"));
        sys.add(SetExpr::cons(c, []), SetExpr::var(a)).unwrap();
        // X ⊇ pair(A, B) with B empty: X empty in the least solution.
        sys.add(SetExpr::cons_vars(pair, [a, b]), SetExpr::var(x))
            .unwrap();
        // Y ⊇ pair(A, A): nonempty.
        sys.add(SetExpr::cons_vars(pair, [a, a]), SetExpr::var(y))
            .unwrap();
        sys.solve();
        assert!(sys.nonempty(a));
        assert!(!sys.nonempty(b));
        assert!(!sys.nonempty(x));
        assert!(sys.nonempty(y));
    }

    #[test]
    fn stack_aware_alias_query() {
        // The §7.5 example: X = {o1(a), o2(b)}, Y = {o2(a), o1(b)}.
        // Flat points-to sets intersect; term sets do not.
        let (mut sys, _, _) = one_bit_system();
        let a_c = sys.constructor("a", &[]);
        let b_c = sys.constructor("b", &[]);
        let o1 = sys.constructor("o1", &[Variance::Covariant]);
        let o2 = sys.constructor("o2", &[Variance::Covariant]);
        let (va, vb, x, y) = (sys.var("VA"), sys.var("VB"), sys.var("X"), sys.var("Y"));
        sys.add(SetExpr::cons(a_c, []), SetExpr::var(va)).unwrap();
        sys.add(SetExpr::cons(b_c, []), SetExpr::var(vb)).unwrap();
        sys.add(SetExpr::cons_vars(o1, [va]), SetExpr::var(x))
            .unwrap();
        sys.add(SetExpr::cons_vars(o2, [vb]), SetExpr::var(x))
            .unwrap();
        sys.add(SetExpr::cons_vars(o2, [va]), SetExpr::var(y))
            .unwrap();
        sys.add(SetExpr::cons_vars(o1, [vb]), SetExpr::var(y))
            .unwrap();
        sys.solve();
        assert!(!sys.intersect_nonempty(x, y), "x and y never alias");
        assert!(sys.intersect_nonempty(x, x));
    }

    #[test]
    fn intersection_handles_cycles() {
        let (mut sys, _, _) = one_bit_system();
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        // X ⊇ o(X), Y ⊇ o(Y): both empty in the least solution, so the
        // intersection is empty despite the cyclic structure.
        sys.add(SetExpr::cons_vars(o, [x]), SetExpr::var(x))
            .unwrap();
        sys.add(SetExpr::cons_vars(o, [y]), SetExpr::var(y))
            .unwrap();
        sys.solve();
        assert!(!sys.intersect_nonempty(x, y));
    }

    #[test]
    fn occurrence_classes_agree_with_per_var_query() {
        let (mut sys, g, k) = one_bit_system();
        let pc = sys.constructor("pc", &[]);
        let o1 = sys.constructor("o1", &[Variance::Covariant]);
        let o2 = sys.constructor("o2", &[Variance::Covariant]);
        let vars: Vec<_> = (0..6).map(|i| sys.var(&format!("V{i}"))).collect();
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add(SetExpr::cons(pc, []), SetExpr::var(vars[0]))
            .unwrap();
        sys.add(SetExpr::cons_vars(o1, [vars[0]]), SetExpr::var(vars[1]))
            .unwrap();
        sys.add_ann(SetExpr::var(vars[1]), SetExpr::var(vars[2]), fg)
            .unwrap();
        sys.add(SetExpr::cons_vars(o2, [vars[2]]), SetExpr::var(vars[3]))
            .unwrap();
        sys.add_ann(SetExpr::var(vars[3]), SetExpr::var(vars[4]), fk)
            .unwrap();
        sys.add_ann(SetExpr::var(vars[3]), SetExpr::var(vars[5]), fg)
            .unwrap();
        sys.solve();
        let occ = sys.constant_occurrence_classes(pc);
        for (i, &v) in vars.iter().enumerate() {
            let expected = sys.occurs_accepting(v, pc);
            let got = occ[v.index()]
                .iter()
                .any(|&c| sys.algebra().class_accepting(c));
            assert_eq!(got, expected, "var V{i}");
        }
        // Sanity: the g-then-k path is not accepting; g-then-g is.
        assert!(!sys.occurs_accepting(vars[4], pc));
        assert!(sys.occurs_accepting(vars[5], pc));
    }

    #[test]
    fn constructor_annotations_skip_meetings_resolution_discards() {
        // L = a: `aa` is a substring of no word, so resolution discards a
        // meeting under it, and no annotation flows from that meeting.
        let sigma = Alphabet::from_names(["a"]);
        let a = sigma.lookup("a").unwrap();
        let m = Regex::parse("a", &sigma).unwrap().compile(&sigma);
        let mut sys = System::new(MonoidAlgebra::new(&m));
        let k = sys.constructor("k", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (va, vb, x) = (sys.var("A"), sys.var("B"), sys.var("X"));
        let fa = sys.algebra_mut().word(&[a]);
        sys.add(SetExpr::cons(k, []), SetExpr::var(va)).unwrap();
        sys.add_ann(SetExpr::cons_vars(o, [va]), SetExpr::var(x), fa)
            .unwrap();
        sys.add_ann(SetExpr::var(x), SetExpr::cons_vars(o, [vb]), fa)
            .unwrap();
        sys.solve();
        assert!(!sys.nonempty(vb), "the meeting derived no edge into B");
        let anns = sys.constructor_annotations();
        assert_eq!(anns[&(o, vec![vb])], vec![sys.algebra().identity()]);
    }

    #[test]
    fn ground_terms_enumeration() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (a, x) = (sys.var("A"), sys.var("X"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(a), fg)
            .unwrap();
        sys.add(SetExpr::cons_vars(o, [a]), SetExpr::var(x))
            .unwrap();
        sys.solve();
        let terms = sys.ground_terms(x, 4, 10);
        assert_eq!(terms.len(), 1);
        assert_eq!(terms[0].cons, o);
        assert_eq!(terms[0].args.len(), 1);
        assert_eq!(terms[0].args[0].cons, c);
        // The inner constant carries the accepting f_g annotation.
        assert!(sys.algebra().is_accepting(terms[0].args[0].ann));
    }
}
