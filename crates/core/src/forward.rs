//! The forward unidirectional solver (paper §5).
//!
//! A forward solver only pushes *lower bounds* from sources toward sinks;
//! upper bounds stay at the variable where they were asserted (a rule the
//! bidirectional [`crate::System`] shares). Tracking paths from the start
//! state loses the online/separate-analysis ability of the bidirectional
//! solver but allows a coarser congruence: by the right congruence `≡_r`,
//! the class of a path annotation starting at the machine's start state is
//! determined by the single state `δ(w, s₀)`, so the number of derived
//! annotations per (source, variable) pair is `|S|` instead of up to
//! `|S|^{|S|}` (§5.1).
//!
//! Concretely, this solver tracks *constant* (nullary) sources by machine
//! state. Constructor sources keep full representative functions — their
//! path annotation is re-applied to component flows at projection
//! resolution, which requires a genuine function (see DESIGN.md for the
//! discussion); the asymptotic win applies to the constant dimension, which
//! carries the reachability facts in the paper's applications (the `pc`
//! constant of §6, dataflow facts of §3.3).

use std::collections::VecDeque;

use rasc_automata::{Dfa, StateId};

use crate::algebra::{Algebra, AnnId, MonoidAlgebra};
use crate::error::{CoreError, Result};
use crate::idhash::{IdMap, IdSet};
use crate::solver::VarId;
use crate::term::{ConsId, Constructor, Variance};

/// A source or sink pattern in the forward solver's normalized form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Pattern {
    Cons {
        cons: ConsId,
        args: Vec<VarId>,
    },
    Proj {
        cons: ConsId,
        index: usize,
        target: VarId,
    },
}

/// A clash discovered by the forward solver.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ForwardClash {
    /// Mismatched constructors met.
    ConstructorMismatch {
        /// Left-hand constructor.
        lhs: ConsId,
        /// Right-hand constructor.
        rhs: ConsId,
    },
}

#[derive(Debug, Default)]
struct VarData {
    name: String,
    succs: IdMap<VarId, Vec<AnnId>>,
    /// Constant lower bounds by right-congruence class (machine state).
    const_lbs: IdMap<ConsId, Vec<StateId>>,
    /// Constructor lower bounds by full representative function.
    cons_lbs: IdMap<u32, Vec<AnnId>>,
    /// Static upper bounds `(pattern, annotation)`.
    sinks: Vec<(u32, AnnId)>,
}

#[derive(Debug, Clone, Copy)]
enum Fact {
    Edge(VarId, VarId, AnnId),
    ConstLb(VarId, ConsId, StateId),
    ConsLb(VarId, u32, AnnId),
}

/// A forward (source-to-sink) solver for annotated set constraints.
///
/// # Example
///
/// ```
/// use rasc_automata::{Alphabet, Dfa};
/// use rasc_core::forward::ForwardSystem;
///
/// let mut sigma = Alphabet::new();
/// let g = sigma.intern("g");
/// let k = sigma.intern("k");
/// let m = Dfa::one_bit(&sigma, g, k);
/// let mut sys = ForwardSystem::new(&m);
/// let pc = sys.constant("pc");
/// let (x, y) = (sys.var("X"), sys.var("Y"));
/// sys.add_constant(pc, x);
/// let fg = sys.word(&[g]);
/// sys.add_edge(x, y, fg);
/// sys.solve();
/// assert!(sys.constant_accepting(y, pc));
/// assert!(!sys.constant_accepting(x, pc));
/// ```
#[derive(Debug)]
pub struct ForwardSystem {
    algebra: MonoidAlgebra,
    constructors: Vec<Constructor>,
    vars: Vec<VarData>,
    patterns: Vec<Pattern>,
    pattern_ids: IdMap<Pattern, u32>,
    worklist: VecDeque<Fact>,
    clashes: Vec<ForwardClash>,
    /// Hash companion of `clashes` for O(1) dedup; `clashes` keeps the
    /// deterministic discovery order the public API reports.
    clash_set: IdSet<ForwardClash>,
    facts_processed: usize,
}

impl ForwardSystem {
    /// Creates a forward solver over the annotation language `L(machine)`.
    pub fn new(machine: &Dfa) -> ForwardSystem {
        ForwardSystem {
            algebra: MonoidAlgebra::new(machine),
            constructors: Vec::new(),
            vars: Vec::new(),
            patterns: Vec::new(),
            pattern_ids: IdMap::default(),
            worklist: VecDeque::new(),
            clashes: Vec::new(),
            clash_set: IdSet::default(),
            facts_processed: 0,
        }
    }

    /// Interns the annotation for a word of the machine's alphabet.
    pub fn word(&mut self, word: &[rasc_automata::SymbolId]) -> AnnId {
        self.algebra.word(word)
    }

    /// The identity annotation.
    pub fn identity(&self) -> AnnId {
        self.algebra.identity()
    }

    /// Creates a fresh set variable.
    pub fn var(&mut self, name: &str) -> VarId {
        let id = VarId(crate::id_u32(self.vars.len(), "variables"));
        self.vars.push(VarData {
            name: name.to_owned(),
            ..VarData::default()
        });
        id
    }

    /// The diagnostic name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Declares a constant (nullary constructor).
    pub fn constant(&mut self, name: &str) -> ConsId {
        self.declare(name, &[])
    }

    /// Declares a constructor; only covariant signatures are supported by
    /// the forward solver.
    ///
    /// # Panics
    ///
    /// Panics if the signature contains a contravariant position.
    pub fn declare(&mut self, name: &str, signature: &[Variance]) -> ConsId {
        assert!(
            signature.iter().all(|v| *v == Variance::Covariant),
            "the forward solver supports covariant constructors only"
        );
        let id = ConsId(crate::id_u32(self.constructors.len(), "constructors"));
        self.constructors.push(Constructor {
            name: name.to_owned(),
            signature: signature.to_vec(),
        });
        id
    }

    /// Adds `c ⊆ X` for a constant `c` (initial state class `δ(ε, s₀)`).
    pub fn add_constant(&mut self, c: ConsId, x: VarId) {
        let s0 = self.algebra.start_state();
        self.worklist.push_back(Fact::ConstLb(x, c, s0));
    }

    /// Adds `c ⊆^f X` for a constant `c` with an initial annotation.
    pub fn add_constant_ann(&mut self, c: ConsId, x: VarId, ann: AnnId) {
        let s0 = self.algebra.start_state();
        let s = self.algebra.apply(ann, s0);
        self.worklist.push_back(Fact::ConstLb(x, c, s));
    }

    /// Adds `c(args) ⊆^f X` for a non-nullary constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] on misapplication.
    pub fn add_source(&mut self, c: ConsId, args: &[VarId], x: VarId, ann: AnnId) -> Result<()> {
        let decl = &self.constructors[c.index()];
        if decl.arity() != args.len() {
            return Err(CoreError::ArityMismatch {
                constructor: decl.name().to_owned(),
                expected: decl.arity(),
                found: args.len(),
            });
        }
        if args.is_empty() {
            self.add_constant_ann(c, x, ann);
            return Ok(());
        }
        let pat = self.intern(Pattern::Cons {
            cons: c,
            args: args.to_vec(),
        });
        self.worklist.push_back(Fact::ConsLb(x, pat, ann));
        Ok(())
    }

    /// Adds the upper bound `X ⊆^f c(args)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] on misapplication.
    pub fn add_sink(&mut self, x: VarId, c: ConsId, args: &[VarId], ann: AnnId) -> Result<()> {
        let decl = &self.constructors[c.index()];
        if decl.arity() != args.len() {
            return Err(CoreError::ArityMismatch {
                constructor: decl.name().to_owned(),
                expected: decl.arity(),
                found: args.len(),
            });
        }
        let pat = self.intern(Pattern::Cons {
            cons: c,
            args: args.to_vec(),
        });
        self.attach_sink(x, pat, ann);
        Ok(())
    }

    /// Adds the projection constraint `c⁻ⁱ(X) ⊆^f target` (0-based index).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProjectionIndex`] if the index is out of range.
    pub fn add_projection(
        &mut self,
        c: ConsId,
        index: usize,
        x: VarId,
        target: VarId,
        ann: AnnId,
    ) -> Result<()> {
        let decl = &self.constructors[c.index()];
        if index >= decl.arity() {
            return Err(CoreError::ProjectionIndex {
                constructor: decl.name().to_owned(),
                arity: decl.arity(),
                index,
            });
        }
        let pat = self.intern(Pattern::Proj {
            cons: c,
            index,
            target,
        });
        self.attach_sink(x, pat, ann);
        Ok(())
    }

    /// Adds a variable-variable edge `X ⊆^f Y`.
    pub fn add_edge(&mut self, x: VarId, y: VarId, ann: AnnId) {
        self.worklist.push_back(Fact::Edge(x, y, ann));
    }

    fn intern(&mut self, p: Pattern) -> u32 {
        if let Some(&id) = self.pattern_ids.get(&p) {
            return id;
        }
        let id = crate::id_u32(self.patterns.len(), "patterns");
        self.pattern_ids.insert(p.clone(), id);
        self.patterns.push(p);
        id
    }

    fn attach_sink(&mut self, x: VarId, pat: u32, ann: AnnId) {
        self.vars[x.index()].sinks.push((pat, ann));
        // Resolve against lower bounds already at x.
        let consts: Vec<(ConsId, StateId)> = self.vars[x.index()]
            .const_lbs
            .iter()
            .flat_map(|(&c, ss)| ss.iter().map(move |&s| (c, s)))
            .collect();
        for (c, _s) in consts {
            self.resolve_const(c, pat);
        }
        let conses: Vec<(u32, AnnId)> = self.vars[x.index()]
            .cons_lbs
            .iter()
            .flat_map(|(&p, fs)| fs.iter().map(move |&f| (p, f)))
            .collect();
        for (src, f) in conses {
            self.resolve_cons(src, f, pat, ann);
        }
    }

    fn record_clash(&mut self, clash: ForwardClash) {
        if self.clash_set.insert(clash.clone()) {
            self.clashes.push(clash);
        }
    }

    fn resolve_const(&mut self, c: ConsId, pat: u32) {
        match self.patterns[pat as usize].clone() {
            Pattern::Cons { cons, .. } => {
                if cons != c {
                    self.record_clash(ForwardClash::ConstructorMismatch { lhs: c, rhs: cons });
                }
            }
            Pattern::Proj { .. } => {
                // Constants have no components to project.
            }
        }
    }

    fn resolve_cons(&mut self, src: u32, f: AnnId, pat: u32, sink_ann: AnnId) {
        let Pattern::Cons {
            cons: c,
            args: src_args,
        } = self.patterns[src as usize].clone()
        else {
            unreachable!("sources are constructor patterns")
        };
        match self.patterns[pat as usize].clone() {
            Pattern::Cons { cons, args } => {
                if cons != c {
                    self.record_clash(ForwardClash::ConstructorMismatch { lhs: c, rhs: cons });
                    return;
                }
                for (i, &a) in src_args.iter().enumerate() {
                    self.worklist.push_back(Fact::Edge(a, args[i], f));
                }
            }
            Pattern::Proj {
                cons,
                index,
                target,
            } => {
                if cons == c {
                    let composed = self.algebra.compose(sink_ann, f);
                    self.worklist
                        .push_back(Fact::Edge(src_args[index], target, composed));
                }
            }
        }
    }

    /// Runs forward resolution to a fixpoint.
    pub fn solve(&mut self) {
        while let Some(fact) = self.worklist.pop_front() {
            self.facts_processed += 1;
            match fact {
                Fact::Edge(x, y, f) => {
                    if x == y && f == self.algebra.identity() {
                        continue;
                    }
                    if !insert(self.vars[x.index()].succs.entry(y).or_default(), f) {
                        continue;
                    }
                    let consts: Vec<(ConsId, StateId)> = self.vars[x.index()]
                        .const_lbs
                        .iter()
                        .flat_map(|(&c, ss)| ss.iter().map(move |&s| (c, s)))
                        .collect();
                    for (c, s) in consts {
                        let s2 = self.algebra.apply(f, s);
                        self.worklist.push_back(Fact::ConstLb(y, c, s2));
                    }
                    let conses: Vec<(u32, AnnId)> = self.vars[x.index()]
                        .cons_lbs
                        .iter()
                        .flat_map(|(&p, gs)| gs.iter().map(move |&g| (p, g)))
                        .collect();
                    for (p, g) in conses {
                        let h = self.algebra.compose(f, g);
                        self.worklist.push_back(Fact::ConsLb(y, p, h));
                    }
                }
                Fact::ConstLb(x, c, s) => {
                    if !self.algebra.state_useful(s) {
                        continue;
                    }
                    if !insert_state(self.vars[x.index()].const_lbs.entry(c).or_default(), s) {
                        continue;
                    }
                    let sinks = self.vars[x.index()].sinks.clone();
                    for (pat, _) in sinks {
                        self.resolve_const(c, pat);
                    }
                    let succs: Vec<(VarId, AnnId)> = self.vars[x.index()]
                        .succs
                        .iter()
                        .flat_map(|(&y, fs)| fs.iter().map(move |&f| (y, f)))
                        .collect();
                    for (y, f) in succs {
                        let s2 = self.algebra.apply(f, s);
                        self.worklist.push_back(Fact::ConstLb(y, c, s2));
                    }
                }
                Fact::ConsLb(x, p, g) => {
                    if !self.algebra.is_useful(g) {
                        continue;
                    }
                    if !insert(self.vars[x.index()].cons_lbs.entry(p).or_default(), g) {
                        continue;
                    }
                    let sinks = self.vars[x.index()].sinks.clone();
                    for (pat, sink_ann) in sinks {
                        self.resolve_cons(p, g, pat, sink_ann);
                    }
                    let succs: Vec<(VarId, AnnId)> = self.vars[x.index()]
                        .succs
                        .iter()
                        .flat_map(|(&y, fs)| fs.iter().map(move |&f| (y, f)))
                        .collect();
                    for (y, f) in succs {
                        let h = self.algebra.compose(f, g);
                        self.worklist.push_back(Fact::ConsLb(y, p, h));
                    }
                }
            }
        }
    }

    /// The machine states (right-congruence classes) with which constant
    /// `c` reaches variable `x`.
    pub fn constant_states(&self, x: VarId, c: ConsId) -> Vec<StateId> {
        self.vars[x.index()]
            .const_lbs
            .get(&c)
            .cloned()
            .unwrap_or_default()
    }

    /// Whether constant `c` reaches `x` along a path whose word is in
    /// `L(M)`.
    pub fn constant_accepting(&self, x: VarId, c: ConsId) -> bool {
        self.constant_states(x, c)
            .iter()
            .any(|&s| self.algebra.state_accepting(s))
    }

    /// Whether constant `c` occurs at any depth in the least solution of
    /// `x` with an accepting composed annotation (forward analogue of the
    /// bidirectional occurrence query).
    pub fn occurs_accepting(&mut self, x: VarId, target: ConsId) -> bool {
        // BFS over (var, outer-function) pairs; constants finish with a
        // state application.
        let id = self.algebra.identity();
        let mut seen = IdSet::default();
        let mut queue = VecDeque::new();
        seen.insert((x, id));
        queue.push_back((x, id));
        while let Some((v, outer)) = queue.pop_front() {
            let consts: Vec<(ConsId, StateId)> = self.vars[v.index()]
                .const_lbs
                .iter()
                .flat_map(|(&c, ss)| ss.iter().map(move |&s| (c, s)))
                .collect();
            for (c, s) in consts {
                if c == target {
                    let fin = self.algebra.apply(outer, s);
                    if self.algebra.state_accepting(fin) {
                        return true;
                    }
                }
            }
            let conses: Vec<(u32, AnnId)> = self.vars[v.index()]
                .cons_lbs
                .iter()
                .flat_map(|(&p, gs)| gs.iter().map(move |&g| (p, g)))
                .collect();
            for (p, g) in conses {
                let total = self.algebra.compose(outer, g);
                let Pattern::Cons { args, .. } = &self.patterns[p as usize] else {
                    continue;
                };
                for &arg in args {
                    if seen.insert((arg, total)) {
                        queue.push_back((arg, total));
                    }
                }
            }
        }
        false
    }

    /// For every variable, the machine states at which the constant
    /// `target` occurs at any depth — the forward analogue of the
    /// bidirectional solver's bottom-up occurrence map. One fixpoint pass
    /// for a whole-program violation scan.
    #[allow(clippy::needless_range_loop)] // x is a variable id
    pub fn constant_occurrence_states(&mut self, target: ConsId) -> Vec<Vec<StateId>> {
        let n = self.vars.len();
        let mut occ: Vec<Vec<StateId>> = vec![Vec::new(); n];
        // uses[y] = (x, g) for each constructor lower bound of x with y as
        // an argument.
        let mut uses: Vec<Vec<(usize, AnnId)>> = vec![Vec::new(); n];
        let mut worklist: VecDeque<(usize, StateId)> = VecDeque::new();
        for x in 0..n {
            if let Some(states) = self.vars[x].const_lbs.get(&target) {
                for &s in states {
                    if insert_state(&mut occ[x], s) {
                        worklist.push_back((x, s));
                    }
                }
            }
            for (&p, gs) in &self.vars[x].cons_lbs {
                let Pattern::Cons { args, .. } = &self.patterns[p as usize] else {
                    continue;
                };
                for &arg in args {
                    for &g in gs {
                        uses[arg.index()].push((x, g));
                    }
                }
            }
        }
        while let Some((y, s)) = worklist.pop_front() {
            for &(x, g) in &uses[y] {
                let s2 = self.algebra.apply(g, s);
                if insert_state(&mut occ[x], s2) {
                    worklist.push_back((x, s2));
                }
            }
        }
        occ
    }

    /// Whether machine state `s` is accepting (exposed for interpreting
    /// [`ForwardSystem::constant_occurrence_states`]).
    pub fn state_accepting(&self, s: StateId) -> bool {
        self.algebra.state_accepting(s)
    }

    /// The clashes discovered so far.
    pub fn clashes(&self) -> &[ForwardClash] {
        &self.clashes
    }

    /// `(variables, facts processed, interned annotations)` counters.
    pub fn stats(&self) -> (usize, usize, usize) {
        (self.vars.len(), self.facts_processed, self.algebra.len())
    }
}

fn insert(set: &mut Vec<AnnId>, a: AnnId) -> bool {
    match set.binary_search(&a) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, a);
            true
        }
    }
}

fn insert_state(set: &mut Vec<StateId>, s: StateId) -> bool {
    match set.binary_search(&s) {
        Ok(_) => false,
        Err(pos) => {
            set.insert(pos, s);
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_automata::Alphabet;

    fn one_bit() -> (Alphabet, Dfa) {
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        let dfa = Dfa::one_bit(&sigma, g, k);
        (sigma, dfa)
    }

    #[test]
    fn constant_state_tracking() {
        let (sigma, m) = one_bit();
        let g = sigma.lookup("g").unwrap();
        let k = sigma.lookup("k").unwrap();
        let mut sys = ForwardSystem::new(&m);
        let c = sys.constant("c");
        let (x, y, z) = (sys.var("X"), sys.var("Y"), sys.var("Z"));
        let fg = sys.word(&[g]);
        let fk = sys.word(&[k]);
        sys.add_constant(c, x);
        sys.add_edge(x, y, fg);
        sys.add_edge(y, z, fk);
        sys.solve();
        assert!(sys.constant_accepting(y, c));
        assert!(!sys.constant_accepting(z, c));
        // Only one state per var per constant in a linear chain.
        assert_eq!(sys.constant_states(y, c).len(), 1);
    }

    #[test]
    fn projection_resolution_reapplies_path() {
        let (sigma, m) = one_bit();
        let g = sigma.lookup("g").unwrap();
        let mut sys = ForwardSystem::new(&m);
        let pc = sys.constant("pc");
        let o = sys.declare("o", &[Variance::Covariant]);
        let (s1, fe, fx, s2) = (sys.var("S1"), sys.var("Fe"), sys.var("Fx"), sys.var("S2"));
        let e = sys.identity();
        let fg = sys.word(&[g]);
        sys.add_constant(pc, s1);
        // call: o(S1) ⊆ Fe; callee does g: Fe ⊆^g Fx; return: o⁻¹(Fx) ⊆ S2.
        sys.add_source(o, &[s1], fe, e).unwrap();
        sys.add_edge(fe, fx, fg);
        sys.add_projection(o, 0, fx, s2, e).unwrap();
        sys.solve();
        assert!(sys.constant_accepting(s2, pc), "pc passed through g");
        assert!(
            sys.occurs_accepting(fx, pc),
            "pc wrapped in o at callee exit"
        );
        // The one-pass occurrence map agrees with the per-var query.
        let occ = sys.constant_occurrence_states(pc);
        for v in [s1, fe, fx, s2] {
            let accepting = occ[v.index()].iter().any(|&s| sys.state_accepting(s));
            assert_eq!(accepting, sys.occurs_accepting(v, pc));
        }
    }

    #[test]
    fn mismatch_clash_detected() {
        let (_, m) = one_bit();
        let mut sys = ForwardSystem::new(&m);
        let c = sys.constant("c");
        let d = sys.constant("d");
        let x = sys.var("X");
        sys.add_constant(c, x);
        let e = sys.identity();
        sys.add_sink(x, d, &[], e).unwrap();
        sys.solve();
        assert_eq!(sys.clashes().len(), 1);
    }

    #[test]
    fn forward_tracks_states_not_functions() {
        // On a diamond with many annotated paths, constants collapse to at
        // most |S| states per variable.
        let (sigma, m) = one_bit();
        let g = sigma.lookup("g").unwrap();
        let k = sigma.lookup("k").unwrap();
        let mut sys = ForwardSystem::new(&m);
        let c = sys.constant("c");
        let src = sys.var("SRC");
        let dst = sys.var("DST");
        sys.add_constant(c, src);
        let fg = sys.word(&[g]);
        let fk = sys.word(&[k]);
        for i in 0..10 {
            let mid = sys.var(&format!("M{i}"));
            sys.add_edge(src, mid, if i % 2 == 0 { fg } else { fk });
            sys.add_edge(mid, dst, if i % 3 == 0 { fg } else { fk });
        }
        sys.solve();
        assert!(sys.constant_states(dst, c).len() <= 2);
    }
}
