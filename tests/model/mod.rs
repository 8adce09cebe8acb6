//! The constraint model the property suites share: one generator of
//! random constraints ([`RandCon`]), one way to build and grow a real
//! [`System`] from them ([`Machine`]), one observer of the whole query
//! surface ([`signature`]), and a naive reference solver
//! ([`Machine::reference`]) that runs the paper's §3.1 resolution rules
//! by chaotic iteration.
//!
//! A suite includes it with `mod model;` and checks every fixpoint it
//! reaches — batch, incremental, resumed, rolled back, restored, forked —
//! against the reference's signature for the same live constraint list.
//!
//! Every system built here declares its variables `v0…v7` and then the
//! heads `probe`, `o` and `p`, so they get the dense ids `0..N_VARS` and
//! `0..3`. Restored and forked systems keep those ids without being
//! re-declared, and are read through the same ids.

// Each suite uses part of the model.
#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use rasc::automata::{Alphabet, Dfa, Regex, SymbolId};
use rasc::constraints::algebra::{Algebra, AnnId, MonoidAlgebra};
use rasc::constraints::{
    ConsId, OccurrenceWitness, SetExpr, SolverConfig, System, VarId, Variance,
};
use rasc_devtools::Rng;

const N_VARS: usize = 8;
const PROBE: usize = 0;
const O: usize = 1;
const P: usize = 2;
/// The heads; `HEADS[h]` has arity `h`, covariant in every position.
const HEADS: [&str; 3] = ["probe", "o", "p"];
/// The projections a constraint can use: `o⁻¹`, `p⁻¹` and `p⁻²`.
const PROJS: [(usize, usize); 3] = [(O, 0), (P, 0), (P, 1)];

fn var(i: usize) -> VarId {
    VarId::from_index(i)
}

fn head(h: usize) -> ConsId {
    ConsId::from_index(h)
}

/// Variable edges (possibly cyclic), probe constants, unary `o` and
/// binary `p` sources and sinks, and projections; every constraint may
/// carry an annotation, so PN and meets see annotated nesting.
#[derive(Debug, Clone)]
pub enum RandCon {
    Edge(usize, usize, Option<u8>),
    Const(usize, Option<u8>),
    Wrap(usize, usize, Option<u8>),            // o(v1) ⊆ v2
    Pair(usize, usize, usize, Option<u8>),     // p(v1, v2) ⊆ v3
    Proj(usize, usize, usize, Option<u8>),     // PROJS[i](v1) ⊆ v2
    Sink(usize, usize, Option<u8>),            // v1 ⊆ o(v2)
    PairSink(usize, usize, usize, Option<u8>), // v1 ⊆ p(v2, v3)
}

fn arb_sym(rng: &mut Rng) -> Option<u8> {
    if rng.gen_bool(0.5) {
        Some(rng.gen_range(0..2) as u8)
    } else {
        None
    }
}

fn arb_con(rng: &mut Rng) -> RandCon {
    let v = |rng: &mut Rng| rng.gen_range(0..N_VARS);
    match rng.gen_range(0..15) {
        0..=4 => RandCon::Edge(v(rng), v(rng), arb_sym(rng)),
        5 | 6 => RandCon::Const(v(rng), arb_sym(rng)),
        7 | 8 => RandCon::Wrap(v(rng), v(rng), arb_sym(rng)),
        9 => RandCon::Pair(v(rng), v(rng), v(rng), arb_sym(rng)),
        10 | 11 => RandCon::Proj(rng.gen_range(0..PROJS.len()), v(rng), v(rng), arb_sym(rng)),
        12 | 13 => RandCon::Sink(v(rng), v(rng), arb_sym(rng)),
        _ => RandCon::PairSink(v(rng), v(rng), v(rng), arb_sym(rng)),
    }
}

/// Between `lo` and `hi - 1` random constraints.
pub fn arb_cons(rng: &mut Rng, lo: usize, hi: usize) -> Vec<RandCon> {
    (0..rng.gen_range(lo..hi)).map(|_| arb_con(rng)).collect()
}

/// A property machine over `{a, b}`; annotations are the words of its
/// symbols.
pub struct Machine {
    dfa: Dfa,
    syms: Vec<SymbolId>,
}

impl Machine {
    /// Words with an odd number of `a` that end in `b` (4 minimal
    /// states). Every word is a substring of one of its words, so
    /// resolution prunes nothing.
    pub fn odd_a_then_b() -> Machine {
        Machine::new("b* a (b | a b* a)* b+")
    }

    /// Both machines: [`Machine::odd_a_then_b`], and `a+ b+`, in which
    /// `b` then `a` can never be accepted, so resolution discards
    /// meetings under it.
    pub fn all() -> [Machine; 2] {
        [Machine::odd_a_then_b(), Machine::new("a+ b+")]
    }

    fn new(re: &str) -> Machine {
        let sigma = Alphabet::from_names(["a", "b"]);
        let dfa = Regex::parse(re, &sigma).unwrap().compile(&sigma);
        let syms = sigma.symbols().collect();
        Machine { dfa, syms }
    }

    fn ann(&self, alg: &mut MonoidAlgebra, s: Option<u8>) -> AnnId {
        match s {
            Some(i) => alg.word(&[self.syms[usize::from(i)]]),
            None => alg.identity(),
        }
    }

    /// An empty system with the model's variables and heads declared.
    pub fn system(&self, config: SolverConfig) -> System<MonoidAlgebra> {
        let mut sys = System::with_config(MonoidAlgebra::new(&self.dfa), config);
        for i in 0..N_VARS {
            assert_eq!(sys.var(&format!("v{i}")), var(i));
        }
        for (h, name) in HEADS.iter().enumerate() {
            assert_eq!(
                sys.constructor(name, &vec![Variance::Covariant; h]),
                head(h)
            );
        }
        sys
    }

    /// Adds `con` to `sys` without solving.
    pub fn apply(&self, sys: &mut System<MonoidAlgebra>, con: &RandCon) {
        let cons =
            |h: usize, args: &[usize]| SetExpr::cons_vars(head(h), args.iter().map(|&a| var(a)));
        let v = |i: usize| SetExpr::var(var(i));
        let (lhs, rhs, s) = match *con {
            RandCon::Edge(a, b, s) => (v(a), v(b), s),
            RandCon::Const(a, s) => (cons(PROBE, &[]), v(a), s),
            RandCon::Wrap(a, b, s) => (cons(O, &[a]), v(b), s),
            RandCon::Pair(a, b, c, s) => (cons(P, &[a, b]), v(c), s),
            RandCon::Proj(i, a, b, s) => {
                let (h, index) = PROJS[i];
                (SetExpr::proj(head(h), index, var(a)), v(b), s)
            }
            RandCon::Sink(a, b, s) => (v(a), cons(O, &[b]), s),
            RandCon::PairSink(a, b, c, s) => (v(a), cons(P, &[b, c]), s),
        };
        let f = self.ann(sys.algebra_mut(), s);
        sys.add_ann(lhs, rhs, f).unwrap();
    }

    /// A system with `cons` added, solved.
    pub fn build(&self, config: SolverConfig, cons: &[RandCon]) -> System<MonoidAlgebra> {
        let mut sys = self.system(config);
        for c in cons {
            self.apply(&mut sys, c);
        }
        sys.solve();
        sys
    }

    /// The reference solver's signature for `cons`.
    pub fn reference(&self, cons: &[RandCon]) -> Signature {
        let mut r = RefSolver::new(&self.dfa);
        for c in cons {
            r.add(self, c);
        }
        r.solve();
        r.signature()
    }
}

/// The observable state of a solved system: per variable and globally,
/// rendered through `describe` so annotation ids from different algebra
/// instances compare.
#[derive(Debug, PartialEq)]
pub struct Signature {
    /// Per variable: its probe, `o` and `p` lower-bound annotations.
    bounds: Vec<[Vec<String>; 3]>,
    consistent: bool,
    /// Per variable: whether its least solution is non-empty.
    nonempty: Vec<bool>,
    /// Per variable: the probe's occurrence annotations at any depth (the
    /// served `anns` answer).
    occurrences: Vec<Vec<String>>,
    /// Per variable: whether the probe occurs in it at any depth with an
    /// accepting annotation, by the violation scan's classes.
    accepting: Vec<bool>,
    /// The same, by the search that stops at the first accepting path
    /// (the served `occurs` answer). Each witness that search reports is
    /// replayed as a derivation ([`replay_witness`]).
    occurs: Vec<bool>,
    /// Per variable: whether `o` occurs in it with an accepting
    /// annotation, by the same search.
    o_occurs: Vec<bool>,
    /// Per variable: the probe's PN occurrence annotations.
    pn: Vec<Vec<String>>,
    /// Per constructor expression: its constructor annotations.
    cons_anns: BTreeMap<String, Vec<String>>,
}

/// The signature of `sys`, read through the model's dense ids.
pub fn signature(sys: &mut System<MonoidAlgebra>) -> Signature {
    let probe = head(PROBE);
    let vars = || (0..N_VARS).map(var);
    let bounds = vars()
        .map(|v| {
            [PROBE, O, P].map(|h| described(sys.algebra(), sys.lower_bound_annotations(v, head(h))))
        })
        .collect();
    let nonempty = vars().map(|v| sys.nonempty(v)).collect();
    let occurrences = vars()
        .map(|v| {
            let anns = sys.occurrence_annotations(v, probe);
            described(sys.algebra(), anns)
        })
        .collect();
    let occurs: Vec<bool> = vars().map(|v| sys.occurs_accepting(v, probe)).collect();
    let o_occurs: Vec<bool> = vars().map(|v| sys.occurs_accepting(v, head(O))).collect();
    for (target, found) in [(probe, &occurs), (head(O), &o_occurs)] {
        for v in vars() {
            let w = sys.occurrence_witness(v, target);
            assert_eq!(
                w.is_some(),
                found[v.index()],
                "witness of {target:?} at {v:?}"
            );
            if let Some(w) = w {
                replay_witness(sys, v, target, &w);
            }
        }
    }
    let occ = sys.constant_occurrence_classes(probe);
    let accepting = vars()
        .map(|v| {
            occ[v.index()]
                .iter()
                .any(|&c| sys.algebra().class_accepting(c))
        })
        .collect();
    let pn = vars()
        .map(|v| {
            let anns = sys.pn_occurrence_annotations(v, probe);
            described(sys.algebra(), anns)
        })
        .collect();
    let cons_anns = sys
        .constructor_annotations()
        .into_iter()
        .map(|((cons, args), anns)| {
            let args: Vec<usize> = args.iter().map(|a| a.index()).collect();
            (
                render_expr(cons.index(), &args),
                described(sys.algebra(), anns),
            )
        })
        .collect();
    Signature {
        bounds,
        consistent: sys.is_consistent(),
        nonempty,
        occurrences,
        accepting,
        occurs,
        o_occurs,
        pn,
        cons_anns,
    }
}

/// Replays `w`, a witness that `target` occurs at `x`, as a derivation
/// through the solved form's lower bounds ([`System::lower_bounds`]),
/// sharing no code with the search that found it, and panics unless it
/// is one:
/// - each stack constructor heads a lower bound at the current variable,
///   and one of that bound's arguments is the next variable;
/// - the last variable holds `target` as a lower bound;
/// - the entries' annotations, composed outermost first, give `w.ann`,
///   and `w.ann` is accepting.
///
/// A frame does not say which bound or argument it went through, so the
/// replay carries every `(variable, composed annotation)` the stack so
/// far reaches.
fn replay_witness(
    sys: &mut System<MonoidAlgebra>,
    x: VarId,
    target: ConsId,
    w: &OccurrenceWitness,
) {
    let bounds =
        |sys: &System<MonoidAlgebra>, v: VarId, head: ConsId| -> Vec<(Vec<VarId>, AnnId)> {
            sys.lower_bounds(v)
                .filter(|&(c, _, _)| c == head)
                .map(|(_, args, f)| (args.to_vec(), f))
                .collect()
        };
    let mut reached = BTreeSet::from([(x, sys.algebra().identity())]);
    for (depth, &frame) in w.stack.iter().enumerate() {
        let mut next = BTreeSet::new();
        for &(v, outer) in &reached {
            for (args, f) in bounds(sys, v, frame) {
                let total = sys.algebra_mut().compose(outer, f);
                next.extend(args.into_iter().map(|a| (a, total)));
            }
        }
        assert!(
            !next.is_empty(),
            "witness {w:?} of {target:?} at {x:?}: frame {depth} ({frame:?}) heads no lower bound"
        );
        reached = next;
    }
    let mut ends = BTreeSet::new();
    for &(v, outer) in &reached {
        for (_, f) in bounds(sys, v, target) {
            ends.insert(sys.algebra_mut().compose(outer, f));
        }
    }
    assert!(
        ends.contains(&w.ann),
        "witness {w:?} of {target:?} at {x:?} replays to {ends:?}, not its annotation"
    );
    assert!(
        sys.algebra().is_accepting(w.ann),
        "witness {w:?} of {target:?} at {x:?} is not accepting"
    );
}

/// Sorted, deduplicated `describe` renderings.
fn described(alg: &MonoidAlgebra, anns: impl IntoIterator<Item = AnnId>) -> Vec<String> {
    let mut s: Vec<String> = anns.into_iter().map(|a| alg.describe(a)).collect();
    s.sort();
    s.dedup();
    s
}

/// `o(v1)`, `p(v1,v2)`, `probe()`.
fn render_expr(head: usize, args: &[usize]) -> String {
    let args: Vec<String> = args.iter().map(|a| format!("v{a}")).collect();
    format!("{}({})", HEADS[head], args.join(","))
}

/// Constructor sources in the reference: `(head, args)`.
type RSrc = (usize, Vec<usize>);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RSnk {
    Cons(usize, Vec<usize>),
    Proj(usize, usize, usize),
}

/// The naive solver: flat fact sets, no entry logs or membership sets, no
/// union-find — just the §3.1 resolution rules
/// run by chaotic iteration until nothing new appears. Deliberately dumb:
/// any representation trick in the real solver that changes semantics
/// shows up as a divergence from this.
///
/// It runs the paper's full rules, including Trans-Ub (upper bounds
/// copied backward along edges), which the real solver leaves out, so a
/// signature that matches shows that leaving it out moves no query.
struct RefSolver {
    alg: MonoidAlgebra,
    edges: BTreeSet<(usize, usize, AnnId)>,
    lbs: BTreeSet<(usize, RSrc, AnnId)>,
    ubs: BTreeSet<(usize, RSnk, AnnId)>,
    /// Every constructor expression in a constraint, source or sink.
    exprs: BTreeSet<RSrc>,
    clashed: bool,
}

impl RefSolver {
    fn new(machine: &Dfa) -> RefSolver {
        RefSolver {
            alg: MonoidAlgebra::new(machine),
            edges: BTreeSet::new(),
            lbs: BTreeSet::new(),
            ubs: BTreeSet::new(),
            exprs: BTreeSet::new(),
            clashed: false,
        }
    }

    fn add_edge(&mut self, x: usize, y: usize, f: AnnId) -> bool {
        if (x == y && f == self.alg.identity()) || !self.alg.is_useful(f) {
            return false;
        }
        self.edges.insert((x, y, f))
    }

    fn add_lb(&mut self, x: usize, src: RSrc, g: AnnId) -> bool {
        if !self.alg.is_useful(g) {
            return false;
        }
        self.lbs.insert((x, src, g))
    }

    fn add_ub(&mut self, x: usize, snk: RSnk, h: AnnId) -> bool {
        if !self.alg.is_useful(h) {
            return false;
        }
        self.ubs.insert((x, snk, h))
    }

    fn add(&mut self, m: &Machine, con: &RandCon) {
        let (src, snk, var, s) = match *con {
            RandCon::Edge(a, b, s) => {
                let f = m.ann(&mut self.alg, s);
                self.add_edge(a, b, f);
                return;
            }
            RandCon::Const(v, s) => (Some((PROBE, vec![])), None, v, s),
            RandCon::Wrap(a, b, s) => (Some((O, vec![a])), None, b, s),
            RandCon::Pair(a, b, c, s) => (Some((P, vec![a, b])), None, c, s),
            RandCon::Proj(i, a, b, s) => {
                let (head, index) = PROJS[i];
                (None, Some(RSnk::Proj(head, index, b)), a, s)
            }
            RandCon::Sink(a, b, s) => (None, Some(RSnk::Cons(O, vec![b])), a, s),
            RandCon::PairSink(a, b, c, s) => (None, Some(RSnk::Cons(P, vec![b, c])), a, s),
        };
        let f = m.ann(&mut self.alg, s);
        if let Some(src) = src {
            self.exprs.insert(src.clone());
            self.add_lb(var, src, f);
        }
        if let Some(snk) = snk {
            if let RSnk::Cons(head, args) = &snk {
                self.exprs.insert((*head, args.clone()));
            }
            self.add_ub(var, snk, f);
        }
    }

    fn solve(&mut self) {
        loop {
            // Chaotic iteration over full snapshots of the fact sets —
            // deliberately the dumbest correct strategy.
            let edges: Vec<(usize, usize, AnnId)> = self.edges.iter().cloned().collect();
            let lbs: Vec<(usize, RSrc, AnnId)> = self.lbs.iter().cloned().collect();
            let ubs: Vec<(usize, RSnk, AnnId)> = self.ubs.iter().cloned().collect();
            let mut changed = false;
            for &(x, y, f) in &edges {
                // Trans-Lb: c(…) ⊆^g X, X ⊆^f Y ⇒ c(…) ⊆^{f∘g} Y.
                for (vx, src, g) in &lbs {
                    if *vx == x {
                        let h = self.alg.compose(f, *g);
                        changed |= self.add_lb(y, src.clone(), h);
                    }
                }
                // Trans-Ub: X ⊆^f Y, Y ⊆^h snk ⇒ X ⊆^{h∘f} snk.
                for (vy, snk, h) in &ubs {
                    if *vy == y {
                        let c = self.alg.compose(*h, f);
                        changed |= self.add_ub(x, snk.clone(), c);
                    }
                }
            }
            // Meet: c(…) ⊆^g X, X ⊆^h snk ⇒ resolve under h∘g.
            for (vx, src, g) in &lbs {
                for (vy, snk, h) in &ubs {
                    if vx != vy {
                        continue;
                    }
                    let f = self.alg.compose(*h, *g);
                    if !self.alg.is_useful(f) {
                        continue;
                    }
                    match snk {
                        RSnk::Cons(head, args) => {
                            if src.0 != *head {
                                self.clashed = true;
                            } else {
                                for (i, &sa) in src.1.iter().enumerate() {
                                    // Every head is covariant in every
                                    // position.
                                    changed |= self.add_edge(sa, args[i], f);
                                }
                            }
                        }
                        RSnk::Proj(head, index, target) => {
                            if src.0 == *head {
                                changed |= self.add_edge(src.1[*index], *target, f);
                            }
                        }
                    }
                }
            }
            if !changed {
                return;
            }
        }
    }

    fn signature(mut self) -> Signature {
        let bounds = (0..N_VARS)
            .map(|v| [PROBE, O, P].map(|head| self.lower_bound_annotations(v, head)))
            .collect();
        let alive = self.alive();
        let occ = self.occurrences(PROBE);
        let accepting = self.accepting(&occ);
        let o_occ = self.occurrences(O);
        let o_occurs = self.accepting(&o_occ);
        let occurrences = occ
            .into_iter()
            .map(|anns| described(&self.alg, anns))
            .collect();
        let pn = (0..N_VARS)
            .map(|v| {
                let anns = self.pn_occurrence_annotations(v);
                described(&self.alg, anns)
            })
            .collect();
        let cons_anns = self
            .constructor_annotations(&alive)
            .into_iter()
            .map(|((head, args), anns)| (render_expr(head, &args), described(&self.alg, anns)))
            .collect();
        Signature {
            bounds,
            consistent: !self.clashed,
            nonempty: alive.to_vec(),
            occurrences,
            occurs: accepting.clone(),
            accepting,
            o_occurs,
            pn,
            cons_anns,
        }
    }

    /// Sorted, described annotations of `head`-headed lower bounds of `v`
    /// — the reference mirror of `System::lower_bound_annotations`.
    fn lower_bound_annotations(&self, v: usize, head: usize) -> Vec<String> {
        described(
            &self.alg,
            self.lbs
                .iter()
                .filter(|(vx, src, _)| *vx == v && src.0 == head)
                .map(|(_, _, a)| *a),
        )
    }

    /// Per variable: whether its least solution is non-empty, the
    /// productivity fixpoint over lower bounds (annotations play no part).
    fn alive(&self) -> [bool; N_VARS] {
        let mut alive = [false; N_VARS];
        loop {
            let mut changed = false;
            for (x, src, _) in &self.lbs {
                if !alive[*x] && src.1.iter().all(|&a| alive[a]) {
                    alive[*x] = true;
                    changed = true;
                }
            }
            if !changed {
                return alive;
            }
        }
    }

    /// The composed annotations with which `head` occurs at any depth in
    /// each variable: `occ(X) ∋ f` for `head(…) ⊆^f X`, and `f∘h` for
    /// `c(…,Y,…) ⊆^f X` and `h ∈ occ(Y)`.
    fn occurrences(&mut self, head: usize) -> Vec<BTreeSet<AnnId>> {
        let mut occ = vec![BTreeSet::new(); N_VARS];
        let lbs: Vec<(usize, RSrc, AnnId)> = self.lbs.iter().cloned().collect();
        loop {
            let mut changed = false;
            for (x, src, f) in &lbs {
                if src.0 == head {
                    changed |= occ[*x].insert(*f);
                }
                for &arg in &src.1 {
                    let inner: Vec<AnnId> = occ[arg].iter().copied().collect();
                    for h in inner {
                        let composed = self.alg.compose(*f, h);
                        changed |= occ[*x].insert(composed);
                    }
                }
            }
            if !changed {
                return occ;
            }
        }
    }

    fn accepting(&self, occ: &[BTreeSet<AnnId>]) -> Vec<bool> {
        occ.iter()
            .map(|anns| anns.iter().any(|&a| self.alg.is_accepting(a)))
            .collect()
    }

    /// PN occurrence annotations of the probe at `x`: the bare probe's
    /// annotations closed under edges and every projection upper bound,
    /// then a descent from `x` through lower bounds.
    fn pn_occurrence_annotations(&mut self, x: usize) -> Vec<AnnId> {
        let mut q: Vec<BTreeSet<AnnId>> = vec![BTreeSet::new(); N_VARS];
        for (v, src, g) in &self.lbs {
            if src.0 == PROBE {
                q[*v].insert(*g);
            }
        }
        loop {
            let mut changed = false;
            for v in 0..N_VARS {
                let here: Vec<AnnId> = q[v].iter().copied().collect();
                let mut hops: Vec<(usize, AnnId)> = Vec::new();
                for &(a, b, g) in &self.edges {
                    if a == v {
                        hops.push((b, g));
                    }
                }
                for (a, snk, g) in &self.ubs {
                    if let RSnk::Proj(_, _, target) = snk {
                        if *a == v {
                            hops.push((*target, *g));
                        }
                    }
                }
                for &f in &here {
                    for &(w, g) in &hops {
                        let h = self.alg.compose(g, f);
                        if self.alg.is_useful(h) {
                            changed |= q[w].insert(h);
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        let id = self.alg.identity();
        let mut out = BTreeSet::new();
        let mut seen = BTreeSet::from([(x, id)]);
        let mut stack = vec![(x, id)];
        while let Some((v, outer)) = stack.pop() {
            for &f in &q[v] {
                out.insert(self.alg.compose(outer, f));
            }
            let lbs: Vec<(RSrc, AnnId)> = self
                .lbs
                .iter()
                .filter(|(vx, _, _)| *vx == v)
                .map(|(_, src, f)| (src.clone(), *f))
                .collect();
            for (src, f) in lbs {
                let total = self.alg.compose(outer, f);
                for &arg in &src.1 {
                    if seen.insert((arg, total)) {
                        stack.push((arg, total));
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// Constructor annotations: every expression seeded with `f_ε`, and
    /// `f∘α ⊆ β` for each meeting `c^α(…) ⊆^f c^β(…)` at any variable
    /// whose source is non-empty and that resolution keeps (`f` useful).
    fn constructor_annotations(&mut self, alive: &[bool]) -> BTreeMap<RSrc, BTreeSet<AnnId>> {
        let id = self.alg.identity();
        let mut ann: BTreeMap<RSrc, BTreeSet<AnnId>> = self
            .exprs
            .iter()
            .map(|e| (e.clone(), BTreeSet::from([id])))
            .collect();
        let mut meets: Vec<(RSrc, RSrc, AnnId)> = Vec::new();
        for (x, src, g) in &self.lbs {
            for (y, snk, h) in &self.ubs {
                match snk {
                    RSnk::Cons(head, args) if y == x && *head == src.0 => {
                        meets.push((src.clone(), (*head, args.clone()), self.alg.compose(*h, *g)));
                    }
                    _ => {}
                }
            }
        }
        loop {
            let mut changed = false;
            for (src, snk, f) in &meets {
                if !src.1.iter().all(|&a| alive[a]) || !self.alg.is_useful(*f) {
                    continue;
                }
                let alphas: Vec<AnnId> = ann[src].iter().copied().collect();
                for a in alphas {
                    let composed = self.alg.compose(*f, a);
                    changed |= ann.entry(snk.clone()).or_default().insert(composed);
                }
            }
            if !changed {
                return ann;
            }
        }
    }
}
