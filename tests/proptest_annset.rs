//! Property test: the indexed `AnnSet`/entry-log storage inside the
//! solver is pure representation — solved forms must be *identical* to
//! those of a naive reference solver (chaotic iteration over flat
//! `BTreeSet`s of facts, no indexes, no cycle elimination), on random
//! constraint systems, and must stay identical across
//! `push_epoch`/`pop_epoch` rollback.
//!
//! The reference runs the paper's full rules, including Trans-Ub (upper
//! bounds copied backward along edges), which the real solver leaves out:
//! the comparison covers every query surface that rule could move —
//! lower bounds, consistency, occurrence annotations, acceptance (from the
//! class scan and from the first-accepting-path search the served `occurs`
//! query runs), PN occurrence annotations and constructor annotations —
//! for a solve run straight through and for one that a budget interrupts
//! every few steps.

use std::collections::{BTreeMap, BTreeSet};

use rasc::automata::{Alphabet, Dfa, SymbolId};
use rasc::constraints::algebra::{Algebra, AnnId, MonoidAlgebra};
use rasc::constraints::{Budget, ConsId, SetExpr, System, VarId, Variance};
use rasc_devtools::{forall, prop_assert_eq, Config, Rng};

const N_VARS: usize = 8;
const PROBE: usize = 0;
const O: usize = 1;
const P: usize = 2;
const HEADS: [&str; 3] = ["probe", "o", "p"];
/// The projections a constraint can use: `o⁻¹`, `p⁻¹` and `p⁻²`.
const PROJS: [(usize, usize); 3] = [(O, 0), (P, 0), (P, 1)];

/// Variable edges (possibly cyclic), probe constants, unary `o` and
/// binary `p` sources and sinks, and projections; every constraint may
/// carry an annotation, so PN and meets see annotated nesting.
#[derive(Debug, Clone)]
enum RandCon {
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

fn arb_cons(rng: &mut Rng, max: usize) -> Vec<RandCon> {
    (0..rng.gen_range(1..max)).map(|_| arb_con(rng)).collect()
}

/// Constructor sources/sinks in the reference: `(head, args)` where the
/// head indexes `HEADS`.
type RSrc = (usize, Vec<usize>);

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RSnk {
    Cons(usize, Vec<usize>),
    Proj(usize, usize, usize),
}

/// The naive solver: flat fact sets, no per-endpoint indexes, no
/// constructor buckets, no union-find — just the §3.1 resolution rules
/// run by chaotic iteration until nothing new appears. Deliberately dumb:
/// any representation trick in the real solver that changes semantics
/// shows up as a divergence from this.
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

    fn add(&mut self, syms: &[SymbolId], con: &RandCon) {
        let ann = |alg: &mut MonoidAlgebra, s: Option<u8>| match s {
            Some(i) => alg.word(&[syms[i as usize]]),
            None => alg.identity(),
        };
        let (src, snk, var, s) = match *con {
            RandCon::Edge(a, b, s) => {
                let f = ann(&mut self.alg, s);
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
        let f = ann(&mut self.alg, s);
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
                                    // `o` and `p` are covariant in every
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

    /// The composed annotations with which the probe occurs at any depth
    /// in each variable: `occ(X) ∋ f` for `probe ⊆^f X`, and `f∘h` for
    /// `c(…,Y,…) ⊆^f X` and `h ∈ occ(Y)`.
    fn occurrences(&mut self) -> Vec<BTreeSet<AnnId>> {
        let mut occ = vec![BTreeSet::new(); N_VARS];
        let lbs: Vec<(usize, RSrc, AnnId)> = self.lbs.iter().cloned().collect();
        loop {
            let mut changed = false;
            for (x, src, f) in &lbs {
                if src.0 == PROBE {
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
    fn constructor_annotations(&mut self) -> BTreeMap<RSrc, BTreeSet<AnnId>> {
        let id = self.alg.identity();
        let mut ann: BTreeMap<RSrc, BTreeSet<AnnId>> = self
            .exprs
            .iter()
            .map(|e| (e.clone(), BTreeSet::from([id])))
            .collect();
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
                break;
            }
        }
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

/// Per-variable observable state plus global consistency, rendered via
/// `describe` so annotation ids from different algebra instances compare.
#[derive(Debug, PartialEq)]
struct Signature {
    /// Per variable: its probe, `o` and `p` lower-bound annotations.
    bounds: Vec<[Vec<String>; 3]>,
    consistent: bool,
    /// Per variable: the probe's occurrence annotations at any depth (the
    /// served `anns` answer).
    occurrences: Vec<Vec<String>>,
    /// Per variable: whether the probe occurs in it at any depth with an
    /// accepting annotation, by the violation scan's classes.
    accepting: Vec<bool>,
    /// The same, by the search that stops at the first accepting path
    /// (the served `occurs` answer).
    occurs: Vec<bool>,
    /// Per variable: the probe's PN occurrence annotations.
    pn: Vec<Vec<String>>,
    /// Per constructor expression: its constructor annotations.
    cons_anns: BTreeMap<String, Vec<String>>,
}

fn ref_signature(machine: &Dfa, syms: &[SymbolId], cons: &[RandCon]) -> Signature {
    let mut r = RefSolver::new(machine);
    for c in cons {
        r.add(syms, c);
    }
    r.solve();
    let bounds = (0..N_VARS)
        .map(|v| [PROBE, O, P].map(|head| r.lower_bound_annotations(v, head)))
        .collect();
    let occ = r.occurrences();
    let accepting: Vec<bool> = occ
        .iter()
        .map(|anns| anns.iter().any(|&a| r.alg.is_accepting(a)))
        .collect();
    let occurrences = occ
        .into_iter()
        .map(|anns| described(&r.alg, anns))
        .collect();
    let pn = (0..N_VARS)
        .map(|v| {
            let anns = r.pn_occurrence_annotations(v);
            described(&r.alg, anns)
        })
        .collect();
    let cons_anns = r
        .constructor_annotations()
        .into_iter()
        .map(|((head, args), anns)| (render_expr(head, &args), described(&r.alg, anns)))
        .collect();
    Signature {
        bounds,
        consistent: !r.clashed,
        occurrences,
        occurs: accepting.clone(),
        accepting,
        pn,
        cons_anns,
    }
}

/// The real solver over the same variables and constructors.
struct Model {
    sys: System<MonoidAlgebra>,
    vars: Vec<VarId>,
    heads: [ConsId; 3],
}

impl Model {
    fn new(machine: &Dfa) -> Model {
        let mut sys = System::new(MonoidAlgebra::new(machine));
        let vars: Vec<VarId> = (0..N_VARS).map(|i| sys.var(&format!("v{i}"))).collect();
        let heads = [
            sys.constructor(HEADS[PROBE], &[]),
            sys.constructor(HEADS[O], &[Variance::Covariant]),
            sys.constructor(HEADS[P], &[Variance::Covariant, Variance::Covariant]),
        ];
        Model { sys, vars, heads }
    }

    fn add(&mut self, syms: &[SymbolId], con: &RandCon) {
        let ann = |sys: &mut System<MonoidAlgebra>, s: Option<u8>| match s {
            Some(i) => sys.algebra_mut().word(&[syms[i as usize]]),
            None => sys.algebra().identity(),
        };
        let v = |i: usize| self.vars[i];
        let cons = |head: usize, args: &[usize]| {
            SetExpr::cons_vars(self.heads[head], args.iter().map(|&a| v(a)))
        };
        let (lhs, rhs, s) = match *con {
            RandCon::Edge(a, b, s) => (SetExpr::var(v(a)), SetExpr::var(v(b)), s),
            RandCon::Const(a, s) => (cons(PROBE, &[]), SetExpr::var(v(a)), s),
            RandCon::Wrap(a, b, s) => (cons(O, &[a]), SetExpr::var(v(b)), s),
            RandCon::Pair(a, b, c, s) => (cons(P, &[a, b]), SetExpr::var(v(c)), s),
            RandCon::Proj(i, a, b, s) => {
                let (head, index) = PROJS[i];
                (
                    SetExpr::proj(self.heads[head], index, v(a)),
                    SetExpr::var(v(b)),
                    s,
                )
            }
            RandCon::Sink(a, b, s) => (SetExpr::var(v(a)), cons(O, &[b]), s),
            RandCon::PairSink(a, b, c, s) => (SetExpr::var(v(a)), cons(P, &[b, c]), s),
        };
        let f = ann(&mut self.sys, s);
        self.sys.add_ann(lhs, rhs, f).unwrap();
    }

    /// Solves to the fixpoint, in one go or (with `steps`) under a budget
    /// of that many steps at a time, resuming until complete.
    fn solve(&mut self, steps: Option<u64>) {
        match steps {
            None => self.sys.solve(),
            Some(n) => {
                let budget = Budget::unlimited().with_steps(n);
                while !self.sys.solve_bounded(&budget).is_complete() {}
            }
        }
    }

    fn signature(&mut self) -> Signature {
        let [probe, _, _] = self.heads;
        let sys = &mut self.sys;
        let bounds = self
            .vars
            .iter()
            .map(|&v| {
                self.heads
                    .map(|head| described(sys.algebra(), sys.lower_bound_annotations(v, head)))
            })
            .collect();
        let occurrences = self
            .vars
            .iter()
            .map(|&v| {
                let anns = sys.occurrence_annotations(v, probe);
                described(sys.algebra(), anns)
            })
            .collect();
        let occurs = self
            .vars
            .iter()
            .map(|&v| sys.occurs_accepting(v, probe))
            .collect();
        let occ = sys.constant_occurrence_classes(probe);
        let accepting = self
            .vars
            .iter()
            .map(|v| {
                occ[v.index()]
                    .iter()
                    .any(|&c| sys.algebra().class_accepting(c))
            })
            .collect();
        let pn = self
            .vars
            .iter()
            .map(|&v| {
                let anns = sys.pn_occurrence_annotations(v, probe);
                described(sys.algebra(), anns)
            })
            .collect();
        let heads = self.heads;
        let cons_anns = sys
            .constructor_annotations()
            .into_iter()
            .map(|((cons, args), anns)| {
                let head = heads.iter().position(|&h| h == cons).unwrap();
                let args: Vec<usize> = args.iter().map(|a| a.index()).collect();
                (render_expr(head, &args), described(sys.algebra(), anns))
            })
            .collect();
        Signature {
            bounds,
            consistent: sys.is_consistent(),
            occurrences,
            accepting,
            occurs,
            pn,
            cons_anns,
        }
    }
}

/// The property machines. Every word is a substring of a word of the
/// first language, so nothing is pruned there; in `a+ b+`, `b` then `a`
/// can never be accepted, so resolution discards meetings under it.
fn machines() -> Vec<(Alphabet, Dfa)> {
    ["b* a (b | a b* a)* b+", "a+ b+"]
        .iter()
        .map(|re| {
            let sigma = Alphabet::from_names(["a", "b"]);
            let regex = rasc::automata::Regex::parse(re, &sigma).unwrap();
            let dfa = regex.compile(&sigma);
            (sigma, dfa)
        })
        .collect()
}

#[test]
fn indexed_storage_matches_naive_reference_across_rollback() {
    forall(
        "indexed_storage_matches_naive_reference_across_rollback",
        Config::cases(96),
        |rng| {
            let step = rng.gen_range(0..7) as u8;
            (arb_cons(rng, 18), arb_cons(rng, 12), step)
        },
        |(base, extra, step)| {
            for (sigma, dfa) in machines() {
                let syms: Vec<SymbolId> = sigma.symbols().collect();
                let all: Vec<RandCon> = base.iter().chain(extra).cloned().collect();
                let base_ref = ref_signature(&dfa, &syms, base);
                let all_ref = ref_signature(&dfa, &syms, &all);

                // Once solved straight through, once interrupted every 1–7
                // steps and resumed to completion.
                for steps in [None, Some(u64::from(step % 7) + 1)] {
                    let mut m = Model::new(&dfa);
                    for c in base {
                        m.add(&syms, c);
                    }
                    m.solve(steps);
                    let base_sig = m.signature();
                    prop_assert_eq!(
                        &base_sig,
                        &base_ref,
                        "indexed solver diverged from naive reference on the base system \
                         (steps {steps:?})"
                    );

                    // Extend inside an epoch: still must match the
                    // reference on the concatenated constraint list.
                    m.sys.push_epoch();
                    for c in extra {
                        m.add(&syms, c);
                    }
                    m.solve(steps);
                    prop_assert_eq!(
                        &m.signature(),
                        &all_ref,
                        "indexed solver diverged from naive reference inside the epoch \
                         (steps {steps:?})"
                    );

                    // Rollback must restore exactly the base solved form.
                    m.sys.pop_epoch();
                    prop_assert_eq!(
                        &m.signature(),
                        &base_sig,
                        "rollback did not restore the base solved form (steps {steps:?})"
                    );

                    // And the rolled-back system must stay fully usable:
                    // re-adding the same increment re-derives the same
                    // fixpoint.
                    for c in extra {
                        m.add(&syms, c);
                    }
                    m.solve(steps);
                    prop_assert_eq!(
                        &m.signature(),
                        &all_ref,
                        "re-adding the increment after rollback diverged (steps {steps:?})"
                    );
                }
            }
            Ok(())
        },
    );
}
