//! Synthetic raw constraint systems for comparing solver strategies (§5).
//!
//! These workloads are pure regular-reachability systems (a constant
//! source, annotated variable-variable edges, an accepting query at a
//! sink), which all three solver strategies handle, so their costs are
//! directly comparable. The *ladder* shape gives each variable many
//! distinct path classes — the regime where the paper's complexity
//! analysis separates bidirectional (`i` up to `|S|^{|S|}`) from
//! unidirectional (`i = |S|`) solving.

use rasc_automata::{Alphabet, Dfa, SymbolId};
use rasc_core::algebra::{Algebra, MonoidAlgebra};
use rasc_core::backward::BackwardSystem;
use rasc_core::forward::ForwardSystem;
use rasc_core::{ConsId, SetExpr, SnapshotError, System, VarId};
use rasc_devtools::bench::Field;
use rasc_devtools::Rng;
use rasc_inc::json::Json;

/// An annotated edge-list workload over some machine's alphabet.
#[derive(Debug, Clone)]
pub struct EdgeListWorkload {
    /// Number of variables.
    pub n_vars: usize,
    /// Edges `(from, to, word)`.
    pub edges: Vec<(usize, usize, Vec<SymbolId>)>,
    /// The variable seeded with the probe constant.
    pub source: usize,
    /// The variable queried.
    pub sink: usize,
}

/// Unwraps the result of adding a constraint built from ids the workload
/// has just created, panicking with the error otherwise (library code is
/// otherwise free of `unwrap`/`expect`, as CI's panic-free gate checks).
fn well_formed(added: rasc_core::Result<()>) {
    if let Err(e) = added {
        panic!("internal invariant violated: the workload built an ill-formed constraint: {e}");
    }
}

/// Builds (without solving) the bidirectional system for `wl`: variables
/// `v0…`, the constant `probe` seeded at `wl.source`, and one annotated
/// edge per workload edge. Returns the system, its variables (indexed as
/// in `wl`), and the `probe` constructor.
pub fn edge_list_system(
    machine: &Dfa,
    wl: &EdgeListWorkload,
) -> (System<MonoidAlgebra>, Vec<VarId>, ConsId) {
    let mut sys = System::new(MonoidAlgebra::new(machine));
    let vars: Vec<VarId> = (0..wl.n_vars).map(|i| sys.var(&format!("v{i}"))).collect();
    let probe = sys.constructor("probe", &[]);
    well_formed(sys.add(SetExpr::cons(probe, []), SetExpr::var(vars[wl.source])));
    for (from, to, word) in &wl.edges {
        let ann = sys.algebra_mut().word(word);
        well_formed(sys.add_ann(SetExpr::var(vars[*from]), SetExpr::var(vars[*to]), ann));
    }
    (sys, vars, probe)
}

/// A linear chain of `n` edges with random single-symbol annotations.
pub fn chain(n: usize, sigma: &Alphabet, seed: u64) -> EdgeListWorkload {
    let mut rng = Rng::new(seed);
    let syms: Vec<SymbolId> = sigma.symbols().collect();
    let edges = (0..n)
        .map(|i| (i, i + 1, vec![syms[rng.gen_range(0..syms.len())]]))
        .collect();
    EdgeListWorkload {
        n_vars: n + 1,
        edges,
        source: 0,
        sink: n,
    }
}

/// A ladder: `len` stages, each fanning out to `width` parallel edges with
/// random annotations and merging again — every stage multiplies the set
/// of distinct path words.
pub fn ladder(width: usize, len: usize, sigma: &Alphabet, seed: u64) -> EdgeListWorkload {
    let mut rng = Rng::new(seed);
    let syms: Vec<SymbolId> = sigma.symbols().collect();
    let mut edges = Vec::new();
    // Variables: stage hubs 0..=len, plus width rung vars per stage.
    let hub = |stage: usize| stage * (width + 1);
    let rung = |stage: usize, k: usize| stage * (width + 1) + 1 + k;
    for stage in 0..len {
        for k in 0..width {
            let w1 = vec![syms[rng.gen_range(0..syms.len())]];
            let w2 = vec![syms[rng.gen_range(0..syms.len())]];
            edges.push((hub(stage), rung(stage, k), w1));
            edges.push((rung(stage, k), hub(stage + 1), w2));
        }
    }
    EdgeListWorkload {
        n_vars: hub(len) + 1,
        edges,
        source: 0,
        sink: hub(len),
    }
}

/// A dense random digraph: every variable gets `out_degree` outgoing
/// edges with random single-symbol annotations, the first of which chains
/// to the next variable so the whole graph is one reachable cycle. High
/// out-degree makes the solver examine ~`out_degree` candidate facts for
/// every annotation class that lands in the solved form, so cold solving
/// costs far more than the solved form's size — the regime where a warm
/// restart (linear in the solved form) beats cold replay by the widest
/// margin (see `snapshot_restore`).
pub fn dense(n_vars: usize, out_degree: usize, sigma: &Alphabet, seed: u64) -> EdgeListWorkload {
    let mut rng = Rng::new(seed);
    let syms: Vec<SymbolId> = sigma.symbols().collect();
    let mut edges = Vec::with_capacity(n_vars * out_degree);
    for v in 0..n_vars {
        edges.push((
            v,
            (v + 1) % n_vars,
            vec![syms[rng.gen_range(0..syms.len())]],
        ));
        for _ in 1..out_degree {
            edges.push((
                v,
                rng.gen_range(0..n_vars),
                vec![syms[rng.gen_range(0..syms.len())]],
            ));
        }
    }
    EdgeListWorkload {
        n_vars,
        edges,
        source: 0,
        sink: n_vars - 1,
    }
}

/// Out-edges per variable of every [`dense_rungs`] digraph.
pub const DENSE_OUT_DEGREE: usize = 16;

/// One rung of the dense warm-start ladder: the workload, its solved
/// system and the snapshot of that solved form.
pub struct DenseRung {
    /// The digraph.
    pub wl: EdgeListWorkload,
    /// Its bidirectional system, solved.
    pub solved: System<MonoidAlgebra>,
    /// `solved`'s snapshot bytes.
    pub bytes: Vec<u8>,
}

impl DenseRung {
    /// The queried variable.
    pub fn sink(&self) -> VarId {
        VarId::from_index(self.wl.sink)
    }

    /// The row fields every rung reports: `n_vars`, `out_degree`,
    /// `constraints` and `snapshot_bytes`.
    pub fn fields(&self) -> Vec<Field> {
        vec![
            ("n_vars", Json::from(self.wl.n_vars)),
            ("out_degree", Json::from(DENSE_OUT_DEGREE)),
            ("constraints", Json::from(self.wl.edges.len())),
            ("snapshot_bytes", Json::from(self.bytes.len())),
        ]
    }
}

/// The dense warm-start ladder that `cow_fork` and `snapshot_restore`
/// time: [`dense`] digraphs of 125, 500 and 2,000 variables with
/// [`DENSE_OUT_DEGREE`] out-edges each (2k → 8k → 32k constraints) over
/// `machine`, whose alphabet is `sigma`, each solved and serialized.
pub fn dense_rungs(sigma: &Alphabet, machine: &Dfa) -> Result<Vec<DenseRung>, SnapshotError> {
    [125, 500, 2000]
        .into_iter()
        .zip(7..)
        .map(|(n_vars, seed)| {
            let wl = dense(n_vars, DENSE_OUT_DEGREE, sigma, seed);
            let (mut solved, _, _) = edge_list_system(machine, &wl);
            solved.solve();
            let bytes = solved.snapshot_bytes()?;
            Ok(DenseRung { wl, solved, bytes })
        })
        .collect()
}

/// Builds (without solving) a constructor-heavy chain system: a probe
/// constant at `v0`, then `stages` wrap/project pairs
/// `o(v_{2i}) ⊆ v_{2i+1}`, `o⁻¹(v_{2i+1}) ⊆ v_{2i+2}` — each stage forces
/// one source/sink meet and one decomposition, so the derived-fact count
/// grows linearly with `stages` (the scaling-bench workload for the
/// constructor machinery; see `solver_scaling`).
///
/// Returns the system, the final chain variable, and the probe head.
pub fn cons_chain(
    machine: &Dfa,
    stages: usize,
) -> (System<MonoidAlgebra>, rasc_core::VarId, rasc_core::ConsId) {
    let mut sys = System::new(MonoidAlgebra::new(machine));
    let vars: Vec<_> = (0..=2 * stages)
        .map(|i| sys.var(&format!("v{i}")))
        .collect();
    let probe = sys.constructor("probe", &[]);
    let o = sys.constructor("o", &[rasc_core::Variance::Covariant]);
    well_formed(sys.add(SetExpr::cons(probe, []), SetExpr::var(vars[0])));
    for i in 0..stages {
        well_formed(sys.add(
            SetExpr::cons_vars(o, [vars[2 * i]]),
            SetExpr::var(vars[2 * i + 1]),
        ));
        well_formed(sys.add(
            SetExpr::proj(o, 0, vars[2 * i + 1]),
            SetExpr::var(vars[2 * i + 2]),
        ));
    }
    (sys, vars[2 * stages], probe)
}

/// Outcome of running a workload: whether the probe reaches the sink with
/// an accepting annotation, plus a work measure (distinct annotated facts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Accepting reachability of the sink.
    pub reached: bool,
    /// Facts processed by the solver (duplicates included).
    pub facts: usize,
    /// Annotations interned by the algebra (bidirectional/forward only).
    pub annotations: usize,
}

/// Runs the workload on the bidirectional solver.
pub fn run_bidirectional(machine: &Dfa, wl: &EdgeListWorkload) -> RunOutcome {
    let (mut sys, vars, probe) = edge_list_system(machine, wl);
    sys.solve();
    let reached = sys
        .lower_bound_annotations(vars[wl.sink], probe)
        .iter()
        .any(|&a| sys.algebra().is_accepting(a));
    let stats = sys.stats();
    RunOutcome {
        reached,
        facts: stats.facts_processed,
        annotations: stats.annotations,
    }
}

/// Runs the workload on the forward solver.
pub fn run_forward(machine: &Dfa, wl: &EdgeListWorkload) -> RunOutcome {
    let mut sys = ForwardSystem::new(machine);
    let vars: Vec<_> = (0..wl.n_vars).map(|i| sys.var(&format!("v{i}"))).collect();
    let probe = sys.constant("probe");
    sys.add_constant(probe, vars[wl.source]);
    for (from, to, word) in &wl.edges {
        let ann = sys.word(word);
        sys.add_edge(vars[*from], vars[*to], ann);
    }
    sys.solve();
    let reached = sys.constant_accepting(vars[wl.sink], probe);
    let (_, facts, annotations) = sys.stats();
    RunOutcome {
        reached,
        facts,
        annotations,
    }
}

/// Runs the workload on the backward solver.
pub fn run_backward(machine: &Dfa, wl: &EdgeListWorkload) -> RunOutcome {
    let mut sys = BackwardSystem::new(machine);
    let vars: Vec<_> = (0..wl.n_vars).map(|i| sys.var(&format!("v{i}"))).collect();
    for (from, to, word) in &wl.edges {
        let ann = sys.word(word);
        sys.add_edge(vars[*from], vars[*to], ann);
    }
    let probe = sys.probe(vars[wl.sink], "sink");
    sys.solve();
    let reached = sys.reaches_accepting(probe, vars[wl.source]);
    let (_, facts) = sys.stats();
    RunOutcome {
        reached,
        facts,
        annotations: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_automata::adversarial_machine;

    #[test]
    fn all_three_solvers_agree_on_chains() {
        let (sigma, machine) = adversarial_machine(3);
        for seed in 0..10 {
            let wl = chain(30, &sigma, seed);
            let b = run_bidirectional(&machine, &wl);
            let f = run_forward(&machine, &wl);
            let k = run_backward(&machine, &wl);
            assert_eq!(b.reached, f.reached, "seed {seed}");
            assert_eq!(b.reached, k.reached, "seed {seed}");
        }
    }

    #[test]
    fn all_three_solvers_agree_on_ladders() {
        let (sigma, machine) = adversarial_machine(3);
        for seed in 0..5 {
            let wl = ladder(4, 6, &sigma, seed);
            let b = run_bidirectional(&machine, &wl);
            let f = run_forward(&machine, &wl);
            let k = run_backward(&machine, &wl);
            assert_eq!(b.reached, f.reached, "seed {seed}");
            assert_eq!(b.reached, k.reached, "seed {seed}");
        }
    }

    #[test]
    fn forward_interns_fewer_annotations_on_ladders() {
        // §5.1: the unidirectional congruence is coarser, so the forward
        // solver should materialize no more monoid elements than the
        // bidirectional one on multiplicative workloads.
        let (sigma, machine) = adversarial_machine(4);
        let wl = ladder(6, 8, &sigma, 1);
        let b = run_bidirectional(&machine, &wl);
        let f = run_forward(&machine, &wl);
        assert!(
            f.annotations <= b.annotations,
            "forward {} vs bidirectional {}",
            f.annotations,
            b.annotations
        );
    }
}
