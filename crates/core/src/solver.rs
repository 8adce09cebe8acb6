//! The bidirectional constraint solver (paper §3).
//!
//! The solver maintains, for every variable `X`:
//!
//! * annotated transitive edges `X ⊆^f Y`;
//! * *lower bounds*: constructor expressions that flow into `X`, with the
//!   composed annotation of their path (`c(…) ⊆^f X`);
//! * *upper bounds*: constructor patterns and projections that `X` flows
//!   into (`X ⊆^f c(…)`, `X ⊆^f c⁻ⁱ(…) ⊆ Z`).
//!
//! A worklist propagates lower bounds forward along edges, composing
//! annotations with the algebra's `∘` at each step — the paper's
//! transitive-closure rule. Upper bounds stay at the variable where they
//! were asserted (the §5 forward solver's rule): every source that reaches
//! a sink's variable arrives there as a lower bound, so each source meets
//! each sink once, at the sink's own variable. When a lower bound meets an
//! upper bound, the §3.1 resolution rules fire: decomposition, mismatch
//! (clash), or projection. The solver is *bidirectional* in the paper's
//! sense: its annotations are whole representative functions, which
//! compose on either side.
//!
//! Following the §8 optimization, constructor-annotation variables (`α`,
//! `β`, …) are never materialized during solving; queries reconstruct the
//! composed constructor annotations on demand (see the query methods).
//!
//! This module keeps the worklist, the resolution rules, cycle
//! elimination, epochs and the copy-on-write fork. The snapshot codec
//! lives in [`crate::snapshot`], and the paper's notation (`explain`,
//! `render_solved_form`) in `notation.rs`.

use std::collections::VecDeque;
use std::sync::Arc;

use rasc_obs as obs;

use crate::algebra::{Algebra, AnnId};
use crate::budget::{Budget, Outcome};
use crate::constraint::{Constraint, SetExpr};
use crate::error::{CoreError, Result};
use crate::id_u32;
use crate::idhash::{IdMap, IdSet};
use crate::provenance::{ProvKey, Provenance, Reason};
use crate::snapshot::SnapshotError;
use crate::store::{AnnMap, ChunkVec, CowVec, InternTable};
use crate::term::{ConsId, Constructor, Variance};

/// An interned set variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Builds a variable id from a raw index. The caller must ensure the
    /// index is valid for the system it will be used with.
    pub fn from_index(index: usize) -> VarId {
        VarId(id_u32(index, "variable index"))
    }

    /// The variable's index within its system.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned source (constructor expression used as a lower bound).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SrcId(pub(crate) u32);

/// An interned sink (upper-bound pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) struct SnkId(pub(crate) u32);

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Source {
    pub cons: ConsId,
    pub args: Vec<VarId>,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum Sink {
    /// `⊆ c(Y₁, …)`.
    Cons { cons: ConsId, args: Vec<VarId> },
    /// `⊆ c⁻ⁱ(·) ⊆ target` — the upper-bound half of a projection
    /// constraint `c⁻ⁱ(X) ⊆ target` attached to `X`.
    Proj {
        cons: ConsId,
        index: usize,
        target: VarId,
    },
}

/// A manifest inconsistency discovered during solving (§3.1's
/// "no solution" rule). Recorded rather than aborting: analyses typically
/// want all inconsistencies.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Clash {
    /// `c(…) ⊆^f d(…)` with `c ≠ d`.
    ConstructorMismatch {
        /// Left-hand constructor.
        lhs: ConsId,
        /// Right-hand constructor.
        rhs: ConsId,
        /// The path annotation under which they met.
        ann: AnnId,
    },
    /// A non-ε-annotated constraint reached a contravariant constructor
    /// position, for which the paper defines no propagation rule.
    ContravariantAnnotated {
        /// The constructor involved.
        cons: ConsId,
        /// The contravariant position (0-based).
        position: usize,
        /// The offending annotation.
        ann: AnnId,
    },
}

/// A constructor-expression key: head constructor plus argument variables.
pub(crate) type ExprKey = (ConsId, Vec<VarId>);

/// A resolved source/sink meeting: `(source key, sink key, g, h)`.
pub(crate) type MeetEntry = (ExprKey, ExprKey, AnnId, AnnId);

#[derive(Debug, Clone, Copy)]
enum Fact {
    Edge(VarId, VarId, AnnId),
    Lb(VarId, SrcId, AnnId),
    Ub(VarId, SnkId, AnnId),
}

/// One reversible solver mutation, recorded while an epoch is open so
/// [`System::pop_epoch`] can undo exactly the delta (BANSHEE-style
/// backtracking).
#[derive(Debug)]
enum UndoOp {
    /// Remove annotation `a` from `vars[x].succs[y]`.
    Succ(VarId, VarId, AnnId),
    /// Remove annotation `a` from `vars[x].lbs[src]`.
    Lb(VarId, SrcId, AnnId),
    /// Remove annotation `a` from `vars[x].ubs[snk]`.
    Ub(VarId, SnkId, AnnId),
    /// Restore a union-find parent pointer (covers both unions and path
    /// compression, so pre-epoch classes survive rollback intact).
    Parent { idx: u32, old: u32 },
    /// Restore a variable's solved-form data moved out by a cycle
    /// collapse.
    VarData { idx: u32, data: Box<VarData> },
    /// Remove a provenance record.
    Prov(ProvKey),
}

/// A snapshot of the monotone solver dimensions at [`System::push_epoch`]
/// time; everything created past these watermarks is dropped on rollback.
#[derive(Debug, Clone, Copy)]
struct EpochMark {
    ops_len: usize,
    n_vars: usize,
    n_constructors: usize,
    n_sources: usize,
    n_sinks: usize,
    n_constraints: usize,
    n_clashes: usize,
    facts_processed: usize,
    cycles_collapsed: usize,
    fuel_spent: usize,
    interruptions: usize,
    depth_limit_hits: usize,
}

/// The rollback journal: undo ops plus a stack of epoch marks.
#[derive(Debug, Default)]
struct Journal {
    ops: Vec<UndoOp>,
    marks: Vec<EpochMark>,
}

/// One variable's solved form. The snapshot codec reads and writes these
/// fields directly, so they are crate-visible.
#[derive(Debug, Default, Clone)]
pub(crate) struct VarData {
    /// Interned diagnostic name (`Arc` so a copy-on-write fork shares
    /// every name instead of re-allocating thousands of strings).
    pub(crate) name: Arc<str>,
    /// `X ⊆^f Y` edges, each keyed by `Y`'s class root when it was
    /// inserted; readers map the key through `find`, since a later cycle
    /// collapse can merge that root away.
    pub(crate) succs: AnnMap<VarId>,
    pub(crate) lbs: AnnMap<SrcId>,
    pub(crate) ubs: AnnMap<SnkId>,
}

/// Aggregate counters describing a solved system, for benchmarks and
/// regression tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolverStats {
    /// Number of set variables.
    pub vars: usize,
    /// Number of constructor declarations.
    pub constructors: usize,
    /// Distinct annotated variable-variable edges.
    pub edges: usize,
    /// Distinct annotated lower-bound entries.
    pub lower_bounds: usize,
    /// Distinct annotated upper-bound entries.
    pub upper_bounds: usize,
    /// The largest lower-bound entry count on any single variable — the
    /// paper's §4 per-variable bound is `n · |F_M^≡|`.
    pub max_lower_bounds_per_var: usize,
    /// The largest upper-bound entry count on any single variable.
    pub max_upper_bounds_per_var: usize,
    /// Worklist facts processed (including duplicates).
    pub facts_processed: usize,
    /// Interned annotations in the algebra.
    pub annotations: usize,
    /// Variables collapsed by online cycle elimination.
    pub cycles_collapsed: usize,
    /// Worklist steps charged against a *limited* [`Budget`] (unlimited
    /// solves consume no fuel).
    pub fuel_spent: usize,
    /// Bounded solves that stopped on a budget axis
    /// ([`Outcome::Interrupted`]).
    pub interruptions: usize,
    /// Online cycle searches that failed after the depth bound cut them
    /// short (a search expands at most 32 variables).
    pub depth_limit_hits: usize,
}

/// The bidirectional solver's one switch: the §8 cycle elimination the
/// paper inherits from BANSHEE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverConfig {
    /// Online partial cycle elimination (Fähndrich et al., cited as \[7\]):
    /// ε-annotated constraint cycles imply variable equality; members are
    /// collapsed with a union-find so work is not repeated around loops.
    pub cycle_elimination: bool,
}

impl Default for SolverConfig {
    fn default() -> Self {
        SolverConfig {
            cycle_elimination: true,
        }
    }
}

/// The online cycle search's depth bound: the search from an inserted ε
/// edge expands at most this many variables.
const CYCLE_SEARCH_DEPTH: usize = 32;

/// An online bidirectional solver for regularly annotated set constraints.
///
/// Constraints can be added at any time ([`System::add`] /
/// [`System::add_ann`]); [`System::solve`] drains the worklist. Adding more
/// constraints after solving and re-solving is supported (the separate /
/// online analysis capability of §5.1).
///
/// See the crate-level documentation for a complete example.
///
/// The solved-form fields are crate-visible for the snapshot codec
/// ([`crate::snapshot`]) and the paper-notation renderer; the worklist,
/// the journal and the scratch buffers are the solver's own.
#[derive(Debug)]
pub struct System<A: Algebra> {
    pub(crate) algebra: A,
    pub(crate) constructors: CowVec<Constructor>,
    pub(crate) vars: ChunkVec<VarData>,
    pub(crate) sources: InternTable<Source>,
    pub(crate) sinks: InternTable<Sink>,
    worklist: VecDeque<Fact>,
    pub(crate) constraints: CowVec<Constraint>,
    pub(crate) clashes: Vec<Clash>,
    pub(crate) clash_set: IdSet<Clash>,
    pub(crate) facts_processed: usize,
    pub(crate) config: SolverConfig,
    /// Union-find parents for cycle elimination (self-parent = root).
    pub(crate) parent: ChunkVec<u32>,
    /// Variables collapsed by cycle elimination.
    pub(crate) cycles_collapsed: usize,
    /// Live solved-form entry count (annotated edges + lower bounds +
    /// upper bounds), maintained incrementally so budget checks are O(1).
    pub(crate) live_entries: usize,
    /// Present while at least one epoch is open.
    journal: Option<Journal>,
    /// Worklist steps charged against limited budgets.
    pub(crate) fuel_spent: usize,
    /// Bounded solves interrupted by their budget.
    pub(crate) interruptions: usize,
    /// Failed cycle searches that the depth bound cut short.
    pub(crate) depth_limit_hits: usize,
    /// Present once provenance recording is enabled.
    pub(crate) prov: Option<Box<Provenance>>,
    /// Observability counter deltas not yet emitted. Updating a plain
    /// field keeps the hot path free of dispatch; deltas are flushed as
    /// [`obs`] counter events at solve boundaries and after rollbacks.
    pending_counts: PendingCounts,
    /// Reusable step-path buffers (see [`SolverScratch`]).
    scratch: SolverScratch,
}

/// Counter deltas accumulated between flush points (see
/// [`System::solve_bounded`] and [`System::pop_epoch`]). Each field maps
/// to one monotone `obs` counter; `added`/`removed` (and `…`/
/// `….rolled_back`) pairs mirror every mutation of the corresponding
/// solver statistic, so a [`rasc_obs::MetricsRegistry`] installed for a
/// system's whole lifetime reconciles exactly with its final
/// [`SolverStats`].
#[derive(Debug, Default)]
struct PendingCounts {
    edges_added: u64,
    edges_removed: u64,
    lbs_added: u64,
    lbs_removed: u64,
    ubs_added: u64,
    ubs_removed: u64,
    facts: u64,
    facts_rolled_back: u64,
    fuel: u64,
    fuel_rolled_back: u64,
    cycles_collapsed: u64,
    cycles_uncollapsed: u64,
    clashes: u64,
    clashes_rolled_back: u64,
    interruptions: u64,
    interruptions_rolled_back: u64,
    depth_limit_hits: u64,
    depth_limit_hits_rolled_back: u64,
}

/// Reusable containers for the online cycle search, so a search on each
/// ε edge does not re-grow four containers from empty; `clear` keeps
/// capacity.
#[derive(Debug, Default)]
struct CycleScratch {
    stack: Vec<VarId>,
    visited: IdSet<VarId>,
    path: Vec<VarId>,
    parent_of: IdMap<VarId, VarId>,
}

impl CycleScratch {
    fn clear(&mut self) {
        self.stack.clear();
        self.visited.clear();
        self.path.clear();
        self.parent_of.clear();
    }
}

/// Per-[`System`] scratch space for the step path, taken with `mem::take`
/// around each use so capacity survives across facts. Never serialized and
/// never part of the solved form.
#[derive(Debug, Default)]
struct SolverScratch {
    cycle: CycleScratch,
    resolve_src_args: Vec<VarId>,
    resolve_snk_args: Vec<VarId>,
    resolve_variances: Vec<Variance>,
}

impl PendingCounts {
    /// Emits every nonzero delta as an `obs` counter event and resets it.
    /// Deltas are reset even when no sink is installed, so a sink only
    /// ever observes mutations made while it was installed.
    fn flush(&mut self) {
        let emit = |name: &'static str, v: &mut u64| {
            if *v != 0 {
                obs::counter(name, *v);
                *v = 0;
            }
        };
        emit("solver.edges.added", &mut self.edges_added);
        emit("solver.edges.removed", &mut self.edges_removed);
        emit("solver.lbs.added", &mut self.lbs_added);
        emit("solver.lbs.removed", &mut self.lbs_removed);
        emit("solver.ubs.added", &mut self.ubs_added);
        emit("solver.ubs.removed", &mut self.ubs_removed);
        emit("solver.facts", &mut self.facts);
        emit("solver.facts.rolled_back", &mut self.facts_rolled_back);
        emit("solver.fuel", &mut self.fuel);
        emit("solver.fuel.rolled_back", &mut self.fuel_rolled_back);
        emit("solver.cycles.collapsed", &mut self.cycles_collapsed);
        emit("solver.cycles.uncollapsed", &mut self.cycles_uncollapsed);
        emit("solver.clashes", &mut self.clashes);
        emit("solver.clashes.rolled_back", &mut self.clashes_rolled_back);
        emit("solver.interruptions", &mut self.interruptions);
        emit(
            "solver.interruptions.rolled_back",
            &mut self.interruptions_rolled_back,
        );
        emit("solver.depth_limit_hits", &mut self.depth_limit_hits);
        emit(
            "solver.depth_limit_hits.rolled_back",
            &mut self.depth_limit_hits_rolled_back,
        );
    }
}

impl<A: Algebra> System<A> {
    /// Creates an empty system over the given annotation algebra, with the
    /// default optimizations (see [`SolverConfig`]).
    pub fn new(algebra: A) -> System<A> {
        Self::with_config(algebra, SolverConfig::default())
    }

    /// Creates an empty system with explicit solver configuration
    /// (`rasc-ptr` turns cycle elimination off; the ablation bench runs
    /// both settings).
    pub fn with_config(algebra: A, config: SolverConfig) -> System<A> {
        System {
            algebra,
            constructors: CowVec::default(),
            vars: ChunkVec::default(),
            sources: InternTable::default(),
            sinks: InternTable::default(),
            worklist: VecDeque::new(),
            constraints: CowVec::default(),
            clashes: Vec::new(),
            clash_set: IdSet::default(),
            facts_processed: 0,
            config,
            parent: ChunkVec::default(),
            cycles_collapsed: 0,
            live_entries: 0,
            journal: None,
            fuel_spent: 0,
            interruptions: 0,
            depth_limit_hits: 0,
            prov: None,
            pending_counts: PendingCounts::default(),
            scratch: SolverScratch::default(),
        }
    }

    /// Turns on provenance recording: from now on the solver records,
    /// per solved-form entry, the constraint or derivation step that
    /// first produced it, enabling [`System::explain`]. The pending
    /// worklist is drained first so recording starts from a fixpoint
    /// (entries solved before enabling have no recorded provenance).
    /// Idempotent.
    pub fn enable_provenance(&mut self) {
        if self.prov.is_some() {
            return;
        }
        self.solve();
        self.prov = Some(Box::new(Provenance::default()));
    }

    /// Whether provenance recording is on.
    pub fn provenance_enabled(&self) -> bool {
        self.prov.is_some()
    }

    /// Enqueues a fact, keeping the provenance reason queue in lockstep
    /// with the worklist when recording is enabled.
    fn push_fact(&mut self, fact: Fact, why: Reason) {
        self.worklist.push_back(fact);
        if let Some(p) = self.prov.as_mut() {
            p.pending.push_back(why);
        }
    }

    /// Records the first reason for a solved-form entry (later
    /// re-derivations keep the original justification). Journaled while
    /// an epoch is open.
    fn record_prov(&mut self, key: ProvKey, why: Option<Reason>) {
        let Some(why) = why else { return };
        let Some(p) = self.prov.as_mut() else { return };
        if p.has(&key) {
            return;
        }
        p.map.insert(key, why);
        if let Some(j) = self.journal.as_mut() {
            j.ops.push(UndoOp::Prov(key));
        }
    }

    /// The representative of `v`'s cycle-elimination class (without path
    /// compression; usable from `&self` queries).
    pub(crate) fn find(&self, v: VarId) -> VarId {
        let mut cur = v.0;
        while self.parent[cur as usize] != cur {
            cur = self.parent[cur as usize];
        }
        VarId(cur)
    }

    /// Path-compressing find. Compression writes are journaled while an
    /// epoch is open: without this, a pre-epoch member compressed through
    /// a mid-epoch union would still point at the merged-away winner
    /// after rollback.
    fn find_mut(&mut self, v: VarId) -> VarId {
        let root = self.find(v);
        let mut cur = v.0;
        while self.parent[cur as usize] != cur {
            let next = self.parent[cur as usize];
            if next != root.0 {
                if let Some(j) = self.journal.as_mut() {
                    j.ops.push(UndoOp::Parent {
                        idx: cur,
                        old: next,
                    });
                }
                self.parent[cur as usize] = root.0;
            }
            cur = next;
        }
        root
    }

    /// Collapses `loser` into `winner` (both roots): moves the loser's
    /// edges and bounds across by re-enqueueing them at the winner, so
    /// propagation continues from the merged variable. Edges *into* the
    /// loser stay where they are, keyed by the loser: propagation, cycle
    /// search and [`System::edges_from`] map every edge target through
    /// `find`, so those edges already reach the winner.
    fn union_into(&mut self, winner: VarId, loser: VarId) {
        debug_assert_ne!(winner, loser);
        if let Some(j) = self.journal.as_mut() {
            j.ops.push(UndoOp::Parent {
                idx: loser.0,
                old: self.parent[loser.0 as usize],
            });
        }
        self.parent[loser.0 as usize] = winner.0;
        self.cycles_collapsed += 1;
        self.pending_counts.cycles_collapsed += 1;
        let data = std::mem::take(&mut self.vars[loser.index()]);
        self.vars[loser.index()].name = data.name.clone();
        // The loser's entries leave the solved form here; the re-enqueued
        // facts below re-count whichever of them the winner actually keeps.
        self.live_entries -= entry_count(&data);
        self.pending_counts.edges_removed += data.succs.len() as u64;
        self.pending_counts.lbs_removed += data.lbs.len() as u64;
        self.pending_counts.ubs_removed += data.ubs.len() as u64;
        let why = Reason::Collapsed { from: loser };
        for (y, ann) in data.succs.iter_entries() {
            self.push_fact(Fact::Edge(winner, y, ann), why);
        }
        for (src, ann) in data.lbs.iter_entries() {
            self.push_fact(Fact::Lb(winner, src, ann), why);
        }
        for (snk, ann) in data.ubs.iter_entries() {
            self.push_fact(Fact::Ub(winner, snk, ann), why);
        }
        if let Some(j) = self.journal.as_mut() {
            j.ops.push(UndoOp::VarData {
                idx: loser.0,
                data: Box::new(data),
            });
        }
    }

    /// DFS over ε-annotated edges looking for a path `from → to`, expanding
    /// at most [`CYCLE_SEARCH_DEPTH`] variables; on success every visited
    /// node on the path is collapsed into `to` and `true` is returned. A
    /// search the bound cuts short counts as a depth-limit hit.
    fn try_collapse_cycle(&mut self, from: VarId, to: VarId) -> bool {
        // The containers live in per-system scratch (taken around the call
        // so the borrow checker allows `&mut self` methods inside), so a
        // search does not re-grow them from empty.
        let mut s = std::mem::take(&mut self.scratch.cycle);
        let found = self.collapse_cycle_with(from, to, &mut s);
        s.clear();
        self.scratch.cycle = s;
        found
    }

    fn collapse_cycle_with(&mut self, from: VarId, to: VarId, s: &mut CycleScratch) -> bool {
        let id = self.algebra.identity();
        s.stack.push(from);
        s.visited.insert(from);
        let mut cut_short = false;
        while let Some(v) = s.stack.pop() {
            if v == to {
                // Reconstruct the path from `from` to `to` and collapse.
                let mut cur = to;
                while cur != from {
                    s.path.push(cur);
                    cur = s.parent_of[&cur];
                }
                s.path.push(from);
                let winner = self.find_mut(to);
                for i in 0..s.path.len() {
                    let node = self.find_mut(s.path[i]);
                    if node != winner {
                        self.union_into(winner, node);
                    }
                }
                return true;
            }
            let mut i = 0;
            while let Some((y, ann)) = self.vars[v.index()].succs.entry(i) {
                i += 1;
                if ann != id {
                    continue;
                }
                let y = self.find(y);
                if s.visited.insert(y) {
                    s.parent_of.insert(y, v);
                    if s.visited.len() <= CYCLE_SEARCH_DEPTH {
                        s.stack.push(y);
                    } else {
                        cut_short = true;
                    }
                }
            }
        }
        if cut_short {
            self.depth_limit_hits += 1;
            self.pending_counts.depth_limit_hits += 1;
        }
        false
    }

    /// The annotation algebra.
    pub fn algebra(&self) -> &A {
        &self.algebra
    }

    /// Mutable access to the annotation algebra (e.g. to intern the
    /// annotation for a word before adding a constraint).
    pub fn algebra_mut(&mut self) -> &mut A {
        &mut self.algebra
    }

    /// Creates a fresh set variable. The name is for diagnostics only and
    /// need not be unique.
    pub fn var(&mut self, name: &str) -> VarId {
        let id = VarId(id_u32(self.vars.len(), "variables"));
        self.parent.push(id.0);
        self.vars.push(VarData {
            name: name.into(),
            ..VarData::default()
        });
        id
    }

    /// The diagnostic name of a variable.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of constructor declarations.
    pub fn num_constructors(&self) -> usize {
        self.constructors.len()
    }

    /// Worklist facts processed so far (including duplicates); O(1),
    /// unlike reading it through [`System::stats`].
    pub fn facts_processed(&self) -> usize {
        self.facts_processed
    }

    /// Worklist steps charged against limited budgets so far; O(1),
    /// unlike reading it through [`System::stats`].
    pub fn fuel_spent(&self) -> usize {
        self.fuel_spent
    }

    /// Declares a constructor with the given argument variances (the arity
    /// is `signature.len()`; an empty signature declares a constant).
    pub fn constructor(&mut self, name: &str, signature: &[Variance]) -> ConsId {
        let id = ConsId(id_u32(self.constructors.len(), "constructors"));
        self.constructors.push(Constructor {
            name: name.to_owned(),
            signature: signature.to_vec(),
        });
        id
    }

    /// The declaration of a constructor.
    pub fn constructor_decl(&self, c: ConsId) -> &Constructor {
        self.constructors.index(c.index())
    }

    /// Adds the unannotated constraint `lhs ⊆ rhs` (annotation `f_ε`).
    ///
    /// # Errors
    ///
    /// See [`System::add_ann`].
    pub fn add(&mut self, lhs: SetExpr, rhs: SetExpr) -> Result<()> {
        let e = self.algebra.identity();
        self.add_ann(lhs, rhs, e)
    }

    /// Adds the annotated constraint `lhs ⊆^ann rhs`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ProjectionOnRight`] if `rhs` is a projection,
    /// [`CoreError::ArityMismatch`] if a constructor is misapplied, and
    /// [`CoreError::ProjectionIndex`] for an out-of-range projection.
    pub fn add_ann(&mut self, lhs: SetExpr, rhs: SetExpr, ann: AnnId) -> Result<()> {
        self.validate(&lhs)?;
        self.validate(&rhs)?;
        if matches!(rhs, SetExpr::Proj(..)) {
            return Err(CoreError::ProjectionOnRight);
        }
        self.constraints.push(Constraint {
            lhs: lhs.clone(),
            rhs: rhs.clone(),
            ann,
        });
        let why = Reason::Constraint(self.constraints.len() - 1);
        match (lhs, rhs) {
            (SetExpr::Var(x), SetExpr::Var(y)) => {
                self.push_fact(Fact::Edge(x, y, ann), why);
            }
            (SetExpr::Cons(c, args), SetExpr::Var(y)) => {
                let src = self.intern_source(Source { cons: c, args });
                self.push_fact(Fact::Lb(y, src, ann), why);
            }
            (SetExpr::Var(x), SetExpr::Cons(c, args)) => {
                let snk = self.intern_sink(Sink::Cons { cons: c, args });
                self.push_fact(Fact::Ub(x, snk, ann), why);
            }
            (SetExpr::Cons(c1, args1), SetExpr::Cons(c2, args2)) => {
                // Resolve immediately (the first two rules of §3.1).
                let src = self.intern_source(Source {
                    cons: c1,
                    args: args1,
                });
                let snk = self.intern_sink(Sink::Cons {
                    cons: c2,
                    args: args2,
                });
                self.resolve(src, ann, snk, why);
            }
            (SetExpr::Proj(c, i, x), SetExpr::Var(z)) => {
                let snk = self.intern_sink(Sink::Proj {
                    cons: c,
                    index: i,
                    target: z,
                });
                self.push_fact(Fact::Ub(x, snk, ann), why);
            }
            (SetExpr::Proj(c, i, x), SetExpr::Cons(c2, args2)) => {
                // Normalize via an auxiliary variable:
                // c⁻ⁱ(X) ⊆^f d(…)  ⇝  c⁻ⁱ(X) ⊆^f v ∧ v ⊆ d(…).
                let v = self.var("$proj");
                let snk = self.intern_sink(Sink::Proj {
                    cons: c,
                    index: i,
                    target: v,
                });
                self.push_fact(Fact::Ub(x, snk, ann), why);
                let snk2 = self.intern_sink(Sink::Cons {
                    cons: c2,
                    args: args2,
                });
                let e = self.algebra.identity();
                self.push_fact(Fact::Ub(v, snk2, e), why);
            }
            (_, SetExpr::Proj(..)) => unreachable!("rejected above"),
        }
        Ok(())
    }

    fn validate(&self, e: &SetExpr) -> Result<()> {
        match e {
            SetExpr::Var(v) => {
                if v.index() >= self.vars.len() {
                    return Err(CoreError::ForeignId);
                }
            }
            SetExpr::Cons(c, args) => {
                let decl = self
                    .constructors
                    .get(c.index())
                    .ok_or(CoreError::ForeignId)?;
                if decl.arity() != args.len() {
                    return Err(CoreError::ArityMismatch {
                        constructor: decl.name.clone(),
                        expected: decl.arity(),
                        found: args.len(),
                    });
                }
                for v in args {
                    if v.index() >= self.vars.len() {
                        return Err(CoreError::ForeignId);
                    }
                }
            }
            SetExpr::Proj(c, i, v) => {
                let decl = self
                    .constructors
                    .get(c.index())
                    .ok_or(CoreError::ForeignId)?;
                if *i >= decl.arity() {
                    return Err(CoreError::ProjectionIndex {
                        constructor: decl.name.clone(),
                        arity: decl.arity(),
                        index: *i,
                    });
                }
                if v.index() >= self.vars.len() {
                    return Err(CoreError::ForeignId);
                }
            }
        }
        Ok(())
    }

    fn intern_source(&mut self, s: Source) -> SrcId {
        SrcId(self.sources.intern(s, "sources"))
    }

    fn intern_sink(&mut self, s: Sink) -> SnkId {
        SnkId(self.sinks.intern(s, "sinks"))
    }

    /// The interned source named by `s` (ids are never exposed unchecked).
    pub(crate) fn source(&self, s: SrcId) -> &Source {
        self.sources.index(s.0 as usize)
    }

    /// The interned sink named by `s`.
    pub(crate) fn sink(&self, s: SnkId) -> &Sink {
        self.sinks.index(s.0 as usize)
    }

    /// Applies the §3.1 resolution rules to a met source/sink pair under
    /// path annotation `f`. `why` justifies the derived edges (and is the
    /// provenance of any clash).
    fn resolve(&mut self, src: SrcId, f: AnnId, snk: SnkId, why: Reason) {
        if !self.algebra.is_useful(f) {
            return;
        }
        // Capture the argument ids and variances into reusable scratch
        // buffers up front (taken with `mem::take` to sidestep the borrow
        // of `self`), so the per-position loop below never re-indexes the
        // interned tables or re-matches the sink shape.
        enum Shape {
            Cons(ConsId),
            Proj(ConsId, usize, VarId),
        }
        let src_cons = self.source(src).cons;
        let mut snk_args = std::mem::take(&mut self.scratch.resolve_snk_args);
        snk_args.clear();
        let shape = match self.sink(snk) {
            Sink::Cons { cons, args } => {
                snk_args.extend_from_slice(args);
                Shape::Cons(*cons)
            }
            Sink::Proj {
                cons,
                index,
                target,
            } => Shape::Proj(*cons, *index, *target),
        };
        match shape {
            Shape::Cons(cons) => {
                if src_cons != cons {
                    let clash = Clash::ConstructorMismatch {
                        lhs: src_cons,
                        rhs: cons,
                        ann: f,
                    };
                    if self.clash_set.insert(clash.clone()) {
                        self.clashes.push(clash);
                        self.pending_counts.clashes += 1;
                    }
                    self.scratch.resolve_snk_args = snk_args;
                    return;
                }
                let mut src_args = std::mem::take(&mut self.scratch.resolve_src_args);
                src_args.clear();
                src_args.extend_from_slice(&self.source(src).args);
                let mut variances = std::mem::take(&mut self.scratch.resolve_variances);
                variances.clear();
                variances.extend_from_slice(&self.constructors.index(cons.index()).signature);
                for i in 0..snk_args.len() {
                    let src_arg = src_args[i];
                    let snk_arg = snk_args[i];
                    match variances[i] {
                        Variance::Covariant => {
                            self.push_fact(Fact::Edge(src_arg, snk_arg, f), why);
                        }
                        Variance::Contravariant => {
                            if f == self.algebra.identity() {
                                let e = self.algebra.identity();
                                self.push_fact(Fact::Edge(snk_arg, src_arg, e), why);
                            } else {
                                let clash = Clash::ContravariantAnnotated {
                                    cons,
                                    position: i,
                                    ann: f,
                                };
                                if self.clash_set.insert(clash.clone()) {
                                    self.clashes.push(clash);
                                    self.pending_counts.clashes += 1;
                                }
                            }
                        }
                    }
                }
                self.scratch.resolve_src_args = src_args;
                self.scratch.resolve_variances = variances;
            }
            Shape::Proj(cons, index, target) => {
                if src_cons == cons {
                    let src_arg = self.source(src).args[index];
                    self.push_fact(Fact::Edge(src_arg, target, f), why);
                }
                // A non-matching constructor simply does not project —
                // not an inconsistency.
            }
        }
        self.scratch.resolve_snk_args = snk_args;
    }

    /// Runs resolution to a fixpoint (Lemma 3.1 guarantees termination for
    /// finite algebras).
    pub fn solve(&mut self) {
        let _ = self.solve_bounded(&Budget::unlimited());
    }

    /// Runs resolution until the fixpoint is reached *or* the budget runs
    /// out, whichever comes first.
    ///
    /// The budget is checked before each fact is popped, so an
    /// [`Outcome::Interrupted`] solve leaves the pending worklist intact.
    /// The caller then has two sound options:
    ///
    /// * **resume** — call `solve_bounded` again (with a fresh budget);
    ///   closure is monotone, so the drain converges to exactly the
    ///   fixpoint an uninterrupted solve would have reached;
    /// * **roll back** — if an epoch is open, [`System::pop_epoch`]
    ///   discards the partial work (and the pending worklist) and restores
    ///   the last consistent snapshot.
    ///
    /// Deadlines are measured from the call (each resume gets a fresh
    /// window); the clock is only consulted when a deadline is set, so
    /// solves under purely step/memory budgets are fully deterministic.
    pub fn solve_bounded(&mut self, budget: &Budget) -> Outcome {
        let _span = obs::span("solver.solve");
        let metered = !budget.is_unlimited();
        let mut meter = budget.start();
        while !self.worklist.is_empty() {
            let terms = self.vars.len() + self.sources.len() + self.sinks.len();
            if let Some(reason) = meter.check(terms, self.live_entries) {
                self.interruptions += 1;
                self.pending_counts.interruptions += 1;
                self.pending_counts.flush();
                return Outcome::Interrupted(reason);
            }
            meter.step();
            if metered {
                self.fuel_spent += 1;
                self.pending_counts.fuel += 1;
            }
            let Some(fact) = self.worklist.pop_front() else {
                break;
            };
            let why = self.prov.as_mut().and_then(|p| p.pending.pop_front());
            self.facts_processed += 1;
            self.pending_counts.facts += 1;
            self.process_fact(fact, why);
        }
        self.pending_counts.flush();
        Outcome::Complete
    }

    /// Applies one worklist fact (one "step" of the drain). `why` is the
    /// fact's provenance reason, present iff recording is enabled.
    fn process_fact(&mut self, fact: Fact, why: Option<Reason>) {
        match fact {
            Fact::Edge(x, y, f) => {
                let x = self.find_mut(x);
                let y = self.find_mut(y);
                if x == y && f == self.algebra.identity() {
                    return;
                }
                if !self.algebra.is_useful(f) {
                    return;
                }
                if !self.vars[x.index()].succs.insert(y, f) {
                    return;
                }
                self.live_entries += 1;
                self.pending_counts.edges_added += 1;
                self.record_prov(ProvKey::Edge(x, y, f), why);
                if let Some(j) = self.journal.as_mut() {
                    j.ops.push(UndoOp::Succ(x, y, f));
                }
                if self.config.cycle_elimination
                    && f == self.algebra.identity()
                    && self.try_collapse_cycle(y, x)
                {
                    // x → y closed an ε-cycle; the collapse re-enqueued
                    // all merged facts, so nothing more to do here.
                    return;
                }
                // Push x's lower bounds across the new edge. Snapshot
                // cursor: `push_fact` only touches the worklist and the
                // provenance queue, never `vars`, so indexing the entry log
                // one `Copy` pair at a time is clone-free and safe.
                let mut i = 0;
                while let Some((src, g)) = self.vars[x.index()].lbs.entry(i) {
                    i += 1;
                    let h = self.algebra.compose(f, g);
                    let why = Reason::TransLb {
                        edge: (x, y, f),
                        lb: (x, src, g),
                    };
                    self.push_fact(Fact::Lb(y, src, h), why);
                }
            }
            Fact::Lb(x, src, g) => {
                let x = self.find_mut(x);
                if !self.algebra.is_useful(g) {
                    return;
                }
                if !self.vars[x.index()].lbs.insert(src, g) {
                    return;
                }
                self.live_entries += 1;
                self.pending_counts.lbs_added += 1;
                self.record_prov(ProvKey::Lb(x, src, g), why);
                if let Some(j) = self.journal.as_mut() {
                    j.ops.push(UndoOp::Lb(x, src, g));
                }
                let mut i = 0;
                while let Some((y, f)) = self.vars[x.index()].succs.entry(i) {
                    i += 1;
                    let h = self.algebra.compose(f, g);
                    let why = Reason::TransLb {
                        edge: (x, y, f),
                        lb: (x, src, g),
                    };
                    self.push_fact(Fact::Lb(y, src, h), why);
                }
                let mut i = 0;
                while let Some((snk, h)) = self.vars[x.index()].ubs.entry(i) {
                    i += 1;
                    let composed = self.algebra.compose(h, g);
                    let why = Reason::Meet {
                        var: x,
                        src,
                        src_ann: g,
                        snk,
                        snk_ann: h,
                    };
                    self.resolve(src, composed, snk, why);
                }
            }
            Fact::Ub(x, snk, h) => {
                let x = self.find_mut(x);
                if !self.algebra.is_useful(h) {
                    return;
                }
                if !self.vars[x.index()].ubs.insert(snk, h) {
                    return;
                }
                self.live_entries += 1;
                self.pending_counts.ubs_added += 1;
                self.record_prov(ProvKey::Ub(x, snk, h), why);
                if let Some(j) = self.journal.as_mut() {
                    j.ops.push(UndoOp::Ub(x, snk, h));
                }
                let mut i = 0;
                while let Some((src, g)) = self.vars[x.index()].lbs.entry(i) {
                    i += 1;
                    let composed = self.algebra.compose(h, g);
                    let why = Reason::Meet {
                        var: x,
                        src,
                        src_ann: g,
                        snk,
                        snk_ann: h,
                    };
                    self.resolve(src, composed, snk, why);
                }
            }
        }
    }

    /// Opens a rollback epoch (BANSHEE-style backtracking, §8).
    ///
    /// The worklist is drained first so the epoch boundary is a solved
    /// fixpoint; afterwards every solver mutation — edges, lower/upper
    /// bounds, union-find merges (including path compression), memoized
    /// projection-merge entries, fresh variables/constructors/sources/
    /// sinks, and clashes — is journaled until the matching
    /// [`System::pop_epoch`]. Epochs nest.
    pub fn push_epoch(&mut self) {
        self.solve();
        obs::counter("solver.epochs.pushed", 1);
        let mark = EpochMark {
            ops_len: self.journal.as_ref().map_or(0, |j| j.ops.len()),
            n_vars: self.vars.len(),
            n_constructors: self.constructors.len(),
            n_sources: self.sources.len(),
            n_sinks: self.sinks.len(),
            n_constraints: self.constraints.len(),
            n_clashes: self.clashes.len(),
            facts_processed: self.facts_processed,
            cycles_collapsed: self.cycles_collapsed,
            fuel_spent: self.fuel_spent,
            interruptions: self.interruptions,
            depth_limit_hits: self.depth_limit_hits,
        };
        self.journal
            .get_or_insert_with(Journal::default)
            .marks
            .push(mark);
    }

    /// Number of currently open epochs.
    pub fn epoch_depth(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.marks.len())
    }

    /// Undoes every mutation recorded since the matching
    /// [`System::push_epoch`], restoring the solved form, union-find
    /// classes, clash list, and stats of the pre-epoch state exactly.
    /// Returns `false` (and does nothing) when no epoch is open.
    ///
    /// The algebra's hash-cons tables are *not* shrunk: annotation ids are
    /// canonical by content, so entries interned mid-epoch are semantically
    /// inert and remain as warm memo state (the `annotations` stat may
    /// therefore exceed its pre-epoch value).
    pub fn pop_epoch(&mut self) -> bool {
        let Some(journal) = self.journal.as_mut() else {
            return false;
        };
        let Some(mark) = journal.marks.pop() else {
            return false;
        };
        // Depth *before* the pop: how deep the rollback reached.
        let depth = journal.marks.len() + 1;
        // Every pending fact was derived after the epoch opened (the
        // boundary is a fixpoint), so pending work is rolled back too.
        self.worklist.clear();
        let ops: Vec<UndoOp> = journal.ops.drain(mark.ops_len..).collect();
        if journal.marks.is_empty() {
            self.journal = None;
        }
        if let Some(p) = self.prov.as_mut() {
            p.pending.clear();
        }
        obs::counter("solver.epochs.popped", 1);
        obs::histogram("solver.rollback.depth", depth as u64);
        obs::histogram("solver.rollback.ops", ops.len() as u64);
        for op in ops.into_iter().rev() {
            match op {
                UndoOp::Succ(x, y, a) => {
                    if self.vars[x.index()].succs.remove(y, a) {
                        self.live_entries -= 1;
                        self.pending_counts.edges_removed += 1;
                    }
                }
                UndoOp::Lb(x, src, a) => {
                    if self.vars[x.index()].lbs.remove(src, a) {
                        self.live_entries -= 1;
                        self.pending_counts.lbs_removed += 1;
                    }
                }
                UndoOp::Ub(x, snk, a) => {
                    if self.vars[x.index()].ubs.remove(snk, a) {
                        self.live_entries -= 1;
                        self.pending_counts.ubs_removed += 1;
                    }
                }
                UndoOp::Parent { idx, old } => {
                    self.parent[idx as usize] = old;
                }
                UndoOp::VarData { idx, data } => {
                    // The collapsed loser only ever holds its name after
                    // the union (inserts go to the class root), so the
                    // restore adds exactly the journaled entries back.
                    debug_assert_eq!(entry_count(&self.vars[idx as usize]), 0);
                    self.live_entries += entry_count(&data);
                    self.pending_counts.edges_added += data.succs.len() as u64;
                    self.pending_counts.lbs_added += data.lbs.len() as u64;
                    self.pending_counts.ubs_added += data.ubs.len() as u64;
                    self.vars[idx as usize] = *data;
                }
                UndoOp::Prov(key) => {
                    if let Some(p) = self.prov.as_mut() {
                        p.map.remove(&key);
                    }
                }
            }
        }
        // Drop everything created after the watermarks.
        self.sources.truncate(mark.n_sources);
        self.sinks.truncate(mark.n_sinks);
        self.pending_counts.clashes_rolled_back +=
            self.clashes.len().saturating_sub(mark.n_clashes) as u64;
        for c in self.clashes.drain(mark.n_clashes..) {
            self.clash_set.remove(&c);
        }
        self.vars.truncate(mark.n_vars);
        self.parent.truncate(mark.n_vars);
        self.constructors.truncate(mark.n_constructors);
        self.constraints.truncate(mark.n_constraints);
        self.pending_counts.facts_rolled_back +=
            (self.facts_processed - mark.facts_processed) as u64;
        self.pending_counts.cycles_uncollapsed +=
            (self.cycles_collapsed - mark.cycles_collapsed) as u64;
        self.pending_counts.fuel_rolled_back += (self.fuel_spent - mark.fuel_spent) as u64;
        self.pending_counts.interruptions_rolled_back +=
            (self.interruptions - mark.interruptions) as u64;
        self.pending_counts.depth_limit_hits_rolled_back +=
            (self.depth_limit_hits - mark.depth_limit_hits) as u64;
        self.facts_processed = mark.facts_processed;
        self.cycles_collapsed = mark.cycles_collapsed;
        self.fuel_spent = mark.fuel_spent;
        self.interruptions = mark.interruptions;
        self.depth_limit_hits = mark.depth_limit_hits;
        self.pending_counts.flush();
        true
    }

    /// Closes the innermost open epoch *keeping* its work: the epoch mark
    /// is discarded without undoing anything, so the mutations made since
    /// the matching [`System::push_epoch`] become part of the enclosing
    /// epoch (or permanent, if none). Returns `false` when no epoch is
    /// open.
    ///
    /// Together with [`System::pop_epoch`] this makes a
    /// push/mutate/commit-or-pop sequence transactional.
    pub fn commit_epoch(&mut self) -> bool {
        let Some(journal) = self.journal.as_mut() else {
            return false;
        };
        if journal.marks.pop().is_none() {
            return false;
        }
        if journal.marks.is_empty() {
            self.journal = None;
        }
        obs::counter("solver.epochs.committed", 1);
        true
    }

    /// Number of facts waiting on the worklist (nonzero after an
    /// interrupted [`System::solve_bounded`]).
    pub fn pending_facts(&self) -> usize {
        self.worklist.len()
    }

    /// The live solved-form entry count (annotated edges + lower bounds +
    /// upper bounds) — the quantity capped by
    /// [`Budget::with_max_entries`](crate::Budget::with_max_entries).
    /// Maintained incrementally; O(1).
    pub fn solved_entries(&self) -> usize {
        self.live_entries
    }

    /// The interned term count (variables + sources + sinks) — the
    /// quantity capped by
    /// [`Budget::with_max_terms`](crate::Budget::with_max_terms).
    pub fn term_count(&self) -> usize {
        self.vars.len() + self.sources.len() + self.sinks.len()
    }

    /// The surface constraints added so far, in order.
    pub fn constraints(&self) -> impl Iterator<Item = &Constraint> + '_ {
        self.constraints.iter()
    }

    /// Number of surface constraints added so far.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// The `i`-th surface constraint (insertion order).
    pub fn constraint(&self, i: usize) -> Option<&Constraint> {
        self.constraints.get(i)
    }

    /// The manifest inconsistencies discovered so far.
    pub fn clashes(&self) -> &[Clash] {
        &self.clashes
    }

    /// Whether the system is consistent (no clashes).
    pub fn is_consistent(&self) -> bool {
        self.clashes.is_empty()
    }

    /// The annotations under which the *constant* (or constructor
    /// expression head) `c` is a direct lower bound of `x` in the solved
    /// form — i.e. all `f` with `c(…) ⊆^f X`.
    pub fn lower_bound_annotations(&self, x: VarId, c: ConsId) -> Vec<AnnId> {
        let mut anns: Vec<AnnId> = self
            .lbs_of(x)
            .filter(|&(src, _)| self.source(src).cons == c)
            .map(|(_, a)| a)
            .collect();
        anns.sort_unstable();
        anns.dedup();
        anns
    }

    /// All solved-form lower bounds of `x`: `(constructor, args, annotation)`
    /// triples, borrowed from the solved form (no per-entry clone of the
    /// argument vector) in insertion order.
    pub fn lower_bounds(&self, x: VarId) -> impl Iterator<Item = (ConsId, &[VarId], AnnId)> + '_ {
        let x = self.find(x);
        self.vars[x.index()].lbs.iter_entries().map(|(src, a)| {
            let s = self.source(src);
            (s.cons, s.args.as_slice(), a)
        })
    }

    /// The annotated variable-variable edges leaving `x` in the solved
    /// form.
    pub fn edges_from(&self, x: VarId) -> Vec<(VarId, AnnId)> {
        let x = self.find(x);
        self.vars[x.index()]
            .succs
            .iter_entries()
            .map(|(y, a)| (self.find(y), a))
            .collect()
    }

    /// Aggregate statistics about the solved system.
    ///
    /// O(vars): the edge and bound totals walk every variable's maps (on
    /// a fork, through the shared base layers). Not for per-request use —
    /// read [`System::num_vars`], [`System::num_constructors`],
    /// [`System::facts_processed`] or [`System::fuel_spent`] instead.
    pub fn stats(&self) -> SolverStats {
        let mut edges = 0;
        let mut lower = 0;
        let mut upper = 0;
        let mut max_lower = 0;
        let mut max_upper = 0;
        for v in self.vars.iter() {
            edges += v.succs.len();
            let l = v.lbs.len();
            let u = v.ubs.len();
            lower += l;
            upper += u;
            max_lower = max_lower.max(l);
            max_upper = max_upper.max(u);
        }
        SolverStats {
            vars: self.vars.len(),
            constructors: self.constructors.len(),
            edges,
            lower_bounds: lower,
            upper_bounds: upper,
            max_lower_bounds_per_var: max_lower,
            max_upper_bounds_per_var: max_upper,
            facts_processed: self.facts_processed,
            annotations: self.algebra.len(),
            cycles_collapsed: self.cycles_collapsed,
            fuel_spent: self.fuel_spent,
            interruptions: self.interruptions,
            depth_limit_hits: self.depth_limit_hits,
        }
    }

    /// The projection sinks attached to `x` in the solved form, as
    /// `(projection target, composed annotation)` pairs — the
    /// "close-paren" edges used by PN queries.
    pub(crate) fn proj_sinks_of(&self, x: VarId) -> Vec<(VarId, AnnId)> {
        let x = self.find(x);
        let mut out = Vec::new();
        for (snk, h) in self.vars[x.index()].ubs.iter_entries() {
            if let Sink::Proj { target, .. } = *self.sink(snk) {
                out.push((self.find(target), h));
            }
        }
        out
    }

    /// All distinct constructor-expression keys occurring as sources or
    /// constructor sinks (for the query-time reconstruction of constructor
    /// annotation variables).
    pub(crate) fn constructor_expr_keys(&self) -> Vec<ExprKey> {
        // Hash-backed dedup (the linear `keys.contains` scan was quadratic
        // in the number of interned expressions); emission order is still
        // first-occurrence order.
        let mut seen: IdSet<ExprKey> = IdSet::default();
        let mut keys: Vec<ExprKey> = Vec::new();
        for s in self.sources.iter() {
            let key = (s.cons, s.args.clone());
            if seen.insert(key.clone()) {
                keys.push(key);
            }
        }
        for s in self.sinks.iter() {
            if let Sink::Cons { cons, args } = s {
                let key = (*cons, args.clone());
                if seen.insert(key.clone()) {
                    keys.push(key);
                }
            }
        }
        keys
    }

    /// All `(source, constructor-sink)` meetings at `x` with matching
    /// heads: `(src key, sink key, g, h)` for `src ⊆^g x` and `x ⊆^h snk`.
    pub(crate) fn source_sink_meets(&self, x: VarId) -> Vec<MeetEntry> {
        let data = &self.vars[self.find(x).index()];
        let mut out = Vec::new();
        for (src, g) in data.lbs.iter_entries() {
            let source = self.source(src);
            for (snk, h) in data.ubs.iter_entries() {
                let Sink::Cons { cons, args } = self.sink(snk) else {
                    continue;
                };
                if *cons == source.cons {
                    out.push((
                        (source.cons, source.args.clone()),
                        (*cons, args.clone()),
                        g,
                        h,
                    ));
                }
            }
        }
        out
    }

    /// The lower bounds of `x`'s class as `(source, annotation)` entries,
    /// one at a time in insertion order (`source` gives the constructor
    /// expression behind an entry).
    pub(crate) fn lbs_of(&self, x: VarId) -> impl Iterator<Item = (SrcId, AnnId)> + '_ {
        self.vars[self.find(x).index()].lbs.iter_entries()
    }
}

/// An immutable, solved, shareable base system: the read-only layer under
/// copy-on-write session forks ([`System::fork`]).
///
/// Produced by [`System::into_base`], which freezes every layered store
/// (entry logs, intern tables, constraints, provenance) into
/// `Arc`-shared cores, and shares the per-variable records and the
/// union-find parents in chunks of 64 variables. Forks bump those `Arc`s
/// instead of re-deserializing or re-solving, so a fork costs the same
/// whatever the base's size, and each fork's private memory is
/// proportional to its own deltas: its first write to a variable copies
/// the list of chunks (one pointer per 64 variables) and clones that
/// variable's chunk.
#[derive(Debug)]
pub struct BaseSystem<A: Algebra>(System<A>);

impl<A: Algebra> BaseSystem<A> {
    /// Read-only access to the underlying solved system (queries only —
    /// the base is never mutated).
    pub fn system(&self) -> &System<A> {
        &self.0
    }
}

impl<A: Algebra> System<A> {
    /// Freezes this solved system into an immutable [`BaseSystem`] that
    /// [`System::fork`] can share across sessions.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::State`] unless the system is at a fixpoint (empty
    /// worklist) with no open epochs — the same precondition as
    /// snapshotting, and what guarantees that epochs opened *after* a fork
    /// only ever journal overlay entries.
    pub fn into_base(mut self) -> std::result::Result<BaseSystem<A>, SnapshotError> {
        if self.pending_facts() != 0 {
            return Err(SnapshotError::state(format!(
                "cannot freeze a base with {} pending worklist facts (solve first)",
                self.pending_facts()
            )));
        }
        if self.epoch_depth() != 0 {
            return Err(SnapshotError::state(format!(
                "cannot freeze a base with {} open epochs (commit or pop them first)",
                self.epoch_depth()
            )));
        }
        self.pending_counts.flush();
        self.vars.freeze(|v| {
            v.succs.freeze();
            v.lbs.freeze();
            v.ubs.freeze();
        });
        self.parent.freeze(|_| {});
        self.constructors.freeze();
        self.constraints.freeze();
        self.sources.freeze();
        self.sinks.freeze();
        if let Some(p) = self.prov.as_mut() {
            p.freeze();
        }
        Ok(BaseSystem(self))
    }

    /// Creates a mutable copy-on-write fork of a frozen base: all
    /// solved-form tiers, intern tables, constraints, provenance, the
    /// per-variable records and the algebra's monoid are shared by `Arc`,
    /// so forking, and dropping a fork that wrote nothing, costs a fixed
    /// handful of `Arc` bumps; only deltas made through the fork
    /// allocate. The fork answers every query identically to the base
    /// (including stats and provenance) and supports the full
    /// grow/solve/epoch surface.
    pub fn fork(base: &BaseSystem<A>) -> System<A>
    where
        A: Clone,
    {
        let b = &base.0;
        System {
            algebra: b.algebra.clone(),
            constructors: b.constructors.clone(),
            vars: b.vars.clone(),
            sources: b.sources.clone(),
            sinks: b.sinks.clone(),
            worklist: VecDeque::new(),
            constraints: b.constraints.clone(),
            clashes: b.clashes.clone(),
            clash_set: b.clash_set.clone(),
            facts_processed: b.facts_processed,
            config: b.config,
            parent: b.parent.clone(),
            cycles_collapsed: b.cycles_collapsed,
            live_entries: b.live_entries,
            journal: None,
            fuel_spent: b.fuel_spent,
            interruptions: b.interruptions,
            depth_limit_hits: b.depth_limit_hits,
            prov: b.prov.clone(),
            pending_counts: PendingCounts::default(),
            scratch: SolverScratch::default(),
        }
    }
}

/// Counts a variable's solved-form entries the same way [`SolverStats`]
/// does (succs + lbs + ubs). O(1) per category thanks to the entry logs.
pub(crate) fn entry_count(data: &VarData) -> usize {
    data.succs.len() + data.lbs.len() + data.ubs.len()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::algebra::MonoidAlgebra;
    use rasc_automata::{Alphabet, Dfa};

    /// An empty system over `M_1bit` (alphabet `g`, `k`), with its two
    /// symbols; shared by the snapshot and notation unit tests.
    pub(crate) fn one_bit_system() -> (
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
    fn transitive_closure_composes_annotations() {
        let (mut sys, g, k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y, z) = (sys.var("X"), sys.var("Y"), sys.var("Z"));
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add_ann(SetExpr::var(x), SetExpr::var(y), fk).unwrap();
        sys.add_ann(SetExpr::var(y), SetExpr::var(z), fg).unwrap();
        sys.solve();
        // c ⊆^{f_g} X, X ⊆^{f_k} Y ⇒ c ⊆^{f_k∘f_g = f_k} Y.
        assert_eq!(sys.lower_bound_annotations(y, c), vec![fk]);
        // then ⊆^{f_g} Z ⇒ c ⊆^{f_g} Z.
        assert_eq!(sys.lower_bound_annotations(z, c), vec![fg]);
    }

    #[test]
    fn decomposition_rule() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (w, x, y, z) = (sys.var("W"), sys.var("X"), sys.var("Y"), sys.var("Z"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(w), fg)
            .unwrap();
        // o(W) ⊆^g X ⊆ o(Y): decomposition gives W ⊆^g Y.
        sys.add_ann(SetExpr::cons_vars(o, [w]), SetExpr::var(x), fg)
            .unwrap();
        sys.add(SetExpr::var(x), SetExpr::cons_vars(o, [y]))
            .unwrap();
        sys.add(SetExpr::cons_vars(o, [y]), SetExpr::var(z))
            .unwrap();
        sys.solve();
        assert!(sys.is_consistent());
        // W ⊆^{f_g} Y so c ⊆^{f_g ∘ f_g = f_g} Y.
        assert_eq!(sys.lower_bound_annotations(y, c), vec![fg]);
    }

    #[test]
    fn mismatched_constructors_clash() {
        let (mut sys, _, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let d = sys.constructor("d", &[]);
        let x = sys.var("X");
        sys.add(SetExpr::cons(c, []), SetExpr::var(x)).unwrap();
        sys.add(SetExpr::var(x), SetExpr::cons(d, [])).unwrap();
        sys.solve();
        assert_eq!(sys.clashes().len(), 1);
        assert!(matches!(
            sys.clashes()[0],
            Clash::ConstructorMismatch { .. }
        ));
    }

    #[test]
    fn projection_rule() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let pair = sys.constructor("pair", &[Variance::Covariant, Variance::Covariant]);
        let (a, b, y, z) = (sys.var("A"), sys.var("B"), sys.var("Y"), sys.var("Z"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(a), fg)
            .unwrap();
        sys.add(SetExpr::cons_vars(pair, [a, b]), SetExpr::var(y))
            .unwrap();
        sys.add(SetExpr::proj(pair, 0, y), SetExpr::var(z)).unwrap();
        sys.solve();
        assert_eq!(sys.lower_bound_annotations(z, c), vec![fg]);
        // Nothing flowed from the second component.
        assert!(sys.lower_bound_annotations(z, pair).is_empty());
    }

    #[test]
    fn annotated_projection_composes() {
        let (mut sys, g, k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (a, y, z) = (sys.var("A"), sys.var("Y"), sys.var("Z"));
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(a), fg)
            .unwrap();
        sys.add(SetExpr::cons_vars(o, [a]), SetExpr::var(y))
            .unwrap();
        // o⁻¹(Y) ⊆^k Z: the projected component is appended k.
        sys.add_ann(SetExpr::proj(o, 0, y), SetExpr::var(z), fk)
            .unwrap();
        sys.solve();
        assert_eq!(sys.lower_bound_annotations(z, c), vec![fk]);
    }

    #[test]
    fn online_solving_is_incremental() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.solve();
        assert!(sys.lower_bound_annotations(y, c).is_empty());
        sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        sys.solve();
        assert_eq!(sys.lower_bound_annotations(y, c), vec![fg]);
    }

    #[test]
    fn incremental_adds_are_queryable_immediately() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.solve();
        assert!(sys.occurrence_annotations(y, c).is_empty());
        sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        sys.solve();
        assert_eq!(sys.occurrence_annotations(y, c), vec![fg]);
        assert!(sys.occurs_accepting(y, c));
    }

    #[test]
    fn rollback_restores_query_results() {
        let (mut sys, g, k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        sys.solve();
        let before = sys.occurrence_annotations(y, c);
        let before_stats = sys.stats();
        sys.push_epoch();
        let z = sys.var("Z");
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(y), fk)
            .unwrap();
        sys.add(SetExpr::var(y), SetExpr::var(z)).unwrap();
        sys.solve();
        assert_eq!(sys.occurrence_annotations(y, c).len(), 2);
        assert!(sys.pop_epoch());
        assert_eq!(sys.occurrence_annotations(y, c), before);
        assert_eq!(sys.stats(), before_stats);
    }

    #[test]
    fn nonempty_and_pn_answers_follow_increments() {
        let (mut sys, _, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let pair = sys.constructor("pair", &[Variance::Covariant, Variance::Covariant]);
        let (a, b, x) = (sys.var("A"), sys.var("B"), sys.var("X"));
        sys.add(SetExpr::cons(c, []), SetExpr::var(a)).unwrap();
        sys.add(SetExpr::cons_vars(pair, [a, b]), SetExpr::var(x))
            .unwrap();
        sys.solve();
        assert!(!sys.nonempty(x), "B is empty");
        sys.add(SetExpr::cons(c, []), SetExpr::var(b)).unwrap();
        sys.solve();
        assert!(sys.nonempty(x), "B now holds c");
        let anns = sys.pn_occurrence_annotations(x, c);
        assert!(!anns.is_empty());
        assert_eq!(sys.pn_occurrence_annotations(x, c), anns);
    }

    #[test]
    fn contravariant_epsilon_flows_reversed() {
        let (mut sys, _, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let f = sys.constructor("f", &[Variance::Contravariant]);
        let (a, b, x) = (sys.var("A"), sys.var("B"), sys.var("X"));
        sys.add(SetExpr::cons(c, []), SetExpr::var(b)).unwrap();
        sys.add(SetExpr::cons_vars(f, [a]), SetExpr::var(x))
            .unwrap();
        sys.add(SetExpr::var(x), SetExpr::cons_vars(f, [b]))
            .unwrap();
        sys.solve();
        // Contravariance: B flows into A.
        assert_eq!(sys.lower_bound_annotations(a, c).len(), 1);
        assert!(sys.is_consistent());
    }

    #[test]
    fn contravariant_annotated_is_a_clash() {
        let (mut sys, g, _) = one_bit_system();
        let f = sys.constructor("f", &[Variance::Contravariant]);
        let (a, b, x) = (sys.var("A"), sys.var("B"), sys.var("X"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons_vars(f, [a]), SetExpr::var(x), fg)
            .unwrap();
        sys.add(SetExpr::var(x), SetExpr::cons_vars(f, [b]))
            .unwrap();
        sys.solve();
        assert!(matches!(
            sys.clashes()[0],
            Clash::ContravariantAnnotated { .. }
        ));
    }

    #[test]
    fn arity_and_projection_validation() {
        let (mut sys, _, _) = one_bit_system();
        let pair = sys.constructor("pair", &[Variance::Covariant, Variance::Covariant]);
        let x = sys.var("X");
        let err = sys
            .add(SetExpr::cons_vars(pair, [x]), SetExpr::var(x))
            .unwrap_err();
        assert!(matches!(err, CoreError::ArityMismatch { .. }));
        let err = sys
            .add(SetExpr::proj(pair, 2, x), SetExpr::var(x))
            .unwrap_err();
        assert!(matches!(err, CoreError::ProjectionIndex { .. }));
        let err = sys
            .add(SetExpr::var(x), SetExpr::proj(pair, 0, x))
            .unwrap_err();
        assert_eq!(err, CoreError::ProjectionOnRight);
    }

    #[test]
    fn per_variable_bounds_respect_section_4() {
        // §4: each variable has at most n·|F_M^≡| lower and upper bounds,
        // where n counts the distinct source/sink expressions.
        let (mut sys, g, k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let vars: Vec<VarId> = (0..12).map(|i| sys.var(&format!("v{i}"))).collect();
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(vars[0]), fg)
            .unwrap();
        for i in 0..vars.len() {
            for j in 0..vars.len() {
                if i != j && (i + j) % 3 == 0 {
                    let ann = if i % 2 == 0 { fg } else { fk };
                    sys.add_ann(SetExpr::var(vars[i]), SetExpr::var(vars[j]), ann)
                        .unwrap();
                }
            }
        }
        sys.solve();
        let stats = sys.stats();
        let f_bound = sys.algebra().len();
        // One source expression: per-variable lower bounds ≤ 1·|F|.
        assert!(
            stats.max_lower_bounds_per_var <= f_bound,
            "{} > {}",
            stats.max_lower_bounds_per_var,
            f_bound
        );
    }

    #[test]
    fn pop_epoch_restores_solved_form_and_stats() {
        let (mut sys, g, k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        let fk = sys.algebra_mut().word(&[k]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        sys.solve();
        let before_stats = sys.stats();
        let before_form = sys.render_solved_form();
        assert_eq!(sys.epoch_depth(), 0);

        sys.push_epoch();
        assert_eq!(sys.epoch_depth(), 1);
        let z = sys.var("Z");
        let d = sys.constructor("d", &[]);
        sys.add_ann(SetExpr::var(y), SetExpr::var(z), fk).unwrap();
        sys.add(SetExpr::cons(d, []), SetExpr::var(z)).unwrap();
        sys.add(SetExpr::var(z), SetExpr::cons(c, [])).unwrap();
        sys.solve();
        assert_eq!(sys.lower_bound_annotations(z, c), vec![fk]);
        assert!(!sys.is_consistent(), "d ⊆ Z ⊆ c(...) clashes");

        assert!(sys.pop_epoch());
        assert_eq!(sys.epoch_depth(), 0);
        assert_eq!(sys.stats(), before_stats);
        assert_eq!(sys.render_solved_form(), before_form);
        assert!(sys.is_consistent());
        assert_eq!(sys.num_vars(), 2);
        assert!(!sys.pop_epoch(), "no epoch left to pop");
    }

    #[test]
    fn nested_epochs_unwind_independently() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.push_epoch();
        sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        sys.solve();
        let mid_form = sys.render_solved_form();
        let mid_stats = sys.stats();
        sys.push_epoch();
        let z = sys.var("Z");
        sys.add(SetExpr::var(y), SetExpr::var(z)).unwrap();
        sys.solve();
        assert_eq!(sys.lower_bound_annotations(z, c), vec![fg]);
        assert!(sys.pop_epoch());
        assert_eq!(sys.render_solved_form(), mid_form);
        assert_eq!(sys.stats(), mid_stats);
        assert_eq!(sys.lower_bound_annotations(y, c), vec![fg]);
        assert!(sys.pop_epoch());
        assert!(sys.lower_bound_annotations(y, c).is_empty());
    }

    #[test]
    fn pop_epoch_unwinds_cycle_collapses() {
        let (mut sys, g, _) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let (x, y, z) = (sys.var("X"), sys.var("Y"), sys.var("Z"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        sys.solve();
        let before = sys.stats();
        sys.push_epoch();
        // Close an ε-cycle X → Y → Z → X: collapses all three.
        sys.add(SetExpr::var(y), SetExpr::var(z)).unwrap();
        sys.add(SetExpr::var(z), SetExpr::var(x)).unwrap();
        sys.solve();
        assert!(sys.stats().cycles_collapsed > before.cycles_collapsed);
        assert_eq!(sys.find(z), sys.find(x));
        assert!(sys.pop_epoch());
        let after = sys.stats();
        assert_eq!(after, before);
        assert_ne!(sys.find(z), sys.find(x), "classes separated again");
        assert_eq!(sys.lower_bound_annotations(y, c), vec![fg]);
        assert!(sys.lower_bound_annotations(z, c).is_empty());
    }

    #[test]
    fn useless_annotations_are_pruned() {
        // L = g exactly: annotation gg is a substring of no word and must
        // be dropped by the solver.
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let m = rasc_automata::Regex::parse("g", &sigma)
            .unwrap()
            .compile(&sigma);
        let mut sys = System::new(MonoidAlgebra::new(&m));
        let c = sys.constructor("c", &[]);
        let (x, y) = (sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        sys.add_ann(SetExpr::var(x), SetExpr::var(y), fg).unwrap();
        sys.solve();
        assert!(
            sys.lower_bound_annotations(y, c).is_empty(),
            "gg cannot extend to a word of L(M) and is pruned"
        );
    }

    #[test]
    fn provenance_rolls_back_with_its_epoch() {
        let (mut sys, g, _k) = one_bit_system();
        sys.enable_provenance();
        let (w, y) = (sys.var("W"), sys.var("Y"));
        let c = sys.constructor("c", &[]);
        let fg = sys.algebra_mut().word(&[g]);
        let eps = sys.algebra().identity();
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(w), fg)
            .unwrap();
        sys.push_epoch();
        sys.add_ann(SetExpr::var(w), SetExpr::var(y), eps).unwrap();
        sys.solve();
        assert!(!sys.explain(y, c).is_empty(), "derived inside the epoch");
        sys.pop_epoch();
        assert!(
            sys.explain(y, c).is_empty(),
            "the lower bound and its provenance rolled back together"
        );
        // Re-deriving after rollback records a fresh, correct reason.
        sys.add_ann(SetExpr::var(w), SetExpr::var(y), eps).unwrap();
        sys.solve();
        let steps = sys.explain(y, c);
        assert!(steps.iter().any(|s| s.constraint == Some(1)), "{steps:#?}");
    }

    #[test]
    fn new_stats_counters_track_budgets_and_roll_back() {
        use crate::budget::InterruptReason;
        let (mut sys, g, _k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let fg = sys.algebra_mut().word(&[g]);
        let mut prev = sys.var("V0");
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(prev), fg)
            .unwrap();
        sys.push_epoch();
        let before = sys.stats();
        assert_eq!(before.fuel_spent, 0, "unlimited solves consume no fuel");
        for i in 1..20 {
            let v = sys.var(&format!("V{i}"));
            sys.add_ann(SetExpr::var(prev), SetExpr::var(v), fg)
                .unwrap();
            prev = v;
        }
        let outcome = sys.solve_bounded(&Budget::unlimited().with_steps(3));
        assert_eq!(outcome, Outcome::Interrupted(InterruptReason::Steps));
        let mid = sys.stats();
        assert_eq!(mid.fuel_spent, 3);
        assert_eq!(mid.interruptions, 1);
        sys.pop_epoch();
        assert_eq!(sys.stats(), before, "all new counters restored exactly");
    }

    /// The online cycle search has a fixed depth bound. A 10k-node ε-ring
    /// carrying one lower bound still solves to completion: the search
    /// its closing edge starts gives up after 32 variables, so the ring
    /// stays uncollapsed and the bound travels all the way round. A
    /// 16-node ring lies within the bound and collapses into one class.
    #[test]
    fn depth_bound_limits_collapse_but_not_solving() {
        fn ring(n: usize) -> (System<MonoidAlgebra>, Vec<VarId>, ConsId) {
            let (mut sys, g, _) = one_bit_system();
            let c = sys.constructor("c", &[]);
            let vars: Vec<VarId> = (0..n).map(|i| sys.var(&format!("v{i}"))).collect();
            let fg = sys.algebra_mut().word(&[g]);
            sys.add_ann(SetExpr::cons(c, []), SetExpr::var(vars[0]), fg)
                .unwrap();
            for i in 0..n {
                sys.add(SetExpr::var(vars[i]), SetExpr::var(vars[(i + 1) % n]))
                    .unwrap();
            }
            (sys, vars, c)
        }

        let (mut big, vars, c) = ring(10_000);
        let outcome = big.solve_bounded(&Budget::unlimited().with_deadline_millis(60_000));
        assert_eq!(outcome, Outcome::Complete);
        let stats = big.stats();
        assert_eq!(stats.cycles_collapsed, 0, "beyond the depth bound");
        assert_eq!(stats.depth_limit_hits, 1, "only the closing edge's search");
        assert!(vars
            .iter()
            .all(|&v| big.lower_bound_annotations(v, c).len() == 1));

        let (mut small, vars, c) = ring(16);
        small.solve();
        let stats = small.stats();
        assert_eq!((stats.cycles_collapsed, stats.depth_limit_hits), (15, 0));
        let root = small.find(vars[0]);
        assert!(vars.iter().all(|&v| small.find(v) == root));
        assert_eq!(small.lower_bound_annotations(vars[15], c).len(), 1);
    }

    /// The hash-backed dedup in `constructor_expr_keys` must keep the old
    /// first-occurrence emission order (downstream annotation-variable
    /// reconstruction numbers keys by position).
    #[test]
    fn constructor_expr_keys_keep_first_occurrence_order() {
        let (mut sys, g, _k) = one_bit_system();
        let c = sys.constructor("c", &[]);
        let d = sys.constructor("d", &[]);
        let o = sys.constructor("o", &[Variance::Covariant]);
        let (w, x, y) = (sys.var("W"), sys.var("X"), sys.var("Y"));
        let fg = sys.algebra_mut().word(&[g]);
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(w), fg)
            .unwrap();
        sys.add_ann(SetExpr::cons_vars(o, [w]), SetExpr::var(x), fg)
            .unwrap();
        // Duplicates of earlier keys plus a sink-only key.
        sys.add_ann(SetExpr::cons(c, []), SetExpr::var(y), fg)
            .unwrap();
        sys.add(SetExpr::var(y), SetExpr::cons(d, [])).unwrap();
        sys.solve();
        let keys = sys.constructor_expr_keys();
        let heads: Vec<ConsId> = keys.iter().map(|(cons, _)| *cons).collect();
        assert_eq!(heads, vec![c, o, d], "first-occurrence order, deduped");
    }
}
