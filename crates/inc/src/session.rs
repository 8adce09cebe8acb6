//! The incremental session layer over the bidirectional solver.
//!
//! A [`Session`] owns a [`System`] and adds the three capabilities the
//! one-shot solver lacks for serving workloads:
//!
//! * **Incremental constraint addition** — [`Session::add`] enqueues only
//!   the new constraint's sources/sinks and re-drains the existing
//!   worklist fixpoint, so the cost is proportional to the delta, not to
//!   the whole system (the separate/online analysis capability of §5.1).
//! * **Epoch-based rollback** — [`Session::push_epoch`] /
//!   [`Session::pop_epoch`] journal and undo exactly the delta, in the
//!   style of BANSHEE's backtracking (§8).
//! * **A stamped query cache** — query results are memoized together with
//!   the mutation stamps of every variable they depended on; later
//!   increments invalidate only results whose dependency stamps moved.

use std::collections::{HashMap, HashSet};

use rasc_core::algebra::{Algebra, AnnId};
use rasc_core::{
    BaseSystem, Budget, Clash, ConsId, Outcome, Result, SetExpr, SnapshotError, SolverStats,
    System, VarId, Variance,
};

/// Hit/miss counters for the session's query cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Cache lookups answered without recomputation.
    pub hits: u64,
    /// Lookups that computed (and stored) a fresh result.
    pub misses: u64,
    /// Stored results discarded because a dependency stamp moved.
    pub invalidations: u64,
}

/// What a cached result depended on: either an explicit set of variables
/// (with the stamps they had when the result was computed), or — for
/// whole-system queries — the global mutation counter.
#[derive(Debug, Clone)]
enum Stamp {
    Vars(Vec<(VarId, u64)>),
    Global(u64),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Value {
    Anns(Vec<AnnId>),
    Bool(bool),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Occurrence(VarId, ConsId),
    PnOccurrence(VarId, ConsId),
    Nonempty(VarId),
}

#[derive(Debug, Clone)]
struct Entry {
    stamp: Stamp,
    value: Value,
}

/// An incremental solving session: a [`System`] plus rollback epochs and
/// a generation-stamped query cache. See the module docs.
#[derive(Debug)]
pub struct Session<A: Algebra> {
    sys: System<A>,
    cache: HashMap<Key, Entry>,
    stats: CacheStats,
}

impl<A: Algebra> Session<A> {
    /// A session over an empty system with the default solver
    /// configuration.
    pub fn new(algebra: A) -> Session<A> {
        Session {
            sys: System::new(algebra),
            cache: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Wraps an existing (possibly already solved) system.
    pub fn from_system(mut sys: System<A>) -> Session<A> {
        sys.solve();
        Session {
            sys,
            cache: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// A session forked copy-on-write from a shared frozen base (see
    /// [`System::fork`]): the solved form is shared by `Arc`, only deltas
    /// made through this session allocate, and every query — including
    /// stats and provenance — answers identically to a session restored
    /// from the base's snapshot. O(vars) `Arc` bumps; no re-solve, and no
    /// solved-form entry is copied.
    pub fn fork_from(base: &BaseSystem<A>) -> Session<A>
    where
        A: Clone,
    {
        Session {
            sys: System::fork(base),
            cache: HashMap::new(),
            stats: CacheStats::default(),
        }
    }

    /// Freezes this session's solved form into a shared fork base (see
    /// [`System::into_base`]). Fails with a state error while facts are
    /// pending or an epoch is open. The query cache is dropped — forks
    /// start cold, exactly like restored sessions.
    pub fn into_base(self) -> std::result::Result<BaseSystem<A>, SnapshotError> {
        self.sys.into_base()
    }

    /// The underlying solved system (read-only).
    pub fn system(&self) -> &System<A> {
        &self.sys
    }

    /// The underlying system, mutable. Stamp validation keeps the cache
    /// sound across direct mutations, but prefer the session methods.
    pub fn system_mut(&mut self) -> &mut System<A> {
        &mut self.sys
    }

    /// Creates a fresh set variable.
    pub fn var(&mut self, name: &str) -> VarId {
        self.sys.var(name)
    }

    /// Declares a constructor.
    pub fn constructor(&mut self, name: &str, signature: &[Variance]) -> ConsId {
        self.sys.constructor(name, signature)
    }

    /// Adds `lhs ⊆ rhs` and immediately re-drains the worklist: only the
    /// consequences of the new constraint are propagated.
    ///
    /// # Errors
    ///
    /// Same as [`System::add`]; on error the system is unchanged.
    pub fn add(&mut self, lhs: SetExpr, rhs: SetExpr) -> Result<()> {
        self.sys.add(lhs, rhs)?;
        self.sys.solve();
        Ok(())
    }

    /// Adds the annotated constraint `lhs ⊆^ann rhs` incrementally.
    ///
    /// # Errors
    ///
    /// Same as [`System::add_ann`]; on error the system is unchanged.
    pub fn add_ann(&mut self, lhs: SetExpr, rhs: SetExpr, ann: AnnId) -> Result<()> {
        self.sys.add_ann(lhs, rhs, ann)?;
        self.sys.solve();
        Ok(())
    }

    /// Adds `lhs ⊆ rhs` and re-drains the worklist under `budget`.
    ///
    /// On [`Outcome::Interrupted`] the pending worklist is kept:
    /// [`Session::resume`] continues the drain (converging to the same
    /// fixpoint), or — if an epoch is open — [`Session::pop_epoch`]
    /// discards the partial work. Query results are only meaningful at a
    /// fixpoint, so do one or the other before querying.
    ///
    /// # Errors
    ///
    /// Same as [`System::add`]; on error the system is unchanged.
    pub fn add_bounded(&mut self, lhs: SetExpr, rhs: SetExpr, budget: &Budget) -> Result<Outcome> {
        self.sys.add(lhs, rhs)?;
        Ok(self.sys.solve_bounded(budget))
    }

    /// Annotated variant of [`Session::add_bounded`].
    ///
    /// # Errors
    ///
    /// Same as [`System::add_ann`]; on error the system is unchanged.
    pub fn add_ann_bounded(
        &mut self,
        lhs: SetExpr,
        rhs: SetExpr,
        ann: AnnId,
        budget: &Budget,
    ) -> Result<Outcome> {
        self.sys.add_ann(lhs, rhs, ann)?;
        Ok(self.sys.solve_bounded(budget))
    }

    /// Re-drains a previously interrupted solve under a fresh budget.
    /// Closure is monotone, so however many times a drain is interrupted
    /// and resumed, it converges to exactly the fixpoint an uninterrupted
    /// solve would have reached.
    pub fn resume(&mut self, budget: &Budget) -> Outcome {
        self.sys.solve_bounded(budget)
    }

    /// Number of worklist facts pending after an interrupted solve.
    pub fn pending_facts(&self) -> usize {
        self.sys.pending_facts()
    }

    /// *Transactionally* adds `lhs ⊆^ann rhs` (ε when `ann` is `None`)
    /// under `budget`: either the constraint is added and fully solved
    /// (`Ok(Outcome::Complete)`), or the session is rolled back to exactly
    /// its prior state — on budget exhaustion
    /// (`Ok(Outcome::Interrupted(_))`) and on rejected constraints
    /// (`Err(_)`) alike. Implemented as an internal
    /// push-epoch / solve-bounded / commit-or-pop sequence, so it also
    /// works with further epochs already open.
    ///
    /// # Errors
    ///
    /// Same as [`System::add_ann`]; the epoch that briefly opened is
    /// popped, leaving no trace.
    pub fn add_transactional(
        &mut self,
        lhs: SetExpr,
        rhs: SetExpr,
        ann: Option<AnnId>,
        budget: &Budget,
    ) -> Result<Outcome> {
        self.sys.push_epoch();
        let added = match ann {
            Some(a) => self.sys.add_ann(lhs, rhs, a),
            None => self.sys.add(lhs, rhs),
        };
        if let Err(e) = added {
            self.sys.pop_epoch();
            return Err(e);
        }
        let outcome = self.sys.solve_bounded(budget);
        match outcome {
            Outcome::Complete => self.sys.commit_epoch(),
            Outcome::Interrupted(_) => self.sys.pop_epoch(),
        };
        Ok(outcome)
    }

    /// Opens a rollback epoch (see [`System::push_epoch`]).
    pub fn push_epoch(&mut self) {
        self.sys.push_epoch();
    }

    /// Rolls back to the matching [`Session::push_epoch`]. Returns `false`
    /// when no epoch is open. Cached results taken mid-epoch are
    /// invalidated by their stamps (stamps only move forward), not purged
    /// eagerly — pre-epoch results stay warm. The algebra's hash-cons
    /// tables are not shrunk (ids are canonical by content), so the
    /// `annotations` stat may exceed its pre-epoch value.
    pub fn pop_epoch(&mut self) -> bool {
        // Depth *before* the pop: how deep the rollback reached.
        rasc_obs::histogram("session.rollback.depth", self.sys.epoch_depth() as u64);
        self.sys.pop_epoch()
    }

    /// Closes the innermost epoch keeping its work (see
    /// [`System::commit_epoch`]). Returns `false` when no epoch is open.
    pub fn commit_epoch(&mut self) -> bool {
        self.sys.commit_epoch()
    }

    /// Number of open epochs.
    pub fn epoch_depth(&self) -> usize {
        self.sys.epoch_depth()
    }

    /// Cache hit/miss counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of live cache entries.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Solver statistics, recomputed on every call: O(vars), like
    /// [`System::stats`]. For the `stats` command and benches, not for
    /// per-request bookkeeping.
    pub fn stats(&self) -> SolverStats {
        self.sys.stats()
    }

    /// The inconsistencies discovered so far.
    pub fn clashes(&self) -> &[Clash] {
        self.sys.clashes()
    }

    /// Whether the system is consistent.
    pub fn is_consistent(&self) -> bool {
        self.sys.is_consistent()
    }

    /// Cached [`System::occurrence_annotations`]: all composed annotations
    /// with which `target` occurs at any depth in the least solution of
    /// `x`. The cached result depends exactly on the variables reachable
    /// from `x` through lower-bound arguments, so unrelated increments do
    /// not evict it.
    pub fn occurrence_annotations(&mut self, x: VarId, target: ConsId) -> Vec<AnnId> {
        let key = Key::Occurrence(self.sys.find_root(x), target);
        if let Some(Value::Anns(anns)) = self.lookup(&key) {
            return anns;
        }
        let value = self.sys.occurrence_annotations(x, target);
        let deps = self.lb_closure_stamps(x);
        self.store(key, Stamp::Vars(deps), Value::Anns(value.clone()));
        value
    }

    /// Cached acceptance query: whether `target` occurs in `ρ(x)` with an
    /// accepting composed annotation (shares the
    /// [`Session::occurrence_annotations`] cache entry).
    pub fn occurs_accepting(&mut self, x: VarId, target: ConsId) -> bool {
        self.occurrence_annotations(x, target)
            .iter()
            .any(|&a| self.sys.algebra().is_accepting(a))
    }

    /// Cached [`System::pn_occurrence_annotations`] (partially matched
    /// reachability). PN descents traverse solved edges and projection
    /// sinks anywhere in the system, so the entry is stamped against the
    /// global mutation counter.
    pub fn pn_occurrence_annotations(&mut self, x: VarId, target: ConsId) -> Vec<AnnId> {
        let key = Key::PnOccurrence(self.sys.find_root(x), target);
        if let Some(Value::Anns(anns)) = self.lookup(&key) {
            return anns;
        }
        let value = self.sys.pn_occurrence_annotations(x, target);
        let stamp = Stamp::Global(self.sys.global_version());
        self.store(key, stamp, Value::Anns(value.clone()));
        value
    }

    /// Cached [`System::nonempty`]. Emptiness is a whole-system
    /// productivity fixpoint, so the entry is stamped against the global
    /// mutation counter.
    pub fn nonempty(&mut self, x: VarId) -> bool {
        let key = Key::Nonempty(self.sys.find_root(x));
        if let Some(Value::Bool(b)) = self.lookup(&key) {
            return b;
        }
        let value = self.sys.nonempty(x);
        let stamp = Stamp::Global(self.sys.global_version());
        self.store(key, stamp, Value::Bool(value));
        value
    }

    /// Validates and returns a cached value, dropping stale entries.
    fn lookup(&mut self, key: &Key) -> Option<Value> {
        let entry = self.cache.get(key)?;
        let valid = match &entry.stamp {
            Stamp::Global(g) => *g == self.sys.global_version(),
            Stamp::Vars(deps) => deps.iter().all(|&(v, stamp)| {
                v.index() < self.sys.num_vars() && self.sys.var_version(v) == stamp
            }),
        };
        if valid {
            self.stats.hits += 1;
            rasc_obs::counter("session.cache.hits", 1);
            Some(entry.value.clone())
        } else {
            self.cache.remove(key);
            self.stats.invalidations += 1;
            rasc_obs::counter("session.cache.invalidations", 1);
            None
        }
    }

    fn store(&mut self, key: Key, stamp: Stamp, value: Value) {
        self.stats.misses += 1;
        rasc_obs::counter("session.cache.misses", 1);
        self.cache.insert(key, Entry { stamp, value });
    }

    /// The dependency set of a term-descent query from `x`: every
    /// canonical variable reachable through lower-bound arguments, with
    /// its current stamp. If an increment later adds a lower bound to any
    /// of these (growing the reachable set), the parent's stamp moves.
    fn lb_closure_stamps(&self, x: VarId) -> Vec<(VarId, u64)> {
        let root = self.sys.find_root(x);
        // Hash-backed visited set (the linear `seen.contains` scan was
        // quadratic on deep closures); `order` keeps the dependency list
        // in deterministic discovery order. `lower_bounds` now borrows
        // the argument slices, so the walk allocates nothing per entry.
        let mut seen: HashSet<VarId> = HashSet::from([root]);
        let mut order: Vec<VarId> = vec![root];
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for (_, args, _) in self.sys.lower_bounds(v) {
                for &a in args {
                    let a = self.sys.find_root(a);
                    if seen.insert(a) {
                        order.push(a);
                        stack.push(a);
                    }
                }
            }
        }
        order
            .into_iter()
            .map(|v| (v, self.sys.var_version(v)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rasc_automata::{Alphabet, Dfa, SymbolId};
    use rasc_core::algebra::MonoidAlgebra;

    fn one_bit_session() -> (Session<MonoidAlgebra>, SymbolId, SymbolId) {
        let mut sigma = Alphabet::new();
        let g = sigma.intern("g");
        let k = sigma.intern("k");
        let m = Dfa::one_bit(&sigma, g, k);
        (Session::new(MonoidAlgebra::new(&m)), g, k)
    }

    #[test]
    fn incremental_adds_are_queryable_immediately() {
        let (mut s, g, _) = one_bit_session();
        let c = s.constructor("c", &[]);
        let (x, y) = (s.var("X"), s.var("Y"));
        let fg = s.system_mut().algebra_mut().word(&[g]);
        s.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        assert!(s.occurrence_annotations(y, c).is_empty());
        s.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        assert_eq!(s.occurrence_annotations(y, c), vec![fg]);
        assert!(s.occurs_accepting(y, c));
    }

    #[test]
    fn unrelated_increments_keep_cache_entries_warm() {
        let (mut s, g, _) = one_bit_session();
        let c = s.constructor("c", &[]);
        let (x, y) = (s.var("X"), s.var("Y"));
        let fg = s.system_mut().algebra_mut().word(&[g]);
        s.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        let first = s.occurrence_annotations(x, c);
        assert_eq!(s.cache_stats().misses, 1);
        // An increment in a disconnected component.
        s.add(SetExpr::cons(c, []), SetExpr::var(y)).unwrap();
        assert_eq!(s.occurrence_annotations(x, c), first);
        assert_eq!(s.cache_stats().hits, 1, "per-var stamps survived");
        // An increment feeding x invalidates.
        let d = s.constructor("d", &[]);
        s.add(SetExpr::cons(d, []), SetExpr::var(x)).unwrap();
        s.occurrence_annotations(x, c);
        assert_eq!(s.cache_stats().invalidations, 1);
    }

    #[test]
    fn rollback_restores_query_results() {
        let (mut s, g, k) = one_bit_session();
        let c = s.constructor("c", &[]);
        let (x, y) = (s.var("X"), s.var("Y"));
        let fg = s.system_mut().algebra_mut().word(&[g]);
        let fk = s.system_mut().algebra_mut().word(&[k]);
        s.add_ann(SetExpr::cons(c, []), SetExpr::var(x), fg)
            .unwrap();
        s.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        let before = s.occurrence_annotations(y, c);
        let before_stats = s.stats();
        s.push_epoch();
        let z = s.var("Z");
        s.add_ann(SetExpr::cons(c, []), SetExpr::var(y), fk)
            .unwrap();
        s.add(SetExpr::var(y), SetExpr::var(z)).unwrap();
        assert_eq!(s.occurrence_annotations(y, c).len(), 2);
        assert!(s.pop_epoch());
        assert_eq!(s.occurrence_annotations(y, c), before);
        assert_eq!(s.stats(), before_stats);
    }

    #[test]
    fn nonempty_and_pn_queries_track_the_global_stamp() {
        let (mut s, g, _) = one_bit_session();
        let c = s.constructor("c", &[]);
        let pair = s.constructor("pair", &[Variance::Covariant, Variance::Covariant]);
        let (a, b, x) = (s.var("A"), s.var("B"), s.var("X"));
        let _ = g;
        s.add(SetExpr::cons(c, []), SetExpr::var(a)).unwrap();
        s.add(SetExpr::cons_vars(pair, [a, b]), SetExpr::var(x))
            .unwrap();
        assert!(!s.nonempty(x), "B is empty");
        assert!(!s.nonempty(x), "cached");
        assert_eq!(s.cache_stats().hits, 1);
        s.add(SetExpr::cons(c, []), SetExpr::var(b)).unwrap();
        assert!(s.nonempty(x), "stale global stamp recomputed");
        let anns = s.pn_occurrence_annotations(x, c);
        assert!(!anns.is_empty());
        assert_eq!(s.pn_occurrence_annotations(x, c), anns);
    }
}
