//! The incremental session layer over the bidirectional solver.
//!
//! A [`Session`] owns a [`System`] and adds the two capabilities the
//! one-shot solver lacks for serving workloads:
//!
//! * **Incremental constraint addition** — [`Session::add`] enqueues only
//!   the new constraint's sources/sinks and re-drains the existing
//!   worklist fixpoint, so the cost is proportional to the delta, not to
//!   the whole system (the separate/online analysis capability of §5.1).
//! * **Epoch-based rollback** — [`Session::push_epoch`] /
//!   [`Session::pop_epoch`] journal and undo exactly the delta, in the
//!   style of BANSHEE's backtracking (§8).
//!
//! Queries go to the solved [`System`] itself ([`Session::system_mut`]).

use rasc_core::algebra::{Algebra, AnnId};
use rasc_core::{
    BaseSystem, Budget, Clash, ConsId, Outcome, Result, SetExpr, SnapshotError, SolverStats,
    System, VarId, Variance,
};

/// An incremental solving session: a [`System`] plus rollback epochs. See
/// the module docs.
#[derive(Debug)]
pub struct Session<A: Algebra> {
    sys: System<A>,
}

impl<A: Algebra> Session<A> {
    /// A session over an empty system with the default solver
    /// configuration.
    pub fn new(algebra: A) -> Session<A> {
        Session {
            sys: System::new(algebra),
        }
    }

    /// Wraps an existing (possibly already solved) system.
    pub fn from_system(mut sys: System<A>) -> Session<A> {
        sys.solve();
        Session { sys }
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
        }
    }

    /// Freezes this session's solved form into a shared fork base (see
    /// [`System::into_base`]). Fails with a state error while facts are
    /// pending or an epoch is open.
    pub fn into_base(self) -> std::result::Result<BaseSystem<A>, SnapshotError> {
        self.sys.into_base()
    }

    /// The underlying solved system (read-only).
    pub fn system(&self) -> &System<A> {
        &self.sys
    }

    /// The underlying system, mutable: queries are asked here. Unlike
    /// [`Session::add`], constraints added here wait for the next solve.
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
    /// when no epoch is open. The algebra's hash-cons tables are not
    /// shrunk (ids are canonical by content), so the `annotations` stat
    /// may exceed its pre-epoch value.
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
        assert!(s.system_mut().occurrence_annotations(y, c).is_empty());
        s.add(SetExpr::var(x), SetExpr::var(y)).unwrap();
        assert_eq!(s.system_mut().occurrence_annotations(y, c), vec![fg]);
        assert!(s.system_mut().occurs_accepting(y, c));
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
        let before = s.system_mut().occurrence_annotations(y, c);
        let before_stats = s.stats();
        s.push_epoch();
        let z = s.var("Z");
        s.add_ann(SetExpr::cons(c, []), SetExpr::var(y), fk)
            .unwrap();
        s.add(SetExpr::var(y), SetExpr::var(z)).unwrap();
        assert_eq!(s.system_mut().occurrence_annotations(y, c).len(), 2);
        assert!(s.pop_epoch());
        assert_eq!(s.system_mut().occurrence_annotations(y, c), before);
        assert_eq!(s.stats(), before_stats);
    }

    #[test]
    fn nonempty_and_pn_answers_follow_increments() {
        let (mut s, _, _) = one_bit_session();
        let c = s.constructor("c", &[]);
        let pair = s.constructor("pair", &[Variance::Covariant, Variance::Covariant]);
        let (a, b, x) = (s.var("A"), s.var("B"), s.var("X"));
        s.add(SetExpr::cons(c, []), SetExpr::var(a)).unwrap();
        s.add(SetExpr::cons_vars(pair, [a, b]), SetExpr::var(x))
            .unwrap();
        assert!(!s.system().nonempty(x), "B is empty");
        s.add(SetExpr::cons(c, []), SetExpr::var(b)).unwrap();
        assert!(s.system().nonempty(x), "B now holds c");
        let anns = s.system_mut().pn_occurrence_annotations(x, c);
        assert!(!anns.is_empty());
        assert_eq!(s.system_mut().pn_occurrence_annotations(x, c), anns);
    }
}
