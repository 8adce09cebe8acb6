//! Derivation provenance for solved-form entries.
//!
//! When enabled ([`crate::System::enable_provenance`]), the solver records
//! *why* each solved-form entry (edge, lower bound, upper bound) first
//! appeared: which surface constraint introduced it, or which
//! transitive-closure / resolution step derived it from earlier entries.
//! [`crate::System::explain`] walks these records backwards to produce a
//! derivation chain — the set-constraint analogue of a proof tree, surfaced
//! by the CLI's `explain` batch command.
//!
//! Recording is keyed by canonical (post-cycle-collapse) ids at insert
//! time, with first-justification-wins semantics: re-derivations of an
//! already-present entry do not overwrite the original reason. Entries
//! recorded while an epoch is open are journaled and removed again on
//! [`crate::System::pop_epoch`].

use std::collections::VecDeque;

use crate::algebra::AnnId;
use crate::idhash::IdMap;
use crate::solver::{SnkId, SrcId, VarId};

/// Why a solved-form entry exists (the premise side of one derivation
/// step). Variable/source/sink ids are those that were canonical at
/// recording time; lookups re-canonicalize.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reason {
    /// Introduced directly by surface constraint `constraints[i]`.
    Constraint(usize),
    /// Transitive closure: lower bound `lb` pushed across edge `edge`.
    TransLb {
        /// The edge `(x, y, f)` the bound crossed.
        edge: (VarId, VarId, AnnId),
        /// The lower-bound entry `(x, src, g)` that crossed it.
        lb: (VarId, SrcId, AnnId),
    },
    /// §3.1 resolution: a lower and an upper bound met at `var`.
    Meet {
        /// The variable where the bounds met.
        var: VarId,
        /// The met source.
        src: SrcId,
        /// Annotation of the lower-bound entry.
        src_ann: AnnId,
        /// The met sink.
        snk: SnkId,
        /// Annotation of the upper-bound entry.
        snk_ann: AnnId,
    },
    /// Re-derived when `from` was collapsed into its ε-cycle class.
    Collapsed {
        /// The variable merged away by cycle elimination.
        from: VarId,
    },
}

/// Identity of one solved-form entry, for keying provenance records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum ProvKey {
    /// `x ⊆^f y`.
    Edge(VarId, VarId, AnnId),
    /// `src ⊆^g x`.
    Lb(VarId, SrcId, AnnId),
    /// `x ⊆^h snk`.
    Ub(VarId, SnkId, AnnId),
}

/// The provenance store: first reasons per entry, plus the reasons of
/// facts still pending on the worklist (kept in lockstep with it).
///
/// Like the solved-form categories, the store is layered for
/// copy-on-write forks: `base` holds the reasons frozen into a shared
/// base system, `map` records only the reasons added since the fork.
/// First-justification-wins spans both layers (an entry justified in the
/// base is never re-justified in the overlay), so epoch rollback — which
/// only ever undoes post-fork records — removes from `map` alone.
#[derive(Debug, Default, Clone)]
pub(crate) struct Provenance {
    /// Reasons frozen into the shared base layer at fork time.
    pub(crate) base: Option<std::sync::Arc<IdMap<ProvKey, Reason>>>,
    /// First recorded reason per solved-form entry since the fork.
    pub(crate) map: IdMap<ProvKey, Reason>,
    /// Reason of each pending worklist fact, in worklist order.
    pub(crate) pending: VecDeque<Reason>,
}

impl Provenance {
    /// First-justification lookup across both layers (base wins — it is
    /// by construction the earlier record).
    pub(crate) fn reason(&self, key: &ProvKey) -> Option<&Reason> {
        self.base
            .as_deref()
            .and_then(|b| b.get(key))
            .or_else(|| self.map.get(key))
    }

    /// Whether a reason is already recorded for `key` in either layer.
    pub(crate) fn has(&self, key: &ProvKey) -> bool {
        self.map.contains_key(key) || self.base.as_deref().is_some_and(|b| b.contains_key(key))
    }

    /// Iterates every record across both layers.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&ProvKey, &Reason)> {
        self.base
            .as_deref()
            .map(IdMap::iter)
            .into_iter()
            .flatten()
            .chain(self.map.iter())
    }

    /// Flattens the overlay onto the base, leaving an empty overlay over
    /// one shared layer (reusing the existing `Arc` when nothing was
    /// added since the last freeze).
    pub(crate) fn freeze(&mut self) {
        if self.map.is_empty() {
            return;
        }
        let mut core = match self.base.take() {
            Some(b) => std::sync::Arc::try_unwrap(b).unwrap_or_else(|arc| (*arc).clone()),
            None => IdMap::default(),
        };
        core.extend(std::mem::take(&mut self.map));
        self.base = Some(std::sync::Arc::new(core));
    }
}

/// One step of a derivation chain returned by [`crate::System::explain`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainStep {
    /// Index into [`crate::System::constraints`] when this step cites a
    /// surface constraint.
    pub constraint: Option<usize>,
    /// The rule that produced the entry: `"constraint"`, `"trans-lb"`,
    /// `"resolve"`, `"collapse"`, or `"axiom"` (an entry that predates
    /// provenance recording). Upper bounds never travel, so each one is
    /// cited by the constraint that asserted it or by a collapse.
    pub rule: &'static str,
    /// Human-readable rendering of the step.
    pub description: String,
}
