//! Indexed solved-form storage for the bidirectional solver.
//!
//! The solver's per-variable adjacency (`succs`/`preds`) and bound
//! (`lbs`/`ubs`) categories were originally `HashMap<K, Vec<AnnId>>`,
//! cloned wholesale (via `flatten`) on every worklist step so propagation
//! could run while the solver mutates itself. Banshee (Kodumal & Aiken,
//! SAS 2005) showed that exactly this representation work — indexed edge
//! sets, clone-free iteration — is what lets set-constraint solvers scale;
//! this module provides the two building blocks:
//!
//! * [`AnnMap`] — one category: a flat append-ordered *entry log* of live
//!   `(key, ann)` pairs, plus per-key sets once the log is long enough to
//!   need them. The log is the snapshot-cursor substrate: the propagation
//!   loop walks it by index, copying one `Copy` pair per step, instead of
//!   cloning the whole category up front. It also makes entry counts O(1)
//!   and insertion-order iteration deterministic.
//! * [`AnnSet`] — one key's annotations: a sorted vec that grows a shadow
//!   hash set for O(1) membership once it outgrows [`ANNSET_PROMOTE_LEN`].
//!   The sorted vec is always maintained, so iteration order stays
//!   deterministic regardless of tier.
//!
//! Storage is tiered by size, because most categories are tiny (in the
//! pushdown encoding nearly all edge categories and most bound categories
//! hold a handful of entries) while a few grow large:
//!
//! 1. **Log only**, up to [`ANNMAP_INDEX_LEN`] entries: membership,
//!    `has_key` and per-key reads scan the log. A category in this tier
//!    owns one allocation, the log itself.
//! 2. **Per-key sorted sets**: past [`ANNMAP_INDEX_LEN`] entries the
//!    category also keeps a `HashMap<K, AnnSet>`, built when the log
//!    outgrows the first tier and dropped when rollback shrinks it back.
//! 3. **Hashed sets**: a key's [`AnnSet`] past [`ANNSET_PROMOTE_LEN`]
//!    annotations also keeps a hash set.
//!
//! # Copy-on-write layering
//!
//! An [`AnnMap`] is two layers: an optional immutable **base**
//! (`Arc`-shared between every session forked from the same solved form)
//! and a mutable **overlay** recording only the entries added since the
//! fork. Each layer picks its tier from its own length. Reads merge both
//! layers; writes touch only the overlay. A map that never forked simply
//! has no base layer, so the single-session hot path pays one `Option`
//! check per operation. [`AnnMap::freeze`] flattens the overlay onto the
//! base (reusing the `Arc` untouched when the overlay is empty), which is
//! how a solved system becomes a new shareable base.
//!
//! Rollback discipline: epoch undo removes entries in exact reverse
//! insertion order, so [`AnnMap::remove`] looks the log up from the back —
//! O(1) on that path — and the log returns byte-identically to its
//! pre-epoch sequence. Epochs can only open *after* a fork (a base is
//! always a fixpoint with no epochs), so every journaled removal names an
//! overlay entry; the base layer is never mutated.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::algebra::AnnId;

/// Log-only tier capacity: an [`AnnMap`] layer with at most this many
/// entries keeps no per-key index and answers per-key reads by scanning
/// its log, which at this length is cheaper than a hash probe and saves
/// the map and per-key vecs.
pub(crate) const ANNMAP_INDEX_LEN: usize = 8;

/// Sorted-vec tier capacity: an [`AnnSet`] longer than this grows a shadow
/// `HashSet` for O(1) membership tests. Below it, binary search over a
/// small contiguous vec wins on both time and space. The paper's §4 bound
/// (`≤ |F_M^≡|` annotations per entry key) keeps most sets far below this.
pub(crate) const ANNSET_PROMOTE_LEN: usize = 16;

/// A set of interned annotations with tiered membership and deterministic
/// (sorted) iteration order.
#[derive(Debug, Default, Clone)]
pub(crate) struct AnnSet {
    /// Always sorted and duplicate-free; the source of truth.
    sorted: Vec<AnnId>,
    /// Shadow membership index, present only above [`ANNSET_PROMOTE_LEN`].
    hash: Option<HashSet<AnnId>>,
}

impl AnnSet {
    /// Tiered membership: O(1) above the promote threshold, O(log n)
    /// binary search below.
    pub(crate) fn contains(&self, a: AnnId) -> bool {
        match &self.hash {
            Some(h) => h.contains(&a),
            None => self.sorted.binary_search(&a).is_ok(),
        }
    }

    /// Inserts `a`; returns `false` when already present.
    pub(crate) fn insert(&mut self, a: AnnId) -> bool {
        if let Some(h) = &mut self.hash {
            if !h.insert(a) {
                return false;
            }
            let pos = match self.sorted.binary_search(&a) {
                Ok(_) => return true, // unreachable: hash mirrors sorted
                Err(pos) => pos,
            };
            self.sorted.insert(pos, a);
            return true;
        }
        match self.sorted.binary_search(&a) {
            Ok(_) => false,
            Err(pos) => {
                self.sorted.insert(pos, a);
                if self.sorted.len() > ANNSET_PROMOTE_LEN {
                    self.hash = Some(self.sorted.iter().copied().collect());
                }
                true
            }
        }
    }

    /// Removes `a`; returns `false` when absent. An emptied set drops its
    /// hash tier so rolled-back state is structurally minimal again.
    pub(crate) fn remove(&mut self, a: AnnId) -> bool {
        match self.sorted.binary_search(&a) {
            Ok(pos) => {
                self.sorted.remove(pos);
                if let Some(h) = &mut self.hash {
                    h.remove(&a);
                    if self.sorted.len() <= ANNSET_PROMOTE_LEN / 2 {
                        self.hash = None;
                    }
                }
                true
            }
            Err(_) => false,
        }
    }

    /// Builds a set from an already-sorted, duplicate-free vec, landing on
    /// the same tier an equivalent insert-by-insert sequence would have
    /// reached (hash shadow iff past the promote threshold).
    pub(crate) fn from_sorted(sorted: Vec<AnnId>) -> AnnSet {
        debug_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
        let hash = (sorted.len() > ANNSET_PROMOTE_LEN).then(|| sorted.iter().copied().collect());
        AnnSet { sorted, hash }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// The annotations in sorted order.
    pub(crate) fn as_slice(&self) -> &[AnnId] {
        &self.sorted
    }
}

/// The single-layer storage: the entry log, plus per-key sets past the
/// log-only tier. One of these is either an [`AnnMap`]'s private overlay
/// or its `Arc`-shared immutable base.
#[derive(Debug, Clone)]
struct AnnMapCore<K> {
    /// Live `(key, ann)` entries in insertion order; the source of truth.
    entries: Vec<(K, AnnId)>,
    /// Per-key sets, present iff `entries` is longer than
    /// [`ANNMAP_INDEX_LEN`].
    index: Option<HashMap<K, AnnSet>>,
}

impl<K> Default for AnnMapCore<K> {
    fn default() -> Self {
        AnnMapCore {
            entries: Vec::new(),
            index: None,
        }
    }
}

/// Scans a log-only layer for `(key, a)`: returns whether `key` has any
/// entry and whether the pair itself is present.
fn scan_log<K: Copy + Eq>(entries: &[(K, AnnId)], key: K, a: AnnId) -> (bool, bool) {
    let mut has_key = false;
    for &(k, x) in entries {
        if k == key {
            if x == a {
                return (true, true);
            }
            has_key = true;
        }
    }
    (has_key, false)
}

impl<K: Copy + Eq + std::hash::Hash> AnnMapCore<K> {
    /// Whether `key` has any entry, and whether `(key, a)` is one.
    fn probe(&self, key: K, a: AnnId) -> (bool, bool) {
        match &self.index {
            Some(index) => index
                .get(&key)
                .map_or((false, false), |s| (true, s.contains(a))),
            None => scan_log(&self.entries, key, a),
        }
    }

    fn has_key(&self, key: K) -> bool {
        match &self.index {
            Some(index) => index.contains_key(&key),
            None => self.entries.iter().any(|&(k, _)| k == key),
        }
    }

    /// The annotations of `key`: sorted from the index, in insertion
    /// order from a log-only layer.
    fn anns(&self, key: K) -> impl Iterator<Item = AnnId> + '_ {
        let (sorted, log): (&[AnnId], &[(K, AnnId)]) = match &self.index {
            Some(index) => (index.get(&key).map_or(&[], AnnSet::as_slice), &[]),
            None => (&[], &self.entries),
        };
        sorted
            .iter()
            .copied()
            .chain(log.iter().filter(move |&&(k, _)| k == key).map(|&(_, a)| a))
    }

    /// Appends an entry the caller has checked is absent, building the
    /// index when the log outgrows the log-only tier.
    fn push(&mut self, key: K, a: AnnId) {
        self.entries.push((key, a));
        match &mut self.index {
            Some(index) => {
                index.entry(key).or_default().insert(a);
            }
            None if self.entries.len() > ANNMAP_INDEX_LEN => {
                let mut index: HashMap<K, AnnSet> = HashMap::new();
                for &(k, x) in &self.entries {
                    index.entry(k).or_default().insert(x);
                }
                self.index = Some(index);
            }
            None => {}
        }
    }

    /// Removes `(key, a)`, dropping the index when the log shrinks back to
    /// the log-only tier. Returns `None` when absent, otherwise whether
    /// `key` has no entry left.
    fn remove(&mut self, key: K, a: AnnId) -> Option<bool> {
        let pos = self.entries.iter().rposition(|&e| e == (key, a))?;
        self.entries.remove(pos);
        if self.entries.len() <= ANNMAP_INDEX_LEN {
            self.index = None;
        }
        match &mut self.index {
            None => Some(!self.has_key(key)),
            Some(index) => {
                let emptied = index.get_mut(&key).is_some_and(|set| {
                    set.remove(a);
                    set.is_empty()
                });
                if emptied {
                    index.remove(&key);
                }
                Some(emptied)
            }
        }
    }
}

/// A solved-form category for one variable: the flat entry log the
/// propagation cursors iterate plus per-key sets past the log-only tier,
/// layered as an optional shared base plus a private overlay. See the
/// module docs.
#[derive(Debug, Clone)]
pub(crate) struct AnnMap<K> {
    /// The immutable shared layer (entries present at fork time).
    base: Option<Arc<AnnMapCore<K>>>,
    /// The mutable layer recording everything added since the fork.
    over: AnnMapCore<K>,
}

impl<K> Default for AnnMap<K> {
    fn default() -> Self {
        AnnMap {
            base: None,
            over: AnnMapCore::default(),
        }
    }
}

impl<K: Copy + Eq + std::hash::Hash> AnnMap<K> {
    fn base_entries(&self) -> &[(K, AnnId)] {
        self.base.as_deref().map_or(&[], |b| &b.entries)
    }

    /// Entries in the shared base layer (0 when never forked).
    pub(crate) fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.entries.len())
    }

    /// Inserts `(key, a)`; returns whether the entry is new (across both
    /// layers). `on_new_key` fires when this is the key's first live
    /// annotation in *either* layer (the hook that maintains secondary
    /// indexes, e.g. the per-constructor buckets).
    pub(crate) fn insert_with<F: FnOnce()>(&mut self, key: K, a: AnnId, on_new_key: F) -> bool {
        let (in_base, dup) = self
            .base
            .as_deref()
            .map_or((false, false), |b| b.probe(key, a));
        if dup {
            return false;
        }
        let (in_over, dup) = self.over.probe(key, a);
        if dup {
            return false;
        }
        if !in_base && !in_over {
            on_new_key();
        }
        self.over.push(key, a);
        true
    }

    /// Inserts `(key, a)`; returns whether the entry is new.
    pub(crate) fn insert(&mut self, key: K, a: AnnId) -> bool {
        self.insert_with(key, a, || {})
    }

    /// Removes `(key, a)` from the overlay; returns whether an entry was
    /// removed. `on_key_emptied` fires when the key's last annotation left
    /// both layers. The base layer is immutable: removal of a base entry
    /// is a no-op by construction (epoch undo only ever names entries
    /// inserted after the fork, which all live in the overlay).
    ///
    /// Epoch rollback removes entries in exact reverse insertion order, so
    /// the back-to-front log scan terminates immediately on that path.
    pub(crate) fn remove_with<F: FnOnce()>(&mut self, key: K, a: AnnId, on_key_emptied: F) -> bool {
        let Some(emptied) = self.over.remove(key, a) else {
            return false;
        };
        if emptied && !self.base.as_deref().is_some_and(|b| b.has_key(key)) {
            on_key_emptied();
        }
        true
    }

    /// Removes `(key, a)`; returns whether an entry was removed.
    pub(crate) fn remove(&mut self, key: K, a: AnnId) -> bool {
        self.remove_with(key, a, || {})
    }

    /// Total live entries across all keys and both layers — O(1).
    pub(crate) fn len(&self) -> usize {
        self.base_len() + self.over.entries.len()
    }

    /// The `i`-th entry of the merged log: base entries first (in their
    /// insertion order), then overlay entries. Propagation cursors index
    /// through this one step at a time instead of cloning the category;
    /// appends during the walk land in the overlay and are still visited.
    pub(crate) fn entry(&self, i: usize) -> Option<(K, AnnId)> {
        let nb = self.base_len();
        if i < nb {
            self.base.as_deref().map(|b| b.entries[i])
        } else {
            self.over.entries.get(i - nb).copied()
        }
    }

    /// The merged entry log, insertion-ordered (base first, then overlay).
    pub(crate) fn iter_entries(&self) -> impl Iterator<Item = (K, AnnId)> + '_ {
        self.base_entries()
            .iter()
            .copied()
            .chain(self.over.entries.iter().copied())
    }

    /// The annotations recorded for `key`: the base layer's, then the
    /// overlay's. The two are disjoint by construction (inserts dedupe
    /// across layers), so each annotation appears exactly once. Order
    /// within a layer is sorted past the log-only tier and insertion
    /// order within it; callers that need one order sort.
    pub(crate) fn anns(&self, key: K) -> impl Iterator<Item = AnnId> + '_ {
        self.base
            .as_deref()
            .into_iter()
            .flat_map(move |b| b.anns(key))
            .chain(self.over.anns(key))
    }

    /// Whether `key` has any live annotation in either layer.
    #[cfg(test)]
    pub(crate) fn has_key(&self, key: K) -> bool {
        self.over.has_key(key) || self.base.as_deref().is_some_and(|b| b.has_key(key))
    }

    /// Flattens the overlay onto the base, leaving an empty overlay over
    /// one immutable `Arc`-shared layer — the shape [`AnnMap::clone`]
    /// shares in O(1). When the overlay is already empty the existing base
    /// `Arc` is reused untouched; the merged entry log keeps base entries
    /// first, so freezing never reorders what [`AnnMap::iter_entries`]
    /// (and therefore snapshot bytes) observe.
    pub(crate) fn freeze(&mut self) {
        if self.over.entries.is_empty() {
            return;
        }
        let over = std::mem::take(&mut self.over);
        let core = match self.base.take() {
            None => over,
            Some(b) => {
                let mut core = Arc::try_unwrap(b).unwrap_or_else(|arc| (*arc).clone());
                for (k, a) in over.entries {
                    core.push(k, a);
                }
                core
            }
        };
        self.base = Some(Arc::new(core));
    }
}

impl<K: Copy + Eq + Ord + std::hash::Hash> AnnMap<K> {
    /// Bulk-loads an insertion-ordered entry log into an empty map (the
    /// overlay of a map with no base). Structurally identical to replaying
    /// [`AnnMap::insert_with`] entry by entry, but a log past the log-only
    /// tier groups its entries with one key sort instead of paying one
    /// hash probe plus one sorted-vec shift per entry — the snapshot
    /// *restore* hot path, where the whole solved form streams back in at
    /// once. `on_new_key` fires once per distinct key, in first-appearance
    /// order (the same order incremental inserts would have fired it).
    ///
    /// Returns `false` on a duplicate `(key, ann)` pair; the map contents
    /// are unspecified after a failure (restore discards the system), but
    /// internally consistent.
    pub(crate) fn load_log<F: FnMut(K)>(
        &mut self,
        entries: Vec<(K, AnnId)>,
        mut on_new_key: F,
    ) -> bool {
        debug_assert!(self.base.is_none() && self.over.entries.is_empty());
        if entries.len() <= ANNMAP_INDEX_LEN {
            for (i, &(key, a)) in entries.iter().enumerate() {
                let (seen, dup) = scan_log(&entries[..i], key, a);
                if dup {
                    return false;
                }
                if !seen {
                    on_new_key(key);
                }
            }
            self.over.entries = entries;
            return true;
        }
        // Stable grouping: sort positions by (key, position) so each key's
        // annotations stay in appearance order and ties keep the first
        // appearance first.
        let mut order: Vec<u32> = (0..entries.len() as u32).collect();
        order.sort_unstable_by_key(|&i| (entries[i as usize].0, i));
        // Keys surface in sorted order here, but `on_new_key` is specified
        // (and relied upon by the per-constructor buckets) to fire in
        // first-appearance order, so collect and re-sort by position.
        let mut new_keys: Vec<(u32, K)> = Vec::new();
        let mut index: HashMap<K, AnnSet> = HashMap::new();
        let mut i = 0;
        while i < order.len() {
            let key = entries[order[i] as usize].0;
            let start = i;
            while i < order.len() && entries[order[i] as usize].0 == key {
                i += 1;
            }
            let mut anns: Vec<AnnId> = order[start..i]
                .iter()
                .map(|&j| entries[j as usize].1)
                .collect();
            anns.sort_unstable();
            if anns.windows(2).any(|w| w[0] == w[1]) {
                return false;
            }
            new_keys.push((order[start], key));
            index.insert(key, AnnSet::from_sorted(anns));
        }
        new_keys.sort_unstable_by_key(|&(pos, _)| pos);
        for &(_, key) in &new_keys {
            on_new_key(key);
        }
        self.over = AnnMapCore {
            entries,
            index: Some(index),
        };
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(n: u32) -> AnnId {
        AnnId(n)
    }

    fn set_of<K: Copy + Eq + std::hash::Hash>(m: &AnnMap<K>, key: K) -> Vec<AnnId> {
        let mut anns: Vec<AnnId> = m.anns(key).collect();
        anns.sort_unstable();
        anns
    }

    #[test]
    fn annset_promotes_and_demotes_across_the_tier_boundary() {
        let mut s = AnnSet::default();
        for i in 0..=(ANNSET_PROMOTE_LEN as u32) {
            assert!(s.insert(ann(i * 7 % 101)));
            assert!(!s.insert(ann(i * 7 % 101)), "duplicate rejected");
        }
        assert!(s.hash.is_some(), "promoted past the small tier");
        let sorted = s.as_slice().to_vec();
        assert!(sorted.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
        for &a in &sorted {
            assert!(s.contains(a));
        }
        for &a in sorted.iter().rev() {
            assert!(s.remove(a));
            assert!(!s.remove(a));
        }
        assert!(s.is_empty());
        assert!(s.hash.is_none(), "emptied set demoted");
    }

    /// Checks every read of `m` against the naive model `log` (the merged
    /// entry log, base first), plus the tier invariant of each layer.
    fn assert_matches_model(m: &AnnMap<u32>, log: &[(u32, AnnId)], keys: u32) {
        assert_eq!(m.len(), log.len());
        assert!(m.iter_entries().eq(log.iter().copied()));
        for (i, &e) in log.iter().enumerate() {
            assert_eq!(m.entry(i), Some(e));
        }
        assert_eq!(m.entry(log.len()), None);
        for key in 0..keys {
            let mut want: Vec<AnnId> = log
                .iter()
                .filter(|&&(k, _)| k == key)
                .map(|&(_, a)| a)
                .collect();
            want.sort_unstable();
            assert_eq!(set_of(m, key), want, "anns({key})");
            assert_eq!(m.has_key(key), !want.is_empty(), "has_key({key})");
            for x in 0..24 {
                let member = m.anns(key).any(|a| a == ann(x));
                assert_eq!(member, want.binary_search(&ann(x)).is_ok(), "({key}, {x})");
            }
        }
        for core in m.base.as_deref().into_iter().chain([&m.over]) {
            assert_eq!(
                core.index.is_some(),
                core.entries.len() > ANNMAP_INDEX_LEN,
                "a layer is indexed iff past the log-only tier"
            );
        }
    }

    #[test]
    fn log_only_tier_matches_naive_model_across_the_index_boundary() {
        const KEYS: u32 = 3;
        // Entry `i` of a layer: keys cycle so every key gains several
        // annotations, and annotations differ between the layers.
        let entry = |layer: u32, i: u32| (i % KEYS, ann(layer * 12 + i));
        for base_len in [0u32, 5, ANNMAP_INDEX_LEN as u32 + 3] {
            let mut m: AnnMap<u32> = AnnMap::default();
            let mut model: Vec<(u32, AnnId)> = Vec::new();
            for i in 0..base_len {
                assert!(m.insert(entry(0, i).0, entry(0, i).1));
                model.push(entry(0, i));
            }
            if base_len > 0 {
                m.freeze();
                assert_eq!(m.base_len(), base_len as usize);
            }
            assert_matches_model(&m, &model, KEYS);
            // The overlay crosses its own threshold on the way up...
            let over_len = ANNMAP_INDEX_LEN as u32 + 4;
            for i in 0..over_len {
                let (k, a) = entry(1, i);
                let mut fired = false;
                assert!(m.insert_with(k, a, || fired = true));
                assert_eq!(fired, !model.iter().any(|&(mk, _)| mk == k), "new key {k}");
                model.push((k, a));
                for &(k, a) in &model {
                    assert!(!m.insert_with(k, a, || panic!("duplicate")), "dup");
                }
                assert_matches_model(&m, &model, KEYS);
            }
            // ... and back down, undoing in reverse to the base.
            for i in (0..over_len).rev() {
                let (k, a) = entry(1, i);
                let mut fired = false;
                assert!(m.remove_with(k, a, || fired = true));
                assert!(!m.remove(k, a), "already removed");
                model.pop();
                assert_eq!(fired, !model.iter().any(|&(mk, _)| mk == k), "emptied {k}");
                assert_matches_model(&m, &model, KEYS);
            }
            for &(k, a) in &model {
                assert!(!m.remove(k, a), "base entries are immutable");
            }
            assert_matches_model(&m, &model, KEYS);
        }
    }

    #[test]
    fn bulk_load_matches_incremental_inserts() {
        // A log with interleaved keys, enough entries on key 1 to cross the
        // promote threshold, and first appearances out of key order; then
        // its short prefixes, which stay in the log-only tier.
        let mut log: Vec<(u32, AnnId)> = Vec::new();
        for i in 0..(ANNSET_PROMOTE_LEN as u32 + 4) {
            log.push((1, ann(100 + (i * 13) % 29)));
        }
        log.insert(1, (7, ann(3)));
        log.insert(3, (0, ann(9)));
        log.push((7, ann(1)));

        for len in [0, 3, ANNMAP_INDEX_LEN, ANNMAP_INDEX_LEN + 1, log.len()] {
            let log = &log[..len];
            let mut incremental: AnnMap<u32> = AnnMap::default();
            let mut inc_keys = Vec::new();
            for &(k, a) in log {
                incremental.insert_with(k, a, || inc_keys.push(k));
            }
            let mut bulk: AnnMap<u32> = AnnMap::default();
            let mut bulk_keys = Vec::new();
            assert!(bulk.load_log(log.to_vec(), |k| bulk_keys.push(k)));

            assert!(bulk.iter_entries().eq(incremental.iter_entries()));
            assert_eq!(bulk_keys, inc_keys, "new-key hook order preserved");
            assert_eq!(bulk.over.index.is_some(), len > ANNMAP_INDEX_LEN);
            for k in [0u32, 1, 7] {
                assert_eq!(set_of(&bulk, k), set_of(&incremental, k));
            }

            if let Some(&first) = log.first() {
                let mut dup = log.to_vec();
                dup.push(first);
                let mut rejecting: AnnMap<u32> = AnnMap::default();
                assert!(!rejecting.load_log(dup, |_| {}), "duplicate pair rejected");
            }
        }
    }

    #[test]
    fn annmap_log_tracks_inserts_and_reverse_removals() {
        let mut m: AnnMap<u32> = AnnMap::default();
        let mut new_keys = 0;
        for (k, a) in [(1, 10), (2, 20), (1, 11), (2, 20)] {
            m.insert_with(k, ann(a), || new_keys += 1);
        }
        assert_eq!(new_keys, 2, "duplicate (2,20) created no key");
        assert_eq!(m.len(), 3);
        assert!(
            m.iter_entries()
                .eq([(1, ann(10)), (2, ann(20)), (1, ann(11))]),
            "insertion order, duplicates dropped"
        );
        assert_eq!(set_of(&m, 1), vec![ann(10), ann(11)]);
        // Reverse-order removal (the rollback path) restores each prefix.
        let mut emptied = 0;
        assert!(m.remove_with(1, ann(11), || emptied += 1));
        assert_eq!(emptied, 0, "key 1 still holds ann 10");
        assert!(m.remove_with(2, ann(20), || emptied += 1));
        assert!(m.remove_with(1, ann(10), || emptied += 1));
        assert_eq!(emptied, 2);
        assert_eq!(m.len(), 0);
        assert!(!m.has_key(1));
    }

    #[test]
    fn frozen_base_shares_and_overlay_records_only_deltas() {
        let mut m: AnnMap<u32> = AnnMap::default();
        m.insert(1, ann(10));
        m.insert(2, ann(20));
        m.freeze();
        assert_eq!(m.base_len(), 2);

        // A fork is a plain clone: the base Arc is shared, overlays are
        // independent.
        let mut fork = m.clone();
        assert!(Arc::ptr_eq(
            m.base.as_ref().unwrap(),
            fork.base.as_ref().unwrap()
        ));

        // Duplicates of base entries are rejected without touching the
        // overlay; base keys never re-fire the new-key hook.
        assert!(!fork.insert(1, ann(10)));
        let mut hook = 0;
        assert!(fork.insert_with(1, ann(11), || hook += 1));
        assert_eq!(hook, 0, "key 1 already lives in the base");
        assert!(fork.insert_with(3, ann(30), || hook += 1));
        assert_eq!(hook, 1, "key 3 is new across both layers");
        assert_eq!(fork.len(), 4);
        assert_eq!(m.len(), 2, "the origin map never sees fork writes");

        // Reads merge: per-key sets, the indexed log, and membership.
        assert_eq!(set_of(&fork, 1), vec![ann(10), ann(11)]);
        assert_eq!(fork.entry(0), Some((1, ann(10))));
        assert_eq!(fork.entry(2), Some((1, ann(11))));
        assert_eq!(fork.entry(3), Some((3, ann(30))));
        assert_eq!(set_of(&fork, 3), vec![ann(30)]);

        // Rollback-style removal touches only the overlay; emptying an
        // overlay set whose key survives in the base must not fire the
        // emptied hook, while a key that existed only in the overlay must.
        let mut emptied = 0;
        assert!(fork.remove_with(3, ann(30), || emptied += 1));
        assert_eq!(emptied, 1);
        assert!(fork.remove_with(1, ann(11), || emptied += 1));
        assert_eq!(emptied, 1, "key 1 still lives in the base");
        assert!(!fork.remove(1, ann(10)), "base entries are immutable");
        assert!(fork.iter_entries().eq(m.iter_entries()));

        // Re-freezing after growth flattens deterministically: base
        // entries first, then overlay entries.
        let mut grown = m.clone();
        grown.insert(1, ann(12));
        grown.insert(4, ann(40));
        grown.freeze();
        assert!(grown
            .iter_entries()
            .eq([(1, ann(10)), (2, ann(20)), (1, ann(12)), (4, ann(40))]));
        assert_eq!(set_of(&grown, 1), vec![ann(10), ann(12)]);
        assert_eq!(grown.base_len(), 4);
    }
}
