//! Copy-on-write solved-form storage for the bidirectional solver.
//!
//! The solver's per-variable categories (edges `succs`, lower bounds
//! `lbs`, upper bounds `ubs`) were originally `HashMap<K, Vec<AnnId>>`,
//! cloned wholesale on every worklist step so propagation could run while
//! the solver mutates itself. Banshee (Kodumal & Aiken, SAS 2005) showed
//! that exactly this representation work — flat edge logs, clone-free
//! iteration — is what lets set-constraint solvers scale. This module
//! holds that storage and the solver's other copy-on-write tables:
//!
//! * [`AnnMap`] — one category: a flat append-ordered *entry log* of live
//!   `(key, ann)` pairs, plus a membership set once the log is long enough
//!   to need one. The log is the snapshot-cursor substrate: the
//!   propagation loop walks it by index, copying one `Copy` pair per step,
//!   instead of cloning the whole category up front. It also makes entry
//!   counts O(1) and insertion-order iteration deterministic. Every read
//!   walks the log; the set only rejects duplicate entries.
//! * [`CowVec`] — an append-only vector (constructors, constraints).
//! * [`InternTable`] — an id ↔ value interning table (sources, sinks).
//! * [`ChunkVec`] — the per-variable state (solved forms, union-find
//!   parents) in fixed-size chunks, so a fork shares it chunk by chunk.
//!
//! An [`AnnMap`] layer picks its storage tier by size, because most
//! categories are tiny (in the pushdown encoding nearly all edge
//! categories and most bound categories hold a handful of entries) while
//! a few grow large:
//!
//! 1. **Log only**, up to [`ANNMAP_INDEX_LEN`] entries: membership scans
//!    the log. A category in this tier owns one allocation, the log itself.
//! 2. **Log and set**: past [`ANNMAP_INDEX_LEN`] entries the layer also
//!    keeps a `HashSet<(K, AnnId)>` of its entries, built when the log
//!    outgrows the first tier and dropped when rollback shrinks it back.
//!
//! # Copy-on-write layering
//!
//! Every table here but [`ChunkVec`] is two layers: an optional
//! immutable **base** (`Arc`-shared between every system forked from the
//! same solved form) and a mutable **overlay** recording only what was
//! added since the fork. Each [`AnnMap`] layer picks its tier from its
//! own length. Reads merge both layers; writes touch only the overlay. A
//! table that never forked simply has no base layer, so the single-system
//! hot path pays one `Option` check per operation. `freeze` flattens the
//! overlay onto the base (reusing the `Arc` untouched when the overlay is
//! empty), which is how a solved system becomes a new shareable base.
//!
//! A [`ChunkVec`] holds one record per variable, so it shares chunks
//! rather than layers: freezing cuts it into chunks of 64, a fork bumps
//! one count for the whole frozen list of them, and the fork's first
//! write copies that list (one pointer per 64 variables) and clones the
//! written variable's chunk, whose records are frozen [`AnnMap`]s that
//! clone by bumping their bases.
//!
//! Rollback discipline: epoch undo removes entries in exact reverse
//! insertion order, so [`AnnMap::remove`] looks the log up from the back —
//! O(1) on that path — and the log returns byte-identically to its
//! pre-epoch sequence. Epochs can only open *after* a fork (a base is
//! always a fixpoint with no epochs), so every journaled removal names an
//! overlay entry and every truncation watermark lies past the base; the
//! base layer is never mutated.

use std::sync::Arc;

use crate::algebra::AnnId;
use crate::id_u32;
use crate::idhash::{IdMap, IdSet};

/// Log-only tier capacity: an [`AnnMap`] layer with at most this many
/// entries keeps no membership set and answers membership by scanning its
/// log, which at this length is cheaper than a hash probe and saves the
/// set's allocation.
const ANNMAP_INDEX_LEN: usize = 8;

/// The single-layer storage: the entry log, plus its membership set past
/// the log-only tier. One of these is either an [`AnnMap`]'s private
/// overlay or its `Arc`-shared immutable base.
#[derive(Debug, Clone)]
struct AnnMapCore<K> {
    /// Live `(key, ann)` entries in insertion order; the source of truth.
    entries: Vec<(K, AnnId)>,
    /// The same entries as a set, present iff `entries` is longer than
    /// [`ANNMAP_INDEX_LEN`].
    index: Option<IdSet<(K, AnnId)>>,
}

impl<K> Default for AnnMapCore<K> {
    fn default() -> Self {
        AnnMapCore {
            entries: Vec::new(),
            index: None,
        }
    }
}

/// Whether a log-only layer holds `e`: at [`ANNMAP_INDEX_LEN`] entries a
/// scan beats a hash probe.
fn scan_log<K: Copy + Eq>(entries: &[(K, AnnId)], e: (K, AnnId)) -> bool {
    for &x in entries {
        if x == e {
            return true;
        }
    }
    false
}

impl<K: Copy + Eq + std::hash::Hash> AnnMapCore<K> {
    fn contains(&self, e: (K, AnnId)) -> bool {
        match &self.index {
            Some(index) => index.contains(&e),
            None => scan_log(&self.entries, e),
        }
    }

    /// Appends an entry the caller has checked is absent, building the
    /// set when the log outgrows the log-only tier.
    fn push(&mut self, e: (K, AnnId)) {
        self.entries.push(e);
        match &mut self.index {
            Some(index) => {
                index.insert(e);
            }
            None if self.entries.len() > ANNMAP_INDEX_LEN => {
                self.index = Some(self.entries.iter().copied().collect());
            }
            None => {}
        }
    }

    /// Removes `e`, dropping the set when the log shrinks back to the
    /// log-only tier. Returns whether `e` was present.
    fn remove(&mut self, e: (K, AnnId)) -> bool {
        let Some(pos) = self.entries.iter().rposition(|&x| x == e) else {
            return false;
        };
        self.entries.remove(pos);
        if self.entries.len() <= ANNMAP_INDEX_LEN {
            self.index = None;
        } else if let Some(index) = &mut self.index {
            index.remove(&e);
        }
        true
    }
}

/// A solved-form category for one variable: the flat entry log the
/// propagation cursors iterate plus a membership set past the log-only
/// tier, layered as an optional shared base plus a private overlay. See
/// the module docs.
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
    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.entries.len())
    }

    /// Whether `(key, a)` is an entry of either layer.
    fn contains(&self, key: K, a: AnnId) -> bool {
        let e = (key, a);
        self.base.as_deref().is_some_and(|b| b.contains(e)) || self.over.contains(e)
    }

    /// Inserts `(key, a)`; returns whether the entry is new (across both
    /// layers).
    pub(crate) fn insert(&mut self, key: K, a: AnnId) -> bool {
        if self.contains(key, a) {
            return false;
        }
        self.over.push((key, a));
        true
    }

    /// Removes `(key, a)` from the overlay; returns whether an entry was
    /// removed. The base layer is immutable: removal of a base entry is a
    /// no-op by construction (epoch undo only ever names entries inserted
    /// after the fork, which all live in the overlay).
    ///
    /// Epoch rollback removes entries in exact reverse insertion order, so
    /// the back-to-front log scan terminates immediately on that path.
    pub(crate) fn remove(&mut self, key: K, a: AnnId) -> bool {
        self.over.remove((key, a))
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
                for e in over.entries {
                    core.push(e);
                }
                core
            }
        };
        self.base = Some(Arc::new(core));
    }

    /// Bulk-loads an insertion-ordered entry log into an empty map (the
    /// overlay of a map with no base) — the snapshot *restore* path, where
    /// the whole solved form streams back in at once. The result is the
    /// map that inserting the entries one by one builds, but a log past
    /// the log-only tier builds its set once, at its final size.
    ///
    /// Returns `false` on a duplicate `(key, ann)` pair, leaving the map
    /// empty.
    pub(crate) fn load_log(&mut self, entries: Vec<(K, AnnId)>) -> bool {
        debug_assert!(self.base.is_none() && self.over.entries.is_empty());
        let index = if entries.len() > ANNMAP_INDEX_LEN {
            let mut index = IdSet::with_capacity_and_hasher(entries.len(), Default::default());
            if !entries.iter().all(|&e| index.insert(e)) {
                return false;
            }
            Some(index)
        } else {
            if (1..entries.len()).any(|i| scan_log(&entries[..i], entries[i])) {
                return false;
            }
            None
        };
        self.over = AnnMapCore { entries, index };
        true
    }
}

/// An append-only vector with a copy-on-write base: the frozen prefix is
/// `Arc`-shared between forks, the tail holds everything pushed since.
/// Epoch truncation watermarks are always at or past the base length
/// (epochs only open after a fork), so `truncate` never has to cut into
/// the shared prefix.
#[derive(Debug, Clone)]
pub(crate) struct CowVec<T> {
    base: Option<Arc<Vec<T>>>,
    tail: Vec<T>,
}

impl<T> Default for CowVec<T> {
    fn default() -> Self {
        CowVec {
            base: None,
            tail: Vec::new(),
        }
    }
}

impl<T: Clone> CowVec<T> {
    pub(crate) fn from_vec(v: Vec<T>) -> CowVec<T> {
        CowVec {
            base: None,
            tail: v,
        }
    }

    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.len())
    }

    pub(crate) fn len(&self) -> usize {
        self.base_len() + self.tail.len()
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let nb = self.base_len();
        if i < nb {
            self.base.as_deref().map(|b| &b[i])
        } else {
            self.tail.get(i - nb)
        }
    }

    /// Panicking index (mirrors `Vec` indexing; ids are validated on
    /// construction).
    pub(crate) fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(v) => v,
            None => panic!("CowVec index out of bounds: ids are validated on construction"),
        }
    }

    pub(crate) fn push(&mut self, value: T) {
        self.tail.push(value);
    }

    /// Truncates to `n` total entries; `n` must not cut into the frozen
    /// base (guaranteed by the epoch-after-fork discipline).
    pub(crate) fn truncate(&mut self, n: usize) {
        let nb = self.base_len();
        debug_assert!(n >= nb || self.len() <= n);
        self.tail.truncate(n.saturating_sub(nb));
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.base
            .as_deref()
            .map(|b| b.iter())
            .into_iter()
            .flatten()
            .chain(self.tail.iter())
    }

    /// Moves the tail into the shared base (reusing the `Arc` when the
    /// tail is empty).
    pub(crate) fn freeze(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        let mut core = match self.base.take() {
            Some(b) => Arc::try_unwrap(b).unwrap_or_else(|arc| (*arc).clone()),
            None => Vec::new(),
        };
        core.append(&mut self.tail);
        self.base = Some(Arc::new(core));
    }
}

/// An interning table (id ↔ value both ways) with a copy-on-write base,
/// used for the solver's source and sink tables. The frozen prefix of the
/// id space and its reverse map are `Arc`-shared; values interned since
/// the fork live in the overlay. Truncation (epoch rollback) only ever
/// drops overlay entries.
#[derive(Debug, Clone)]
pub(crate) struct InternTable<T> {
    base: Option<Arc<InternCore<T>>>,
    list: Vec<T>,
    ids: IdMap<T, u32>,
}

impl<T> Default for InternTable<T> {
    fn default() -> Self {
        InternTable {
            base: None,
            list: Vec::new(),
            ids: IdMap::default(),
        }
    }
}

#[derive(Debug, Clone)]
struct InternCore<T> {
    list: Vec<T>,
    ids: IdMap<T, u32>,
}

impl<T> Default for InternCore<T> {
    fn default() -> Self {
        InternCore {
            list: Vec::new(),
            ids: IdMap::default(),
        }
    }
}

impl<T: Clone + Eq + std::hash::Hash> InternTable<T> {
    /// A table of `list` in order (the snapshot restore path), or the
    /// index of the first value that repeats an earlier one.
    pub(crate) fn from_list(list: Vec<T>) -> Result<InternTable<T>, usize> {
        let mut ids = IdMap::with_capacity_and_hasher(list.len(), Default::default());
        for (i, value) in list.iter().enumerate() {
            if ids.insert(value.clone(), i as u32).is_some() {
                return Err(i);
            }
        }
        Ok(InternTable {
            base: None,
            list,
            ids,
        })
    }

    fn base_len(&self) -> usize {
        self.base.as_ref().map_or(0, |b| b.list.len())
    }

    pub(crate) fn len(&self) -> usize {
        self.base_len() + self.list.len()
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        let nb = self.base_len();
        if i < nb {
            self.base.as_deref().map(|b| &b.list[i])
        } else {
            self.list.get(i - nb)
        }
    }

    /// Panicking index (ids handed out by `intern` are always in range).
    pub(crate) fn index(&self, i: usize) -> &T {
        match self.get(i) {
            Some(v) => v,
            None => panic!("InternTable index out of bounds: `intern` hands out in-range ids"),
        }
    }

    fn lookup(&self, value: &T) -> Option<u32> {
        self.ids
            .get(value)
            .or_else(|| self.base.as_deref().and_then(|b| b.ids.get(value)))
            .copied()
    }

    /// Interns `value`, returning its stable id (existing id when already
    /// present in either layer).
    pub(crate) fn intern(&mut self, value: T, what: &'static str) -> u32 {
        if let Some(id) = self.lookup(&value) {
            return id;
        }
        let id = id_u32(self.len(), what);
        self.ids.insert(value.clone(), id);
        self.list.push(value);
        id
    }

    /// Truncates to `n` total entries, dropping overlay reverse-map
    /// entries alongside; `n` never cuts into the frozen base.
    pub(crate) fn truncate(&mut self, n: usize) {
        let nb = self.base_len();
        debug_assert!(n >= nb || self.len() <= n);
        for value in self.list.drain(n.saturating_sub(nb)..) {
            self.ids.remove(&value);
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.base
            .as_deref()
            .map(|b| b.list.iter())
            .into_iter()
            .flatten()
            .chain(self.list.iter())
    }

    /// Moves the overlay into the shared base (reusing the `Arc` when the
    /// overlay is empty).
    pub(crate) fn freeze(&mut self) {
        if self.list.is_empty() {
            return;
        }
        let mut core = match self.base.take() {
            Some(b) => Arc::try_unwrap(b).unwrap_or_else(|arc| (*arc).clone()),
            None => InternCore::default(),
        };
        core.list.append(&mut self.list);
        core.ids.extend(std::mem::take(&mut self.ids));
        self.base = Some(Arc::new(core));
    }
}

/// Elements per [`ChunkVec`] chunk: a fork's first write to a base
/// variable clones 64 variables' records, each a few `Arc` bumps.
const CHUNK: usize = 64;

/// A vector that forks share in fixed-size chunks: the per-variable
/// state of a [`System`](crate::System).
///
/// Until it is first frozen it is one flat `Vec`, so a system that never
/// forks pays one branch per access for the chunking.
/// [`ChunkVec::freeze`] cuts it into chunks and shares every chunk, and
/// the list of them as a whole, so cloning a frozen `ChunkVec` bumps one
/// count however long it is. The clone's first write copies the list
/// (one pointer per chunk) and then the written chunk alone. An
/// element's clone must be cheap: the solver's records are frozen entry
/// logs, whose clones bump their shared base instead of copying entries.
#[derive(Debug, Clone)]
pub(crate) struct ChunkVec<T> {
    chunks: Chunks<T>,
    len: usize,
}

#[derive(Debug, Clone)]
enum Chunks<T> {
    /// Never frozen: every element in one vector of this vector's own.
    Flat(Vec<T>),
    /// Every chunk, and the list of them, shared and read-only.
    Frozen(Arc<Vec<Arc<Vec<T>>>>),
    /// A list of this vector's own, each chunk shared until written.
    Open(Vec<Chunk<T>>),
}

impl<T> Default for Chunks<T> {
    fn default() -> Self {
        Chunks::Flat(Vec::new())
    }
}

#[derive(Debug, Clone)]
enum Chunk<T> {
    Shared(Arc<Vec<T>>),
    Owned(Vec<T>),
}

impl<T> Default for ChunkVec<T> {
    fn default() -> Self {
        ChunkVec {
            chunks: Chunks::default(),
            len: 0,
        }
    }
}

impl<T: Clone> ChunkVec<T> {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Chunk `c`'s elements (of a flat vector, the same range of it).
    fn chunk(&self, c: usize) -> Option<&[T]> {
        match &self.chunks {
            Chunks::Flat(all) => all.get(c * CHUNK..all.len().min((c + 1) * CHUNK)),
            Chunks::Frozen(list) => list.get(c).map(|chunk| chunk.as_slice()),
            Chunks::Open(list) => list.get(c).map(|chunk| match chunk {
                Chunk::Shared(shared) => shared.as_slice(),
                Chunk::Owned(own) => own.as_slice(),
            }),
        }
    }

    pub(crate) fn get(&self, i: usize) -> Option<&T> {
        self.chunk(i / CHUNK).and_then(|c| c.get(i % CHUNK))
    }

    /// The list of chunks, made this vector's own: a flat vector is cut
    /// into chunks, and a frozen one's list copied.
    fn open(&mut self) -> &mut Vec<Chunk<T>> {
        let list = match std::mem::take(&mut self.chunks) {
            Chunks::Flat(all) => {
                let mut rest = all.into_iter();
                (0..self.len.div_ceil(CHUNK))
                    .map(|_| Chunk::Owned(rest.by_ref().take(CHUNK).collect()))
                    .collect()
            }
            Chunks::Frozen(list) => list.iter().map(|c| Chunk::Shared(Arc::clone(c))).collect(),
            Chunks::Open(list) => list,
        };
        self.chunks = Chunks::Open(list);
        match &mut self.chunks {
            Chunks::Open(list) => list,
            _ => unreachable!("opened above"),
        }
    }

    /// Chunk `c` of the opened list, cloned out of the shared base first
    /// if need be.
    fn owned_chunk(&mut self, c: usize) -> &mut Vec<T> {
        let chunk = &mut self.open()[c];
        if let Chunk::Shared(shared) = chunk {
            let mut own = Vec::with_capacity(CHUNK);
            own.extend_from_slice(shared);
            *chunk = Chunk::Owned(own);
        }
        match chunk {
            Chunk::Owned(own) => own,
            Chunk::Shared(_) => unreachable!("made owned above"),
        }
    }

    pub(crate) fn push(&mut self, value: T) {
        if let Chunks::Flat(all) = &mut self.chunks {
            all.push(value);
        } else if self.len.is_multiple_of(CHUNK) {
            let mut own = Vec::with_capacity(CHUNK);
            own.push(value);
            self.open().push(Chunk::Owned(own));
        } else {
            self.owned_chunk(self.len / CHUNK).push(value);
        }
        self.len += 1;
    }

    /// Shortens the vector to `n` elements (epoch rollback), cloning at
    /// most the one shared chunk that `n` cuts.
    pub(crate) fn truncate(&mut self, n: usize) {
        if n >= self.len {
            return;
        }
        self.len = n;
        if let Chunks::Flat(all) = &mut self.chunks {
            all.truncate(n);
            return;
        }
        self.open().truncate(n.div_ceil(CHUNK));
        if !n.is_multiple_of(CHUNK) {
            self.owned_chunk(n / CHUNK).truncate(n % CHUNK);
        }
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len.div_ceil(CHUNK))
            .filter_map(|c| self.chunk(c))
            .flatten()
    }

    /// Shares every chunk and the list of them, after applying `freeze`
    /// to each element of the chunks this vector owned; shared chunks are
    /// frozen already and stay as they are.
    pub(crate) fn freeze(&mut self, mut freeze: impl FnMut(&mut T)) {
        if matches!(self.chunks, Chunks::Frozen(_)) {
            return;
        }
        let list = std::mem::take(self.open())
            .into_iter()
            .map(|chunk| match chunk {
                Chunk::Shared(shared) => shared,
                Chunk::Owned(mut own) => {
                    own.iter_mut().for_each(&mut freeze);
                    Arc::new(own)
                }
            })
            .collect();
        self.chunks = Chunks::Frozen(Arc::new(list));
    }
}

impl<T: Clone> FromIterator<T> for ChunkVec<T> {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        let all: Vec<T> = items.into_iter().collect();
        ChunkVec {
            len: all.len(),
            chunks: Chunks::Flat(all),
        }
    }
}

impl<T: Clone> std::ops::Index<usize> for ChunkVec<T> {
    type Output = T;

    fn index(&self, i: usize) -> &T {
        match &self.chunks {
            Chunks::Flat(all) => &all[i],
            Chunks::Frozen(list) => &list[i / CHUNK][i % CHUNK],
            Chunks::Open(list) => match &list[i / CHUNK] {
                Chunk::Shared(shared) => &shared[i % CHUNK],
                Chunk::Owned(own) => &own[i % CHUNK],
            },
        }
    }
}

impl<T: Clone> std::ops::IndexMut<usize> for ChunkVec<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        match self.chunks {
            Chunks::Flat(ref mut all) => &mut all[i],
            _ => &mut self.owned_chunk(i / CHUNK)[i % CHUNK],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ann(n: u32) -> AnnId {
        AnnId(n)
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
            for x in 0..24 {
                let member = log.contains(&(key, ann(x)));
                assert_eq!(m.contains(key, ann(x)), member, "({key}, {x})");
            }
        }
        for core in m.base.as_deref().into_iter().chain([&m.over]) {
            match &core.index {
                Some(index) => {
                    assert!(core.entries.len() > ANNMAP_INDEX_LEN, "set past the tier");
                    assert_eq!(index.len(), core.entries.len());
                    assert!(core.entries.iter().all(|e| index.contains(e)));
                }
                None => assert!(core.entries.len() <= ANNMAP_INDEX_LEN, "log-only tier"),
            }
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
                assert!(m.insert(k, a));
                model.push((k, a));
                for &(k, a) in &model {
                    assert!(!m.insert(k, a), "dup");
                }
                assert_matches_model(&m, &model, KEYS);
            }
            // ... and back down, undoing in reverse to the base.
            for i in (0..over_len).rev() {
                let (k, a) = entry(1, i);
                assert!(m.remove(k, a));
                assert!(!m.remove(k, a), "already removed");
                model.pop();
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
        // A log with interleaved keys, long enough to cross the log-only
        // tier; then its prefixes, the short ones staying in that tier.
        let log: Vec<(u32, AnnId)> = (0..20).map(|i| (i % 3, ann(100 + (i * 13) % 29))).collect();
        for len in [0, 3, ANNMAP_INDEX_LEN, ANNMAP_INDEX_LEN + 1, log.len()] {
            let log = &log[..len];
            let mut incremental: AnnMap<u32> = AnnMap::default();
            for &(k, a) in log {
                assert!(incremental.insert(k, a));
            }
            let mut bulk: AnnMap<u32> = AnnMap::default();
            assert!(bulk.load_log(log.to_vec()));
            assert!(bulk.iter_entries().eq(incremental.iter_entries()));
            assert_eq!(bulk.over.index, incremental.over.index);
            assert_matches_model(&bulk, log, 3);

            if let Some(&first) = log.first() {
                let mut dup = log.to_vec();
                dup.push(first);
                let mut rejecting: AnnMap<u32> = AnnMap::default();
                assert!(!rejecting.load_log(dup), "duplicate pair rejected");
            }
        }
    }

    #[test]
    fn annmap_log_tracks_inserts_and_reverse_removals() {
        let mut m: AnnMap<u32> = AnnMap::default();
        let fresh: Vec<bool> = [(1, 10), (2, 20), (1, 11), (2, 20)]
            .into_iter()
            .map(|(k, a)| m.insert(k, ann(a)))
            .collect();
        assert_eq!(
            fresh,
            [true, true, true, false],
            "duplicate (2,20) rejected"
        );
        assert_eq!(m.len(), 3);
        assert!(
            m.iter_entries()
                .eq([(1, ann(10)), (2, ann(20)), (1, ann(11))]),
            "insertion order, duplicates dropped"
        );
        // Reverse-order removal (the rollback path) restores each prefix.
        assert!(m.remove(1, ann(11)));
        assert!(m.iter_entries().eq([(1, ann(10)), (2, ann(20))]));
        assert!(m.remove(2, ann(20)));
        assert!(m.remove(1, ann(10)));
        assert_eq!(m.len(), 0);
        assert!(!m.contains(1, ann(10)));
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
        // overlay.
        assert!(!fork.insert(1, ann(10)));
        assert!(fork.insert(1, ann(11)));
        assert!(fork.insert(3, ann(30)));
        assert_eq!(fork.len(), 4);
        assert_eq!(m.len(), 2, "the origin map never sees fork writes");

        // Reads merge: the indexed log and membership.
        assert_eq!(fork.entry(0), Some((1, ann(10))));
        assert_eq!(fork.entry(2), Some((1, ann(11))));
        assert_eq!(fork.entry(3), Some((3, ann(30))));
        assert!(fork.contains(1, ann(10)) && fork.contains(3, ann(30)));
        assert!(!m.contains(3, ann(30)));

        // Rollback-style removal touches only the overlay.
        assert!(fork.remove(3, ann(30)));
        assert!(fork.remove(1, ann(11)));
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
        assert_eq!(grown.base_len(), 4);
    }

    #[test]
    fn chunk_vec_forks_share_chunks_until_written() {
        let n = 3 * CHUNK + 5;
        let mut base: ChunkVec<u32> = (0..n as u32).collect();
        base.freeze(|x| *x += 1000);
        let expect: Vec<u32> = (1000..1000 + n as u32).collect();
        assert!(base.iter().copied().eq(expect.iter().copied()));

        // A clone of a frozen vector shares the whole chunk list.
        let mut fork = base.clone();
        let (Chunks::Frozen(a), Chunks::Frozen(b)) = (&base.chunks, &fork.chunks) else {
            panic!("freeze shares every chunk");
        };
        assert!(Arc::ptr_eq(a, b));

        // Its first write clones the written chunk alone.
        fork[CHUNK + 1] = 7;
        fork.push(8);
        let Chunks::Open(list) = &fork.chunks else {
            panic!("a write opens the list");
        };
        let owned: Vec<bool> = list.iter().map(|c| matches!(c, Chunk::Owned(_))).collect();
        assert_eq!(owned, [false, true, false, true]);
        assert_eq!((fork[CHUNK + 1], fork[n], fork.len()), (7, 8, n + 1));
        assert!(
            base.iter().copied().eq(expect.iter().copied()),
            "base unchanged"
        );

        // Rollback truncates back into the shared prefix.
        fork.truncate(2 * CHUNK + 3);
        assert_eq!(fork.len(), 2 * CHUNK + 3);
        assert_eq!(fork.get(2 * CHUNK + 3), None);
        assert_eq!(fork.iter().count(), 2 * CHUNK + 3);
        assert_eq!(
            fork.get(2 * CHUNK + 2),
            Some(&(1000 + 2 * CHUNK as u32 + 2))
        );
    }
}
