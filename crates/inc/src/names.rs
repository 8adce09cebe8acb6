//! The protocol's name tables: the constructor and variable names a
//! client spells, bound to the solver's ids.

use std::collections::HashMap;
use std::sync::Arc;

/// A name → id table over a shared base, whose ids grow in binding order.
///
/// A fork shares its base's map and binds fresh names in a map of its
/// own, so its first name copies nothing. Names bound while an epoch is
/// open are also logged; the ids bound inside an epoch are exactly those
/// past the solver's counts at its `push`, so a `pop` unbinds a suffix of
/// the log instead of scanning every name.
#[derive(Debug)]
pub(crate) struct Names<I> {
    /// The names of the base this table was forked from.
    base: Arc<HashMap<String, I>>,
    /// The names bound since the fork (all of them, if never forked).
    own: HashMap<String, I>,
    /// The names bound inside open epochs, oldest first.
    epoch_log: Vec<String>,
}

impl<I: Copy> Default for Names<I> {
    fn default() -> Self {
        Names::shared(Arc::new(HashMap::new()))
    }
}

impl<I: Copy> Names<I> {
    /// A table that starts with (and shares) `base`'s names.
    pub(crate) fn shared(base: Arc<HashMap<String, I>>) -> Names<I> {
        Names {
            base,
            own: HashMap::new(),
            epoch_log: Vec::new(),
        }
    }

    pub(crate) fn get(&self, name: &str) -> Option<I> {
        self.own.get(name).or_else(|| self.base.get(name)).copied()
    }

    pub(crate) fn contains(&self, name: &str) -> bool {
        self.own.contains_key(name) || self.base.contains_key(name)
    }

    /// Binds a fresh `name`; `in_epoch` logs it for [`Names::unbind_past`].
    pub(crate) fn bind(&mut self, name: &str, id: I, in_epoch: bool) {
        self.own.insert(name.to_owned(), id);
        if in_epoch {
            self.epoch_log.push(name.to_owned());
        }
    }

    /// Unbinds the logged names whose ids `live` rejects — the names a
    /// `pop` rolled away, which are the newest.
    pub(crate) fn unbind_past(&mut self, live: impl Fn(I) -> bool) {
        while let Some(name) = self.epoch_log.last() {
            if self.own.get(name).is_some_and(|&id| live(id)) {
                break;
            }
            self.own.remove(name);
            self.epoch_log.pop();
        }
    }

    /// Forgets the log once no epoch is open: the names it held stay.
    pub(crate) fn close_epochs(&mut self) {
        self.epoch_log.clear();
    }

    /// Every binding, in no particular order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&String, I)> {
        self.base.iter().chain(&self.own).map(|(n, &id)| (n, id))
    }

    /// The base map this table shares.
    #[cfg(test)]
    pub(crate) fn base(&self) -> &Arc<HashMap<String, I>> {
        &self.base
    }

    /// How many names the epoch log holds.
    #[cfg(test)]
    pub(crate) fn logged(&self) -> usize {
        self.epoch_log.len()
    }
}
