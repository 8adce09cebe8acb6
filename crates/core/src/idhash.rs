//! The hasher for maps and sets keyed by engine-assigned ids.
//!
//! The solver's own tables are keyed by ids the engine hands out —
//! variables, sources, sinks, constructors and annotations, and tuples
//! of them — never by a string a client chose. std's default hasher,
//! SipHash-1-3 under a per-process random key, defends a table against
//! keys picked to collide, which these tables cannot receive, and costs
//! several multiplies per probe. [`IdHasher`] folds each written word
//! into its state with one add and one multiply (the Fx construction of
//! rustc's `FxHasher`), under no key; `finish` rotates the product so
//! that its best-mixed high bits pick the bucket. Maps keyed by names a
//! client spells keep std's keyed hasher. A snapshot image feeds these
//! tables ids too: the decoder checks each against its table's range,
//! and an image is trusted to be the engine's own output, so a forged
//! one could slow a restore down but not change what it answers.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// An odd constant with well-spread bits: the multiplier of rustc's
/// `FxHasher` (rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// A keyless multiply-rotate hasher for keys made of engine-assigned ids.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct IdHasher {
    hash: u64,
}

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    /// Byte strings are rare among id keys: one step per byte.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// Builds [`IdHasher`]s; zero-sized, so a map carries no hasher state.
pub(crate) type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` keyed by engine-assigned ids.
pub(crate) type IdMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` of engine-assigned ids.
pub(crate) type IdSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: &T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn equal_keys_hash_equally_and_nearby_ids_spread() {
        assert_eq!(hash(&(3u32, 7u32)), hash(&(3u32, 7u32)));
        assert_ne!(hash(&(3u32, 7u32)), hash(&(7u32, 3u32)));
        // Consecutive `(var, ann)` pairs land in distinct buckets of a
        // 1,024-bucket table far more often than not.
        let buckets: IdSet<u64> = (0..512u32)
            .flat_map(|v| (0..2u32).map(move |a| hash(&(v, a)) & 1023))
            .collect();
        assert!(buckets.len() > 600, "{} distinct buckets", buckets.len());
    }
}
