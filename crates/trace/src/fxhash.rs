//! A small multiplicative hasher for the CH kernels' integer and short
//! string keys.
//!
//! The standard library's SipHash resists hash flooding, which none of the
//! kernels need: their keys are state pairs, packed subset members and wire
//! names of one program. This is the rotate-xor-multiply word hash of the
//! Firefox/rustc "FxHash" family, processing eight bytes per step.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The word-at-a-time hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("eight-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
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

    /// The multiply carries every input bit only upwards, so the low bits
    /// of `hash` depend on the low bits of the words alone; `HashMap`
    /// picks buckets from the low bits, so the high half is rotated down
    /// into them (keys that differ only in their high half, such as packed
    /// state pairs with one side fixed, would otherwise share a bucket).
    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// The [`FxHasher`] hash of a value.
pub fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = FxHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// A content index for values the caller stores itself, densely numbered
/// `0, 1, 2, …` in insertion order: the values' hashes map to their ids,
/// colliding ids chained, so a lookup compares only values with an equal
/// hash and the index holds no copy of any value.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    /// Hash to the newest id with that hash.
    heads: FxHashMap<u64, u32>,
    /// For each id, the previous id with the same hash.
    older: Vec<u32>,
}

impl HashIndex {
    /// Marks the end of a chain.
    const END: u32 = u32::MAX;

    /// An empty index with room for `n` ids.
    pub fn with_capacity(n: usize) -> Self {
        HashIndex {
            heads: FxHashMap::with_capacity_and_hasher(n, Default::default()),
            older: Vec::with_capacity(n),
        }
    }

    /// The id of a stored value with this hash for which `is_equal(id)`
    /// holds.
    pub fn find(&self, hash: u64, mut is_equal: impl FnMut(usize) -> bool) -> Option<usize> {
        let mut at = self.heads.get(&hash).copied().unwrap_or(Self::END);
        while at != Self::END {
            if is_equal(at as usize) {
                return Some(at as usize);
            }
            at = self.older[at as usize];
        }
        None
    }

    /// Registers the next id (the number of ids so far) under `hash`.
    pub fn insert(&mut self, hash: u64) -> usize {
        let id = self.older.len();
        let key = u32::try_from(id).expect("index ids fit in u32");
        self.older
            .push(self.heads.insert(hash, key).unwrap_or(Self::END));
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        assert_eq!(hash_of(&"a_r"), hash_of(&String::from("a_r")));
        assert_ne!(hash_of(&"a_r"), hash_of(&"a_a"));
        assert_ne!(hash_of(&(1u32, 2u32)), hash_of(&(2u32, 1u32)));
        // Strings of eight bytes and more mix every word.
        assert_ne!(hash_of(&"channel_0_r"), hash_of(&"channel_1_r"));
    }

    #[test]
    fn hash_index_numbers_distinct_values_and_survives_collisions() {
        let mut values: Vec<&str> = Vec::new();
        let mut index = HashIndex::default();
        let mut intern = |v: &'static str, hash: u64| {
            if let Some(id) = index.find(hash, |i| values[i] == v) {
                return id;
            }
            values.push(v);
            index.insert(hash)
        };
        // Every value hashed to one bucket: ids still tell them apart.
        assert_eq!(intern("a", 7), 0);
        assert_eq!(intern("b", 7), 1);
        assert_eq!(intern("a", 7), 0);
        assert_eq!(intern("c", 7), 2);
        assert_eq!(intern("b", 7), 1);
        assert_eq!(intern("d", hash_of("d")), 3);
        assert_eq!(intern("d", hash_of("d")), 3);
    }

    #[test]
    fn keys_differing_only_in_the_high_half_spread_over_low_bits() {
        // Packed pairs `(a, b)` with `b` fixed: the low hash bits must
        // still tell the `a` values apart.
        let low: std::collections::HashSet<u64> = (0..256u64)
            .map(|a| hash_of(&(a << 32 | 5)) & 0xff)
            .collect();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }

    #[test]
    fn maps_round_trip() {
        let mut m: FxHashMap<u64, usize> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i << 32 | (i * 7), i as usize);
        }
        assert!((0..1000u64).all(|i| m[&(i << 32 | (i * 7))] == i as usize));
    }
}
