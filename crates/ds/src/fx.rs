//! FxHash: the fast, non-cryptographic hash used by rustc, reimplemented here
//! so the workspace has no external hashing dependency.
//!
//! Streaming partitioners hash vertex ids (`u32`) on every edge; SipHash's
//! keyed rounds are wasted work there. FxHash is a multiply-rotate mix with
//! excellent throughput for short integer keys. Hash *quality* only affects
//! partitioner speed, not partitioning results, except for DBH and random
//! streaming, where the hash IS the placement function — those use [`mix64`] directly so placement
//! is well-spread and deterministic.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// rustc's FxHasher: word-at-a-time multiply-xor-rotate.
#[derive(Default, Clone)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(crate::bytes::u64_le_at(c, 0));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `HashMap` with the Fx hasher.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// `HashSet` with the Fx hasher.
pub type FxHashSet<K> = std::collections::HashSet<K, BuildHasherDefault<FxHasher>>;

/// SplitMix64 finalizer: a strong 64-bit bijective mixer. Used where a hash
/// value *is* a placement decision (DBH, random streaming) and therefore
/// must be well-distributed even on sequential ids.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_one<T: Hash>(v: T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_one(42u32), hash_one(42u32));
        assert_eq!(hash_one((1u32, 2u32)), hash_one((1u32, 2u32)));
    }

    #[test]
    fn distinct_small_keys_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..10_000 {
            assert!(seen.insert(hash_one(i)), "collision at {i}");
        }
    }

    #[test]
    fn byte_slices_hash_by_content() {
        assert_eq!(hash_one([1u8, 2, 3].as_slice()), hash_one([1u8, 2, 3].as_slice()));
        assert_ne!(hash_one([1u8, 2, 3].as_slice()), hash_one([1u8, 2, 4].as_slice()));
        // Tail handling: lengths straddling the 8-byte boundary.
        assert_ne!(hash_one([0u8; 7].as_slice()), hash_one([0u8; 8].as_slice()));
        assert_ne!(hash_one([0u8; 8].as_slice()), hash_one([0u8; 9].as_slice()));
    }

    #[test]
    fn fxhashmap_basic_use() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        for i in 0..100 {
            m.insert(i, i * 2);
        }
        assert_eq!(m.get(&50), Some(&100));
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn mix64_is_injective_on_sample_and_spreads_low_bits() {
        let mut seen = std::collections::HashSet::new();
        let mut low_bit_ones = 0u32;
        for i in 0u64..4096 {
            let m = mix64(i);
            assert!(seen.insert(m));
            low_bit_ones += (m & 1) as u32;
        }
        // Sequential inputs must produce roughly balanced low bits,
        // otherwise `mix64(v) % k` placement would be skewed.
        assert!((1600..2500).contains(&low_bit_ones), "low bits skewed: {low_bit_ones}");
    }
}
