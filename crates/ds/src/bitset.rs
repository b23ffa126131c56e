//! A dense, fixed-capacity bitset over `u32` indices.
//!
//! Used for NE++'s core set `C`, its open secondary set `S_i` and the
//! union of the closed ones, and the high-degree set V_h (paper §4.2,
//! item 4): one bit per vertex id, so membership tests during the
//! expansion inner loop are a single shift/mask on a cache-resident word.
//!
//! The bulk operations (`count_ones`, `union_with`, `difference_with`,
//! `union_count`) are plain loops over the 64-bit words.

/// A dense bitset with a fixed capacity chosen at construction time.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DenseBitset {
    words: Vec<u64>,
    capacity: usize,
}

impl DenseBitset {
    /// Creates a bitset able to hold indices `0..capacity`, all clear.
    pub fn new(capacity: usize) -> Self {
        DenseBitset { words: vec![0u64; capacity.div_ceil(64)], capacity }
    }

    /// Number of indices this bitset can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Heap bytes occupied by the backing storage (for memory accounting).
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Sets bit `idx`. Panics if `idx >= capacity`.
    #[inline]
    pub fn set(&mut self, idx: u32) {
        let w = idx as usize >> 6;
        debug_assert!(
            (idx as usize) < self.capacity && w < self.words.len(),
            "bit index out of range"
        );
        self.words[w] |= 1u64 << (idx & 63);
    }

    /// Clears bit `idx`. Panics if `idx >= capacity`.
    #[inline]
    pub fn clear(&mut self, idx: u32) {
        let w = idx as usize >> 6;
        debug_assert!(
            (idx as usize) < self.capacity && w < self.words.len(),
            "bit index out of range"
        );
        self.words[w] &= !(1u64 << (idx & 63));
    }

    /// Returns whether bit `idx` is set.
    #[inline]
    pub fn get(&self, idx: u32) -> bool {
        let w = idx as usize >> 6;
        w < self.words.len() && (self.words[w] >> (idx & 63)) & 1 == 1
    }

    /// Sets bit `idx`, returning whether it was previously clear.
    #[inline]
    pub fn insert(&mut self, idx: u32) -> bool {
        let w = idx as usize >> 6;
        debug_assert!(
            (idx as usize) < self.capacity && w < self.words.len(),
            "bit index out of range"
        );
        let mask = 1u64 << (idx & 63);
        let fresh = self.words[w] & mask == 0;
        self.words[w] |= mask;
        fresh
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears all bits, keeping the capacity.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Returns true if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Iterates over the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// In-place union with `other`. Capacities must match.
    pub fn union_with(&mut self, other: &DenseBitset) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place difference: clears every bit of `self` that is set in
    /// `other` (`self &= !other`), one AND-NOT per 64-bit word. Capacities
    /// must match.
    pub fn difference_with(&mut self, other: &DenseBitset) {
        assert_eq!(self.capacity, other.capacity, "bitset capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of bits set in the union of `sets`, without materializing the
    /// union: for each word position, OR across the family, then popcount.
    /// The replication-factor denominator (vertices covered by at least one
    /// partition) is exactly this count over the per-partition cover sets.
    /// Capacities must match; an empty family counts zero.
    pub fn union_count(sets: &[DenseBitset]) -> usize {
        let Some(first) = sets.first() else {
            return 0;
        };
        assert!(sets.iter().all(|s| s.capacity == first.capacity), "bitset capacity mismatch");
        (0..first.words.len())
            .map(|w| sets.iter().fold(0u64, |or, s| or | s.words[w]).count_ones() as usize)
            .sum()
    }

    /// The backing 64-bit words, least-significant bit = lowest index.
    /// Exposed so parallel consumers can scan fixed word ranges.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Iterator over set bit indices of a [`DenseBitset`].
pub struct IterOnes<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl<'a> Iterator for IterOnes<'a> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let tz = self.current.trailing_zeros();
        self.current &= self.current - 1;
        Some((self.word_idx as u32) << 6 | tz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn set_get_clear_roundtrip() {
        let mut bs = DenseBitset::new(130);
        assert!(!bs.get(0));
        bs.set(0);
        bs.set(63);
        bs.set(64);
        bs.set(129);
        assert!(bs.get(0) && bs.get(63) && bs.get(64) && bs.get(129));
        assert!(!bs.get(1) && !bs.get(65) && !bs.get(128));
        bs.clear(64);
        assert!(!bs.get(64));
        assert_eq!(bs.count_ones(), 3);
    }

    #[test]
    fn insert_reports_freshness() {
        let mut bs = DenseBitset::new(10);
        assert!(bs.insert(3));
        assert!(!bs.insert(3));
        assert!(bs.insert(9));
    }

    #[test]
    fn get_out_of_range_is_false() {
        let bs = DenseBitset::new(10);
        assert!(!bs.get(1_000_000));
    }

    #[test]
    fn iter_ones_in_order() {
        let mut bs = DenseBitset::new(300);
        for &i in &[5u32, 0, 299, 64, 128, 63] {
            bs.set(i);
        }
        let ones: Vec<u32> = bs.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 63, 64, 128, 299]);
    }

    #[test]
    fn clear_all_and_is_empty() {
        let mut bs = DenseBitset::new(100);
        assert!(bs.is_empty());
        bs.set(42);
        assert!(!bs.is_empty());
        bs.clear_all();
        assert!(bs.is_empty());
        assert_eq!(bs.capacity(), 100);
    }

    #[test]
    fn union_with_merges() {
        let mut a = DenseBitset::new(70);
        let mut b = DenseBitset::new(70);
        a.set(1);
        b.set(69);
        a.union_with(&b);
        assert!(a.get(1) && a.get(69));
        assert_eq!(a.count_ones(), 2);
    }

    #[test]
    fn difference_with_clears_common_bits() {
        let mut a = DenseBitset::new(130);
        let mut b = DenseBitset::new(130);
        for i in [0u32, 5, 63, 64, 129] {
            a.set(i);
        }
        b.set(5);
        b.set(64);
        b.set(100); // not in a: no effect
        a.difference_with(&b);
        let ones: Vec<u32> = a.iter_ones().collect();
        assert_eq!(ones, vec![0, 63, 129]);
    }

    #[test]
    fn union_count_matches_materialized_union() {
        let mut a = DenseBitset::new(200);
        let mut b = DenseBitset::new(200);
        let mut c = DenseBitset::new(200);
        for i in 0..100 {
            a.set(i * 2);
            b.set(i);
            c.set(199 - i);
        }
        let sets = [a, b, c];
        // Reference: probe every index of every set bit by bit.
        let union = (0..200u32).filter(|&i| sets.iter().any(|s| s.get(i))).count();
        assert_eq!(DenseBitset::union_count(&sets), union);
        assert_eq!(DenseBitset::union_count(&[]), 0);
    }

    #[test]
    #[should_panic(expected = "bitset capacity mismatch")]
    fn union_count_rejects_a_shorter_later_set() {
        let _ = DenseBitset::union_count(&[DenseBitset::new(262_144), DenseBitset::new(64)]);
    }

    #[test]
    #[should_panic(expected = "bitset capacity mismatch")]
    fn union_count_rejects_a_longer_later_set() {
        let _ = DenseBitset::union_count(&[DenseBitset::new(64), DenseBitset::new(262_144)]);
    }

    #[test]
    fn heap_bytes_matches_word_count() {
        let bs = DenseBitset::new(129);
        assert_eq!(bs.heap_bytes(), 3 * 8);
    }

    #[test]
    fn zero_capacity_is_usable() {
        let bs = DenseBitset::new(0);
        assert!(bs.is_empty());
        assert_eq!(bs.iter_ones().count(), 0);
    }

    proptest! {
        /// The bitset must behave exactly like a HashSet<u32> model.
        #[test]
        fn behaves_like_hashset(ops in proptest::collection::vec((0u32..512, any::<bool>()), 0..200)) {
            let mut bs = DenseBitset::new(512);
            let mut model: HashSet<u32> = HashSet::new();
            for (idx, insert) in ops {
                if insert {
                    prop_assert_eq!(bs.insert(idx), model.insert(idx));
                } else {
                    bs.clear(idx);
                    model.remove(&idx);
                }
            }
            prop_assert_eq!(bs.count_ones(), model.len());
            let mut expected: Vec<u32> = model.into_iter().collect();
            expected.sort_unstable();
            let got: Vec<u32> = bs.iter_ones().collect();
            prop_assert_eq!(got, expected);
        }

        /// Every bulk operation against a per-bit loop over `get`, at
        /// capacities that are mostly not a multiple of 64, so the last
        /// word's unused high bits are exercised too.
        #[test]
        fn bulk_ops_match_per_bit_reference(
            seed in 0u64..10_000,
            capacity in 0usize..3000,
            family in 1usize..9,
        ) {
            let mut rng = SplitMix64::new(seed);
            let mut random_set = || {
                let mut s = DenseBitset::new(capacity);
                for _ in 0..rng.next_below(capacity as u64 + 1) {
                    s.set(rng.next_below(capacity as u64) as u32);
                }
                s
            };
            let sets: Vec<DenseBitset> = (0..family).map(|_| random_set()).collect();
            let (a, b) = (&sets[0], &sets[family - 1]);
            let bits = |s: &DenseBitset| (0..capacity as u32).filter(|&i| s.get(i)).count();

            prop_assert_eq!(a.count_ones(), bits(a));

            let mut union = a.clone();
            union.union_with(b);
            let mut difference = a.clone();
            difference.difference_with(b);
            for i in 0..capacity as u32 {
                prop_assert_eq!(union.get(i), a.get(i) || b.get(i));
                prop_assert_eq!(difference.get(i), a.get(i) && !b.get(i));
            }
            prop_assert_eq!(union.count_ones(), bits(&union));
            prop_assert_eq!(difference.count_ones(), bits(&difference));

            let covered =
                (0..capacity as u32).filter(|&i| sets.iter().any(|s| s.get(i))).count();
            prop_assert_eq!(DenseBitset::union_count(&sets), covered);
        }
    }
}
