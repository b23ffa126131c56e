//! A fast XXH64-shaped streaming checksum for on-disk formats.
//!
//! The HEPB v2 edge-file container (`hep-graph::binfile`) carries
//! per-section checksums — one over the fixed header, one over the edge
//! payload — so corruption is detected *before* a forged field reaches an
//! allocation or an index computation. The build container has no registry
//! access, so the hash lives here rather than pulling `xxhash-rust`: it is
//! the XXH64 round structure (four-lane 64-bit state, rotate-multiply
//! rounds, an avalanche finalizer) implemented from the published
//! algorithm description. It is a checksum for integrity checking, **not**
//! a cryptographic MAC, and its output is a stable part of the HEPB v2
//! format: the constants and round structure below must never change, or
//! every written file's checksums break.
//!
//! Both a one-shot ([`hash64`]) and a streaming ([`Hasher64`]) interface
//! exist; the streaming form hashes a pass over a multi-gigabyte edge file
//! chunk by chunk without buffering it, and is bit-for-bit identical to the
//! one-shot form regardless of how the input is split (pinned by property
//! tests).

const PRIME_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME_5: u64 = 0x27D4_EB2F_1656_67C5;

/// One XXH64 accumulator round: fold a 64-bit lane into the state.
#[inline]
fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(PRIME_2)).rotate_left(31).wrapping_mul(PRIME_1)
}

/// Merge one accumulator into the converged state (used for inputs of 32
/// bytes or more).
#[inline]
fn merge_round(acc: u64, val: u64) -> u64 {
    (acc ^ round(0, val)).wrapping_mul(PRIME_1).wrapping_add(PRIME_4)
}

/// The final avalanche: every input bit affects every output bit.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 33;
    h = h.wrapping_mul(PRIME_2);
    h ^= h >> 29;
    h = h.wrapping_mul(PRIME_3);
    h ^= h >> 32;
    h
}

#[inline]
fn read_u64(b: &[u8]) -> u64 {
    crate::bytes::u64_le_at(b, 0)
}

#[inline]
fn read_u32(b: &[u8]) -> u64 {
    crate::bytes::u32_le_at(b, 0) as u64
}

/// One-shot hash of `input` under `seed`. Equivalent to feeding `input` to
/// a fresh [`Hasher64`] in any chunking and calling
/// [`Hasher64::finish`].
pub fn hash64(input: &[u8], seed: u64) -> u64 {
    let mut h = Hasher64::with_seed(seed);
    h.write(input);
    h.finish()
}

/// Streaming XXH64-shaped hasher. Feed bytes with [`Hasher64::write`] in
/// any chunk sizes; [`Hasher64::finish`] does not consume the state, so
/// intermediate digests of a growing stream are possible.
#[derive(Clone, Debug)]
pub struct Hasher64 {
    /// The four lanes (meaningful once ≥ 32 bytes have been seen).
    lanes: [u64; 4],
    /// Tail bytes not yet forming a full 32-byte stripe.
    buf: [u8; 32],
    /// Valid bytes in `buf` (< 32).
    buf_len: usize,
    /// Total bytes written.
    total: u64,
    seed: u64,
}

impl Hasher64 {
    /// A hasher with the given seed (section tags use distinct seeds so a
    /// header checksum can never validate a payload).
    pub fn with_seed(seed: u64) -> Self {
        Hasher64 {
            lanes: [
                seed.wrapping_add(PRIME_1).wrapping_add(PRIME_2),
                seed.wrapping_add(PRIME_2),
                seed,
                seed.wrapping_sub(PRIME_1),
            ],
            buf: [0; 32],
            buf_len: 0,
            total: 0,
            seed,
        }
    }

    /// Absorbs `input`. Chunk boundaries never affect the digest.
    pub fn write(&mut self, mut input: &[u8]) {
        self.total += input.len() as u64;
        // Top up a partial stripe first.
        if self.buf_len > 0 {
            let need = 32 - self.buf_len;
            let take = need.min(input.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&input[..take]);
            self.buf_len += take;
            input = &input[take..];
            if self.buf_len < 32 {
                return;
            }
            let stripe = self.buf;
            self.consume_stripe(&stripe);
            self.buf_len = 0;
        }
        // Whole stripes straight from the input, no copy.
        let mut chunks = input.chunks_exact(32);
        for stripe in &mut chunks {
            self.consume_stripe(stripe);
        }
        let rem = chunks.remainder();
        self.buf[..rem.len()].copy_from_slice(rem);
        self.buf_len = rem.len();
    }

    #[inline]
    fn consume_stripe(&mut self, stripe: &[u8]) {
        debug_assert_eq!(stripe.len(), 32);
        self.lanes[0] = round(self.lanes[0], read_u64(&stripe[0..]));
        self.lanes[1] = round(self.lanes[1], read_u64(&stripe[8..]));
        self.lanes[2] = round(self.lanes[2], read_u64(&stripe[16..]));
        self.lanes[3] = round(self.lanes[3], read_u64(&stripe[24..]));
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        let mut h = if self.total >= 32 {
            let [l0, l1, l2, l3] = self.lanes;
            let mut acc = l0
                .rotate_left(1)
                .wrapping_add(l1.rotate_left(7))
                .wrapping_add(l2.rotate_left(12))
                .wrapping_add(l3.rotate_left(18));
            acc = merge_round(acc, l0);
            acc = merge_round(acc, l1);
            acc = merge_round(acc, l2);
            merge_round(acc, l3)
        } else {
            self.seed.wrapping_add(PRIME_5)
        };
        h = h.wrapping_add(self.total);
        // Tail: 8-byte, 4-byte, then single-byte folds.
        let mut tail = &self.buf[..self.buf_len];
        while tail.len() >= 8 {
            h = (h ^ round(0, read_u64(tail))).rotate_left(27).wrapping_mul(PRIME_1);
            h = h.wrapping_add(PRIME_4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            h = (h ^ read_u32(tail).wrapping_mul(PRIME_1)).rotate_left(23).wrapping_mul(PRIME_2);
            h = h.wrapping_add(PRIME_3);
            tail = &tail[4..];
        }
        for &b in tail {
            h = (h ^ (b as u64).wrapping_mul(PRIME_5)).rotate_left(11).wrapping_mul(PRIME_1);
        }
        avalanche(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_and_seed_sensitive() {
        let data = b"hybrid edge partitioner";
        assert_eq!(hash64(data, 7), hash64(data, 7));
        assert_ne!(hash64(data, 7), hash64(data, 8));
        assert_ne!(hash64(data, 7), hash64(b"hybrid edge partitioneR", 7));
    }

    #[test]
    fn empty_input_is_stable_per_seed() {
        assert_eq!(hash64(&[], 0), hash64(&[], 0));
        assert_ne!(hash64(&[], 0), hash64(&[], 1));
    }

    #[test]
    fn format_stability_pin() {
        // These digests are part of the HEPB v2 on-disk format: if this
        // test ever fails, the hasher changed and every written v2 file's
        // checksums are invalid. Fix the hasher, not the constants.
        // (Values are this implementation's own digests, pinned at the
        // moment the v2 format was introduced.)
        for (input, seed, expect) in PINNED {
            assert_eq!(hash64(input, *seed), *expect, "input {input:?} seed {seed}");
        }
    }

    /// `(input, seed, digest)` pins; see [`format_stability_pin`]. The
    /// empty-input digest equals the reference XXH64 test vector
    /// (`0xEF46DB3751D8E999`), confirming the round structure.
    const PINNED: &[(&[u8], u64, u64)] = &[
        (b"", 0, 0xef46_db37_51d8_e999),
        (b"HEPB", 0x4845_5042, 0xf409_937b_0908_f27f),
        (b"0123456789abcdef0123456789abcdef0123456789", 1, 0x2b8d_7720_869b_31a6),
    ];

    proptest! {
        /// Streaming in arbitrary chunkings matches the one-shot digest —
        /// the property the per-pass payload hashing of `binfile` rests on.
        #[test]
        fn chunking_invariance(
            data in proptest::collection::vec(any::<u8>(), 0..600),
            cuts in proptest::collection::vec(0usize..600, 0..8),
            seed in any::<u64>(),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c.min(data.len())).collect();
            cuts.sort_unstable();
            let mut h = Hasher64::with_seed(seed);
            let mut prev = 0;
            for &c in &cuts {
                h.write(&data[prev..c]);
                prev = c;
            }
            h.write(&data[prev..]);
            prop_assert_eq!(h.finish(), hash64(&data, seed));
        }

        /// Flipping any single bit changes the digest (no trivial blind
        /// spots in the tail handling).
        #[test]
        fn single_bit_flips_change_digest(
            data in proptest::collection::vec(any::<u8>(), 1..200),
            byte in 0usize..200,
            bit in 0u8..8,
        ) {
            let byte = byte % data.len();
            let mut flipped = data.clone();
            flipped[byte] ^= 1 << bit;
            prop_assert_ne!(hash64(&flipped, 42), hash64(&data, 42));
        }

        /// Length extension of zero bytes changes the digest (total length
        /// is folded in).
        #[test]
        fn appending_zeros_changes_digest(data in proptest::collection::vec(any::<u8>(), 0..100)) {
            let mut ext = data.clone();
            ext.push(0);
            prop_assert_ne!(hash64(&ext, 3), hash64(&data, 3));
        }
    }
}
