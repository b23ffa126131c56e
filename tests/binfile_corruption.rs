//! Corruption battery for the HEPB edge-file format: every way a file can
//! be damaged — truncation at each section boundary, bit flips of every
//! header field and of the payload, forged and re-fitted checksums,
//! trailing garbage, the retired version 1 — must surface as a **typed
//! [`GraphError`]**, never a panic and
//! never a silently wrong partition. Each case is driven through the real
//! consumers (`open` → degree pass → budgeted CSR build → `stream_h2h` via
//! [`Hep::partition_file_with_report`]) under both IO backends.

use hep::core::{Hep, HepConfig};
use hep::graph::partitioner::CollectedAssignment;
use hep::graph::{BinaryEdgeFile, EdgeList, GraphError, IoMode};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn temp_path(name: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "hep_corrupt_{}_{}_{}.hepb",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed),
        name
    ))
}

/// Removes the case's temp file even when an assertion unwinds.
struct TempFileGuard(PathBuf);

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// HEP-10 reading every pass, input and h2h spill alike, through `mode`.
fn hep_10(mode: IoMode) -> Hep {
    Hep { config: HepConfig { io_mode: mode, ..HepConfig::with_tau(10.0) } }
}

/// Writes `bytes` to disk and drives the full file pipeline over them.
/// Returns the typed error; panics (failing the test) if the corrupt bytes
/// are accepted end-to-end.
fn drive(bytes: &[u8], name: &str, mode: IoMode) -> GraphError {
    let path = temp_path(name);
    let _guard = TempFileGuard(path.clone());
    std::fs::write(&path, bytes).unwrap();
    let result = (|| {
        let file = BinaryEdgeFile::open(&path)?;
        let mut sink = CollectedAssignment::default();
        hep_10(mode).partition_file_with_report(&file, 4, &mut sink)?;
        Ok(())
    })();
    match result {
        Err(e) => e,
        Ok(()) => panic!("corruption case {name:?} ({mode:?}) was accepted"),
    }
}

// ---- error-shape predicates ------------------------------------------------

fn bad_header(e: &GraphError) -> bool {
    matches!(e, GraphError::BadHeader(_))
}

fn header_mismatch(e: &GraphError) -> bool {
    matches!(e, GraphError::ChecksumMismatch { section: "header", .. })
}

fn payload_mismatch(e: &GraphError) -> bool {
    matches!(e, GraphError::ChecksumMismatch { section: "payload", .. })
}

/// A payload byte flip either breaks the checksum or (when the flipped word
/// leaves the vertex-id space) trips the range check first — both typed.
fn payload_mismatch_or_oor(e: &GraphError) -> bool {
    payload_mismatch(e) || matches!(e, GraphError::VertexOutOfRange { .. })
}

fn out_of_range(e: &GraphError) -> bool {
    matches!(e, GraphError::VertexOutOfRange { .. })
}

fn unsupported_v1(e: &GraphError) -> bool {
    matches!(e, GraphError::BadHeader(m) if m.contains("unsupported version 1"))
}

// ---- pristine-byte fixtures ------------------------------------------------

fn fixture_graph() -> EdgeList {
    hep::gen::GraphSpec::ChungLu { n: 1000, m: 4000, gamma: 2.2 }.generate(7)
}

/// Pristine bytes (36-byte checksummed header + payload).
fn pristine_v2() -> Vec<u8> {
    let g = fixture_graph();
    let path = temp_path("pristine_v2");
    let _guard = TempFileGuard(path.clone());
    BinaryEdgeFile::write(&path, &g).unwrap();
    std::fs::read(&path).unwrap()
}

const V2_HEADER: usize = 36;

fn flip(bytes: &[u8], offset: usize, mask: u8) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[offset] ^= mask;
    b
}

fn zero_range(bytes: &[u8], range: std::ops::Range<usize>) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[range].fill(0);
    b
}

fn set_u32(bytes: &[u8], offset: usize, value: u32) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    b
}

fn set_u64(bytes: &[u8], offset: usize, value: u64) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b[offset..offset + 8].copy_from_slice(&value.to_le_bytes());
    b
}

/// Re-stamps the header checksum over (possibly forged) bytes 0..20 — the
/// attacker who fixes up the checksum after forging a field.
fn refit_header_checksum(bytes: &[u8]) -> Vec<u8> {
    let digest = hep::ds::hasher::hash64(&bytes[..20], hep::graph::binfile::HEADER_CHECKSUM_SEED);
    set_u64(bytes, 20, digest)
}

/// Re-stamps the payload checksum over the (possibly forged) payload, and
/// then the header checksum over the result: a file that passes every
/// integrity check, so only the semantic guards can reject it.
fn refit_checksums(bytes: &[u8]) -> Vec<u8> {
    let digest =
        hep::ds::hasher::hash64(&bytes[V2_HEADER..], hep::graph::binfile::PAYLOAD_CHECKSUM_SEED);
    refit_header_checksum(&set_u64(bytes, 28, digest))
}

fn append(bytes: &[u8], extra: &[u8]) -> Vec<u8> {
    let mut b = bytes.to_vec();
    b.extend_from_slice(extra);
    b
}

// ---- the battery -----------------------------------------------------------

type Case = (&'static str, Vec<u8>, fn(&GraphError) -> bool);

fn cases() -> Vec<Case> {
    let v2 = pristine_v2();
    let v2_len = v2.len();
    let mid_edge = V2_HEADER + (v2_len - V2_HEADER) / 16 * 8;
    let mut cases: Vec<Case> = vec![
        // Truncation at (and inside) every v2 section boundary.
        ("empty-file", Vec::new(), bad_header),
        ("one-byte", v2[..1].to_vec(), bad_header),
        ("mid-magic", v2[..3].to_vec(), bad_header),
        ("magic-only", v2[..4].to_vec(), bad_header),
        ("mid-version", v2[..7].to_vec(), bad_header),
        ("magic-and-version", v2[..8].to_vec(), bad_header),
        ("mid-num-vertices", v2[..11].to_vec(), bad_header),
        ("through-counts", v2[..20].to_vec(), bad_header),
        ("mid-header-checksum", v2[..27].to_vec(), bad_header),
        ("through-header-checksum", v2[..28].to_vec(), bad_header),
        ("mid-payload-checksum", v2[..35].to_vec(), bad_header),
        ("header-only", v2[..V2_HEADER].to_vec(), bad_header),
        ("mid-first-edge", v2[..V2_HEADER + 5].to_vec(), bad_header),
        ("mid-payload-edge", v2[..mid_edge + 3].to_vec(), bad_header),
        ("one-byte-short", v2[..v2_len - 1].to_vec(), bad_header),
        // Magic and version damage (checked before any checksum).
        ("magic-bit-flip", flip(&v2, 0, 0x01), bad_header),
        ("magic-zeroed", zero_range(&v2, 0..4), bad_header),
        ("version-zero", set_u32(&v2, 4, 0), bad_header),
        ("version-three", set_u32(&v2, 4, 3), bad_header),
        ("version-high-bit", flip(&v2, 7, 0x80), bad_header),
        // Count-field flips: the header checksum rejects them before the
        // forged value reaches length arithmetic or an allocation.
        ("num-vertices-low-bit", flip(&v2, 8, 0x01), header_mismatch),
        ("num-vertices-high-byte", flip(&v2, 11, 0xFF), header_mismatch),
        ("num-edges-low-bit", flip(&v2, 12, 0x01), header_mismatch),
        ("num-edges-high-byte", flip(&v2, 19, 0xFF), header_mismatch),
        ("num-edges-zeroed", zero_range(&v2, 12..20), header_mismatch),
        // Damage to the checksum fields themselves.
        ("header-checksum-bit-flip", flip(&v2, 20, 0x04), header_mismatch),
        ("header-checksum-zeroed", zero_range(&v2, 20..28), header_mismatch),
        ("payload-checksum-bit-flip", flip(&v2, 28, 0x01), payload_mismatch),
        ("payload-checksum-zeroed", zero_range(&v2, 28..36), payload_mismatch),
        // Payload damage: caught by the running payload checksum (or by
        // the vertex range check, when the flipped word escapes the id
        // space — either way typed, never silent).
        ("payload-first-byte", flip(&v2, V2_HEADER, 0x01), payload_mismatch_or_oor),
        ("payload-mid-byte", flip(&v2, mid_edge + 1, 0x10), payload_mismatch_or_oor),
        ("payload-last-byte", flip(&v2, v2_len - 1, 0x40), payload_mismatch_or_oor),
        (
            "payload-first-edge-zeroed",
            {
                // Vertex 0 exists, so (0, 0) stays in range: only the checksum
                // can tell this file has been rewritten.
                zero_range(&v2, V2_HEADER..V2_HEADER + 8)
            },
            payload_mismatch,
        ),
        (
            "payload-edges-swapped",
            {
                let mut b = v2.clone();
                let (first, last) = (V2_HEADER, v2_len - 8);
                for i in 0..8 {
                    b.swap(first + i, last + i);
                }
                assert_ne!(b, v2, "fixture must have distinct first/last edges");
                b
            },
            payload_mismatch,
        ),
        // Forged counts with a re-fitted header checksum: the attacker who
        // recomputes the checksum still cannot make the length lie...
        (
            "forged-num-edges-refit-checksum",
            {
                let ne = u64::from_le_bytes(v2[12..20].try_into().unwrap());
                refit_header_checksum(&set_u64(&v2, 12, ne + 1))
            },
            bad_header,
        ),
        // ...and padding the payload to match the forged length then
        // breaks the payload checksum (it hashes the padded bytes).
        (
            "forged-num-edges-refit-and-padded",
            {
                let ne = u64::from_le_bytes(v2[12..20].try_into().unwrap());
                append(&refit_header_checksum(&set_u64(&v2, 12, ne + 1)), &[0u8; 8])
            },
            payload_mismatch,
        ),
        (
            "forged-huge-num-edges-refit",
            { refit_header_checksum(&set_u64(&v2, 12, 1 << 61)) },
            bad_header,
        ),
        // Length lies without touching the header.
        ("trailing-garbage", append(&v2, &[0xAB; 4]), bad_header),
        ("extra-edge-appended", append(&v2, &[0u8; 8]), bad_header),
        ("doubled-payload", append(&v2, &v2[V2_HEADER..]), bad_header),
        (
            "forged-half-max-num-edges-refit",
            refit_header_checksum(&set_u64(&v2, 12, u64::MAX / 2)),
            bad_header,
        ),
        (
            "forged-num-edges-minus-one-refit",
            {
                let ne = u64::from_le_bytes(v2[12..20].try_into().unwrap());
                refit_header_checksum(&set_u64(&v2, 12, ne - 1))
            },
            bad_header,
        ),
        // The retired checksum-free version 1: its own 20-byte layout, and
        // a current file relabelled as version 1 with a re-fitted header
        // checksum. Neither is read any more.
        (
            "retired-v1-layout",
            {
                let mut b = set_u32(&v2[..20], 4, 1);
                b.extend_from_slice(&v2[V2_HEADER..]);
                b
            },
            unsupported_v1,
        ),
        ("version-one-refit", refit_header_checksum(&set_u32(&v2, 4, 1)), unsupported_v1),
    ];
    // Out-of-range ids: a shrunk vertex count with a re-fitted header
    // checksum, a payload id past |V| (caught by the payload checksum or
    // the range check), and the same id with both checksums re-fitted,
    // which only the range check can catch.
    cases.push((
        "num-vertices-shrunk-refit",
        { refit_header_checksum(&set_u32(&v2, 8, 1)) },
        out_of_range,
    ));
    cases.push((
        "payload-vertex-out-of-range",
        { set_u32(&v2, V2_HEADER + 4, u32::MAX) },
        payload_mismatch_or_oor,
    ));
    cases.push((
        "payload-vertex-out-of-range-refit",
        refit_checksums(&set_u32(&v2, V2_HEADER + 4, u32::MAX)),
        out_of_range,
    ));
    cases
}

#[test]
fn every_corruption_yields_a_typed_error_under_both_backends() {
    let cases = cases();
    assert!(cases.len() >= 40, "battery shrank to {} cases", cases.len());
    let mut names = std::collections::HashSet::new();
    for (name, bytes, check) in &cases {
        assert!(names.insert(*name), "duplicate case name {name:?}");
        for mode in [IoMode::Buffered, IoMode::Mmap] {
            let err = drive(bytes, name, mode);
            assert!(
                check(&err),
                "case {name:?} ({mode:?}): unexpected error shape: {err:?} ({err})"
            );
        }
    }
}

/// Files that shrink *after* `open` validated their length: below the
/// header the pass refuses up front; mid-payload the edge iterator reports
/// the exact truncation. (Buffered backend: an mmap of the old length
/// cannot observe a later shrink without a fault, which is why `pass()`
/// re-checks the on-disk length each time.)
#[test]
fn shrink_after_open_is_typed_not_a_panic() {
    let bytes = pristine_v2();
    for (name, keep, want_bad_header) in
        [("below-header", V2_HEADER - 6, true), ("mid-payload", V2_HEADER + 8 * 3 + 3, false)]
    {
        let path = temp_path(name);
        let _guard = TempFileGuard(path.clone());
        std::fs::write(&path, &bytes).unwrap();
        let file = BinaryEdgeFile::open(&path).unwrap();
        std::fs::OpenOptions::new().write(true).open(&path).unwrap().set_len(keep as u64).unwrap();
        let mut sink = CollectedAssignment::default();
        let err = hep_10(IoMode::Buffered)
            .partition_file_with_report(&file, 4, &mut sink)
            .expect_err("shrunk file must not partition");
        if want_bad_header {
            assert!(bad_header(&err), "{name}: {err:?}");
        } else {
            assert!(matches!(err, GraphError::TruncatedBinary { .. }), "{name}: {err:?}");
        }
    }
}

/// The flip side of the battery: a pristine file sails through the same
/// pipeline under both backends, and partitions exactly like the in-memory
/// graph it was written from.
#[test]
fn pristine_files_still_partition_identically() {
    let path = temp_path("ok");
    let _guard = TempFileGuard(path.clone());
    std::fs::write(&path, pristine_v2()).unwrap();
    let run = |mode: IoMode| {
        let file = BinaryEdgeFile::open(&path).unwrap();
        let mut sink = CollectedAssignment::default();
        hep_10(mode).partition_file_with_report(&file, 4, &mut sink).unwrap();
        sink.assignments
    };
    let mut in_memory = CollectedAssignment::default();
    Hep::with_tau(10.0).partition_with_report(&fixture_graph(), 4, &mut in_memory).unwrap();
    assert_eq!(run(IoMode::Buffered), in_memory.assignments);
    assert_eq!(run(IoMode::Mmap), in_memory.assignments);
}
