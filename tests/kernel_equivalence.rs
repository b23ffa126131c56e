//! Property suite for the instruction-set determinism invariant, the
//! sibling of `tests/parallel_determinism`: every dispatched kernel in
//! `hep_ds::kernels` must be **bitwise-equal to the scalar path at any
//! input width** — aligned 256-bit blocks and ragged tails alike — and
//! the full HEP pipeline must produce identical assignments under
//! `HEP_KERNEL=scalar` and `HEP_KERNEL=auto`.
//!
//! On a host without AVX2 the dispatched path *is* the scalar path and
//! every property passes trivially; on an AVX2 host these properties pin
//! the intrinsics.

use hep::ds::kernels::{self, Kernel};
use hep::ds::{DenseBitset, SplitMix64};
use proptest::prelude::*;

/// Pseudo-random word fill so tails and blocks carry arbitrary patterns.
fn random_words(len: usize, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed);
    (0..len).map(|_| rng.next_u64()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn count_ones_matches_scalar(len in 0usize..600, seed in 0u64..10_000) {
        let words = random_words(len, seed);
        prop_assert_eq!(
            kernels::count_ones_with(Kernel::Avx2, &words),
            kernels::count_ones_with(Kernel::Scalar, &words)
        );
    }

    #[test]
    fn intersection_count_matches_scalar(len in 0usize..600, seed in 0u64..10_000) {
        let a = random_words(len, seed);
        let b = random_words(len, seed ^ 0xdead_beef);
        prop_assert_eq!(
            kernels::intersection_count_with(Kernel::Avx2, &a, &b),
            kernels::intersection_count_with(Kernel::Scalar, &a, &b)
        );
    }

    #[test]
    fn union_and_difference_match_scalar(len in 0usize..600, seed in 0u64..10_000) {
        let a = random_words(len, seed);
        let b = random_words(len, seed.wrapping_add(1));
        let (mut u_s, mut u_v) = (a.clone(), a.clone());
        kernels::union_with_with(Kernel::Scalar, &mut u_s, &b);
        kernels::union_with_with(Kernel::Avx2, &mut u_v, &b);
        prop_assert_eq!(u_s, u_v);
        let (mut d_s, mut d_v) = (a.clone(), a);
        kernels::difference_with_with(Kernel::Scalar, &mut d_s, &b);
        kernels::difference_with_with(Kernel::Avx2, &mut d_v, &b);
        prop_assert_eq!(d_s, d_v);
    }

    #[test]
    fn union_count_matches_scalar(
        len in 0usize..300,
        family in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let sets: Vec<Vec<u64>> =
            (0..family).map(|i| random_words(len, seed.wrapping_add(i as u64 * 77))).collect();
        let refs: Vec<&[u64]> = sets.iter().map(|s| s.as_slice()).collect();
        prop_assert_eq!(
            kernels::union_count_with(Kernel::Avx2, &refs),
            kernels::union_count_with(Kernel::Scalar, &refs)
        );
    }

    #[test]
    fn count_members_matches_scalar(
        len in 0usize..300,
        ids in proptest::collection::vec(any::<u32>(), 0..200),
        seed in 0u64..10_000,
    ) {
        // Fully arbitrary ids: in-range, out-of-range, duplicated — the
        // gather path must agree with the scalar membership test on all.
        let words = random_words(len, seed);
        prop_assert_eq!(
            kernels::count_members_with(Kernel::Avx2, &words, &ids),
            kernels::count_members_with(Kernel::Scalar, &words, &ids)
        );
    }

    #[test]
    fn bitset_ops_are_kernel_invariant(seed in 0u64..10_000, bits in 1usize..3000) {
        // The DenseBitset surface under a *forced* kernel: same results
        // whether the dispatched choice is scalar or (where available)
        // AVX2, at a capacity chosen to exercise ragged tails.
        let mut rng = SplitMix64::new(seed);
        let mut a = DenseBitset::new(bits);
        let mut b = DenseBitset::new(bits);
        for _ in 0..bits / 2 {
            a.set((rng.next_u64() % bits as u64) as u32);
            b.set((rng.next_u64() % bits as u64) as u32);
        }
        let ids: Vec<u32> = (0..64).map(|_| (rng.next_u64() % (bits as u64 * 2)) as u32).collect();
        let observe = |k: Kernel| {
            kernels::with_kernel(k, || {
                let mut u = a.clone();
                u.union_with(&b);
                let mut d = a.clone();
                d.difference_with(&b);
                (
                    a.count_ones(),
                    a.intersection_count(&b),
                    u.iter_ones().collect::<Vec<_>>(),
                    d.iter_ones().collect::<Vec<_>>(),
                    DenseBitset::union_count(&[a.clone(), b.clone()]),
                    a.count_members(&ids),
                )
            })
        };
        prop_assert_eq!(observe(Kernel::Scalar), observe(Kernel::Avx2));
    }
}

/// The full-pipeline fingerprint: HEP end to end under `HEP_KERNEL=scalar`
/// vs the auto-dispatched kernel, compared assignment-for-assignment. This is what makes the
/// kernel layer safe to enable unconditionally: no partition anyone
/// computes can depend on the host's instruction set.
#[test]
fn full_pipeline_fingerprint_is_kernel_invariant() {
    let auto = if kernels::avx2_available() { Kernel::Avx2 } else { Kernel::Scalar };
    for seed in [7u64, 21] {
        let g = hep::gen::GraphSpec::ChungLu { n: 2_000, m: 16_000, gamma: 2.2 }.generate(seed);
        let run = |k: Kernel| {
            kernels::with_kernel(k, || {
                let hep = hep::core::Hep::with_tau(10.0);
                let mut sink = hep::graph::partitioner::CollectedAssignment::default();
                let report = hep.partition_with_report(&g, 8, &mut sink).unwrap();
                let m = hep::metrics::PartitionMetrics::from_assignment(8, g.num_vertices, &sink);
                (
                    sink.assignments,
                    report.partition_sizes,
                    m.replication_factor().to_bits(),
                    m.replica_counts(),
                )
            })
        };
        let scalar = run(Kernel::Scalar);
        let dispatched = run(auto);
        assert_eq!(scalar, dispatched, "pipelines diverged at seed={seed}");
    }
}

/// The hypergraph streaming path (min-max tie-break via the sparse
/// membership-count kernel) under both kernel flavors.
#[test]
fn hypergraph_minmax_is_kernel_invariant() {
    let h = hep::hyper::gen::power_law_hypergraph(800, 5_000, 8, 9);
    let run = |k: Kernel| {
        kernels::with_kernel(k, || {
            let (assignment, metrics) =
                hep::hyper::StreamingMinMax::default().partition(&h, 8).unwrap();
            (assignment, metrics.sizes)
        })
    };
    let auto = if kernels::avx2_available() { Kernel::Avx2 } else { Kernel::Scalar };
    assert_eq!(run(Kernel::Scalar), run(auto));
}
