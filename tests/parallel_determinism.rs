//! Property suite for the workspace determinism invariant: every component
//! converted to the `hep-par` pool must produce **bit-identical output at
//! `HEP_THREADS=1` and `HEP_THREADS=8`** (and, by the same construction,
//! any other count). Each property runs the same seeded workload once per
//! thread setting and compares the results exactly — including `f64` bit
//! patterns where floating point is involved.

use proptest::prelude::*;

/// The pair of runs every property compares. `hep_par::with_threads` pins
/// the pool width for each run and serializes against every other caller
/// in the process, so concurrent properties cannot override each other.
fn serial_vs_parallel<T>(f: impl Fn() -> T) -> (T, T) {
    (hep::par::with_threads(1, &f), hep::par::with_threads(8, &f))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn chung_lu_is_thread_invariant(seed in 0u64..1000, m in 2_000u64..60_000) {
        let n = (m / 8).max(16) as u32;
        let (a, b) = serial_vs_parallel(|| hep::gen::chunglu::chung_lu(n, m, 2.2, seed).edges);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn erdos_renyi_is_thread_invariant(seed in 0u64..1000, m in 2_000u64..60_000) {
        let n = (m / 6).max(32) as u32;
        let (a, b) = serial_vs_parallel(|| hep::gen::er::erdos_renyi(n, m, seed).edges);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn rmat_is_thread_invariant(seed in 0u64..1000, m in 2_000u64..60_000) {
        let params = hep::gen::rmat::RmatParams::graph500();
        let (a, b) = serial_vs_parallel(|| hep::gen::rmat::rmat(14, m, params, seed).edges);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn barabasi_albert_is_thread_invariant(seed in 0u64..1000, n in 100u32..30_000) {
        let (a, b) = serial_vs_parallel(|| hep::gen::ba::barabasi_albert(n, 3, seed).edges);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn metrics_replay_is_thread_invariant(seed in 0u64..1000) {
        use hep::graph::EdgePartitioner;
        let g = hep::gen::GraphSpec::ChungLu { n: 1500, m: 12_000, gamma: 2.2 }.generate(seed);
        let k = 16;
        let mut collected = hep::graph::partitioner::CollectedAssignment::default();
        hep::baselines::Hdrf::default().partition(&g, k, &mut collected).unwrap();
        let (a, b) = serial_vs_parallel(|| {
            let m = hep::metrics::PartitionMetrics::from_assignment(k, g.num_vertices, &collected);
            (m.replica_counts(), m.edge_counts.clone(), m.replication_factor().to_bits())
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn validation_verdict_is_thread_invariant(seed in 0u64..1000, corrupt in 0u32..3) {
        use hep::graph::EdgePartitioner;
        let g = hep::gen::GraphSpec::ChungLu { n: 800, m: 6_000, gamma: 2.2 }.generate(seed);
        let k = 8;
        let mut collected = hep::graph::partitioner::CollectedAssignment::default();
        hep::baselines::Dbh::default().partition(&g, k, &mut collected).unwrap();
        // Corrupt the assignment in one of three ways (0 leaves it valid),
        // so the error *text* is compared across thread counts too.
        match corrupt {
            1 => collected.assignments[17].1 = k + 5,
            2 => collected.assignments[17].0 = collected.assignments[18].0,
            _ => {}
        }
        let (a, b) = serial_vs_parallel(|| hep::metrics::validate_assignment(&g, &collected, k));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.is_ok(), corrupt == 0);
    }

    #[test]
    fn procsim_workloads_are_thread_invariant(seed in 0u64..1000) {
        use hep::graph::EdgePartitioner;
        let g = hep::gen::GraphSpec::ChungLu { n: 600, m: 4_000, gamma: 2.2 }.generate(seed);
        let k = 8;
        let mut collected = hep::graph::partitioner::CollectedAssignment::default();
        hep::baselines::Hdrf::default().partition(&g, k, &mut collected).unwrap();
        let dg = hep::procsim::DistributedGraph::load(&g, &collected, k);
        let cost = hep::procsim::ClusterCost::default();
        let (a, b) = serial_vs_parallel(|| {
            let (ranks, pr_cost) = hep::procsim::pagerank(&dg, 5, &cost);
            let (dist, _) = hep::procsim::bfs_single(&dg, 0, &cost);
            let (labels, cc_cost) = hep::procsim::connected_components(&dg, &cost);
            let active: Vec<u32> = (0..g.num_vertices).collect();
            (
                ranks.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                pr_cost.total_msgs,
                dist,
                labels,
                cc_cost.supersteps,
                dg.superstep_cost(&active),
            )
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn dne_is_thread_invariant(seed in 0u64..1000) {
        use hep::graph::EdgePartitioner;
        let g = hep::gen::GraphSpec::ChungLu { n: 700, m: 5_000, gamma: 2.2 }.generate(seed);
        let (a, b) = serial_vs_parallel(|| {
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            hep::baselines::Dne::default().partition(&g, 8, &mut sink).unwrap();
            sink.assignments
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn graph_build_is_thread_invariant(seed in 0u64..1000) {
        // The chunked degree pass, and the pruned CSR built over it, must
        // be byte-identical at any worker count (entry order within every
        // adjacency list included — NE++'s scans depend on it).
        let g = hep::gen::GraphSpec::ChungLu { n: 20_000, m: 150_000, gamma: 2.2 }.generate(seed);
        let (a, b) = serial_vs_parallel(|| {
            let stats = hep::graph::DegreeStats::new(&g, 4.0);
            let mut h2h = Vec::new();
            let csr = hep::graph::PrunedCsr::build_streaming_h2h(&g, stats, |e| h2h.push(e));
            (csr, h2h)
        });
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(a.1, b.1);
    }

    #[test]
    fn parallel_nepp_is_thread_invariant(seed in 0u64..1000, split in 2u32..6) {
        // The whole HEP pipeline with sub-partitioned NE++: bitwise-equal
        // assignment sequences at 1 and 8 workers for a fixed split factor.
        let g = hep::gen::GraphSpec::ChungLu { n: 1_500, m: 12_000, gamma: 2.2 }.generate(seed);
        let (a, b) = serial_vs_parallel(|| {
            let mut config = hep::core::HepConfig::with_tau(10.0);
            config.split_factor = split;
            let hep = hep::core::Hep { config };
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            hep.partition_with_report(&g, 8, &mut sink).unwrap();
            sink.assignments
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn refined_nepp_is_thread_invariant(
        seed in 0u64..1000,
        passes in prop_oneof![Just(0u32), Just(1), Just(3)],
    ) {
        // The boundary-aware FM refinement (and the hub-aware merge it
        // enables) must keep the whole pipeline bitwise-equal at 1 and 8
        // workers; `refine_passes = 0` pins the unrefined pack output on
        // the same invariant.
        let g = hep::gen::GraphSpec::ChungLu { n: 1_500, m: 12_000, gamma: 2.2 }.generate(seed);
        let (a, b) = serial_vs_parallel(|| {
            let mut config = hep::core::HepConfig::with_tau(10.0);
            config.split_factor = 4;
            config.refine_passes = passes;
            let hep = hep::core::Hep { config };
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            hep.partition_with_report(&g, 8, &mut sink).unwrap();
            sink.assignments
        });
        prop_assert_eq!(a, b);
    }

    #[test]
    fn refine_parallel_commit_is_thread_invariant(
        seed in 0u64..1000,
        k in prop_oneof![Just(8u32), Just(32), Just(64)],
        passes in 1u32..4,
    ) {
        // The PR 5 commit engine in isolation: the gain-bucket queue's
        // part-disjoint conflict-group waves (per-part FIFO scheduling on
        // `par_rounds` persistent workers) must reproduce the serial
        // queue drain bit-for-bit — moves, per-pass cover sums, and the
        // full refined owner table (fingerprinted) — at 1 vs 8 workers.
        // k = 64 makes the waves wide enough that the 8-worker run really
        // dispatches them instead of inlining everything.
        let g = hep::gen::GraphSpec::ChungLu { n: 2_000, m: 16_000, gamma: 2.2 }.generate(seed);
        let probe = hep::core::RefineProbe::build(&g, 10.0, k, 4);
        let (a, b) = serial_vs_parallel(|| probe.run(passes));
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.stale_skips, 0, "no stale queue entry may survive revalidation");
        prop_assert!(a.moves > 0, "probe workload must exercise the commit");
    }

    #[test]
    fn csr_layouts_produce_identical_partitions(
        seed in 0u64..1000,
        split in prop_oneof![Just(1u32), Just(4)],
        tau in prop_oneof![Just(1.0f64), Just(10.0)],
    ) {
        // The cache-conscious degree-sorted CSR layout is a pure segment
        // permutation: every adjacency list reads back identically, so
        // the full pipeline's assignment sequence must be bit-identical
        // to the input-order layout on both the serial and split paths.
        let g = hep::gen::GraphSpec::ChungLu { n: 1_500, m: 12_000, gamma: 2.2 }.generate(seed);
        let run = |layout: hep::core::CsrLayout| {
            let mut config = hep::core::HepConfig::with_tau(tau);
            config.split_factor = split;
            config.csr_layout = layout;
            let hep = hep::core::Hep { config };
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            let report = hep.partition_with_report(&g, 8, &mut sink).unwrap();
            (sink.assignments, report.partition_sizes)
        };
        let input_order = run(hep::core::CsrLayout::InputOrder);
        let degree_sorted = run(hep::core::CsrLayout::DegreeSorted);
        prop_assert_eq!(input_order, degree_sorted, "layouts diverged at split={}", split);
    }

    #[test]
    fn mmap_and_buffered_file_pipelines_are_bit_identical(seed in 0u64..1000) {
        // The PassSource contract: the mmap and buffered backends feed the
        // degree pass, the budgeted CSR sweeps, and phase-2 streaming the
        // exact same byte stream, so the full file pipeline is bit-identical
        // across backends at every (threads × split) configuration.
        use hep::graph::{BinaryEdgeFile, IoMode};
        let g = hep::gen::GraphSpec::ChungLu { n: 1_200, m: 10_000, gamma: 2.2 }.generate(seed);
        let mut path = std::env::temp_dir();
        path.push(format!("hep_io_determinism_{}_{}.hepb", std::process::id(), seed));
        let file = BinaryEdgeFile::write(&path, &g).unwrap();
        for threads in [1usize, 8] {
            for split in [1u32, 4] {
                let run = |mode: IoMode| {
                    hep::par::with_threads(threads, || {
                        let mut config = hep::core::HepConfig::with_tau(10.0);
                        config.split_factor = split;
                        config.io_mode = mode;
                        let hep = hep::core::Hep { config };
                        let mut sink = hep::graph::partitioner::CollectedAssignment::default();
                        let report = hep.partition_file_with_report(&file, 8, &mut sink).unwrap();
                        (sink.assignments, report.partition_sizes)
                    })
                };
                let (buffered, mmap) = (run(IoMode::Buffered), run(IoMode::Mmap));
                prop_assert_eq!(
                    buffered, mmap,
                    "io backends diverged at threads={}, split={}", threads, split
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_and_v2_files_round_trip_to_identical_partitions(seed in 0u64..1000) {
        // Format compatibility: a graph written as checksum-free HEPB v1
        // and as checksummed v2 must load to the same edge sequence and
        // drive the pipeline to the same assignment.
        use hep::graph::BinaryEdgeFile;
        let g = hep::gen::GraphSpec::ChungLu { n: 800, m: 6_000, gamma: 2.2 }.generate(seed);
        let dir = std::env::temp_dir();
        let p1 = dir.join(format!("hep_v1_roundtrip_{}_{}.hepb", std::process::id(), seed));
        let p2 = dir.join(format!("hep_v2_roundtrip_{}_{}.hepb", std::process::id(), seed));
        let f1 = BinaryEdgeFile::write_v1(&p1, &g).unwrap();
        let f2 = BinaryEdgeFile::write(&p2, &g).unwrap();
        prop_assert_eq!(f1.format_version(), 1u32);
        prop_assert_eq!(f2.format_version(), 2u32);
        let run = |file: &BinaryEdgeFile| {
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            hep::core::Hep::with_tau(10.0).partition_file_with_report(file, 8, &mut sink).unwrap();
            sink.assignments
        };
        prop_assert_eq!(f1.load().unwrap().edges, f2.load().unwrap().edges);
        prop_assert_eq!(run(&f1), run(&f2), "v1 and v2 partitions diverged");
        std::fs::remove_file(&p1).ok();
        std::fs::remove_file(&p2).ok();
    }

    #[test]
    fn refinement_preserves_caps_and_never_increases_rf(
        seed in 0u64..1000,
        split in 2u32..5,
        passes in 1u32..4,
        community in any::<bool>(),
    ) {
        // Phase-level safety of the FM refinement: the serial balanced
        // caps hold exactly after every pass, the per-pass cover sums
        // (the replication-factor numerator) never increase, and the
        // refined phase never beats the caps by dropping edges.
        let g = if community {
            hep::gen::community::community_web(
                hep::gen::community::CommunityParams::weblike(2_000, 16_000),
                seed,
            )
        } else {
            hep::gen::GraphSpec::ChungLu { n: 2_000, m: 16_000, gamma: 2.2 }.generate(seed)
        };
        let k = 8;
        let phase1 = |refine_passes: u32| {
            let csr = hep::graph::PrunedCsr::build(&g, 10.0);
            let inmem = csr.num_inmem_edges();
            let mut config = hep::core::HepConfig::with_tau(10.0);
            config.split_factor = split;
            config.refine_passes = refine_passes;
            let mut sink = hep::graph::partitioner::CountingSink::default();
            let result = hep::core::run_nepp_par(csr, k, &config, &mut sink);
            (result, inmem)
        };
        let (unrefined, inmem) = phase1(0);
        let (refined, _) = phase1(passes);
        // Caps: every part within the serial balanced bounds, same load
        // vector as the unrefined pack (filler compensation is exact).
        prop_assert_eq!(refined.sizes.iter().sum::<u64>(), inmem);
        prop_assert_eq!(&refined.sizes, &unrefined.sizes);
        let ideal = inmem / k as u64;
        for (p, &sz) in refined.sizes.iter().enumerate() {
            prop_assert!(sz <= ideal + 1, "p{} size {} sizes {:?}", p, sz, refined.sizes);
        }
        // RF numerator: refined covers never exceed the unrefined ones,
        // and the recorded per-pass sums are non-increasing.
        let cover_sum = |r: &hep::core::NeppResult| -> u64 {
            r.s_sets.iter().map(|s| s.count_ones() as u64).sum()
        };
        prop_assert!(cover_sum(&refined) <= cover_sum(&unrefined));
        let sums = &refined.stats.refine_cover_sums;
        if inmem > 0 {
            prop_assert!(!sums.is_empty(), "refinement ran: cover sums recorded");
            prop_assert_eq!(*sums.first().unwrap(), cover_sum(&unrefined));
            prop_assert_eq!(*sums.last().unwrap(), cover_sum(&refined));
            prop_assert!(sums.windows(2).all(|w| w[1] <= w[0]), "{:?}", sums);
        }
    }

    #[test]
    fn refined_split_rf_within_15_percent_of_serial_at_hep10(
        seed in 0u64..1000,
        community in any::<bool>(),
    ) {
        // The acceptance bound this subsystem exists for: at HEP-10 /
        // split_factor = 4 (where the unrefined pack measured +15-40%
        // over the serial path), the refined pipeline's replication
        // factor stays within 15% of serial NE++ on both graph families.
        let g = if community {
            hep::gen::community::community_web(
                hep::gen::community::CommunityParams::weblike(3_000, 24_000),
                seed,
            )
        } else {
            hep::gen::GraphSpec::ChungLu { n: 3_000, m: 24_000, gamma: 2.2 }.generate(seed)
        };
        let k = 8;
        let run = |split_factor: u32, refine_passes: u32| {
            let mut config = hep::core::HepConfig::with_tau(10.0);
            config.split_factor = split_factor;
            config.refine_passes = refine_passes;
            let hep = hep::core::Hep { config };
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            hep.partition_with_report(&g, k, &mut sink).unwrap();
            hep::metrics::PartitionMetrics::from_assignment(k, g.num_vertices, &sink)
                .replication_factor()
        };
        let serial_rf = run(1, 0);
        let refined_rf = run(4, hep::core::DEFAULT_REFINE_PASSES);
        prop_assert!(
            refined_rf <= serial_rf * 1.15,
            "refined split rf {} exceeds serial rf {} by more than 15%",
            refined_rf,
            serial_rf
        );
    }

    #[test]
    fn subpartitioned_nepp_exactly_once_with_capacity_and_rf(
        seed in 0u64..1000,
        split in 2u32..5,
        community in any::<bool>(),
    ) {
        // Quality and safety of the split expansion against the serial
        // path, on the two graph families the paper's contrast rests on:
        // exactly-once coverage, the serial balanced capacity bounds, and
        // replication factor within 10% of serial NE++ (measured at HEP-1,
        // where phase 1 and phase 2 share the load; see EXPERIMENTS.md for
        // the HEP-10 trade-off numbers).
        use hep::graph::Edge;
        let g = if community {
            hep::gen::community::community_web(
                hep::gen::community::CommunityParams::weblike(3_000, 24_000),
                seed,
            )
        } else {
            hep::gen::GraphSpec::ChungLu { n: 3_000, m: 24_000, gamma: 2.2 }.generate(seed)
        };
        let k = 8;
        let run = |split_factor: u32| {
            let mut config = hep::core::HepConfig::with_tau(1.0);
            config.split_factor = split_factor;
            let hep = hep::core::Hep { config };
            let mut sink = hep::graph::partitioner::CollectedAssignment::default();
            let report = hep.partition_with_report(&g, k, &mut sink).unwrap();
            let rf = hep::metrics::PartitionMetrics::from_assignment(k, g.num_vertices, &sink)
                .replication_factor();
            (sink, report, rf)
        };
        let (_, _, serial_rf) = run(1);
        let (sink, report, split_rf) = run(split);
        // Exactly-once over the whole pipeline.
        let mut seen: Vec<Edge> = sink.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.sort_unstable();
        let mut expect: Vec<Edge> = g.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect);
        prop_assert_eq!(report.partition_sizes.iter().sum::<u64>(), g.num_edges());
        // NE++ capacity bounds at the phase level: the pack stage enforces
        // the serial balanced caps exactly (every part <= ideal + 1).
        let csr = hep::graph::PrunedCsr::build(&g, 1.0);
        let inmem = csr.num_inmem_edges();
        let mut config = hep::core::HepConfig::with_tau(1.0);
        config.split_factor = split;
        let mut nepp_sink = hep::graph::partitioner::CountingSink::default();
        let phase1 = hep::core::run_nepp_par(csr, k, &config, &mut nepp_sink);
        prop_assert_eq!(phase1.sizes.iter().sum::<u64>(), inmem);
        let ideal = inmem / k as u64;
        for (p, &sz) in phase1.sizes.iter().enumerate() {
            prop_assert!(sz <= ideal + 1, "p{} size {} over cap, sizes {:?}", p, sz, phase1.sizes);
        }
        // Replication factor within 10% of the serial path.
        prop_assert!(
            split_rf <= serial_rf * 1.10,
            "split {} rf {} exceeds serial rf {} by more than 10%",
            split,
            split_rf,
            serial_rf
        );
    }

    #[test]
    fn stream_pipeline_is_thread_invariant(
        seed in 0u64..1000,
        split in prop_oneof![Just(1u32), Just(4)],
    ) {
        // Phase 2 at the pipeline level: the whole run is bit-identical at
        // 1 and 8 workers. τ = 1 sends a large h2h stream through phase 2.
        let g = hep::gen::GraphSpec::ChungLu { n: 1_500, m: 12_000, gamma: 2.2 }.generate(seed);
        let run = |threads: usize| {
            hep::par::with_threads(threads, || {
                let mut config = hep::core::HepConfig::with_tau(1.0);
                config.split_factor = split;
                let hep = hep::core::Hep { config };
                let mut sink = hep::graph::partitioner::CollectedAssignment::default();
                let report = hep.partition_with_report(&g, 8, &mut sink).unwrap();
                (sink.assignments, report.partition_sizes)
            })
        };
        let baseline = run(1);
        let other = run(8);
        prop_assert_eq!(&baseline, &other, "pipeline diverged at threads=8");
    }

    #[test]
    fn stream_engine_matches_serial_bitwise(
        seed in 0u64..1000,
        k in prop_oneof![Just(4u32), Just(32), Just(128)],
    ) {
        // The engine-level contract behind the pipeline property: on a raw
        // hub-skewed h2h stream with NE++-like seeded replicas and uneven
        // loads, the mask-table engine reproduces `stream_h2h_serial` exactly —
        // assignment sequence, final loads, and every replica-set word — at
        // 1 and 8 workers.
        use hep::ds::DenseBitset;
        let n = 300u32;
        let m = 4_000usize;
        let mut rng = hep::ds::SplitMix64::new(seed);
        let mut edges = Vec::with_capacity(m);
        let mut degrees = vec![0u32; n as usize];
        for _ in 0..m {
            let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
            let b = rng.next_below(n as u64) as u32;
            edges.push(hep::graph::Edge::new(a, b));
            degrees[a as usize] += 1;
            degrees[b as usize] += 1;
        }
        let mut seed_sets: Vec<DenseBitset> =
            (0..k).map(|_| DenseBitset::new(n as usize)).collect();
        let mut sizes = vec![0u64; k as usize];
        for v in 0..60u32 {
            seed_sets[(v % k) as usize].set(v);
        }
        for (p, s) in sizes.iter_mut().enumerate() {
            *s = (p as u64) * 29;
        }
        let mut serial_sink = hep::graph::partitioner::CollectedAssignment::default();
        let serial = hep::core::stream_h2h_serial(
            edges.iter().copied(),
            &degrees,
            seed_sets.clone(),
            sizes.clone(),
            2 * m as u64,
            1.1,
            1.05,
            &mut serial_sink,
        )
        .unwrap();
        for threads in [1usize, 8] {
            let (assignments, state) = hep::par::with_threads(threads, || {
                let mut sink = hep::graph::partitioner::CollectedAssignment::default();
                let state = hep::core::stream_h2h(
                    edges.iter().copied(),
                    &degrees,
                    seed_sets.clone(),
                    sizes.clone(),
                    2 * m as u64,
                    1.1,
                    1.05,
                    0,
                    &mut sink,
                )
                .unwrap();
                (sink.assignments, state)
            });
            prop_assert_eq!(&assignments, &serial_sink.assignments);
            for p in 0..k {
                prop_assert_eq!(state.load(p), serial.load(p), "load {} diverged", p);
                prop_assert_eq!(
                    state.replica_sets()[p as usize].words(),
                    serial.replica_sets()[p as usize].words(),
                    "replica set {} diverged", p
                );
            }
        }
    }
}
