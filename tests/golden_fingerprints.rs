//! Golden output of the serial HEP pipeline. The determinism battery
//! compares the code with itself (threads, kernels, IO backends); this
//! suite pins the *absolute* assignment: the XXH64 fingerprint of the
//! `(u, v, p)` emission sequence, as `perfbench` computes it, of small
//! seeded generator graphs at the paper's τ ∈ {100, 10, 1} and
//! k ∈ {4, 32}. Every row holds for the in-memory driver, for the file
//! driver under both IO backends, and for both drivers under a memory
//! budget equal to the run's own planned peak. A second table pins HDRF and ADWISE, the other
//! callers of the HDRF scorer that HEP's streaming phase shares.

use hep::baselines::{Adwise, Hdrf};
use hep::core::{Hep, HepConfig};
use hep::ds::Hasher64;
use hep::gen::rmat::RmatParams;
use hep::gen::GraphSpec;
use hep::graph::{AssignSink, BinaryEdgeFile, EdgePartitioner, IoMode, PartitionId, VertexId};

/// XXH64 (seed 0) of the little-endian `(u, v, p)` records, in emission
/// order, plus the record count.
struct FingerprintSink {
    hasher: Hasher64,
    edges: u64,
}

impl AssignSink for FingerprintSink {
    fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        let mut record = [0u8; 12];
        record[..4].copy_from_slice(&u.to_le_bytes());
        record[4..8].copy_from_slice(&v.to_le_bytes());
        record[8..].copy_from_slice(&p.to_le_bytes());
        self.hasher.write(&record);
        self.edges += 1;
    }
}

impl FingerprintSink {
    fn new() -> Self {
        FingerprintSink { hasher: Hasher64::with_seed(0), edges: 0 }
    }
}

/// Removes the graph's HEPB file even when an assertion unwinds.
struct TempFileGuard(std::path::PathBuf);

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn graphs() -> [(&'static str, GraphSpec, u64); 4] {
    [
        ("chung-lu", GraphSpec::ChungLu { n: 2_000, m: 16_000, gamma: 2.1 }, 1),
        ("rmat", GraphSpec::Rmat { scale: 12, m: 16_000, params: RmatParams::weblike() }, 2),
        ("barabasi-albert", GraphSpec::BarabasiAlbert { n: 4_000, m_per_vertex: 4 }, 3),
        ("erdos-renyi", GraphSpec::ErdosRenyi { n: 3_000, m: 12_000 }, 4),
    ]
}

/// `(graph, τ, k) → fingerprint`, recorded from the serial NE++ pipeline.
const GOLDEN: [(&str, f64, u32, u64); 24] = [
    ("chung-lu", 100.0, 4, 0xaab79d625ef0fe5e),
    ("chung-lu", 100.0, 32, 0xbb443ccbfb597f55),
    ("chung-lu", 10.0, 4, 0x07307104c1bf7d7a),
    ("chung-lu", 10.0, 32, 0xc3936fd239199e60),
    ("chung-lu", 1.0, 4, 0xc41c31cce9f57585),
    ("chung-lu", 1.0, 32, 0xf7fa4f70ed29e253),
    ("rmat", 100.0, 4, 0xa07ae971ee332468),
    ("rmat", 100.0, 32, 0xbed4a272bc75a1a6),
    ("rmat", 10.0, 4, 0x8065406f6cd7e94e),
    ("rmat", 10.0, 32, 0xb1b59d20db72b3d2),
    ("rmat", 1.0, 4, 0x12c04688841da163),
    ("rmat", 1.0, 32, 0x3b33dd2a9508a4f3),
    ("barabasi-albert", 100.0, 4, 0x0dea54d44c288dfc),
    ("barabasi-albert", 100.0, 32, 0x644df5e40ddd0ec8),
    ("barabasi-albert", 10.0, 4, 0x8876386e0c58035c),
    ("barabasi-albert", 10.0, 32, 0x5bb041a206c29e98),
    ("barabasi-albert", 1.0, 4, 0x5d14154e66743372),
    ("barabasi-albert", 1.0, 32, 0xcb082237c822c683),
    ("erdos-renyi", 100.0, 4, 0x461c4bf00b31df81),
    ("erdos-renyi", 100.0, 32, 0x662b775a8fd0c035),
    ("erdos-renyi", 10.0, 4, 0x461c4bf00b31df81),
    ("erdos-renyi", 10.0, 32, 0x662b775a8fd0c035),
    ("erdos-renyi", 1.0, 4, 0xd924f33121312392),
    ("erdos-renyi", 1.0, 32, 0xc89a15db81dac533),
];

#[test]
fn serial_pipeline_output_matches_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (name, spec, seed) in graphs() {
        let graph = spec.generate(seed);
        let path =
            std::env::temp_dir().join(format!("hep_golden_{}_{name}.hepb", std::process::id()));
        let _guard = TempFileGuard(path.clone());
        let file = BinaryEdgeFile::write(&path, &graph).expect("write HEPB");
        for tau in [100.0, 10.0, 1.0] {
            for k in [4u32, 32] {
                let want =
                    GOLDEN.iter().find(|g| g.0 == name && g.1 == tau && g.2 == k).map(|g| g.3);
                let mut check = |run: &str, sink: FingerprintSink| {
                    assert_eq!(sink.edges, graph.num_edges(), "{run} {name} τ={tau} k={k}");
                    let got = sink.hasher.finish();
                    if want != Some(got) {
                        mismatches.push(format!(
                            "{run} {name} τ={tau} k={k}: got {got:016x}, want {want:016x?}"
                        ));
                    }
                };
                let mut sink = FingerprintSink::new();
                Hep::with_tau(tau).partition(&graph, k, &mut sink).expect("partition");
                check("in-memory", sink);
                let file_run = |config: HepConfig| {
                    let mut sink = FingerprintSink::new();
                    let report = Hep { config }
                        .partition_file_with_report(&file, k, &mut sink)
                        .expect("partition file");
                    (sink, report.ingest.expect("file runs report their plan"))
                };
                let (sink, plan) =
                    file_run(HepConfig { io_mode: IoMode::Buffered, ..HepConfig::with_tau(tau) });
                check("file/buffered", sink);
                let (sink, _) =
                    file_run(HepConfig { io_mode: IoMode::Mmap, ..HepConfig::with_tau(tau) });
                check("file/mmap", sink);
                let budget = Some(plan.estimated_peak_bytes);
                let (sink, budgeted) =
                    file_run(HepConfig { memory_budget_bytes: budget, ..HepConfig::with_tau(tau) });
                assert_eq!(budgeted, plan, "{name} τ={tau} k={k}: the estimate budget fits τ");
                check("file/estimate-budget", sink);
                let config = HepConfig { memory_budget_bytes: budget, ..HepConfig::with_tau(tau) };
                let mut sink = FingerprintSink::new();
                let report = Hep { config }
                    .partition_with_report(&graph, k, &mut sink)
                    .expect("partition under the estimate budget");
                assert_eq!(report.ingest, Some(plan), "{name} τ={tau} k={k}: the drivers' plans");
                check("in-memory/estimate-budget", sink);
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "HEP's assignment changed:\n  {}\nThese hashes may change only with an intentional output \
         change that is documented in CHANGES.md; otherwise a refactor altered the output.",
        mismatches.join("\n  ")
    );
}

/// `(partitioner, graph, k) → fingerprint`, recorded from the streaming
/// baselines that share `ReplicaState::best_partition` with phase 2.
const GOLDEN_SCORER: [(&str, &str, u32, u64); 16] = [
    ("HDRF", "chung-lu", 4, 0xac72d72eb1cfc938),
    ("ADWISE", "chung-lu", 4, 0xc987e01f6b61b850),
    ("HDRF", "chung-lu", 32, 0x0eb50dd1f57f40f6),
    ("ADWISE", "chung-lu", 32, 0xd90d474e8ca3dd32),
    ("HDRF", "rmat", 4, 0x387db810535daa63),
    ("ADWISE", "rmat", 4, 0x51ec5fa7bce3c1b4),
    ("HDRF", "rmat", 32, 0xfe5f0b3c29b73155),
    ("ADWISE", "rmat", 32, 0x7578ec146d430622),
    ("HDRF", "barabasi-albert", 4, 0xdfdfb6f841aa3f7a),
    ("ADWISE", "barabasi-albert", 4, 0xf055f331e4344ed1),
    ("HDRF", "barabasi-albert", 32, 0xe617dc8a06705128),
    ("ADWISE", "barabasi-albert", 32, 0x50b5c832dce44188),
    ("HDRF", "erdos-renyi", 4, 0x746950b18d63c97c),
    ("ADWISE", "erdos-renyi", 4, 0xb1baa8e945a2075b),
    ("HDRF", "erdos-renyi", 32, 0x07e8f6e3096621bc),
    ("ADWISE", "erdos-renyi", 32, 0xf88dd197f3db3cd4),
];

#[test]
fn hdrf_scorer_callers_match_golden_fingerprints() {
    let mut mismatches = Vec::new();
    for (name, spec, seed) in graphs() {
        let graph = spec.generate(seed);
        for k in [4u32, 32] {
            let runs: [Box<dyn EdgePartitioner>; 2] =
                [Box::new(Hdrf::default()), Box::new(Adwise::default())];
            for mut partitioner in runs {
                let label = partitioner.name();
                let mut sink = FingerprintSink::new();
                partitioner.partition(&graph, k, &mut sink).expect("partition");
                assert_eq!(sink.edges, graph.num_edges(), "{label} {name} k={k}");
                let got = sink.hasher.finish();
                let want = GOLDEN_SCORER
                    .iter()
                    .find(|g| g.0 == label && g.1 == name && g.2 == k)
                    .map(|g| g.3);
                if want != Some(got) {
                    mismatches
                        .push(format!("{label} {name} k={k}: got {got:016x}, want {want:016x?}"));
                }
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "A streaming baseline's assignment changed:\n  {}\nThe HDRF scorer is shared with HEP's \
         streaming phase, so these hashes may change only with a documented scoring change.",
        mismatches.join("\n  ")
    );
}
