//! Golden NE++ statistics. `golden_fingerprints.rs` pins the emitted
//! assignment; this suite pins the run counters behind Figures 5 and 7 —
//! clean-up and scan removals, initializations, and the core and
//! secondary-only vertex counts and degree sums — on the same four seeded
//! generator graphs at τ ∈ {100, 10, 1} and k = 32. The Figure 5
//! secondary-only bucket depends on which vertices NE++ ever placed in a
//! secondary set, state an output fingerprint does not see.

use hep::core::{Hep, NeppStats};
use hep::gen::rmat::RmatParams;
use hep::gen::GraphSpec;
use hep::graph::partitioner::CountingSink;

fn graphs() -> [(&'static str, GraphSpec, u64); 4] {
    [
        ("chung-lu", GraphSpec::ChungLu { n: 2_000, m: 16_000, gamma: 2.1 }, 1),
        ("rmat", GraphSpec::Rmat { scale: 12, m: 16_000, params: RmatParams::weblike() }, 2),
        ("barabasi-albert", GraphSpec::BarabasiAlbert { n: 4_000, m_per_vertex: 4 }, 3),
        ("erdos-renyi", GraphSpec::ErdosRenyi { n: 3_000, m: 12_000 }, 4),
    ]
}

/// The ten counters in declaration order.
fn fields(s: &NeppStats) -> [u64; 10] {
    [
        s.column_entries,
        s.cleanup_removed,
        s.scan_removed,
        s.cleanup_assigned,
        s.initializations,
        s.core_count,
        s.core_degree_sum,
        s.secondary_only_count,
        s.secondary_only_degree_sum,
        s.assigned_edges,
    ]
}

/// `(graph, τ) → fields(stats)` at k = 32, recorded from the NE++ that
/// kept all `k` secondary sets dense.
const GOLDEN: [(&str, f64, [u64; 10]); 12] = [
    ("chung-lu", 100.0, [32000, 10077, 15500, 0, 3, 1734, 19995, 261, 12005, 16000]),
    ("chung-lu", 10.0, [25007, 5345, 14310, 1021, 1, 1745, 20347, 250, 11653, 15816]),
    ("chung-lu", 1.0, [11040, 717, 8549, 690, 323, 1534, 10717, 461, 21283, 9534]),
    ("rmat", 100.0, [32000, 10051, 15502, 0, 3, 2101, 23377, 484, 8623, 16000]),
    ("rmat", 10.0, [21760, 5251, 11550, 2369, 1, 2121, 19612, 464, 12388, 14358]),
    ("rmat", 1.0, [4621, 0, 3927, 0, 1092, 1642, 4487, 888, 26844, 4053]),
    ("barabasi-albert", 100.0, [31812, 4551, 15408, 0, 7, 3674, 27311, 326, 4501, 15906]),
    ("barabasi-albert", 10.0, [29686, 3519, 15060, 319, 1, 3677, 26155, 323, 5657, 15874]),
    ("barabasi-albert", 1.0, [14293, 145, 11294, 143, 547, 2816, 13918, 1184, 17894, 11805]),
    ("erdos-renyi", 100.0, [24000, 2357, 11626, 0, 4, 2748, 21622, 249, 2378, 12000]),
    ("erdos-renyi", 10.0, [24000, 2357, 11626, 0, 4, 2748, 21622, 249, 2378, 12000]),
    ("erdos-renyi", 1.0, [10865, 270, 7928, 211, 127, 1715, 10542, 1280, 13440, 8401]),
];

#[test]
fn nepp_stats_match_golden_values() {
    let k = 32;
    let mut mismatches = Vec::new();
    for (name, spec, seed) in graphs() {
        let graph = spec.generate(seed);
        for tau in [100.0, 10.0, 1.0] {
            let mut sink = CountingSink::default();
            let report =
                Hep::with_tau(tau).partition_with_report(&graph, k, &mut sink).expect("partition");
            let got = fields(&report.nepp);
            let want = GOLDEN.iter().find(|g| g.0 == name && g.1 == tau).map(|g| g.2);
            if want != Some(got) {
                mismatches.push(format!("(\"{name}\", {tau:.1}, {got:?}),"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "NE++ statistics changed:\n  {}\nThese values may change only with an intentional change \
         to NE++ that is documented in CHANGES.md.",
        mismatches.join("\n  ")
    );
}
