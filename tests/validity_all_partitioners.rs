//! Cross-crate validity: every partitioner in the workspace must assign
//! every edge exactly once, to an in-range partition, on every graph family
//! — including adversarial shapes (stars, cliques, disconnected components)
//! and randomly generated graphs. DNE must also keep its capacity cap on
//! the hub-heavy social analogs.

use hep::gen::GraphSpec;
use hep::graph::partitioner::CollectedAssignment;
use hep::graph::{EdgeList, EdgePartitioner};
use hep::metrics::validate_assignment;
use proptest::prelude::*;

fn all_partitioners() -> Vec<Box<dyn EdgePartitioner>> {
    vec![
        Box::new(hep::core::Hep::with_tau(100.0)),
        Box::new(hep::core::Hep::with_tau(10.0)),
        Box::new(hep::core::Hep::with_tau(1.0)),
        Box::new(hep::core::SimpleHybrid::with_tau(2.0)),
        Box::new(hep::baselines::Ne::default()),
        Box::new(hep::baselines::Sne::default()),
        Box::new(hep::baselines::Dne::default()),
        Box::new(hep::baselines::MetisLike::default()),
        Box::new(hep::baselines::Hdrf::default()),
        Box::new(hep::baselines::Adwise::default()),
        Box::new(hep::baselines::Dbh::default()),
        Box::new(hep::baselines::RandomStreaming::default()),
    ]
}

fn check_all(graph: &EdgeList, k: u32) {
    for mut p in all_partitioners() {
        let mut sink = CollectedAssignment::default();
        p.partition(graph, k, &mut sink).unwrap_or_else(|e| panic!("{} failed: {e}", p.name()));
        if let Err(msg) = validate_assignment(graph, &sink, k) {
            panic!("{} invalid on k={k}: {msg}", p.name());
        }
    }
}

#[test]
fn valid_on_power_law_graph() {
    let g = GraphSpec::ChungLu { n: 700, m: 6000, gamma: 2.1 }.generate(1);
    check_all(&g, 8);
}

#[test]
fn valid_on_community_web_graph() {
    let g = GraphSpec::CommunityWeb(hep::gen::community::CommunityParams::weblike(1500, 9000))
        .generate(2);
    check_all(&g, 5);
}

#[test]
fn valid_on_star() {
    check_all(&GraphSpec::Star { n: 200 }.generate(0), 4);
}

#[test]
fn valid_on_dense_graph() {
    check_all(&GraphSpec::Complete { n: 40 }.generate(0), 4);
}

#[test]
fn valid_on_disconnected_components() {
    check_all(&GraphSpec::DisconnectedCliques { count: 15, size: 6 }.generate(0), 6);
}

#[test]
fn valid_on_path_with_many_partitions() {
    check_all(&GraphSpec::Path { n: 120 }.generate(0), 16);
}

#[test]
fn valid_with_more_partitions_than_edges() {
    let g = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3), (3, 4)]);
    check_all(&g, 12);
}

#[test]
fn valid_on_rmat() {
    let g = GraphSpec::Rmat { scale: 10, m: 5000, params: hep::gen::rmat::RmatParams::graph500() }
        .generate(4);
    check_all(&g, 7);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random graphs, random k: the full roster stays valid.
    #[test]
    fn valid_on_arbitrary_graphs(
        pairs in proptest::collection::vec((0u32..80, 0u32..80), 1..300),
        k in 2u32..10,
    ) {
        let mut g = EdgeList::from_pairs(pairs);
        g.canonicalize();
        prop_assume!(!g.edges.is_empty());
        check_all(&g, k);
    }
}

/// DNE's parts stay within the 1.05 cap on the OK and TW analogs. Their
/// hubs hold more than a part's share of edges, so a hub that proposed
/// every incident edge at once would push its part far past the cap.
#[test]
fn dne_keeps_its_balance_cap_on_social_analogs() {
    let k_values: &[u32] = if cfg!(debug_assertions) { &[32, 128] } else { &[32, 128, 256] };
    for name in ["OK", "TW"] {
        let g = hep::gen::dataset(name, 1).expect("a Table 3 analog").generate();
        for &k in k_values {
            let mut dne = hep::baselines::Dne::default();
            let cap = (dne.balance * g.num_edges() as f64 / k as f64).ceil() as u64;
            let mut sink = hep::graph::partitioner::CountingSink::default();
            dne.partition(&g, k, &mut sink).expect("DNE runs");
            let max = sink.counts.iter().copied().max().unwrap_or(0);
            let alpha = max as f64 * k as f64 / g.num_edges() as f64;
            assert!(max <= cap, "{name} k={k}: largest part {max} > cap {cap} (alpha {alpha:.2})");
        }
    }
}
