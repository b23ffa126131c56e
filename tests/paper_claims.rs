//! End-to-end checks of the paper's headline claims, at analog scale.
//! These are the load-bearing comparative results; if one of these breaks,
//! the reproduction no longer tells the paper's story.

use hep::graph::{EdgeList, EdgePartitioner};
use hep::metrics::PartitionMetrics;

fn rf(p: &mut dyn EdgePartitioner, g: &EdgeList, k: u32) -> f64 {
    let mut m = PartitionMetrics::new(k, g.num_vertices);
    p.partition(g, k, &mut m).expect("partitioning succeeds");
    m.replication_factor()
}

/// HEP as the paper evaluates it: the serial NE++ of §3.2 followed by
/// informed streaming, with the paper's defaults.
fn serial_hep(tau: f64) -> hep::core::Hep {
    hep::core::Hep::with_tau(tau)
}

fn web_graph() -> EdgeList {
    hep::gen::dataset("IT", 1).expect("IT exists").generate()
}

fn social_graph() -> EdgeList {
    hep::gen::dataset("OK", 1).expect("OK exists").generate()
}

/// §5.2 (1): HEP at high τ reaches replication factors competitive with NE,
/// the best partitioner throughout the paper's experiments.
#[test]
fn hep_100_tracks_ne_quality() {
    for g in [web_graph(), social_graph()] {
        let hep = rf(&mut serial_hep(100.0), &g, 32);
        let ne = rf(&mut hep::baselines::Ne::default(), &g, 32);
        assert!(hep <= ne * 1.10, "HEP-100 rf {hep} vs NE rf {ne}");
    }
}

/// §5.2 (2): even at τ = 1 (minimal memory), HEP beats the streaming
/// partitioners on replication factor.
#[test]
fn hep_1_beats_streaming() {
    for g in [web_graph(), social_graph()] {
        let hep = rf(&mut serial_hep(1.0), &g, 32);
        let hdrf = rf(&mut hep::baselines::Hdrf::default(), &g, 32);
        let dbh = rf(&mut hep::baselines::Dbh::default(), &g, 32);
        assert!(hep < hdrf, "HEP-1 rf {hep} vs HDRF rf {hdrf}");
        assert!(hep < dbh, "HEP-1 rf {hep} vs DBH rf {dbh}");
    }
}

/// §4.4: the memory footprint is monotone in τ, and the planner's choice is
/// honoured by the built representation.
#[test]
fn tau_controls_memory_monotonically() {
    let g = social_graph();
    let (degrees, mean) = (g.degrees(), g.mean_degree());
    let plan = |tau, budget| hep::core::plan_ingest(&degrees, mean, tau, budget, 0).expect("fits");
    let peak = |tau| plan(tau, None).estimated_peak_bytes;
    assert!(peak(1.0) < peak(10.0));
    assert!(peak(10.0) <= peak(100.0));
    let budget = peak(10.0);
    let chosen = plan(100.0, Some(budget));
    assert!(chosen.estimated_peak_bytes <= budget);
    let built = hep::graph::PrunedCsr::build(&g, chosen.tau);
    assert!(built.heap_bytes() as u64 <= chosen.resident_bytes);
}

/// §5.2: replication factor degrades gracefully as τ shrinks (the
/// memory/quality trade-off is a trade-off, not a cliff).
#[test]
fn rf_degrades_gracefully_with_tau() {
    let g = web_graph();
    let rf100 = rf(&mut serial_hep(100.0), &g, 32);
    let rf1 = rf(&mut serial_hep(1.0), &g, 32);
    assert!(rf100 <= rf1 * 1.02, "quality should not improve as memory shrinks");
    assert!(rf1 < rf100 * 2.5, "tau=1 should degrade gracefully: {rf100} -> {rf1}");
}

/// §5.4 / Figure 9: informed HDRF streaming beats random streaming of the
/// h2h edges (the simple hybrid), clearly at τ = 1.
#[test]
fn hep_beats_simple_hybrid() {
    let g = social_graph();
    let hep = rf(&mut serial_hep(1.0), &g, 32);
    let simple = rf(&mut hep::core::SimpleHybrid::with_tau(1.0), &g, 32);
    assert!(hep < simple, "HEP rf {hep} vs simple hybrid rf {simple}");
}

/// Figure 2's premise: low-degree vertices achieve much lower replication
/// than high-degree ones under both HDRF and NE.
#[test]
fn replication_grows_with_degree() {
    let g = hep::gen::dataset("LJ", 1).expect("LJ exists").generate();
    let degrees = g.degrees();
    for p in [
        Box::new(hep::baselines::Hdrf::default()) as Box<dyn EdgePartitioner>,
        Box::new(hep::baselines::Ne::default()),
    ] {
        let mut p = p;
        let mut m = PartitionMetrics::new(32, g.num_vertices);
        p.partition(&g, 32, &mut m).expect("partitioning succeeds");
        let buckets = m.degree_bucket_rf(&degrees);
        let (first, _) = buckets.first().expect("non-empty");
        let (last, n) = buckets.iter().rev().find(|&&(_, n)| n > 0).expect("non-empty");
        assert!(
            last > &(first * 2.0),
            "{}: rf {first} (low degree) vs {last} (high degree, {n} vertices)",
            p.name()
        );
    }
}

/// Figure 8's web-vs-social contrast: every degree-aware partitioner gets a
/// lower RF on the web analog than on the social analog.
#[test]
fn web_graphs_partition_better_than_social() {
    let web = web_graph();
    let social = social_graph();
    let ne_web = rf(&mut hep::baselines::Ne::default(), &web, 32);
    let ne_social = rf(&mut hep::baselines::Ne::default(), &social, 32);
    assert!(ne_web < ne_social, "NE: web {ne_web} vs social {ne_social}");
    let hep_web = rf(&mut serial_hep(10.0), &web, 32);
    let hep_social = rf(&mut serial_hep(10.0), &social, 32);
    assert!(hep_web < hep_social, "HEP: web {hep_web} vs social {hep_social}");
}

/// Table 4's correlation: lower replication factor means fewer simulated
/// synchronization messages for PageRank.
#[test]
fn processing_cost_tracks_replication() {
    use hep::graph::partitioner::CollectedAssignment;
    use hep::procsim::{pagerank, ClusterCost, DistributedGraph};
    let g = web_graph();
    let k = 32;
    let mut outcomes = Vec::new();
    for p in [
        Box::new(serial_hep(10.0)) as Box<dyn EdgePartitioner>,
        Box::new(hep::baselines::Hdrf::default()),
        Box::new(hep::baselines::RandomStreaming::default()),
    ] {
        let mut p = p;
        let mut sink = CollectedAssignment::default();
        p.partition(&g, k, &mut sink).expect("partitioning succeeds");
        let dg = DistributedGraph::load(&g, &sink, k);
        let (_, cost) = pagerank(&dg, 5, &ClusterCost::default());
        outcomes.push((dg.replication_factor(), cost.total_msgs));
    }
    for w in outcomes.windows(2) {
        assert!(w[0].0 < w[1].0, "rf ordering: {outcomes:?}");
        assert!(w[0].1 < w[1].1, "msg ordering: {outcomes:?}");
    }
}
