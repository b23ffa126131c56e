//! Full-pipeline integration: file IO → partitioning → metrics → processing
//! simulation → paging simulation, crossing every crate boundary the way the
//! experiment harness does.

use hep::graph::partitioner::CollectedAssignment;
use hep::graph::{EdgeList, EdgePartitioner};
use hep::metrics::PartitionMetrics;

#[test]
fn file_roundtrip_then_partition_then_process() {
    // 1. Generate and persist a graph, as a user would receive it.
    let g = hep::gen::GraphSpec::ChungLu { n: 800, m: 7000, gamma: 2.2 }.generate(3);
    let mut path = std::env::temp_dir();
    path.push(format!("hep_pipeline_{}.bin", std::process::id()));
    g.write_binary(&path).expect("write");
    let mut loaded = EdgeList::read_binary(&path).expect("read");
    std::fs::remove_file(&path).ok();
    loaded.canonicalize();
    assert_eq!(loaded.edges, g.edges, "generator output is already canonical");

    // 2. Partition with HEP, collecting metrics and the assignment at once.
    let k = 8;
    let mut metrics = PartitionMetrics::new(k, loaded.num_vertices);
    let mut collected = CollectedAssignment::default();
    {
        let mut tee =
            hep::graph::partitioner::TeeSink { first: &mut metrics, second: &mut collected };
        hep::core::Hep::with_tau(10.0).partition(&loaded, k, &mut tee).expect("partition");
    }
    hep::metrics::validate_assignment(&loaded, &collected, k).expect("valid partitioning");
    assert!(metrics.replication_factor() >= 1.0);

    // 3. Load onto the simulated cluster; its independently computed RF must
    //    agree with the metrics sink.
    let dg = hep::procsim::DistributedGraph::load(&loaded, &collected, k);
    assert!((dg.replication_factor() - metrics.replication_factor()).abs() < 1e-12);

    // 4. Run all three workloads; results must be graph properties, not
    //    partitioning properties.
    let cost = hep::procsim::ClusterCost::default();
    let (ranks, _) = hep::procsim::pagerank(&dg, 10, &cost);
    assert!((ranks.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    let (labels, _) = hep::procsim::connected_components(&dg, &cost);
    assert_eq!(labels.len(), loaded.num_vertices as usize);
    let bfs_cost = hep::procsim::bfs(&dg, &[0, 1], &cost);
    assert!(bfs_cost.sim_seconds > 0.0);
}

#[test]
fn trace_feeds_paging_simulator() {
    let g = hep::gen::GraphSpec::ChungLu { n: 1000, m: 9000, gamma: 2.1 }.generate(5);
    let mut config = hep::core::HepConfig::with_tau(10.0);
    config.record_trace = true;
    let hep_p = hep::core::Hep { config };
    let mut sink = CollectedAssignment::default();
    let report = hep_p.partition_with_report(&g, 8, &mut sink).expect("partition");
    let trace = report.trace.expect("trace requested");
    assert!(!trace.is_empty());
    // Paging: generous memory -> almost no faults; tiny memory -> many.
    let pages = (report.inmem_edges * 2).div_ceil(1024).max(1);
    let generous = hep::pagesim::replay_trace(&trace, 1024, pages);
    let tiny = hep::pagesim::replay_trace(&trace, 1024, 1);
    assert!(generous.faults <= pages);
    assert!(tiny.faults > generous.faults * 2);
    // The modeled runtime ordering follows.
    assert!(tiny.modeled_runtime(0.1, 1e-4) > generous.modeled_runtime(0.1, 1e-4));
}

#[test]
fn report_is_consistent_with_metrics() {
    let g = hep::gen::dataset("TW", 1).expect("TW exists").generate();
    let k = 16;
    let mut metrics = PartitionMetrics::new(k, g.num_vertices);
    let report = hep::core::Hep::with_tau(1.0)
        .partition_with_report(&g, k, &mut metrics)
        .expect("partition");
    assert_eq!(report.inmem_edges + report.h2h_edges, g.num_edges());
    assert_eq!(report.partition_sizes.iter().sum::<u64>(), g.num_edges());
    assert_eq!(report.partition_sizes, metrics.edge_counts);
}

#[test]
fn streaming_state_visible_in_partition_sizes() {
    // At tau = 1 a large share of edges go through the streaming phase; the
    // final sizes must still respect the alpha cap.
    let g = hep::gen::dataset("OK", 1).expect("OK exists").generate();
    let k = 32;
    let mut metrics = PartitionMetrics::new(k, g.num_vertices);
    let report = hep::core::Hep::with_tau(1.0)
        .partition_with_report(&g, k, &mut metrics)
        .expect("partition");
    assert!(report.h2h_edges > 0, "tau=1 must stream some edges on OK");
    let cap = (1.05 * g.num_edges() as f64 / k as f64).ceil() as u64;
    assert!(report.partition_sizes.iter().all(|&s| s <= cap));
}
