//! Partitioning under a memory budget — the paper's headline capability
//! (§4.4): the planner picks the largest τ whose predicted peak footprint
//! fits the machine (searching down from τ = 100 by halving), then HEP
//! partitions the edge file with it.
//!
//! Run with: `cargo run --release --example memory_budget [budget]`, where
//! `budget` is a byte count with an optional `K`/`M`/`G` suffix (`64M`).

use hep::core::{estimate_stream_overhead_bytes, parse_byte_size, plan_ingest, Hep, HepConfig};
use hep::graph::{BinaryEdgeFile, GraphError};
use hep::metrics::table::format_bytes;
use hep::metrics::PartitionMetrics;

fn main() {
    let budget_arg = std::env::args().nth(1).map(|s| {
        parse_byte_size(&s).filter(|&bytes| bytes > 0).unwrap_or_else(|| {
            eprintln!("invalid budget {s:?}: want a positive byte count such as 1048576 or 64M");
            std::process::exit(1);
        })
    });
    let graph = hep::gen::dataset("TW", 1).expect("TW exists").generate();
    let k = 32;
    println!("TW analog: |V| = {}, |E| = {}", graph.num_vertices, graph.num_edges());

    // Show the whole budget curve first: the peak the planner charges per
    // τ, ingestion plus the phase-2 working state at k parts.
    let degrees = graph.degrees();
    let mean = graph.mean_degree();
    let phase2 = estimate_stream_overhead_bytes(&degrees, k, 0);
    let peak = |tau| {
        plan_ingest(&degrees, mean, tau, None, phase2)
            .expect("tau is positive")
            .estimated_peak_bytes
    };
    println!("\npredicted peak per tau (k = {k}):");
    for tau in [100.0, 30.0, 10.0, 3.0, 1.0, 0.3] {
        println!("  tau = {tau:>5}: {}", format_bytes(peak(tau)));
    }

    let budget = budget_arg.unwrap_or_else(|| peak(10.0));
    println!("\nmemory budget: {}", format_bytes(budget));

    let path =
        std::env::temp_dir().join(format!("hep_example_memory_budget_{}.hepb", std::process::id()));
    let file = BinaryEdgeFile::write(&path, &graph).expect("temp edge file written");
    let hep = Hep {
        config: HepConfig { memory_budget_bytes: Some(budget), ..HepConfig::with_tau(100.0) },
    };
    let mut metrics = PartitionMetrics::new(k, graph.num_vertices);
    let result = hep.partition_file_with_report(&file, k, &mut metrics);
    std::fs::remove_file(&path).ok();
    match result {
        Ok(report) => {
            let plan = report.ingest.expect("file runs report their ingestion plan");
            println!(
                "planner chose tau = {} at {} column pass(es), predicted peak {}",
                plan.tau,
                plan.column_passes,
                format_bytes(plan.estimated_peak_bytes)
            );
            println!(
                "result: RF {:.2}, streamed {} of {} edges, CSR heap {}",
                metrics.replication_factor(),
                report.h2h_edges,
                graph.num_edges(),
                format_bytes(report.csr_heap_bytes as u64)
            );
            assert!(plan.estimated_peak_bytes <= budget, "plan must hold");
        }
        Err(GraphError::BudgetExceeded { required_bytes, .. }) => println!(
            "even the smallest tau needs {}; use pure streaming (HDRF)",
            format_bytes(required_bytes)
        ),
        Err(e) => {
            eprintln!("partitioning failed: {e}");
            std::process::exit(1);
        }
    }
}
