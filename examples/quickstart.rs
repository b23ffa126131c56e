//! Quickstart: generate a power-law graph, partition it with HEP at three τ
//! settings, and print the quality/memory trade-off the system is built
//! around.
//!
//! Run with: `cargo run --release --example quickstart`

use hep::core::Hep;
use hep::metrics::table::format_bytes;
use hep::metrics::{PartitionMetrics, Table};

fn main() {
    // A social-network-like graph: 20k vertices, 150k edges, heavy hubs.
    let graph = hep::gen::GraphSpec::ChungLu { n: 20_000, m: 150_000, gamma: 2.1 }.generate(7);
    let k = 32;
    println!(
        "graph: |V| = {}, |E| = {}, mean degree {:.1}",
        graph.num_vertices,
        graph.num_edges(),
        graph.mean_degree()
    );

    let mut table = Table::new(["tau", "RF", "balance", "in-mem edges", "streamed", "CSR heap"]);
    for tau in [100.0, 10.0, 1.0] {
        let hep = Hep::with_tau(tau);
        let mut metrics = PartitionMetrics::new(k, graph.num_vertices);
        let report =
            hep.partition_with_report(&graph, k, &mut metrics).expect("partitioning succeeds");
        table.row([
            format!("{tau}"),
            format!("{:.2}", metrics.replication_factor()),
            format!("{:.3}", metrics.balance_factor()),
            report.inmem_edges.to_string(),
            report.h2h_edges.to_string(),
            format_bytes(report.csr_heap_bytes as u64),
        ]);
    }
    println!("\n{}", table.render());
    println!("Lower tau => more edges streamed => less memory, slightly higher RF.");
}
