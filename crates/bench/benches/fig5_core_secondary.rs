//! Figure 5: average degree of vertices in C vs. S \ C at k = 32,
//! normalized to the graph's mean degree.
//!
//! This is the observation NE++'s pruning rests on: vertices that stay in
//! the secondary set until a partition completes have far higher degree than
//! vertices moved to the core — so never expanding via high-degree vertices
//! barely changes the algorithm's behaviour (§3.2.1).

use hep_bench::{banner, load_dataset};
use hep_graph::partitioner::CountingSink;
use hep_metrics::Table;

fn main() {
    banner(
        "Figure 5: avg degree of C vs S\\C at k = 32 (normalized to mean degree)",
        "Computed from an un-pruned NE++ run (tau large), i.e. plain neighbourhood expansion.",
    );
    let mut t = Table::new(["graph", "C", "S\\C"]);
    for &name in hep_bench::smoke_subset(&hep_gen::TABLE3) {
        let g = load_dataset(name);
        // tau = 1e9: nothing is pruned, matching the paper's NE runs.
        let hep = hep_core::Hep::with_tau(1e9);
        let mut sink = CountingSink::default();
        let report = hep.partition_with_report(&g, 32, &mut sink).expect("HEP runs");
        let mean = report.mean_degree;
        t.row([
            name.to_string(),
            format!("{:.2}", report.nepp.core_avg_degree_norm(mean)),
            format!("{:.2}", report.nepp.secondary_avg_degree_norm(mean)),
        ]);
    }
    println!("{}", t.render());
    println!("(paper: S\\C is an order of magnitude above C on most graphs)");
    let mut report = hep_bench::report::Report::new("fig5_core_secondary");
    report.table("avg_degree_core_vs_secondary", &t);
    report.write();
}
