//! Survey of every partitioner in the workspace on one graph: quality,
//! balance, and run-time side by side — a compact, runnable version of the
//! paper's Figure 8 for your own data.
//!
//! Run with: `cargo run --release --example compare_partitioners [dataset] [k]`
//! where dataset is one of LJ OK BR WI IT TW FR UK GSH WDC (default OK).

use hep::graph::EdgePartitioner;
use hep::metrics::table::format_secs;
use hep::metrics::{PartitionMetrics, Table};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "OK".into());
    let k: u32 = std::env::args().nth(2).and_then(|s| s.parse().ok()).unwrap_or(32);
    let graph = hep::gen::dataset(&name, 1)
        .unwrap_or_else(|| {
            eprintln!("unknown dataset {name}; try {}", hep::gen::TABLE3.join(" "));
            std::process::exit(1);
        })
        .generate();
    println!("{name} analog: |V| = {}, |E| = {}; k = {k}\n", graph.num_vertices, graph.num_edges());

    let mut partitioners: Vec<Box<dyn EdgePartitioner>> = vec![
        Box::new(hep::core::Hep::with_tau(100.0)),
        Box::new(hep::core::Hep::with_tau(10.0)),
        Box::new(hep::core::Hep::with_tau(1.0)),
        Box::new(hep::core::SimpleHybrid::with_tau(1.0)),
        Box::new(hep::baselines::Ne::default()),
        Box::new(hep::baselines::Sne::default()),
        Box::new(hep::baselines::Dne::default()),
        Box::new(hep::baselines::MetisLike::default()),
        Box::new(hep::baselines::Hdrf::default()),
        Box::new(hep::baselines::Adwise::default()),
        Box::new(hep::baselines::Dbh::default()),
        Box::new(hep::baselines::RandomStreaming::default()),
    ];

    let mut table = Table::new(["partitioner", "RF", "alpha", "vertex bal.", "time"]);
    for p in partitioners.iter_mut() {
        let mut metrics = PartitionMetrics::new(k, graph.num_vertices);
        let start = std::time::Instant::now();
        p.partition(&graph, k, &mut metrics).expect("partitioning succeeds");
        let secs = start.elapsed().as_secs_f64();
        table.row([
            p.name(),
            format!("{:.2}", metrics.replication_factor()),
            format!("{:.3}", metrics.balance_factor()),
            format!("{:.3}", metrics.vertex_balance()),
            format_secs(secs),
        ]);
    }
    println!("{}", table.render());
}
