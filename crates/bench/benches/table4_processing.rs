//! Tables 4 and 5: distributed graph processing on the simulated cluster.
//!
//! For OK/IT/TW at k = 32: partitioning time, replication factor, and the
//! simulated processing times of PageRank (100 iterations), BFS (10 seeds)
//! and Connected Components, per partitioner. Table 5's vertex-replica
//! balance (std/avg of |V(p_i)|) is printed for the HEP configurations,
//! followed by a per-phase wall-clock breakdown (build / nepp / cleanup /
//! stream) of the HEP runs, so BENCH_*.json trajectories can attribute
//! wins per phase.

use hep_bench::{banner, load_dataset, run_partitioner};
use hep_core::Hep;
use hep_graph::partitioner::CountingSink;
use hep_graph::EdgePartitioner;
use hep_metrics::table::{format_secs, Table};
use hep_procsim::{bfs, connected_components, pagerank, ClusterCost, DistributedGraph};

fn roster() -> Vec<Box<dyn EdgePartitioner>> {
    vec![
        Box::new(hep_core::Hep::with_tau(100.0)),
        Box::new(hep_core::Hep::with_tau(10.0)),
        Box::new(hep_core::Hep::with_tau(1.0)),
        Box::new(hep_baselines::Ne::default()),
        Box::new(hep_baselines::Sne::default()),
        Box::new(hep_baselines::Hdrf::default()),
        Box::new(hep_baselines::Dbh::default()),
    ]
}

fn main() {
    banner(
        "Tables 4 & 5: simulated distributed graph processing (k = 32)",
        "PageRank 100 iterations, BFS from 10 seeds, Connected Components;\n\
         simulated GAS cluster (see hep-procsim docs for the cost model).",
    );
    let k = 32;
    let cost = ClusterCost::default();
    // Smoke mode trims the workloads along with the dataset list.
    let (pr_iters, num_seeds) = if hep_bench::test_mode() { (5, 2) } else { (100, 10) };
    let mut report = hep_bench::report::Report::new("table4_processing");
    for &name in hep_bench::smoke_subset(&["OK", "IT", "TW"]) {
        let g = load_dataset(name);
        println!("--- {name} ---");
        let mut t4 = Table::new(["partitioner", "part. time", "RF", "PageRank", "BFS", "CC"]);
        let mut t5 = Table::new(["partitioner", "vertex balance (std/avg)"]);
        for mut p in roster() {
            let out = run_partitioner(p.as_mut(), &g, k, true)
                .unwrap_or_else(|e| panic!("{} failed: {e}", p.name()));
            let assignment = out.collected.as_ref().expect("collected");
            let dg = DistributedGraph::load(&g, assignment, k);
            let (_, pr) = pagerank(&dg, pr_iters, &cost);
            let seeds: Vec<u32> = (0..num_seeds).map(|i| (i * 7919) % g.num_vertices).collect();
            let bfs_cost = bfs(&dg, &seeds, &cost);
            let (_, cc) = connected_components(&dg, &cost);
            t4.row([
                out.name.clone(),
                format_secs(out.seconds),
                format!("{:.2}", out.rf),
                format_secs(pr.sim_seconds),
                format_secs(bfs_cost.sim_seconds),
                format_secs(cc.sim_seconds),
            ]);
            if out.name.starts_with("HEP") {
                t5.row([out.name, format!("{:.3}", out.vertex_balance)]);
            }
        }
        println!("{}", t4.render());
        println!("Table 5 (vertex balancing):\n{}", t5.render());
        report.table(&format!("processing_{name}"), &t4);
        report.table(&format!("vertex_balance_{name}"), &t5);
        // Phase-level timing of the HEP pipeline.
        let mut tp = Table::new(["config", "build", "nepp", "cleanup", "stream"]);
        for tau in [100.0, 10.0, 1.0] {
            let mut sink = CountingSink::default();
            let report = Hep::with_tau(tau)
                .partition_with_report(&g, k, &mut sink)
                .unwrap_or_else(|e| panic!("HEP-{tau} failed: {e}"));
            let t = report.timings;
            tp.row([
                format!("HEP-{tau}"),
                format_secs(t.build_secs),
                format_secs(t.nepp_secs),
                format_secs(t.cleanup_secs),
                format_secs(t.stream_secs),
            ]);
        }
        println!("HEP phase timings:\n{}", tp.render());
        report.table(&format!("phase_timings_{name}"), &tp);
    }
    println!("(paper: lowest total time usually HEP; DBH wins when processing is short;");
    println!(" on IT, balancing matters more than RF once RF saturates near 1)");
    report.write();
}
