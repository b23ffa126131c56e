//! Figure 8: the main evaluation — replication factor, run-time and peak
//! memory for k ∈ {4, 32, 128, 256} across the Table 3 graphs.
//!
//! The partitioner roster per graph follows the paper's panels exactly:
//! the full roster on OK/IT/TW, no ADWISE/METIS on the larger FR/UK, and
//! only HEP/HDRF/DBH on the very large GSH/WDC (where the paper's other
//! baselines hit out-of-time/out-of-memory).

use hep_bench::{banner, hep_configs, ks, load_dataset, run_partitioner, smoke_subset};
use hep_graph::EdgePartitioner;
use hep_metrics::table::{format_bytes, format_secs, Table};

fn roster(name: &str) -> Vec<Box<dyn EdgePartitioner>> {
    let mut v = hep_configs();
    match name {
        "OK" | "IT" | "TW" => v.extend(hep_baselines::standard_baselines()),
        "FR" | "UK" => {
            v.push(Box::new(hep_baselines::Hdrf::default()));
            v.push(Box::new(hep_baselines::Dbh::default()));
            v.push(Box::new(hep_baselines::Sne::default()));
            v.push(Box::new(hep_baselines::Ne::default()));
            v.push(Box::new(hep_baselines::Dne::default()));
        }
        _ => {
            v.push(Box::new(hep_baselines::Hdrf::default()));
            v.push(Box::new(hep_baselines::Dbh::default()));
        }
    }
    v
}

fn main() {
    banner(
        "Figure 8: replication factor / run-time / peak memory",
        "k in {4, 32, 128, 256}; roster per graph follows the paper's panels.",
    );
    let mut report = hep_bench::report::Report::new("fig8_main_eval");
    for &name in smoke_subset(&["OK", "IT", "TW", "FR", "UK", "GSH", "WDC"]) {
        let g = load_dataset(name);
        println!("--- {name}: |V|={}, |E|={} ---", g.num_vertices, g.num_edges());
        for k in ks() {
            let mut t = Table::new(["partitioner", "RF", "time", "peak mem", "alpha"]);
            for mut p in roster(name) {
                let out = run_partitioner(p.as_mut(), &g, k, false)
                    .unwrap_or_else(|e| panic!("{} failed on {name}: {e}", p.name()));
                t.row([
                    out.name,
                    format!("{:.2}", out.rf),
                    format_secs(out.seconds),
                    format_bytes(out.peak_bytes),
                    format!("{:.2}", out.alpha),
                ]);
            }
            println!("k = {k}\n{}", t.render());
            report.table(&format!("{name}_k{k}"), &t);
        }
    }
    println!("(paper: HEP-100/10 track NE's RF at a fraction of the memory; HEP-1");
    println!(" approaches streaming memory while beating streaming RF)");
    report.write();
}
