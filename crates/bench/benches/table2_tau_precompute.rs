//! Table 2: run-time of the memory-footprint pre-computation for τ (§4.4).
//!
//! The pre-computation is one degree pass plus the ingest planner at each
//! grid τ (an `O(|V|)` sum apiece), which must be negligible next to
//! partitioning run-time — that is the claim the table supports.

use hep_bench::report::{Json, Report};
use hep_bench::{banner, load_dataset, run_partitioner};
use hep_metrics::table::{format_bytes, format_secs, Table};
use std::time::Instant;

fn main() {
    banner(
        "Table 2: run-time to pre-compute the memory footprint over a tau grid",
        "τ ∈ {100, 30, 10, 3, 1, 0.3}; compared against one HEP-10 partitioning run (k = 32).",
    );
    let k = 32;
    let grid = [100.0, 30.0, 10.0, 3.0, 1.0, 0.3];
    let mut headers = vec!["graph".to_string(), "precompute".into(), "partitioning".into()];
    headers.extend(grid.iter().map(|tau| format!("peak @ tau {tau}")));
    let mut t = Table::new(headers);
    let mut rows = Vec::new();
    for &name in hep_bench::smoke_subset(&["OK", "IT", "TW", "FR", "UK", "GSH", "WDC"]) {
        let g = load_dataset(name);
        // The estimate the file driver charges at k parts: ingestion plus
        // the phase-2 working state.
        let start = Instant::now();
        let degrees = g.degrees();
        let mean = g.mean_degree();
        let phase2 = hep_core::estimate_stream_overhead_bytes(&degrees, k, 0);
        let peaks: Vec<u64> = grid
            .iter()
            .map(|&tau| {
                hep_core::plan_ingest(&degrees, mean, tau, None, phase2)
                    .expect("grid taus are positive")
                    .estimated_peak_bytes
            })
            .collect();
        let pre = start.elapsed().as_secs_f64();
        let mut hep = hep_core::Hep::with_tau(10.0);
        let run = run_partitioner(&mut hep, &g, k, false).expect("HEP runs");
        let mut row = vec![name.to_string(), format_secs(pre), format_secs(run.seconds)];
        row.extend(peaks.iter().map(|&bytes| format_bytes(bytes)));
        t.row(row);
        rows.push(Json::object([
            ("graph", name.into()),
            ("precompute_secs", pre.into()),
            ("partitioning_secs", run.seconds.into()),
            ("estimated_peak_bytes", Json::Array(peaks.iter().map(|&b| b.into()).collect())),
        ]));
    }
    println!("{}", t.render());
    println!("(paper: 1 s (OK) .. 868 s (WDC), always well below partitioning time)");
    let mut report = Report::new("table2_tau_precompute");
    report.table("tau_precompute", &t);
    report.set("tau_grid", Json::Array(grid.iter().map(|&tau| tau.into()).collect()));
    report.set("rows", Json::Array(rows));
    report.write();
}
