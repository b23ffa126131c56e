//! Table 6: paging vs. hybrid partitioning (§5.5).
//!
//! NE++ runs with a recorded column-array access trace on the OK graph at
//! k = 32; an LRU page cache replays the trace at shrinking memory limits,
//! counting hard faults — the simulated analog of the paper's cgroup + SSD
//! swap setup. HEP-1's footprint is printed for contrast: it fits in the
//! smallest budget with zero faults by *not* keeping those edges in memory.

use hep_bench::{banner, load_dataset};
use hep_graph::partitioner::CountingSink;
use hep_metrics::table::{format_bytes, format_secs, Table};
use hep_pagesim::replay_trace;
use std::time::Instant;

fn main() {
    banner(
        "Table 6: performance of paging on the OK graph (k = 32)",
        "NE++ (tau=100) trace replayed through an LRU page cache; 4 KiB pages,\n\
         100 us fault penalty (SSD random read).",
    );
    let g = load_dataset("OK");
    let mut config = hep_core::HepConfig::with_tau(100.0);
    config.record_trace = true;
    let hep = hep_core::Hep { config };
    let mut sink = CountingSink::default();
    let start = Instant::now();
    let report = hep.partition_with_report(&g, 32, &mut sink).expect("HEP runs");
    let cpu_seconds = start.elapsed().as_secs_f64();
    let trace = report.trace.expect("trace recorded");
    let words_per_page = 1024u64; // 4 KiB pages of u32 entries
    let column_bytes = report.inmem_edges * 2 * 4;
    let total_pages = column_bytes.div_ceil(4096).max(1);
    let mut t = Table::new(["mem. limit", "limit/col.array", "run-time (model)", "hard faults"]);
    let percents: &[u64] = if hep_bench::test_mode() {
        &[100, 50, 10]
    } else {
        &[100, 90, 80, 70, 60, 50, 40, 30, 20, 10]
    };
    for &percent in percents {
        let pages = (total_pages * percent / 100).max(1);
        let stats = replay_trace(&trace, words_per_page, pages);
        t.row([
            format_bytes(pages * 4096),
            format!("{percent}%"),
            format_secs(stats.modeled_runtime(cpu_seconds, 100e-6)),
            stats.faults.to_string(),
        ]);
    }
    println!("{}", t.render());
    let mut report = hep_bench::report::Report::new("table6_paging");
    report.table("paging", &t);
    // The hybrid alternative at the same budget.
    let hep1 = hep_core::Hep::with_tau(1.0);
    let mut sink1 = CountingSink::default();
    let start1 = Instant::now();
    let report1 = hep1.partition_with_report(&g, 32, &mut sink1).expect("HEP-1 runs");
    let t1 = start1.elapsed().as_secs_f64();
    println!(
        "HEP-1 for contrast: CSR heap {} (measured), run-time {}, zero faults",
        format_bytes(report1.csr_heap_bytes as u64),
        format_secs(t1),
    );
    report.set("hep1_csr_heap_bytes", report1.csr_heap_bytes);
    report.set("hep1_secs", t1);
    report.set("nepp_cpu_secs", cpu_seconds);
    report.write();
    println!("(paper: 42 s / 61 K faults at 1000 MB -> 1736 s / 5.79 M faults at 400 MB,");
    println!(" while HEP-1 runs in 45 s within 417 MB without any hard fault)");
}
