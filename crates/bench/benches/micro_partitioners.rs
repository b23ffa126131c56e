//! Criterion micro-benchmarks: partitioner throughput on a fixed mid-size
//! power-law graph (edges/second at k = 32). Complements Figure 8's
//! wall-clock columns with statistically robust numbers.

use criterion::{black_box, criterion_group, Criterion};
use hep_graph::partitioner::CountingSink;
use hep_graph::{EdgeList, EdgePartitioner};
use std::time::Duration;

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn graph() -> EdgeList {
    hep_gen::GraphSpec::ChungLu { n: 20_000, m: 150_000, gamma: 2.2 }.generate(42)
}

fn bench_partitioners(c: &mut Criterion) {
    let g = graph();
    let k = 32;
    let mut group = c.benchmark_group("partition_150k_edges_k32");
    let mut run = |name: &str, p: &mut dyn EdgePartitioner| {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut sink = CountingSink::default();
                p.partition(&g, k, &mut sink).expect("partitioning succeeds");
                black_box(sink.counts.len())
            })
        });
    };
    run("HEP-10", &mut hep_core::Hep::with_tau(10.0));
    run("HEP-1", &mut hep_core::Hep::with_tau(1.0));
    run("NE", &mut hep_baselines::Ne::default());
    run("SNE", &mut hep_baselines::Sne::default());
    run("HDRF", &mut hep_baselines::Hdrf::default());
    run("DBH", &mut hep_baselines::Dbh::default());
    group.finish();
}

fn bench_csr_build(c: &mut Criterion) {
    let g = graph();
    c.bench_function("pruned_csr_build_150k", |b| {
        b.iter(|| black_box(hep_graph::PrunedCsr::build(&g, 10.0).column_entries()))
    });
    c.bench_function("full_csr_build_150k", |b| {
        b.iter(|| black_box(hep_graph::Csr::build(&g).num_edges()))
    });
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_partitioners, bench_csr_build
}

fn main() {
    benches();
    let mut report = hep_bench::report::Report::new("micro_partitioners");
    report.measurements(&criterion::take_measurements());
    report.write();
}
