//! Empirical scaling check supporting Table 1's complexity claims: HEP's
//! run-time should grow near-linearly in |E| (the `O(|E|·(log|V| + k))`
//! bound with its pessimistic heap constant rarely binding), while HDRF is
//! exactly Θ(|E|·k).
//!
//! Also measures the `hep-par` thread scaling of the converted layers at
//! `HEP_SCALE`-sized inputs: the generators and metrics scoring
//! (embarrassingly parallel) — the same workload at 1/2/4/8 workers, with
//! outputs that are bit-identical by construction; only wall-clock may
//! differ. The graph build (degree pass + pruned-CSR construction) is
//! serial and timed once at the same input size.

use criterion::{black_box, criterion_group, BenchmarkId, Criterion};
use hep_graph::partitioner::{CollectedAssignment, CountingSink};
use hep_graph::{DegreeStats, EdgePartitioner, PrunedCsr};
use hep_metrics::PartitionMetrics;
use std::time::Duration;

/// Thread counts for the serial-vs-parallel comparisons.
const THREAD_STEPS: [usize; 4] = [1, 2, 4, 8];

fn configured() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1))
}

fn bench_scaling_in_edges(c: &mut Criterion) {
    let mut group = c.benchmark_group("scale_edges_k32");
    for m in [25_000u64, 50_000, 100_000, 200_000] {
        let g = hep_gen::GraphSpec::ChungLu { n: (m / 8) as u32, m, gamma: 2.2 }.generate(7);
        group.bench_with_input(BenchmarkId::new("HEP-10", m), &g, |b, g| {
            b.iter(|| {
                let mut sink = CountingSink::default();
                hep_core::Hep::with_tau(10.0).partition(g, 32, &mut sink).unwrap();
                black_box(sink.counts.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("HDRF", m), &g, |b, g| {
            b.iter(|| {
                let mut sink = CountingSink::default();
                hep_baselines::Hdrf::default().partition(g, 32, &mut sink).unwrap();
                black_box(sink.counts.len())
            })
        });
    }
    group.finish();
}

fn bench_scaling_in_k(c: &mut Criterion) {
    let g = hep_gen::GraphSpec::ChungLu { n: 12_000, m: 100_000, gamma: 2.2 }.generate(9);
    let mut group = c.benchmark_group("scale_k_100k_edges");
    for k in [4u32, 16, 64, 256] {
        group.bench_with_input(BenchmarkId::new("HEP-10", k), &k, |b, &k| {
            b.iter(|| {
                let mut sink = CountingSink::default();
                hep_core::Hep::with_tau(10.0).partition(&g, k, &mut sink).unwrap();
                black_box(sink.counts.len())
            })
        });
        group.bench_with_input(BenchmarkId::new("HDRF", k), &k, |b, &k| {
            b.iter(|| {
                let mut sink = CountingSink::default();
                hep_baselines::Hdrf::default().partition(&g, k, &mut sink).unwrap();
                black_box(sink.counts.len())
            })
        });
    }
    group.finish();
}

fn bench_parallel_generators(c: &mut Criterion) {
    let scale = hep_bench::scale();
    let m = 400_000u64 * scale as u64;
    let n = (m / 12) as u32;
    let mut group = c.benchmark_group(&format!("par_gen_{}k_edges", m / 1000));
    for threads in THREAD_STEPS {
        group.bench_with_input(BenchmarkId::new("chung_lu", threads), &threads, |b, &t| {
            hep_par::set_threads(t);
            b.iter(|| black_box(hep_gen::chunglu::chung_lu(n, m, 2.2, 7)).num_edges())
        });
        group.bench_with_input(BenchmarkId::new("rmat", threads), &threads, |b, &t| {
            hep_par::set_threads(t);
            b.iter(|| {
                black_box(hep_gen::rmat::rmat(18, m, hep_gen::rmat::RmatParams::graph500(), 7))
                    .num_edges()
            })
        });
    }
    hep_par::set_threads(0);
    group.finish();
}

fn bench_parallel_metrics(c: &mut Criterion) {
    let scale = hep_bench::scale();
    let m = 400_000u64 * scale as u64;
    let g = hep_gen::GraphSpec::ChungLu { n: (m / 12) as u32, m, gamma: 2.2 }.generate(3);
    let k = 32;
    let mut collected = CollectedAssignment::default();
    hep_baselines::Hdrf::default().partition(&g, k, &mut collected).unwrap();
    let mut group = c.benchmark_group(&format!("par_metrics_{}k_edges", m / 1000));
    for threads in THREAD_STEPS {
        group.bench_with_input(BenchmarkId::new("score_replay", threads), &threads, |b, &t| {
            hep_par::set_threads(t);
            b.iter(|| {
                let metrics = PartitionMetrics::from_assignment(k, g.num_vertices, &collected);
                black_box(metrics.replication_factor())
            })
        });
        group.bench_with_input(BenchmarkId::new("validate", threads), &threads, |b, &t| {
            hep_par::set_threads(t);
            b.iter(|| black_box(hep_metrics::validate_assignment(&g, &collected, k)).is_ok())
        });
    }
    hep_par::set_threads(0);
    group.finish();
}

fn bench_graph_build(c: &mut Criterion) {
    let scale = hep_bench::scale();
    let m = 400_000u64 * scale as u64;
    let g = hep_gen::GraphSpec::ChungLu { n: (m / 12) as u32, m, gamma: 2.2 }.generate(5);
    let mut group = c.benchmark_group(&format!("build_{}k_edges", m / 1000));
    // The degree pass and the CSR build are serial: no thread dimension.
    group.bench_function("degree_pass", |b| {
        b.iter(|| black_box(DegreeStats::new(&g, 10.0)).num_high)
    });
    // Stats computed once outside the loop: this row isolates the CSR
    // construction (the degree pass has its own row above); the O(|V|)
    // clone is noise next to the O(|E|) build.
    let stats = DegreeStats::new(&g, 10.0);
    group.bench_function("csr_build", |b| {
        b.iter(|| {
            let mut h2h = 0u64;
            let pass = || Ok(g.edges.iter().copied().map(Ok));
            let csr = PrunedCsr::build_from_passes(stats.clone(), pass, |_| h2h += 1).unwrap();
            black_box(csr.column_entries() + h2h)
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = configured();
    targets = bench_scaling_in_edges, bench_scaling_in_k,
        bench_parallel_generators, bench_parallel_metrics,
        bench_graph_build
}

fn main() {
    benches();
    let mut report = hep_bench::report::Report::new("micro_scaling");
    report.measurements(&criterion::take_measurements());
    report.write();
}
