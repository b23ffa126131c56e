//! Shared experiment plumbing: dataset loading (scaled by `HEP_SCALE`),
//! timed partitioner runs with metrics/validity/peak-memory capture, and the
//! counting allocator installed for every bench binary that links this crate.

#![expect(
    clippy::disallowed_methods,
    clippy::expect_used,
    clippy::panic,
    reason = "the experiment harness times its runs and aborts a broken experiment; no partitioner reads it"
)]

pub mod report;

use hep_graph::partitioner::{CollectedAssignment, TeeSink};
use hep_graph::{EdgeList, EdgePartitioner, GraphError};
use hep_metrics::{alloc_track, PartitionMetrics};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Every bench binary measures peak live bytes through this allocator.
#[global_allocator]
static ALLOC: alloc_track::CountingAlloc = alloc_track::CountingAlloc;

/// True when the binary was invoked with `--test` (`cargo bench -- --test`):
/// the table/figure binaries then run a smoke-sized experiment — the
/// smallest `HEP_SCALE`, a reduced dataset/k matrix — instead of the full
/// laptop-scale evaluation, mirroring the criterion stand-in's smoke mode.
pub fn test_mode() -> bool {
    std::env::args().any(|a| a == "--test")
}

/// Dataset scale factor from the `HEP_SCALE` environment variable
/// (default 1). Applies to all Table 3 analogs. Smoke runs (`--test`)
/// force the smallest scale regardless of the environment.
pub fn scale() -> u32 {
    if test_mode() {
        return 1;
    }
    hep_ds::env_registry::read("HEP_SCALE").and_then(|s| s.parse().ok()).unwrap_or(1).max(1)
}

/// The experiment's dataset list, truncated to its first entry in smoke
/// mode so every binary still exercises its full code path once.
pub fn smoke_subset<'a>(names: &'a [&'a str]) -> &'a [&'a str] {
    if test_mode() && !names.is_empty() {
        &names[..1]
    } else {
        names
    }
}

/// The partition counts to evaluate: the paper's four, or just `k = 4` in
/// smoke mode.
pub fn ks() -> Vec<u32> {
    if test_mode() {
        vec![4]
    } else {
        PAPER_KS.to_vec()
    }
}

/// Loads (and caches per process) a Table 3 dataset analog by name.
pub fn load_dataset(name: &str) -> Arc<EdgeList> {
    static CACHE: OnceLock<Mutex<HashMap<String, Arc<EdgeList>>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let mut guard = cache.lock().expect("cache lock");
    guard
        .entry(name.to_string())
        .or_insert_with(|| {
            let d =
                hep_gen::dataset(name, scale()).unwrap_or_else(|| panic!("unknown dataset {name}"));
            Arc::new(d.generate())
        })
        .clone()
}

/// Everything an experiment table needs from one partitioning run.
pub struct RunOutcome {
    /// Partitioner display name.
    pub name: String,
    /// Wall-clock seconds of the partitioning run (including graph
    /// ingestion, as in §5.1).
    pub seconds: f64,
    /// Replication factor.
    pub rf: f64,
    /// Edge balance factor α.
    pub alpha: f64,
    /// Vertex-replica balance std/avg (Table 5).
    pub vertex_balance: f64,
    /// Peak live bytes during the run (max-RSS proxy), aggregated across
    /// every allocating thread including `hep-par` workers.
    pub peak_bytes: u64,
    /// `hep-par` worker count the run executed with (`HEP_THREADS`);
    /// results are identical at any value, run-time is not.
    pub threads: usize,
    /// Full assignment, when requested (procsim input).
    pub collected: Option<CollectedAssignment>,
}

/// Runs one partitioner with metrics, validity checking and peak-memory
/// tracking. `collect` keeps the full assignment (needed by procsim and by
/// the validity check; costs 12 bytes/edge).
pub fn run_partitioner(
    partitioner: &mut dyn EdgePartitioner,
    graph: &EdgeList,
    k: u32,
    collect: bool,
) -> Result<RunOutcome, GraphError> {
    let mut metrics = PartitionMetrics::new(k, graph.num_vertices);
    let baseline = alloc_track::current_bytes();
    alloc_track::reset_peak();
    let start = Instant::now();
    let collected = if collect {
        let mut collected = CollectedAssignment::default();
        {
            let mut tee = TeeSink { first: &mut metrics, second: &mut collected };
            partitioner.partition(graph, k, &mut tee)?;
        }
        Some(collected)
    } else {
        partitioner.partition(graph, k, &mut metrics)?;
        None
    };
    let seconds = start.elapsed().as_secs_f64();
    let peak_bytes = alloc_track::peak_bytes().saturating_sub(baseline) as u64;
    if let Some(c) = &collected {
        if let Err(msg) = hep_metrics::validate_assignment(graph, c, k) {
            panic!("{} produced an invalid partitioning: {msg}", partitioner.name());
        }
    } else {
        assert_eq!(
            metrics.total_edges(),
            graph.num_edges(),
            "{} did not assign every edge",
            partitioner.name()
        );
    }
    Ok(RunOutcome {
        name: partitioner.name(),
        seconds,
        rf: metrics.replication_factor(),
        alpha: metrics.balance_factor(),
        vertex_balance: metrics.vertex_balance(),
        peak_bytes,
        threads: hep_par::threads(),
        collected,
    })
}

/// The paper's evaluated partition counts (§5.1).
pub const PAPER_KS: [u32; 4] = [4, 32, 128, 256];

/// HEP at the paper's three τ settings.
pub fn hep_configs() -> Vec<Box<dyn EdgePartitioner>> {
    vec![
        Box::new(hep_core::Hep::with_tau(100.0)),
        Box::new(hep_core::Hep::with_tau(10.0)),
        Box::new(hep_core::Hep::with_tau(1.0)),
    ]
}

/// Prints the standard experiment banner.
pub fn banner(title: &str, detail: &str) {
    println!("\n=== {title} ===");
    println!("{detail}");
    println!(
        "dataset scale: HEP_SCALE={} (synthetic Table 3 analogs); HEP_THREADS={}{}\n",
        scale(),
        hep_par::threads(),
        if test_mode() { "; SMOKE MODE (--test): reduced matrix" } else { "" }
    );
}
