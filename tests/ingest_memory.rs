//! Alloc-tracked property of the out-of-core ingestion pipeline: the
//! actual peak heap of the degree pass + budgeted CSR build stays under
//! [`hep::core::ingest_peak_bytes`]'s accounting, which in turn stays
//! under the memory budget handed to the planner
//! (`HepConfig::memory_budget_bytes`) — including on inputs whose
//! materialized `EdgeList` alone would blow the budget.
//!
//! This binary installs the counting allocator (the reproduction's max-RSS
//! proxy, see `hep::metrics::alloc_track`), so it must stay its own
//! integration-test binary: the tracked regions are process-wide.

use hep::core::nepp::run_nepp;
use hep::core::{
    estimate_stream_overhead_bytes, ingest_file_budgeted, ingest_peak_bytes, plan_ingest,
    stream_h2h, HepConfig, HighReplicas, IngestPlan,
};
use hep::ds::DenseBitset;
use hep::graph::{BinaryEdgeFile, Edge, EdgeList, IoMode, PrunedCsr};
use hep::metrics::alloc_track::{self, CountingAlloc};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The peak counter is process-wide, so each test holds this lock for its
/// whole body: another test's set-up allocations (its graph, its
/// `EdgeList`) must never land inside a measured region.
static REGION: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn region() -> std::sync::MutexGuard<'static, ()> {
    REGION.lock().unwrap_or_else(|p| p.into_inner())
}

struct TempFileGuard(PathBuf);

impl Drop for TempFileGuard {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

fn write_file(graph: &EdgeList, name: &str) -> (BinaryEdgeFile, TempFileGuard) {
    let mut path = std::env::temp_dir();
    path.push(format!("hep_ingest_mem_{}_{}.hepb", std::process::id(), name));
    let file = BinaryEdgeFile::write(&path, graph).unwrap();
    (file, TempFileGuard(path))
}

/// Runs the exact pipeline region the budget governs — the degree pass and
/// the CSR insertion pass of [`ingest_file_budgeted`] — under the counting
/// allocator. Returns the built CSR, the executed plan, the h2h count, and
/// the measured peak heap in bytes. The buffered backend is the
/// conservative one to track: its pass buffers live on the heap, where
/// mmap pages would be invisible to the allocator. The caller holds
/// [`region`].
fn measured_ingest(
    file: &BinaryEdgeFile,
    tau: f64,
    budget: Option<u64>,
) -> (PrunedCsr, IngestPlan, u64, u64) {
    let file = file.clone().with_io_mode(IoMode::Buffered);
    alloc_track::reset_peak();
    let baseline = alloc_track::current_bytes();
    let mut h2h = 0u64;
    let result = ingest_file_budgeted(&file, tau, budget, None, |_| h2h += 1);
    let peak = alloc_track::peak_bytes().saturating_sub(baseline) as u64;
    let (csr, plan) = result.unwrap();
    (csr, plan, h2h, peak)
}

/// `peak ≤ planner estimate ≤ budget` across {tight, 2×tight, unbounded}
/// budgets at two scales — and the budgeted builds are bit-identical to
/// the unbounded one.
#[test]
fn peak_ingestion_within_estimate_within_budget_across_scales() {
    let _region = region();
    let tau = 10.0;
    for (n, m, seed) in [(2_000u32, 16_000u64, 1u64), (20_000, 160_000, 2)] {
        let g = hep::gen::GraphSpec::ChungLu { n, m, gamma: 2.2 }.generate(seed);
        let (file, _guard) = write_file(&g, &format!("scales_{n}"));
        let (base_csr, base_plan, base_h2h, base_peak) = measured_ingest(&file, tau, None);
        assert_eq!(base_plan.tau, tau);
        assert!(
            base_peak <= base_plan.estimated_peak_bytes,
            "n={n}: unbounded peak {base_peak} exceeds estimate {}",
            base_plan.estimated_peak_bytes
        );
        // A budget equal to the estimate (tight) and double that (2×) both
        // plan the requested τ.
        let tight = base_plan.estimated_peak_bytes;
        for budget in [tight, 2 * tight] {
            let (csr, plan, h2h, peak) = measured_ingest(&file, tau, Some(budget));
            assert_eq!(plan.tau, tau, "these budgets are satisfiable without degrading τ");
            assert!(
                plan.estimated_peak_bytes <= budget,
                "n={n}: estimate {} over budget {budget}",
                plan.estimated_peak_bytes
            );
            assert!(
                peak <= plan.estimated_peak_bytes,
                "n={n}, budget {budget}: peak {peak} exceeds estimate {}",
                plan.estimated_peak_bytes
            );
            assert!(peak <= budget, "n={n}: peak {peak} exceeds budget {budget}");
            assert_eq!(csr, base_csr, "budgeted build diverged from unbounded build");
            assert_eq!(h2h, base_h2h);
        }
    }
}

/// [`PrunedCsr::heap_bytes`] is exactly what a built CSR holds on the heap:
/// `8·|V| + 4 + 8·⌈(|V|+1)/64⌉ +
/// 4·(column_entries + 2·|{v ∈ V_l : d(v) > 0}|) + ⌈|V|/64⌉·8` (the
/// segment index's `u32` offsets and `u64` block bases, the degree table,
/// the column array with its two-word size header per non-empty low
/// segment, and the V_h bitset). A per-vertex array added to the CSR
/// without its accounting fails here.
#[test]
fn csr_heap_bytes_equal_allocator_measured_bytes() {
    let _region = region();
    let g = hep::gen::GraphSpec::ChungLu { n: 20_000, m: 160_000, gamma: 2.2 }.generate(2);
    let (file, _guard) = write_file(&g, "heap_bytes");
    for tau in [1.0, 10.0] {
        let (csr, _, _, _) = measured_ingest(&file, tau, None);
        let n = csr.num_vertices() as usize;
        let degrees = &csr.stats().degrees;
        let headers = (0..n).filter(|&v| degrees[v] > 0 && !csr.is_high(v as u32)).count();
        assert!(headers < n, "τ {tau}: some ids are high or isolated");
        let formula = 8 * n
            + 4
            + 8 * (n + 1).div_ceil(64)
            + 4 * (csr.column_entries() as usize + 2 * headers)
            + n.div_ceil(64) * 8;
        assert_eq!(csr.heap_bytes(), formula, "τ {tau}: heap_bytes() against the formula");
        let held = alloc_track::current_bytes();
        drop(csr);
        let freed = held - alloc_track::current_bytes();
        assert_eq!(freed, formula, "τ {tau}: bytes the CSR held against heap_bytes()");
    }
}

/// [`HighReplicas::heap_bytes`] is exactly what NE++'s hand-over to phase 2
/// holds: `⌈n/64⌉·8 + ⌈n/64⌉·4 + |V_h|·⌈k/64⌉·8` (the V_h bitset, the
/// per-word rank prefix and one row per high-degree vertex).
#[test]
fn high_replicas_heap_bytes_equal_allocator_measured_bytes() {
    let _region = region();
    let g = hep::gen::GraphSpec::ChungLu { n: 20_000, m: 160_000, gamma: 2.2 }.generate(2);
    for (tau, k) in [(1.0, 128u32), (10.0, 32), (1.0, 65)] {
        let stats = hep::graph::DegreeStats::new(&g, tau);
        let n = stats.num_vertices() as usize;
        let formula = n.div_ceil(64) * 12 + stats.num_high as usize * (k as usize).div_ceil(64) * 8;
        let replicas = HighReplicas::new(k, stats.high.clone());
        assert_eq!(
            replicas.heap_bytes(),
            formula,
            "τ {tau} k {k}: heap_bytes() against the formula"
        );
        let held = alloc_track::current_bytes();
        drop(replicas);
        let freed = held - alloc_track::current_bytes();
        assert_eq!(freed, formula, "τ {tau} k {k}: bytes the rows held against heap_bytes()");
    }
}

/// NE++ keeps one open secondary set, not `k`: on a graph with few
/// high-degree vertices, the heap `run_nepp` adds above the CSR it
/// consumes stays below the `k·⌈n/64⌉·8` bytes of `k` dense sets alone.
#[test]
fn nepp_state_stays_below_k_dense_secondary_sets() {
    let _region = region();
    let g = hep::gen::GraphSpec::ChungLu { n: 40_000, m: 240_000, gamma: 2.2 }.generate(5);
    let (tau, k) = (10.0, 128u32);
    let csr = PrunedCsr::build(&g, tau);
    let n = csr.num_vertices() as usize;
    let num_high = csr.stats().num_high as usize;
    assert!(num_high * 20 < n, "fixture needs |V_h| ≪ |V|: {num_high} of {n}");
    let dense_sets = k as usize * n.div_ceil(64) * 8;
    alloc_track::reset_peak();
    let baseline = alloc_track::current_bytes();
    let mut assigned = 0u64;
    let mut sink = |_u: u32, _v: u32, _p: u32| assigned += 1;
    let result = run_nepp(csr, k, &HepConfig::with_tau(tau), &mut sink);
    let peak = alloc_track::peak_bytes().saturating_sub(baseline);
    assert_eq!(assigned, result.stats.assigned_edges);
    assert!(
        peak < dense_sets,
        "NE++ peak {peak} above the CSR reaches {dense_sets} (k dense sets)"
    );
}

/// NE++ adds three dense bitsets (`C`, the open `S_cur` and `ever`, the
/// union of the closed sets), V_h's replica rows, the heap's slots, the
/// spill queue `pending` and two per-partition vectors above the CSR it
/// consumes. The heap's position table is the CSR's degree table, so no
/// `4·n`-byte array joins them. The slack for the slots, `pending` and the
/// per-partition vectors measures 43,008 B (1.08·n) at τ 10, k 128 and
/// 33,280 B (0.83·n) at τ 1.25, k 32; it is bounded by `2·n`, below the
/// `4·n` bytes a position table of its own would take.
#[test]
fn nepp_state_above_the_csr_is_three_bitsets_and_the_replica_rows() {
    let _region = region();
    let g = hep::gen::GraphSpec::ChungLu { n: 40_000, m: 240_000, gamma: 2.2 }.generate(5);
    for (tau, k) in [(10.0, 128u32), (1.25, 32)] {
        let csr = PrunedCsr::build(&g, tau);
        let n = csr.num_vertices() as usize;
        let bitsets = 3 * n.div_ceil(64) * 8;
        let replicas = HighReplicas::new(k, csr.stats().high.clone()).heap_bytes();
        let bound = bitsets + replicas + 2 * n;
        alloc_track::reset_peak();
        let baseline = alloc_track::current_bytes();
        let mut assigned = 0u64;
        let mut sink = |_u: u32, _v: u32, _p: u32| assigned += 1;
        let result = run_nepp(csr, k, &HepConfig::with_tau(tau), &mut sink);
        let peak = alloc_track::peak_bytes().saturating_sub(baseline);
        assert_eq!(assigned, result.stats.assigned_edges);
        assert!(
            peak <= bound,
            "τ {tau} k {k}: NE++ peak {peak} above the CSR exceeds {bound} \
             (bitsets {bitsets} + replica rows {replicas} + slack {})",
            2 * n
        );
    }
}

/// When the requested τ does not fit, the planner degrades τ — more
/// edges go to the streaming side, the CSR shrinks into the budget — and
/// the measured peak still honors both the estimate and the budget.
#[test]
fn tau_degrades_rather_than_exceeding_budget() {
    let _region = region();
    let requested = 100.0;
    let g = hep::gen::GraphSpec::ChungLu { n: 3_000, m: 24_000, gamma: 2.2 }.generate(3);
    let (file, _guard) = write_file(&g, "degrade");
    let stats = file.degree_stats(requested).unwrap();
    let n = stats.num_vertices() as u64;
    // A budget between the all-high floor (zero column entries) and the
    // requested τ's footprint: only a lower τ fits.
    let floor = ingest_peak_bytes(n, 0);
    let requested_peak = ingest_peak_bytes(n, stats.low_degree_adjacency_entries());
    assert!(requested_peak > floor, "fixture must have low-degree adjacency to shed");
    let budget = floor + (requested_peak - floor) / 8;
    let plan = plan_ingest(&stats.degrees, stats.mean_degree, requested, Some(budget), 0).unwrap();
    assert!(plan.tau < requested, "planner must degrade τ, got {}", plan.tau);
    let (_, base_plan, base_h2h, _) = measured_ingest(&file, requested, None);
    assert_eq!(base_plan.tau, requested);
    let (csr, ran, h2h, peak) = measured_ingest(&file, requested, Some(budget));
    assert_eq!(ran, plan, "driver must execute the planner's plan");
    assert!(ran.estimated_peak_bytes <= budget);
    assert!(peak <= ran.estimated_peak_bytes, "peak {peak} over estimate");
    assert!(peak <= budget, "peak {peak} over budget {budget}");
    assert!(h2h > base_h2h, "a degraded τ must stream more edges");
    assert_eq!(csr.num_inmem_edges() + h2h, g.num_edges(), "coverage must survive degradation");
}

/// The phase-2 companion bound: the streaming engine's measured peak heap
/// — the replica-mask table and the load buckets — stays under
/// [`estimate_stream_overhead_bytes`], the term `plan_ingest` charges
/// against the budget. The h2h workload, degree table, and seed rows are
/// built outside the measured region (the engine *consumes* the seed rows;
/// the estimate covers everything it allocates beyond them), and the sink
/// is a counting closure so no assignment storage muddies the measurement.
#[test]
fn stream_engine_peak_stays_within_planner_estimate() {
    let _region = region();
    let n = 10_000u32;
    let m = 50_000usize;
    let mut rng = hep::ds::SplitMix64::new(17);
    let mut edges = Vec::with_capacity(m);
    let mut degrees = vec![0u32; n as usize];
    for _ in 0..m {
        // Square one draw toward low ids: hub rows grow toward the k clamp.
        let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
        let b = rng.next_below(n as u64) as u32;
        edges.push(Edge::new(a, b));
        degrees[a as usize] += 1;
        degrees[b as usize] += 1;
    }
    let mut high = DenseBitset::new(n as usize);
    for e in &edges {
        high.set(e.src);
        high.set(e.dst);
    }
    for k in [32u32, 128] {
        let mut seed_sets: Vec<DenseBitset> =
            (0..k).map(|_| DenseBitset::new(n as usize)).collect();
        let mut sizes = vec![0u64; k as usize];
        for v in 0..2_000u32 {
            seed_sets[(v % k) as usize].set(v);
        }
        for (p, s) in sizes.iter_mut().enumerate() {
            *s = (p as u64) * 11;
        }
        let estimate = estimate_stream_overhead_bytes(&degrees, k, 0);
        // The seed rows and sizes are built outside the measured region:
        // the estimate covers the engine's own state, not its inputs.
        let seed_rows = HighReplicas::from_sets(&seed_sets, high.clone());
        drop(seed_sets);
        let seeded_load: u64 = sizes.iter().sum();
        alloc_track::reset_peak();
        let baseline = alloc_track::current_bytes();
        let mut assigned = 0u64;
        let mut sink = |_u: u32, _v: u32, _p: u32| assigned += 1;
        let result = stream_h2h(
            edges.iter().copied(),
            &degrees,
            seed_rows,
            sizes,
            2 * m as u64,
            1.1,
            1.05,
            0,
            &mut sink,
        );
        let peak = alloc_track::peak_bytes().saturating_sub(baseline) as u64;
        let loads = result.unwrap();
        assert_eq!(assigned, m as u64);
        assert_eq!(loads.iter().sum::<u64>(), m as u64 + seeded_load);
        assert!(peak <= estimate, "k {k}: stream peak {peak} exceeds planner estimate {estimate}");
    }
}

/// The acceptance input: a graph whose materialized `EdgeList` alone
/// (8 bytes/edge) exceeds the budget, but whose h2h-heavy structure lets
/// the out-of-core pipeline ingest it far under that budget — the §4.2
/// promise that memory is bounded by the *retained* structure, not |E|.
#[test]
fn ingests_graph_whose_edge_list_exceeds_the_budget() {
    let _region = region();
    // A dense hub clique (all h2h at τ=1: every hub is far above the mean
    // degree) plus degree-1 spokes that keep the mean low.
    let hubs: u32 = 1_500;
    let spokes: u32 = 5_000;
    let mut pairs = Vec::new();
    for a in 0..hubs {
        for b in (a + 1)..hubs {
            pairs.push((a, b));
        }
    }
    for s in 0..spokes {
        pairs.push((hubs + s, s % hubs));
    }
    let g = EdgeList::from_pairs(pairs);
    let (file, _guard) = write_file(&g, "hub_clique");
    let edge_list_bytes = 8 * file.num_edges();
    let budget = 4 << 20;
    assert!(
        edge_list_bytes > 2 * budget,
        "fixture too small: EdgeList is only {edge_list_bytes} bytes"
    );
    let (csr, plan, h2h, peak) = measured_ingest(&file, 1.0, Some(budget));
    assert!(plan.estimated_peak_bytes <= budget);
    assert!(peak <= plan.estimated_peak_bytes, "peak {peak} over estimate");
    assert!(peak <= budget, "peak {peak} exceeds the {budget}-byte budget");
    assert_eq!(csr.num_inmem_edges() + h2h, g.num_edges());
    assert!(
        h2h > file.num_edges() / 2,
        "the clique should stream: {h2h} of {} h2h",
        file.num_edges()
    );
}

/// A multigraph's maximum degree can far exceed |V|. The planner must not
/// allocate anything proportional to it: 1,000,000 copies of one edge over
/// 2 vertices degrade to an all-high plan whose whole peak is the fixed
/// overhead, and the measured peak stays under that estimate.
#[test]
fn multigraph_ingestion_stays_within_estimate_within_budget() {
    let _region = region();
    let mut path = std::env::temp_dir();
    path.push(format!("hep_ingest_mem_{}_multigraph.hepb", std::process::id()));
    let _guard = TempFileGuard(path.clone());
    let mut writer = hep::graph::EdgeFileWriter::create(&path, 2).unwrap();
    let copies = 1_000_000u64;
    for _ in 0..copies {
        writer.push(Edge::new(0, 1));
    }
    let file = writer.finish().unwrap();
    let budget = 4 << 20;
    let (csr, plan, h2h, peak) = measured_ingest(&file, 10.0, Some(budget));
    assert!(plan.tau < 10.0, "8 MB of column entries cannot fit 4 MiB: τ must degrade");
    assert!(plan.estimated_peak_bytes <= budget);
    assert!(peak <= plan.estimated_peak_bytes, "peak {peak} over estimate {plan:?}");
    assert_eq!(csr.num_inmem_edges() + h2h, copies);
}
