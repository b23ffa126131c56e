//! The three workloads of §5.3: PageRank (all vertices active every
//! iteration — communication-bound), BFS (frontier-driven), and Connected
//! Components (activity decays over time).
//!
//! Per-superstep compute runs concurrently on the `hep-par` pool — the BSP
//! barrier between supersteps is the only synchronization point, exactly as
//! on the simulated cluster. Every parallel step is structured to be
//! bit-identical at any thread count:
//!
//! * PageRank *pulls* rank from neighbors (each task owns a fixed output
//!   range and sums in CSR order) instead of pushing (which would race);
//!   the dangling-mass reduction folds fixed chunks in chunk order, so the
//!   floating-point summation tree never depends on the worker count.
//! * BFS workers read a frozen distance array and propose candidates; a
//!   serial commit in chunk order deduplicates the next frontier.
//! * Connected components relaxes labels with an atomic `fetch_min` —
//!   order-insensitive, so racing workers cannot change the outcome.

use crate::cluster::{ClusterCost, DistributedGraph};
use hep_graph::VertexId;
use std::sync::atomic::{AtomicU32, Ordering};

/// Active vertices per parallel task (constant: the chunk decomposition
/// pins the results across thread counts).
const CHUNK: usize = 4096;

/// Accumulated cost of a simulated run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunCost {
    /// Number of supersteps executed.
    pub supersteps: u64,
    /// Total synchronization messages.
    pub total_msgs: u64,
    /// Simulated wall-clock seconds under the [`ClusterCost`] model.
    pub sim_seconds: f64,
}

impl RunCost {
    fn charge(&mut self, dg: &DistributedGraph, cost: &ClusterCost, active: &[VertexId]) {
        let (compute, traffic, msgs) = dg.superstep_cost(active);
        self.supersteps += 1;
        self.total_msgs += msgs;
        self.sim_seconds +=
            compute as f64 * cost.edge_cost + traffic as f64 * cost.msg_cost + cost.barrier;
    }

    fn merge(&mut self, other: RunCost) {
        self.supersteps += other.supersteps;
        self.total_msgs += other.total_msgs;
        self.sim_seconds += other.sim_seconds;
    }
}

/// PageRank with damping 0.85 for a fixed number of iterations (the paper
/// runs 100). Every vertex is active in every superstep. Returns the exact
/// rank vector and the simulated cost.
pub fn pagerank(dg: &DistributedGraph, iterations: u32, cost: &ClusterCost) -> (Vec<f64>, RunCost) {
    let n = dg.num_vertices() as usize;
    let damping = 0.85;
    let mut rank = vec![1.0 / n as f64; n];
    let mut next = vec![0.0f64; n];
    let all: Vec<VertexId> = (0..n as u32).collect();
    let ranges = hep_par::chunk_ranges(n, CHUNK);
    let pool = hep_par::Pool::current();
    let mut run = RunCost::default();
    for _ in 0..iterations {
        run.charge(dg, cost, &all);
        // Dangling (degree-0) vertices spread their mass uniformly so the
        // ranks stay a probability distribution. Partial sums fold in chunk
        // order: a fixed summation tree.
        let rank_ref = &rank;
        let dangling = pool.par_reduce(
            ranges.len(),
            |i| {
                let (a, b) = ranges[i];
                debug_assert!(a <= b && b <= rank_ref.len(), "chunk ranges partition 0..n");
                let mut s = 0.0f64;
                for (v, &r) in (a..b).zip(rank_ref[a..b].iter()) {
                    if dg.csr.degree(v as u32) == 0 {
                        s += r;
                    }
                }
                s
            },
            0.0f64,
            // par_reduce folds the per-chunk sums in task order on the calling thread: a fixed summation tree at any thread count
            |acc, s| acc + s,
        );
        let base = (1.0 - damping) / n as f64 + damping * dangling / n as f64;
        // Pull phase: each task owns an output range of the double buffer
        // and gathers from its vertices' neighbors in CSR order — no write
        // races, no per-iteration allocation, and the same per-vertex
        // accumulation order as a serial pull.
        hep_par::par_chunks_mut(&mut next, CHUNK, |i, slice| {
            let (a, _) = ranges[i];
            for (off, x) in slice.iter_mut().enumerate() {
                let u = (a + off) as u32;
                let mut acc = base;
                for &v in dg.csr.neighbors(u) {
                    acc += damping * rank_ref[v as usize] / dg.csr.degree(v) as f64;
                }
                *x = acc;
            }
        });
        std::mem::swap(&mut rank, &mut next);
    }
    (rank, run)
}

/// BFS from one seed. Active set per superstep is the frontier. Returns
/// hop distances (`u32::MAX` when unreachable) and the simulated cost.
pub fn bfs_single(
    dg: &DistributedGraph,
    seed: VertexId,
    cost: &ClusterCost,
) -> (Vec<u32>, RunCost) {
    let n = dg.num_vertices() as usize;
    debug_assert!(seed < dg.num_vertices(), "seed vertex out of range");
    let mut dist = vec![u32::MAX; n];
    dist[seed as usize] = 0;
    let mut frontier = vec![seed];
    let mut run = RunCost::default();
    let mut depth = 0u32;
    while !frontier.is_empty() {
        run.charge(dg, cost, &frontier);
        depth += 1;
        // Workers scan a frozen distance array and propose candidates; the
        // serial commit below deduplicates in chunk order, so the frontier
        // (and its order) is the same at any thread count.
        let dist_ref = &dist;
        let candidates = hep_par::par_chunks(&frontier, CHUNK, |_, chunk| {
            let mut found = Vec::new();
            for &v in chunk {
                for &u in dg.csr.neighbors(v) {
                    if dist_ref[u as usize] == u32::MAX {
                        found.push(u);
                    }
                }
            }
            found
        });
        let mut next = Vec::new();
        for c in candidates {
            for u in c {
                if dist[u as usize] == u32::MAX {
                    dist[u as usize] = depth;
                    next.push(u);
                }
            }
        }
        frontier = next;
    }
    (dist, run)
}

/// The paper's BFS workload: sequential runs from `seeds.len()` different
/// seed vertices; costs accumulate.
pub fn bfs(dg: &DistributedGraph, seeds: &[VertexId], cost: &ClusterCost) -> RunCost {
    let mut total = RunCost::default();
    for &s in seeds {
        let (_, c) = bfs_single(dg, s, cost);
        total.merge(c);
    }
    total
}

/// Connected components by min-label propagation; a vertex is active in the
/// superstep after its label changed. Returns the exact component labels and
/// the simulated cost.
pub fn connected_components(dg: &DistributedGraph, cost: &ClusterCost) -> (Vec<u32>, RunCost) {
    let n = dg.num_vertices() as usize;
    let mut label: Vec<u32> = (0..n as u32).collect();
    let mut active: Vec<VertexId> = (0..n as u32).collect();
    let mut run = RunCost::default();
    while !active.is_empty() {
        run.charge(dg, cost, &active);
        // Min-label relaxation with atomic fetch_min: the minimum is
        // order-insensitive, so concurrent workers cannot change the result.
        let relaxed: Vec<AtomicU32> = label.iter().map(|&l| AtomicU32::new(l)).collect();
        let label_ref = &label;
        let relaxed_ref = &relaxed;
        hep_par::par_chunks(&active, CHUNK, |_, chunk| {
            for &v in chunk {
                let lv = label_ref[v as usize];
                for &u in dg.csr.neighbors(v) {
                    relaxed_ref[u as usize].fetch_min(lv, Ordering::Relaxed);
                }
            }
        });
        let new_label: Vec<u32> = relaxed.into_iter().map(AtomicU32::into_inner).collect();
        // Changed set: fixed vertex ranges concatenated in order.
        let new_ref = &new_label;
        let changed_chunks = hep_par::par_chunks(&label, CHUNK, |i, chunk| {
            let base = i * CHUNK;
            let mut changed = Vec::new();
            for (off, &old) in chunk.iter().enumerate() {
                if new_ref[base + off] != old {
                    changed.push((base + off) as u32);
                }
            }
            changed
        });
        label = new_label;
        active = changed_chunks.into_iter().flatten().collect();
    }
    (label, run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::CollectedAssignment;
    use hep_graph::{EdgeList, EdgePartitioner};

    fn load(graph: &EdgeList, k: u32) -> DistributedGraph {
        let mut sink = CollectedAssignment::default();
        hep_baselines::Hdrf::default().partition(graph, k, &mut sink).unwrap();
        DistributedGraph::load(graph, &sink, k)
    }

    /// Sequential reference PageRank on the raw edge list.
    fn reference_pagerank(graph: &EdgeList, iterations: u32) -> Vec<f64> {
        let n = graph.num_vertices as usize;
        let deg = graph.degrees();
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..iterations {
            let dangling: f64 =
                rank.iter().zip(deg.iter()).filter(|(_, &d)| d == 0).map(|(r, _)| r).sum();
            let base = 0.15 / n as f64 + 0.85 * dangling / n as f64;
            let mut next = vec![base; n];
            for e in &graph.edges {
                next[e.dst as usize] += 0.85 * rank[e.src as usize] / deg[e.src as usize] as f64;
                next[e.src as usize] += 0.85 * rank[e.dst as usize] / deg[e.dst as usize] as f64;
            }
            rank = next;
        }
        rank
    }

    #[test]
    fn pagerank_is_a_probability_distribution() {
        // Includes isolated vertices, whose mass must be redistributed.
        let g = EdgeList::with_vertices(60, [(0u32, 1u32), (1, 2), (2, 0)]).unwrap();
        let mut sink = CollectedAssignment::default();
        hep_baselines::Hdrf::default().partition(&g, 2, &mut sink).unwrap();
        let dg = DistributedGraph::load(&g, &sink, 2);
        let (ranks, _) = pagerank(&dg, 30, &ClusterCost::default());
        let sum: f64 = ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "ranks sum to {sum}");
    }

    #[test]
    fn pagerank_matches_reference() {
        let g = hep_gen::GraphSpec::ChungLu { n: 200, m: 1500, gamma: 2.2 }.generate(1);
        let dg = load(&g, 4);
        let (ranks, cost) = pagerank(&dg, 20, &ClusterCost::default());
        let reference = reference_pagerank(&g, 20);
        for (a, b) in ranks.iter().zip(reference.iter()) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
        assert_eq!(cost.supersteps, 20);
        assert!(cost.sim_seconds > 0.0);
    }

    #[test]
    fn pagerank_results_independent_of_partitioning() {
        let g = hep_gen::GraphSpec::ChungLu { n: 200, m: 1500, gamma: 2.2 }.generate(2);
        let a = load(&g, 4);
        let mut sink = CollectedAssignment::default();
        hep_baselines::Dbh::default().partition(&g, 8, &mut sink).unwrap();
        let b = DistributedGraph::load(&g, &sink, 8);
        let (ra, _) = pagerank(&a, 10, &ClusterCost::default());
        let (rb, _) = pagerank(&b, 10, &ClusterCost::default());
        for (x, y) in ra.iter().zip(rb.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn bfs_distances_match_reference() {
        let g = hep_gen::spec::GraphSpec::Grid2d { rows: 8, cols: 8 }.generate(0);
        let dg = load(&g, 4);
        let (dist, cost) = bfs_single(&dg, 0, &ClusterCost::default());
        // Manhattan distance on the grid.
        for r in 0..8u32 {
            for c in 0..8u32 {
                assert_eq!(dist[(r * 8 + c) as usize], r + c);
            }
        }
        assert_eq!(cost.supersteps as u32, 15); // 14 frontiers + last scan... depth 0..14
    }

    #[test]
    fn bfs_unreachable_is_max() {
        let g = hep_gen::spec::GraphSpec::DisconnectedCliques { count: 2, size: 3 }.generate(0);
        let dg = load(&g, 2);
        let (dist, _) = bfs_single(&dg, 0, &ClusterCost::default());
        assert_eq!(dist[1], 1);
        assert_eq!(dist[3], u32::MAX);
    }

    #[test]
    fn cc_labels_match_components() {
        let g = hep_gen::spec::GraphSpec::DisconnectedCliques { count: 5, size: 4 }.generate(0);
        let dg = load(&g, 4);
        let (labels, cost) = connected_components(&dg, &ClusterCost::default());
        for v in 0..20u32 {
            assert_eq!(labels[v as usize], (v / 4) * 4, "vertex {v}");
        }
        assert!(cost.supersteps >= 2);
    }

    #[test]
    fn higher_replication_costs_more_messages() {
        // The same graph partitioned well (HEP) vs poorly (random) must show
        // strictly more sync messages for the poor partitioning.
        let g = hep_gen::community::community_web(
            hep_gen::community::CommunityParams::weblike(2000, 15_000),
            3,
        );
        let k = 8;
        let mut good_sink = CollectedAssignment::default();
        hep_core::Hep::with_tau(10.0).partition(&g, k, &mut good_sink).unwrap();
        let good = DistributedGraph::load(&g, &good_sink, k);
        let mut bad_sink = CollectedAssignment::default();
        hep_baselines::RandomStreaming::default().partition(&g, k, &mut bad_sink).unwrap();
        let bad = DistributedGraph::load(&g, &bad_sink, k);
        assert!(good.replication_factor() < bad.replication_factor());
        let cost = ClusterCost::default();
        let (_, good_cost) = pagerank(&good, 5, &cost);
        let (_, bad_cost) = pagerank(&bad, 5, &cost);
        assert!(
            good_cost.total_msgs < bad_cost.total_msgs,
            "good {} vs bad {}",
            good_cost.total_msgs,
            bad_cost.total_msgs
        );
        assert!(good_cost.sim_seconds < bad_cost.sim_seconds);
    }

    #[test]
    fn multi_seed_bfs_accumulates() {
        let g = hep_gen::GraphSpec::ChungLu { n: 300, m: 2000, gamma: 2.2 }.generate(5);
        let dg = load(&g, 4);
        let cost = ClusterCost::default();
        let single = bfs(&dg, &[0], &cost);
        let triple = bfs(&dg, &[0, 1, 2], &cost);
        assert!(triple.sim_seconds > single.sim_seconds);
        assert!(triple.supersteps > single.supersteps);
    }
}
