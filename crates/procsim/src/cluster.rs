//! The partitioned-graph view of the simulated cluster and its cost model.

use hep_graph::partitioner::CollectedAssignment;
use hep_graph::{Csr, EdgeList, PartitionId, VertexId};

/// Time constants of the simulated cluster. Defaults are calibrated so that
/// the OK-analog PageRank lands in the same order of magnitude as Table 4's
/// seconds; only *relative* comparisons between partitioners matter.
#[derive(Clone, Copy, Debug)]
pub struct ClusterCost {
    /// Seconds per active local edge (compute).
    pub edge_cost: f64,
    /// Seconds per synchronization message.
    pub msg_cost: f64,
    /// Barrier/scheduling latency per superstep, seconds.
    pub barrier: f64,
}

impl Default for ClusterCost {
    fn default() -> Self {
        ClusterCost { edge_cost: 25e-9, msg_cost: 600e-9, barrier: 30e-3 }
    }
}

/// A graph placed on `k` simulated machines by an edge partitioner.
pub struct DistributedGraph {
    /// Exact global adjacency (algorithm semantics).
    pub csr: Csr,
    k: u32,
    /// `replicas[v]`: per machine holding `v`, `(machine, local_degree)`;
    /// the first entry acts as the master replica.
    replicas: Vec<Vec<(PartitionId, u32)>>,
    /// Edges per machine.
    pub machine_edges: Vec<u64>,
}

impl DistributedGraph {
    /// Loads a finished partitioning onto the simulated cluster.
    pub fn load(graph: &EdgeList, assignment: &CollectedAssignment, k: u32) -> Self {
        let csr = Csr::build(graph);
        let mut replicas: Vec<Vec<(PartitionId, u32)>> =
            vec![Vec::new(); graph.num_vertices as usize];
        let mut machine_edges = vec![0u64; k as usize];
        let bump = |v: VertexId, p: PartitionId, replicas: &mut Vec<Vec<(u32, u32)>>| {
            let list = &mut replicas[v as usize];
            match list.iter_mut().find(|(m, _)| *m == p) {
                Some((_, d)) => *d += 1,
                None => list.push((p, 1)),
            }
        };
        for &(e, p) in &assignment.assignments {
            machine_edges[p as usize] += 1;
            bump(e.src, p, &mut replicas);
            bump(e.dst, p, &mut replicas);
        }
        DistributedGraph { csr, k, replicas, machine_edges }
    }

    /// Number of machines (= partitions).
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> u32 {
        self.csr.num_vertices()
    }

    /// Replication factor over covered vertices (sanity checks).
    pub fn replication_factor(&self) -> f64 {
        let covered = self.replicas.iter().filter(|r| !r.is_empty()).count();
        if covered == 0 {
            return 0.0;
        }
        self.replicas.iter().map(|r| r.len() as u64).sum::<u64>() as f64 / covered as f64
    }

    /// Covered-vertex count per machine `|V(p_i)|` (Table 5).
    pub fn covered_counts(&self) -> Vec<u64> {
        let mut counts = vec![0u64; self.k as usize];
        for r in &self.replicas {
            for &(m, _) in r {
                counts[m as usize] += 1;
            }
        }
        counts
    }

    /// Charges one superstep in which exactly `active` vertices compute and
    /// synchronize. Returns `(max_compute, max_traffic, total_msgs)` where
    /// compute counts active local edges per machine and traffic counts
    /// per-machine sent+received messages.
    ///
    /// The per-machine tallies run concurrently on the `hep-par` pool over
    /// fixed chunks of the active set (the BSP barrier is the natural sync
    /// point); the per-chunk integer tallies sum to the same totals at any
    /// thread count.
    pub fn superstep_cost(&self, active: &[VertexId]) -> (u64, u64, u64) {
        const CHUNK: usize = 8192;
        let k = self.k as usize;
        let parts = hep_par::par_chunks(active, CHUNK, |_, chunk| {
            let mut compute = vec![0u64; k];
            let mut traffic = vec![0u64; k];
            let mut msgs = 0u64;
            for &v in chunk {
                let reps = &self.replicas[v as usize];
                if reps.is_empty() {
                    continue;
                }
                let r = reps.len() as u64;
                msgs += 2 * (r - 1);
                let master = reps[0].0;
                // Master exchanges (r-1) partials in and (r-1) updates out.
                traffic[master as usize] += 2 * (r - 1);
                for (i, &(m, local_deg)) in reps.iter().enumerate() {
                    compute[m as usize] += local_deg as u64;
                    if i > 0 {
                        traffic[m as usize] += 2; // one partial out, one update in
                    }
                }
            }
            (compute, traffic, msgs)
        });
        let mut compute = vec![0u64; k];
        let mut traffic = vec![0u64; k];
        let mut total_msgs = 0u64;
        for (c, t, m) in parts {
            for (acc, x) in compute.iter_mut().zip(c) {
                *acc += x;
            }
            for (acc, x) in traffic.iter_mut().zip(t) {
                *acc += x;
            }
            total_msgs += m;
        }
        (
            compute.iter().copied().max().unwrap_or(0),
            traffic.iter().copied().max().unwrap_or(0),
            total_msgs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::AssignSink;

    fn star_two_parts() -> (EdgeList, CollectedAssignment) {
        // Figure 1: hub 0 replicated on both machines.
        let g = EdgeList::from_pairs([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6)]);
        let mut a = CollectedAssignment::default();
        for v in [1, 2, 3] {
            a.assign(0, v, 0);
        }
        for v in [4, 5, 6] {
            a.assign(0, v, 1);
        }
        (g, a)
    }

    #[test]
    fn load_builds_replicas_and_local_degrees() {
        let (g, a) = star_two_parts();
        let dg = DistributedGraph::load(&g, &a, 2);
        assert_eq!(dg.replicas[0].len(), 2);
        assert_eq!(dg.replicas[1].len(), 1);
        assert!((dg.replication_factor() - 8.0 / 7.0).abs() < 1e-12);
        assert_eq!(dg.machine_edges, vec![3, 3]);
        assert_eq!(dg.covered_counts(), vec![4, 4]);
    }

    #[test]
    fn superstep_cost_charges_replica_sync() {
        let (g, a) = star_two_parts();
        let dg = DistributedGraph::load(&g, &a, 2);
        // Only the hub active: r=2 -> 2 messages; compute = max local degree
        // of the hub (3 on each machine).
        let (compute, traffic, msgs) = dg.superstep_cost(&[0u32]);
        assert_eq!(msgs, 2);
        assert_eq!(compute, 3);
        assert!(traffic >= 2);
        // A leaf has one replica: no messages.
        let (_, _, msgs) = dg.superstep_cost(&[1u32]);
        assert_eq!(msgs, 0);
    }

    #[test]
    fn isolated_vertices_cost_nothing() {
        let g = EdgeList::with_vertices(5, [(0, 1)]).unwrap();
        let mut a = CollectedAssignment::default();
        a.assign(0, 1, 0);
        let dg = DistributedGraph::load(&g, &a, 2);
        let (c, t, m) = dg.superstep_cost(&[4u32]);
        assert_eq!((c, t, m), (0, 0, 0));
    }
}
