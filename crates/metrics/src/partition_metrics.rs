//! Partitioning quality metrics (paper §2 and §5.1).
//!
//! [`PartitionMetrics`] is a *sharded accumulator*: independent instances
//! built over disjoint slices of an assignment can be [`merged`] into the
//! metrics of the whole — every ingredient (covered-vertex bitsets, edge
//! counts) is a commutative monoid. [`PartitionMetrics::from_assignment`]
//! uses that to replay a [`CollectedAssignment`] in parallel on the
//! `hep-par` pool with bit-identical results at any thread count.
//!
//! [`merged`]: PartitionMetrics::merge
//! [`CollectedAssignment`]: hep_graph::partitioner::CollectedAssignment

use hep_ds::DenseBitset;
use hep_graph::degrees::degree_bucket;
use hep_graph::partitioner::CollectedAssignment;
use hep_graph::{AssignSink, PartitionId, VertexId};

/// Assignments per parallel replay chunk (constant: the decomposition must
/// not depend on the worker count).
const REPLAY_CHUNK: usize = 65_536;

/// Accumulates metrics as a partitioner emits assignments.
#[derive(Clone, Debug)]
pub struct PartitionMetrics {
    k: u32,
    /// `V(p_i)`: vertices covered by each partition.
    covered: Vec<DenseBitset>,
    /// Edge count per partition.
    pub edge_counts: Vec<u64>,
    total_edges: u64,
}

impl PartitionMetrics {
    /// Empty metrics for `k` partitions over `num_vertices` ids.
    pub fn new(k: u32, num_vertices: u32) -> Self {
        PartitionMetrics {
            k,
            covered: (0..k).map(|_| DenseBitset::new(num_vertices as usize)).collect(),
            edge_counts: vec![0; k as usize],
            total_edges: 0,
        }
    }

    /// Number of partitions.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Folds another accumulator (built over a disjoint slice of the same
    /// assignment) into `self`: bitset unions and count sums. Panics if the
    /// two were created with different `k` or vertex-id capacities.
    pub fn merge(&mut self, other: &PartitionMetrics) {
        assert_eq!(self.k, other.k, "partition count mismatch");
        assert_eq!(
            self.covered.first().map(|b| b.capacity()),
            other.covered.first().map(|b| b.capacity()),
            "vertex-id capacity mismatch: accumulators must share num_vertices"
        );
        for (mine, theirs) in self.covered.iter_mut().zip(other.covered.iter()) {
            mine.union_with(theirs);
        }
        for (mine, theirs) in self.edge_counts.iter_mut().zip(other.edge_counts.iter()) {
            *mine += theirs;
        }
        self.total_edges += other.total_edges;
    }

    /// Scores a finished assignment by replaying it in parallel: fixed
    /// chunks of the assignment feed per-chunk accumulators, which are then
    /// merged per partition on the pool. Equivalent to (and bit-identical
    /// with) feeding every assignment through [`AssignSink::assign`]
    /// serially, at any `HEP_THREADS` setting.
    pub fn from_assignment(k: u32, num_vertices: u32, assignment: &CollectedAssignment) -> Self {
        let shards = hep_par::par_chunks(&assignment.assignments, REPLAY_CHUNK, |_, chunk| {
            let mut acc = PartitionMetrics::new(k, num_vertices);
            for &(e, p) in chunk {
                acc.assign(e.src, e.dst, p);
            }
            acc
        });
        if shards.len() == 1 {
            // hep-lint: allow(HL007) -- guarded by the len() == 1 check on the previous line
            return shards.into_iter().next().expect("one shard");
        }
        let mut merged = PartitionMetrics::new(k, num_vertices);
        if shards.is_empty() {
            return merged;
        }
        // Merge bitsets per partition on the pool (each task owns one
        // partition id, so no two tasks touch the same bitset).
        merged.covered = hep_par::Pool::current().par_map(k as usize, |p| {
            let mut bs = shards[0].covered[p].clone();
            for shard in &shards[1..] {
                bs.union_with(&shard.covered[p]);
            }
            bs
        });
        for shard in &shards {
            for (mine, theirs) in merged.edge_counts.iter_mut().zip(shard.edge_counts.iter()) {
                *mine += theirs;
            }
            merged.total_edges += shard.total_edges;
        }
        merged
    }

    /// Total edges assigned so far.
    pub fn total_edges(&self) -> u64 {
        self.total_edges
    }

    /// Per-vertex replica counts (number of partitions covering each
    /// vertex): one serial scan of the `k` cover sets, word by word.
    pub fn replica_counts(&self) -> Vec<u32> {
        let n = self.covered.first().map_or(0, |b| b.capacity());
        let mut counts = vec![0u32; n];
        for set in &self.covered {
            for (wi, &word) in set.words().iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    counts[(wi << 6) + word.trailing_zeros() as usize] += 1;
                    word &= word - 1;
                }
            }
        }
        counts
    }

    /// Replication factor `RF = Σ_i |V(p_i)| / |V_covered|` (§2). The
    /// denominator is the set of vertices incident to at least one assigned
    /// edge, which equals the paper's `|V|` on graphs without isolated
    /// vertices.
    ///
    /// Word-level: the numerator is a popcount per cover set, the
    /// denominator one OR-and-popcount sweep over the family
    /// ([`DenseBitset::union_count`]) — no per-vertex replica array is
    /// materialized. Exactly equal to the per-vertex computation (integer
    /// sums, same division).
    pub fn replication_factor(&self) -> f64 {
        let total: u64 = self.covered.iter().map(|s| s.count_ones() as u64).sum();
        let covered = DenseBitset::union_count(&self.covered);
        if covered == 0 {
            return 0.0;
        }
        total as f64 / covered as f64
    }

    /// Edge balance factor `α = max_i |p_i| · k / |E|` (§2's constraint is
    /// `|p_i| ≤ α |E| / k`).
    pub fn balance_factor(&self) -> f64 {
        if self.total_edges == 0 {
            return 0.0;
        }
        // hep-lint: allow(HL007) -- constructors reject k == 0, so edge_counts is non-empty
        let max = *self.edge_counts.iter().max().expect("k >= 1");
        max as f64 * self.k as f64 / self.total_edges as f64
    }

    /// Vertex-replica balance: `std / mean` of `|V(p_i)|` across partitions
    /// (Table 5's metric; lower is more balanced).
    pub fn vertex_balance(&self) -> f64 {
        let sizes: Vec<f64> = self.covered.iter().map(|s| s.count_ones() as f64).collect();
        let mean = sizes.iter().sum::<f64>() / sizes.len() as f64;
        if mean == 0.0 {
            return 0.0;
        }
        let var = sizes.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / sizes.len() as f64;
        var.sqrt() / mean
    }

    /// Average replication factor per degree bucket `[1,10], [11,100], ...`
    /// (Figure 2). Returns `(avg_rf, vertex_count)` per bucket; buckets with
    /// no vertices report 0.
    ///
    /// `degrees` may be longer than the vertex-id capacity the metrics
    /// were created with: the excess ids cannot have been covered by any
    /// partition, so they contribute a replica count of 0 to their bucket
    /// instead of panicking on an out-of-bounds index.
    pub fn degree_bucket_rf(&self, degrees: &[u32]) -> Vec<(f64, u64)> {
        let counts = self.replica_counts();
        let max_bucket = degrees.iter().map(|&d| degree_bucket(d)).max().unwrap_or(0);
        let mut sums = vec![0u64; max_bucket + 1];
        let mut nums = vec![0u64; max_bucket + 1];
        for (v, &d) in degrees.iter().enumerate() {
            if d == 0 {
                continue;
            }
            let b = degree_bucket(d);
            sums[b] += counts.get(v).copied().unwrap_or(0) as u64;
            nums[b] += 1;
        }
        sums.into_iter()
            .zip(nums)
            .map(|(s, n)| if n == 0 { (0.0, 0) } else { (s as f64 / n as f64, n) })
            .collect()
    }

    /// Covered-vertex counts per partition `|V(p_i)|`.
    pub fn covered_counts(&self) -> Vec<u64> {
        self.covered.iter().map(|s| s.count_ones() as u64).collect()
    }
}

impl AssignSink for PartitionMetrics {
    fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        self.covered[p as usize].set(u);
        self.covered[p as usize].set(v);
        self.edge_counts[p as usize] += 1;
        self.total_edges += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_star_example() {
        // Figure 1: star 0-(1,2,3), 0-(4,5,6) split into two partitions.
        // Vertex 0 is replicated twice; all others once. RF = 8/7.
        let mut m = PartitionMetrics::new(2, 7);
        for v in [1, 2, 3] {
            m.assign(0, v, 0);
        }
        for v in [4, 5, 6] {
            m.assign(0, v, 1);
        }
        assert!((m.replication_factor() - 8.0 / 7.0).abs() < 1e-12);
        assert_eq!(m.balance_factor(), 1.0);
        assert_eq!(m.covered_counts(), vec![4, 4]);
    }

    #[test]
    fn replica_counts_are_distinct_partitions() {
        let mut m = PartitionMetrics::new(3, 4);
        m.assign(0, 1, 0);
        m.assign(0, 1, 0); // same partition again: no extra replica
        m.assign(0, 2, 2);
        assert_eq!(m.replica_counts(), vec![2, 1, 1, 0]);
    }

    #[test]
    fn balance_factor_detects_imbalance() {
        let mut m = PartitionMetrics::new(2, 10);
        m.assign(0, 1, 0);
        m.assign(1, 2, 0);
        m.assign(2, 3, 0);
        m.assign(4, 5, 1);
        assert!((m.balance_factor() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn vertex_balance_zero_when_equal() {
        let mut m = PartitionMetrics::new(2, 8);
        m.assign(0, 1, 0);
        m.assign(2, 3, 1);
        assert_eq!(m.vertex_balance(), 0.0);
        m.assign(4, 5, 1);
        assert!(m.vertex_balance() > 0.0);
    }

    #[test]
    fn degree_bucket_rf_buckets_correctly() {
        let mut m = PartitionMetrics::new(2, 4);
        // Vertex 0: deg 5 (bucket 0), replicated twice. Vertex 1: deg 50
        // (bucket 1), once. Vertices 2, 3: deg 1, once each.
        m.assign(0, 1, 0);
        m.assign(0, 2, 1);
        m.assign(1, 3, 0);
        let degrees = vec![5, 50, 1, 1];
        let buckets = m.degree_bucket_rf(&degrees);
        assert_eq!(buckets.len(), 2);
        assert!((buckets[0].0 - (2 + 1 + 1) as f64 / 3.0).abs() < 1e-12);
        assert_eq!(buckets[0].1, 3);
        assert_eq!(buckets[1], (1.0, 1));
    }

    #[test]
    fn word_level_rf_equals_per_vertex_rf() {
        // The word-level numerator/denominator must agree exactly with the
        // materialized per-vertex replica counts.
        let mut m = PartitionMetrics::new(5, 300);
        for i in 0..280u32 {
            m.assign(i, (i * 7 + 1) % 300, i % 5);
            m.assign(i, (i * 13 + 2) % 300, (i * 3) % 5);
        }
        let counts = m.replica_counts();
        let covered = counts.iter().filter(|&&c| c > 0).count();
        let expect = counts.iter().map(|&c| c as u64).sum::<u64>() as f64 / covered as f64;
        assert_eq!(m.replication_factor().to_bits(), expect.to_bits());
    }

    #[test]
    fn degree_bucket_rf_tolerates_longer_degree_slice() {
        // Metrics over 4 vertex ids, caller passes 7 degrees: the excess
        // ids were never covered, so they count as replica 0 in their
        // bucket — no out-of-bounds panic.
        let mut m = PartitionMetrics::new(2, 4);
        m.assign(0, 1, 0);
        m.assign(0, 2, 1);
        let degrees = vec![5, 5, 5, 0, 3, 50, 7];
        let buckets = m.degree_bucket_rf(&degrees);
        assert_eq!(buckets.len(), 2);
        // Bucket 0: vertices 0 (2 replicas), 1, 2 (1 each), 4, 6 (0 each).
        assert!((buckets[0].0 - 4.0 / 5.0).abs() < 1e-12);
        assert_eq!(buckets[0].1, 5);
        assert_eq!(buckets[1], (0.0, 1));
    }

    #[test]
    #[should_panic(expected = "vertex-id capacity mismatch")]
    fn merge_rejects_capacity_mismatch() {
        // Same k, different num_vertices: a clear panic instead of the
        // bitset internals' capacity assert firing mid-union.
        let mut a = PartitionMetrics::new(2, 10);
        let b = PartitionMetrics::new(2, 20);
        a.merge(&b);
    }

    #[test]
    fn replica_counts_and_vertex_balance_are_capacity_safe() {
        // Both derive every bound from the accumulator's own state (the
        // capacity-mismatch class cannot reach them through arguments).
        let mut m = PartitionMetrics::new(3, 100);
        m.assign(0, 99, 2);
        let counts = m.replica_counts();
        assert_eq!(counts.len(), 100);
        assert_eq!((counts[0], counts[99]), (1, 1));
        assert!(m.vertex_balance() > 0.0);
        let empty = PartitionMetrics::new(3, 0);
        assert_eq!(empty.replica_counts(), Vec::<u32>::new());
        assert_eq!(empty.vertex_balance(), 0.0);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = PartitionMetrics::new(4, 10);
        assert_eq!(m.replication_factor(), 0.0);
        assert_eq!(m.balance_factor(), 0.0);
        assert_eq!(m.total_edges(), 0);
    }

    #[test]
    fn merge_equals_serial_accumulation() {
        let edges = [(0u32, 1u32, 0u32), (1, 2, 1), (2, 3, 0), (3, 4, 2), (4, 0, 1)];
        let mut whole = PartitionMetrics::new(3, 5);
        let mut left = PartitionMetrics::new(3, 5);
        let mut right = PartitionMetrics::new(3, 5);
        for (i, &(u, v, p)) in edges.iter().enumerate() {
            whole.assign(u, v, p);
            if i < 2 {
                left.assign(u, v, p);
            } else {
                right.assign(u, v, p);
            }
        }
        left.merge(&right);
        assert_eq!(left.replica_counts(), whole.replica_counts());
        assert_eq!(left.edge_counts, whole.edge_counts);
        assert_eq!(left.total_edges(), whole.total_edges());
        assert_eq!(left.replication_factor(), whole.replication_factor());
    }

    #[test]
    fn from_assignment_matches_sink_replay_at_any_thread_count() {
        use hep_graph::EdgePartitioner;
        let g = hep_gen::GraphSpec::ChungLu { n: 2000, m: 15_000, gamma: 2.2 }.generate(8);
        let k = 8;
        let mut serial = PartitionMetrics::new(k, g.num_vertices);
        let mut collected = hep_graph::partitioner::CollectedAssignment::default();
        {
            let mut tee =
                hep_graph::partitioner::TeeSink { first: &mut serial, second: &mut collected };
            hep_baselines::Hdrf::default().partition(&g, k, &mut tee).unwrap();
        }
        for threads in [1, 8] {
            let replayed = hep_par::with_threads(threads, || {
                PartitionMetrics::from_assignment(k, g.num_vertices, &collected)
            });
            assert_eq!(replayed.replica_counts(), serial.replica_counts());
            assert_eq!(replayed.edge_counts, serial.edge_counts);
            assert_eq!(replayed.total_edges(), serial.total_edges());
            assert_eq!(replayed.replication_factor(), serial.replication_factor());
            assert_eq!(replayed.balance_factor(), serial.balance_factor());
        }
    }

    #[test]
    fn from_assignment_empty_is_zero() {
        let a = hep_graph::partitioner::CollectedAssignment::default();
        let m = PartitionMetrics::from_assignment(4, 100, &a);
        assert_eq!(m.total_edges(), 0);
        assert_eq!(m.replication_factor(), 0.0);
    }

    #[test]
    fn agrees_with_bruteforce_on_real_partitioner() {
        use hep_graph::EdgePartitioner;
        let g = hep_gen::GraphSpec::ChungLu { n: 300, m: 2000, gamma: 2.2 }.generate(1);
        let mut metrics = PartitionMetrics::new(4, g.num_vertices);
        let mut collected = hep_graph::partitioner::CollectedAssignment::default();
        {
            let mut tee =
                hep_graph::partitioner::TeeSink { first: &mut metrics, second: &mut collected };
            hep_baselines::Hdrf::default().partition(&g, 4, &mut tee).unwrap();
        }
        // Brute-force RF from the collected assignment.
        let mut sets: Vec<std::collections::HashSet<u32>> =
            vec![Default::default(); g.num_vertices as usize];
        for (e, p) in &collected.assignments {
            sets[e.src as usize].insert(*p);
            sets[e.dst as usize].insert(*p);
        }
        let covered = sets.iter().filter(|s| !s.is_empty()).count();
        let rf = sets.iter().map(|s| s.len()).sum::<usize>() as f64 / covered as f64;
        assert!((metrics.replication_factor() - rf).abs() < 1e-12);
    }
}
