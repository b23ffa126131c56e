//! Streaming min-max hyperedge partitioning (Alistarh et al. \[15\]): each
//! hyperedge goes to the eligible partition already containing the most of
//! its pins — the hypergraph analog of Greedy/HDRF streaming.

use crate::hypergraph::{HyperMetrics, Hypergraph};
use hep_ds::DenseBitset;
use hep_graph::{GraphError, PartitionId};

/// Streaming min-max partitioner.
#[derive(Clone, Debug)]
pub struct StreamingMinMax {
    /// Hard balance cap factor.
    pub alpha: f64,
}

impl Default for StreamingMinMax {
    fn default() -> Self {
        StreamingMinMax { alpha: 1.05 }
    }
}

/// Per-partition replica state for hyperedge streaming (shared with the
/// hybrid partitioner's phase 2).
pub(crate) struct HyperReplicaState {
    pub replicas: Vec<DenseBitset>,
    pub loads: Vec<u64>,
}

impl HyperReplicaState {
    pub fn new(k: u32, num_vertices: u32) -> Self {
        HyperReplicaState {
            replicas: (0..k).map(|_| DenseBitset::new(num_vertices as usize)).collect(),
            loads: vec![0; k as usize],
        }
    }

    /// Best partition for `pins`: maximize overlap with existing replicas,
    /// tie-break by load, among partitions below `cap`.
    pub fn best_partition(&self, pins: &[u32], cap: u64) -> PartitionId {
        let k = self.replicas.len() as u32;
        let mut best: Option<(i64, u64, PartitionId)> = None;
        for p in 0..k {
            if self.loads[p as usize] >= cap {
                continue;
            }
            // Sparse membership count of the pins in the replica set.
            let overlap = self.replicas[p as usize].count_members(pins) as i64;
            let cand = (-overlap, self.loads[p as usize], p);
            if best.is_none_or(|b| cand < b) {
                best = Some(cand);
            }
        }
        match best {
            Some((_, _, p)) => p,
            // hep-lint: allow(HL007) -- partition() rejects k == 0, so the range is non-empty
            None => (0..k).min_by_key(|&p| self.loads[p as usize]).expect("k >= 1"),
        }
    }

    pub fn assign(&mut self, pins: &[u32], p: PartitionId) {
        debug_assert!(
            (p as usize) < self.replicas.len() && (p as usize) < self.loads.len(),
            "partition id {p} out of range"
        );
        for &v in pins {
            self.replicas[p as usize].set(v);
        }
        self.loads[p as usize] += 1;
    }
}

impl StreamingMinMax {
    /// Partitions the hyperedges into `k` parts, reporting metrics.
    pub fn partition(
        &self,
        h: &Hypergraph,
        k: u32,
    ) -> Result<(Vec<PartitionId>, HyperMetrics), GraphError> {
        if k < 2 {
            return Err(GraphError::InvalidPartitionCount { k });
        }
        if h.hyperedges.is_empty() {
            return Err(GraphError::EmptyGraph);
        }
        let cap = ((self.alpha * h.num_hyperedges() as f64) / k as f64).ceil() as u64;
        let mut state = HyperReplicaState::new(k, h.num_vertices);
        let mut metrics = HyperMetrics::new(k, h.num_vertices);
        let mut assignment = Vec::with_capacity(h.hyperedges.len());
        for pins in &h.hyperedges {
            let p = state.best_partition(pins, cap);
            state.assign(pins, p);
            metrics.assign(pins, p);
            assignment.push(p);
        }
        Ok((assignment, metrics))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_hyperedges_colocate() {
        let h = Hypergraph::new(6, vec![vec![0, 1, 2], vec![1, 2, 3], vec![4, 5]]).unwrap();
        let (assignment, _) = StreamingMinMax { alpha: 2.0 }.partition(&h, 2).unwrap();
        assert_eq!(assignment[0], assignment[1], "overlapping edges together");
    }

    #[test]
    fn respects_cap() {
        let h = power_law();
        let (_, m) = StreamingMinMax::default().partition(&h, 4).unwrap();
        assert!(m.balance_factor() <= 1.05 + 1e-9, "{}", m.balance_factor());
        assert_eq!(m.sizes.iter().sum::<u64>(), h.num_hyperedges());
    }

    #[test]
    fn rejects_bad_inputs() {
        let h = power_law();
        assert!(StreamingMinMax::default().partition(&h, 1).is_err());
        let empty = Hypergraph::new(4, Vec::<Vec<u32>>::new()).unwrap();
        assert!(StreamingMinMax::default().partition(&empty, 4).is_err());
    }

    fn power_law() -> Hypergraph {
        crate::gen::power_law_hypergraph(500, 3000, 8, 5)
    }
}
