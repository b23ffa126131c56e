//! The uniform interface implemented by every partitioner in the workspace.
//!
//! Partitioners *emit* `(edge, partition)` assignments into an [`AssignSink`]
//! instead of materializing per-partition edge lists; metrics, validity
//! checking and the processing simulator each provide their own sink, so a
//! single partitioning run can be consumed by several observers via
//! [`TeeSink`].

use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::types::{Edge, PartitionId, VertexId};

/// Receives edge-to-partition assignments as a partitioner produces them.
pub trait AssignSink {
    /// Record that the undirected edge `(u, v)` is placed on partition `p`.
    fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId);
}

impl<F: FnMut(VertexId, VertexId, PartitionId)> AssignSink for F {
    fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        self(u, v, p)
    }
}

/// A k-way edge partitioner (paper §2: divide `E` into `k` disjoint
/// partitions covering all edges, subject to the balancing constraint).
pub trait EdgePartitioner {
    /// Short display name (e.g. "HDRF", "HEP-10") used in experiment tables.
    fn name(&self) -> String;

    /// Partitions `graph` into `k` parts, emitting every edge exactly once.
    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError>;
}

/// Validates `k` against the input graph; shared by all partitioners.
pub fn check_inputs(graph: &EdgeList, k: u32) -> Result<(), GraphError> {
    if k < 2 {
        return Err(GraphError::InvalidPartitionCount { k });
    }
    if graph.edges.is_empty() {
        return Err(GraphError::EmptyGraph);
    }
    Ok(())
}

/// Sink that stores all assignments; convenient in tests and for handing a
/// finished partitioning to the processing simulator.
#[derive(Clone, Debug, Default)]
pub struct CollectedAssignment {
    /// `(edge, partition)` in emission order.
    pub assignments: Vec<(Edge, PartitionId)>,
}

impl AssignSink for CollectedAssignment {
    fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        self.assignments.push((Edge::new(u, v), p));
    }
}

/// Sink that only counts edges per partition (cheap balance checks).
#[derive(Clone, Debug, Default)]
pub struct CountingSink {
    /// Edge count per partition id (grows on demand).
    pub counts: Vec<u64>,
}

impl AssignSink for CountingSink {
    fn assign(&mut self, _u: VertexId, _v: VertexId, p: PartitionId) {
        if p as usize >= self.counts.len() {
            self.counts.resize(p as usize + 1, 0);
        }
        self.counts[p as usize] += 1;
    }
}

/// Fans assignments out to two sinks.
pub struct TeeSink<'a, A: AssignSink, B: AssignSink> {
    pub first: &'a mut A,
    pub second: &'a mut B,
}

impl<'a, A: AssignSink, B: AssignSink> AssignSink for TeeSink<'a, A, B> {
    fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        self.first.assign(u, v, p);
        self.second.assign(u, v, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collected_assignment_records_in_order() {
        let mut c = CollectedAssignment::default();
        c.assign(0, 1, 0);
        c.assign(1, 2, 1);
        c.assign(2, 3, 1);
        assert_eq!(
            c.assignments,
            vec![(Edge::new(0, 1), 0), (Edge::new(1, 2), 1), (Edge::new(2, 3), 1)]
        );
    }

    #[test]
    fn counting_sink_grows() {
        let mut c = CountingSink::default();
        c.assign(0, 1, 5);
        c.assign(0, 2, 5);
        c.assign(0, 3, 0);
        assert_eq!(c.counts, vec![1, 0, 0, 0, 0, 2]);
    }

    #[test]
    fn closures_are_sinks() {
        let mut total = 0u32;
        {
            let mut sink = |_u: u32, _v: u32, _p: u32| total += 1;
            sink.assign(0, 1, 0);
            sink.assign(1, 2, 1);
        }
        assert_eq!(total, 2);
    }

    #[test]
    fn tee_feeds_both() {
        let mut a = CollectedAssignment::default();
        let mut b = CountingSink::default();
        {
            let mut tee = TeeSink { first: &mut a, second: &mut b };
            tee.assign(3, 4, 2);
        }
        assert_eq!(a.assignments.len(), 1);
        assert_eq!(b.counts[2], 1);
    }

    #[test]
    fn check_inputs_rejects_bad_k_and_empty() {
        let g = EdgeList::from_pairs([(0, 1)]);
        assert!(check_inputs(&g, 1).is_err());
        assert!(check_inputs(&g, 2).is_ok());
        let empty = EdgeList::from_pairs(std::iter::empty());
        assert!(matches!(check_inputs(&empty, 4), Err(GraphError::EmptyGraph)));
    }
}
