//! Greedy streaming partitioner (PowerGraph's heuristic \[28\]).
//!
//! Identical loop to HDRF but with the unweighted replica score
//! (`g(u,p) ∈ {0,1}`): no degree term, so it does not preferentially cut
//! through hubs. The paper notes Greedy is "clearly outperformed by HDRF"
//! (§3.3); it is included for the related-work comparisons and tests.

use crate::scoring::{capacity, ReplicaState};
use hep_graph::partitioner::check_inputs;
use hep_graph::{AssignSink, EdgeList, EdgePartitioner, GraphError};

/// PowerGraph-style greedy streaming partitioner.
#[derive(Clone, Debug)]
pub struct Greedy {
    /// Balance weight of the score's balance term.
    pub lambda: f64,
    /// Hard balance cap factor.
    pub alpha: f64,
}

impl Default for Greedy {
    fn default() -> Self {
        Greedy { lambda: 1.0, alpha: 1.05 }
    }
}

impl EdgePartitioner for Greedy {
    fn name(&self) -> String {
        "Greedy".to_string()
    }

    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError> {
        check_inputs(graph, k)?;
        let cap = capacity(graph.num_edges(), k, self.alpha);
        let mut state = ReplicaState::new(k, graph.num_vertices);
        for e in &graph.edges {
            let p = state.best_partition(e.src, e.dst, 1, 1, self.lambda, cap, false);
            state.assign(e.src, e.dst, p);
            sink.assign(e.src, e.dst, p);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::{CollectedAssignment, CountingSink};

    #[test]
    fn covers_all_edges_and_balances() {
        let g = hep_gen::GraphSpec::ChungLu { n: 400, m: 3000, gamma: 2.2 }.generate(3);
        let mut sink = CountingSink::default();
        Greedy::default().partition(&g, 5, &mut sink).unwrap();
        assert_eq!(sink.counts.iter().sum::<u64>(), g.num_edges());
        let cap = capacity(g.num_edges(), 5, 1.05);
        assert!(sink.counts.iter().all(|&c| c <= cap));
    }

    #[test]
    fn consecutive_edges_of_same_vertex_colocate() {
        // With balance weight ~0, the replica term dominates: a path's edges
        // should chain onto the same partition until the cap interferes.
        let g = hep_gen::spec::GraphSpec::Path { n: 10 }.generate(0);
        let mut sink = CollectedAssignment::default();
        Greedy { lambda: 0.01, alpha: 10.0 }.partition(&g, 3, &mut sink).unwrap();
        let first = sink.assignments[0].1;
        assert!(sink.assignments.iter().all(|&(_, p)| p == first));
    }
}
