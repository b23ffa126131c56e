//! HDRF: High-Degree (are) Replicated First \[51\].
//!
//! Stateful streaming partitioner — the strongest streaming baseline in the
//! paper and the scoring function of HEP's own streaming phase. Processes the
//! edge stream once, maintaining *partial* vertex degrees (incremented as
//! edges arrive) and per-partition replica sets, and places each edge on the
//! partition maximizing the HDRF score.

use crate::scoring::{capacity, ReplicaState};
use hep_graph::partitioner::check_inputs;
use hep_graph::{AssignSink, EdgeList, EdgePartitioner, GraphError};

/// HDRF streaming partitioner. The paper configures `λ = 1.1` (Appendix A).
#[derive(Clone, Debug)]
pub struct Hdrf {
    /// Balance weight λ of the scoring function.
    pub lambda: f64,
    /// Hard balance cap factor α (partitions never exceed `α·|E|/k`).
    pub alpha: f64,
}

impl Default for Hdrf {
    fn default() -> Self {
        Hdrf { lambda: 1.1, alpha: 1.05 }
    }
}

impl EdgePartitioner for Hdrf {
    fn name(&self) -> String {
        "HDRF".to_string()
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
        let mut partial_deg = vec![0u64; graph.num_vertices as usize];
        for e in &graph.edges {
            partial_deg[e.src as usize] += 1;
            partial_deg[e.dst as usize] += 1;
            let p = state.best_partition(
                e.src,
                e.dst,
                partial_deg[e.src as usize],
                partial_deg[e.dst as usize],
                self.lambda,
                cap,
            );
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

    fn run(graph: &EdgeList, k: u32) -> CollectedAssignment {
        let mut sink = CollectedAssignment::default();
        Hdrf::default().partition(graph, k, &mut sink).expect("partitioning succeeds");
        sink
    }

    #[test]
    fn assigns_every_edge_exactly_once() {
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 3000, gamma: 2.2 }.generate(1);
        let got = run(&g, 8);
        assert_eq!(got.assignments.len(), g.edges.len());
        let mut seen: Vec<_> = got.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.sort_unstable();
        let mut expect: Vec<_> = g.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn respects_hard_balance_cap() {
        let g = hep_gen::GraphSpec::ChungLu { n: 300, m: 2000, gamma: 2.0 }.generate(2);
        let k = 4;
        let mut sink = CountingSink::default();
        let mut p = Hdrf { lambda: 1.1, alpha: 1.05 };
        p.partition(&g, k, &mut sink).unwrap();
        let cap = capacity(g.num_edges(), k, 1.05);
        assert!(sink.counts.iter().all(|&c| c <= cap), "{:?} cap {}", sink.counts, cap);
    }

    #[test]
    fn star_graph_places_leaves_without_replicating_them() {
        // On a star, HDRF should cut through the hub: every leaf appears in
        // exactly one partition, so RF(leaves) = 1.
        let g = hep_gen::spec::GraphSpec::Star { n: 64 }.generate(0);
        let got = run(&g, 4);
        let mut leaf_parts = std::collections::BTreeMap::new();
        for (e, p) in &got.assignments {
            let leaf = if e.src == 0 { e.dst } else { e.src };
            leaf_parts.entry(leaf).or_insert_with(std::collections::BTreeSet::new).insert(*p);
        }
        assert!(leaf_parts.values().all(|s| s.len() == 1));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = hep_gen::GraphSpec::ChungLu { n: 400, m: 2500, gamma: 2.3 }.generate(5);
        assert_eq!(run(&g, 8).assignments, run(&g, 8).assignments);
    }

    #[test]
    fn rejects_invalid_inputs() {
        let g = EdgeList::from_pairs([(0, 1)]);
        let mut sink = CountingSink::default();
        assert!(Hdrf::default().partition(&g, 1, &mut sink).is_err());
        let empty = EdgeList::from_pairs(std::iter::empty());
        assert!(Hdrf::default().partition(&empty, 4, &mut sink).is_err());
    }
}
