//! DBH: Degree-Based Hashing \[64\].
//!
//! Stateless streaming partitioner: each edge is placed by hashing the
//! endpoint with the *smaller* degree, so low-degree vertices get all their
//! edges in one partition while hubs are freely replicated — the cheapest
//! way to exploit power-law structure (Θ(|E|), Table 1).

use hep_ds::fx::mix64;
use hep_graph::partitioner::check_inputs;
use hep_graph::{AssignSink, EdgeList, EdgePartitioner, GraphError};

/// Degree-based hashing partitioner.
#[derive(Clone, Debug, Default)]
pub struct Dbh {
    /// Hash salt (lets experiments draw independent runs).
    pub seed: u64,
}

impl EdgePartitioner for Dbh {
    fn name(&self) -> String {
        "DBH".to_string()
    }

    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError> {
        check_inputs(graph, k)?;
        // DBH knows degrees up front (one counting pass, like graph building).
        let deg = graph.degrees();
        for e in &graph.edges {
            let (du, dv) = (deg[e.src as usize], deg[e.dst as usize]);
            // Hash the lower-degree endpoint; break degree ties by smaller id
            // so the choice does not depend on the stored direction.
            let key = if (du, e.src) <= (dv, e.dst) { e.src } else { e.dst };
            let p = (mix64(key as u64 ^ self.seed) % k as u64) as u32;
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
    fn low_degree_endpoint_determines_partition() {
        // Star: hub 0 has max degree, so each edge hashes its leaf. All of a
        // leaf's (single) edge lands deterministically, and the hub is
        // replicated across partitions.
        let g = hep_gen::spec::GraphSpec::Star { n: 100 }.generate(0);
        let mut sink = CollectedAssignment::default();
        Dbh::default().partition(&g, 4, &mut sink).unwrap();
        let mut parts_used = std::collections::HashSet::new();
        for (_, p) in &sink.assignments {
            parts_used.insert(*p);
        }
        assert_eq!(parts_used.len(), 4, "hub edges must spread over all partitions");
    }

    #[test]
    fn all_edges_of_a_degree1_vertex_stay_together() {
        let g = EdgeList::from_pairs([(0, 1), (0, 2), (0, 3), (2, 3)]);
        let mut sink = CollectedAssignment::default();
        Dbh::default().partition(&g, 8, &mut sink).unwrap();
        assert_eq!(sink.assignments.len(), 4);
    }

    #[test]
    fn direction_invariance() {
        // (u,v) and (v,u) must hash identically.
        let a = EdgeList::from_pairs([(1, 2)]);
        let b = EdgeList::from_pairs([(2, 1)]);
        let run = |g: &EdgeList| {
            let mut s = CollectedAssignment::default();
            Dbh::default().partition(g, 16, &mut s).unwrap();
            s.assignments[0].1
        };
        assert_eq!(run(&a), run(&b));
    }

    #[test]
    fn covers_all_edges_with_rough_balance() {
        let g = hep_gen::GraphSpec::ChungLu { n: 2000, m: 20_000, gamma: 2.2 }.generate(9);
        let mut sink = CountingSink::default();
        Dbh::default().partition(&g, 8, &mut sink).unwrap();
        assert_eq!(sink.counts.iter().sum::<u64>(), g.num_edges());
        // Hashing balances within ~2x of ideal on a power-law graph.
        let ideal = g.num_edges() / 8;
        assert!(sink.counts.iter().all(|&c| c < ideal * 2), "{:?}", sink.counts);
    }
}
