//! The "simple hybrid" ablation baseline of §5.4 (Figure 9).
//!
//! Same graph split as HEP — `G_H2H` (edges between two high-degree
//! vertices) versus `G_REST` — but with off-the-shelf components: classic NE
//! partitions `G_REST` and *random* streaming places `G_H2H`, with no state
//! shared between the phases. Comparing this to HEP isolates how much of
//! HEP's win comes from hybridization per se versus from NE++ and informed
//! HDRF streaming.

use hep_graph::partitioner::check_inputs;
use hep_graph::{AssignSink, DegreeStats, Edge, EdgeList, EdgePartitioner, GraphError};

/// NE + random streaming over the HEP edge split.
#[derive(Clone, Debug)]
pub struct SimpleHybrid {
    /// Degree threshold factor (same meaning as HEP's τ).
    pub tau: f64,
    /// Seed for NE's probes and the random streaming placement.
    pub seed: u64,
}

impl SimpleHybrid {
    /// Simple hybrid with the given τ.
    pub fn with_tau(tau: f64) -> Self {
        SimpleHybrid { tau, seed: 0x51397 }
    }

    /// Splits a graph into `(rest, h2h)` under τ — the edge-type ratios of
    /// Figure 9 (d, h, l, p, t).
    pub fn split(graph: &EdgeList, tau: f64) -> (Vec<Edge>, Vec<Edge>) {
        let stats = DegreeStats::new(graph, tau);
        let mut rest = Vec::new();
        let mut h2h = Vec::new();
        for e in &graph.edges {
            if stats.is_high(e.src) && stats.is_high(e.dst) {
                h2h.push(*e);
            } else {
                rest.push(*e);
            }
        }
        (rest, h2h)
    }
}

impl EdgePartitioner for SimpleHybrid {
    fn name(&self) -> String {
        // As `Hep::name`: f64 `Display` prints integral values without a
        // fraction, and ∞ as `inf`.
        format!("SimpleHybrid-{}", self.tau)
    }

    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError> {
        check_inputs(graph, k)?;
        if self.tau.is_nan() || self.tau <= 0.0 {
            return Err(GraphError::InvalidConfig("tau must be positive".into()));
        }
        let (rest, h2h) = Self::split(graph, self.tau);
        if !rest.is_empty() {
            let rest_graph = EdgeList { num_vertices: graph.num_vertices, edges: rest };
            hep_baselines::Ne { seed: self.seed }.partition(&rest_graph, k, sink)?;
        }
        if !h2h.is_empty() {
            let h2h_graph = EdgeList { num_vertices: graph.num_vertices, edges: h2h };
            hep_baselines::RandomStreaming { seed: self.seed }.partition(&h2h_graph, k, sink)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::CollectedAssignment;

    #[test]
    fn names_follow_paper_notation() {
        assert_eq!(SimpleHybrid::with_tau(100.0).name(), "SimpleHybrid-100");
        assert_eq!(SimpleHybrid::with_tau(1.5).name(), "SimpleHybrid-1.5");
        assert_eq!(SimpleHybrid::with_tau(f64::INFINITY).name(), "SimpleHybrid-inf");
    }

    #[test]
    fn split_partitions_the_edge_set() {
        let g = hep_gen::GraphSpec::ChungLu { n: 1000, m: 8000, gamma: 2.0 }.generate(1);
        let (rest, h2h) = SimpleHybrid::split(&g, 1.0);
        assert_eq!(rest.len() + h2h.len(), g.edges.len());
        let stats = DegreeStats::new(&g, 1.0);
        assert!(h2h.iter().all(|e| stats.is_high(e.src) && stats.is_high(e.dst)));
        assert!(rest.iter().all(|e| !(stats.is_high(e.src) && stats.is_high(e.dst))));
    }

    #[test]
    fn lower_tau_grows_h2h_share() {
        let g = hep_gen::GraphSpec::ChungLu { n: 1000, m: 8000, gamma: 2.0 }.generate(2);
        let share = |tau: f64| SimpleHybrid::split(&g, tau).1.len();
        assert!(share(1.0) > share(10.0));
        assert!(share(10.0) >= share(100.0));
    }

    #[test]
    fn covers_every_edge_exactly_once() {
        let g = hep_gen::GraphSpec::ChungLu { n: 800, m: 6000, gamma: 2.1 }.generate(3);
        let mut sink = CollectedAssignment::default();
        SimpleHybrid::with_tau(1.0).partition(&g, 8, &mut sink).unwrap();
        assert_eq!(sink.assignments.len(), g.edges.len());
        let mut seen: Vec<Edge> = sink.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.sort_unstable();
        let mut expect: Vec<Edge> = g.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn hep_beats_simple_hybrid_on_replication() {
        // Figure 9(a/e/i/m/q): HEP's informed streaming beats random
        // placement of the h2h edges, clearly at low tau.
        let g = hep_gen::GraphSpec::ChungLu { n: 2000, m: 20_000, gamma: 2.0 }.generate(4);
        let rf = |assignments: &[(Edge, u32)]| {
            let mut parts: Vec<std::collections::HashSet<u32>> =
                vec![Default::default(); g.num_vertices as usize];
            for (e, p) in assignments {
                parts[e.src as usize].insert(*p);
                parts[e.dst as usize].insert(*p);
            }
            let covered = parts.iter().filter(|s| !s.is_empty()).count();
            parts.iter().map(|s| s.len()).sum::<usize>() as f64 / covered as f64
        };
        let mut hep_sink = CollectedAssignment::default();
        crate::Hep::with_tau(1.0).partition(&g, 16, &mut hep_sink).unwrap();
        let mut simple_sink = CollectedAssignment::default();
        SimpleHybrid::with_tau(1.0).partition(&g, 16, &mut simple_sink).unwrap();
        let (hep_rf, simple_rf) = (rf(&hep_sink.assignments), rf(&simple_sink.assignments));
        assert!(hep_rf < simple_rf, "HEP rf {hep_rf} should beat simple hybrid rf {simple_rf}");
    }

    #[test]
    fn all_low_graph_degenerates_to_ne() {
        let g = hep_gen::GraphSpec::ErdosRenyi { n: 200, m: 1000 }.generate(5);
        let mut a = CollectedAssignment::default();
        SimpleHybrid { tau: 1e9, seed: 7 }.partition(&g, 4, &mut a).unwrap();
        let mut b = CollectedAssignment::default();
        hep_baselines::Ne { seed: 7 }.partition(&g, 4, &mut b).unwrap();
        assert_eq!(a.assignments, b.assignments);
    }

    #[test]
    fn rejects_bad_tau() {
        let g = EdgeList::from_pairs([(0, 1)]);
        let mut sink = CollectedAssignment::default();
        assert!(SimpleHybrid { tau: 0.0, seed: 0 }.partition(&g, 2, &mut sink).is_err());
    }
}
