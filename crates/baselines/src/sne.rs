//! SNE: streaming NE \[66\] — neighbourhood expansion over bounded chunks.
//!
//! SNE trades quality for memory by loading only `s · |E| / k` edges at a
//! time (the paper configures sample size `s = 2`, Appendix A) and running
//! the NE expansion inside each chunk. The expansion engine is shared with
//! [`crate::ne`]; the core set resets at chunk boundaries because chunk-local
//! adjacency makes cross-chunk coring unsound — this locality loss is why
//! SNE's replication factor trails NE's (paper §6, Figure 8).

use crate::ne::{AdjView, NeEngine};
use hep_ds::FxHashMap;
use hep_graph::partitioner::check_inputs;
use hep_graph::{AssignSink, Edge, EdgeList, EdgePartitioner, GraphError, VertexId};

/// Adjacency view over one chunk of the edge stream.
struct ChunkView {
    adj: FxHashMap<VertexId, Vec<(VertexId, u32)>>,
    candidates: Vec<VertexId>,
}

impl ChunkView {
    fn new(edges: &[Edge], eid_offset: u32) -> Self {
        let mut adj: FxHashMap<VertexId, Vec<(VertexId, u32)>> = FxHashMap::default();
        for (i, e) in edges.iter().enumerate() {
            let eid = eid_offset + i as u32;
            adj.entry(e.src).or_default().push((e.dst, eid));
            adj.entry(e.dst).or_default().push((e.src, eid));
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "collected then sorted on the next line; order cannot leak"
        )]
        let mut candidates: Vec<VertexId> = adj.keys().copied().collect();
        candidates.sort_unstable();
        ChunkView { adj, candidates }
    }
}

impl AdjView for ChunkView {
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, u32)) {
        if let Some(list) = self.adj.get(&v) {
            for &(u, eid) in list {
                f(u, eid);
            }
        }
    }

    fn seed_candidates(&self) -> &[VertexId] {
        &self.candidates
    }
}

/// Chunked streaming NE.
#[derive(Clone, Debug)]
pub struct Sne {
    /// Sample-size factor `s`: chunk capacity is `s·|E|/k` edges.
    pub sample_factor: f64,
    /// RNG seed for seed-vertex probes.
    pub seed: u64,
}

impl Default for Sne {
    fn default() -> Self {
        Sne { sample_factor: 2.0, seed: 0x54e }
    }
}

impl EdgePartitioner for Sne {
    fn name(&self) -> String {
        "SNE".to_string()
    }

    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError> {
        check_inputs(graph, k)?;
        if self.sample_factor.is_nan() || self.sample_factor <= 0.0 {
            return Err(GraphError::InvalidConfig("sample_factor must be positive".into()));
        }
        let m = graph.num_edges();
        let chunk_size = (((self.sample_factor * m as f64) / k as f64).ceil() as usize).max(16);
        let mut engine = NeEngine::new(&graph.edges, graph.num_vertices, k, self.seed);
        let mut offset = 0usize;
        while offset < graph.edges.len() {
            let end = (offset + chunk_size).min(graph.edges.len());
            let view = ChunkView::new(&graph.edges[offset..end], offset as u32);
            engine.reset_core();
            let all_full = engine.run_expansion(&view, sink);
            offset = end;
            if all_full {
                break; // only the remainder partition is left
            }
        }
        engine.finalize(sink);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::{CollectedAssignment, CountingSink};

    fn run(graph: &EdgeList, k: u32) -> CollectedAssignment {
        let mut sink = CollectedAssignment::default();
        Sne::default().partition(graph, k, &mut sink).unwrap();
        sink
    }

    fn rf(graph: &EdgeList, got: &CollectedAssignment) -> f64 {
        let mut parts: Vec<std::collections::HashSet<u32>> =
            vec![Default::default(); graph.num_vertices as usize];
        for (e, p) in &got.assignments {
            parts[e.src as usize].insert(*p);
            parts[e.dst as usize].insert(*p);
        }
        let covered = parts.iter().filter(|s| !s.is_empty()).count();
        parts.iter().map(|s| s.len()).sum::<usize>() as f64 / covered as f64
    }

    #[test]
    fn covers_every_edge_exactly_once() {
        let g = hep_gen::GraphSpec::ChungLu { n: 600, m: 5000, gamma: 2.2 }.generate(4);
        let got = run(&g, 6);
        assert_eq!(got.assignments.len(), g.edges.len());
        let mut seen: Vec<_> = got.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.sort_unstable();
        let mut expect: Vec<_> = g.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn keeps_partitions_balanced() {
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 4200, gamma: 2.1 }.generate(5);
        let mut sink = CountingSink::default();
        Sne::default().partition(&g, 7, &mut sink).unwrap();
        let ideal = 4200 / 7;
        assert!(sink.counts.iter().all(|&c| c <= ideal + 1), "{:?}", sink.counts);
        assert_eq!(sink.counts.iter().sum::<u64>(), 4200);
    }

    #[test]
    fn quality_between_random_and_ne() {
        // On a community web graph, SNE should beat uninformed hashing but
        // trail full in-memory NE.
        let g = hep_gen::community::community_web(
            hep_gen::community::CommunityParams::weblike(4000, 30_000),
            6,
        );
        let k = 8;
        let sne_rf = rf(&g, &run(&g, k));
        let mut ne_sink = CollectedAssignment::default();
        crate::ne::Ne::default().partition(&g, k, &mut ne_sink).unwrap();
        let ne_rf = rf(&g, &ne_sink);
        let mut rnd_sink = CollectedAssignment::default();
        crate::random::RandomStreaming::default().partition(&g, k, &mut rnd_sink).unwrap();
        let rnd_rf = rf(&g, &rnd_sink);
        assert!(ne_rf <= sne_rf + 0.15, "NE {ne_rf} vs SNE {sne_rf}");
        assert!(sne_rf < rnd_rf, "SNE {sne_rf} vs random {rnd_rf}");
    }

    #[test]
    fn tiny_graphs_work() {
        let g = EdgeList::from_pairs([(0, 1), (1, 2), (2, 0), (2, 3)]);
        let got = run(&g, 2);
        assert_eq!(got.assignments.len(), 4);
    }

    #[test]
    fn rejects_bad_sample_factor() {
        let g = EdgeList::from_pairs([(0, 1), (1, 2)]);
        let mut sink = CountingSink::default();
        let mut sne = Sne { sample_factor: 0.0, seed: 0 };
        assert!(sne.partition(&g, 2, &mut sink).is_err());
    }
}
