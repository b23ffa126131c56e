//! NE: neighbourhood expansion (Zhang et al., KDD'17 \[66\]) — the strongest
//! in-memory baseline and the algorithm NE++ descends from.
//!
//! This follows the *reference* design the paper critiques (§3.2.2): a full
//! CSR plus an auxiliary per-edge `assigned` structure that is checked and
//! updated eagerly on every adjacency scan. That bookkeeping is precisely the
//! memory/run-time overhead NE++ eliminates, so keeping it here faithful
//! matters for the Figure 9 comparisons.
//!
//! The expansion engine is generic over an adjacency view so the chunked SNE
//! variant (`crate::sne`) reuses it unchanged.

use hep_ds::{DenseBitset, IndexedMinHeap, SplitMix64};
use hep_graph::partitioner::check_inputs;
use hep_graph::{AssignSink, Csr, Edge, EdgeList, EdgePartitioner, GraphError, VertexId};

/// Adjacency access abstraction: the full graph for NE, a chunk for SNE.
pub trait AdjView {
    /// Visits `(neighbor, edge_id)` pairs of `v`.
    fn for_each_neighbor(&self, v: VertexId, f: impl FnMut(VertexId, u32));

    /// Vertices this view may seed expansions from (global ids).
    fn seed_candidates(&self) -> &[VertexId];
}

/// [`AdjView`] over a full [`Csr`].
pub struct FullView<'a> {
    csr: &'a Csr,
    candidates: Vec<VertexId>,
}

impl<'a> FullView<'a> {
    /// Wraps a CSR; every vertex is a seed candidate.
    pub fn new(csr: &'a Csr) -> Self {
        let candidates = (0..csr.num_vertices()).collect();
        FullView { csr, candidates }
    }
}

impl<'a> AdjView for FullView<'a> {
    fn for_each_neighbor(&self, v: VertexId, mut f: impl FnMut(VertexId, u32)) {
        for (u, eid) in self.csr.neighbors_with_eids(v) {
            f(u, eid);
        }
    }

    fn seed_candidates(&self) -> &[VertexId] {
        &self.candidates
    }
}

/// Shared state of a (possibly chunked) neighbourhood-expansion run.
pub struct NeEngine<'a> {
    edges: &'a [Edge],
    k: u32,
    caps: Vec<u64>,
    /// Edge count per partition.
    pub sizes: Vec<u64>,
    /// Eager per-edge bookkeeping (the auxiliary structure of §3.2.2).
    pub assigned: DenseBitset,
    core: DenseBitset,
    in_s: DenseBitset,
    heap: IndexedMinHeap,
    /// Current partition being built.
    pub cur: u32,
    pending: Vec<VertexId>,
    rng: SplitMix64,
    seed_cursor: usize,
}

impl<'a> NeEngine<'a> {
    /// Creates engine state for `k` partitions over `edges`.
    /// Capacities use balanced rounding so they sum to `|E|`.
    pub fn new(edges: &'a [Edge], num_vertices: u32, k: u32, seed: u64) -> Self {
        let m = edges.len() as u64;
        let caps: Vec<u64> =
            (0..k as u64).map(|i| (m * (i + 1)) / k as u64 - (m * i) / k as u64).collect();
        NeEngine {
            edges,
            k,
            caps,
            sizes: vec![0; k as usize],
            assigned: DenseBitset::new(edges.len()),
            core: DenseBitset::new(num_vertices as usize),
            in_s: DenseBitset::new(num_vertices as usize),
            heap: IndexedMinHeap::new(num_vertices as usize),
            cur: 0,
            pending: Vec::new(),
            rng: SplitMix64::new(seed),
            seed_cursor: 0,
        }
    }

    /// Clears the core set; SNE calls this at chunk boundaries because a
    /// vertex cored in one chunk may still own unassigned edges in a later
    /// chunk (one source of SNE's quality loss versus NE).
    pub fn reset_core(&mut self) {
        self.core.clear_all();
        self.in_s.clear_all();
        self.heap.clear();
        self.seed_cursor = 0;
    }

    fn assign_edge(&mut self, eid: u32, sink: &mut dyn AssignSink) {
        debug_assert!(!self.assigned.get(eid));
        self.assigned.set(eid);
        // Spill-over (Algorithm 1, lines 25–28): once the current partition
        // is full, edges of the ongoing expansion step go to the next one —
        // cascading further if a single step outgrows that one too (e.g.
        // coring a star hub), and overflowing the last partition as a final
        // resort.
        let target = if self.sizes[self.cur as usize] < self.caps[self.cur as usize] {
            self.cur
        } else {
            (self.cur + 1..self.k)
                .find(|&p| self.sizes[p as usize] < self.caps[p as usize])
                .unwrap_or(self.k - 1)
        };
        let e = self.edges[eid as usize];
        if target != self.cur {
            self.pending.push(e.src);
            self.pending.push(e.dst);
        }
        self.sizes[target as usize] += 1;
        sink.assign(e.src, e.dst, target);
    }

    fn move_to_secondary(&mut self, view: &impl AdjView, v: VertexId, sink: &mut dyn AssignSink) {
        if self.in_s.get(v) || self.core.get(v) {
            return;
        }
        self.in_s.set(v);
        let mut dext = 0u64;
        let mut to_assign: Vec<u32> = Vec::new();
        let mut to_decrement: Vec<VertexId> = Vec::new();
        view.for_each_neighbor(v, |u, eid| {
            if self.assigned.get(eid) {
                return;
            }
            if self.core.get(u) || self.in_s.get(u) {
                to_assign.push(eid);
                to_decrement.push(u);
            } else {
                dext += 1;
            }
        });
        for eid in to_assign {
            self.assign_edge(eid, sink);
        }
        for u in to_decrement {
            self.heap.decrease_key_by(u, 1);
        }
        self.heap.insert(v, dext);
    }

    fn move_to_core(&mut self, view: &impl AdjView, v: VertexId, sink: &mut dyn AssignSink) {
        self.core.set(v);
        self.heap.remove(v);
        let mut externals: Vec<VertexId> = Vec::new();
        view.for_each_neighbor(v, |u, eid| {
            if !self.assigned.get(eid) && !self.core.get(u) && !self.in_s.get(u) {
                externals.push(u);
            }
        });
        for u in externals {
            self.move_to_secondary(view, u, sink);
        }
    }

    /// Reference-style initialization: randomized probes (with the growing
    /// miss rate the paper criticizes, bounded here), then a sequential scan.
    fn find_seed(&mut self, view: &impl AdjView) -> Option<VertexId> {
        let cands = view.seed_candidates();
        let is_suitable = |engine: &Self, v: VertexId| -> bool {
            if engine.core.get(v) || engine.in_s.get(v) {
                return false;
            }
            let mut has_unassigned = false;
            view.for_each_neighbor(v, |_, eid| {
                has_unassigned |= !engine.assigned.get(eid);
            });
            has_unassigned
        };
        for _ in 0..16 {
            let v = cands[self.rng.next_below(cands.len() as u64) as usize];
            if is_suitable(self, v) {
                return Some(v);
            }
        }
        while self.seed_cursor < cands.len() {
            let v = cands[self.seed_cursor];
            if is_suitable(self, v) {
                return Some(v);
            }
            self.seed_cursor += 1;
        }
        None
    }

    fn advance_partition(&mut self, view: &impl AdjView, sink: &mut dyn AssignSink) {
        self.cur += 1;
        self.in_s.clear_all();
        self.heap.clear();
        // Spilled endpoints become members of the next secondary set
        // (Algorithm 1 line 28).
        let pending = std::mem::take(&mut self.pending);
        for v in pending {
            if !self.core.get(v) {
                self.move_to_secondary(view, v, sink);
            }
        }
    }

    /// Expands partitions over `view` until only the last partition remains
    /// (it simply takes the remainder, via [`NeEngine::finalize`]) or the
    /// view has no further seeds. Returns whether expansion reached the last
    /// partition.
    pub fn run_expansion(&mut self, view: &impl AdjView, sink: &mut dyn AssignSink) -> bool {
        loop {
            if self.cur + 1 == self.k {
                return true;
            }
            if self.sizes[self.cur as usize] >= self.caps[self.cur as usize] {
                self.advance_partition(view, sink);
                continue;
            }
            if let Some((_, v)) = self.heap.pop_min() {
                self.move_to_core(view, v, sink);
            } else {
                match self.find_seed(view) {
                    Some(seed) => {
                        // Seed passes through S so that edges into the
                        // current secondary set are assigned (cf. Figure 3 II).
                        self.move_to_secondary(view, seed, sink);
                        if let Some((_, v)) = self.heap.pop_min() {
                            self.move_to_core(view, v, sink);
                        }
                    }
                    None => return false,
                }
            }
        }
    }

    /// Assigns every still-unassigned edge, filling partitions below their
    /// caps first (the remainder dump after expansion).
    pub fn finalize(&mut self, sink: &mut dyn AssignSink) {
        for eid in 0..self.edges.len() as u32 {
            if self.assigned.get(eid) {
                continue;
            }
            self.assigned.set(eid);
            #[expect(
                clippy::expect_used,
                reason = "check_inputs rejects k == 0, so the range is non-empty"
            )]
            let target = (0..self.k)
                .find(|&p| self.sizes[p as usize] < self.caps[p as usize])
                .unwrap_or_else(|| {
                    (0..self.k).min_by_key(|&p| self.sizes[p as usize]).expect("k >= 1")
                });
            self.sizes[target as usize] += 1;
            let e = self.edges[eid as usize];
            sink.assign(e.src, e.dst, target);
        }
    }
}

/// Classic in-memory NE partitioner.
#[derive(Clone, Debug)]
pub struct Ne {
    /// RNG seed for the randomized seed-vertex probes.
    pub seed: u64,
}

impl Default for Ne {
    fn default() -> Self {
        Ne { seed: 0x5eed }
    }
}

impl EdgePartitioner for Ne {
    fn name(&self) -> String {
        "NE".to_string()
    }

    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError> {
        check_inputs(graph, k)?;
        let csr = Csr::build(graph);
        let view = FullView::new(&csr);
        let mut engine = NeEngine::new(&graph.edges, graph.num_vertices, k, self.seed);
        engine.run_expansion(&view, sink);
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
        Ne::default().partition(graph, k, &mut sink).unwrap();
        sink
    }

    /// Edge count per partition of a run into `k` parts.
    fn partition_sizes(got: &CollectedAssignment, k: u32) -> Vec<u64> {
        let mut sizes = vec![0u64; k as usize];
        for &(_, p) in &got.assignments {
            sizes[p as usize] += 1;
        }
        sizes
    }

    fn assert_exactly_once(graph: &EdgeList, got: &CollectedAssignment) {
        assert_eq!(got.assignments.len(), graph.edges.len());
        let mut seen: Vec<_> = got.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.sort_unstable();
        let mut expect: Vec<_> = graph.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn covers_power_law_graph() {
        let g = hep_gen::GraphSpec::ChungLu { n: 800, m: 6000, gamma: 2.2 }.generate(7);
        let got = run(&g, 8);
        assert_exactly_once(&g, &got);
    }

    #[test]
    fn perfectly_balances_partition_sizes() {
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 4000, gamma: 2.3 }.generate(1);
        let got = run(&g, 7);
        let sizes = partition_sizes(&got, 7);
        // Balanced rounding caps: every partition within 1 of |E|/k.
        let ideal = 4000 / 7;
        assert!(sizes.iter().all(|&s| s >= ideal && s <= ideal + 1), "sizes {sizes:?}");
    }

    #[test]
    fn handles_disconnected_components_with_reseeding() {
        let g = hep_gen::spec::GraphSpec::DisconnectedCliques { count: 10, size: 6 }.generate(0);
        let got = run(&g, 4);
        assert_exactly_once(&g, &got);
    }

    #[test]
    fn low_replication_on_community_graph() {
        // NE must achieve a much lower replication factor than random
        // placement on a community-structured graph.
        let g = hep_gen::community::community_web(
            hep_gen::community::CommunityParams::weblike(5_000, 40_000),
            3,
        );
        let got = run(&g, 8);
        let mut replicas: Vec<std::collections::HashSet<u32>> =
            vec![Default::default(); g.num_vertices as usize];
        for (e, p) in &got.assignments {
            replicas[e.src as usize].insert(*p);
            replicas[e.dst as usize].insert(*p);
        }
        let covered = replicas.iter().filter(|s| !s.is_empty()).count();
        let rf = replicas.iter().map(|s| s.len()).sum::<usize>() as f64 / covered as f64;
        assert!(rf < 1.8, "NE replication factor {rf} too high for a web-like graph");
    }

    #[test]
    fn star_graph_all_partitions_used() {
        let g = hep_gen::spec::GraphSpec::Star { n: 41 }.generate(0);
        let got = run(&g, 4);
        assert_exactly_once(&g, &got);
        let sizes = partition_sizes(&got, 4);
        assert_eq!(sizes, vec![10, 10, 10, 10]);
    }

    #[test]
    fn two_partitions_on_tiny_graph() {
        let g = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3)]);
        let got = run(&g, 2);
        assert_exactly_once(&g, &got);
        let sizes = partition_sizes(&got, 2);
        assert_eq!(sizes.iter().sum::<u64>(), 3);
    }

    #[test]
    fn k_larger_than_edges_leaves_some_partitions_empty() {
        let g = EdgeList::from_pairs([(0, 1), (1, 2)]);
        let mut sink = CountingSink::default();
        Ne::default().partition(&g, 8, &mut sink).unwrap();
        assert_eq!(sink.counts.iter().sum::<u64>(), 2);
    }

    #[test]
    fn deterministic() {
        let g = hep_gen::GraphSpec::ChungLu { n: 300, m: 2000, gamma: 2.1 }.generate(2);
        assert_eq!(run(&g, 4).assignments, run(&g, 4).assignments);
    }
}
