//! DNE: distributed neighbourhood expansion (Hanai et al., VLDB'19 \[30\]).
//!
//! DNE grows all `k` partitions *concurrently*, each claiming edges from a
//! shared pool. We reproduce it as a bulk-synchronous sequence of expansion
//! rounds on the `hep-par` pool: every round, each partition expands from
//! its saved frontier state against a **frozen snapshot** of the global
//! claim table, proposing a bounded batch of edges; a serial merge then
//! grants proposals in partition order (lowest partition id wins a
//! conflict) before the next round starts. The paper's two observations
//! about DNE fall out of this structure naturally: memory overhead an
//! order of magnitude above HEP's (every partition keeps frontier state
//! over the full vertex range), and replication-factor degradation caused
//! by expansions racing for the same regions — the round-level conflicts
//! are exactly those races.
//!
//! Unlike the distributed original (and an earlier version of this module,
//! which let OS-thread interleaving decide claim races), the result is
//! **deterministic and bit-identical at any thread count**: each round's
//! proposals depend only on the round-start snapshot and per-partition
//! state, and the merge order is fixed. The workspace-wide determinism
//! invariant (DESIGN.md §4) therefore holds for DNE too.

use hep_ds::{DenseBitset, FxHashSet, IndexedMinHeap};
use hep_graph::partitioner::check_inputs;
use hep_graph::{AssignSink, Csr, EdgeList, EdgePartitioner, GraphError, PartitionId, VertexId};

/// Bulk-synchronous parallel neighbourhood expansion.
#[derive(Clone, Debug)]
pub struct Dne {
    /// Worker threads for the expansion rounds (0 = the `hep-par` pool's
    /// configured count). Results do not depend on this value.
    pub threads: usize,
    /// Per-partition capacity factor (the paper configures 1.05).
    pub balance: f64,
}

impl Default for Dne {
    fn default() -> Self {
        Dne { threads: 0, balance: 1.05 }
    }
}

/// Resumable per-partition expansion state, carried across rounds.
struct Expansion {
    /// Vertices whose entire unclaimed neighbourhood this partition owns.
    core: DenseBitset,
    /// Secondary set: vertices adjacent to the core.
    in_s: DenseBitset,
    /// Frontier ordered by external degree (arg-min expansion).
    heap: IndexedMinHeap,
    /// Edges granted to this partition so far.
    size: u64,
    /// Vertices probed by the seed scan (monotone: a vertex found
    /// unsuitable can never become suitable again, claims only grow).
    probed: u32,
    /// Seed-scan start, staggered so expansions begin in distinct regions.
    cursor: u32,
    /// Set when the heap and the seed scan are both exhausted.
    done: bool,
}

impl Expansion {
    fn new(p: PartitionId, k: u32, n: u32) -> Self {
        Expansion {
            core: DenseBitset::new(n as usize),
            in_s: DenseBitset::new(n as usize),
            heap: IndexedMinHeap::new(n as usize),
            size: 0,
            probed: 0,
            cursor: (p as u64 * n as u64 / k as u64) as u32,
            done: false,
        }
    }

    /// Expands until `batch` new edges are proposed, the capacity is
    /// reached, or nothing claimable remains. Proposals are tentative: the
    /// caller's merge may reject some (another partition won the edge this
    /// round), compensating via [`Expansion::size`].
    fn expand_round(
        &mut self,
        csr: &Csr,
        claimed: &DenseBitset,
        cap: u64,
        batch: usize,
    ) -> Vec<u32> {
        let n = csr.num_vertices();
        let mut proposals: Vec<u32> = Vec::new();
        // This round's own tentative claims, layered over the snapshot.
        let mut overlay: FxHashSet<u32> = FxHashSet::default();
        let is_claimed =
            |overlay: &FxHashSet<u32>, eid: u32| claimed.get(eid) || overlay.contains(&eid);

        while self.size < cap && proposals.len() < batch {
            let v = match self.heap.pop_min() {
                Some((_, v)) => v,
                None => {
                    // Seed scan: first vertex (from the cursor) not yet
                    // local with an unclaimed incident edge.
                    let mut found = None;
                    while self.probed < n {
                        let v = (self.cursor.wrapping_add(self.probed)) % n;
                        self.probed += 1;
                        if self.core.get(v) || self.in_s.get(v) {
                            continue;
                        }
                        if csr.neighbors_with_eids(v).any(|(_, eid)| !is_claimed(&overlay, eid)) {
                            found = Some(v);
                            break;
                        }
                    }
                    match found {
                        Some(v) => {
                            self.move_to_secondary(
                                v,
                                csr,
                                claimed,
                                cap,
                                &mut overlay,
                                &mut proposals,
                            );
                            match self.heap.pop_min() {
                                Some((_, v)) => v,
                                None => {
                                    self.done = true;
                                    break;
                                }
                            }
                        }
                        None => {
                            // Nothing left to claim anywhere.
                            self.done = true;
                            break;
                        }
                    }
                }
            };
            self.core.set(v);
            let mut externals: Vec<VertexId> = Vec::new();
            for (u, eid) in csr.neighbors_with_eids(v) {
                if !is_claimed(&overlay, eid) && !self.core.get(u) && !self.in_s.get(u) {
                    externals.push(u);
                }
            }
            for u in externals {
                self.move_to_secondary(u, csr, claimed, cap, &mut overlay, &mut proposals);
            }
        }
        proposals
    }

    /// Moves `v` into the secondary set, proposing every edge from `v` into
    /// the current local set while the partition is under `cap`, and
    /// inserting `v` into the frontier heap with its external degree. The
    /// cap is checked per edge: popping a hub moves each of its neighbours
    /// here in one step, and each would otherwise propose its hub edge.
    fn move_to_secondary(
        &mut self,
        v: VertexId,
        csr: &Csr,
        claimed: &DenseBitset,
        cap: u64,
        overlay: &mut FxHashSet<u32>,
        proposals: &mut Vec<u32>,
    ) {
        if self.in_s.get(v) || self.core.get(v) {
            return;
        }
        self.in_s.set(v);
        let mut dext = 0u64;
        for (u, eid) in csr.neighbors_with_eids(v) {
            if claimed.get(eid) || overlay.contains(&eid) {
                continue;
            }
            if self.core.get(u) || self.in_s.get(u) {
                // At the cap the edge stays unclaimed, for another
                // partition or the leftover pass.
                if self.size < cap {
                    overlay.insert(eid);
                    proposals.push(eid);
                    self.size += 1;
                    self.heap.decrease_key_by(u, 1);
                }
            } else {
                dext += 1;
            }
        }
        self.heap.insert(v, dext);
    }
}

impl EdgePartitioner for Dne {
    fn name(&self) -> String {
        "DNE".to_string()
    }

    fn partition(
        &mut self,
        graph: &EdgeList,
        k: u32,
        sink: &mut dyn AssignSink,
    ) -> Result<(), GraphError> {
        check_inputs(graph, k)?;
        let csr = Csr::build(graph);
        let m = graph.num_edges();
        let cap = ((self.balance * m as f64) / k as f64).ceil() as u64;
        // Proposal batch per partition per round: a function of the input
        // only, so the round structure (and output) is thread-independent.
        let batch = (cap / 4).max(4096) as usize;
        let pool = if self.threads == 0 {
            hep_par::Pool::current()
        } else {
            hep_par::Pool::new(self.threads)
        };

        let mut claimed = DenseBitset::new(graph.edges.len());
        // Each partition's state lives behind its own (uncontended) mutex
        // so a round's tasks can borrow their states mutably in parallel.
        let states: Vec<std::sync::Mutex<Expansion>> = (0..k)
            .map(|p| std::sync::Mutex::new(Expansion::new(p, k, csr.num_vertices())))
            .collect();
        let mut granted: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        loop {
            let active: Vec<u32> = (0..k)
                .filter(|&p| {
                    let s = hep_ds::sync::lock(&states[p as usize]);
                    !s.done && s.size < cap
                })
                .collect();
            if active.is_empty() {
                break;
            }
            // Expansion round: every active partition proposes against the
            // frozen snapshot, concurrently.
            let claimed_ref = &claimed;
            let csr_ref = &csr;
            let proposals: Vec<(u32, Vec<u32>)> = pool.par_map(active.len(), |i| {
                let p = active[i];
                let mut state = hep_ds::sync::lock(&states[p as usize]);
                (p, state.expand_round(csr_ref, claimed_ref, cap, batch))
            });
            // Serial merge in partition order: lowest id wins a conflict;
            // losers give the edge back (size compensation).
            let mut any = false;
            for (p, eids) in proposals {
                for eid in eids {
                    if claimed.insert(eid) {
                        granted[p as usize].push(eid);
                        any = true;
                    } else {
                        hep_ds::sync::lock(&states[p as usize]).size -= 1;
                    }
                }
            }
            if !any {
                break;
            }
        }

        // Leftovers (components no expansion reached before its cap) go to
        // the least-loaded partitions.
        let mut sizes: Vec<u64> = granted.iter().map(|g| g.len() as u64).collect();
        for eid in 0..graph.edges.len() as u32 {
            if !claimed.get(eid) {
                #[expect(
                    clippy::expect_used,
                    reason = "check_inputs rejects k == 0, so the range is non-empty"
                )]
                let p = (0..k).min_by_key(|&p| sizes[p as usize]).expect("k >= 1");
                sizes[p as usize] += 1;
                granted[p as usize].push(eid);
            }
        }
        for (p, eids) in granted.iter().enumerate() {
            for &eid in eids {
                let e = graph.edges[eid as usize];
                sink.assign(e.src, e.dst, p as PartitionId);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::{CollectedAssignment, CountingSink};

    #[test]
    fn covers_every_edge_exactly_once() {
        let g = hep_gen::GraphSpec::ChungLu { n: 800, m: 6000, gamma: 2.2 }.generate(13);
        let mut sink = CollectedAssignment::default();
        Dne::default().partition(&g, 8, &mut sink).unwrap();
        assert_eq!(sink.assignments.len(), g.edges.len());
        let mut seen: Vec<_> = sink.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.sort_unstable();
        let mut expect: Vec<_> = g.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn respects_capacity() {
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 4000, gamma: 2.1 }.generate(3);
        let mut sink = CountingSink::default();
        Dne { threads: 4, balance: 1.05 }.partition(&g, 4, &mut sink).unwrap();
        assert_eq!(sink.counts.iter().sum::<u64>(), 4000);
        // Expansion proposes only under the cap, and the leftover pass
        // fills the least-loaded part, which is below m / k <= cap.
        let cap = (1.05f64 * 1000.0).ceil() as u64;
        assert!(sink.counts.iter().all(|&c| c <= cap), "{:?}", sink.counts);
    }

    #[test]
    fn single_threaded_run_works() {
        let g = hep_gen::GraphSpec::ErdosRenyi { n: 200, m: 1500 }.generate(1);
        let mut sink = CountingSink::default();
        Dne { threads: 1, balance: 1.05 }.partition(&g, 4, &mut sink).unwrap();
        assert_eq!(sink.counts.iter().sum::<u64>(), 1500);
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // The defining new property: the expansion rounds produce the exact
        // same assignment sequence whether run on 1, 2 or 8 workers.
        let g = hep_gen::GraphSpec::ChungLu { n: 1200, m: 9000, gamma: 2.2 }.generate(7);
        let mut reference = CollectedAssignment::default();
        Dne { threads: 1, balance: 1.05 }.partition(&g, 8, &mut reference).unwrap();
        for threads in [2usize, 8] {
            let mut sink = CollectedAssignment::default();
            Dne { threads, balance: 1.05 }.partition(&g, 8, &mut sink).unwrap();
            assert_eq!(sink.assignments, reference.assignments, "{threads} threads diverged");
        }
    }

    #[test]
    fn disconnected_components_fully_assigned() {
        let g = hep_gen::spec::GraphSpec::DisconnectedCliques { count: 12, size: 5 }.generate(0);
        let mut sink = CountingSink::default();
        Dne::default().partition(&g, 4, &mut sink).unwrap();
        assert_eq!(sink.counts.iter().sum::<u64>(), g.num_edges());
    }
}
