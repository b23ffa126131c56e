//! NE++ — the memory-efficient neighbourhood-expansion phase of HEP (§3.2).
//!
//! NE++ improves classic NE with two structural ideas:
//!
//! * **Graph pruning** (§3.2.1): it runs on a [`PrunedCsr`] in which
//!   high-degree vertices have no adjacency lists. They are never expanded
//!   ("no expansion via a high-degree vertex") and enter secondary sets
//!   passively.
//! * **Lazy edge removal** (§3.2.2): no auxiliary per-edge "assigned"
//!   bookkeeping. An edge entry is swap-removed from an adjacency list only
//!   (a) from the scanning side at the moment of assignment, or (b) by the
//!   end-of-partition clean-up (Algorithm 2) from the lists of secondary-set
//!   survivors — the only lists a later partition can touch (Theorem 3.1).
//!
//! # Exactly-once assignment
//!
//! The implementation maintains the *event-coverage invariant*: an in-memory
//! edge is assigned exactly when its second endpoint enters `C ∪ S_i`,
//! during that endpoint's secondary-entry scan; the scanned entry is removed
//! immediately. Because high-degree vertices have no lists to scan, their
//! edges need three compensating rules (documented inline and in DESIGN.md):
//! assignment when a core move *introduces* a high-degree vertex to `S_i`,
//! assignment of remaining high-degree entries at core moves, and
//! assignment of remaining high-degree entries during clean-up. Each rule
//! fires only for provably-unassigned edges, which the module tests verify
//! exhaustively and property tests verify at random.

use crate::config::HepConfig;
use crate::streaming::HighReplicas;
use hep_ds::minheap::NOT_IN_HEAP;
use hep_ds::{DenseBitset, IndexedMinHeap};
use hep_graph::{AssignSink, PartitionId, PrunedCsr, VertexId};

/// Statistics of an NE++ run, powering Figures 5 and 7.
#[derive(Clone, Debug, Default)]
pub struct NeppStats {
    /// Total column-array entries at build time.
    pub column_entries: u64,
    /// Entries removed by clean-up passes (Figure 7's numerator).
    pub cleanup_removed: u64,
    /// Entries removed eagerly during secondary-entry scans.
    pub scan_removed: u64,
    /// Low–high edges assigned during clean-up (rule (c)).
    pub cleanup_assigned: u64,
    /// Number of initialization (re-seeding) events.
    pub initializations: u64,
    /// Vertices moved to the core set, and the sum of their degrees
    /// (Figure 5's C bucket).
    pub core_count: u64,
    pub core_degree_sum: u64,
    /// Vertices that appeared in some secondary set but were never cored,
    /// and the sum of their degrees (Figure 5's S\C bucket).
    pub secondary_only_count: u64,
    pub secondary_only_degree_sum: u64,
    /// In-memory edges assigned (must equal `|E \ E_h2h|` at the end).
    pub assigned_edges: u64,
}

impl NeppStats {
    /// Fraction of column entries removed by clean-up (Figure 7).
    pub fn cleanup_fraction(&self) -> f64 {
        if self.column_entries == 0 {
            0.0
        } else {
            self.cleanup_removed as f64 / self.column_entries as f64
        }
    }

    /// Average degree of cored vertices normalized by `mean_degree`
    /// (Figure 5, C bars).
    pub fn core_avg_degree_norm(&self, mean_degree: f64) -> f64 {
        if self.core_count == 0 || mean_degree == 0.0 {
            0.0
        } else {
            self.core_degree_sum as f64 / self.core_count as f64 / mean_degree
        }
    }

    /// Average degree of never-cored secondary vertices normalized by
    /// `mean_degree` (Figure 5, S\C bars).
    pub fn secondary_avg_degree_norm(&self, mean_degree: f64) -> f64 {
        if self.secondary_only_count == 0 || mean_degree == 0.0 {
            0.0
        } else {
            self.secondary_only_degree_sum as f64 / self.secondary_only_count as f64 / mean_degree
        }
    }
}

/// Output of the NE++ phase.
pub struct NeppResult {
    /// Secondary-set membership of the high-degree vertices:
    /// `s_sets.get(v, i)` iff `v ∈ V_h` is replicated on partition `i` by
    /// the in-memory phase. §3.3 seeds the streaming state from it, and
    /// every h2h endpoint is in V_h; the sets' low-degree bits are not kept.
    pub s_sets: HighReplicas,
    /// Edges placed on each partition by the in-memory phase.
    pub sizes: Vec<u64>,
    /// Full degree per vertex, moved out of the consumed CSR for the
    /// streaming phase's HDRF scores. While NE++ runs, a low-degree
    /// vertex's slot holds its heap position instead; the run rebuilds
    /// those slots from the CSR's segment lengths before it returns.
    pub degrees: Vec<u32>,
    /// Run statistics.
    pub stats: NeppStats,
    /// Column-array access trace (word indices), when requested.
    pub trace: Option<Vec<u64>>,
    /// Wall-clock seconds spent in the clean-up passes (Algorithm 2). Feeds
    /// the phase-timing breakdown of `HepRunReport`; not part of the
    /// deterministic output.
    pub cleanup_seconds: f64,
}

struct Nepp<'a, S: AssignSink + ?Sized> {
    csr: PrunedCsr,
    k: u32,
    caps: Vec<u64>,
    sizes: Vec<u64>,
    core: DenseBitset,
    /// The open partition's secondary set `S_cur`. A closed `S_i` lives on
    /// only in `ever` and, for high-degree vertices, in `replicas`: NE++
    /// reads the open set alone, and phase 2 reads V_h's rows alone.
    s_cur: DenseBitset,
    /// Vertices that were in some `S_i` (Figure 5's S\C bucket is
    /// `ever − core`).
    ever: DenseBitset,
    replicas: HighReplicas,
    /// Secondary-set vertices by external degree. Its position table is
    /// the CSR's degree table: low-degree slots carry heap positions (a low
    /// degree is the CSR segment length), high-degree slots keep the degree
    /// and are never passed to the heap.
    heap: IndexedMinHeap,
    cur: u32,
    /// Endpoints of spilled edges, queued (with the partition that received
    /// the edge) to join that partition's S set when it starts.
    pending: Vec<(VertexId, PartitionId)>,
    /// First partition after `cur` not yet observed full. Partition sizes
    /// only grow, so fullness is permanent and the cursor never moves
    /// backward — the spill search in [`Nepp::assign_edge`] is O(1)
    /// amortized instead of an O(k) probe per spilled edge.
    next_nonfull: u32,
    seed_cursor: u32,
    stats: NeppStats,
    trace: Option<Vec<u64>>,
    cleanup_seconds: f64,
    sink: &'a mut S,
}

/// The adapted capacity bound (§3.2.3): `total` edges split over `parts`
/// with balanced rounding — every cap is `⌊total/parts⌋` or `⌈total/parts⌉`
/// and the caps sum to exactly `total`.
fn balanced_caps(total: u64, parts: u32) -> Vec<u64> {
    (0..parts as u64)
        .map(|i| (total * (i + 1)) / parts as u64 - (total * i) / parts as u64)
        .collect()
}

/// Runs NE++ over a pruned CSR, emitting in-memory edge assignments into
/// `sink`. The CSR is consumed: lazy removal destroys adjacency lists.
pub fn run_nepp<S: AssignSink + ?Sized>(
    mut csr: PrunedCsr,
    k: u32,
    config: &HepConfig,
    sink: &mut S,
) -> NeppResult {
    let n = csr.num_vertices();
    let inmem = csr.num_inmem_edges();
    let caps = balanced_caps(inmem, k);
    let stats = NeppStats { column_entries: csr.column_entries(), ..Default::default() };
    let replicas = HighReplicas::new(k, csr.stats().high.clone());
    let mut positions = csr.take_degrees();
    for (v, slot) in positions.iter_mut().enumerate() {
        if !csr.is_high(v as VertexId) {
            *slot = NOT_IN_HEAP;
        }
    }
    let mut engine = Nepp {
        csr,
        k,
        caps,
        sizes: vec![0; k as usize],
        core: DenseBitset::new(n as usize),
        s_cur: DenseBitset::new(n as usize),
        ever: DenseBitset::new(n as usize),
        replicas,
        heap: IndexedMinHeap::with_positions(positions),
        cur: 0,
        pending: Vec::new(),
        next_nonfull: 1,
        seed_cursor: 0,
        stats,
        trace: config.record_trace.then(Vec::new),
        cleanup_seconds: 0.0,
        sink,
    };
    engine.run();
    engine.finish()
}

impl<'a, S: AssignSink + ?Sized> Nepp<'a, S> {
    fn run(&mut self) {
        while self.cur < self.k {
            if self.cur + 1 == self.k {
                self.build_last_partition();
                break;
            }
            let exhausted = self.expand_partition();
            self.cleanup_partition();
            if exhausted {
                break; // no in-memory edges left anywhere
            }
            self.advance_partition();
        }
    }

    /// Entry `i` of `v`'s out-list (`out`) or in-list, recording its
    /// column position when tracing.
    #[inline]
    fn read_entry(&mut self, v: VertexId, out: bool, i: u32) -> VertexId {
        let (pos, u) = self.csr.entry(v, out, i);
        if let Some(t) = &mut self.trace {
            t.push(pos);
        }
        u
    }

    #[inline]
    fn is_member(&self, v: VertexId) -> bool {
        self.core.get(v) || self.s_cur.get(v)
    }

    /// First non-full partition at or after `max(next_nonfull, cur + 1)`,
    /// or `k - 1` when everything is full (the last partition absorbs the
    /// remainder, as in Algorithm 3). Equivalent to the naive
    /// `(cur + 1..k).find(not full)` probe: every partition the cursor has
    /// skipped was full when observed and sizes never shrink.
    fn spill_target(&mut self) -> PartitionId {
        if self.next_nonfull <= self.cur {
            self.next_nonfull = self.cur + 1;
        }
        while self.next_nonfull < self.k
            && self.sizes[self.next_nonfull as usize] >= self.caps[self.next_nonfull as usize]
        {
            self.next_nonfull += 1;
        }
        if self.next_nonfull < self.k {
            self.next_nonfull
        } else {
            self.k - 1
        }
    }

    /// Emits an edge, spilling past full partitions (Algorithm 1 ll. 25–28).
    fn assign_edge(&mut self, src: VertexId, dst: VertexId) {
        let target = if self.sizes[self.cur as usize] < self.caps[self.cur as usize] {
            self.cur
        } else {
            self.spill_target()
        };
        if target != self.cur {
            // Spilled endpoints join the target's secondary set; queueing
            // them (instead of setting bits now) lets the activation scan at
            // partition start assign pending edges exactly once.
            self.pending.push((src, target));
            self.pending.push((dst, target));
        }
        self.sizes[target as usize] += 1;
        self.stats.assigned_edges += 1;
        self.sink.assign(src, dst, target);
    }

    /// Moves low-degree `v` into the current secondary set: scans its
    /// adjacency, assigns (and removes) edges whose other endpoint is
    /// already a member, computes the external degree, and enters the heap.
    fn move_to_secondary(&mut self, v: VertexId) {
        debug_assert!(!self.csr.is_high(v));
        if self.is_member(v) {
            return;
        }
        self.s_cur.set(v);
        let mut dext = 0u64;
        // Out-list entries are edges (v, u), in-list entries edges (u, v).
        for out in [true, false] {
            let mut size = self.csr.list_len(v, out);
            let mut i = 0u32;
            while i < size {
                let u = self.read_entry(v, out, i);
                if self.is_member(u) {
                    let (src, dst) = if out { (v, u) } else { (u, v) };
                    self.assign_edge(src, dst);
                    self.csr.swap_remove(v, out, i);
                    self.stats.scan_removed += 1;
                    size -= 1;
                    // A high vertex's slot holds its degree, not a position.
                    if !self.csr.is_high(u) {
                        self.heap.decrease_key_by(u, 1);
                    }
                } else {
                    dext += 1;
                    i += 1;
                }
            }
        }
        self.heap.insert(v, dext);
    }

    /// Moves `v` from the secondary set to the core: remaining valid entries
    /// are either fresh external neighbours (recurse into the secondary
    /// set), pending low–high edges (assign now), or low edges already
    /// assigned from the other side (skip; `v`'s list dies with the core
    /// move, Theorem 3.1).
    fn move_to_core(&mut self, v: VertexId) {
        debug_assert!(!self.csr.is_high(v), "high-degree vertices are never cored");
        self.core.set(v);
        self.stats.core_count += 1;
        self.stats.core_degree_sum += self.csr.segment_len(v) as u64;
        self.scan_core_list(v, true);
        self.scan_core_list(v, false);
    }

    fn scan_core_list(&mut self, v: VertexId, out: bool) {
        let mut size = self.csr.list_len(v, out);
        let mut i = 0u32;
        while i < size {
            let u = self.read_entry(v, out, i);
            let (src, dst) = if out { (v, u) } else { (u, v) };
            if self.csr.is_high(u) {
                // Rules (a)/(b): the edge to a high-degree vertex is
                // provably unassigned — had it been assigned from v's side,
                // the entry would have been removed, and h has no list of
                // its own to assign from.
                // "High-degree vertices are always in the secondary set":
                // the core move introduces u to S_i.
                self.s_cur.set(u);
                self.assign_edge(src, dst);
                self.csr.swap_remove(v, out, i);
                self.stats.scan_removed += 1;
                size -= 1;
            } else if self.is_member(u) {
                // Low member: the edge was assigned when the later of (u, v)
                // entered the set; only the stale mirror entry remains.
                i += 1;
            } else {
                self.move_to_secondary(u);
                i += 1;
            }
        }
    }

    /// Sequential initialization (§3.2.3): the cursor never revisits a
    /// vertex, because unsuitability (cored / high-degree / no valid edges)
    /// is permanent.
    fn find_seed(&mut self) -> Option<VertexId> {
        let n = self.csr.num_vertices();
        while self.seed_cursor < n {
            let v = self.seed_cursor;
            if !self.core.get(v) && !self.csr.is_high(v) && self.csr.valid_degree(v) > 0 {
                return Some(v);
            }
            self.seed_cursor += 1;
        }
        None
    }

    /// Expands the current partition to its capacity. Returns true when the
    /// whole in-memory edge set is exhausted (no further seeds).
    fn expand_partition(&mut self) -> bool {
        loop {
            if self.sizes[self.cur as usize] >= self.caps[self.cur as usize] {
                return false;
            }
            if let Some((_, v)) = self.heap.pop_min() {
                self.move_to_core(v);
            } else if let Some(seed) = self.find_seed() {
                self.stats.initializations += 1;
                // Seeds pass through S first so edges into the existing
                // secondary set (possible when only high-degree vertices
                // remain there) are assigned.
                self.move_to_secondary(seed);
            } else {
                return true;
            }
        }
    }

    /// Clean-up (Algorithm 2): for each secondary-set survivor, remove the
    /// entries a later partition could otherwise double-assign; pending
    /// low–high edges among them are assigned here (rule (c)). The same
    /// member walk closes `S_cur`: high-degree members get partition
    /// `cur`'s replica bit, and the set is folded into `ever` and cleared.
    fn cleanup_partition(&mut self) {
        // hep-lint: allow(HL002) -- cleanup timing is accumulated for Figure 7 reporting; it never feeds an assignment decision
        let start = std::time::Instant::now();
        // Clean-up never changes S_cur, so the walk reads one copied word
        // at a time instead of collecting the members first.
        for w in 0..self.s_cur.words().len() {
            let mut word = self.s_cur.words()[w];
            while word != 0 {
                let v = (w as VertexId) << 6 | word.trailing_zeros();
                word &= word - 1;
                if self.csr.is_high(v) {
                    self.replicas.set(v, self.cur); // high-degree lists are pruned
                } else if !self.core.get(v) {
                    // Core lists are dead; a survivor's are cleaned.
                    self.cleanup_list(v, true);
                    self.cleanup_list(v, false);
                }
            }
        }
        self.ever.union_with(&self.s_cur);
        self.s_cur.clear_all();
        self.cleanup_seconds += start.elapsed().as_secs_f64();
    }

    fn cleanup_list(&mut self, v: VertexId, out: bool) {
        let mut size = self.csr.list_len(v, out);
        let mut i = 0u32;
        while i < size {
            let u = self.read_entry(v, out, i);
            if self.is_member(u) {
                if self.csr.is_high(u) {
                    // Rule (c): a surviving low->high entry into S_i is
                    // provably unassigned (v was never cored, never scanned
                    // it as a member, and u has no list).
                    let (src, dst) = if out { (v, u) } else { (u, v) };
                    self.assign_edge(src, dst);
                    self.stats.cleanup_assigned += 1;
                }
                self.csr.swap_remove(v, out, i);
                self.stats.cleanup_removed += 1;
                size -= 1;
            } else {
                i += 1;
            }
        }
    }

    fn advance_partition(&mut self) {
        self.cur += 1;
        self.heap.clear();
        // Activate pending endpoints whose edge landed on this partition;
        // entries for later partitions (cascaded spills) stay queued.
        let pending = std::mem::take(&mut self.pending);
        let (now, later): (Vec<_>, Vec<_>) = pending.into_iter().partition(|&(_, t)| t == self.cur);
        self.pending = later;
        // High-degree endpoints first (bitset only), so that the low-degree
        // activations below see them and assign pending low–high edges.
        for &(v, _) in &now {
            if self.csr.is_high(v) {
                self.s_cur.set(v);
            }
        }
        for &(v, _) in &now {
            if self.csr.is_high(v) {
                continue;
            }
            if self.core.get(v) {
                // Already cored: its adjacency list is dead (all incident
                // edges assigned), so only the replication bit is owed.
                self.s_cur.set(v);
            } else {
                self.move_to_secondary(v);
            }
        }
    }

    /// Algorithm 3: assign every remaining in-memory edge from the low,
    /// not-yet-cored side — out-entries own low–low edges, in-entries own
    /// edges whose stored source is high-degree.
    fn build_last_partition(&mut self) {
        // Record spilled endpoints at their target for replication
        // bookkeeping; Algorithm 3 below assigns every remaining edge
        // unconditionally, so no activation scan is needed.
        let pending = std::mem::take(&mut self.pending);
        for (v, t) in pending {
            self.record(v, t);
        }
        let n = self.csr.num_vertices();
        for v in 0..n {
            if self.core.get(v) || self.csr.is_high(v) {
                continue;
            }
            for i in 0..self.csr.list_len(v, true) {
                let u = self.read_entry(v, true, i);
                self.assign_edge_last(v, u);
            }
            for i in 0..self.csr.list_len(v, false) {
                let u = self.read_entry(v, false, i);
                if self.csr.is_high(u) {
                    self.assign_edge_last(u, v);
                }
            }
        }
    }

    fn assign_edge_last(&mut self, src: VertexId, dst: VertexId) {
        // Algorithm 3 lines 10–11: advance once the bound is reached (only
        // meaningful if expansion ended early; normally `cur` is already the
        // final partition and absorbs the remainder).
        while self.sizes[self.cur as usize] >= self.caps[self.cur as usize] && self.cur + 1 < self.k
        {
            self.cur += 1;
        }
        let p: PartitionId = self.cur;
        self.sizes[p as usize] += 1;
        self.stats.assigned_edges += 1;
        self.record(src, p);
        self.record(dst, p);
        self.sink.assign(src, dst, p);
    }

    /// Records `v` on partition `p` outside the open set: in `ever`, and
    /// in `p`'s replica row when `v` is high-degree.
    #[inline]
    fn record(&mut self, v: VertexId, p: PartitionId) {
        self.ever.set(v);
        self.replicas.set(v, p);
    }

    fn finish(mut self) -> NeppResult {
        // Exhaustion can end the run with spill endpoints still queued
        // (their edges are assigned; only the replication bits are owed).
        let pending = std::mem::take(&mut self.pending);
        for (v, t) in pending {
            self.record(v, t);
        }
        // The last partition has no clean-up pass to close its open set
        // (after an exhausted clean-up the set is already empty).
        for v in self.s_cur.iter_ones() {
            self.replicas.set(v, self.cur);
        }
        self.ever.union_with(&self.s_cur);
        debug_assert_eq!(
            self.stats.assigned_edges,
            self.csr.num_inmem_edges(),
            "NE++ must assign every in-memory edge exactly once"
        );
        // The heap lent the degree table's low-degree slots; rebuild them.
        let mut degrees = self.heap.into_positions();
        for (v, d) in degrees.iter_mut().enumerate() {
            if !self.csr.is_high(v as VertexId) {
                *d = self.csr.segment_len(v as VertexId);
            }
        }
        // Figure 5 bookkeeping: degrees of vertices that were in some S_i
        // but never cored.
        self.ever.difference_with(&self.core);
        for v in self.ever.iter_ones() {
            self.stats.secondary_only_count += 1;
            self.stats.secondary_only_degree_sum += degrees[v as usize] as u64;
        }
        NeppResult {
            s_sets: self.replicas,
            sizes: self.sizes,
            degrees,
            stats: self.stats,
            trace: self.trace,
            cleanup_seconds: self.cleanup_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::CollectedAssignment;
    use hep_graph::{Edge, EdgeList};
    use proptest::prelude::*;

    fn run(graph: &EdgeList, k: u32, tau: f64) -> (CollectedAssignment, NeppResult, Vec<Edge>) {
        let mut h2h = Vec::new();
        let stats = hep_graph::DegreeStats::new(graph, tau);
        let pass = || Ok(graph.edges.iter().copied().map(Ok));
        let csr = PrunedCsr::build_from_passes(stats, pass, |e| h2h.push(e)).unwrap();
        let mut sink = CollectedAssignment::default();
        let result = run_nepp(csr, k, &HepConfig::with_tau(tau), &mut sink);
        assert_eq!(result.degrees, graph.degrees(), "degree table handed to phase 2");
        (sink, result, h2h)
    }

    /// Exactly-once check: in-memory assignments plus h2h edges must equal
    /// the input edge multiset.
    fn assert_partition_valid(graph: &EdgeList, sink: &CollectedAssignment, h2h: &[Edge]) {
        let mut seen: Vec<Edge> = sink.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.extend(h2h.iter().map(|e| e.canonical()));
        seen.sort_unstable();
        let mut expect: Vec<Edge> = graph.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "edge multiset mismatch");
    }

    #[test]
    fn figure3_example_partition() {
        // The 9-vertex example of Figure 3/4, all-low (large tau).
        let g = EdgeList::from_pairs([
            (0, 5),
            (0, 7),
            (1, 4),
            (1, 5),
            (2, 4),
            (3, 4),
            (4, 5),
            (5, 7),
            (5, 8),
            (6, 8),
            (7, 8),
        ]);
        let (sink, result, h2h) = run(&g, 2, 1e9);
        assert!(h2h.is_empty());
        assert_partition_valid(&g, &sink, &h2h);
        // Balanced: caps are [5, 6] for 11 edges.
        assert_eq!(result.sizes.iter().sum::<u64>(), 11);
        assert!(result.sizes[0] <= 6 && result.sizes[1] <= 6, "{:?}", result.sizes);
    }

    #[test]
    fn figure4_pruned_partition() {
        // Same graph at tau=1.5: v4, v5 high; edge (4,5) goes to h2h.
        let g = EdgeList::from_pairs([
            (0, 5),
            (0, 7),
            (1, 4),
            (1, 5),
            (2, 4),
            (3, 4),
            (4, 5),
            (5, 7),
            (5, 8),
            (6, 8),
            (7, 8),
        ]);
        let (sink, result, h2h) = run(&g, 2, 1.5);
        assert_eq!(h2h, vec![Edge::new(4, 5)]);
        assert_eq!(sink.assignments.len(), 10);
        assert_partition_valid(&g, &sink, &h2h);
        assert_eq!(result.stats.assigned_edges, 10);
    }

    #[test]
    fn star_graph_low_tau() {
        // Star hub is high-degree at tau=1: all edges are low-high, no h2h.
        let g = hep_gen::spec::GraphSpec::Star { n: 100 }.generate(0);
        let (sink, result, h2h) = run(&g, 4, 1.0);
        assert!(h2h.is_empty());
        assert_partition_valid(&g, &sink, &h2h);
        // Hub must be replicated on all partitions that got edges.
        let hub_parts: std::collections::HashSet<u32> =
            sink.assignments.iter().map(|&(_, p)| p).collect();
        for &p in &hub_parts {
            assert!(result.s_sets.get(0, p), "hub missing from S_{p}");
        }
    }

    #[test]
    fn s_sets_cover_assigned_endpoints() {
        // Every high-degree endpoint of an in-memory edge on p has p's
        // replica bit (the rows phase 2 seeds from); low ones have no row.
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 4000, gamma: 2.2 }.generate(3);
        let tau = 2.0;
        let (sink, result, _) = run(&g, 8, tau);
        let stats = hep_graph::DegreeStats::new(&g, tau);
        assert_eq!(result.s_sets.high(), &stats.high, "rows cover exactly V_h");
        assert!(stats.num_high > 0, "fixture needs high-degree vertices");
        let mut checked = 0;
        for (e, p) in &sink.assignments {
            for v in [e.src, e.dst] {
                if stats.is_high(v) {
                    assert!(result.s_sets.get(v, *p), "high endpoint {v} of edge on p{p} not in S");
                    checked += 1;
                } else {
                    assert!(!result.s_sets.get(v, *p), "low vertex {v} has a replica row");
                }
            }
        }
        assert!(checked > 0);
    }

    #[test]
    fn balanced_partitions() {
        let g = hep_gen::GraphSpec::ChungLu { n: 600, m: 5000, gamma: 2.3 }.generate(5);
        let (_, result, h2h) = run(&g, 7, 10.0);
        let inmem = 5000 - h2h.len() as u64;
        let ideal = inmem / 7;
        for &s in &result.sizes {
            assert!(s <= ideal + 1, "partition overfull: {:?}", result.sizes);
        }
        assert_eq!(result.sizes.iter().sum::<u64>(), inmem);
    }

    #[test]
    fn low_tau_reduces_inmem_edges() {
        let g = hep_gen::GraphSpec::ChungLu { n: 2000, m: 20_000, gamma: 2.0 }.generate(7);
        let h2h_count = |tau: f64| PrunedCsr::build(&g, tau).num_h2h_edges();
        assert!(h2h_count(1.0) > h2h_count(10.0));
        assert!(h2h_count(10.0) >= h2h_count(100.0));
    }

    #[test]
    fn cleanup_fraction_is_small_on_community_graph() {
        // Figure 7: only a small fraction of column entries is removed by
        // clean-up, especially on web-like graphs.
        let g = hep_gen::community::community_web(
            hep_gen::community::CommunityParams::weblike(5_000, 40_000),
            1,
        );
        let (_, result, _) = run(&g, 32, 10.0);
        let frac = result.stats.cleanup_fraction();
        assert!(frac < 0.35, "cleanup fraction {frac} unexpectedly high");
    }

    #[test]
    fn secondary_survivors_have_higher_degree_than_core() {
        // Figure 5: the S\C bucket has far higher average degree than C.
        let g = hep_gen::GraphSpec::ChungLu { n: 4000, m: 35_000, gamma: 2.2 }.generate(9);
        let (_, result, _) = run(&g, 32, 1e9); // no pruning: pure NE++ behaviour
        let mean = g.mean_degree();
        let c = result.stats.core_avg_degree_norm(mean);
        let s = result.stats.secondary_avg_degree_norm(mean);
        assert!(s > c, "S\\C avg degree {s} should exceed C avg degree {c}");
    }

    #[test]
    fn disconnected_components_need_reseeding() {
        let g = hep_gen::spec::GraphSpec::DisconnectedCliques { count: 20, size: 5 }.generate(0);
        let (sink, result, h2h) = run(&g, 4, 100.0);
        assert_partition_valid(&g, &sink, &h2h);
        assert!(result.stats.initializations >= 4, "expected several re-seeds");
    }

    #[test]
    fn trace_recording_captures_accesses() {
        let g = hep_gen::GraphSpec::ChungLu { n: 200, m: 1000, gamma: 2.2 }.generate(2);
        let csr = PrunedCsr::build(&g, 10.0);
        let mut sink = CollectedAssignment::default();
        let mut config = HepConfig::with_tau(10.0);
        config.record_trace = true;
        let result = run_nepp(csr, 4, &config, &mut sink);
        let trace = result.trace.expect("trace requested");
        assert!(!trace.is_empty());
        // Positions index the column array: its entries plus a two-word
        // header per non-empty low segment.
        let csr = PrunedCsr::build(&g, 10.0);
        let headers = (0..csr.num_vertices()).filter(|&v| csr.segment_len(v) > 0).count();
        let col_words = csr.column_entries() + 2 * headers as u64;
        assert!(trace.iter().all(|&idx| idx < col_words));
    }

    #[test]
    fn empty_inmem_set_is_fine() {
        // tau so low everything is h2h (regular graph): NE++ assigns nothing.
        let g = hep_gen::spec::GraphSpec::Cycle { n: 50 }.generate(0);
        let (sink, result, h2h) = run(&g, 4, 0.4);
        assert_eq!(h2h.len(), 50);
        assert!(sink.assignments.is_empty());
        assert_eq!(result.stats.assigned_edges, 0);
    }

    #[test]
    fn k_equals_two() {
        let g = hep_gen::GraphSpec::ErdosRenyi { n: 100, m: 500 }.generate(4);
        let (sink, _, h2h) = run(&g, 2, 10.0);
        assert_partition_valid(&g, &sink, &h2h);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// NE++ assigns every in-memory edge exactly once and stays within
        /// capacity bounds, for arbitrary graphs, tau and k.
        #[test]
        fn exactly_once_any_graph(
            pairs in proptest::collection::vec((0u32..60, 0u32..60), 1..400),
            tau in prop_oneof![
                Just(0.5),
                Just(1.0),
                Just(2.0),
                Just(10.0),
                Just(100.0),
                Just(f64::INFINITY)
            ],
            k in 2u32..9,
        ) {
            let mut g = EdgeList::from_pairs(pairs);
            g.canonicalize();
            prop_assume!(!g.edges.is_empty());
            let (sink, result, h2h) = run(&g, k, tau);
            // Exactly-once.
            let mut seen: Vec<Edge> = sink.assignments.iter().map(|(e, _)| e.canonical()).collect();
            seen.extend(h2h.iter().map(|e| e.canonical()));
            seen.sort_unstable();
            let mut expect: Vec<Edge> = g.edges.iter().map(|e| e.canonical()).collect();
            expect.sort_unstable();
            prop_assert_eq!(seen, expect);
            // Capacity: balanced-rounding caps with the last partition
            // absorbing Algorithm 3's remainder.
            let inmem = g.num_edges() - h2h.len() as u64;
            prop_assert_eq!(result.sizes.iter().sum::<u64>(), inmem);
            let ideal = inmem / k as u64;
            for (p, &s) in result.sizes.iter().enumerate() {
                if (p as u32) < k - 1 {
                    prop_assert!(s <= ideal + 1, "p{} size {} sizes {:?}", p, s, result.sizes);
                }
            }
            // Replication coverage of the high-degree endpoints.
            let stats = hep_graph::DegreeStats::new(&g, tau);
            for (e, p) in &sink.assignments {
                for v in [e.src, e.dst] {
                    prop_assert_eq!(result.s_sets.get(v, *p), stats.is_high(v));
                }
            }
        }
    }
}
