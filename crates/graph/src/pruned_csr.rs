//! The pruned CSR representation of NE++ (paper §3.2.1, §4.2).
//!
//! Differences from a conventional CSR:
//!
//! * Adjacency lists of **high-degree vertices are omitted** from the column
//!   array. Edges between a low- and a high-degree vertex are reachable via
//!   the low-degree endpoint only; edges between two high-degree vertices are
//!   written to an external buffer (`h2h`) during construction and later
//!   partitioned by the streaming phase.
//! * Every stored adjacency list is split into an **out-list** (edges where
//!   the vertex is the left endpoint of the input pair) followed by an
//!   **in-list**; a second index array marks the split (§3.2.3 "Building the
//!   Last Partition").
//! * Each sub-list carries a **size field** counting its valid entries.
//!   Removing an entry swaps it with the last valid entry and decrements the
//!   size — the constant-time *lazy edge removal* of §3.2.2.

use crate::degrees::DegreeStats;
use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::types::{Edge, VertexId};

/// Pruned CSR with dual index arrays, size fields and an h2h edge buffer.
#[derive(Clone, Debug, PartialEq)]
pub struct PrunedCsr {
    stats: DegreeStats,
    /// `index_out[v]` = start of v's segment. In the input-order layout
    /// produced by the builders, `index_out[v+1]` is also its end; after
    /// [`PrunedCsr::relayout_degree_sorted`] segments are permuted and
    /// only the per-vertex starts (plus the size fields) are meaningful.
    index_out: Vec<u64>,
    /// `index_in[v]` = start of v's in-list (end of its out-list).
    index_in: Vec<u64>,
    /// Column array holding all low-degree adjacency entries.
    col: Vec<VertexId>,
    /// Valid entries in each out-list.
    out_size: Vec<u32>,
    /// Valid entries in each in-list.
    in_size: Vec<u32>,
    /// Externalized edges between two high-degree vertices. Empty when the
    /// builder streamed them to an external sink (the paper's edge file).
    h2h: Vec<Edge>,
    /// Number of h2h edges (kept separately so streaming builds know it).
    num_h2h: u64,
    /// Total number of input edges (in-memory + h2h).
    num_edges_total: u64,
}

impl PrunedCsr {
    /// Builds the pruned CSR in two passes (degree counting, insertion),
    /// externalizing h2h edges. `tau` is the paper's threshold factor.
    ///
    /// The input must be a simple graph (no self-loops, no duplicate
    /// undirected edges); run [`EdgeList::canonicalize`] first if unsure.
    pub fn build(graph: &EdgeList, tau: f64) -> Self {
        let stats = DegreeStats::new(graph, tau);
        Self::build_with_stats(graph, stats)
    }

    /// Builds from precomputed degree statistics (lets callers reuse the
    /// degree pass, e.g. the τ planner of §4.4).
    pub fn build_with_stats(graph: &EdgeList, stats: DegreeStats) -> Self {
        let mut h2h = Vec::new();
        let mut csr = Self::build_streaming_h2h(graph, stats, |e| h2h.push(e));
        debug_assert_eq!(h2h.len() as u64, csr.num_h2h);
        csr.h2h = h2h;
        csr
    }

    /// Builds the pruned CSR, emitting h2h edges to `h2h_sink` instead of
    /// buffering them — the paper's "write out edges between two high-degree
    /// vertices to an external file while building the CSR" (§3.2.1). The
    /// returned CSR has an empty [`PrunedCsr::h2h_edges`] buffer but a
    /// correct [`PrunedCsr::num_inmem_edges`]. h2h edges reach the sink in
    /// input order.
    ///
    /// `stats` must be `graph`'s own degree statistics (as from
    /// [`DegreeStats::new`]); this is the one-sweep
    /// [`PrunedCsr::build_from_passes`] over the edge slice.
    pub fn build_streaming_h2h(
        graph: &EdgeList,
        stats: DegreeStats,
        h2h_sink: impl FnMut(Edge),
    ) -> Self {
        debug_assert_eq!(stats.degrees.len(), graph.num_vertices as usize);
        let pass = || Ok(graph.edges.iter().copied().map(Ok));
        // hep-lint: allow(HL007) -- an EdgeList's ids are < num_vertices and `stats` holds its exact degrees, so neither the range check nor a segment guard can fire
        Self::build_from_passes(stats, pass, h2h_sink).expect("stats are the graph's own degrees")
    }

    /// Builds the pruned CSR from streaming passes over an external edge
    /// source (the binary edge file of [`crate::binfile::BinaryEdgeFile`]),
    /// without ever materializing an [`EdgeList`]: one insertion pass, sized
    /// by the degree table in `stats` (the degree pass already made). h2h
    /// edges go to `h2h_sink` in input order.
    ///
    /// Endpoint ids are validated against `stats.num_vertices()` on every
    /// pass (external sources are untrusted, and the file may even change
    /// between passes): an out-of-range id returns
    /// [`GraphError::VertexOutOfRange`] instead of panicking on an
    /// out-of-bounds index. A source that disagrees with the degree table —
    /// more entries for a vertex than `d(v)`, or fewer — returns
    /// [`GraphError::TruncatedBinary`].
    pub fn build_from_passes<I>(
        stats: DegreeStats,
        make_pass: impl FnMut() -> Result<I, GraphError>,
        h2h_sink: impl FnMut(Edge),
    ) -> Result<Self, GraphError>
    where
        I: Iterator<Item = Result<Edge, GraphError>>,
    {
        Self::build_from_passes_budgeted(stats, make_pass, h2h_sink, 1)
    }

    /// [`PrunedCsr::build_from_passes`] with the insertion split into
    /// `column_passes` sequential sweeps, sweep `r` re-reading the source
    /// and inserting only entries owned by vertices in the `r`-th
    /// contiguous slice of the id space. The h2h sequence is emitted during
    /// the first sweep only, and the built CSR is **bit-identical for any
    /// `column_passes`**. Sweeps no longer save memory (the insertion
    /// cursors are the size fields themselves); they remain because the
    /// ingest planner still plans them.
    ///
    /// The fill is two-ended: a low vertex's segment is exactly `d(v)`
    /// entries long, so the index is a prefix sum over the degree table;
    /// out-entries fill upward from the segment start and in-entries
    /// downward from its end, with `out_size`/`in_size` as the cursors. A
    /// write that would cross into the other list means the source grew
    /// since the degree pass; a segment not exactly full at the end of its
    /// sweep means it shrank. Both are [`GraphError::TruncatedBinary`] — a
    /// typed error, never a scatter into a neighbouring segment or a
    /// zero-filled phantom entry. Finally each in-list is reversed once, so
    /// every list holds its entries in input order.
    pub fn build_from_passes_budgeted<I>(
        stats: DegreeStats,
        mut make_pass: impl FnMut() -> Result<I, GraphError>,
        mut h2h_sink: impl FnMut(Edge),
        column_passes: usize,
    ) -> Result<Self, GraphError>
    where
        I: Iterator<Item = Result<Edge, GraphError>>,
    {
        let n = stats.num_vertices() as usize;
        let mut index_out = Vec::with_capacity(n + 1);
        let mut end = 0u64;
        index_out.push(end);
        for (v, &d) in stats.degrees.iter().enumerate() {
            if !stats.is_high(v as VertexId) {
                end += d as u64;
            }
            index_out.push(end);
        }
        let mut col = vec![0u32; end as usize];
        let mut out_size = vec![0u32; n];
        let mut in_size = vec![0u32; n];
        let mut num_h2h = 0u64;
        let mut num_edges_total = 0u64;
        let seg_len = n.div_ceil(column_passes.clamp(1, n.max(1))).max(1);
        let mut lo = 0usize;
        loop {
            let hi = (lo + seg_len).min(n);
            let first_sweep = lo == 0;
            for e in make_pass()? {
                let e = e?;
                let max = e.src.max(e.dst);
                if max as usize >= n {
                    return Err(GraphError::VertexOutOfRange {
                        vertex: max,
                        num_vertices: n as u32,
                    });
                }
                let src_high = stats.is_high(e.src);
                let dst_high = stats.is_high(e.dst);
                if first_sweep {
                    num_edges_total += 1;
                    if src_high && dst_high {
                        num_h2h += 1;
                        h2h_sink(e);
                    }
                }
                let src = e.src as usize;
                if !src_high && (lo..hi).contains(&src) {
                    let (start, filled) = (index_out[src], out_size[src] + in_size[src]);
                    if start + filled as u64 >= index_out[src + 1] {
                        // The segment is full: the source grew since the
                        // degree pass.
                        return Err(GraphError::TruncatedBinary { bytes: 0 });
                    }
                    // hep-lint: allow(HL011) -- the guard above gives start + out_size < index_out[src + 1] <= col.len()
                    col[(start + out_size[src] as u64) as usize] = e.dst;
                    out_size[src] += 1;
                }
                let dst = e.dst as usize;
                if !dst_high && (lo..hi).contains(&dst) {
                    let (start, filled) = (index_out[dst], out_size[dst] + in_size[dst]);
                    let seg_end = index_out[dst + 1];
                    if start + filled as u64 >= seg_end {
                        return Err(GraphError::TruncatedBinary { bytes: 0 });
                    }
                    in_size[dst] += 1;
                    col[(seg_end - in_size[dst] as u64) as usize] = e.src;
                }
            }
            // Every low segment of the sweep must be exactly full: a short
            // one means the source shrank since the degree pass.
            for v in lo..hi {
                if index_out[v] + (out_size[v] + in_size[v]) as u64 != index_out[v + 1] {
                    return Err(GraphError::TruncatedBinary { bytes: 0 });
                }
            }
            lo = hi;
            if lo >= n {
                break;
            }
        }
        let mut index_in = Vec::with_capacity(n);
        for v in 0..n {
            let split = index_out[v] + out_size[v] as u64;
            col[split as usize..index_out[v + 1] as usize].reverse();
            index_in.push(split);
        }
        Ok(PrunedCsr {
            stats,
            index_out,
            index_in,
            col,
            out_size,
            in_size,
            h2h: Vec::new(),
            num_h2h,
            num_edges_total,
        })
    }

    /// Rewrites the column array into a cache-conscious degree-sorted
    /// block layout: vertex segments are placed in descending order of
    /// segment capacity (out + in lists), ties broken by vertex id
    /// ascending, so the hub adjacency lists that NE++'s expansion and
    /// cleanup hammer hardest pack densely at the front of the array
    /// instead of being scattered across it in vertex-id order.
    ///
    /// Only the *placement* of segments changes — each vertex keeps its
    /// out/in entry order and sizes, so every `out_bounds`/`in_bounds`/
    /// [`PrunedCsr::col`] observation, and therefore the partition
    /// output, is bit-identical to the input-order layout (the
    /// determinism suite pins this). Must be called on the freshly built
    /// input-order layout, before any lazy removal.
    pub fn relayout_degree_sorted(&mut self) {
        let n = self.num_vertices() as usize;
        if n == 0 {
            return;
        }
        debug_assert!(
            self.index_out.windows(2).all(|w| w[0] <= w[1]),
            "relayout requires the builders' input-order layout"
        );
        let out_cap: Vec<u64> = (0..n).map(|v| self.index_in[v] - self.index_out[v]).collect();
        let seg_cap: Vec<u64> = (0..n).map(|v| self.index_out[v + 1] - self.index_out[v]).collect();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| (std::cmp::Reverse(seg_cap[v as usize]), v));
        let mut new_col = vec![0u32; self.col.len()];
        let mut new_index_out = vec![0u64; n + 1];
        let mut new_index_in = vec![0u64; n];
        let mut cursor = 0u64;
        for &v in &order {
            let vu = v as usize;
            let (old, seg) = (self.index_out[vu] as usize, seg_cap[vu] as usize);
            new_col[cursor as usize..cursor as usize + seg]
                .copy_from_slice(&self.col[old..old + seg]);
            new_index_out[vu] = cursor;
            new_index_in[vu] = cursor + out_cap[vu];
            cursor += seg as u64;
        }
        new_index_out[n] = cursor;
        self.col = new_col;
        self.index_out = new_index_out;
        self.index_in = new_index_in;
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.stats.num_vertices()
    }

    /// Total number of input edges (in-memory + h2h).
    #[inline]
    pub fn num_edges_total(&self) -> u64 {
        self.num_edges_total
    }

    /// Number of in-memory edges `|E \ E_h2h|` — the basis of NE++'s adapted
    /// capacity bound (§3.2.3).
    #[inline]
    pub fn num_inmem_edges(&self) -> u64 {
        self.num_edges_total - self.num_h2h
    }

    /// Number of externalized h2h edges (also correct when they were
    /// streamed to a sink rather than buffered).
    #[inline]
    pub fn num_h2h_edges(&self) -> u64 {
        self.num_h2h
    }

    /// The externalized high-high edges, in input order.
    #[inline]
    pub fn h2h_edges(&self) -> &[Edge] {
        &self.h2h
    }

    /// Degree statistics (full degrees and the V_h classification).
    #[inline]
    pub fn stats(&self) -> &DegreeStats {
        &self.stats
    }

    /// Consumes the CSR and keeps only its degree table, freeing the
    /// adjacency arrays — what phase 2 still needs after NE++.
    pub fn into_degrees(self) -> Vec<u32> {
        self.stats.degrees
    }

    /// Whether `v` is high-degree (pruned).
    #[inline]
    pub fn is_high(&self, v: VertexId) -> bool {
        self.stats.is_high(v)
    }

    /// `(start, len)` of the valid out-list of `v` in the column array.
    #[inline]
    pub fn out_bounds(&self, v: VertexId) -> (u64, u32) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        (self.index_out[v as usize], self.out_size[v as usize])
    }

    /// `(start, len)` of the valid in-list of `v` in the column array.
    #[inline]
    pub fn in_bounds(&self, v: VertexId) -> (u64, u32) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        (self.index_in[v as usize], self.in_size[v as usize])
    }

    /// Column array entry at absolute position `idx`.
    #[inline]
    pub fn col(&self, idx: u64) -> VertexId {
        debug_assert!((idx as usize) < self.col.len(), "column position {idx} out of range");
        self.col[idx as usize]
    }

    /// Number of valid (unassigned) entries in `v`'s adjacency list.
    #[inline]
    pub fn valid_degree(&self, v: VertexId) -> u32 {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        self.out_size[v as usize] + self.in_size[v as usize]
    }

    /// Lazy removal (§3.2.2): swap the out-entry at `offset` with the last
    /// valid out-entry of `v` and shrink the size field. O(1).
    #[inline]
    pub fn swap_remove_out(&mut self, v: VertexId, offset: u32) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        let start = self.index_out[v as usize];
        let size = &mut self.out_size[v as usize];
        debug_assert!(offset < *size);
        *size -= 1;
        self.col.swap((start + offset as u64) as usize, (start + *size as u64) as usize);
    }

    /// Lazy removal of the in-entry at `offset` of `v`. O(1).
    #[inline]
    pub fn swap_remove_in(&mut self, v: VertexId, offset: u32) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        let start = self.index_in[v as usize];
        let size = &mut self.in_size[v as usize];
        debug_assert!(offset < *size);
        *size -= 1;
        self.col.swap((start + offset as u64) as usize, (start + *size as u64) as usize);
    }

    /// Valid out-neighbours of `v` (test/diagnostic convenience).
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, n) = self.out_bounds(v);
        debug_assert!(
            s + n as u64 <= self.col.len() as u64,
            "adjacency range within the column array"
        );
        &self.col[s as usize..(s + n as u64) as usize]
    }

    /// Valid in-neighbours of `v` (test/diagnostic convenience).
    pub fn in_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (s, n) = self.in_bounds(v);
        debug_assert!(
            s + n as u64 <= self.col.len() as u64,
            "adjacency range within the column array"
        );
        &self.col[s as usize..(s + n as u64) as usize]
    }

    /// Valid neighbours (out then in) of `v`.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_neighbors(v).iter().chain(self.in_neighbors(v).iter()).copied()
    }

    /// Total column-array capacity (the paper's Σ_{v∈V_l} d(v); Figure 4's
    /// "13 entries instead of 22").
    #[inline]
    pub fn column_entries(&self) -> u64 {
        self.col.len() as u64
    }

    /// Remaining valid column entries (shrinks as edges are removed).
    pub fn valid_column_entries(&self) -> u64 {
        (0..self.num_vertices()).map(|v| self.valid_degree(v) as u64).sum()
    }

    /// The paper's §4.2 memory accounting with `b_id = 4`, in bytes:
    /// `Σ_{v∈V_l} d(v)·b_id + 6·|V|·b_id + |V|·(k+1)/8`.
    pub fn memory_footprint_paper(&self, k: u32) -> u64 {
        let b_id = 4u64;
        let n = self.num_vertices() as u64;
        self.column_entries() * b_id + 6 * n * b_id + n * (k as u64 + 1) / 8
    }

    /// Actual heap bytes of this representation as implemented (u64 index
    /// arrays; the h2h buffer is conceptually on disk and excluded).
    pub fn heap_bytes(&self) -> usize {
        self.col.len() * 4
            + self.index_out.len() * 8
            + self.index_in.len() * 8
            + self.out_size.len() * 4
            + self.in_size.len() * 4
            + self.stats.degrees.len() * 4
            + self.stats.high.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The 9-vertex, 11-edge example of Figures 3 and 4.
    fn figure4_graph() -> EdgeList {
        EdgeList::from_pairs([
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
        ])
    }

    #[test]
    fn figure4_pruning() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1.5);
        // v4 and v5 are high-degree; their lists are pruned.
        assert!(csr.is_high(4) && csr.is_high(5));
        assert_eq!(csr.valid_degree(4), 0);
        assert_eq!(csr.valid_degree(5), 0);
        // "The column array of the pruned graph is much smaller
        //  (in the example, 13 entries instead of 22)".
        assert_eq!(csr.column_entries(), 13);
        // "To not lose the edge (v4, v5), we write it out into an external
        //  edge file".
        assert_eq!(csr.h2h_edges(), &[Edge::new(4, 5)]);
        assert_eq!(csr.num_inmem_edges(), 10);
        assert_eq!(csr.num_edges_total(), 11);
    }

    #[test]
    fn out_in_split_follows_input_direction() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1.5);
        // v7 appears as left endpoint of (7,8) and right endpoint of (0,5->no),
        // (0,7) and (5,7).
        assert_eq!(csr.out_neighbors(7), &[8]);
        let mut inn: Vec<u32> = csr.in_neighbors(7).to_vec();
        inn.sort_unstable();
        assert_eq!(inn, vec![0, 5]);
        // Low-high edges remain reachable from the low side: v1's out-list
        // holds both 4 and 5 even though they are pruned.
        let mut out1: Vec<u32> = csr.out_neighbors(1).to_vec();
        out1.sort_unstable();
        assert_eq!(out1, vec![4, 5]);
    }

    #[test]
    fn swap_remove_out_is_constant_time_swap() {
        let g = EdgeList::from_pairs([(0, 1), (0, 2), (0, 3)]);
        let mut csr = PrunedCsr::build(&g, 100.0);
        assert_eq!(csr.out_neighbors(0), &[1, 2, 3]);
        csr.swap_remove_out(0, 0); // removes entry "1", swapping in "3"
        assert_eq!(csr.out_neighbors(0), &[3, 2]);
        csr.swap_remove_out(0, 1);
        assert_eq!(csr.out_neighbors(0), &[3]);
        csr.swap_remove_out(0, 0);
        assert!(csr.out_neighbors(0).is_empty());
        // In-lists of the leaves are untouched.
        assert_eq!(csr.in_neighbors(2), &[0]);
    }

    #[test]
    fn no_high_vertices_when_tau_large() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1e9);
        assert_eq!(csr.h2h_edges().len(), 0);
        assert_eq!(csr.column_entries(), 22);
        assert_eq!(csr.num_inmem_edges(), 11);
    }

    #[test]
    fn all_high_when_tau_zero_on_regular_graph() {
        // A 4-cycle: every vertex has degree 2 = mean degree; with tau = 0.5
        // the threshold is 1 < 2, so every vertex is high and every edge h2h.
        let g = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let csr = PrunedCsr::build(&g, 0.5);
        assert_eq!(csr.h2h_edges().len(), 4);
        assert_eq!(csr.column_entries(), 0);
        assert_eq!(csr.num_inmem_edges(), 0);
    }

    #[test]
    fn memory_footprint_formula() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1.5);
        // 13 column entries * 4 + 6 * 9 * 4 + 9 * 33/8 at k=32.
        assert_eq!(csr.memory_footprint_paper(32), 13 * 4 + 6 * 9 * 4 + 9 * 33 / 8);
    }

    #[test]
    fn isolated_vertices_supported() {
        let g = EdgeList::with_vertices(10, [(0, 1)]).unwrap();
        let csr = PrunedCsr::build(&g, 10.0);
        assert_eq!(csr.valid_degree(9), 0);
        assert_eq!(csr.num_vertices(), 10);
    }

    /// Deterministic pseudo-random pair stream for build tests (no hep-gen
    /// dependency here).
    fn pseudo_pairs(count: usize, n: u32, seed: u64) -> Vec<(u32, u32)> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..count).map(|_| ((next() % n as u64) as u32, (next() % n as u64) as u32)).collect()
    }

    #[test]
    fn degree_sorted_relayout_preserves_every_list() {
        let mut g = EdgeList::from_pairs(pseudo_pairs(5_000, 700, 7));
        g.canonicalize();
        for tau in [1.0, 4.0, 1e9] {
            let base = PrunedCsr::build(&g, tau);
            let mut sorted = base.clone();
            sorted.relayout_degree_sorted();
            for v in 0..base.num_vertices() {
                assert_eq!(base.out_neighbors(v), sorted.out_neighbors(v), "out list of {v}");
                assert_eq!(base.in_neighbors(v), sorted.in_neighbors(v), "in list of {v}");
                assert_eq!(base.valid_degree(v), sorted.valid_degree(v));
            }
            assert_eq!(base.column_entries(), sorted.column_entries());
            // Segments really did move: the heaviest segment now leads.
            let heaviest = (0..base.num_vertices())
                .max_by_key(|&v| (base.valid_degree(v), std::cmp::Reverse(v)))
                .unwrap();
            if base.valid_degree(heaviest) > 0 {
                assert_eq!(sorted.out_bounds(heaviest).0, 0, "heaviest segment leads");
            }
        }
    }

    /// The two-pass build the one-pass builder replaced, kept as its
    /// oracle: a count pass sizes every out- and in-list, a fill pass
    /// inserts in input order. h2h edges are returned in input order.
    fn reference_build(edges: &[Edge], stats: DegreeStats) -> (PrunedCsr, Vec<Edge>) {
        let n = stats.num_vertices() as usize;
        let mut out_cap = vec![0u32; n];
        let mut in_cap = vec![0u32; n];
        let mut h2h = Vec::new();
        for e in edges {
            let (src_high, dst_high) = (stats.is_high(e.src), stats.is_high(e.dst));
            if src_high && dst_high {
                h2h.push(*e);
                continue;
            }
            if !src_high {
                out_cap[e.src as usize] += 1;
            }
            if !dst_high {
                in_cap[e.dst as usize] += 1;
            }
        }
        let mut index_out = vec![0u64; n + 1];
        let mut index_in = vec![0u64; n];
        for v in 0..n {
            index_in[v] = index_out[v] + out_cap[v] as u64;
            index_out[v + 1] = index_in[v] + in_cap[v] as u64;
        }
        let mut col = vec![0u32; index_out[n] as usize];
        let mut out_cursor = index_out[..n].to_vec();
        let mut in_cursor = index_in.clone();
        for e in edges {
            let (src_high, dst_high) = (stats.is_high(e.src), stats.is_high(e.dst));
            if src_high && dst_high {
                continue;
            }
            if !src_high {
                col[out_cursor[e.src as usize] as usize] = e.dst;
                out_cursor[e.src as usize] += 1;
            }
            if !dst_high {
                col[in_cursor[e.dst as usize] as usize] = e.src;
                in_cursor[e.dst as usize] += 1;
            }
        }
        let csr = PrunedCsr {
            stats,
            index_out,
            index_in,
            col,
            out_size: out_cap,
            in_size: in_cap,
            h2h: Vec::new(),
            num_h2h: h2h.len() as u64,
            num_edges_total: edges.len() as u64,
        };
        (csr, h2h)
    }

    /// The graph shapes the builder oracle covers, each with a τ.
    fn oracle_shapes() -> Vec<(&'static str, EdgeList, f64)> {
        let mut random = EdgeList::from_pairs(pseudo_pairs(5_000, 600, 7));
        random.canonicalize();
        // A high hub (degree 40 against mean ≈ 2) with low leaves, plus
        // a few leaf-leaf edges.
        let mut star: Vec<(u32, u32)> =
            (1..=40).map(|v| if v % 2 == 0 { (0, v) } else { (v, 0) }).collect();
        star.extend([(1, 2), (3, 4), (5, 6)]);
        vec![
            ("figure4", figure4_graph(), 1.5),
            ("random", random, 1.5),
            ("star", EdgeList::from_pairs(star), 2.0),
            // Every vertex is high: every edge is h2h, the column array is empty.
            ("all_high", EdgeList::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), 0.5),
            ("all_low", EdgeList::from_pairs(pseudo_pairs(800, 90, 3)), 1e9),
            (
                "isolated_top",
                EdgeList::with_vertices(50, [(0, 1), (1, 2), (2, 0), (3, 1), (1, 4)]).unwrap(),
                1.0,
            ),
            (
                "self_loops",
                EdgeList::from_pairs([(0, 0), (0, 1), (1, 1), (2, 1), (2, 2), (1, 3)]),
                1.0,
            ),
            ("empty", EdgeList::with_vertices(0, std::iter::empty()).unwrap(), 1.0),
            ("edgeless", EdgeList::with_vertices(5, std::iter::empty()).unwrap(), 1.0),
        ]
    }

    /// Builds from `pass` at `sweeps` and compares with the reference.
    fn check_builder<I: Iterator<Item = Result<Edge, GraphError>>>(
        what: &str,
        stats: &DegreeStats,
        sweeps: usize,
        want: &(PrunedCsr, Vec<Edge>),
        pass: impl FnMut() -> Result<I, GraphError>,
    ) {
        let mut h2h = Vec::new();
        let csr =
            PrunedCsr::build_from_passes_budgeted(stats.clone(), pass, |e| h2h.push(e), sweeps)
                .unwrap();
        assert_eq!(csr, want.0, "{what}: CSR at {sweeps} sweeps");
        assert_eq!(h2h, want.1, "{what}: h2h at {sweeps} sweeps");
    }

    #[test]
    fn builder_matches_two_pass_reference() {
        use crate::binfile::{BinaryEdgeFile, IoMode};
        for (name, g, tau) in oracle_shapes() {
            let stats = DegreeStats::new(&g, tau);
            let want = reference_build(&g.edges, stats.clone());
            if name == "star" {
                assert!(stats.is_high(0) && stats.num_high == 1, "star needs one high hub");
            }
            if name == "all_high" {
                assert!(want.1.len() == g.edges.len() && want.0.column_entries() == 0);
            }
            let mut in_memory = PrunedCsr::build_with_stats(&g, stats.clone());
            assert_eq!(in_memory.h2h_edges(), &want.1[..], "{name}: in-memory h2h");
            in_memory.h2h = Vec::new();
            assert_eq!(in_memory, want.0, "{name}: in-memory builder");

            let mut path = std::env::temp_dir();
            path.push(format!("hep_pruned_csr_oracle_{}_{name}.hepb", std::process::id()));
            let file = BinaryEdgeFile::write(&path, &g).unwrap();
            for sweeps in [1usize, 2, 3, 7, 64, usize::MAX] {
                let slice = || Ok(g.edges.iter().copied().map(Ok));
                check_builder(&format!("{name}: slice"), &stats, sweeps, &want, slice);
                for mode in [IoMode::Buffered, IoMode::Mmap] {
                    let f = file.clone().with_io_mode(mode);
                    let what = format!("{name}: {mode:?} file");
                    check_builder(&what, &stats, sweeps, &want, || f.pass());
                }
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn budgeted_build_rejects_source_growing_between_passes() {
        // The degree pass saw one edge per low vertex; the build passes
        // yield two more at one low vertex. Without the segment guard the
        // extra entries would run off the segment: past the column array's
        // end for vertex 3's out-list (the last low segment; vertex 4 is
        // high), below its start for vertex 0's in-list.
        for extra in [Edge::new(3, 4), Edge::new(4, 0)] {
            for column_passes in [1, 2] {
                let stats = DegreeStats::from_degrees(vec![1, 1, 1, 1, 100], 1.0, 10.0);
                let err = PrunedCsr::build_from_passes_budgeted(
                    stats,
                    || Ok([Edge::new(0, 1), Edge::new(2, 3), extra, extra].into_iter().map(Ok)),
                    |_| {},
                    column_passes,
                )
                .unwrap_err();
                assert!(matches!(err, GraphError::TruncatedBinary { .. }), "got {err}");
            }
        }
    }

    #[test]
    fn budgeted_build_rejects_source_shrinking_between_passes() {
        // The degree table promises four entries; a later pass yields
        // fewer. Without the end check the unfilled slots would stay
        // zero and count as valid entries — phantom edges to vertex 0.
        let shrinks = |column_passes: usize| {
            let stats = DegreeStats::from_degrees(vec![1, 1, 1, 1], 1.0, 10.0);
            let mut calls = 0;
            PrunedCsr::build_from_passes_budgeted(
                stats,
                move || {
                    calls += 1;
                    let mut edges = vec![Ok(Edge::new(0, 1))];
                    if calls == 1 && column_passes > 1 {
                        edges.push(Ok(Edge::new(2, 3)));
                    }
                    Ok(edges.into_iter())
                },
                |_| {},
                column_passes,
            )
            .unwrap_err()
        };
        for column_passes in [1, 2] {
            let err = shrinks(column_passes);
            assert!(matches!(err, GraphError::TruncatedBinary { .. }), "got {err}");
        }
    }

    #[test]
    fn build_from_passes_rejects_out_of_range_ids() {
        // Degree stats over 3 vertices, but the pass yields edge (0, 9):
        // a typed error, not an index-out-of-bounds panic.
        let stats = DegreeStats::from_degrees(vec![1, 1, 0], 1.0, 10.0);
        let err = PrunedCsr::build_from_passes(
            stats.clone(),
            || Ok([Ok(Edge::new(0, 9))].into_iter()),
            |_| {},
        )
        .unwrap_err();
        assert!(
            matches!(err, GraphError::VertexOutOfRange { vertex: 9, num_vertices: 3 }),
            "got {err}"
        );
        // Every sweep's pass is validated: with two column sweeps, pass 1
        // clean, pass 2 corrupt (an external source can change between
        // passes).
        let mut calls = 0;
        let err = PrunedCsr::build_from_passes_budgeted(
            stats,
            move || {
                calls += 1;
                let e = if calls == 1 { Edge::new(0, 1) } else { Edge::new(7, 1) };
                Ok([Ok(e)].into_iter())
            },
            |_| {},
            2,
        )
        .unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 7, .. }), "got {err}");
    }

    proptest! {
        /// Every edge is represented exactly once as (out-entry XOR h2h) and
        /// its reverse at most once as an in-entry.
        #[test]
        fn representation_is_complete(
            pairs in proptest::collection::vec((0u32..30, 0u32..30), 1..120),
            tau in 0.25f64..8.0,
        ) {
            let mut g = EdgeList::from_pairs(pairs);
            g.canonicalize();
            prop_assume!(!g.edges.is_empty());
            let csr = PrunedCsr::build(&g, tau);
            // Each edge is "owned" by exactly one location: the out-entry of
            // a low src, else the in-entry of a low dst (src high), else h2h.
            let mut found = std::collections::HashMap::new();
            for v in 0..csr.num_vertices() {
                for &u in csr.out_neighbors(v) {
                    *found.entry(Edge::new(v, u).canonical()).or_insert(0u32) += 1;
                }
                for &u in csr.in_neighbors(v) {
                    if csr.is_high(u) {
                        *found.entry(Edge::new(u, v).canonical()).or_insert(0) += 1;
                    }
                }
            }
            for e in csr.h2h_edges() {
                *found.entry(e.canonical()).or_insert(0) += 1;
            }
            // Every input edge appears exactly once from the "owning" side.
            for e in &g.edges {
                prop_assert_eq!(found.get(&e.canonical()).copied(), Some(1), "edge {:?}", e);
            }
            prop_assert_eq!(found.len(), g.edges.len());
            // In-entries mirror out-entries for low-low edges.
            for v in 0..csr.num_vertices() {
                for &u in csr.in_neighbors(v) {
                    prop_assert!(!csr.is_high(v));
                    let e = Edge::new(u, v);
                    prop_assert!(g.edges.contains(&e), "in-entry without edge {:?}", e);
                }
            }
        }

        /// Column entries equal the sum of low-degree vertices' degrees.
        #[test]
        fn column_count_matches_formula(
            pairs in proptest::collection::vec((0u32..30, 0u32..30), 1..120),
            tau in 0.25f64..8.0,
        ) {
            let mut g = EdgeList::from_pairs(pairs);
            g.canonicalize();
            prop_assume!(!g.edges.is_empty());
            let csr = PrunedCsr::build(&g, tau);
            let expected: u64 = csr.stats().low_degree_adjacency_entries()
                // low-high edges contribute 1 entry, not d(v)'s full share:
                // low_degree_adjacency_entries counts each incident edge of a
                // low vertex once, which is exactly one column entry.
                ;
            prop_assert_eq!(csr.column_entries(), expected);
        }
    }
}
