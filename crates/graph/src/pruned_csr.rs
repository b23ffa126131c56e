//! The pruned CSR representation of NE++ (paper §3.2.1, §4.2).
//!
//! Differences from a conventional CSR:
//!
//! * Adjacency lists of **high-degree vertices are omitted** from the column
//!   array. Edges between a low- and a high-degree vertex are reachable via
//!   the low-degree endpoint only; edges between two high-degree vertices are
//!   written to an external sink during construction and later partitioned
//!   by the streaming phase.
//! * Every stored adjacency list is split into an **out-list** (edges where
//!   the vertex is the left endpoint of the input pair) and an **in-list**
//!   (§3.2.3 "Building the Last Partition"). The two lists are anchored at
//!   opposite ends of the vertex's segment: out-entry `i` lives at
//!   `start(v) + 2 + i` (after the header below), in-entry `i` at
//!   `start(v+1) − 1 − i`. No second index array marks the split.
//! * The segment index is **two-level**: a `u64` base per block of 64
//!   vertex ids plus a `u32` offset per vertex from its block's base, so
//!   `start(v) = base[v >> 6] + offset[v]`.
//! * Each sub-list's **size lives in its segment's header**: a non-empty
//!   segment opens with two words, `col[start] = out size` and
//!   `col[start + 1] = in size`, so the out-list fills up from
//!   `start + 2` and the in-list down from the segment's end. High-degree
//!   and isolated vertices hold no list and get an empty segment with no
//!   header: the index alone tells which ids have lists. Removing an entry
//!   swaps it with the last valid entry and decrements its header word —
//!   the constant-time *lazy edge removal* of §3.2.2.
//!
//! Per-vertex state is ≈8.1 bytes: the `u32` index offset, the `u32`
//! degree and 8/64 bytes of block base (plus one bit of the V_h bitset),
//! and 8 bytes of header per non-empty low segment. That is below the
//! paper's `6·b_id` = 24 bytes (§4.2).

use crate::degrees::DegreeStats;
use crate::edgelist::EdgeList;
use crate::error::GraphError;
use crate::types::{Edge, VertexId};

/// Vertex ids sharing one `u64` block base.
const BLOCK: usize = 64;

/// Words opening a non-empty segment: the out size, then the in size.
const HEADER: usize = 2;

/// The two-level segment index: `start(v) = base[v >> 6] + offset[v]` for
/// `v` in `0..=n`, `start(n)` being the column array's length.
#[derive(Clone, Debug, PartialEq)]
struct SegmentIndex {
    /// Start of the segment of vertex `64·b`, one per block of 64 ids.
    base: Vec<u64>,
    /// Start of v's segment minus its block's base, one per vertex plus
    /// the end sentinel.
    offset: Vec<u32>,
}

impl SegmentIndex {
    /// The prefix sum of the segment lengths (`HEADER + d(v)` for a low
    /// vertex with `d(v) > 0`, 0 for a high or isolated one), written
    /// straight into the two levels. An offset past `u32::MAX` — 63
    /// consecutive low segments holding more than 2³² words, a column
    /// array of 16 GiB or more — is [`GraphError::SegmentIndexOverflow`].
    fn new(stats: &DegreeStats) -> Result<Self, GraphError> {
        let n = stats.num_vertices() as usize;
        let mut base = Vec::with_capacity((n + 1).div_ceil(BLOCK));
        let mut offset = Vec::with_capacity(n + 1);
        let mut end = 0u64;
        for v in 0..=n {
            if v % BLOCK == 0 {
                base.push(end);
            }
            let off = end - base[v / BLOCK];
            let off = u32::try_from(off).map_err(|_| GraphError::SegmentIndexOverflow {
                vertex: v as VertexId,
                offset: off,
            })?;
            offset.push(off);
            if v < n && stats.degrees[v] > 0 && !stats.is_high(v as VertexId) {
                end += HEADER as u64 + stats.degrees[v] as u64;
            }
        }
        Ok(SegmentIndex { base, offset })
    }

    /// Start of v's segment (`v = n` gives the column array's length).
    #[inline]
    fn start(&self, v: usize) -> u64 {
        self.base[v / BLOCK] + self.offset[v] as u64
    }

    #[inline]
    fn num_vertices(&self) -> usize {
        self.offset.len() - 1
    }

    fn heap_bytes(&self) -> usize {
        self.base.len() * 8 + self.offset.len() * 4
    }
}

/// Pruned CSR with a two-level segment index and in-segment size headers.
#[derive(Clone, Debug, PartialEq)]
pub struct PrunedCsr {
    stats: DegreeStats,
    /// Segment bounds: v's segment is `index.start(v)..index.start(v + 1)`.
    index: SegmentIndex,
    /// Column array: per non-empty low segment, the out and in sizes, the
    /// out-list counted up after them and the in-list counted down from
    /// the segment end.
    col: Vec<VertexId>,
    /// Σ_{v∈V_l} d(v): the column array's adjacency entries, headers
    /// excluded.
    column_entries: u64,
    /// Number of h2h edges emitted to the builder's sink.
    num_h2h: u64,
    /// Total number of input edges (in-memory + h2h).
    num_edges_total: u64,
}

impl PrunedCsr {
    /// Builds the pruned CSR of an in-memory graph, counting (and
    /// dropping) its h2h edges. `tau` is the paper's threshold factor; run
    /// [`PrunedCsr::build_from_passes`] over `graph.edges` to keep the h2h
    /// edges.
    ///
    /// The input must be a simple graph (no self-loops, no duplicate
    /// undirected edges); run [`EdgeList::canonicalize`] first if unsure.
    #[expect(
        clippy::expect_used,
        reason = "an EdgeList's ids are < num_vertices and `stats` holds its exact degrees, so neither the range check nor a segment guard can fire; an index overflow needs a 16 GiB column array"
    )]
    pub fn build(graph: &EdgeList, tau: f64) -> Self {
        let stats = DegreeStats::new(graph, tau);
        let pass = || Ok(graph.edges.iter().copied().map(Ok));
        Self::build_from_passes(stats, pass, |_| {}).expect("stats are the graph's own degrees")
    }

    /// Builds the pruned CSR from one insertion pass over an edge source
    /// (an edge slice, or the binary edge file of
    /// [`crate::binfile::BinaryEdgeFile`], never materialized as an
    /// [`EdgeList`]), sized by the degree table in `stats` — the degree
    /// pass already made. `make_pass` is called once. h2h edges go to
    /// `h2h_sink` in input order: the paper's "write out edges between two
    /// high-degree vertices to an external file while building the CSR"
    /// (§3.2.1).
    ///
    /// The fill is two-ended: a low vertex's segment is exactly its
    /// two-word header plus `d(v)` entries (none at all when `d(v)` is 0),
    /// so the index is a prefix sum over the degree table, checked for
    /// offset overflow before the column array is allocated. Out-entries
    /// fill upward after the header, with the out-size word as the cursor;
    /// in-entries fill downward from the segment's end, with v's degree
    /// slot counting the in-slots left, so an in-entry write loads nothing
    /// from the column array. The end check writes the in sizes into the
    /// headers and gives every degree slot `d(v)` back. In-entry `i` (in
    /// input order) stays at `start(v+1) − 1 − i`.
    ///
    /// External sources are untrusted, and a file may change after its
    /// degree pass, so every failure is a typed error, never a panic, a
    /// scatter into a neighbouring segment or a zero-filled phantom entry:
    /// an endpoint id `≥ stats.num_vertices()` is
    /// [`GraphError::VertexOutOfRange`]; a write into an empty segment or
    /// past either end of a list's room (the source grew), and a segment
    /// whose lists do not sum to exactly `d(v)` (it shrank or grew), are
    /// [`GraphError::TruncatedBinary`]; a degree table whose index offsets
    /// overflow `u32` is [`GraphError::SegmentIndexOverflow`], returned
    /// before the pass starts.
    pub fn build_from_passes<I>(
        mut stats: DegreeStats,
        make_pass: impl FnOnce() -> Result<I, GraphError>,
        mut h2h_sink: impl FnMut(Edge),
    ) -> Result<Self, GraphError>
    where
        I: Iterator<Item = Result<Edge, GraphError>>,
    {
        let n = stats.num_vertices() as usize;
        let index = SegmentIndex::new(&stats)?;
        let column_entries = stats.low_degree_adjacency_entries();
        let mut col = vec![0u32; index.start(n) as usize];
        let mut num_h2h = 0u64;
        let mut num_edges_total = 0u64;
        for e in make_pass()? {
            let e = e?;
            let max = e.src.max(e.dst);
            if max as usize >= n {
                return Err(GraphError::VertexOutOfRange { vertex: max, num_vertices: n as u32 });
            }
            num_edges_total += 1;
            let src_high = stats.is_high(e.src);
            let dst_high = stats.is_high(e.dst);
            if src_high && dst_high {
                num_h2h += 1;
                h2h_sink(e);
                continue;
            }
            let src = e.src as usize;
            if !src_high {
                // The out size is the out-list's cursor. An empty segment
                // has no header to read: `src` was isolated in the degree
                // pass, so the source grew.
                let (start, end) = (index.start(src) as usize, index.start(src + 1) as usize);
                if start == end || start + HEADER + col[start] as usize >= end {
                    return Err(GraphError::TruncatedBinary { bytes: 0 });
                }
                let out = col[start];
                col[start + HEADER + out as usize] = e.dst;
                col[start] = out + 1;
            }
            let dst = e.dst as usize;
            if !dst_high {
                // The degree slot counts the in-slots left, `r`; in-entry
                // `d − r` lives at `end − 1 − (d − r)` = `start + 1 + r`. No
                // slot left (none at all in an empty segment) means the
                // source grew.
                let r = stats.degrees[dst];
                if r == 0 {
                    return Err(GraphError::TruncatedBinary { bytes: 0 });
                }
                col[index.start(dst) as usize + 1 + r as usize] = e.src;
                stats.degrees[dst] = r - 1;
            }
        }
        // Every low segment must be exactly full: a short one means the
        // source shrank since the degree pass, and lists summing past
        // `d(v)` mean it grew (each list's writes stay inside the segment).
        // Then the in size goes into the header and the degree slot gets
        // `d(v)` back.
        for v in 0..n {
            let (start, end) = (index.start(v) as usize, index.start(v + 1) as usize);
            if start == end {
                continue; // high or isolated: no list, no header
            }
            let d = (end - start - HEADER) as u32;
            // out + in = d(v) exactly when out equals the in-slots left.
            let (out, left) = (col[start], stats.degrees[v]);
            if out != left {
                return Err(GraphError::TruncatedBinary { bytes: 0 });
            }
            col[start + 1] = d - left;
            stats.degrees[v] = d;
        }
        Ok(PrunedCsr { stats, index, col, column_entries, num_h2h, num_edges_total })
    }

    /// [`PrunedCsr::build_from_passes`], ignoring `column_passes`. Kept only
    /// because the frozen benchmark harness under `perfbench/` calls it;
    /// ROADMAP direction 2 deletes it with that harness's other leftovers.
    pub fn build_from_passes_budgeted<I>(
        stats: DegreeStats,
        make_pass: impl FnOnce() -> Result<I, GraphError>,
        h2h_sink: impl FnMut(Edge),
        _column_passes: usize,
    ) -> Result<Self, GraphError>
    where
        I: Iterator<Item = Result<Edge, GraphError>>,
    {
        Self::build_from_passes(stats, make_pass, h2h_sink)
    }

    /// Number of vertices (counted from the segment index, so it holds
    /// after [`PrunedCsr::take_degrees`]).
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.index.num_vertices() as u32
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

    /// Number of externalized h2h edges (the ones emitted to the
    /// builder's sink).
    #[inline]
    pub fn num_h2h_edges(&self) -> u64 {
        self.num_h2h
    }

    /// Degree statistics (full degrees and the V_h classification; the
    /// degrees are empty after [`PrunedCsr::take_degrees`]).
    #[inline]
    pub fn stats(&self) -> &DegreeStats {
        &self.stats
    }

    /// Moves the degree table out, leaving [`PrunedCsr::stats`] with an
    /// empty `degrees` (the V_h classification stays). A low-degree
    /// vertex's degree remains readable as [`PrunedCsr::segment_len`]; NE++
    /// reuses those slots of the table as its heap's position table and
    /// rebuilds them from the segment lengths when it ends.
    pub fn take_degrees(&mut self) -> Vec<u32> {
        std::mem::take(&mut self.stats.degrees)
    }

    /// Bounds `start..end` of `v`'s column segment.
    #[inline]
    fn bounds(&self, v: VertexId) -> (usize, usize) {
        debug_assert!(v < self.num_vertices(), "vertex id {v} out of range");
        (self.index.start(v as usize) as usize, self.index.start(v as usize + 1) as usize)
    }

    /// Length of `v`'s adjacency segment, header excluded: `d(v)` for a
    /// low-degree vertex (the builder rejects any low segment that is not
    /// exactly full), 0 for a high-degree or isolated one.
    #[inline]
    pub fn segment_len(&self, v: VertexId) -> u32 {
        let (start, end) = self.bounds(v);
        (end - start).saturating_sub(HEADER) as u32
    }

    /// Whether `v` is high-degree (pruned).
    #[inline]
    pub fn is_high(&self, v: VertexId) -> bool {
        self.stats.is_high(v)
    }

    /// Number of valid entries in `v`'s out-list (`out`) or in-list: its
    /// header word, or 0 for an empty segment (which has no header).
    #[inline]
    pub fn list_len(&self, v: VertexId, out: bool) -> u32 {
        let (start, end) = self.bounds(v);
        if start == end {
            0
        } else {
            self.col[start + usize::from(!out)]
        }
    }

    /// Entry `i` of `v`'s out-list (`out`) or in-list, as its column
    /// position and the neighbour stored there. Out-entries count up from
    /// the header, in-entries down from the segment end.
    #[inline]
    pub fn entry(&self, v: VertexId, out: bool, i: u32) -> (u64, VertexId) {
        let pos = self.position(v, out, i);
        // position() stays inside v's segment, and segments tile the column array
        (pos as u64, self.col[pos])
    }

    /// Column position of entry `i` of `v`'s out-list (`out`) or in-list,
    /// read from the one segment bound the list is anchored at.
    #[inline]
    fn position(&self, v: VertexId, out: bool, i: u32) -> usize {
        debug_assert!(i < self.list_len(v, out), "entry {i} past the valid list");
        if out {
            self.index.start(v as usize) as usize + HEADER + i as usize
        } else {
            self.index.start(v as usize + 1) as usize - 1 - i as usize
        }
    }

    /// Number of valid (unassigned) entries in `v`'s adjacency list.
    #[inline]
    pub fn valid_degree(&self, v: VertexId) -> u32 {
        let (start, end) = self.bounds(v);
        if start == end {
            0
        } else {
            self.col[start] + self.col[start + 1]
        }
    }

    /// Lazy removal (§3.2.2): swap entry `i` of `v`'s out-list (`out`) or
    /// in-list with the list's last valid entry and shrink its header
    /// word. O(1).
    #[inline]
    pub fn swap_remove(&mut self, v: VertexId, out: bool, i: u32) {
        debug_assert!(i < self.list_len(v, out), "entry {i} past the valid list");
        let size = self.index.start(v as usize) as usize + usize::from(!out);
        let last = self.col[size] - 1;
        let (a, b) = (self.position(v, out, i), self.position(v, out, last));
        self.col.swap(a, b);
        self.col[size] = last;
    }

    /// Valid out-neighbours of `v` (test/diagnostic convenience).
    pub fn out_neighbors(&self, v: VertexId) -> &[VertexId] {
        let (start, end) = self.bounds(v);
        if start == end {
            return &[];
        }
        let first = start + HEADER;
        &self.col[first..first + self.col[start] as usize]
    }

    /// Valid in-neighbours of `v` in list order (test/diagnostic
    /// convenience).
    pub fn in_neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.list_len(v, false)).map(move |i| self.entry(v, false, i).1)
    }

    /// Valid neighbours (out then in) of `v`.
    pub fn neighbors(&self, v: VertexId) -> impl Iterator<Item = VertexId> + '_ {
        self.out_neighbors(v).iter().copied().chain(self.in_neighbors(v))
    }

    /// Adjacency entries of the column array, headers excluded (the
    /// paper's Σ_{v∈V_l} d(v); Figure 4's "13 entries instead of 22").
    #[inline]
    pub fn column_entries(&self) -> u64 {
        self.column_entries
    }

    /// Actual heap bytes of this representation as implemented:
    /// `4·(column_entries + 2·|{v ∈ V_l : d(v) > 0}|) + 8·⌈(|V|+1)/64⌉ +
    /// 4·(|V|+1) + 4·|V| + ⌈|V|/64⌉·8` (the column array with its two
    /// header words per non-empty low segment, the index's block bases and
    /// offsets, the degree table and the V_h bitset; h2h edges live in the
    /// builder's sink and are excluded). The degree table's term is 0 once
    /// [`PrunedCsr::take_degrees`] has moved it out.
    pub fn heap_bytes(&self) -> usize {
        self.col.len() * 4
            + self.index.heap_bytes()
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

    /// Builds with `h2h_sink` collecting the h2h edges.
    fn build_collecting_h2h(g: &EdgeList, tau: f64) -> (PrunedCsr, Vec<Edge>) {
        let mut h2h = Vec::new();
        let pass = || Ok(g.edges.iter().copied().map(Ok));
        let csr = PrunedCsr::build_from_passes(DegreeStats::new(g, tau), pass, |e| h2h.push(e));
        (csr.unwrap(), h2h)
    }

    #[test]
    fn figure4_pruning() {
        let g = figure4_graph();
        let (csr, h2h) = build_collecting_h2h(&g, 1.5);
        // v4 and v5 are high-degree; their lists are pruned.
        assert!(csr.is_high(4) && csr.is_high(5));
        assert_eq!(csr.valid_degree(4), 0);
        assert_eq!(csr.valid_degree(5), 0);
        // "The column array of the pruned graph is much smaller
        //  (in the example, 13 entries instead of 22)".
        assert_eq!(csr.column_entries(), 13);
        // "To not lose the edge (v4, v5), we write it out into an external
        //  edge file".
        assert_eq!(h2h, [Edge::new(4, 5)]);
        assert_eq!(csr.num_h2h_edges(), 1);
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
        let mut inn: Vec<u32> = csr.in_neighbors(7).collect();
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
        csr.swap_remove(0, true, 0); // removes entry "1", swapping in "3"
        assert_eq!(csr.out_neighbors(0), &[3, 2]);
        csr.swap_remove(0, true, 1);
        assert_eq!(csr.out_neighbors(0), &[3]);
        csr.swap_remove(0, true, 0);
        assert!(csr.out_neighbors(0).is_empty());
        // In-lists of the leaves are untouched.
        assert_eq!(csr.in_neighbors(2).collect::<Vec<_>>(), [0]);
    }

    #[test]
    fn swap_remove_in_is_constant_time_swap() {
        // Vertex 0's segment is [header: 1, 3 | out: 4 | in: 1, 2, 3],
        // the in-list anchored at the segment end and counted down in
        // input order.
        let g = EdgeList::from_pairs([(1, 0), (2, 0), (0, 4), (3, 0)]);
        let mut csr = PrunedCsr::build(&g, 100.0);
        let in_list = |csr: &PrunedCsr| csr.in_neighbors(0).collect::<Vec<_>>();
        assert_eq!(in_list(&csr), [1, 2, 3]);
        assert_eq!(csr.col[..2], [1, 3], "the header holds the out and in sizes");
        assert_eq!(csr.entry(0, true, 0), (2, 4), "out-entry 0 follows the header");
        assert_eq!(csr.entry(0, false, 0), (5, 1), "in-entry 0 is the segment's last slot");
        assert_eq!(csr.entry(0, false, 2), (3, 3));
        csr.swap_remove(0, false, 0); // removes entry "1", swapping in "3"
        assert_eq!(in_list(&csr), [3, 2]);
        csr.swap_remove(0, false, 1);
        assert_eq!(in_list(&csr), [3]);
        csr.swap_remove(0, false, 0);
        assert!(in_list(&csr).is_empty());
        // The out-list sharing the segment is untouched.
        assert_eq!(csr.out_neighbors(0), &[4]);
        assert_eq!(csr.valid_degree(0), 1);
        assert_eq!(csr.col[..2], [1, 0], "the in size is down to 0");
    }

    #[test]
    fn no_high_vertices_when_tau_large() {
        let g = figure4_graph();
        let csr = PrunedCsr::build(&g, 1e9);
        assert_eq!(csr.num_h2h_edges(), 0);
        assert_eq!(csr.column_entries(), 22);
        assert_eq!(csr.num_inmem_edges(), 11);
    }

    #[test]
    fn all_high_when_tau_zero_on_regular_graph() {
        // A 4-cycle: every vertex has degree 2 = mean degree; with tau = 0.5
        // the threshold is 1 < 2, so every vertex is high and every edge h2h.
        let g = EdgeList::from_pairs([(0, 1), (1, 2), (2, 3), (3, 0)]);
        let csr = PrunedCsr::build(&g, 0.5);
        assert_eq!(csr.num_h2h_edges(), 4);
        assert_eq!(csr.column_entries(), 0);
        assert_eq!(csr.num_inmem_edges(), 0);
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

    /// The two-pass build the one-pass builder replaced, kept as its
    /// oracle: a count pass sizes every out- and in-list, a fill pass
    /// inserts in input order, out-lists upward after the segment's
    /// two-word header and in-lists downward from the segment end, and the
    /// counts are written into the headers last. A vertex with no entries
    /// gets no header. h2h edges are returned in input order.
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
        let mut starts = vec![0u64; n + 1];
        for v in 0..n {
            let entries = (out_cap[v] + in_cap[v]) as u64;
            starts[v + 1] = starts[v] + if entries > 0 { 2 + entries } else { 0 };
        }
        let mut col = vec![0u32; starts[n] as usize];
        let mut out_cursor: Vec<u64> = starts[..n].iter().map(|s| s + 2).collect();
        let mut in_cursor = starts[1..].to_vec();
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
                in_cursor[e.dst as usize] -= 1;
                col[in_cursor[e.dst as usize] as usize] = e.src;
            }
        }
        let mut column_entries = 0u64;
        for v in 0..n {
            if starts[v] < starts[v + 1] {
                col[starts[v] as usize] = out_cap[v];
                col[starts[v] as usize + 1] = in_cap[v];
                column_entries += (out_cap[v] + in_cap[v]) as u64;
            }
        }
        // Split the flat prefix sum into a base per 64 ids and offsets.
        let index = SegmentIndex {
            base: starts.iter().step_by(64).copied().collect(),
            offset: starts.iter().enumerate().map(|(v, &s)| (s - starts[v & !63]) as u32).collect(),
        };
        let csr = PrunedCsr {
            stats,
            index,
            col,
            column_entries,
            num_h2h: h2h.len() as u64,
            num_edges_total: edges.len() as u64,
        };
        (csr, h2h)
    }

    /// A ring over `n` ids (every vertex low, degree 2) plus a hub at
    /// `hub` joined to every fourth other id in alternating directions,
    /// which makes it the one high vertex at τ 2.
    fn ring_with_hub(n: u32, hub: u32) -> EdgeList {
        let mut pairs: Vec<(u32, u32)> = (0..n).map(|v| (v, (v + 1) % n)).collect();
        let spokes = (0..n).filter(|v| v % 4 == 1).filter(|&v| v.abs_diff(hub) > 1);
        let spokes = spokes.filter(|&v| v.abs_diff(hub) != n - 1);
        pairs.extend(spokes.map(|v| if v % 8 == 1 { (hub, v) } else { (v, hub) }));
        EdgeList::with_vertices(n, pairs).unwrap()
    }

    /// Ids in the `isolated_gaps` shape with no edge: between low
    /// segments, on both sides of the index's first block edge, and last.
    const GAPS: [u32; 9] = [3, 4, 17, 62, 63, 64, 65, 66, 129];

    /// A ring through the 121 ids of `0..130` not in [`GAPS`], in id
    /// order, plus a hub at 30 joined to every fourth ring id in
    /// alternating directions, which makes it the one high vertex at τ 2.
    fn isolated_gaps() -> EdgeList {
        let ring: Vec<u32> = (0..130).filter(|v| !GAPS.contains(v)).collect();
        let mut pairs: Vec<(u32, u32)> =
            ring.iter().zip(ring.iter().cycle().skip(1)).map(|(&a, &b)| (a, b)).collect();
        let spokes = ring.iter().step_by(4).filter(|&&v| v.abs_diff(30) > 2);
        pairs.extend(spokes.map(|&v| if v % 8 < 4 { (30, v) } else { (v, 30) }));
        EdgeList::with_vertices(130, pairs).unwrap()
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
            // Vertex counts around the index's 64-id blocks. The end
            // sentinel is the last slot of block 0 at |V| = 63 and opens
            // block 1 at |V| = 64 and block 2 at |V| = 129; the hub sits on
            // either side of the first block edge, so a low segment ends
            // exactly on it (63's at |V| ∈ {65, 129}, 127's at |V| = 129).
            ("block_63", ring_with_hub(63, 31), 2.0),
            ("block_64", ring_with_hub(64, 63), 2.0),
            ("block_65", ring_with_hub(65, 64), 2.0),
            ("block_129", ring_with_hub(129, 64), 2.0),
            ("edgeless", EdgeList::with_vertices(5, std::iter::empty()).unwrap(), 1.0),
            ("isolated_gaps", isolated_gaps(), 2.0),
        ]
    }

    /// Builds from `pass`, checks that the builder asked for exactly one
    /// pass, and compares with the reference.
    fn check_builder<I: Iterator<Item = Result<Edge, GraphError>>>(
        what: &str,
        stats: &DegreeStats,
        want: &(PrunedCsr, Vec<Edge>),
        mut pass: impl FnMut() -> Result<I, GraphError>,
    ) {
        let (mut calls, mut h2h) = (0, Vec::new());
        let make_pass = || {
            calls += 1;
            pass()
        };
        let csr = PrunedCsr::build_from_passes(stats.clone(), make_pass, |e| h2h.push(e)).unwrap();
        assert_eq!(calls, 1, "{what}: one insertion pass");
        assert_eq!(csr, want.0, "{what}: CSR");
        assert_eq!(h2h, want.1, "{what}: h2h");
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
            if let Some(n) = name.strip_prefix("block_") {
                let n: u32 = n.parse().unwrap();
                let hub = (0..n).find(|&v| stats.is_high(v));
                assert!(stats.num_high == 1 && hub.is_some(), "{name} needs one high hub");
                assert_eq!(want.0.num_vertices(), n);
                if n > 64 {
                    assert_eq!(hub, Some(64), "{name}: the hub opens block 1");
                    assert!(want.0.segment_len(63) > 0, "{name}: 63's segment ends on the edge");
                }
            }
            if name == "isolated_gaps" {
                assert!(stats.is_high(30) && stats.num_high == 1, "{name} needs one high hub");
                let n = want.0.num_vertices();
                assert!(GAPS.iter().all(|&v| stats.degree(v) == 0), "{name}: gaps are isolated");
                assert_eq!(GAPS.last(), Some(&(n - 1)), "{name}: the last id is a gap");
                assert!(stats.degree(61) > 0 && stats.degree(67) > 0);
                // The gaps at the end and around the block edge are empty
                // segments: 129's lies at the column array's end.
                assert_eq!(want.0.index.start(n as usize - 1), want.0.col.len() as u64);
            }
            let slice = || Ok(g.edges.iter().copied().map(Ok));
            check_builder(&format!("{name}: slice"), &stats, &want, slice);
            let in_memory = PrunedCsr::build(&g, tau);
            assert_eq!(in_memory, want.0, "{name}: in-memory builder");
            // A low vertex's segment holds d(v) entries after its header;
            // a high or isolated one has neither entries nor a header, and
            // reads as empty lists even at the column array's end.
            let mut low_entries = 0u64;
            for v in 0..in_memory.num_vertices() {
                let d = if stats.is_high(v) { 0 } else { stats.degree(v) };
                low_entries += d as u64;
                assert_eq!(in_memory.segment_len(v), d, "{name}: segment of {v}");
                assert_eq!(in_memory.valid_degree(v), d, "{name}: valid degree of {v}");
                if d == 0 {
                    assert!(in_memory.out_neighbors(v).is_empty(), "{name}: {v} has no out-list");
                    assert_eq!(in_memory.neighbors(v).count(), 0, "{name}: {v} has no list");
                    assert_eq!((in_memory.list_len(v, true), in_memory.list_len(v, false)), (0, 0));
                }
            }
            assert_eq!(in_memory.column_entries(), low_entries, "{name}: Σ_{{V_l}} d(v)");

            let mut path = std::env::temp_dir();
            path.push(format!("hep_pruned_csr_oracle_{}_{name}.hepb", std::process::id()));
            let file = BinaryEdgeFile::write(&path, &g).unwrap();
            for mode in [IoMode::Buffered, IoMode::Mmap] {
                let f = file.clone().with_io_mode(mode);
                check_builder(&format!("{name}: {mode:?} file"), &stats, &want, || f.pass());
            }
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn swap_remove_and_entry_across_a_block_edge() {
        // Vertices 63 and 64 straddle the index's first block edge: after
        // the 3-word segments of 10..=13 and 20..=23, 63's segment is
        // [24, 30), the last of block 0, and 64's starts at block 1's
        // base, 30. Both are [header: 2, 2 | out: 2 | in: 2].
        let pairs =
            [(63, 10), (12, 63), (63, 11), (13, 63), (64, 20), (21, 64), (64, 22), (23, 64)];
        let g = EdgeList::with_vertices(129, pairs).unwrap();
        let mut csr = PrunedCsr::build(&g, 100.0);
        assert_eq!((csr.segment_len(63), csr.segment_len(64)), (4, 4));
        assert_eq!(csr.index.base[1], 30, "64's header opens block 1");
        assert_eq!(csr.entry(63, true, 0), (26, 10));
        assert_eq!(csr.entry(63, false, 0), (29, 12), "in-entry 0 is block 0's last slot");
        assert_eq!(csr.entry(63, false, 1), (28, 13));
        assert_eq!(csr.entry(64, true, 0), (32, 20), "out-entry 0 follows block 1's header");
        assert_eq!(csr.entry(64, false, 0), (35, 21));
        csr.swap_remove(63, false, 0); // removes entry "12", swapping in "13"
        assert_eq!(csr.in_neighbors(63).collect::<Vec<_>>(), [13]);
        assert_eq!(csr.entry(63, false, 0), (29, 13));
        csr.swap_remove(64, true, 0); // removes entry "20", swapping in "22"
        assert_eq!(csr.out_neighbors(64), &[22]);
        assert_eq!(csr.entry(64, true, 0), (32, 22));
        assert_eq!((&csr.col[24..26], &csr.col[30..32]), (&[2, 1][..], &[1, 2][..]), "headers");
        // The lists sharing each segment are untouched.
        assert_eq!(csr.out_neighbors(63), &[10, 11]);
        assert_eq!(csr.in_neighbors(64).collect::<Vec<_>>(), [21, 23]);
        assert_eq!((csr.valid_degree(63), csr.valid_degree(64)), (3, 3));
    }

    #[test]
    fn index_offset_overflow_is_a_typed_error() {
        // 64 low vertices of degree 2^27 would need a 32 GiB column
        // array. Vertex 32's offset, 32·(2 + 2^27) = 2^32 + 64 with the
        // header words, is the first past u32::MAX; the index pass fails
        // before `col` is allocated or any edge pass starts.
        let stats = DegreeStats::from_degrees(vec![1 << 27; 64], (1u64 << 27) as f64, 1.0);
        assert_eq!(stats.num_high, 0);
        let mut passes = 0;
        let err = PrunedCsr::build_from_passes(
            stats,
            || {
                passes += 1;
                Ok(std::iter::empty())
            },
            |_| {},
        )
        .unwrap_err();
        assert!(
            matches!(err, GraphError::SegmentIndexOverflow { vertex: 32, offset } if offset == (1 << 32) + 64),
            "got {err}"
        );
        assert_eq!(passes, 0, "no edge pass may start");
    }

    #[test]
    fn budgeted_build_rejects_source_growing_between_passes() {
        // The degree pass saw one edge per low vertex; the insertion pass
        // yields two more at one low vertex. Without the segment guard the
        // extra entries would run off the segment: past the column array's
        // end for vertex 3's out-list (the last low segment; vertex 4 is
        // high), below its start for vertex 0's in-list.
        for extra in [Edge::new(3, 4), Edge::new(4, 0)] {
            let stats = DegreeStats::from_degrees(vec![1, 1, 1, 1, 100], 1.0, 10.0);
            let err = PrunedCsr::build_from_passes(
                stats,
                || Ok([Edge::new(0, 1), Edge::new(2, 3), extra, extra].into_iter().map(Ok)),
                |_| {},
            )
            .unwrap_err();
            assert!(matches!(err, GraphError::TruncatedBinary { .. }), "got {err}");
        }
    }

    #[test]
    fn budgeted_build_rejects_growth_at_an_empty_segment() {
        // The degree pass saw vertices 2 and 6 isolated and vertex 5 high,
        // so none has a header: 2's empty segment sits between 1's and
        // 3's, 6's at the column array's end, after the last non-empty
        // segment (4's). The insertion pass yields an edge at one of them, as
        // source and as destination; its other end is the high vertex 5,
        // which has no list to fill. Reading a header for 2 would read
        // 3's, for 6 would run past the column array, and a write at 4
        // would run past it too.
        for v in [2, 6, 4] {
            for extra in [Edge::new(v, 5), Edge::new(5, v)] {
                let stats = DegreeStats::from_degrees(vec![1, 1, 0, 1, 1, 100, 0], 1.0, 10.0);
                let err = PrunedCsr::build_from_passes(
                    stats,
                    || Ok([Edge::new(0, 1), extra, Edge::new(3, 4)].into_iter().map(Ok)),
                    |_| {},
                )
                .unwrap_err();
                assert!(matches!(err, GraphError::TruncatedBinary { .. }), "{extra:?}: got {err}");
            }
        }
    }

    #[test]
    fn budgeted_build_rejects_source_shrinking_between_passes() {
        // The degree table promises four entries; the insertion pass
        // yields fewer. Without the end check the unfilled slots would stay
        // zero and count as valid entries — phantom edges to vertex 0.
        let stats = DegreeStats::from_degrees(vec![1, 1, 1, 1], 1.0, 10.0);
        let err =
            PrunedCsr::build_from_passes(stats, || Ok([Ok(Edge::new(0, 1))].into_iter()), |_| {})
                .unwrap_err();
        assert!(matches!(err, GraphError::TruncatedBinary { .. }), "got {err}");
    }

    #[test]
    fn build_from_passes_rejects_out_of_range_ids() {
        // Degree stats over 3 vertices, but the pass yields edge (0, 9):
        // a typed error, not an index-out-of-bounds panic.
        let stats = DegreeStats::from_degrees(vec![1, 1, 0], 1.0, 10.0);
        let err =
            PrunedCsr::build_from_passes(stats, || Ok([Ok(Edge::new(0, 9))].into_iter()), |_| {})
                .unwrap_err();
        assert!(
            matches!(err, GraphError::VertexOutOfRange { vertex: 9, num_vertices: 3 }),
            "got {err}"
        );
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
            let (csr, h2h) = build_collecting_h2h(&g, tau);
            // Each edge is "owned" by exactly one location: the out-entry of
            // a low src, else the in-entry of a low dst (src high), else h2h.
            let mut found = std::collections::HashMap::new();
            for v in 0..csr.num_vertices() {
                for &u in csr.out_neighbors(v) {
                    *found.entry(Edge::new(v, u).canonical()).or_insert(0u32) += 1;
                }
                for u in csr.in_neighbors(v) {
                    if csr.is_high(u) {
                        *found.entry(Edge::new(u, v).canonical()).or_insert(0) += 1;
                    }
                }
            }
            for e in &h2h {
                *found.entry(e.canonical()).or_insert(0) += 1;
            }
            // Every input edge appears exactly once from the "owning" side.
            for e in &g.edges {
                prop_assert_eq!(found.get(&e.canonical()).copied(), Some(1), "edge {:?}", e);
            }
            prop_assert_eq!(found.len(), g.edges.len());
            // In-entries mirror out-entries for low-low edges.
            for v in 0..csr.num_vertices() {
                for u in csr.in_neighbors(v) {
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

        /// A low vertex's segment is exactly `d(v)` entries and a high
        /// one's is empty, so the degree table can be moved out and its low
        /// entries rebuilt from the segments alone.
        #[test]
        fn segments_restore_the_moved_degree_table(
            pairs in proptest::collection::vec((0u32..30, 0u32..30), 1..120),
            tau in 0.25f64..8.0,
        ) {
            let mut g = EdgeList::from_pairs(pairs);
            g.canonicalize();
            prop_assume!(!g.edges.is_empty());
            let mut csr = PrunedCsr::build(&g, tau);
            let degrees = csr.take_degrees();
            prop_assert_eq!(&degrees, &g.degrees());
            prop_assert_eq!(csr.num_vertices(), g.num_vertices);
            for v in 0..csr.num_vertices() {
                let expect = if csr.is_high(v) { 0 } else { degrees[v as usize] };
                prop_assert_eq!(csr.segment_len(v), expect, "vertex {}", v);
            }
        }
    }
}
