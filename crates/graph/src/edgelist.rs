//! In-memory edge lists and the paper's input formats.
//!
//! Appendix A: "For HEP, HDRF, DBH, NE, and SNE, the input graph is provided
//! as binary edge list with 32-bit vertex ids." We support that binary format
//! (little-endian `u32` pairs) plus a whitespace text format with `#`
//! comments (the SNAP dataset convention).

use crate::error::GraphError;
use crate::types::{Edge, VertexId};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// An edge list together with its vertex-id space.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeList {
    /// Vertex ids are dense in `0..num_vertices`.
    pub num_vertices: u32,
    /// Edges in input order (order matters for streaming partitioners).
    pub edges: Vec<Edge>,
}

impl EdgeList {
    /// Builds an edge list from raw pairs; `num_vertices` becomes
    /// `max(id) + 1`, so every id must be below `u32::MAX`.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (VertexId, VertexId)>) -> Self {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let num_vertices = edges.iter().map(|e| e.src.max(e.dst) + 1).max().unwrap_or(0);
        EdgeList { num_vertices, edges }
    }

    /// [`EdgeList::from_pairs`] for ids read from a file: an endpoint of
    /// `u32::MAX` would need a vertex count of 2^32, which `num_vertices`
    /// cannot hold, so it is a typed [`GraphError::VertexOutOfRange`]
    /// rather than an overflow.
    fn from_file_pairs(
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        let max_id = edges.iter().map(|e| e.src.max(e.dst)).max();
        let num_vertices = match max_id {
            None => 0,
            Some(m) => m
                .checked_add(1)
                .ok_or(GraphError::VertexOutOfRange { vertex: m, num_vertices: u32::MAX })?,
        };
        Ok(EdgeList { num_vertices, edges })
    }

    /// Builds an edge list with an explicit vertex count (allows isolated
    /// vertices at the top of the id range). Errors on out-of-range ids.
    pub fn with_vertices(
        num_vertices: u32,
        pairs: impl IntoIterator<Item = (VertexId, VertexId)>,
    ) -> Result<Self, GraphError> {
        let edges: Vec<Edge> = pairs.into_iter().map(Edge::from).collect();
        for e in &edges {
            let m = e.src.max(e.dst);
            if m >= num_vertices {
                return Err(GraphError::VertexOutOfRange { vertex: m, num_vertices });
            }
        }
        Ok(EdgeList { num_vertices, edges })
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.edges.len() as u64
    }

    /// Mean vertex degree `2|E| / |V|` (paper §3.1, the basis of the τ
    /// threshold). Zero for empty graphs.
    pub fn mean_degree(&self) -> f64 {
        if self.num_vertices == 0 {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.num_vertices as f64
        }
    }

    /// Undirected degree of every vertex (self-loops count twice, like in the
    /// CSR where a loop occupies an out and an in slot). One serial pass.
    pub fn degrees(&self) -> Vec<u32> {
        let mut deg = vec![0u32; self.num_vertices as usize];
        for e in &self.edges {
            deg[e.src as usize] += 1;
            deg[e.dst as usize] += 1;
        }
        deg
    }

    /// Removes self-loops and duplicate undirected edges, keeping the first
    /// occurrence's direction and the original relative order.
    ///
    /// Partitioning assumes a simple graph; the real-world datasets of
    /// Table 3 are distributed in deduplicated form, so generators and
    /// loaders call this once up front.
    pub fn canonicalize(&mut self) {
        let mut seen = hep_ds::FxHashSet::default();
        seen.reserve(self.edges.len());
        self.edges.retain(|e| !e.is_self_loop() && seen.insert(e.canonical()));
    }

    /// Writes the binary format: `|E|` little-endian `(u32, u32)` records.
    pub fn write_binary(&self, path: impl AsRef<Path>) -> Result<(), GraphError> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for e in &self.edges {
            w.write_all(&e.src.to_le_bytes())?;
            w.write_all(&e.dst.to_le_bytes())?;
        }
        w.flush()?;
        Ok(())
    }

    /// Reads the binary format produced by [`EdgeList::write_binary`].
    pub fn read_binary(path: impl AsRef<Path>) -> Result<Self, GraphError> {
        let mut r = BufReader::new(std::fs::File::open(path)?);
        let mut buf = Vec::new();
        r.read_to_end(&mut buf)?;
        if buf.len() % 8 != 0 {
            return Err(GraphError::TruncatedBinary { bytes: buf.len() % 8 });
        }
        let pairs = buf
            .chunks_exact(8)
            .map(|c| (hep_ds::bytes::u32_le_at(c, 0), hep_ds::bytes::u32_le_at(c, 4)));
        Self::from_file_pairs(pairs)
    }

    /// Writes a text edge list: one `src dst` pair per line.
    pub fn write_text(&self, path: impl AsRef<Path>) -> Result<(), GraphError> {
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        for e in &self.edges {
            writeln!(w, "{} {}", e.src, e.dst)?;
        }
        w.flush()?;
        Ok(())
    }

    /// Opens a streaming reader over a binary edge-list file (the format of
    /// [`EdgeList::write_binary`]), yielding edges without loading the file.
    /// (HEP's own h2h spill is a checksummed HEPB file read through
    /// [`crate::BinaryEdgeFile::pass`], not this raw format.)
    ///
    /// The file length is validated up front: a length that is not a
    /// multiple of 8 is a typed [`GraphError::TruncatedBinary`] at open
    /// time, not a silently dropped tail.
    pub fn stream_binary(path: impl AsRef<Path>) -> Result<BinaryEdgeReader, GraphError> {
        let file = std::fs::File::open(path)?;
        let len = file.metadata()?.len();
        let partial = (len % 8) as usize;
        if partial != 0 {
            return Err(GraphError::TruncatedBinary { bytes: partial });
        }
        Ok(BinaryEdgeReader {
            reader: BufReader::new(file),
            remaining: len / 8,
            vertex_bound: None,
        })
    }

    /// Reads a whitespace-separated text edge list; `#`- and `%`-prefixed
    /// lines and blank lines are skipped (SNAP / KONECT conventions), and
    /// columns after the first two (edge weights) are ignored. A line
    /// without two `u32` ids is a [`GraphError::Parse`] naming its 1-based
    /// line number; invalid UTF-8 is a [`GraphError::Io`].
    pub fn read_text(path: impl AsRef<Path>) -> Result<Self, GraphError> {
        let r = BufReader::new(std::fs::File::open(path)?);
        let mut pairs = Vec::new();
        for (lineno, line) in r.lines().enumerate() {
            let line = line?;
            let t = line.trim();
            if t.is_empty() || t.starts_with('#') || t.starts_with('%') {
                continue;
            }
            let mut it = t.split_whitespace();
            let parse = |s: Option<&str>| -> Option<u32> { s?.parse().ok() };
            match (parse(it.next()), parse(it.next())) {
                (Some(a), Some(b)) => pairs.push((a, b)),
                _ => {
                    return Err(GraphError::Parse { line: lineno + 1, content: line });
                }
            }
        }
        Self::from_file_pairs(pairs)
    }
}

/// Incremental reader over a binary edge list; yields `Err` once on a
/// truncated record, out-of-range endpoint or IO failure, then stops
/// (fused — a drained consumer must terminate).
#[derive(Debug)]
pub struct BinaryEdgeReader {
    reader: BufReader<std::fs::File>,
    /// Records left, per the length check at open time. Hitting EOF with
    /// records remaining means the file shrank underneath us.
    remaining: u64,
    /// Optional endpoint contract: ids must be `< bound`.
    vertex_bound: Option<u32>,
}

impl BinaryEdgeReader {
    /// Enforces an endpoint contract: every yielded edge's ids must be
    /// `< num_vertices`, else the reader yields a typed
    /// [`GraphError::VertexOutOfRange`], so a corrupt file is rejected at
    /// the read, before any index arithmetic.
    #[must_use]
    pub fn with_vertex_bound(mut self, num_vertices: u32) -> BinaryEdgeReader {
        self.vertex_bound = Some(num_vertices);
        self
    }
}

impl Iterator for BinaryEdgeReader {
    type Item = Result<Edge, GraphError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        let mut buf = [0u8; 8];
        let mut got = 0;
        while got < 8 {
            match self.reader.read(&mut buf[got..]) {
                Ok(0) => {
                    // Length was validated at open; a short record now
                    // means the file shrank since then.
                    self.remaining = 0;
                    return Some(Err(GraphError::TruncatedBinary { bytes: got }));
                }
                Ok(n) => got += n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.remaining = 0;
                    return Some(Err(GraphError::Io(e)));
                }
            }
        }
        let e = Edge::new(hep_ds::bytes::u32_le_at(&buf, 0), hep_ds::bytes::u32_le_at(&buf, 4));
        if let Some(bound) = self.vertex_bound {
            let m = e.src.max(e.dst);
            if m >= bound {
                self.remaining = 0;
                return Some(Err(GraphError::VertexOutOfRange { vertex: m, num_vertices: bound }));
            }
        }
        self.remaining -= 1;
        Some(Ok(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hep_graph_test_{}_{}", std::process::id(), name));
        p
    }

    #[test]
    fn from_pairs_infers_vertex_count() {
        let el = EdgeList::from_pairs([(0, 3), (1, 2)]);
        assert_eq!(el.num_vertices, 4);
        assert_eq!(el.num_edges(), 2);
    }

    #[test]
    fn empty_list_is_fine() {
        let el = EdgeList::from_pairs(std::iter::empty());
        assert_eq!(el.num_vertices, 0);
        assert_eq!(el.mean_degree(), 0.0);
        assert!(el.degrees().is_empty());
    }

    #[test]
    fn with_vertices_validates_range() {
        assert!(EdgeList::with_vertices(3, [(0, 2)]).is_ok());
        let err = EdgeList::with_vertices(3, [(0, 3)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { vertex: 3, .. }));
    }

    #[test]
    fn degrees_and_mean() {
        // Star: 0-1, 0-2, 0-3
        let el = EdgeList::from_pairs([(0, 1), (0, 2), (0, 3)]);
        assert_eq!(el.degrees(), vec![3, 1, 1, 1]);
        assert!((el.mean_degree() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn canonicalize_removes_loops_and_duplicates() {
        let mut el = EdgeList::from_pairs([(1, 2), (2, 2), (2, 1), (1, 2), (3, 1)]);
        el.canonicalize();
        assert_eq!(el.edges, vec![Edge::new(1, 2), Edge::new(3, 1)]);
    }

    #[test]
    fn binary_roundtrip() {
        let el = EdgeList::from_pairs([(0, 1), (7, 3), (u32::MAX - 1, 5)]);
        let p = tmp("bin");
        el.write_binary(&p).unwrap();
        let back = EdgeList::read_binary(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(el.edges, back.edges);
    }

    #[test]
    fn stream_binary_yields_all_edges() {
        let el = EdgeList::from_pairs([(0, 1), (7, 3), (5, 5)]);
        let p = tmp("stream");
        el.write_binary(&p).unwrap();
        let edges: Vec<Edge> =
            EdgeList::stream_binary(&p).unwrap().collect::<Result<_, _>>().unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(edges, el.edges);
    }

    #[test]
    fn stream_binary_empty_file() {
        let p = tmp("stream_empty");
        std::fs::write(&p, []).unwrap();
        assert_eq!(EdgeList::stream_binary(&p).unwrap().count(), 0);
        std::fs::remove_file(&p).ok();
    }

    #[test]
    fn stream_binary_truncated_tail_is_typed_error_not_silent_drop() {
        // Regression: the reader used to map a trailing partial record to
        // a clean EOF, silently dropping corrupt tail bytes. The length is
        // now checked at open.
        let p = tmp("stream_trunc");
        std::fs::write(&p, [1u8, 0, 0, 0, 2, 0, 0, 0, 9, 9, 9]).unwrap();
        let err = EdgeList::stream_binary(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::TruncatedBinary { bytes: 3 }), "got {err}");
    }

    #[test]
    fn stream_binary_shrunk_file_fails_fused() {
        let el = EdgeList::from_pairs([(0, 1), (2, 3), (4, 5)]);
        let p = tmp("stream_shrunk");
        el.write_binary(&p).unwrap();
        let reader = EdgeList::stream_binary(&p).unwrap();
        // Shrink mid-record after open: the reader must notice, with a
        // typed error, and fuse (one Err, then None).
        let handle = std::fs::OpenOptions::new().write(true).open(&p).unwrap();
        handle.set_len(8 + 5).unwrap();
        let items: Vec<Result<Edge, GraphError>> = reader.collect();
        std::fs::remove_file(&p).ok();
        assert_eq!(items.len(), 2, "got {items:?}");
        assert!(items[0].is_ok());
        assert!(matches!(items[1], Err(GraphError::TruncatedBinary { bytes: 5 })), "got {items:?}");
    }

    #[test]
    fn stream_binary_vertex_bound_rejects_out_of_range() {
        let el = EdgeList::from_pairs([(0, 1), (2, 9)]);
        let p = tmp("stream_bound");
        el.write_binary(&p).unwrap();
        let items: Vec<Result<Edge, GraphError>> =
            EdgeList::stream_binary(&p).unwrap().with_vertex_bound(4).collect();
        std::fs::remove_file(&p).ok();
        assert_eq!(items.len(), 2);
        assert!(items[0].is_ok());
        assert!(
            matches!(items[1], Err(GraphError::VertexOutOfRange { vertex: 9, num_vertices: 4 })),
            "got {items:?}"
        );
    }

    #[test]
    fn binary_truncation_detected() {
        let p = tmp("trunc");
        std::fs::write(&p, [1u8, 2, 3]).unwrap();
        let err = EdgeList::read_binary(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::TruncatedBinary { bytes: 3 }));
    }

    #[test]
    fn text_roundtrip_with_comments() {
        let p = tmp("txt");
        std::fs::write(&p, "# header\n0 1\n\n% konect\n2 3\n").unwrap();
        let el = EdgeList::read_text(&p).unwrap();
        std::fs::remove_file(&p).ok();
        assert_eq!(el.edges, vec![Edge::new(0, 1), Edge::new(2, 3)]);
    }

    #[test]
    fn text_parse_error_reports_line() {
        let p = tmp("badtxt");
        std::fs::write(&p, "0 1\nnot an edge\n").unwrap();
        let err = EdgeList::read_text(&p).unwrap_err();
        std::fs::remove_file(&p).ok();
        assert!(matches!(err, GraphError::Parse { line: 2, .. }));
    }

    proptest! {
        #[test]
        fn binary_roundtrip_any_edges(pairs in proptest::collection::vec((0u32..1000, 0u32..1000), 0..100)) {
            let el = EdgeList::from_pairs(pairs);
            let p = tmp(&format!("prop{}", el.edges.len()));
            el.write_binary(&p).unwrap();
            let back = EdgeList::read_binary(&p).unwrap();
            std::fs::remove_file(&p).ok();
            prop_assert_eq!(el.edges, back.edges);
        }

        #[test]
        fn canonicalize_is_idempotent(pairs in proptest::collection::vec((0u32..50, 0u32..50), 0..200)) {
            let mut el = EdgeList::from_pairs(pairs);
            el.canonicalize();
            let once = el.clone();
            el.canonicalize();
            prop_assert_eq!(once, el);
        }

        #[test]
        fn degree_sum_is_twice_edge_count(pairs in proptest::collection::vec((0u32..50, 0u32..50), 0..200)) {
            let el = EdgeList::from_pairs(pairs);
            let sum: u64 = el.degrees().iter().map(|&d| d as u64).sum();
            prop_assert_eq!(sum, 2 * el.num_edges());
        }
    }
}
