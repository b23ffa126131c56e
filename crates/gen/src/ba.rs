//! Barabási–Albert preferential attachment.
//!
//! Every new vertex attaches `m_per_vertex` edges to existing vertices with
//! probability proportional to their degree, producing a γ≈3 power law with
//! a connected giant component — useful where connectivity matters (e.g. the
//! BFS workloads of the processing simulator).
//!
//! The implementation is the *communication-free copy model* (the trick
//! behind KaGen-style distributed BA generators): lay all edges out in a
//! global array where slot `2e` holds edge `e`'s source and slot `2e + 1`
//! its target, and let edge `e` pick its target by sampling a uniform slot
//! `r < 2e` — landing on a slot is exactly degree-proportional sampling,
//! because each vertex occupies one slot per incident edge. Resolving an odd
//! slot chases into the earlier edge's own draw, which is a **pure function
//! of `(seed, edge index)`** via `SplitMix64::split(e)`. No shared state
//! means every edge can be computed independently and in parallel, and the
//! output is bit-identical at any `HEP_THREADS` setting.
//!
//! Self-loops are rejected by redrawing from the edge's private stream;
//! duplicate attachments (a vertex copying the same target twice) are
//! dropped in a final ordered dedup pass, so the delivered edge count can
//! fall slightly below the closed-form `m0·(m0−1)/2 + (n−m0)·m_per_vertex`.

use hep_ds::SplitMix64;
use hep_graph::EdgeList;

/// Pure-function resolver for the copy model's slot array.
struct CopyModel<'a> {
    base: SplitMix64,
    clique: &'a [(u32, u32)],
    m_per: usize,
    m0: u32,
}

impl CopyModel<'_> {
    /// Source endpoint of edge `e` (fixed by construction).
    fn source(&self, e: usize) -> u32 {
        if e < self.clique.len() {
            self.clique[e].0
        } else {
            self.m0 + ((e - self.clique.len()) / self.m_per) as u32
        }
    }

    /// Target endpoint of generated edge `e` (`e >= clique.len()`), drawn
    /// from the edge's private stream with self-loop rejection.
    fn target(&self, e: usize) -> u32 {
        let v = self.source(e);
        let mut rng = self.base.split(e as u64);
        for _ in 0..64 {
            let t = self.resolve_slot(rng.next_below(2 * e as u64) as usize);
            if t != v {
                return t;
            }
        }
        // Pathologically unlucky stream: fall back to a uniform earlier
        // vertex (still deterministic, never a loop since v >= m0 >= 2).
        rng.next_below(v as u64) as u32
    }

    /// Vertex occupying slot `p` of the global endpoint array.
    fn resolve_slot(&self, p: usize) -> u32 {
        let e = p / 2;
        if p.is_multiple_of(2) {
            self.source(e)
        } else if e < self.clique.len() {
            self.clique[e].1
        } else {
            self.target(e)
        }
    }
}

/// Edges per parallel chunk; a constant so the decomposition (and hence the
/// output) never depends on the worker count.
const CHUNK: usize = 16_384;

/// Generates a BA graph with `n` vertices; each vertex beyond the initial
/// clique of `m_per_vertex + 1` vertices adds `m_per_vertex` edges (a few
/// may collapse as duplicates, see the module docs).
#[expect(
    clippy::expect_used,
    reason = "the generator samples endpoints modulo n, so ids are in range"
)]
pub fn barabasi_albert(n: u32, m_per_vertex: u32, seed: u64) -> EdgeList {
    assert!(m_per_vertex >= 1, "need at least one edge per vertex");
    assert!(n > m_per_vertex, "need n > m_per_vertex");
    let m0 = m_per_vertex + 1;
    let mut clique: Vec<(u32, u32)> = Vec::new();
    for u in 0..m0 {
        for v in (u + 1)..m0 {
            clique.push((u, v));
        }
    }
    let model = CopyModel {
        base: SplitMix64::new(seed),
        clique: &clique,
        m_per: m_per_vertex as usize,
        m0,
    };
    let total = clique.len() + (n - m0) as usize * m_per_vertex as usize;
    let ranges = hep_par::chunk_ranges(total - clique.len(), CHUNK);
    let chunks = hep_par::Pool::current().par_map(ranges.len(), |i| {
        let (a, b) = ranges[i];
        (a..b)
            .map(|j| {
                let e = clique.len() + j;
                (model.source(e), model.target(e))
            })
            .collect::<Vec<(u32, u32)>>()
    });
    // Ordered dedup: within-vertex duplicate attachments (and their rare
    // cross-vertex cousins) are dropped, first occurrence wins.
    let mut seen: hep_ds::FxHashSet<(u32, u32)> = hep_ds::FxHashSet::default();
    seen.reserve(total);
    let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(total);
    for (u, v) in clique.iter().copied().chain(chunks.into_iter().flatten()) {
        if seen.insert((u.min(v), u.max(v))) {
            pairs.push((u, v));
        }
    }
    EdgeList::with_vertices(n, pairs).expect("ids in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_count_near_formula() {
        let g = barabasi_albert(100, 3, 1);
        // Initial K4 has 6 edges; 96 further vertices add up to 3 each, a
        // few of which collapse as duplicate attachments.
        let formula = 6 + 96 * 3;
        assert!(g.num_edges() <= formula, "{} > {formula}", g.num_edges());
        assert!(g.num_edges() as f64 >= 0.9 * formula as f64, "{} edges", g.num_edges());
    }

    #[test]
    fn deterministic() {
        assert_eq!(barabasi_albert(200, 2, 5).edges, barabasi_albert(200, 2, 5).edges);
    }

    #[test]
    fn identical_across_thread_counts() {
        let serial = hep_par::with_threads(1, || barabasi_albert(40_000, 2, 9));
        let parallel = hep_par::with_threads(8, || barabasi_albert(40_000, 2, 9));
        assert_eq!(serial.edges, parallel.edges);
    }

    #[test]
    fn is_simple_graph() {
        let mut g = barabasi_albert(500, 4, 9);
        let before = g.num_edges();
        g.canonicalize();
        assert_eq!(g.num_edges(), before);
    }

    #[test]
    fn is_connected() {
        let g = barabasi_albert(300, 2, 3);
        // Union-find connectivity check.
        let mut parent: Vec<u32> = (0..g.num_vertices).collect();
        fn find(p: &mut Vec<u32>, x: u32) -> u32 {
            if p[x as usize] != x {
                let r = find(p, p[x as usize]);
                p[x as usize] = r;
            }
            p[x as usize]
        }
        for e in &g.edges {
            let (a, b) = (find(&mut parent, e.src), find(&mut parent, e.dst));
            parent[a as usize] = b;
        }
        let root = find(&mut parent, 0);
        assert!((0..g.num_vertices).all(|v| find(&mut parent, v) == root));
    }

    #[test]
    fn every_vertex_keeps_an_edge() {
        // Self-loop rejection guarantees each new vertex lands at least one
        // real attachment, so no vertex is isolated.
        let g = barabasi_albert(2000, 1, 11);
        let deg = g.degrees();
        assert!(deg.iter().all(|&d| d >= 1));
    }

    #[test]
    fn early_vertices_become_hubs() {
        let g = barabasi_albert(5000, 2, 7);
        let deg = g.degrees();
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 10.0 * g.mean_degree());
    }
}
