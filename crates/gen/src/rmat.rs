//! R-MAT (recursive matrix) generator.
//!
//! Each edge is placed by recursively descending into one of four quadrants
//! of the adjacency matrix with probabilities `(a, b, c, d)`. Skewed
//! parameter sets produce both a power-law degree tail and hierarchical
//! locality, which is why we use R-MAT for the web-crawl analogs (WI).

use crate::parfill::fill_distinct;
use hep_ds::SplitMix64;
use hep_graph::EdgeList;

/// R-MAT parameters. `a + b + c + d` must sum to 1.
#[derive(Clone, Copy, Debug)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
    pub d: f64,
}

impl RmatParams {
    /// The classic Graph500-style skewed parameters.
    pub fn graph500() -> Self {
        RmatParams { a: 0.57, b: 0.19, c: 0.19, d: 0.05 }
    }

    /// A more localized parameter set: heavier diagonal (a, d) produces
    /// stronger block/community structure, as seen in web crawls.
    pub fn weblike() -> Self {
        RmatParams { a: 0.65, b: 0.12, c: 0.12, d: 0.11 }
    }
}

/// Generates a simple R-MAT graph with `2^scale` vertices and about `m`
/// distinct edges (attempt budget 10·m, like the other generators).
/// Candidates are drawn in parallel from independently seeded chunks, so
/// the output is identical at any `HEP_THREADS` setting.
#[expect(
    clippy::expect_used,
    reason = "the generator samples endpoints modulo n, so ids are in range"
)]
pub fn rmat(scale: u32, m: u64, params: RmatParams, seed: u64) -> EdgeList {
    assert!((1..31).contains(&scale), "scale out of range");
    let sum = params.a + params.b + params.c + params.d;
    assert!((sum - 1.0).abs() < 1e-9, "parameters must sum to 1, got {sum}");
    let n = 1u32 << scale;
    let rng = SplitMix64::new(seed);
    // Per-level parameter noise (±10%) avoids the exact self-similarity that
    // makes pure R-MAT degrees lumpy.
    let pairs = fill_distinct(&rng, m, false, |rng| {
        let mut u = 0u32;
        let mut v = 0u32;
        for level in 0..scale {
            let noise = 0.9 + 0.2 * rng.next_f64();
            let a = params.a * noise;
            let b = params.b;
            let c = params.c;
            let x = rng.next_f64() * (a + b + c + params.d);
            let bit = 1u32 << (scale - 1 - level);
            if x < a {
                // top-left: no bits set
            } else if x < a + b {
                v |= bit;
            } else if x < a + b + c {
                u |= bit;
            } else {
                u |= bit;
                v |= bit;
            }
        }
        (u != v && u < n && v < n).then_some((u, v))
    });
    EdgeList::with_vertices(n, pairs).expect("ids in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_edges_and_is_simple() {
        let g = rmat(12, 20_000, RmatParams::graph500(), 11);
        assert_eq!(g.num_vertices, 4096);
        assert!(g.num_edges() >= 19_000, "only {} edges", g.num_edges());
        let mut h = g.clone();
        h.canonicalize();
        assert_eq!(g.num_edges(), h.num_edges());
    }

    #[test]
    fn deterministic() {
        let a = rmat(10, 5000, RmatParams::graph500(), 3);
        let b = rmat(10, 5000, RmatParams::graph500(), 3);
        assert_eq!(a.edges, b.edges);
    }

    #[test]
    fn skewed_parameters_create_hubs() {
        let g = rmat(14, 120_000, RmatParams::graph500(), 5);
        let deg = g.degrees();
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max > 10.0 * g.mean_degree(), "max {max}, mean {}", g.mean_degree());
    }

    #[test]
    fn uniform_parameters_do_not() {
        let p = RmatParams { a: 0.25, b: 0.25, c: 0.25, d: 0.25 };
        let g = rmat(12, 40_000, p, 5);
        let deg = g.degrees();
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max < 4.0 * g.mean_degree());
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_params() {
        rmat(8, 100, RmatParams { a: 0.9, b: 0.9, c: 0.0, d: 0.0 }, 0);
    }
}
