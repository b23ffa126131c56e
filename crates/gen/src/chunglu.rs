//! Chung–Lu random graphs with power-law expected degrees.
//!
//! Endpoints are drawn independently with probability proportional to a
//! per-vertex weight `w_v ∝ (v + v0)^(-1/(γ-1))`, which yields a degree
//! distribution with tail exponent γ — the model behind the social-network
//! analogs (LJ, OK, TW, FR). Lower γ means heavier hubs.

use crate::parfill::fill_distinct;
use hep_ds::SplitMix64;
use hep_graph::EdgeList;

/// Generates a simple graph with `n` vertices, about `m` edges and degree
/// exponent `gamma` (typical social networks: 1.9–2.6).
///
/// The generator draws endpoint pairs until `m` *distinct* non-loop edges
/// exist or the attempt budget is exhausted (dense + heavy-tailed corner
/// cases), so the delivered edge count can fall slightly short for extreme
/// parameters; tests pin the tolerance. Pairs are drawn in parallel from
/// independently seeded chunks (see `parfill`), so the output is identical
/// at any `HEP_THREADS` setting.
#[expect(
    clippy::expect_used,
    reason = "the generator samples endpoints modulo n, so ids are in range"
)]
pub fn chung_lu(n: u32, m: u64, gamma: f64, seed: u64) -> EdgeList {
    assert!(n >= 2, "need at least two vertices");
    assert!(gamma > 1.0, "gamma must exceed 1");
    let mut rng = SplitMix64::new(seed);
    // Weights in decreasing order of vertex id; offset keeps w_0 finite.
    let alpha = 1.0 / (gamma - 1.0);
    let mut cumulative = Vec::with_capacity(n as usize);
    let mut sum = 0.0f64;
    for v in 0..n {
        sum += (v as f64 + 1.0).powf(-alpha);
        cumulative.push(sum);
    }
    let total = sum;
    // Shuffle the identity of the weight ranks so that vertex id carries no
    // structure (real social graphs have arbitrary ids).
    let mut rank_to_vertex: Vec<u32> = (0..n).collect();
    for i in (1..n as usize).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        rank_to_vertex.swap(i, j);
    }
    let endpoint = |rng: &mut SplitMix64| -> u32 {
        let x = rng.next_f64() * total;
        let rank = cumulative.partition_point(|&c| c < x).min(n as usize - 1);
        rank_to_vertex[rank]
    };
    let pairs = fill_distinct(&rng, m, false, |rng| {
        let u = endpoint(rng);
        let v = endpoint(rng);
        (u != v).then_some((u, v))
    });
    EdgeList::with_vertices(n, pairs).expect("ids in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_requested_edges() {
        let g = chung_lu(10_000, 50_000, 2.3, 1);
        assert_eq!(g.num_edges(), 50_000);
        assert_eq!(g.num_vertices, 10_000);
    }

    #[test]
    fn deterministic() {
        assert_eq!(chung_lu(500, 2000, 2.2, 9).edges, chung_lu(500, 2000, 2.2, 9).edges);
    }

    #[test]
    fn is_simple() {
        let g = chung_lu(1000, 8000, 2.0, 5);
        let mut h = g.clone();
        h.canonicalize();
        assert_eq!(g.num_edges(), h.num_edges());
    }

    #[test]
    fn has_power_law_skew() {
        let g = chung_lu(20_000, 100_000, 2.1, 2);
        let deg = g.degrees();
        let max = *deg.iter().max().unwrap() as f64;
        let mean = g.mean_degree();
        // A power-law graph has hubs far above the mean...
        assert!(max > 20.0 * mean, "max degree {max} vs mean {mean}");
        // ...and most vertices below the mean.
        let below = deg.iter().filter(|&&d| (d as f64) < mean).count();
        assert!(below * 2 > deg.len(), "no heavy tail: {below}/{}", deg.len());
    }

    #[test]
    fn lower_gamma_means_heavier_hubs() {
        let heavy = chung_lu(20_000, 100_000, 1.9, 3);
        let light = chung_lu(20_000, 100_000, 3.0, 3);
        let max = |g: &EdgeList| *g.degrees().iter().max().unwrap();
        assert!(max(&heavy) > 2 * max(&light));
    }
}
