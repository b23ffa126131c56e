//! Erdős–Rényi G(n, m): m distinct uniform edges.
//!
//! Used for the BR (brain) analog — a dense graph with low degree skew —
//! and as a control in tests (no hubs, so τ-pruning removes little).

use crate::parfill::fill_distinct;
use hep_ds::SplitMix64;
use hep_graph::EdgeList;

/// Generates a simple undirected G(n, m) graph. Panics if `m` exceeds the
/// number of possible edges. Pairs are drawn in parallel from independently
/// seeded chunks with an unbounded serial top-up (termination is guaranteed
/// because `m` distinct edges always exist), so exactly `m` edges are
/// delivered and the output is identical at any `HEP_THREADS` setting.
#[expect(
    clippy::expect_used,
    reason = "the generator samples endpoints modulo n, so ids are in range"
)]
pub fn erdos_renyi(n: u32, m: u64, seed: u64) -> EdgeList {
    let possible = n as u64 * (n as u64 - 1) / 2;
    assert!(m <= possible, "G({n}, {m}) impossible: only {possible} edges exist");
    let rng = SplitMix64::new(seed);
    let pairs = fill_distinct(&rng, m, true, |rng| {
        let u = rng.next_below(n as u64) as u32;
        let v = rng.next_below(n as u64) as u32;
        (u != v).then_some((u, v))
    });
    EdgeList::with_vertices(n, pairs).expect("ids in range by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_edge_count_and_simplicity() {
        let g = erdos_renyi(100, 500, 42);
        assert_eq!(g.num_edges(), 500);
        assert_eq!(g.num_vertices, 100);
        let mut h = g.clone();
        h.canonicalize();
        assert_eq!(h.num_edges(), 500, "must already be simple");
    }

    #[test]
    fn deterministic() {
        assert_eq!(erdos_renyi(50, 100, 7).edges, erdos_renyi(50, 100, 7).edges);
    }

    #[test]
    fn different_seeds_differ() {
        assert_ne!(erdos_renyi(50, 100, 7).edges, erdos_renyi(50, 100, 8).edges);
    }

    #[test]
    fn near_complete_graph_terminates() {
        let g = erdos_renyi(20, 190, 1); // complete K20
        assert_eq!(g.num_edges(), 190);
    }

    #[test]
    fn degrees_are_concentrated() {
        // ER has no hubs: max degree stays within a small factor of the mean.
        let g = erdos_renyi(1000, 10_000, 3);
        let deg = g.degrees();
        let max = *deg.iter().max().unwrap() as f64;
        assert!(max < 4.0 * g.mean_degree(), "max {max} vs mean {}", g.mean_degree());
    }

    #[test]
    #[should_panic(expected = "impossible")]
    fn rejects_impossible_m() {
        erdos_renyi(3, 4, 0);
    }
}
