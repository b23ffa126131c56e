//! Degree statistics and the high/low-degree split of §3.1.
//!
//! The threshold factor τ separates high-degree vertices `V_h` from
//! low-degree vertices `V_l`: `v ∈ V_h iff d(v) > τ * mean_degree`. Setting τ
//! controls HEP's memory/quality trade-off (§3.1, §4.4).

use crate::edgelist::EdgeList;
use hep_ds::DenseBitset;

/// The §3.1 low-degree predicate, and the only form of the threshold:
/// `v` is low-degree iff `d(v) <= τ · mean_degree` (equivalently high iff
/// `d(v) > τ · mean_degree`). [`DegreeStats`] and the τ planner's
/// per-candidate column-entry sum both call it, so they agree at integral
/// `τ·mean` and at τ too large for any integer cast. A NaN threshold (τ = ∞
/// on an edgeless graph) classifies nothing low.
#[inline]
pub fn is_low_degree(d: u32, tau: f64, mean_degree: f64) -> bool {
    (d as f64) <= tau * mean_degree
}

/// Degree statistics of a graph together with a τ classification.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Undirected degree per vertex.
    pub degrees: Vec<u32>,
    /// Mean degree `2|E| / |V|`.
    pub mean_degree: f64,
    /// The threshold factor used for the classification.
    pub tau: f64,
    /// Membership bitset of `V_h` (`d(v) > tau * mean_degree`).
    pub high: DenseBitset,
    /// `|V_h|`.
    pub num_high: u32,
}

impl DegreeStats {
    /// Computes degrees and classifies vertices with threshold factor `tau`.
    pub fn new(graph: &EdgeList, tau: f64) -> Self {
        Self::from_degrees(graph.degrees(), graph.mean_degree(), tau)
    }

    /// Classification from a precomputed degree array.
    pub fn from_degrees(degrees: Vec<u32>, mean_degree: f64, tau: f64) -> Self {
        let mut high = DenseBitset::new(degrees.len());
        let mut num_high = 0u32;
        for (v, &d) in degrees.iter().enumerate() {
            if !is_low_degree(d, tau, mean_degree) {
                high.set(v as u32);
                num_high += 1;
            }
        }
        DegreeStats { degrees, mean_degree, tau, high, num_high }
    }

    /// Whether `v` is high-degree under this classification.
    #[inline]
    pub fn is_high(&self, v: u32) -> bool {
        self.high.get(v)
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: u32) -> u32 {
        debug_assert!((v as usize) < self.degrees.len(), "vertex id {v} out of range");
        self.degrees[v as usize]
    }

    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> u32 {
        self.degrees.len() as u32
    }

    /// Sum over low-degree vertices of their degree: the number of column
    /// array entries of the pruned CSR (§4.2 item 2). This is the quantity
    /// the τ planner minimizes against a memory budget (§4.4).
    pub fn low_degree_adjacency_entries(&self) -> u64 {
        self.degrees
            .iter()
            .enumerate()
            .filter(|&(v, _)| !self.high.get(v as u32))
            .map(|(_, &d)| d as u64)
            .sum()
    }
}

/// The bucket index of a degree under the Figure 2 scheme
/// (`[1,10] -> 0`, `[11,100] -> 1`, ...). Degree 0 maps to bucket 0.
#[inline]
pub fn degree_bucket(d: u32) -> usize {
    if d <= 10 {
        0
    } else {
        ((d as f64).log10().ceil() as usize).saturating_sub(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: u32) -> EdgeList {
        EdgeList::from_pairs((1..n).map(|i| (0u32, i)))
    }

    #[test]
    fn classification_matches_threshold() {
        // Star with 9 leaves: deg(0)=9, leaves 1. mean = 18/10 = 1.8.
        let g = star(10);
        let s = DegreeStats::new(&g, 2.0); // threshold 3.6
        assert!(s.is_high(0));
        assert!(!s.is_high(1));
        assert_eq!(s.num_high, 1);
    }

    #[test]
    fn tau_monotonicity_fewer_high_vertices() {
        let g = EdgeList::from_pairs([(0, 1), (0, 2), (0, 3), (1, 2), (4, 5)]);
        let lo = DegreeStats::new(&g, 0.5);
        let hi = DegreeStats::new(&g, 10.0);
        assert!(lo.num_high >= hi.num_high);
        assert_eq!(hi.num_high, 0);
    }

    #[test]
    fn paper_figure4_example() {
        // Figure 4: 9 vertices, 11 undirected edges, mean degree 2.4(4);
        // with tau = 1.5 vertices of degree >= 4 are high (v4, v5).
        let g = EdgeList::from_pairs([
            (0, 5),
            (0, 7),
            (1, 4),
            (2, 5),
            (3, 4),
            (4, 1),
            (4, 3),
            (4, 5),
            (5, 8),
            (6, 5),
            (7, 8),
        ]);
        // Re-derive: ensure the example's degrees match the figure.
        let s = DegreeStats::new(&g, 1.5);
        assert!((s.mean_degree - 22.0 / 9.0).abs() < 1e-9);
        assert!(s.is_high(4), "v4 has degree {}", s.degree(4));
        assert!(s.is_high(5));
        for v in [0u32, 1, 2, 3, 6, 7, 8] {
            assert!(!s.is_high(v), "v{v} should be low-degree");
        }
    }

    #[test]
    fn low_degree_entries_shrink_with_lower_tau() {
        let g = star(100);
        let all_low = DegreeStats::new(&g, 1000.0);
        assert_eq!(all_low.low_degree_adjacency_entries(), 2 * 99);
        let hub_high = DegreeStats::new(&g, 2.0);
        assert_eq!(hub_high.low_degree_adjacency_entries(), 99);
    }

    #[test]
    fn shared_predicate_boundary_values() {
        // Integral τ·mean: d == τ·mean must be LOW (the paper's "high iff
        // d > τ·mean"), in the predicate and the bitset classification
        // alike.
        assert!(is_low_degree(6, 3.0, 2.0)); // threshold exactly 6
        assert!(!is_low_degree(7, 3.0, 2.0));
        // Huge τ admits every degree.
        assert!(is_low_degree(u32::MAX, 1e300, 2.0));
        // Degenerate thresholds: NaN or negative admit nothing.
        assert!(!is_low_degree(0, f64::NAN, 2.0));
        assert!(!is_low_degree(0, 1.0, -3.0));
    }

    proptest::proptest! {
        /// The predicate and the [`DegreeStats`] bitset classification
        /// agree on every degree — including integral τ·mean and τ far past
        /// any integer cast range.
        #[test]
        fn predicate_and_stats_agree(
            degrees in proptest::collection::vec(0u32..500, 1..120),
            tau in proptest::prelude::prop_oneof![
                proptest::prelude::Just(0.25),
                proptest::prelude::Just(1.0),
                proptest::prelude::Just(1.5),
                proptest::prelude::Just(3.0),   // integral τ·mean when mean is integral
                proptest::prelude::Just(100.0),
                proptest::prelude::Just(1e18),  // saturating regime
                proptest::prelude::Just(1e300), // far past any cast range
            ],
            mean in proptest::prelude::prop_oneof![
                proptest::prelude::Just(0.0),
                proptest::prelude::Just(2.0),   // τ·mean integral for integral τ
                proptest::prelude::Just(7.3),
            ],
        ) {
            let stats = DegreeStats::from_degrees(degrees.clone(), mean, tau);
            for (v, &d) in degrees.iter().enumerate() {
                proptest::prop_assert_eq!(is_low_degree(d, tau, mean), !stats.is_high(v as u32),
                    "predicate vs DegreeStats at d={}, tau={}, mean={}", d, tau, mean);
            }
        }
    }

    #[test]
    fn bucket_function() {
        assert_eq!(degree_bucket(1), 0);
        assert_eq!(degree_bucket(10), 0);
        assert_eq!(degree_bucket(11), 1);
        assert_eq!(degree_bucket(100), 1);
        assert_eq!(degree_bucket(101), 2);
        assert_eq!(degree_bucket(1000), 2);
        assert_eq!(degree_bucket(10001), 4);
    }
}
