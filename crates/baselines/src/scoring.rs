//! Stateful streaming scoring (the HDRF score function).
//!
//! HDRF [Petroni et al., CIKM'15] places an edge `(u, v)` on the partition
//! maximizing `C_REP(u, v, p) + λ · C_BAL(p)` where
//!
//! * `C_REP = g(u, p) + g(v, p)`, with `g(u, p) = 1 + (1 − θ(u))` when `u`
//!   already has a replica on `p` and 0 otherwise, and
//!   `θ(u) = δ(u) / (δ(u) + δ(v))` its normalized (partial) degree — i.e.
//!   the *lower*-degree endpoint contributes the larger reward, biasing cuts
//!   through high-degree vertices (§2 "Graph Type");
//! * `C_BAL = (maxsize − load(p)) / (ε + maxsize − minsize)`.
//!
//! [`ReplicaState::best_partition`] has three callers: HDRF, ADWISE and the
//! serial oracle of HEP's informed streaming phase (§3.3), which seeds the
//! state from NE++'s secondary sets and sizes through
//! [`ReplicaState::from_parts`] and scores with exact degrees instead of
//! streamed partial degrees. Phase 2's engine reproduces that oracle's
//! choices bit for bit.

use hep_ds::DenseBitset;
use hep_graph::{PartitionId, VertexId};

/// Small constant keeping `C_BAL` finite when all loads are equal.
pub const BAL_EPSILON: f64 = 1.0;

/// Per-partition replica sets and loads of a stateful streaming partitioner.
#[derive(Clone, Debug)]
pub struct ReplicaState {
    k: u32,
    replicas: Vec<DenseBitset>,
    loads: Vec<u64>,
}

impl ReplicaState {
    /// Empty state for `k` partitions over `num_vertices` ids.
    pub fn new(k: u32, num_vertices: u32) -> Self {
        ReplicaState {
            k,
            replicas: (0..k).map(|_| DenseBitset::new(num_vertices as usize)).collect(),
            loads: vec![0; k as usize],
        }
    }

    /// State seeded from an earlier partitioning phase: HEP hands NE++'s
    /// secondary sets and partition sizes to the streaming phase (§3.3),
    /// solving the "uninformed assignment problem" of plain streaming.
    pub fn from_parts(replicas: Vec<DenseBitset>, loads: Vec<u64>) -> Self {
        assert_eq!(replicas.len(), loads.len(), "one replica set per partition");
        assert!(!replicas.is_empty(), "need k >= 1");
        ReplicaState { k: replicas.len() as u32, replicas, loads }
    }

    /// Number of partitions.
    #[inline]
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Whether `v` has a replica on `p`.
    #[inline]
    pub fn is_replicated(&self, v: VertexId, p: PartitionId) -> bool {
        debug_assert!(p < self.k, "partition id {p} out of range (k = {})", self.k);
        self.replicas[p as usize].get(v)
    }

    /// Current edge count of `p`.
    #[inline]
    pub fn load(&self, p: PartitionId) -> u64 {
        debug_assert!(p < self.k, "partition id {p} out of range (k = {})", self.k);
        self.loads[p as usize]
    }

    /// Records the assignment of `(u, v)` to `p`. The load saturates
    /// instead of wrapping: when every partition sits at the cap,
    /// [`Self::best_partition`] still assigns to the least-loaded one, so
    /// loads keep growing past `cap` and a wrap near `u64::MAX` would
    /// silently reset the balance state.
    #[inline]
    pub fn assign(&mut self, u: VertexId, v: VertexId, p: PartitionId) {
        debug_assert!(p < self.k, "partition id {p} out of range (k = {})", self.k);
        self.replicas[p as usize].set(u);
        self.replicas[p as usize].set(v);
        self.loads[p as usize] = self.loads[p as usize].saturating_add(1);
    }

    /// `(min, max)` of the current loads.
    pub fn load_extremes(&self) -> (u64, u64) {
        #[expect(clippy::expect_used, reason = "constructors reject k == 0, so loads is non-empty")]
        let min = *self.loads.iter().min().expect("k >= 1");
        #[expect(clippy::expect_used, reason = "constructors reject k == 0, so loads is non-empty")]
        let max = *self.loads.iter().max().expect("k >= 1");
        (min, max)
    }

    /// Replica sets per partition (read access for metrics/seeding).
    pub fn replica_sets(&self) -> &[DenseBitset] {
        &self.replicas
    }

    /// Picks the best partition for `(u, v)` among those with
    /// `load < cap`, by HDRF score. Falls back to the least-loaded partition
    /// when every partition is at the cap. Ties break toward the lower
    /// partition id, making runs deterministic.
    pub fn best_partition(
        &self,
        u: VertexId,
        v: VertexId,
        deg_u: u64,
        deg_v: u64,
        lambda: f64,
        cap: u64,
    ) -> PartitionId {
        let (min_load, max_load) = self.load_extremes();
        let denom = BAL_EPSILON + (max_load - min_load) as f64;
        // θ normalized degrees; HDRF guards δ(u)+δ(v) > 0.
        let dsum = (deg_u + deg_v).max(1) as f64;
        let theta_u = deg_u as f64 / dsum;
        let theta_v = deg_v as f64 / dsum;
        let mut best: Option<(f64, PartitionId)> = None;
        for p in 0..self.k {
            if self.loads[p as usize] >= cap {
                continue;
            }
            let mut c_rep = 0.0;
            if self.is_replicated(u, p) {
                c_rep += 1.0 + (1.0 - theta_u);
            }
            if self.is_replicated(v, p) {
                c_rep += 1.0 + (1.0 - theta_v);
            }
            let c_bal = lambda * (max_load - self.loads[p as usize]) as f64 / denom;
            let score = c_rep + c_bal;
            if best.is_none_or(|(b, _)| score > b) {
                best = Some((score, p));
            }
        }
        match best {
            Some((_, p)) => p,
            // All partitions at the cap: place on the least loaded one.
            #[expect(
                clippy::expect_used,
                reason = "constructors reject k == 0, so the range is non-empty"
            )]
            None => (0..self.k).min_by_key(|&p| self.loads[p as usize]).expect("k >= 1"),
        }
    }
}

/// The hard per-partition capacity `⌈α · |E| / k⌉` of the balance
/// constraint (§2).
///
/// Computed in `f64` (as in the reference implementations), so the result is
/// exact only up to `2^53` edges; beyond that it rounds to the nearest
/// representable integer. The `f64 → u64` cast saturates at `u64::MAX`
/// rather than wrapping, so `num_edges = u64::MAX` with `alpha > 1` yields
/// an effectively-unbounded cap instead of a tiny wrapped one.
pub fn capacity(num_edges: u64, k: u32, alpha: f64) -> u64 {
    ((alpha * num_edges as f64) / k as f64).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// State over 10 ids with the given loads and `(v, p)` replicas, seeded
    /// the way HEP seeds its streaming phase.
    fn seeded(loads: Vec<u64>, replicas: &[(VertexId, PartitionId)]) -> ReplicaState {
        let mut sets: Vec<DenseBitset> = loads.iter().map(|_| DenseBitset::new(10)).collect();
        for &(v, p) in replicas {
            sets[p as usize].set(v);
        }
        ReplicaState::from_parts(sets, loads)
    }

    #[test]
    fn empty_state_prefers_lower_id_on_ties() {
        let s = ReplicaState::new(4, 10);
        assert_eq!(s.best_partition(0, 1, 1, 1, 1.0, 100), 0);
    }

    #[test]
    fn replicas_attract_edges() {
        let mut s = ReplicaState::new(4, 10);
        s.assign(0, 1, 2);
        // Edge (1, 5): partition 2 has a replica of 1 -> highest score.
        assert_eq!(s.best_partition(1, 5, 3, 1, 1.0, 100), 2);
    }

    #[test]
    fn both_replicas_beat_one() {
        let mut s = ReplicaState::new(4, 10);
        s.assign(0, 1, 2);
        s.assign(5, 6, 3);
        s.assign(0, 6, 1); // partition 1 has replicas of both 0 and 6
        assert_eq!(s.best_partition(0, 6, 2, 2, 1.0, 100), 1);
    }

    #[test]
    fn degree_weighting_prefers_low_degree_endpoint_partition() {
        // u=0 is low degree, v=1 high degree. Partition 0 holds v (high),
        // partition 1 holds u (low). HDRF: g rewards the LOW degree endpoint
        // more, so the edge should go where the low-degree endpoint lives.
        let s = seeded(vec![0, 0], &[(1, 0), (0, 1)]);
        let p = s.best_partition(0, 1, 1, 99, 0.0, 100);
        assert_eq!(p, 1);
    }

    #[test]
    fn balance_term_steers_to_light_partition() {
        let s = seeded(vec![50, 0], &[]);
        // No replicas anywhere: balance term decides.
        assert_eq!(s.best_partition(3, 4, 1, 1, 1.0, 1000), 1);
    }

    #[test]
    fn cap_excludes_full_partitions() {
        let mut s = ReplicaState::new(2, 10);
        s.assign(0, 1, 0); // partition 0 holds replicas but is now at cap 1
        let p = s.best_partition(0, 1, 1, 1, 1.0, 1);
        assert_eq!(p, 1, "partition 0 is at cap");
    }

    #[test]
    fn all_full_falls_back_to_least_loaded() {
        let s = seeded(vec![5, 3, 4], &[]);
        assert_eq!(s.best_partition(0, 1, 1, 1, 1.0, 2), 1);
    }

    #[test]
    fn capacity_formula() {
        assert_eq!(capacity(100, 4, 1.0), 25);
        assert_eq!(capacity(100, 3, 1.0), 34);
        assert_eq!(capacity(100, 4, 1.1), 28);
    }

    #[test]
    fn capacity_saturates_instead_of_wrapping_near_u64_max() {
        // alpha > 1 pushes the float product past u64::MAX; the cast must
        // saturate (effectively-unbounded cap), not wrap to something tiny.
        assert_eq!(capacity(u64::MAX, 1, 2.0), u64::MAX);
        assert_eq!(capacity(u64::MAX, 2, 4.0), u64::MAX);
        // Large but representable inputs stay monotone in |E|.
        assert!(capacity(1 << 60, 32, 1.05) > capacity(1 << 50, 32, 1.05));
    }

    #[test]
    fn loads_saturate_at_u64_max_instead_of_wrapping() {
        // When every partition is at the cap the fallback still assigns, so
        // loads legitimately grow past cap; near u64::MAX the increment must
        // saturate — a wrap would reset the balance state mid-stream.
        let mut s = seeded(vec![u64::MAX, 0], &[]);
        s.assign(0, 1, 0);
        assert_eq!(s.load(0), u64::MAX);
        // Scoring at saturated loads must not panic (max - min stays in range)
        // and still steers toward the light partition.
        assert_eq!(s.best_partition(2, 3, 1, 1, 1.0, u64::MAX), 1);
    }

    #[test]
    fn load_extremes_track_assignments() {
        let mut s = ReplicaState::new(3, 10);
        s.assign(0, 1, 1);
        s.assign(1, 2, 1);
        s.assign(3, 4, 2);
        assert_eq!(s.load_extremes(), (0, 2));
        assert!(s.is_replicated(1, 1) && !s.is_replicated(1, 2));
    }
}
