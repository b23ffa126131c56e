//! Sub-partitioned parallel NE++ — HEP's phase 1 on the `hep-par` pool.
//!
//! Serial NE++ (§3.2) grows one partition at a time, which is inherently
//! sequential: partition `i + 1` may only start once partition `i` is full.
//! Following the *Scalable Edge Partitioning* idea (SNE, Schlag et al.),
//! this module expands `s = k · split_factor` **sub-partitions** instead and
//! packs them back into the `k` final parts, so the expansion work is
//! parallel while the output still has `k` balanced parts:
//!
//! 1. **Edge-id view.** The (unmutated) [`PrunedCsr`] is re-indexed into a
//!    per-low-vertex incidence list of in-memory *edge ids* — high-degree
//!    vertices keep no lists (they are never expanded, exactly as in §3.2.1)
//!    and h2h edges are absent (they belong to the streaming phase).
//! 2. **BSP expansion rounds.** Every round, each active sub-partition
//!    resumes its neighborhood expansion against a **frozen snapshot** of
//!    the global claimed-edge bitset, proposing a bounded batch of edge
//!    claims; a serial merge grants proposals in sub-partition order
//!    (lowest id wins a conflict, losers give the edge back). This is the
//!    same frozen-read / lowest-wins discipline as the DNE rewrite, so the
//!    result is **bit-identical at any thread count**: proposals depend
//!    only on round-start state, and the merge order is fixed.
//! 3. **Pack stage (serial).** Sub-partitions are packed into the `k` final
//!    parts largest-first, each to the part with the biggest secondary-set
//!    overlap among those with room under the *serial* balanced capacity
//!    `⌈|E \ E_h2h| / k⌉`-style caps; sub-partitions that fit nowhere spill
//!    edge-by-edge into the remaining capacity in part order, so the final
//!    caps hold **exactly** as in the serial phase.
//!
//! Exactly-once holds structurally: an edge is emitted when its id is
//! granted (the claimed bitset admits every id once) or by the leftover
//! sweep over never-claimed ids, and the pack stage only moves granted ids
//! between containers. The replication sets handed to the streaming phase
//! are the unions of the packed sub-partitions' vertex covers (word-level
//! [`DenseBitset::union_with`]), which cover every assigned endpoint.
//!
//! The trade-off mirrors SNE's: a little replication-factor headroom and
//! extra memory (the edge-id view) buy a parallel phase 1. `split_factor =
//! 1` callers should use the serial [`crate::nepp::run_nepp`], which this
//! module's dispatch (see [`crate::hep::Hep`]) reproduces bit-for-bit.

use crate::config::HepConfig;
use crate::nepp::{balanced_caps, NeppResult, NeppStats};
use crate::refine::refine_packed_parts;
use hep_ds::{DenseBitset, FxHashMap, IndexedMinHeap};
use hep_graph::{AssignSink, Edge, PartitionId, PrunedCsr, VertexId};
use std::sync::Mutex;

/// Largest sub-partition count for which the pack stage builds the dense
/// pairwise overlap matrix (s^2 u32 cells + s^2 bitset intersections). At
/// the bound the matrix is 16 MiB; beyond it the pack scores against part
/// covers instead.
pub(crate) const MATRIX_MAX_SUBS: u64 = 2048;

/// The in-memory edge set as an edge-id incidence structure over the
/// low-degree vertices. Shared with [`crate::refine`], which walks the
/// same incidence lists to enumerate vertex bundles.
pub(crate) struct SubGraph {
    /// Edge id → the edge as the sink should see it (same orientation the
    /// serial phase would emit).
    pub(crate) edges: Vec<Edge>,
    /// Incidence bounds per vertex (`index[v]..index[v + 1]` in `adj`);
    /// high-degree vertices own empty ranges.
    pub(crate) index: Vec<u64>,
    /// Incident in-memory edge ids. A low–low edge appears under both
    /// endpoints, a low–high edge under its low endpoint only.
    pub(crate) adj: Vec<u32>,
}

impl SubGraph {
    /// Re-indexes the pruned CSR. Edge ids follow the CSR enumeration order
    /// (out-lists, then high-source in-entries, per vertex), which depends
    /// only on the CSR — not on thread count.
    pub(crate) fn build(csr: &PrunedCsr) -> SubGraph {
        let n = csr.num_vertices();
        let mut index = vec![0u64; n as usize + 1];
        for v in 0..n {
            let d = if csr.is_high(v) { 0 } else { csr.valid_degree(v) };
            index[v as usize + 1] = index[v as usize] + d as u64;
        }
        debug_assert!(index.len() == n as usize + 1, "prefix-sum array has n + 1 entries");
        let total = index[n as usize] as usize;
        let mut adj = vec![0u32; total];
        let mut cursor: Vec<u64> = index[..n as usize].to_vec();
        debug_assert!(
            adj.len() == total && cursor.len() == n as usize,
            "insertion cursors stay within the prefix-sum bounds"
        );
        let mut edges: Vec<Edge> = Vec::with_capacity(csr.num_inmem_edges() as usize);
        for v in 0..n {
            if csr.is_high(v) {
                continue;
            }
            for &u in csr.out_neighbors(v) {
                let id = edges.len() as u32;
                edges.push(Edge::new(v, u));
                adj[cursor[v as usize] as usize] = id;
                cursor[v as usize] += 1;
                if !csr.is_high(u) {
                    adj[cursor[u as usize] as usize] = id;
                    cursor[u as usize] += 1;
                }
            }
            for &u in csr.in_neighbors(v) {
                if csr.is_high(u) {
                    let id = edges.len() as u32;
                    edges.push(Edge::new(u, v));
                    adj[cursor[v as usize] as usize] = id;
                    cursor[v as usize] += 1;
                }
            }
        }
        debug_assert_eq!(edges.len() as u64, csr.num_inmem_edges());
        SubGraph { edges, index, adj }
    }

    #[inline]
    pub(crate) fn num_vertices(&self) -> u32 {
        (self.index.len() - 1) as u32
    }

    /// Incident `(edge id, other endpoint)` pairs of `v`.
    #[inline]
    pub(crate) fn incident(&self, v: VertexId) -> impl Iterator<Item = (u32, VertexId)> + '_ {
        let (a, b) = (self.index[v as usize] as usize, self.index[v as usize + 1] as usize);
        self.adj[a..b].iter().map(move |&id| {
            let e = self.edges[id as usize];
            (id, if e.src == v { e.dst } else { e.src })
        })
    }
}

/// Resumable per-sub-partition expansion state, carried across rounds.
struct SubExpansion {
    /// Low vertices whose neighborhood this sub-partition fully claimed.
    core: DenseBitset,
    /// Members (core ∪ secondary, including passively-entered high-degree
    /// vertices).
    in_s: DenseBitset,
    /// Frontier ordered by external degree (arg-min expansion). Holds low
    /// vertices only; high-degree vertices are never expanded (§3.2.1).
    heap: IndexedMinHeap,
    /// Edges currently credited to this sub-partition (proposals may be
    /// revoked by the merge).
    size: u64,
    /// Vertices probed by the seed scan (monotone, as in DNE: claims and
    /// membership only grow, so unsuitability is permanent).
    probed: u32,
    /// Seed-scan start, staggered so expansions begin in distinct regions.
    cursor: u32,
    /// Round-local tentative claims, layered over the snapshot. Kept
    /// allocated across rounds (cleared via the proposal list) so member
    /// checks are a bitset probe, not a hash lookup.
    overlay: DenseBitset,
    /// Set when both the frontier and the seed scan are exhausted.
    done: bool,
    /// Re-seeding events (the serial phase's `initializations` analog).
    seeds: u64,
}

impl SubExpansion {
    fn new(p: u32, s: u32, n: u32, m: usize) -> SubExpansion {
        SubExpansion {
            core: DenseBitset::new(n as usize),
            in_s: DenseBitset::new(n as usize),
            heap: IndexedMinHeap::new(n as usize),
            size: 0,
            probed: 0,
            cursor: if n == 0 { 0 } else { (p as u64 * n as u64 / s as u64) as u32 },
            overlay: DenseBitset::new(m),
            done: false,
            seeds: 0,
        }
    }

    /// Expands until `batch` new edges are proposed, `cap` is reached, or
    /// nothing claimable remains, against the frozen `claimed` snapshot.
    /// `ungranted_deg[v]` counts v's incident in-memory edges not yet
    /// granted to anyone (maintained by the serial merge), making each seed
    /// probe O(1) instead of an adjacency scan.
    fn expand_round(
        &mut self,
        g: &SubGraph,
        high: &DenseBitset,
        claimed: &DenseBitset,
        ungranted_deg: &[u32],
        cap: u64,
        batch: usize,
    ) -> Vec<u32> {
        let n = g.num_vertices();
        let mut proposals: Vec<u32> = Vec::new();
        while self.size < cap && proposals.len() < batch {
            let v = match self.heap.pop_min() {
                Some((_, v)) => v,
                None => {
                    let mut found = None;
                    while self.probed < n {
                        let v = (self.cursor.wrapping_add(self.probed)) % n;
                        self.probed += 1;
                        if high.get(v) || self.in_s.get(v) {
                            continue;
                        }
                        // The counter ignores this round's overlay: a seed
                        // whose remaining edges are all tentatively claimed
                        // this round is a harmless no-op entry.
                        if ungranted_deg[v as usize] > 0 {
                            found = Some(v);
                            break;
                        }
                    }
                    match found {
                        Some(seed) => {
                            self.seeds += 1;
                            // Seeds pass through S first, as in the serial
                            // phase: their edges into existing members are
                            // proposed by the entry scan.
                            self.move_to_secondary(seed, g, claimed, &mut proposals);
                            match self.heap.pop_min() {
                                Some((_, v)) => v,
                                None => {
                                    self.done = true;
                                    break;
                                }
                            }
                        }
                        None => {
                            self.done = true;
                            break;
                        }
                    }
                }
            };
            // Core move of low vertex v.
            self.core.set(v);
            let mut externals: Vec<VertexId> = Vec::new();
            for (id, u) in g.incident(v) {
                if claimed.get(id) || self.overlay.get(id) {
                    continue;
                }
                if high.get(u) {
                    // The edge to a high-degree vertex is claimable from v's
                    // side only (u has no incidence list and is never
                    // scanned): propose it now and let u enter S passively —
                    // "high-degree vertices are always in the secondary set".
                    self.in_s.set(u);
                    self.overlay.set(id);
                    proposals.push(id);
                    self.size += 1;
                } else if self.in_s.get(u) {
                    // Low member: the edge was proposed when the later of
                    // (u, v) entered S, or claimed by another sub-partition.
                } else {
                    externals.push(u);
                }
            }
            for u in externals {
                self.move_to_secondary(u, g, claimed, &mut proposals);
            }
        }
        // Reset the overlay for the next round: only the bits this round
        // set are cleared, so the reset is O(|proposals|).
        for &id in &proposals {
            self.overlay.clear(id);
        }
        proposals
    }

    /// Moves low vertex `v` into the secondary set: proposes every
    /// unclaimed incident edge whose other endpoint is already a member,
    /// and enters the frontier with the external degree.
    fn move_to_secondary(
        &mut self,
        v: VertexId,
        g: &SubGraph,
        claimed: &DenseBitset,
        proposals: &mut Vec<u32>,
    ) {
        if self.in_s.get(v) {
            return;
        }
        self.in_s.set(v);
        let mut dext = 0u64;
        let (a, b) = (g.index[v as usize] as usize, g.index[v as usize + 1] as usize);
        debug_assert!(a <= b && b <= g.adj.len(), "index is a prefix sum over adj");
        for &id in &g.adj[a..b] {
            if claimed.get(id) || self.overlay.get(id) {
                continue;
            }
            let e = g.edges[id as usize];
            let u = if e.src == v { e.dst } else { e.src };
            if self.in_s.get(u) {
                self.overlay.set(id);
                proposals.push(id);
                self.size += 1;
                self.heap.decrease_key_by(u, 1);
            } else {
                dext += 1;
            }
        }
        self.heap.insert(v, dext);
    }
}

/// Decides the winners of the round's *contested* edge ids, hub-aware: a
/// contested id incident to a hub (round-start ungranted degree ≥
/// `hub_min_deg`) goes to the lowest sub-partition that proposed *any* of
/// that hub's contested edges this round (when it proposed this id too),
/// so a hub's conflicted edges concentrate on one sub-partition; other
/// contested ids keep the plain lowest-proposer-wins rule. Uncontested
/// ids are absent from the map — the caller's first-come grant handles
/// them without the per-id bookkeeping this function needs. Inputs are
/// the round's frozen proposal set and the round-start degree snapshot,
/// so the decision is a pure function of round state —
/// thread-count-independent like the rest of the merge.
fn hub_aware_winners(
    proposals: &[(u32, Vec<u32>)],
    g: &SubGraph,
    ungranted_deg: &[u32],
    hub_min_deg: u32,
) -> FxHashMap<u32, u32> {
    // Pass 1: first proposer + proposer count per id. Per-id proposer
    // lists are only materialized for the contested minority below.
    let mut info: FxHashMap<u32, (u32, u32)> = FxHashMap::default();
    for (p, ids) in proposals {
        for &id in ids {
            info.entry(id).and_modify(|e| e.1 += 1).or_insert((*p, 1));
        }
    }
    // Pass 2, contested ids only: proposer lists, and the first (lowest)
    // sub-partition proposing a contested edge of each hub — `proposals`
    // is ordered by sub-partition id, so first insert wins.
    let mut contenders: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
    let mut hub_owner: FxHashMap<VertexId, u32> = FxHashMap::default();
    for (p, ids) in proposals {
        for &id in ids {
            if info[&id].1 < 2 {
                continue;
            }
            contenders.entry(id).or_default().push(*p);
            let e = g.edges[id as usize];
            for v in [e.src, e.dst] {
                if ungranted_deg[v as usize] >= hub_min_deg {
                    hub_owner.entry(v).or_insert(*p);
                }
            }
        }
    }
    let mut winners = FxHashMap::default();
    // Each id's winner is a pure function of its own entry, so hash-order
    // iteration would already be output-invariant — but iterating the map
    // directly is exactly the construct the determinism lint (HL001)
    // bans, because a future edit could couple iterations through shared
    // state. Drain into id order instead: cheap (contested ids are a
    // minority) and structurally order-independent.
    // hep-lint: allow(HL001) -- drained into a Vec and sorted by id on the next line
    let mut contended: Vec<(u32, Vec<u32>)> = contenders.into_iter().collect();
    contended.sort_unstable_by_key(|&(id, _)| id);
    for (id, subs) in &contended {
        let mut winner = subs[0]; // lowest proposer: subs is in ascending p order
        let e = g.edges[*id as usize];
        // Side with the heavier hub decides; ties fall to the lower
        // vertex id, then to the plain lowest-proposer rule.
        let mut endpoints = [e.src, e.dst];
        endpoints.sort_unstable_by_key(|&v| (std::cmp::Reverse(ungranted_deg[v as usize]), v));
        for v in endpoints {
            if let Some(&owner) = hub_owner.get(&v) {
                if subs.contains(&owner) {
                    winner = owner;
                    break;
                }
            }
        }
        winners.insert(*id, winner);
    }
    winners
}

/// Runs the sub-partitioned parallel NE++ over a pruned CSR, emitting every
/// in-memory edge into `sink` exactly once. The final `k` parts respect the
/// serial balanced capacity bounds exactly; see the module docs for the
/// determinism and packing arguments.
pub fn run_nepp_par<S: AssignSink + ?Sized>(
    csr: PrunedCsr,
    k: u32,
    config: &HepConfig,
    sink: &mut S,
) -> NeppResult {
    let n = csr.num_vertices();
    let inmem = csr.num_inmem_edges();
    let s = k.saturating_mul(config.split_factor.max(1));
    let g = SubGraph::build(&csr);
    let m = g.edges.len();
    let high = &csr.stats().high;
    // Balanced sub-partition caps summing to exactly |E \ E_h2h|.
    let sub_caps = balanced_caps(inmem, s);
    // Proposal batch per sub-partition per round: a function of the input
    // only, so the round structure (and output) is thread-independent.
    // Small relative to the sub cap, so racing expansions observe each
    // other's claims after a fraction of their growth — large batches make
    // round-1 expansions mutually blind, which costs replication factor.
    let batch = ((inmem / s as u64) / 32).clamp(64, 65_536) as usize;
    let pool = hep_par::Pool::current();
    // The refinement knob also turns on hub-aware conflict resolution in
    // the merge below (both only change the *split* path, and both are off
    // at `refine_passes = 0`, which reproduces the unrefined output
    // bit-for-bit). A vertex counts as a hub while its ungranted incident
    // degree is still above this bound; conflicts on its edges then stop
    // fragmenting it across sub-partitions.
    let refine_passes = config.refine_passes;
    let hub_min_deg = if n == 0 {
        u32::MAX
    } else {
        ((2 * g.adj.len() as u64 / n as u64).max(8)).min(u32::MAX as u64) as u32
    };

    let mut claimed = DenseBitset::new(m);
    let states: Vec<Mutex<SubExpansion>> =
        (0..s).map(|p| Mutex::new(SubExpansion::new(p, s, n, m))).collect();
    let mut granted: Vec<Vec<u32>> = vec![Vec::new(); s as usize];
    let mut granted_total = 0u64;
    // Per-vertex count of incident in-memory edges not yet granted; the
    // merge decrements it, the seed scans read it (O(1) per probe).
    let mut ungranted_deg: Vec<u32> =
        (0..n as usize).map(|v| (g.index[v + 1] - g.index[v]) as u32).collect();
    // Two capping regimes, both input-deterministic: first every
    // sub-partition grows to its balanced cap; once that stalls, caps are
    // lifted and the still-live expansions keep growing *their own regions*
    // until every in-memory edge is claimed. The uncapped phase replaces a
    // locality-blind leftover sweep: coverage is guaranteed because a
    // vertex is only permanently skipped by a seed scan when its incident
    // edges were all claimed, and an unclaimed edge between two members of
    // the same sub-partition is proposed by the later entry's scan.
    'phases: for cap_phase in [true, false] {
        loop {
            if granted_total == m as u64 {
                break 'phases; // every in-memory edge is claimed
            }
            let active: Vec<u32> = (0..s)
                .filter(|&p| {
                    let st = hep_ds::sync::lock(&states[p as usize]);
                    !st.done && (!cap_phase || st.size < sub_caps[p as usize])
                })
                .collect();
            if active.is_empty() {
                break;
            }
            // Expansion round: every active sub-partition proposes against
            // the frozen snapshot, concurrently.
            let (claimed_ref, g_ref, states_ref) = (&claimed, &g, &states);
            let deg_ref = &ungranted_deg;
            let proposals: Vec<(u32, Vec<u32>)> = pool.par_map(active.len(), |i| {
                let p = active[i];
                debug_assert!(
                    p < s && (p as usize) < sub_caps.len(),
                    "active holds sub-partition ids below s"
                );
                let cap = if cap_phase { sub_caps[p as usize] } else { u64::MAX };
                let mut st = hep_ds::sync::lock(&states_ref[p as usize]);
                (p, st.expand_round(g_ref, high, claimed_ref, deg_ref, cap, batch))
            });
            // Serial merge in sub-partition order: lowest id wins a
            // conflict; losers give the edge back (size compensation).
            // With refinement on, conflicts on edges incident to a hub
            // (high-ungranted-degree vertex) are instead awarded to the
            // lowest sub-partition claiming *any* of that hub's contested
            // edges this round, so the hub's edges concentrate instead of
            // fragmenting across sub-partitions. The decision uses only
            // the round's proposal set and the round-start degree
            // snapshot, so it is as thread-independent as the plain rule.
            let decided: Option<FxHashMap<u32, u32>> = (refine_passes > 0)
                .then(|| hub_aware_winners(&proposals, &g, &ungranted_deg, hub_min_deg));
            let mut any = false;
            for (p, ids) in proposals {
                for id in ids {
                    // Contested ids follow the hub-aware winners map;
                    // uncontested ids (absent from it) and the plain path
                    // use first-come-wins against the claimed bitset.
                    let wins = match &decided {
                        Some(winners) => {
                            winners.get(&id).map_or_else(|| !claimed.get(id), |w| *w == p)
                        }
                        None => !claimed.get(id),
                    };
                    if wins {
                        claimed.set(id);
                        granted[p as usize].push(id);
                        granted_total += 1;
                        let e = g.edges[id as usize];
                        debug_assert!(
                            (e.src as usize) < ungranted_deg.len()
                                && (e.dst as usize) < ungranted_deg.len(),
                            "edge endpoints are vertex ids below n"
                        );
                        ungranted_deg[e.src as usize] =
                            ungranted_deg[e.src as usize].saturating_sub(1);
                        ungranted_deg[e.dst as usize] =
                            ungranted_deg[e.dst as usize].saturating_sub(1);
                        any = true;
                    } else {
                        hep_ds::sync::lock(&states[p as usize]).size -= 1;
                    }
                }
            }
            if !any {
                break;
            }
        }
    }
    let states: Vec<SubExpansion> = states.into_iter().map(hep_ds::sync::into_inner).collect();

    // Safety net (unreachable in practice, see the coverage argument
    // above): any id the expansions never claimed joins the least-loaded
    // sub-partition, deterministically.
    let mut sub_sizes: Vec<u64> = granted.iter().map(|ids| ids.len() as u64).collect();
    for id in 0..m as u32 {
        if !claimed.get(id) {
            // hep-lint: allow(HL007) -- split() clamps s to at least 1, so the range is non-empty
            let p = (0..s).min_by_key(|&p| sub_sizes[p as usize]).expect("s >= 1");
            sub_sizes[p as usize] += 1;
            granted[p as usize].push(id);
        }
    }
    debug_assert_eq!(sub_sizes.iter().sum::<u64>(), inmem);

    // ---- Pack stage (serial) ----
    // hep-lint: allow(HL002) -- phase timing lands in PhaseTimings for reports; it never feeds an assignment decision
    let pack_start = std::time::Instant::now();
    // Vertex cover per sub-partition, from its granted edges (tight: only
    // endpoints of edges it actually owns).
    let granted_ref = &granted;
    let g_ref = &g;
    let verts: Vec<DenseBitset> = pool.par_map(s as usize, |p| {
        let mut b = DenseBitset::new(n as usize);
        for &id in &granted_ref[p] {
            let e = g_ref.edges[id as usize];
            b.set(e.src);
            b.set(e.dst);
        }
        b
    });
    // Pairwise boundary overlaps between sub-partition vertex covers: the
    // packing signal. Two expansions that raced for the same region share
    // exactly the vertices on their mutual boundary, so merging
    // high-overlap sub-partitions re-internalizes that boundary. The dense
    // s x s matrix is only built while it is affordable; past the bound the
    // pack falls back to scoring against incrementally-maintained part
    // covers (no matrix, no refinement sweeps) so extreme `k *
    // split_factor` products degrade in quality, not in memory.
    let use_matrix = (s as u64) <= MATRIX_MAX_SUBS;
    let verts_ref = &verts;
    let overlap: Vec<Vec<u32>> =
        if use_matrix {
            pool.par_map(s as usize, |i| {
                (0..s as usize)
                    .map(|j| {
                        if j == i {
                            0
                        } else {
                            verts_ref[i].intersection_count(&verts_ref[j]) as u32
                        }
                    })
                    .collect()
            })
        } else {
            Vec::new()
        };
    // Final caps: the serial phase's balanced rounding.
    let caps = balanced_caps(inmem, k);
    let mut order: Vec<u32> = (0..s).collect();
    order.sort_by_key(|&p| (std::cmp::Reverse(sub_sizes[p as usize]), p));
    let mut part_sizes = vec![0u64; k as usize];
    let mut packed: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
    let mut part_of: Vec<Option<u32>> = vec![None; s as usize];
    let mut spilled: Vec<u32> = Vec::new();
    // Fallback scoring state: the union cover of each part so far.
    let mut part_covers: Vec<DenseBitset> = if use_matrix {
        Vec::new()
    } else {
        (0..k).map(|_| DenseBitset::new(n as usize)).collect()
    };
    let score_of = |sp: u32, members: &[u32]| -> u64 {
        members.iter().map(|&t| overlap[sp as usize][t as usize] as u64).sum()
    };
    for &sp in &order {
        let sz = sub_sizes[sp as usize];
        if sz == 0 {
            continue;
        }
        // Best feasible part by (max summed overlap with its members, then
        // least loaded, then lowest id).
        let mut chosen: Option<(u64, u64, u32)> = None;
        for p in 0..k {
            if part_sizes[p as usize] + sz > caps[p as usize] {
                continue;
            }
            let ov = if use_matrix {
                score_of(sp, &packed[p as usize])
            } else {
                part_covers[p as usize].intersection_count(&verts[sp as usize]) as u64
            };
            let better = match chosen {
                None => true,
                Some((bo, bs, _)) => ov > bo || (ov == bo && part_sizes[p as usize] < bs),
            };
            if better {
                chosen = Some((ov, part_sizes[p as usize], p));
            }
        }
        match chosen {
            Some((_, _, p)) => {
                part_sizes[p as usize] += sz;
                packed[p as usize].push(sp);
                part_of[sp as usize] = Some(p);
                if !use_matrix {
                    part_covers[p as usize].union_with(&verts[sp as usize]);
                }
            }
            None => spilled.push(sp),
        }
    }
    drop(part_covers);
    // Refinement sweeps (matrix path only): migrate a sub-partition to a
    // part where it internalizes strictly more boundary, capacity
    // permitting. Fixed sweep count and id order keep this deterministic;
    // greedy packing is order-sensitive, and a couple of sweeps recover
    // most of what the sequential pass misses.
    for _ in 0..if use_matrix { 3 } else { 0 } {
        let mut moved = false;
        for sp in 0..s {
            let Some(cur) = part_of[sp as usize] else { continue };
            let sz = sub_sizes[sp as usize];
            let here = score_of(sp, &packed[cur as usize]);
            let mut best: Option<(u64, u32)> = None;
            for p in 0..k {
                if p == cur || part_sizes[p as usize] + sz > caps[p as usize] {
                    continue;
                }
                let ov = score_of(sp, &packed[p as usize]);
                if ov > here && best.is_none_or(|(bo, _)| ov > bo) {
                    best = Some((ov, p));
                }
            }
            if let Some((_, p)) = best {
                part_sizes[cur as usize] -= sz;
                packed[cur as usize].retain(|&t| t != sp);
                part_sizes[p as usize] += sz;
                packed[p as usize].push(sp);
                part_of[sp as usize] = Some(p);
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    // Replication sets of the packed parts: word-level unions of the
    // member covers (these seed the streaming phase, §3.3).
    let mut s_sets: Vec<DenseBitset> = (0..k).map(|_| DenseBitset::new(n as usize)).collect();
    for p in 0..k {
        for &sp in &packed[p as usize] {
            s_sets[p as usize].union_with(&verts[sp as usize]);
        }
    }
    // Sub-partitions that fit nowhere whole: their edges fill the remaining
    // capacity in part order, so every final cap holds exactly.
    let mut spill_edges: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
    let mut fill = 0u32;
    for &sp in &spilled {
        for &id in &granted[sp as usize] {
            while fill + 1 < k && part_sizes[fill as usize] >= caps[fill as usize] {
                fill += 1;
            }
            part_sizes[fill as usize] += 1;
            let e = g.edges[id as usize];
            s_sets[fill as usize].set(e.src);
            s_sets[fill as usize].set(e.dst);
            spill_edges[fill as usize].push(id);
        }
    }
    debug_assert_eq!(part_sizes.iter().sum::<u64>(), inmem);

    // Boundary-aware FM refinement of the packed parts (`refine_passes >
    // 0`): the pack output, flattened to an edge-id → part table in the
    // unrefined emission order, is refined under the exact same caps, then
    // re-emitted part by part in that order. `refine_passes = 0` skips all
    // of this and emits the pack output directly — bit-for-bit the
    // unrefined behavior.
    let mut refine_moves = 0u64;
    let mut refine_cover_sums: Vec<u64> = Vec::new();
    let mut refine_stale_skips = 0u64;
    if config.refine_passes > 0 && m > 0 {
        // The unrefined emission sequence: per final part, packed
        // sub-partitions (pack order, grant order within), then spill.
        let mut emit_seq: Vec<u32> = Vec::with_capacity(m);
        let mut owner: Vec<u32> = vec![0; m];
        for p in 0..k {
            for &sp in &packed[p as usize] {
                for &id in &granted[sp as usize] {
                    owner[id as usize] = p;
                    emit_seq.push(id);
                }
            }
            for &id in &spill_edges[p as usize] {
                owner[id as usize] = p;
                emit_seq.push(id);
            }
        }
        let outcome = refine_packed_parts(&g, k, &caps, &part_sizes, owner, config.refine_passes);
        refine_moves = outcome.moves;
        refine_cover_sums = outcome.cover_sums;
        refine_stale_skips = outcome.stale_skips;
        let owner = outcome.owner;
        // Stable re-bucketing: ids keep their relative order from the
        // unrefined sequence within their (possibly new) part.
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); k as usize];
        debug_assert!(
            owner.iter().all(|&p| (p as usize) < buckets.len()),
            "refinement keeps every owner within 0..k"
        );
        for &id in &emit_seq {
            buckets[owner[id as usize] as usize].push(id);
        }
        // Replication sets shrink to the exact refined covers (they seed
        // the streaming phase, which must see the post-move boundaries).
        for set in &mut s_sets {
            set.clear_all();
        }
        for (id, &p) in owner.iter().enumerate() {
            let e = g.edges[id];
            s_sets[p as usize].set(e.src);
            s_sets[p as usize].set(e.dst);
        }
        for (p, ids) in buckets.iter().enumerate() {
            debug_assert_eq!(ids.len() as u64, part_sizes[p], "refinement moved load");
            for &id in ids {
                let e = g.edges[id as usize];
                sink.assign(e.src, e.dst, p as PartitionId);
            }
        }
    } else {
        // Emit assignments in a fixed order: per final part, packed
        // sub-partitions first (in pack order, grant order within), then
        // the spilled edges.
        for p in 0..k {
            for &sp in &packed[p as usize] {
                for &id in &granted[sp as usize] {
                    let e = g.edges[id as usize];
                    sink.assign(e.src, e.dst, p as PartitionId);
                }
            }
            for &id in &spill_edges[p as usize] {
                let e = g.edges[id as usize];
                sink.assign(e.src, e.dst, p as PartitionId);
            }
        }
    }
    let pack_seconds = pack_start.elapsed().as_secs_f64();

    // Stats: the scan/clean-up counters are meaningless here (no lazy
    // removal happens — the CSR is read-only); Figure-5 bookkeeping uses
    // the union of the sub-partition cores, word-level as in the serial
    // finish.
    let mut stats = NeppStats {
        column_entries: csr.column_entries(),
        assigned_edges: inmem,
        refine_moves,
        refine_cover_sums,
        refine_stale_skips,
        ..Default::default()
    };
    for st in &states {
        stats.initializations += st.seeds;
    }
    let core_union = DenseBitset::union_of(states.iter().map(|st| &st.core), n as usize);
    for v in core_union.iter_ones() {
        stats.core_count += 1;
        stats.core_degree_sum += csr.stats().degree(v) as u64;
    }
    let mut survivors = DenseBitset::union_of(s_sets.iter(), n as usize);
    survivors.difference_with(&core_union);
    for v in survivors.iter_ones() {
        stats.secondary_only_count += 1;
        stats.secondary_only_degree_sum += csr.stats().degree(v) as u64;
    }
    NeppResult {
        s_sets,
        sizes: part_sizes,
        degrees: csr.into_degrees(),
        stats,
        trace: None,
        cleanup_seconds: pack_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::CollectedAssignment;
    use hep_graph::EdgeList;
    use proptest::prelude::*;

    fn run_par(
        graph: &EdgeList,
        k: u32,
        tau: f64,
        split: u32,
    ) -> (CollectedAssignment, NeppResult, Vec<Edge>) {
        let csr = PrunedCsr::build(graph, tau);
        let h2h = csr.h2h_edges().to_vec();
        let mut sink = CollectedAssignment::default();
        let config = HepConfig { split_factor: split, ..HepConfig::with_tau(tau) };
        let result = run_nepp_par(csr, k, &config, &mut sink);
        assert_eq!(result.degrees, graph.degrees(), "degree table handed to phase 2");
        (sink, result, h2h)
    }

    fn assert_exactly_once(graph: &EdgeList, sink: &CollectedAssignment, h2h: &[Edge]) {
        let mut seen: Vec<Edge> = sink.assignments.iter().map(|(e, _)| e.canonical()).collect();
        seen.extend(h2h.iter().map(|e| e.canonical()));
        seen.sort_unstable();
        let mut expect: Vec<Edge> = graph.edges.iter().map(|e| e.canonical()).collect();
        expect.sort_unstable();
        assert_eq!(seen, expect, "edge multiset mismatch");
    }

    #[test]
    fn covers_figure3_graph() {
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
        let (sink, result, h2h) = run_par(&g, 2, 1e9, 4);
        assert!(h2h.is_empty());
        assert_exactly_once(&g, &sink, &h2h);
        assert_eq!(result.sizes.iter().sum::<u64>(), 11);
    }

    #[test]
    fn respects_serial_capacity_bounds() {
        let g = hep_gen::GraphSpec::ChungLu { n: 600, m: 5000, gamma: 2.3 }.generate(5);
        for split in [2u32, 4, 8] {
            let (_, result, h2h) = run_par(&g, 7, 10.0, split);
            let inmem = 5000 - h2h.len() as u64;
            let ideal = inmem / 7;
            for &sz in &result.sizes {
                assert!(sz <= ideal + 1, "split {split}: overfull {:?}", result.sizes);
            }
            assert_eq!(result.sizes.iter().sum::<u64>(), inmem);
        }
    }

    #[test]
    fn s_sets_cover_assigned_endpoints() {
        let g = hep_gen::GraphSpec::ChungLu { n: 500, m: 4000, gamma: 2.2 }.generate(3);
        let (sink, result, _) = run_par(&g, 8, 10.0, 4);
        for (e, p) in &sink.assignments {
            assert!(result.s_sets[*p as usize].get(e.src), "src of edge on p{p} not in S");
            assert!(result.s_sets[*p as usize].get(e.dst), "dst of edge on p{p} not in S");
        }
    }

    #[test]
    fn empty_inmem_set_is_fine() {
        let g = hep_gen::spec::GraphSpec::Cycle { n: 50 }.generate(0);
        let (sink, result, h2h) = run_par(&g, 4, 0.4, 4);
        assert_eq!(h2h.len(), 50);
        assert!(sink.assignments.is_empty());
        assert_eq!(result.stats.assigned_edges, 0);
    }

    #[test]
    fn disconnected_components_fully_assigned() {
        let g = hep_gen::spec::GraphSpec::DisconnectedCliques { count: 20, size: 5 }.generate(0);
        let (sink, result, h2h) = run_par(&g, 4, 100.0, 4);
        assert_exactly_once(&g, &sink, &h2h);
        assert!(result.stats.initializations >= 4, "expected several re-seeds");
    }

    #[test]
    fn huge_split_factor_uses_cover_fallback() {
        // k * split > MATRIX_MAX_SUBS: the pack must skip the dense overlap
        // matrix and still satisfy exactly-once and the serial caps.
        let g = hep_gen::GraphSpec::ChungLu { n: 400, m: 3000, gamma: 2.2 }.generate(1);
        let (sink, result, h2h) = run_par(&g, 8, 10.0, 300);
        assert!(8 * 300 > MATRIX_MAX_SUBS as u32);
        assert_exactly_once(&g, &sink, &h2h);
        let inmem = g.num_edges() - h2h.len() as u64;
        let ideal = inmem / 8;
        for &sz in &result.sizes {
            assert!(sz <= ideal + 1, "overfull {:?}", result.sizes);
        }
    }

    #[test]
    fn star_graph_replicates_hub() {
        let g = hep_gen::spec::GraphSpec::Star { n: 100 }.generate(0);
        let (sink, result, h2h) = run_par(&g, 4, 1.0, 4);
        assert!(h2h.is_empty());
        assert_exactly_once(&g, &sink, &h2h);
        let hub_parts: std::collections::HashSet<u32> =
            sink.assignments.iter().map(|&(_, p)| p).collect();
        for &p in &hub_parts {
            assert!(result.s_sets[p as usize].get(0), "hub missing from S_{p}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Sub-partitioned NE++ assigns every in-memory edge exactly once
        /// and keeps the serial capacity bounds, for arbitrary graphs, tau,
        /// k and split factors.
        #[test]
        fn exactly_once_any_graph(
            pairs in proptest::collection::vec((0u32..60, 0u32..60), 1..400),
            tau in prop_oneof![Just(0.5), Just(1.0), Just(2.0), Just(10.0), Just(100.0)],
            k in 2u32..9,
            split in 2u32..6,
        ) {
            let mut g = EdgeList::from_pairs(pairs);
            g.canonicalize();
            prop_assume!(!g.edges.is_empty());
            let (sink, result, h2h) = run_par(&g, k, tau, split);
            let mut seen: Vec<Edge> = sink.assignments.iter().map(|(e, _)| e.canonical()).collect();
            seen.extend(h2h.iter().map(|e| e.canonical()));
            seen.sort_unstable();
            let mut expect: Vec<Edge> = g.edges.iter().map(|e| e.canonical()).collect();
            expect.sort_unstable();
            prop_assert_eq!(seen, expect);
            let inmem = g.num_edges() - h2h.len() as u64;
            prop_assert_eq!(result.sizes.iter().sum::<u64>(), inmem);
            let ideal = inmem / k as u64;
            for (p, &sz) in result.sizes.iter().enumerate() {
                prop_assert!(sz <= ideal + 1, "p{} size {} sizes {:?}", p, sz, result.sizes);
            }
            for (e, p) in &sink.assignments {
                prop_assert!(result.s_sets[*p as usize].get(e.src));
                prop_assert!(result.s_sets[*p as usize].get(e.dst));
            }
        }
    }
}
