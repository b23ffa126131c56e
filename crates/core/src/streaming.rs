//! Informed stateful streaming — HEP's second phase (§3.3, Algorithm 4).
//!
//! The h2h edges externalized during graph building are streamed through the
//! HDRF scoring function. Unlike standalone HDRF, the scoring state starts
//! *informed*: a vertex is replicated on partition `p_i` exactly if it is in
//! NE++'s secondary set `S_i`, partition loads start at the in-memory phase's
//! sizes, and vertex degrees are exact (from the degree pass) rather than
//! streamed partial counts. This removes the "uninformed assignment problem"
//! \[47\] for the early edges of the stream.
//!
//! Every h2h edge joins two high-degree vertices, so phase 2 reads the
//! `S_i` bits of V_h only. NE++ therefore hands over [`HighReplicas`]: one
//! ⌈k/64⌉-word row per high-degree vertex, addressed by its rank in V_h,
//! in place of `k` dense |V|-bit sets.
//!
//! # The mask-table engine
//!
//! [`stream_h2h`] runs the serial HDRF loop one edge at a time, in input
//! order, and is **bit-identical to [`stream_h2h_serial`]** (the dense
//! reference kept as the oracle). It does less work per edge through two
//! plain structures (DESIGN.md §7 carries the proof sketch):
//!
//! 1. **Replica-mask table** — one ⌈k/64⌉-word row per vertex, bit `p` set
//!    iff the vertex is replicated on partition `p`. The [`HighReplicas`]
//!    rows are scattered into it at their vertex ids, and then dropped. An
//!    edge reads its two endpoint rows in place: membership classes are
//!    word AND/NOTs, and the commit is two word-ORs. Only the final loads
//!    leave the engine.
//! 2. **Load buckets** — `LoadTracker` groups the k partitions by
//!    distinct load, ascending, each bucket a ⌈k/64⌉-word member mask.
//!    Loads only move by +1, so an increment moves one bit into the next
//!    bucket, relabels a bucket the part had alone, or inserts one bucket.
//!    The least-loaded part with the lowest id (the serial all-at-cap
//!    fallback) is the lowest bit of the first bucket.
//!
//! Within one membership class (u replicated / v / both / neither) the
//! HDRF score only falls as the load grows, so the serial argmax is the
//! best of ≤ 4 per-class `(load, id)` minima. `pick_partition` finds
//! them with whichever of two exact strategies costs less for the edge at
//! hand: iterating the endpoints' replica union bit by bit when it holds
//! no more parts than there are buckets, or else walking the buckets in
//! ascending load with one AND per word per class still needed. A commit
//! evaluates at most four floating-point scores however many candidates
//! there are; an exact serial-order scan takes over on pathological load
//! spreads. A `debug_assertions` cross-check re-derives every decision
//! with a full k-scan.
//!
//! Edge endpoints are validated against the degree table: an h2h edge
//! referencing a vertex id ≥ `degrees.len()` — a corrupt or truncated
//! external edge file, or a caller-assembled stream that disagrees with
//! its own degree pass — returns the same typed
//! [`GraphError::VertexOutOfRange`] every other ingestion layer reports.
//! An endpoint outside V_h is [`GraphError::NotHighDegree`]: the spill
//! holds h2h edges only, and NE++ kept no replica row for a low vertex.
//! The partial assignment already emitted to the sink before the bad edge
//! is the caller's to discard, exactly as in the serial stream.

use hep_baselines::scoring::{capacity, ReplicaState, BAL_EPSILON};
use hep_ds::DenseBitset;
use hep_graph::{AssignSink, Edge, GraphError, PartitionId, VertexId};

/// NE++'s secondary-set membership of the high-degree vertices: bit `p`
/// of `v`'s row is set iff `v ∈ V_h` is in `S_p`. Rows are stored by the
/// rank of `v` in V_h, found with one `u32` prefix count per 64 ids, so
/// the heap is `⌈n/64⌉·8 + ⌈n/64⌉·4 + |V_h|·⌈k/64⌉·8` bytes against the
/// `k·⌈n/64⌉·8` of `k` dense sets. Low-degree vertices have no row.
#[derive(Clone, Debug)]
pub struct HighReplicas {
    k: u32,
    wpm: usize,
    high: DenseBitset,
    /// `rank[w]` = high vertices among ids `0 .. 64·w`.
    rank: Vec<u32>,
    rows: Vec<u64>,
}

impl HighReplicas {
    /// Empty rows for `k` partitions over the high-degree set `high`.
    pub fn new(k: u32, high: DenseBitset) -> Self {
        let mut rank = Vec::with_capacity(high.words().len());
        let mut total = 0u32;
        for &w in high.words() {
            rank.push(total);
            total += w.count_ones();
        }
        let wpm = (k as usize).div_ceil(64);
        HighReplicas { k, wpm, high, rank, rows: vec![0; total as usize * wpm] }
    }

    /// The high-degree rows of dense per-partition sets `sets` (one per
    /// partition); bits of low-degree vertices are dropped.
    pub fn from_sets(sets: &[DenseBitset], high: DenseBitset) -> Self {
        let mut replicas = HighReplicas::new(sets.len() as u32, high);
        for (p, set) in sets.iter().enumerate() {
            for v in set.iter_ones() {
                replicas.set(v, p as PartitionId);
            }
        }
        replicas
    }

    /// The high-degree set V_h.
    pub fn high(&self) -> &DenseBitset {
        &self.high
    }

    /// Start of high-degree `v`'s row.
    #[inline]
    fn row_start(&self, v: VertexId) -> usize {
        let w = v as usize >> 6;
        let below = self.high.words()[w] & ((1u64 << (v & 63)) - 1);
        (self.rank[w] + below.count_ones()) as usize * self.wpm
    }

    /// Records `v` on partition `p`; a no-op for a low-degree `v`.
    #[inline]
    pub fn set(&mut self, v: VertexId, p: PartitionId) {
        debug_assert!(p < self.k, "partition {p} out of range");
        if self.high.get(v) {
            let at = self.row_start(v) + (p >> 6) as usize;
            self.rows[at] |= 1u64 << (p & 63);
        }
    }

    /// Whether `v` is recorded on partition `p` (always false for a
    /// low-degree `v`).
    pub fn get(&self, v: VertexId, p: PartitionId) -> bool {
        self.high.get(v) && self.rows[self.row_start(v) + (p >> 6) as usize] >> (p & 63) & 1 != 0
    }

    /// Heap bytes held: the V_h bitset, the rank prefix and the rows.
    pub fn heap_bytes(&self) -> usize {
        self.high.heap_bytes() + self.rank.capacity() * 4 + self.rows.capacity() * 8
    }
}

/// Id of the lowest set bit across `words` (bit `b` of word `w` is id
/// `64·w + b`), if any.
#[inline]
fn first_one(words: impl IntoIterator<Item = u64>) -> Option<u32> {
    words
        .into_iter()
        .enumerate()
        .find(|&(_, x)| x != 0)
        .map(|(w, x)| (w as u32) << 6 | x.trailing_zeros())
}

/// Partition loads grouped into buckets of equal load. `levels` holds the
/// distinct loads in ascending order; bucket `i`'s members are the set
/// bits of `members[i·wpm .. (i+1)·wpm]`. Every part sits in exactly one
/// bucket and no bucket is empty, so there are as many buckets as distinct
/// loads — few in practice (HDRF keeps loads close), at most k. Both
/// vectors are allocated for k buckets up front and never reallocate:
/// [`LoadTracker::increment`] only inserts a bucket while the one it
/// leaves keeps another member. `max` is kept as a scalar (loads only
/// grow).
struct LoadTracker {
    loads: Vec<u64>,
    levels: Vec<u64>,
    members: Vec<u64>,
    wpm: usize,
    max: u64,
}

impl LoadTracker {
    fn new(loads: Vec<u64>) -> Self {
        let k = loads.len();
        let wpm = k.div_ceil(64);
        let mut levels = loads.clone();
        levels.sort_unstable();
        levels.dedup();
        let mut members = Vec::with_capacity(k * wpm);
        members.resize(levels.len() * wpm, 0);
        for (p, &l) in loads.iter().enumerate() {
            let i = levels.partition_point(|&x| x < l);
            // levels holds every load, so i < levels.len(); p < k, so p / 64 < wpm
            members[i * wpm + p / 64] |= 1 << (p % 64);
        }
        #[expect(
            clippy::expect_used,
            reason = "input checks reject k < 2 before any tracker is built"
        )]
        let max = *levels.last().expect("k >= 1");
        LoadTracker { loads, levels, members, wpm, max }
    }

    #[inline]
    fn load(&self, p: u32) -> u64 {
        self.loads[p as usize]
    }

    /// Member mask of bucket `i`.
    #[inline]
    fn bucket(&self, i: usize) -> &[u64] {
        &self.members[i * self.wpm..(i + 1) * self.wpm]
    }

    /// `(min load, lowest part id at that load)`.
    #[inline]
    fn min_entry(&self) -> (u64, u32) {
        #[expect(
            clippy::expect_used,
            reason = "buckets are never empty (increment removes or relabels a bucket the moment its last member leaves), and there is at least one since k >= 1"
        )]
        let p = first_one(self.bucket(0).iter().copied()).expect("non-empty first bucket");
        (self.levels[0], p)
    }

    /// Adds one edge to `p`, saturating at `u64::MAX` (the all-at-cap
    /// fallback keeps assigning past the cap, so loads can approach the
    /// integer limit on adversarial inputs; a wrap would reset the balance
    /// ordering mid-stream). `p` leaves bucket `l` for bucket `l + 1`:
    /// merged into it when it exists (dropping bucket `l` if `p` was its
    /// last member), by relabelling bucket `l` when `p` was alone there,
    /// or else as a new one-member bucket inserted right after `l`.
    fn increment(&mut self, p: u32) {
        debug_assert!((p as usize) < self.loads.len(), "partition id {p} out of range");
        let l = self.loads[p as usize];
        let Some(nl) = l.checked_add(1) else { return };
        self.loads[p as usize] = nl;
        self.max = self.max.max(nl);
        let wpm = self.wpm;
        let (w, bit) = ((p >> 6) as usize, 1u64 << (p & 63));
        let i = self.levels.partition_point(|&x| x < l);
        debug_assert!(self.levels[i] == l && self.bucket(i)[w] & bit != 0);
        self.members[i * wpm + w] &= !bit;
        let emptied = self.bucket(i).iter().all(|&x| x == 0);
        if self.levels.get(i + 1) == Some(&nl) {
            self.members[(i + 1) * wpm + w] |= bit;
            if emptied {
                self.levels.remove(i);
                self.members.drain(i * wpm..(i + 1) * wpm);
            }
        } else if emptied {
            self.levels[i] = nl;
            self.members[i * wpm + w] |= bit;
        } else {
            self.levels.insert(i + 1, nl);
            let at = (i + 1) * wpm;
            self.members.splice(at..at, (0..wpm).map(|j| if j == w { bit } else { 0 }));
        }
    }
}

/// Load spread below which [`pick_partition`]'s class-minimum fast path is
/// provably exact: every `(max − load)` is exact in f64 and distinct loads
/// keep a relative gap ≥ 2⁻⁵⁰ through the one multiplication and one
/// division of `C_BAL` (each perturbs by ≤ 2⁻⁵³ relative), so distinct
/// loads in a membership class produce *strictly* distinct scores.
const FAST_SPREAD_LIMIT: u64 = 1 << 50;

/// λ range for the fast path: far inside normal f64 territory, so the
/// `λ · diff / denom` products neither underflow (losing the relative-gap
/// argument above) nor overflow to a score-collapsing infinity.
const FAST_LAMBDA_RANGE: std::ops::RangeInclusive<f64> = 1e-9..=1e12;

/// Per-class `(load, id)` minima, indexed by membership class (bit 0 = u
/// replicated, bit 1 = v replicated). An uncollected class holds `EMPTY`;
/// a collected one has `load < cap ≤ u64::MAX`, so the two never collide.
type ClassMinima = [(u64, u32); 4];
const EMPTY: (u64, u32) = (u64::MAX, u32::MAX);

/// Exact serial HDRF argmax over the endpoints' replica rows (DESIGN.md §7).
/// Scores are combined in the same floating-point order as
/// [`ReplicaState::best_partition`], and ties resolve to the lowest part
/// id, so the result is bitwise the serial choice.
///
/// Fast path: within one membership class the score varies only through
/// `C_BAL`, a monotone non-increasing function of the integer load — and
/// inside [`FAST_SPREAD_LIMIT`] / [`FAST_LAMBDA_RANGE`] *strictly*
/// decreasing across distinct loads, with equal loads scoring
/// bitwise-equal (the serial tie then goes to the lowest id). The serial
/// argmax is therefore the best of ≤ 4 per-class `(load, id)` minima over
/// the under-cap parts, found by [`union_minima`] when the replica union
/// has at most as many parts as there are load buckets and by
/// [`bucket_minima`] otherwise — each strategy's cost, compared live per
/// edge. Outside that envelope (huge load spreads where f64 rounding can
/// collapse distinct loads to equal scores, or λ = 0 where every class ties
/// wholesale and the ascending-id visit order decides)
/// [`pick_serial_order`] reproduces the serial loop literally.
#[expect(
    clippy::expect_used,
    reason = "the caller only invokes scoring when min_load < cap, so at least one part is under cap and sets `best`"
)]
fn pick_partition(
    row_u: &[u64],
    row_v: &[u64],
    tracker: &LoadTracker,
    g_u: f64,
    g_v: f64,
    lambda: f64,
    cap: u64,
) -> PartitionId {
    let (min_load, min_part) = tracker.min_entry();
    if min_load >= cap {
        // Every partition at the cap: the serial loop scores nothing and
        // falls back to `min_by_key(load)` — the first bucket's lowest id.
        return min_part;
    }
    let max_load = tracker.max;
    if !(max_load - min_load < FAST_SPREAD_LIMIT && FAST_LAMBDA_RANGE.contains(&lambda)) {
        return pick_serial_order(row_u, row_v, tracker, g_u, g_v, lambda, cap, min_load, max_load);
    }
    let denom = BAL_EPSILON + (max_load - min_load) as f64;
    let covered: u32 = row_u.iter().zip(row_v).map(|(&mu, &mv)| (mu | mv).count_ones()).sum();
    let want_zero = covered < tracker.loads.len() as u32;
    let cand = if covered as usize <= tracker.levels.len() {
        union_minima(row_u, row_v, tracker, cap, want_zero)
    } else {
        bucket_minima(row_u, row_v, tracker, cap, g_u, g_v, want_zero)
    };
    let mut best: Option<(f64, u32)> = None;
    for (mem, &(l, p)) in cand.iter().enumerate() {
        if (l, p) == EMPTY {
            continue;
        }
        let mut c_rep = 0.0;
        if mem & 1 != 0 {
            c_rep += g_u;
        }
        if mem & 2 != 0 {
            c_rep += g_v;
        }
        let score = c_rep + lambda * (max_load - l) as f64 / denom;
        // The serial loop visits parts in ascending id with a strict `>`,
        // so an equal score goes to whichever id is lower.
        if best.is_none_or(|(b, bp)| score > b || (score == b && p < bp)) {
            best = Some((score, p));
        }
    }
    best.expect("min_load < cap guarantees an under-cap candidate").1
}

/// Class minima by iterating the replica union `r(u) ∪ r(v)` in ascending
/// id — cost ∝ the union's size. Each replicated class keeps its first
/// strictly-smaller load, i.e. its `(load, id)` minimum. The zero-replica
/// class is then looked up in the buckets, but only below the smallest
/// collected minimum: class 0 has the lowest `C_REP` (0, against
/// `g ≥ 1`), so at an equal or higher load it cannot win.
fn union_minima(
    row_u: &[u64],
    row_v: &[u64],
    tracker: &LoadTracker,
    cap: u64,
    want_zero: bool,
) -> ClassMinima {
    let mut cand = [EMPTY; 4];
    for (w, (&mu, &mv)) in row_u.iter().zip(row_v).enumerate() {
        let mut bits = mu | mv;
        while bits != 0 {
            let b = bits.trailing_zeros();
            bits &= bits - 1;
            let p = (w as u32) << 6 | b;
            let l = tracker.load(p);
            let c = ((mu >> b & 1) | (mv >> b & 1) << 1) as usize;
            // c is two mask bits, so c < 4 == cand.len()
            let slot = &mut cand[c];
            if l < cap && l < slot.0 {
                *slot = (l, p);
            }
        }
    }
    if want_zero {
        let bound = cand[1..].iter().fold(cap, |b, c| b.min(c.0));
        for (i, &l) in tracker.levels.iter().enumerate() {
            if l >= bound {
                break;
            }
            let free = tracker.bucket(i).iter().zip(row_u.iter().zip(row_v));
            if let Some(p) = first_one(free.map(|(&m, (&mu, &mv))| m & !(mu | mv))) {
                cand[0] = (l, p);
                break;
            }
        }
    }
    cand
}

/// Class minima by walking the buckets in ascending load — cost ∝ the
/// buckets visited. In each bucket every class still needed is tested
/// with one AND per word; the lowest id found is that class's minimum,
/// since no earlier bucket held the class. After each bucket a domination
/// rule drops classes that can no longer win: a later bucket has a
/// strictly higher load, so its balance reward is strictly smaller, and
/// `g(u), g(v) ≥ 1` — the both-replicated class beats every class after
/// it, and a one-endpoint class beats the zero class and the other
/// one-endpoint class when its `g` is no smaller. When both rows are broad
/// (the saturated-hub common case) the walk ends at the first bucket. It
/// also stops at the first at-cap bucket, since every later load is at
/// the cap too and the serial loop skips those.
fn bucket_minima(
    row_u: &[u64],
    row_v: &[u64],
    tracker: &LoadTracker,
    cap: u64,
    g_u: f64,
    g_v: f64,
    want_zero: bool,
) -> ClassMinima {
    let mut need = u32::from(want_zero);
    for (&mu, &mv) in row_u.iter().zip(row_v) {
        need |= u32::from(mu & !mv != 0) << 1;
        need |= u32::from(mv & !mu != 0) << 2;
        need |= u32::from(mu & mv != 0) << 3;
    }
    let mut cand = [EMPTY; 4];
    for (i, &l) in tracker.levels.iter().enumerate() {
        if l >= cap || need == 0 {
            break;
        }
        let mut found = 0u32;
        for (w, (&m, (&mu, &mv))) in
            tracker.bucket(i).iter().zip(row_u.iter().zip(row_v)).enumerate()
        {
            let classes = [m & !(mu | mv), m & mu & !mv, m & mv & !mu, m & mu & mv];
            for (c, &x) in classes.iter().enumerate() {
                if x != 0 && (need & !found) & (1 << c) != 0 {
                    // c enumerates `classes`, so c < 4 == cand.len()
                    cand[c] = (l, (w as u32) << 6 | x.trailing_zeros());
                    found |= 1 << c;
                }
            }
        }
        need &= !found;
        if found & 8 != 0 {
            need = 0;
        }
        if found & 2 != 0 {
            need &= !1;
            if g_v <= g_u {
                need &= !4;
            }
        }
        if found & 4 != 0 {
            need &= !1;
            if g_u <= g_v {
                need &= !2;
            }
        }
    }
    cand
}

/// Literal serial-order argmax: visits all k parts ascending with one row
/// bit probe per endpoint, reproducing [`ReplicaState::best_partition`]'s
/// loop (and its first-wins strict `>`) operation for operation. Only
/// reached outside the fast-path envelope.
#[expect(
    clippy::too_many_arguments,
    reason = "the scoring inputs are passed as scalars, as in pick_partition"
)]
#[expect(
    clippy::expect_used,
    reason = "the caller only invokes scoring when min_load < cap, so at least one part is under cap and sets `best`"
)]
fn pick_serial_order(
    row_u: &[u64],
    row_v: &[u64],
    tracker: &LoadTracker,
    g_u: f64,
    g_v: f64,
    lambda: f64,
    cap: u64,
    min_load: u64,
    max_load: u64,
) -> PartitionId {
    let denom = BAL_EPSILON + (max_load - min_load) as f64;
    let k = tracker.loads.len() as u32;
    let mut best: Option<(f64, u32)> = None;
    for p in 0..k {
        let l = tracker.load(p);
        if l >= cap {
            continue;
        }
        let (w, bit) = ((p >> 6) as usize, p & 63);
        let mut c_rep = 0.0;
        if row_u[w] >> bit & 1 != 0 {
            c_rep += g_u;
        }
        if row_v[w] >> bit & 1 != 0 {
            c_rep += g_v;
        }
        let score = c_rep + lambda * (max_load - l) as f64 / denom;
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, p));
        }
    }
    best.expect("min_load < cap guarantees an under-cap candidate").1
}

/// Re-derives a commit decision with a serial-style full k-scan over the
/// two table rows and the raw load vector (not the buckets) — the debug
/// enforcement of the class-minimum proof obligation (DESIGN.md §7).
/// Compiled out of release builds.
#[cfg(debug_assertions)]
#[expect(
    clippy::too_many_arguments,
    reason = "mirrors pick_serial_order's inputs plus the decision under check"
)]
fn debug_check_full_scan(
    row_u: &[u64],
    row_v: &[u64],
    loads: &[u64],
    e: Edge,
    g_u: f64,
    g_v: f64,
    lambda: f64,
    cap: u64,
    chosen: PartitionId,
) {
    let replicated = |row: &[u64], p: usize| row[p >> 6] >> (p & 63) & 1 != 0;
    #[expect(clippy::expect_used, reason = "input checks reject k < 2, so loads is non-empty")]
    let min_load = loads.iter().copied().min().expect("k >= 1");
    #[expect(clippy::expect_used, reason = "input checks reject k < 2, so loads is non-empty")]
    let max_load = loads.iter().copied().max().expect("k >= 1");
    let denom = BAL_EPSILON + (max_load - min_load) as f64;
    let mut best: Option<(f64, usize)> = None;
    for (p, &l) in loads.iter().enumerate() {
        if l >= cap {
            continue;
        }
        let mut c_rep = 0.0;
        if replicated(row_u, p) {
            c_rep += g_u;
        }
        if replicated(row_v, p) {
            c_rep += g_v;
        }
        let score = c_rep + lambda * (max_load - l) as f64 / denom;
        if best.is_none_or(|(b, _)| score > b) {
            best = Some((score, p));
        }
    }
    let want = match best {
        Some((_, p)) => p,
        #[expect(
            clippy::expect_used,
            reason = "input checks reject k < 2, so the range is non-empty"
        )]
        None => (0..loads.len()).min_by_key(|&p| loads[p]).expect("k >= 1"),
    };
    assert_eq!(
        chosen as usize, want,
        "class minima missed the serial argmax for edge ({}, {})",
        e.src, e.dst
    );
}

/// Streams `h2h` edges into partitions, starting from the in-memory phase's
/// state. `total_edges` is `|E|` (the balance constraint of Algorithm 4 is
/// over the whole edge set, not just the streamed part). The edge source is
/// an iterator so the externalized edge file never has to be materialized.
/// `replicas` seeds the replica rows of V_h, and every endpoint must be in
/// V_h. Returns the final per-partition loads (in-memory sizes plus
/// streamed edges); the replica sets follow from the seed sets and the
/// emitted assignments, and nothing downstream reads them.
///
/// Output is bit-identical to [`stream_h2h_serial`] seeded with the same
/// sets — see the module docs and DESIGN.md §7. `_batch` is ignored: edges
/// are scored and committed one at a time.
#[expect(
    clippy::too_many_arguments,
    reason = "phase 2's entry point takes each phase-1 output and HDRF parameter separately"
)]
pub fn stream_h2h<S: AssignSink + ?Sized>(
    h2h: impl IntoIterator<Item = Edge>,
    degrees: &[u32],
    replicas: HighReplicas,
    ne_sizes: Vec<u64>,
    total_edges: u64,
    lambda: f64,
    alpha: f64,
    _batch: usize,
    sink: &mut S,
) -> Result<Vec<u64>, GraphError> {
    assert_eq!(replicas.k as usize, ne_sizes.len(), "one replica set per partition");
    assert!(replicas.k > 0, "need k >= 1");
    assert_eq!(replicas.high.capacity(), degrees.len(), "V_h and the degree table disagree on |V|");
    let k = replicas.k;
    let cap = capacity(total_edges, k, alpha);
    let n = degrees.len() as u32;

    // The replica-mask table: row `v` is words `v·wpm .. (v+1)·wpm`, bit
    // `p` set iff `v` is replicated on `p`. The high-degree rows are
    // scattered in at their vertex ids; only the V_h bitset is kept, to
    // validate endpoints.
    let wpm = replicas.wpm;
    let mut table = vec![0u64; n as usize * wpm];
    let HighReplicas { high, rows, .. } = replicas;
    for (v, row) in high.iter_ones().zip(rows.chunks_exact(wpm)) {
        // v < capacity == n, so the row lies inside the table
        let at = v as usize * wpm;
        table[at..at + wpm].copy_from_slice(row);
    }
    drop(rows);
    let mut tracker = LoadTracker::new(ne_sizes);

    for e in h2h {
        if e.src.max(e.dst) >= n || !(high.get(e.src) && high.get(e.dst)) {
            return Err(endpoint_error(e, n, &high));
        }
        let (ou, ov) = (e.src as usize * wpm, e.dst as usize * wpm);
        let deg_u = degrees[e.src as usize] as u64;
        let deg_v = degrees[e.dst as usize] as u64;
        // θ normalized degrees; HDRF guards δ(u)+δ(v) > 0.
        let dsum = (deg_u + deg_v).max(1) as f64;
        let g_u = 1.0 + (1.0 - deg_u as f64 / dsum);
        let g_v = 1.0 + (1.0 - deg_v as f64 / dsum);
        let (row_u, row_v) = (&table[ou..ou + wpm], &table[ov..ov + wpm]);
        let p = pick_partition(row_u, row_v, &tracker, g_u, g_v, lambda, cap);
        #[cfg(debug_assertions)]
        debug_check_full_scan(row_u, row_v, &tracker.loads, e, g_u, g_v, lambda, cap, p);
        let (w, bit) = ((p >> 6) as usize, 1u64 << (p & 63));
        // p < k, so w < wpm and both words lie inside their endpoint's row
        table[ou + w] |= bit;
        table[ov + w] |= bit;
        tracker.increment(p);
        sink.assign(e.src, e.dst, p);
    }
    Ok(tracker.loads)
}

/// The error for an h2h edge with an endpoint out of range or outside V_h.
/// Kept out of line so the stream loop's check is one cold branch: with
/// the two checks and their errors inline, `partition_s` measured 15–20%
/// slower end to end.
#[cold]
#[inline(never)]
fn endpoint_error(e: Edge, n: u32, high: &DenseBitset) -> GraphError {
    let max = e.src.max(e.dst);
    if max >= n {
        return GraphError::VertexOutOfRange { vertex: max, num_vertices: n };
    }
    let low = if high.get(e.src) { e.dst } else { e.src };
    GraphError::NotHighDegree { vertex: low }
}

/// The reference serial stream: one dense O(k) HDRF scan per edge over
/// [`ReplicaState`], exactly as phase 2 ran before [`stream_h2h`]. Kept
/// as the bit-identity oracle for the determinism battery and the serial
/// baseline of the phase-2 throughput bench.
#[expect(
    clippy::too_many_arguments,
    reason = "the serial oracle takes the same inputs as stream_h2h"
)]
pub fn stream_h2h_serial<S: AssignSink + ?Sized>(
    h2h: impl IntoIterator<Item = Edge>,
    degrees: &[u32],
    s_sets: Vec<DenseBitset>,
    ne_sizes: Vec<u64>,
    total_edges: u64,
    lambda: f64,
    alpha: f64,
    sink: &mut S,
) -> Result<ReplicaState, GraphError> {
    let mut state = ReplicaState::from_parts(s_sets, ne_sizes);
    let cap = capacity(total_edges, state.k(), alpha);
    let n = degrees.len() as u32;
    for e in h2h {
        let max = e.src.max(e.dst);
        if max >= n {
            return Err(GraphError::VertexOutOfRange { vertex: max, num_vertices: n });
        }
        let p = state.best_partition(
            e.src,
            e.dst,
            degrees[e.src as usize] as u64,
            degrees[e.dst as usize] as u64,
            lambda,
            cap,
        );
        state.assign(e.src, e.dst, p);
        sink.assign(e.src, e.dst, p);
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::partitioner::CollectedAssignment;

    /// V_h = every id below `n`.
    fn all_high(n: u32) -> DenseBitset {
        let mut high = DenseBitset::new(n as usize);
        (0..n).for_each(|v| high.set(v));
        high
    }

    /// Empty seed sets for `k` parts over `n` vertices, and zero loads.
    fn empty_sets(k: u32, n: u32) -> (Vec<DenseBitset>, Vec<u64>) {
        ((0..k).map(|_| DenseBitset::new(n as usize)).collect(), vec![0; k as usize])
    }

    /// Empty replica rows for `k` parts over `n` all-high vertices, and
    /// zero loads.
    fn empty_state(k: u32, n: u32) -> (HighReplicas, Vec<u64>) {
        (HighReplicas::new(k, all_high(n)), vec![0; k as usize])
    }

    #[test]
    fn high_replicas_rows_follow_the_rank_of_v() {
        // V_h = {1, 64, 65, 200}: ranks cross word boundaries and skip
        // the low ids in between.
        let n = 256;
        let mut high = DenseBitset::new(n);
        for v in [1u32, 64, 65, 200] {
            high.set(v);
        }
        let k = 70; // two-word rows
        let mut sets: Vec<DenseBitset> = (0..k).map(|_| DenseBitset::new(n)).collect();
        for (v, p) in [(1u32, 0u32), (64, 69), (65, 3), (200, 64), (200, 0), (2, 5), (199, 69)] {
            sets[p as usize].set(v);
        }
        let replicas = HighReplicas::from_sets(&sets, high.clone());
        for v in 0..n as u32 {
            for p in 0..k as u32 {
                let want = high.get(v) && sets[p as usize].get(v);
                assert_eq!(replicas.get(v, p), want, "v {v} p {p}");
            }
        }
        // Low-degree bits (2 on 5, 199 on 69) were dropped, not stored.
        let words = n.div_ceil(64);
        assert_eq!(replicas.heap_bytes(), words * 8 + words * 4 + 4 * 2 * 8);
    }

    #[test]
    fn seeded_replicas_attract_h2h_edges() {
        let (mut s_sets, sizes) = empty_state(4, 10);
        // NE++ replicated vertex 3 on partition 2.
        s_sets.set(3, 2);
        let degrees = vec![5u32; 10];
        let h2h = [Edge::new(3, 7)];
        let mut sink = CollectedAssignment::default();
        stream_h2h(h2h.iter().copied(), &degrees, s_sets, sizes, 100, 1.1, 1.05, 0, &mut sink)
            .unwrap();
        assert_eq!(sink.assignments, vec![(Edge::new(3, 7), 2)]);
    }

    #[test]
    fn loads_from_inmem_phase_steer_balance() {
        let (s_sets, mut sizes) = empty_state(2, 10);
        sizes[0] = 50; // partition 0 already heavy from NE++
        let degrees = vec![2u32; 10];
        let h2h = [Edge::new(1, 2)];
        let mut sink = CollectedAssignment::default();
        stream_h2h(h2h.iter().copied(), &degrees, s_sets, sizes, 100, 1.1, 1.05, 0, &mut sink)
            .unwrap();
        assert_eq!(sink.assignments[0].1, 1);
    }

    #[test]
    fn hard_cap_respected() {
        let (s_sets, mut sizes) = empty_state(2, 4);
        // Partition 0 at the cap for |E|=4, k=2, alpha=1.0 -> cap 2.
        sizes[0] = 2;
        let degrees = vec![3u32; 4];
        let h2h = [Edge::new(0, 1), Edge::new(2, 3)];
        let mut sink = CollectedAssignment::default();
        stream_h2h(h2h.iter().copied(), &degrees, s_sets, sizes, 4, 1.1, 1.0, 0, &mut sink)
            .unwrap();
        assert!(sink.assignments.iter().all(|&(_, p)| p == 1));
    }

    #[test]
    fn returns_final_state() {
        let (s_sets, sizes) = empty_state(2, 4);
        let degrees = vec![1u32; 4];
        let h2h = [Edge::new(0, 1)];
        let mut sink = CollectedAssignment::default();
        let loads =
            stream_h2h(h2h.iter().copied(), &degrees, s_sets, sizes, 10, 1.1, 1.05, 0, &mut sink)
                .unwrap();
        let p = sink.assignments[0].1;
        assert_eq!(loads.len(), 2);
        assert_eq!(loads[p as usize], 1);
        assert_eq!(loads[1 - p as usize], 0);
    }

    #[test]
    fn low_degree_h2h_endpoint_is_a_typed_error() {
        // A spill edge whose endpoint NE++ classified low has no replica
        // row; it is a forged or mismatched spill, not an h2h edge.
        let n = 6;
        let mut high = DenseBitset::new(n);
        for v in [0u32, 1, 3] {
            high.set(v);
        }
        for (bad, low) in [(Edge::new(3, 4), 4), (Edge::new(2, 0), 2)] {
            let h2h = [Edge::new(0, 1), bad, Edge::new(1, 3)];
            let mut sink = CollectedAssignment::default();
            let err = stream_h2h(
                h2h.iter().copied(),
                &[3u32; 6],
                HighReplicas::new(2, high.clone()),
                vec![0, 0],
                10,
                1.1,
                1.05,
                0,
                &mut sink,
            )
            .unwrap_err();
            assert!(
                matches!(err, GraphError::NotHighDegree { vertex } if vertex == low),
                "got {err}"
            );
            assert_eq!(sink.assignments.len(), 1, "the valid prefix was emitted");
        }
    }

    #[test]
    fn out_of_range_h2h_edge_is_a_typed_error_not_a_panic() {
        // Regression: phase 2 used to index `degrees[e.src]` unchecked, so
        // an h2h edge with an endpoint >= |V| — e.g. streamed out of a
        // corrupt HEPB file — panicked with a raw index-out-of-bounds
        // instead of the typed error every other ingestion layer reports.
        // The stream here really comes from a forged binfile: the header
        // claims 4 vertices, the payload holds edge (2, 9), and both
        // checksums are computed over the forged bytes, so the file passes
        // every integrity check.
        use hep_graph::{BinaryEdgeFile, EdgeFileWriter};
        let mut path = std::env::temp_dir();
        path.push(format!("hep_stream_forged_{}.hepb", std::process::id()));
        let mut writer = EdgeFileWriter::create(&path, 4).unwrap();
        for (s, d) in [(0u32, 1u32), (2, 9)] {
            writer.push(Edge::new(s, d));
        }
        writer.finish().unwrap();
        let file = BinaryEdgeFile::open(&path).unwrap();
        let h2h: Vec<Edge> = file.pass().unwrap().collect::<Result<_, _>>().unwrap();
        std::fs::remove_file(&path).ok();
        let (s_sets, sizes) = empty_state(2, 4);
        let degrees = vec![3u32; 4];
        let mut sink = CollectedAssignment::default();
        let err =
            stream_h2h(h2h, &degrees, s_sets, sizes, 10, 1.1, 1.05, 0, &mut sink).unwrap_err();
        assert!(
            matches!(err, hep_graph::GraphError::VertexOutOfRange { vertex: 9, num_vertices: 4 }),
            "got {err}"
        );
        // The valid prefix was emitted before the bad edge surfaced; the
        // caller decides whether to keep or discard it.
        assert_eq!(sink.assignments.len(), 1);
    }

    /// A deterministic hub-heavy h2h workload: hub endpoints recur
    /// constantly, so replica rows grow toward all k parts.
    fn synth_stream(n: u32, m: usize, seed: u64) -> (Vec<Edge>, Vec<u32>) {
        let mut rng = hep_ds::SplitMix64::new(seed);
        let mut edges = Vec::with_capacity(m);
        let mut degrees = vec![0u32; n as usize];
        for _ in 0..m {
            // Square the draw toward low ids: hub vertices recur constantly.
            let a = (rng.next_below(n as u64) * rng.next_below(n as u64) / n as u64) as u32;
            let b = rng.next_below(n as u64) as u32;
            edges.push(Edge::new(a, b));
            degrees[a as usize] += 1;
            degrees[b as usize] += 1;
        }
        (edges, degrees)
    }

    /// The replica sets a stream leaves behind: the seed sets plus both
    /// endpoints of every emitted `(u, v, p)`.
    fn replay_replicas(
        mut sets: Vec<DenseBitset>,
        assignments: &[(Edge, PartitionId)],
    ) -> Vec<DenseBitset> {
        for &(e, p) in assignments {
            sets[p as usize].set(e.src);
            sets[p as usize].set(e.dst);
        }
        sets
    }

    /// Spreads a stream over three times the id space (endpoint `v`
    /// becomes `3v`) and returns V_h = the endpoints plus random
    /// non-endpoint ids, so the ranks of V_h have gaps.
    fn spread(edges: &[Edge], degrees: &[u32], seed: u64) -> (Vec<Edge>, Vec<u32>, DenseBitset) {
        let n = 3 * degrees.len();
        let edges: Vec<Edge> = edges.iter().map(|e| Edge::new(3 * e.src, 3 * e.dst)).collect();
        let mut spread_degrees = vec![0u32; n];
        for (v, &d) in degrees.iter().enumerate() {
            spread_degrees[3 * v] = d;
        }
        let mut high = DenseBitset::new(n);
        for e in &edges {
            high.set(e.src);
            high.set(e.dst);
        }
        let mut rng = hep_ds::SplitMix64::new(seed);
        for _ in 0..n / 4 {
            high.set(rng.next_below(n as u64) as u32);
        }
        (edges, spread_degrees, high)
    }

    /// Runs both engines on the same input and compares the assignment
    /// sequence, the final loads and every replica set word for word. The
    /// engine is seeded with the V_h rows of `seed_sets`, the oracle with
    /// the dense sets; every endpoint must be in `high`, and seed bits of
    /// low vertices must not matter.
    fn assert_matches_serial(
        edges: &[Edge],
        degrees: &[u32],
        seed_sets: Vec<DenseBitset>,
        high: DenseBitset,
        sizes: Vec<u64>,
        total_edges: u64,
        label: &str,
    ) {
        let k = sizes.len() as u32;
        let mut serial_sink = CollectedAssignment::default();
        let serial = stream_h2h_serial(
            edges.iter().copied(),
            degrees,
            seed_sets.clone(),
            sizes.clone(),
            total_edges,
            1.1,
            1.05,
            &mut serial_sink,
        )
        .unwrap();
        let mut sink = CollectedAssignment::default();
        let loads = stream_h2h(
            edges.iter().copied(),
            degrees,
            HighReplicas::from_sets(&seed_sets, high),
            sizes,
            total_edges,
            1.1,
            1.05,
            0,
            &mut sink,
        )
        .unwrap();
        assert_eq!(sink.assignments, serial_sink.assignments, "{label}");
        assert_eq!(loads.len(), k as usize, "{label}");
        let replicas = replay_replicas(seed_sets, &sink.assignments);
        for p in 0..k {
            assert_eq!(loads[p as usize], serial.load(p), "{label} load {p}");
            assert_eq!(
                replicas[p as usize].words(),
                serial.replica_sets()[p as usize].words(),
                "{label} replicas {p}"
            );
        }
    }

    #[test]
    fn table_engine_matches_serial_oracle() {
        // k = 65 gives two-word rows whose second word holds one bit;
        // k = 128 fills both words. V_h has rank gaps, and low vertices
        // carry seed bits the engine must ignore.
        let (edges, degrees) = synth_stream(200, 3_000, 7);
        let (edges, degrees, high) = spread(&edges, &degrees, 7);
        for k in [8u32, 65, 128] {
            let mut seed_sets: Vec<DenseBitset> =
                (0..k).map(|_| DenseBitset::new(degrees.len())).collect();
            // Seed a few replicas + uneven loads, like NE++ would.
            for v in 0..120u32 {
                seed_sets[(v % k) as usize].set(v);
            }
            assert!((0..120).any(|v| !high.get(v)), "some seeded vertices are low");
            let sizes = (0..k as u64).map(|p| p * 37).collect();
            let label = format!("k {k}");
            assert_matches_serial(&edges, &degrees, seed_sets, high.clone(), sizes, 6_000, &label);
        }
    }

    #[test]
    fn union_strategy_matches_serial_oracle() {
        // Sparse unions over many buckets: uniform endpoints over 4 000
        // vertices carry a replica or two each, and the seeded loads p·37
        // are all distinct, so the union is smaller than the bucket count
        // on nearly every edge and the zero-replica class is looked up
        // below the replicated minima.
        let n = 4_000u32;
        let mut rng = hep_ds::SplitMix64::new(11);
        let mut degrees = vec![0u32; n as usize];
        let edges: Vec<Edge> = (0..6_000)
            .map(|_| {
                let e = Edge::new(rng.next_below(n as u64) as u32, rng.next_below(n as u64) as u32);
                degrees[e.src as usize] += 1;
                degrees[e.dst as usize] += 1;
                e
            })
            .collect();
        for k in [32u32, 65] {
            let mut seed_sets: Vec<DenseBitset> =
                (0..k).map(|_| DenseBitset::new(n as usize)).collect();
            for v in 0..1_000u32 {
                seed_sets[(v % k) as usize].set(v);
                seed_sets[(v * 7 % k) as usize].set(v);
            }
            let sizes = (0..k as u64).map(|p| p * 37).collect();
            let label = format!("k {k}");
            assert_matches_serial(&edges, &degrees, seed_sets, all_high(n), sizes, 200_000, &label);
        }
    }

    #[test]
    fn bucket_strategy_matches_serial_oracle() {
        // Saturated unions over few buckets: the 50 hubs of a hub-skewed
        // stream are seeded on four parts in five and every load starts
        // equal, so unions cover most parts while loads stay within a few
        // buckets — the ascending bucket walk with the domination rule.
        let (edges, degrees) = synth_stream(300, 4_000, 5);
        for k in [128u32, 65] {
            let mut seed_sets: Vec<DenseBitset> =
                (0..k).map(|_| DenseBitset::new(degrees.len())).collect();
            for v in 0..50u32 {
                for p in (0..k).filter(|p| (v + p) % 5 != 0) {
                    seed_sets[p as usize].set(v);
                }
            }
            let sizes = vec![100; k as usize];
            let (high, label) = (all_high(degrees.len() as u32), format!("k {k}"));
            assert_matches_serial(&edges, &degrees, seed_sets, high, sizes, 200_000, &label);
        }
    }

    /// Compares the buckets with a brute-force sort of `loads`.
    fn check_buckets(t: &LoadTracker) {
        let mut distinct = t.loads.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(t.levels, distinct, "ascending distinct loads, one bucket each");
        assert_eq!(t.members.len(), t.levels.len() * t.wpm);
        for (p, &l) in t.loads.iter().enumerate() {
            let holders: Vec<usize> =
                (0..t.levels.len()).filter(|&i| t.bucket(i)[p / 64] >> (p % 64) & 1 != 0).collect();
            assert_eq!(holders.len(), 1, "part {p} in exactly one bucket");
            assert_eq!(t.levels[holders[0]], l, "part {p} in its load's bucket");
        }
        let lowest = t.loads.iter().position(|&l| l == distinct[0]).unwrap() as u32;
        assert_eq!(t.min_entry(), (distinct[0], lowest));
        assert_eq!(t.max, *distinct.last().unwrap());
    }

    #[test]
    fn load_buckets_match_brute_force_under_random_increments() {
        // [lone part relabelled, merged into l + 1, new bucket inserted,
        // saturated]
        let mut cases = [0u32; 4];
        let mut rng = hep_ds::SplitMix64::new(3);
        let scenarios: [Vec<u64>; 3] = [
            // Few distinct loads over two-word masks.
            (0..70).map(|p| p % 4).collect(),
            // All loads distinct: gaps close until parts start merging.
            (0..70).map(|p| 2 * p).collect(),
            // Loads at and just below the integer limit.
            (0..5).map(|p| u64::MAX - p % 3).collect(),
        ];
        for loads in scenarios {
            let k = loads.len() as u64;
            let mut t = LoadTracker::new(loads);
            check_buckets(&t);
            for _ in 0..3_000 {
                let p = rng.next_below(k) as usize;
                let l = t.loads[p];
                let shared = t.loads.iter().enumerate().any(|(q, &x)| q != p && x == l);
                let case = if l == u64::MAX {
                    3
                } else if t.loads.contains(&(l + 1)) {
                    1
                } else if shared {
                    2
                } else {
                    0
                };
                cases[case] += 1;
                t.increment(p as u32);
                check_buckets(&t);
            }
        }
        assert!(cases.iter().all(|&c| c > 0), "every increment case reached: {cases:?}");
    }

    #[test]
    fn all_at_cap_fallback_matches_serial_least_loaded() {
        let (seed_sets, mut sizes) = empty_sets(3, 6);
        sizes[0] = 5;
        sizes[1] = 3;
        sizes[2] = 4;
        let degrees = vec![2u32; 6];
        // cap = ceil(1.0 * 6 / 3) = 2: everything is past the cap already.
        let h2h = [Edge::new(0, 1), Edge::new(2, 3), Edge::new(4, 5)];
        let mut serial_sink = CollectedAssignment::default();
        stream_h2h_serial(
            h2h.iter().copied(),
            &degrees,
            seed_sets.clone(),
            sizes.clone(),
            6,
            1.1,
            1.0,
            &mut serial_sink,
        )
        .unwrap();
        let mut sink = CollectedAssignment::default();
        let replicas = HighReplicas::from_sets(&seed_sets, all_high(6));
        stream_h2h(h2h.iter().copied(), &degrees, replicas, sizes, 6, 1.1, 1.0, 0, &mut sink)
            .unwrap();
        assert_eq!(sink.assignments, serial_sink.assignments);
        assert_eq!(sink.assignments[0].1, 1, "least-loaded, lowest id");
    }

    #[test]
    fn saturated_seed_loads_do_not_wrap_mid_stream() {
        // Adversarial NE++ sizes near u64::MAX: the tracker must saturate,
        // keep min/max ordering sane, and never panic in the balance term.
        let (seed_sets, mut sizes) = empty_state(2, 4);
        sizes[0] = u64::MAX;
        sizes[1] = u64::MAX - 1;
        let degrees = vec![2u32; 4];
        let h2h = [Edge::new(0, 1), Edge::new(2, 3)];
        let mut sink = CollectedAssignment::default();
        let loads = stream_h2h(
            h2h.iter().copied(),
            &degrees,
            seed_sets,
            sizes,
            u64::MAX,
            1.1,
            2.0,
            0,
            &mut sink,
        )
        .unwrap();
        assert_eq!(loads, [u64::MAX, u64::MAX]);
    }
}
