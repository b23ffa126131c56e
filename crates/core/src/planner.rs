//! τ planning under a memory budget (§4.4, Table 2).
//!
//! "One can perform a pre-computation step and build the cumulative sum of
//! the size of the adjacency lists of the respective low-degree vertices for
//! different values of τ; then, one chooses the maximal value of τ that keeps
//! the memory bound." The pre-computation here is the `O(|E|)` degree pass;
//! [`plan_ingest`] then sums the low-degree adjacency directly, `O(|V|)` per
//! candidate τ and no allocation, which is negligible next to partitioning
//! run-time — the point of Table 2.

use hep_graph::GraphError;

/// Phase-2 batch size. Phase 2 commits one edge at a time, so this always
/// returns 1; it is kept only for callers written against the earlier
/// batched engine, and its result means nothing to [`stream_h2h`] or
/// [`estimate_stream_overhead_bytes`].
///
/// [`stream_h2h`]: crate::streaming::stream_h2h
pub fn plan_stream_batch(_k: u32, _memory_budget_bytes: Option<u64>) -> usize {
    1
}

/// Upper bound on the phase-2 streaming engine's working state beyond the
/// seed rows it consumes (`tests/ingest_memory.rs` pins measured peak ≤
/// this estimate). The seed rows themselves (NE++'s
/// [`HighReplicas`](crate::streaming::HighReplicas), ⌈k/64⌉ words per
/// high-degree vertex plus the V_h bitset and its rank prefix) are below
/// the `|V|·(k+1)/8` the paper's §4.2 accounting charges for the
/// secondary sets.
///
/// Terms the engine ([`stream_h2h`]) uses:
///
/// * the **replica-mask table**: ⌈k/64⌉ words per vertex, live for the
///   whole stream, filled by scattering the seed rows;
/// * the **load tracker**: the load vector and the bucket levels (8 B per
///   part each, inside the 56 B per part charged), plus the bucket member
///   masks, `8·k·⌈k/64⌉` bytes — allocated for k buckets up front, so the
///   bound holds even when k ≫ |V|.
///
/// Terms kept as headroom: the k dense replica bitsets the engine used
/// to transpose the table back into (it now returns only the loads), the
/// sparse replica index it used to keep (`12·|V| + 8` bytes plus 4 B per
/// row entry, each row charged `min(k, 3·min(d(v), k) + 1)` entries) and
/// its 4 B per vertex slot table. The engine allocates none of them. Dropping them would give the
/// honest estimate — 11.9 MiB on the `web-budget` benchmark workload
/// (|V| = 1.04M, k = 32) against 123.1 MiB with them — and would let the
/// quality-first planner keep τ = 10 under that workload's 200 MiB budget
/// instead of degrading to τ = 1.25. Measured once on a 2-vCPU host, that
/// plan gave RF 2.00 instead of 2.27 and balance 1.00 instead of 1.05, but
/// peak heap 98.2 MiB instead of 59.4 MiB and `partition_s` 2.78 s
/// instead of about 2.1 s. Trading run time and peak memory for RF is a
/// planner-policy decision, so the headroom stays until that decision is
/// made.
///
/// `_batch` is ignored (see [`plan_stream_batch`]).
///
/// [`stream_h2h`]: crate::streaming::stream_h2h
pub fn estimate_stream_overhead_bytes(degrees: &[u32], k: u32, _batch: usize) -> u64 {
    let n = degrees.len() as u64;
    let k64 = k.max(1) as u64;
    let wpm = k64.div_ceil(64);
    let table = 8 * wpm * n;
    let tracker = 56 * k64 + 8 * k64 * wpm;
    let dense_export = k64 * (n.div_ceil(64) * 8);
    let entries: u64 = degrees.iter().map(|&d| (3 * d.min(k) as u64 + 1).min(k64)).sum();
    let headroom = 12 * n + 8 + 4 * entries + 4 * n;
    table + tracker + dense_export + headroom
}

/// An ingestion plan under a memory budget: the τ and column-sweep count
/// the out-of-core pipeline will run with, plus its predicted footprints.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IngestPlan {
    /// The chosen threshold factor (≤ the requested τ; degraded only when
    /// the requested τ cannot fit the budget at any sweep count).
    pub tau: f64,
    /// Column-insertion sweeps for
    /// [`hep_graph::PrunedCsr::build_from_passes_budgeted`] (1 = one
    /// insertion pass after the degree pass).
    pub column_passes: usize,
    /// Predicted peak heap bytes of the degree pass + CSR build.
    pub estimated_peak_bytes: u64,
    /// Predicted heap bytes resident after the build (the CSR itself plus
    /// degree statistics) — what phase 1 starts from.
    pub resident_bytes: u64,
}

/// Fixed ingestion overhead the peak model charges on top of the sized
/// arrays: the pass read buffer (1 MiB), the h2h spill writer and
/// allocator slack.
pub const INGEST_FIXED_OVERHEAD_BYTES: u64 = 2 << 20;

/// Sweep counts the ingest planner considers (powers of two: each step
/// halves the transient cursor arrays at the price of one more pass over
/// the file).
pub const INGEST_SWEEP_GRID: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Heap bytes resident after a budgeted build: degree statistics (degrees
/// and the high bitset), list sizes, the segment index and the column
/// array. The CSR holds ≈8.1 bytes per vertex plus 8 per non-empty low
/// segment ([`hep_graph::PrunedCsr::heap_bytes`]). The list sizes are
/// two header words in each non-empty low segment, so the `8·n` size
/// term below overcharges them by `8·(|V_h| + isolated)`; the two-level
/// index takes `4·(n+1) + 8·⌈(n+1)/64⌉` bytes, so the `8·(n+1)` index
/// term overcharges it by ≈4·n; and the second `8·n` is headroom for the
/// in-list index the CSR no longer allocates (in-lists are anchored at
/// their segment's end). All three stay so the plans, and the workloads
/// they pick, do not move with the layout: charging the real index alone
/// would drop `web-budget`'s τ = 2.5 estimate from 201.23 to 197.39 MiB,
/// under its 200 MiB budget, and flip its plan from τ 1.25 to 2.5.
fn ingest_resident_bytes(n: u64, column_entries: u64) -> u64 {
    4 * n                      // DegreeStats::degrees
        + n.div_ceil(64) * 8   // DegreeStats high bitset
        + 8 * n                // list sizes (8·(|V_h| + isolated) over, see above)
        + 8 * (n + 1) + 8 * n  // segment index (≈4·n over) + headroom (see above)
        + 4 * column_entries // column array
}

/// Predicted peak heap bytes of a budgeted ingestion+build at `sweeps`
/// column passes: the resident arrays plus a cursor term (`8·⌈n/sweeps⌉`)
/// and the fixed overhead. The builder's cursors now live in the size
/// fields, so the cursor term is headroom the build no longer allocates.
pub fn ingest_peak_bytes(n: u64, column_entries: u64, sweeps: usize) -> u64 {
    ingest_resident_bytes(n, column_entries)
        + 8 * n.div_ceil(sweeps.max(1) as u64)
        + INGEST_FIXED_OVERHEAD_BYTES
}

/// Plans out-of-core ingestion against a memory budget (§4.2: the budget,
/// not |E|, dictates what is held at once). Given the raw degree sequence
/// (one file pass, τ-independent), each candidate τ costs one `O(|V|)` sum
/// over `degrees` and no allocation. The planner searches τ from
/// `requested_tau` downward (halving) and, per τ, the smallest sweep count
/// in [`INGEST_SWEEP_GRID`] whose predicted peak
/// ([`ingest_peak_bytes`]) fits — **quality first**: τ is degraded only
/// when no sweep count fits, so the plan never exceeds the budget and
/// gives up the least possible pruning quality. `budget_bytes = None`
/// plans the requested τ at one sweep.
///
/// Errors with [`GraphError::BudgetExceeded`] when even the most degraded
/// plan (τ classifying only isolated vertices as low, maximum sweeps)
/// misses the budget — the floor is the vertex-proportional state, which
/// no τ can shrink.
///
/// `phase2_overhead_bytes` extends the peak accounting past ingestion:
/// the streaming engine's working state
/// ([`estimate_stream_overhead_bytes`]) lives alongside the resident
/// arrays after the build, so the charged peak per candidate plan is
/// `max(ingest peak, resident + phase2)`. Pass `0` to plan ingestion
/// alone (the pre-phase-2 behavior). Sweeps and τ cannot shrink the
/// phase-2 term.
pub fn plan_ingest(
    degrees: &[u32],
    mean_degree: f64,
    requested_tau: f64,
    budget_bytes: Option<u64>,
    phase2_overhead_bytes: u64,
) -> Result<IngestPlan, GraphError> {
    if requested_tau.is_nan() || requested_tau <= 0.0 {
        return Err(GraphError::InvalidConfig(format!(
            "tau must be positive, got {requested_tau}"
        )));
    }
    let n = degrees.len() as u64;
    // The one τ → column-entries map: Σ d(v) over the vertices the shared
    // §3.1 predicate classifies low. A NaN threshold (τ = ∞ on an edgeless
    // graph) classifies nothing low.
    let entries_at = |tau: f64| -> u64 {
        degrees
            .iter()
            .filter(|&&d| hep_graph::degrees::is_low_degree(d, tau, mean_degree))
            .map(|&d| d as u64)
            .sum()
    };
    let peak_at = |entries: u64, sweeps: usize| -> u64 {
        ingest_peak_bytes(n, entries, sweeps)
            .max(ingest_resident_bytes(n, entries).saturating_add(phase2_overhead_bytes))
    };
    let budget = match budget_bytes {
        None => {
            let entries = entries_at(requested_tau);
            return Ok(IngestPlan {
                tau: requested_tau,
                column_passes: 1,
                estimated_peak_bytes: peak_at(entries, 1),
                resident_bytes: ingest_resident_bytes(n, entries),
            });
        }
        Some(b) => b,
    };
    // τ halves until no vertex is low (zero entries); 64 halvings cross the
    // whole f64 range of useful thresholds.
    let mut tau = requested_tau;
    let mut min_peak = u64::MAX;
    for _ in 0..=64 {
        let entries = entries_at(tau);
        for sweeps in INGEST_SWEEP_GRID {
            let peak = peak_at(entries, sweeps);
            min_peak = min_peak.min(peak);
            if peak <= budget {
                return Ok(IngestPlan {
                    tau,
                    column_passes: sweeps,
                    estimated_peak_bytes: peak,
                    resident_bytes: ingest_resident_bytes(n, entries),
                });
            }
        }
        if entries == 0 {
            break;
        }
        tau /= 2.0;
    }
    Err(GraphError::BudgetExceeded { budget_bytes: budget, required_bytes: min_peak })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hep_graph::{EdgeList, PrunedCsr};

    fn graph() -> EdgeList {
        hep_gen::GraphSpec::ChungLu { n: 2000, m: 15_000, gamma: 2.0 }.generate(1)
    }

    #[test]
    fn ingest_plan_unbounded_keeps_requested_tau_single_sweep() {
        let g = graph();
        let plan = plan_ingest(&g.degrees(), g.mean_degree(), 10.0, None, 0).unwrap();
        assert_eq!(plan.tau, 10.0);
        assert_eq!(plan.column_passes, 1);
        assert!(plan.resident_bytes < plan.estimated_peak_bytes);
        // A generous explicit budget plans identically.
        let same = plan_ingest(&g.degrees(), g.mean_degree(), 10.0, Some(u64::MAX), 0).unwrap();
        assert_eq!(plan, same);
    }

    #[test]
    fn ingest_plan_prefers_more_sweeps_over_degrading_tau() {
        let g = graph();
        let degrees = g.degrees();
        let mean = g.mean_degree();
        let one_sweep = plan_ingest(&degrees, mean, 10.0, None, 0).unwrap();
        // Squeeze out just the single-sweep cursor slack: more sweeps at
        // the same tau must fit before tau is touched.
        let budget = one_sweep.estimated_peak_bytes - 1;
        let plan = plan_ingest(&degrees, mean, 10.0, Some(budget), 0).unwrap();
        assert_eq!(plan.tau, 10.0, "tau must not degrade while sweeps can absorb the cut");
        assert!(plan.column_passes > 1);
        assert!(plan.estimated_peak_bytes <= budget);
    }

    #[test]
    fn ingest_plan_degrades_tau_rather_than_exceeding_budget() {
        let g = graph();
        let degrees = g.degrees();
        let mean = g.mean_degree();
        let n = g.num_vertices as u64;
        // Budget below what tau=100 needs even at max sweeps, but above
        // the all-high floor: only a smaller tau fits.
        let all_low_peak =
            plan_ingest(&degrees, mean, 100.0, None, 0).unwrap().estimated_peak_bytes;
        let all_high_peak = ingest_peak_bytes(n, 0, 64);
        assert!(all_high_peak < all_low_peak);
        let budget = all_high_peak + (all_low_peak - all_high_peak) / 8;
        let plan = plan_ingest(&degrees, mean, 100.0, Some(budget), 0).unwrap();
        assert!(plan.tau < 100.0, "tau must degrade, got {}", plan.tau);
        assert!(plan.estimated_peak_bytes <= budget, "plan exceeds budget");
    }

    #[test]
    fn ingest_plan_impossible_budget_is_typed_error() {
        let g = graph();
        let err = plan_ingest(&g.degrees(), g.mean_degree(), 10.0, Some(1), 0).unwrap_err();
        match err {
            hep_graph::GraphError::BudgetExceeded { budget_bytes, required_bytes } => {
                assert_eq!(budget_bytes, 1);
                assert!(required_bytes > 1);
            }
            other => panic!("expected BudgetExceeded, got {other}"),
        }
        assert!(plan_ingest(&g.degrees(), g.mean_degree(), 0.0, None, 0).is_err());
    }

    #[test]
    fn stream_overhead_saturates_in_k() {
        let g = graph();
        let degrees = g.degrees();
        let at = |k| estimate_stream_overhead_bytes(&degrees, k, 0);
        assert!(at(32) > at(8), "more parts, wider rows and export sets");
        // The headroom's row entries saturate once k exceeds the
        // 3·max_degree + 1 row bound; only the k-proportional terms (dense
        // export, table rows, tracker) keep growing — strictly slower than
        // k x |V|.
        let n = degrees.len() as u64;
        let max_d = degrees.iter().copied().max().unwrap() as u64;
        let sat = (3 * max_d + 1) as u32;
        let dense_growth = at(2 * sat) - at(sat);
        // Per extra part: one export bitset, one table bit per vertex (plus
        // one word of rounding per vertex), one tracker entry and its
        // bucket mask.
        let wpm = (2 * sat as u64).div_ceil(64);
        let per_part = n.div_ceil(64) * 8 + n.div_ceil(8) + 56 + 16 * wpm;
        assert!(
            dense_growth <= sat as u64 * per_part + 8 * n,
            "row entries must stop growing once k exceeds the row bound"
        );
    }

    #[test]
    fn stream_overhead_covers_the_table_engine() {
        // What the engine allocates beyond its inputs: the mask table, the
        // load vector, bucket levels and bucket masks (sized for k
        // buckets) — including k > |V|, where the buckets outweigh the
        // table. The estimate still covers the k dense bitsets (with their
        // 32 B headers) of the export it charges as headroom.
        for n in [1u64, 3, 100, 5_000] {
            for k in [1u32, 2, 63, 64, 65, 128, 1_000, 4_096] {
                let degrees = vec![1u32; n as usize];
                let wpm = (k as u64).div_ceil(64);
                let table = 8 * wpm * n;
                let buckets = 16 * k as u64 + 8 * k as u64 * wpm;
                let export = k as u64 * (32 + n.div_ceil(64) * 8);
                let estimate = estimate_stream_overhead_bytes(&degrees, k, 0);
                assert!(estimate >= table + buckets + export, "|V| {n}, k {k}: {estimate}");
            }
        }
    }

    #[test]
    fn phase2_overhead_extends_the_ingest_peak() {
        let g = graph();
        let degrees = g.degrees();
        let mean = g.mean_degree();
        let base = plan_ingest(&degrees, mean, 10.0, None, 0).unwrap();
        // A phase-2 term smaller than the ingest transient changes nothing.
        let small = plan_ingest(&degrees, mean, 10.0, None, 1).unwrap();
        assert_eq!(base, small);
        // A dominating phase-2 term shows up as the charged peak.
        let huge = 64 << 20;
        let plan = plan_ingest(&degrees, mean, 10.0, None, huge).unwrap();
        assert_eq!(plan.estimated_peak_bytes, plan.resident_bytes + huge);
        // And a budget below resident + phase2 is a typed failure even
        // though ingestion alone would fit: sweeps cannot shrink phase 2.
        let budget = base.estimated_peak_bytes;
        let err = plan_ingest(&degrees, mean, 10.0, Some(budget), huge).unwrap_err();
        assert!(matches!(err, GraphError::BudgetExceeded { .. }), "got {err}");
    }

    #[test]
    fn ingest_plan_keeps_the_maximal_fitting_tau() {
        // §4.4: "choose the maximal value of τ that keeps the memory bound".
        // Once a budget forces degradation, asking for twice the planned τ
        // lands on the same τ: the next step up did not fit.
        let g = graph();
        let degrees = g.degrees();
        let mean = g.mean_degree();
        let n = g.num_vertices as u64;
        let all_low_peak =
            plan_ingest(&degrees, mean, 100.0, None, 0).unwrap().estimated_peak_bytes;
        let floor = ingest_peak_bytes(n, 0, 64);
        let budget = floor + (all_low_peak - floor) / 4;
        let plan = plan_ingest(&degrees, mean, 100.0, Some(budget), 0).unwrap();
        assert!(plan.tau < 100.0, "the budget must force degradation");
        let again = plan_ingest(&degrees, mean, 2.0 * plan.tau, Some(budget), 0).unwrap();
        assert_eq!(again, plan);
    }

    #[test]
    fn resident_bytes_count_the_built_column_entries() {
        // The planner's τ → column-entries map agrees with the CSR builder,
        // including τ far past any integer cast range, and τ = ∞.
        let resident = |g: &EdgeList, tau: f64| {
            let plan = plan_ingest(&g.degrees(), g.mean_degree(), tau, None, 0).unwrap();
            let built = ingest_resident_bytes(
                g.num_vertices as u64,
                PrunedCsr::build(g, tau).column_entries(),
            );
            assert_eq!(plan.resident_bytes, built, "tau={tau}");
        };
        let g = graph();
        for tau in [0.5, 1.0, 3.0, 10.0, 1e18, 1e300, f64::INFINITY] {
            resident(&g, tau);
        }
        // A cycle has mean degree exactly 2, so τ = 1 puts the threshold
        // exactly on every vertex's degree: d == τ·mean is low.
        let cyc = hep_gen::spec::GraphSpec::Cycle { n: 100 }.generate(0);
        assert!((cyc.mean_degree() - 2.0).abs() < 1e-12);
        resident(&cyc, 1.0);
        // τ = ∞ on an edgeless graph: the threshold ∞·0 is NaN, which
        // classifies nothing low.
        let edgeless = EdgeList::with_vertices(16, std::iter::empty()).unwrap();
        resident(&edgeless, f64::INFINITY);
    }

    #[test]
    fn non_positive_and_nan_tau_are_invalid_config() {
        let g = graph();
        for tau in [0.0, -2.0, f64::NAN] {
            for budget in [None, Some(u64::MAX)] {
                let err = plan_ingest(&g.degrees(), g.mean_degree(), tau, budget, 0).unwrap_err();
                assert!(matches!(err, GraphError::InvalidConfig(_)), "tau={tau}: {err}");
            }
        }
    }
}
