//! HEP configuration.

use hep_graph::IoMode;

/// The workspace environment-knob registry (defined in
/// [`hep_ds::env_registry`], re-exported here as the documented path).
/// Every `HEP_*` default below resolves through [`env_registry::read`];
/// `hep-lint` rejects raw `std::env::var` calls and unregistered names.
pub use hep_ds::env_registry;

/// Tunables of a HEP run. The paper's evaluated configurations are
/// `tau ∈ {100, 10, 1}` with HDRF defaults for the streaming phase.
#[derive(Clone, Debug)]
pub struct HepConfig {
    /// Degree threshold factor τ (§3.1): `v` is high-degree iff
    /// `d(v) > τ · mean_degree`.
    pub tau: f64,
    /// Hard balance cap factor α of the streaming phase (§2, Algorithm 4).
    pub alpha: f64,
    /// HDRF balance weight λ (Appendix A: 1.1).
    pub lambda: f64,
    /// Record the NE++ column-array access trace (for the paging simulator
    /// of §5.5). Off by default: it costs memory proportional to |E|.
    pub record_trace: bool,
    /// Seed the streaming phase with NE++'s partitioning state (§3.3).
    /// Disabling this is an ablation: the h2h edges are then streamed with
    /// plain HDRF state (empty replica sets, zero loads), re-creating the
    /// "uninformed assignment problem" the hybrid design removes.
    pub informed_streaming: bool,
    /// Sub-partitions per final partition for the parallel NE++ phase
    /// (SNE-style splitting): `k · split_factor` sub-partitions expand in
    /// deterministic BSP rounds and a pack stage merges them back into `k`
    /// parts. `1` (the default) runs the exact serial NE++ of §3.2.
    /// Defaults to the `HEP_SPLIT_FACTOR` environment variable when set.
    pub split_factor: u32,
    /// Gate for the sub-partitioned expansion: when false, NE++ runs
    /// serially regardless of [`HepConfig::split_factor`]. Results at any
    /// `HEP_THREADS` value are identical for a fixed `(parallel_nepp,
    /// split_factor)` pair; only wall-clock differs.
    pub parallel_nepp: bool,
    /// Boundary-aware FM refinement passes over the packed parts of the
    /// sub-partitioned parallel NE++ (see [`crate::refine`]): each pass
    /// moves whole vertex-bundles of boundary edges between final parts
    /// when the move strictly reduces `Σ|V(p_i)|`, with filler-edge
    /// compensation so the serial balanced caps stay exact. Also enables
    /// hub-aware conflict resolution in the BSP merge. Only the split path
    /// (`split_factor > 1`) is affected; `0` reproduces the unrefined pack
    /// output exactly. Defaults to the `HEP_REFINE_PASSES` environment
    /// variable when set, else [`DEFAULT_REFINE_PASSES`].
    pub refine_passes: u32,
    /// Memory budget for the out-of-core ingestion pipeline (§4.2: the
    /// machine's memory budget is the planner's primary input). When set,
    /// [`crate::planner::plan_ingest`] chooses τ and the column-sweep
    /// count so the estimated peak ingestion+build footprint fits; τ is
    /// **degraded** (never the budget exceeded) when the configured τ
    /// does not fit. `None` ingests unbounded at the configured τ.
    /// Defaults to the `HEP_MEMORY_BUDGET` environment variable when set
    /// (bytes, with optional `K`/`M`/`G` suffix).
    pub memory_budget_bytes: Option<u64>,
    /// How file-backed passes read the edge file (buffered vs mmap); the
    /// config-level override of the `HEP_IO_MODE` environment default.
    /// Backends are bit-identical in output; this only trades syscalls
    /// for page faults.
    pub io_mode: IoMode,
    /// Column-array segment layout of the pruned CSR (see
    /// [`CsrLayout`]). Layouts are bit-identical in partition output —
    /// only the cache behavior of phase 1's adjacency walks differs.
    /// Defaults to the `HEP_CSR_LAYOUT` environment variable when set.
    pub csr_layout: CsrLayout,
}

/// Placement of the per-vertex adjacency segments in the pruned CSR's
/// column array. Both layouts expose identical per-vertex lists, so the
/// partition output is bit-identical; the choice only changes the cache
/// locality of phase 1's walks (`HEP_CSR_LAYOUT=input|degree`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CsrLayout {
    /// The builders' native layout: segments in vertex-id order.
    #[default]
    InputOrder,
    /// Cache-conscious relayout after build: segments in descending
    /// degree order ([`hep_graph::PrunedCsr::relayout_degree_sorted`]),
    /// packing the hub lists NE++ hammers hardest into adjacent blocks.
    DegreeSorted,
}

/// `HEP_CSR_LAYOUT` environment default, resolved once per process.
fn env_csr_layout() -> CsrLayout {
    use std::sync::OnceLock;
    static LAYOUT: OnceLock<CsrLayout> = OnceLock::new();
    *LAYOUT.get_or_init(|| match env_registry::read("HEP_CSR_LAYOUT").as_deref() {
        Some("degree") => CsrLayout::DegreeSorted,
        Some("input") | None => CsrLayout::InputOrder,
        Some(other) => {
            eprintln!("unknown HEP_CSR_LAYOUT={other:?} (want input|degree); using input order");
            CsrLayout::InputOrder
        }
    })
}

/// Default [`HepConfig::refine_passes`] when `HEP_REFINE_PASSES` is unset:
/// refinement is on by default for `split_factor > 1`, where the pack
/// output otherwise carries an SNE-like replication-factor gap over the
/// serial path.
pub const DEFAULT_REFINE_PASSES: u32 = 2;

/// `HEP_SPLIT_FACTOR` environment default, resolved once per process.
fn env_split_factor() -> u32 {
    use std::sync::OnceLock;
    static SPLIT: OnceLock<u32> = OnceLock::new();
    *SPLIT.get_or_init(|| {
        env_registry::read("HEP_SPLIT_FACTOR")
            .and_then(|v| v.trim().parse::<u32>().ok())
            .filter(|&s| s >= 1)
            .unwrap_or(1)
    })
}

/// `HEP_REFINE_PASSES` environment default, resolved once per process.
fn env_refine_passes() -> u32 {
    use std::sync::OnceLock;
    static PASSES: OnceLock<u32> = OnceLock::new();
    *PASSES.get_or_init(|| {
        env_registry::read("HEP_REFINE_PASSES")
            .and_then(|v| v.trim().parse::<u32>().ok())
            .unwrap_or(DEFAULT_REFINE_PASSES)
    })
}

/// Parses a byte count with an optional `K`/`M`/`G` (binary) suffix,
/// e.g. `64M`, `1G`, `1048576`. `None` on anything else.
pub fn parse_byte_size(s: &str) -> Option<u64> {
    let t = s.trim();
    if t.is_empty() {
        return None;
    }
    let (digits, mult) = match t.as_bytes()[t.len() - 1].to_ascii_uppercase() {
        b'K' => (&t[..t.len() - 1], 1u64 << 10),
        b'M' => (&t[..t.len() - 1], 1u64 << 20),
        b'G' => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let value: u64 = digits.trim().parse().ok()?;
    value.checked_mul(mult)
}

/// `HEP_MEMORY_BUDGET` environment default, resolved once per process.
fn env_memory_budget() -> Option<u64> {
    use std::sync::OnceLock;
    static BUDGET: OnceLock<Option<u64>> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        env_registry::read("HEP_MEMORY_BUDGET").and_then(|v| parse_byte_size(&v)).filter(|&b| b > 0)
    })
}

impl Default for HepConfig {
    fn default() -> Self {
        HepConfig {
            tau: 10.0,
            alpha: 1.05,
            lambda: 1.1,
            record_trace: false,
            informed_streaming: true,
            split_factor: env_split_factor(),
            parallel_nepp: true,
            refine_passes: env_refine_passes(),
            memory_budget_bytes: env_memory_budget(),
            io_mode: IoMode::from_env(),
            csr_layout: env_csr_layout(),
        }
    }
}

impl HepConfig {
    /// Paper-style config with a given τ and defaults elsewhere.
    pub fn with_tau(tau: f64) -> Self {
        HepConfig { tau, ..Default::default() }
    }

    /// Validates parameter domains.
    pub fn validate(&self) -> Result<(), hep_graph::GraphError> {
        if self.tau.is_nan() || self.tau <= 0.0 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "tau must be positive, got {}",
                self.tau
            )));
        }
        if self.alpha.is_nan() || self.alpha < 1.0 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "alpha must be >= 1, got {}",
                self.alpha
            )));
        }
        if self.lambda.is_nan() || self.lambda < 0.0 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "lambda must be >= 0, got {}",
                self.lambda
            )));
        }
        if !(1..=1024).contains(&self.split_factor) {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "split_factor must be in 1..=1024, got {}",
                self.split_factor
            )));
        }
        if self.refine_passes > 64 {
            return Err(hep_graph::GraphError::InvalidConfig(format!(
                "refine_passes must be in 0..=64, got {}",
                self.refine_passes
            )));
        }
        if self.memory_budget_bytes == Some(0) {
            return Err(hep_graph::GraphError::InvalidConfig(
                "memory_budget_bytes must be positive (use None for unbounded)".into(),
            ));
        }
        Ok(())
    }

    /// Whether this configuration routes NE++ through the sub-partitioned
    /// BSP expansion. Trace recording forces the serial path: the column
    /// trace is defined by the serial access sequence (§5.5).
    pub fn uses_parallel_nepp(&self) -> bool {
        self.parallel_nepp && self.split_factor > 1 && !self.record_trace
    }

    /// Whether the split path runs the post-pack refinement (and the
    /// hub-aware merge). `refine_passes = 0` keeps the unrefined pack
    /// output bit-for-bit; the serial path never refines.
    pub fn uses_refinement(&self) -> bool {
        self.uses_parallel_nepp() && self.refine_passes > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_paper_defaults() {
        let c = HepConfig::default();
        assert_eq!(c.lambda, 1.1);
        assert!(c.alpha >= 1.0);
        assert!(!c.record_trace);
    }

    #[test]
    fn validation_rejects_bad_domains() {
        assert!(HepConfig { tau: 0.0, ..Default::default() }.validate().is_err());
        assert!(HepConfig { tau: -1.0, ..Default::default() }.validate().is_err());
        assert!(HepConfig { alpha: 0.9, ..Default::default() }.validate().is_err());
        assert!(HepConfig { lambda: -0.1, ..Default::default() }.validate().is_err());
        assert!(HepConfig { split_factor: 0, ..Default::default() }.validate().is_err());
        assert!(HepConfig { split_factor: 2048, ..Default::default() }.validate().is_err());
        assert!(HepConfig { refine_passes: 65, ..Default::default() }.validate().is_err());
        assert!(HepConfig { refine_passes: 0, ..Default::default() }.validate().is_ok());
        assert!(HepConfig::with_tau(1.0).validate().is_ok());
    }

    #[test]
    fn byte_size_parsing() {
        assert_eq!(parse_byte_size("1048576"), Some(1 << 20));
        assert_eq!(parse_byte_size("64M"), Some(64 << 20));
        assert_eq!(parse_byte_size("64m"), Some(64 << 20));
        assert_eq!(parse_byte_size("2G"), Some(2 << 30));
        assert_eq!(parse_byte_size("16K"), Some(16 << 10));
        assert_eq!(parse_byte_size(" 8 M "), Some(8 << 20));
        assert_eq!(parse_byte_size(""), None);
        assert_eq!(parse_byte_size("M"), None);
        assert_eq!(parse_byte_size("-3"), None);
        assert_eq!(parse_byte_size("lots"), None);
        assert_eq!(parse_byte_size(&format!("{}G", u64::MAX)), None, "suffix overflow checked");
    }

    #[test]
    fn zero_budget_is_rejected() {
        let c = HepConfig { memory_budget_bytes: Some(0), ..Default::default() };
        assert!(c.validate().is_err());
        let c = HepConfig { memory_budget_bytes: Some(1 << 20), ..Default::default() };
        assert!(c.validate().is_ok());
    }

    #[test]
    fn refinement_gate() {
        let base = HepConfig { split_factor: 4, refine_passes: 2, ..Default::default() };
        assert!(base.uses_refinement());
        assert!(!HepConfig { refine_passes: 0, ..base.clone() }.uses_refinement());
        assert!(
            !HepConfig { split_factor: 1, ..base.clone() }.uses_refinement(),
            "the serial path never refines"
        );
        assert!(!HepConfig { record_trace: true, ..base }.uses_refinement());
    }

    #[test]
    fn csr_layout_defaults_to_input_order() {
        // The suite never sets HEP_CSR_LAYOUT, so the resolved default is
        // the builders' native layout.
        assert_eq!(HepConfig::default().csr_layout, CsrLayout::InputOrder);
        assert_eq!(CsrLayout::default(), CsrLayout::InputOrder);
    }

    #[test]
    fn parallel_nepp_gate() {
        let mut c = HepConfig { split_factor: 4, ..Default::default() };
        assert!(c.uses_parallel_nepp());
        c.record_trace = true;
        assert!(!c.uses_parallel_nepp(), "trace recording forces the serial path");
        c.record_trace = false;
        c.parallel_nepp = false;
        assert!(!c.uses_parallel_nepp());
        c.parallel_nepp = true;
        c.split_factor = 1;
        assert!(!c.uses_parallel_nepp());
    }
}
