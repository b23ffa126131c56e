//! HEP configuration.

use hep_graph::IoMode;

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
    /// Memory budget of a HEP run (§4.2: the machine's memory budget is
    /// the planner's primary input), for in-memory and file input alike.
    /// When set, [`crate::planner::plan_ingest`] chooses τ so the estimated
    /// peak footprint fits; τ is **degraded** (never the budget exceeded)
    /// when the configured τ does not fit, and a budget no τ fits is
    /// [`hep_graph::GraphError::BudgetExceeded`]. The input itself is not
    /// charged: neither the caller's `EdgeList` nor the mapped input file.
    /// `None` (the default) ingests unbounded at the configured τ;
    /// `Some(0)` fails [`HepConfig::validate`].
    pub memory_budget_bytes: Option<u64>,
    /// How the file driver's passes read the input file and the h2h spill
    /// (buffered vs mmap); it replaces the input file's own mode. Backends
    /// are bit-identical in output; this only trades syscalls for page
    /// faults.
    pub io_mode: IoMode,
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

impl Default for HepConfig {
    fn default() -> Self {
        HepConfig {
            tau: 10.0,
            alpha: 1.05,
            lambda: 1.1,
            record_trace: false,
            informed_streaming: true,
            memory_budget_bytes: None,
            io_mode: IoMode::default(),
        }
    }
}

impl HepConfig {
    /// Paper-style config with a given τ and defaults elsewhere.
    pub fn with_tau(tau: f64) -> Self {
        HepConfig { tau, ..Default::default() }
    }

    /// Validates parameter domains and rejects a malformed `HEP_THREADS`.
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
        // A malformed HEP_THREADS falls back to available parallelism
        // below HEP; a HEP run refuses it.
        if let Err(msg) = hep_par::threads_knob() {
            return Err(hep_graph::GraphError::InvalidConfig(msg.clone()));
        }
        if self.memory_budget_bytes == Some(0) {
            return Err(hep_graph::GraphError::InvalidConfig(
                "memory_budget_bytes must be positive (use None for unbounded)".into(),
            ));
        }
        Ok(())
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
        assert_eq!(c.memory_budget_bytes, None);
        assert_eq!(c.io_mode, IoMode::Mmap);
    }

    #[test]
    fn validation_rejects_bad_domains() {
        assert!(HepConfig { tau: 0.0, ..Default::default() }.validate().is_err());
        assert!(HepConfig { tau: -1.0, ..Default::default() }.validate().is_err());
        assert!(HepConfig { alpha: 0.9, ..Default::default() }.validate().is_err());
        assert!(HepConfig { lambda: -0.1, ..Default::default() }.validate().is_err());
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
}
