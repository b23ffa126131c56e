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
    /// Memory budget for the out-of-core ingestion pipeline (§4.2: the
    /// machine's memory budget is the planner's primary input). When set,
    /// [`crate::planner::plan_ingest`] chooses τ so the estimated peak
    /// footprint fits; τ is **degraded** (never the budget exceeded) when
    /// the configured τ does not fit. `None` ingests unbounded at the configured τ.
    /// Defaults to the `HEP_MEMORY_BUDGET` environment variable when set
    /// (bytes, with optional `K`/`M`/`G` suffix); a set value that does not
    /// parse or is zero makes [`HepConfig::validate`] fail rather than run
    /// unbounded.
    pub memory_budget_bytes: Option<u64>,
    /// How file-backed passes read the edge file (buffered vs mmap); the
    /// config-level override of the `HEP_IO_MODE` environment default.
    /// Backends are bit-identical in output; this only trades syscalls
    /// for page faults. A set `HEP_IO_MODE` that is not a mode name makes
    /// [`HepConfig::validate`] fail rather than run on `Auto`.
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

/// Resolves a raw `HEP_MEMORY_BUDGET` value. Unset means unbounded; a set
/// value must be a positive [`parse_byte_size`] count, and anything else
/// is an error naming the knob and its value, never a silent "unbounded".
fn parse_memory_budget(raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else { return Ok(None) };
    match parse_byte_size(raw) {
        Some(bytes) if bytes > 0 => Ok(Some(bytes)),
        _ => Err(format!(
            "HEP_MEMORY_BUDGET={raw:?} is not a positive byte count (want e.g. 1048576, 64M, 2G)"
        )),
    }
}

/// `HEP_MEMORY_BUDGET` environment default, resolved once per process.
fn env_memory_budget() -> &'static Result<Option<u64>, String> {
    use std::sync::OnceLock;
    static BUDGET: OnceLock<Result<Option<u64>, String>> = OnceLock::new();
    BUDGET.get_or_init(|| parse_memory_budget(env_registry::read("HEP_MEMORY_BUDGET").as_deref()))
}

impl Default for HepConfig {
    fn default() -> Self {
        HepConfig {
            tau: 10.0,
            alpha: 1.05,
            lambda: 1.1,
            record_trace: false,
            informed_streaming: true,
            memory_budget_bytes: env_memory_budget().clone().unwrap_or(None),
            io_mode: IoMode::from_env(),
        }
    }
}

impl HepConfig {
    /// Paper-style config with a given τ and defaults elsewhere.
    pub fn with_tau(tau: f64) -> Self {
        HepConfig { tau, ..Default::default() }
    }

    /// Validates parameter domains, including a set but malformed
    /// `HEP_MEMORY_BUDGET` or `HEP_IO_MODE` when the config takes its
    /// budget or mode from it, and a malformed `HEP_THREADS`.
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
        // A malformed knob leaves the default unbounded; refuse to run
        // without the §4.2 budget the user asked for. An explicit budget
        // overrides the knob.
        if self.memory_budget_bytes.is_none() {
            if let Err(msg) = env_memory_budget() {
                return Err(hep_graph::GraphError::InvalidConfig(msg.clone()));
            }
        }
        // Likewise a malformed HEP_IO_MODE leaves the default at Auto; an
        // explicit buffered or mmap mode overrides the knob.
        if self.io_mode == IoMode::Auto {
            if let Err(msg) = IoMode::env_knob() {
                return Err(hep_graph::GraphError::InvalidConfig(msg.clone()));
            }
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

    #[test]
    fn memory_budget_knob_parsing() {
        assert_eq!(parse_memory_budget(None), Ok(None), "unset is unbounded");
        assert_eq!(parse_memory_budget(Some("64M")), Ok(Some(64 << 20)));
        for bad in ["200MB", "0", "lots", "1.5G", ""] {
            let err = parse_memory_budget(Some(bad)).unwrap_err();
            assert!(err.contains("HEP_MEMORY_BUDGET") && err.contains(bad), "{err}");
        }
        let overflow = format!("{}", u128::from(u64::MAX) + 1);
        assert!(parse_memory_budget(Some(&overflow)).is_err(), "u64 overflow");
        let overflow = format!("{}G", u64::MAX);
        assert!(parse_memory_budget(Some(&overflow)).is_err(), "suffix overflow");
    }
}
