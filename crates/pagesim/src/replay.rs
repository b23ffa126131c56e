//! Trace replay: word-access trace → page-fault counts → modeled run-time.

use crate::lru::LruPageCache;

/// Outcome of replaying a trace at a given cache size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PagingStats {
    /// Total page touches.
    pub accesses: u64,
    /// Hard faults (misses).
    pub faults: u64,
    /// Pages the cache could hold.
    pub capacity_pages: u64,
}

impl PagingStats {
    /// Modeled run-time: unconstrained cpu seconds plus per-fault penalty
    /// (default SSD 4 KiB random read ≈ 100 µs, the regime of Table 6).
    pub fn modeled_runtime(&self, cpu_seconds: f64, fault_penalty: f64) -> f64 {
        cpu_seconds + self.faults as f64 * fault_penalty
    }
}

/// Replays a trace of column-array *word indices* through an LRU cache.
/// `words_per_page` is the page size in u32 entries (4096-byte pages hold
/// 1024 entries); `capacity_pages` is the simulated memory limit.
pub fn replay_trace(trace: &[u64], words_per_page: u64, capacity_pages: u64) -> PagingStats {
    assert!(words_per_page > 0, "page size must be positive");
    let mut cache = LruPageCache::new(capacity_pages.max(1) as usize);
    let mut faults = 0u64;
    for &idx in trace {
        if !cache.access(idx / words_per_page) {
            faults += 1;
        }
    }
    PagingStats { accesses: trace.len() as u64, faults, capacity_pages: capacity_pages.max(1) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn words_map_to_pages() {
        // Words 0..1023 are one page; 1024 starts the next.
        let trace = vec![0, 1, 512, 1023, 1024];
        let stats = replay_trace(&trace, 1024, 4);
        assert_eq!(stats.faults, 2);
        assert_eq!(stats.accesses, 5);
    }

    #[test]
    fn enough_memory_means_compulsory_faults_only() {
        let trace: Vec<u64> = (0..10_000u64).map(|i| (i * 37) % 4096).collect();
        let stats = replay_trace(&trace, 1024, 64);
        assert_eq!(stats.faults, 4); // 4096 words = 4 pages
        assert_eq!(stats.accesses, 10_000);
    }

    #[test]
    fn modeled_runtime_adds_penalty() {
        let stats = PagingStats { accesses: 100, faults: 10, capacity_pages: 1 };
        let t = stats.modeled_runtime(1.0, 0.1);
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace() {
        let stats = replay_trace(&[], 1024, 4);
        assert_eq!(stats.faults, 0);
        assert_eq!(stats.accesses, 0);
    }

    proptest! {
        /// More memory never causes more faults (LRU is a stack algorithm —
        /// it has the inclusion property).
        #[test]
        fn faults_monotone_in_capacity(
            trace in proptest::collection::vec(0u64..8192, 1..2000),
            cap in 1u64..16,
        ) {
            let small = replay_trace(&trace, 256, cap);
            let large = replay_trace(&trace, 256, cap + 1);
            prop_assert!(large.faults <= small.faults);
        }
    }

    /// End-to-end: an actual NE++ trace faults more as memory shrinks.
    #[test]
    fn nepp_trace_blows_up_under_memory_pressure() {
        use hep_graph::partitioner::CollectedAssignment;
        let g = hep_gen::GraphSpec::ChungLu { n: 2000, m: 15_000, gamma: 2.2 }.generate(1);
        let mut config = hep_core::HepConfig::with_tau(10.0);
        config.record_trace = true;
        let hep = hep_core::Hep { config };
        let mut sink = CollectedAssignment::default();
        let report = hep.partition_with_report(&g, 8, &mut sink).unwrap();
        let trace = report.trace.expect("trace recorded");
        let total_pages = (report.inmem_edges * 2).div_ceil(1024).max(1);
        let full = replay_trace(&trace, 1024, total_pages);
        let half = replay_trace(&trace, 1024, (total_pages / 2).max(1));
        let tenth = replay_trace(&trace, 1024, (total_pages / 10).max(1));
        assert!(half.faults >= full.faults);
        assert!(tenth.faults > full.faults, "tenth {} full {}", tenth.faults, full.faults);
    }
}
