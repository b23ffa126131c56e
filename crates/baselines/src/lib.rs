//! Baseline edge partitioners evaluated against HEP (paper §5.1).
//!
//! Streaming: [`Hdrf`], [`Adwise`], [`Dbh`], [`RandomStreaming`], [`Sne`].
//! In-memory: [`Ne`], [`Dne`], [`MetisLike`].
//!
//! All partitioners implement [`hep_graph::EdgePartitioner`], emit every
//! input edge exactly once and respect a hard balance cap where their
//! original description has one. The HDRF scoring machinery lives in
//! [`scoring`] and is shared with HEP's informed streaming phase (§3.3) —
//! HDRF is prior work that HEP builds on, which is why `hep-core` depends on
//! this crate rather than the other way around.

pub mod adwise;
pub mod dbh;
pub mod dne;
pub mod hdrf;
pub mod metis_like;
pub mod ne;
pub mod random;
pub mod scoring;
pub mod sne;

pub use adwise::Adwise;
pub use dbh::Dbh;
pub use dne::Dne;
pub use hdrf::Hdrf;
pub use metis_like::MetisLike;
pub use ne::Ne;
pub use random::RandomStreaming;
pub use scoring::ReplicaState;
pub use sne::Sne;

/// The baseline set of Figure 8's full comparison, boxed for experiment
/// loops. (HEP itself is added by `hep-core`.)
pub fn standard_baselines() -> Vec<Box<dyn hep_graph::EdgePartitioner>> {
    vec![
        Box::new(Adwise::default()),
        Box::new(Hdrf::default()),
        Box::new(Dbh::default()),
        Box::new(Sne::default()),
        Box::new(Ne::default()),
        Box::new(Dne::default()),
        Box::new(MetisLike::default()),
    ]
}
