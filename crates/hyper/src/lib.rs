//! Hybrid hyperedge partitioning — the extension the paper names as future
//! work (§7: "we aim to explore the extension of the hybrid in-memory and
//! streaming partitioning paradigm to hypergraphs", citing HYPE \[46\] and
//! streaming min-max partitioning \[15\]).
//!
//! The problem generalizes edge partitioning (§2): divide the *hyperedges*
//! into `k` balanced partitions; a vertex is replicated on every partition
//! holding one of its hyperedges; minimize the replication factor.
//!
//! [`HybridHyper`] transplants HEP's structure:
//!
//! * hyperedges whose pins are **all high-degree** are streamed with an
//!   informed min-max/greedy scorer;
//! * the rest are partitioned in memory by neighbourhood expansion over the
//!   bipartite incidence structure (a HYPE-style exploration), and the
//!   expansion state seeds the streaming phase exactly as in §3.3.
//!
//! The in-memory phase keeps an explicit per-hyperedge pin counter rather
//! than NE++'s lazy removal — pins appear once per hyperedge, so the paper's
//! double-assignment problem (§3.2.2) does not arise, and the counter *is*
//! the memory-efficient representation here.

pub mod gen;
pub mod hybrid;
pub mod hypergraph;
pub mod minmax;

pub use gen::power_law_hypergraph;
pub use hybrid::HybridHyper;
pub use hypergraph::{HyperMetrics, Hypergraph};
pub use minmax::StreamingMinMax;
