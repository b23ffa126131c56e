//! Graph representations and partitioning interfaces for the HEP workspace.
//!
//! This crate provides the substrates that the paper's §3.2.1 builds on:
//!
//! * [`EdgeList`] — the canonical input format ("binary edge list with 32-bit
//!   vertex ids", paper Appendix A), with binary and text readers/writers.
//! * [`DegreeStats`] — vertex degrees, mean degree and the `τ`-threshold
//!   classification into high-degree (`V_h`) and low-degree (`V_l`) vertices
//!   (paper §3.1).
//! * [`Csr`] — a conventional compressed-sparse-row representation with edge
//!   ids, used by the classic NE baseline (which needs eager per-edge
//!   bookkeeping) and by the multilevel partitioner.
//! * [`PrunedCsr`] — the paper's pruned CSR (§3.2.1): adjacency lists of
//!   high-degree vertices are omitted, edges between two high-degree vertices
//!   are externalized into an `h2h` buffer, each vertex has separate out/in
//!   lists with `size` fields enabling O(1) lazy edge removal (§3.2.2).
//! * [`BinaryEdgeFile`] — a headered, checksummed (HEPB v2) on-disk edge
//!   list with buffered or memory-mapped streaming passes ([`IoMode`]),
//!   so the degree pass and CSR construction can run directly off disk
//!   without materializing an [`EdgeList`].
//! * [`AssignSink`] / [`EdgePartitioner`] — the interface every partitioner
//!   in the workspace implements, so metrics and experiments are uniform.

pub mod binfile;
pub mod csr;
pub mod degrees;
pub mod edgelist;
pub mod error;
pub mod partitioner;
pub mod pruned_csr;
pub mod types;

pub use binfile::{BinaryEdgeFile, EdgeFileWriter, IoBackend, IoMode};
pub use csr::Csr;
pub use degrees::DegreeStats;
pub use edgelist::EdgeList;
pub use error::GraphError;
pub use partitioner::{AssignSink, CollectedAssignment, CountingSink, EdgePartitioner};
pub use pruned_csr::PrunedCsr;
pub use types::{Edge, PartitionId, VertexId};
