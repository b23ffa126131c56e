//! # hep — Hybrid Edge Partitioner
//!
//! A from-scratch Rust implementation of **"Hybrid Edge Partitioner:
//! Partitioning Large Power-Law Graphs under Memory Constraints"** (Mayer &
//! Jacobsen, SIGMOD 2021), together with the seven baseline partitioners the
//! paper evaluates against and the substrates needed to regenerate its
//! complete evaluation on one machine.
//!
//! ## Quick start
//!
//! ```
//! use hep::core::Hep;
//! use hep::graph::EdgePartitioner;
//! use hep::metrics::PartitionMetrics;
//!
//! // A small power-law-ish graph.
//! let graph = hep::gen::GraphSpec::ChungLu { n: 1000, m: 8000, gamma: 2.2 }.generate(42);
//!
//! // Partition into 8 parts with HEP at tau = 10.
//! let mut metrics = PartitionMetrics::new(8, graph.num_vertices);
//! Hep::with_tau(10.0).partition(&graph, 8, &mut metrics).unwrap();
//!
//! println!("replication factor: {:.2}", metrics.replication_factor());
//! assert!(metrics.replication_factor() >= 1.0);
//! assert!(metrics.balance_factor() <= 1.05 + 1e-9);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`core`] | HEP itself: NE++, informed streaming, the τ planner, the simple-hybrid ablation |
//! | [`baselines`] | NE, SNE, HDRF, ADWISE, DBH, DNE, METIS-like, random |
//! | [`graph`] | edge lists, degree statistics, CSR and the pruned CSR |
//! | [`gen`] | synthetic power-law generators and Table 3 dataset analogs |
//! | [`metrics`] | replication factor, balance, validity, allocation tracking |
//! | [`procsim`] | the simulated distributed processing cluster (§5.3) |
//! | [`pagesim`] | the LRU paging simulator (§5.5) |
//! | [`ds`] | bitsets, indexed min-heap, fast hashing |
//! | [`par`] | deterministic parallel primitives (`HEP_THREADS`, chunked seeding) |
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results of every table and figure.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub use hep_baselines as baselines;
pub use hep_core as core;
pub use hep_ds as ds;
pub use hep_gen as gen;
pub use hep_graph as graph;
pub use hep_metrics as metrics;
pub use hep_pagesim as pagesim;
pub use hep_par as par;
pub use hep_procsim as procsim;

/// Convenience re-exports of the most used types.
pub mod prelude {
    pub use hep_baselines::{Adwise, Dbh, Dne, Hdrf, MetisLike, Ne, RandomStreaming, Sne};
    pub use hep_core::{Hep, HepConfig, SimpleHybrid};
    pub use hep_graph::{AssignSink, Edge, EdgeList, EdgePartitioner, GraphError};
    pub use hep_metrics::PartitionMetrics;
}
