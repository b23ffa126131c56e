//! Deterministic synthetic graph generators.
//!
//! The paper evaluates on ten real-world graphs of up to 64 billion edges
//! (Table 3) which cannot ship with a reproduction. This crate generates
//! laptop-scale analogs that preserve the two properties every experiment in
//! the paper depends on:
//!
//! 1. **Power-law degree distributions** (§2 "Graph Type") — produced by the
//!    Chung–Lu and RMAT generators, with the skew (exponent / hub mass)
//!    chosen per dataset.
//! 2. **The social-vs-web contrast** (§5.2) — web crawls have strong
//!    community/locality structure that neighbourhood expansion exploits
//!    (replication factors close to 1), while social networks mix globally
//!    and are harder to partition. The [`community`] generator models the
//!    site-level block structure of web crawls explicitly.
//!
//! Every generator is deterministic in its seed, returns a canonicalized
//! simple graph, and is exercised by statistical sanity tests. The Chung–Lu,
//! R-MAT, BA and ER generators draw edges in parallel on the `hep-par` pool
//! from independently seeded chunks (`SplitMix64::split(chunk_index)`)
//! merged in chunk order, so their output is **bit-identical at any
//! `HEP_THREADS` setting** — determinism is in the seed alone, never in the
//! thread count.

pub mod ba;
pub mod chunglu;
pub mod community;
pub mod datasets;
pub mod er;
mod parfill;
pub mod rmat;
pub mod spec;
pub mod special;

pub use datasets::{dataset, Dataset, TABLE3};
pub use spec::GraphSpec;
