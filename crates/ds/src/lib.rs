//! Core data structures for the HEP graph partitioner.
//!
//! The partitioning algorithms of the paper (§4.2) are built on three bespoke
//! structures, all of which live here so that every crate in the workspace
//! shares one implementation:
//!
//! * [`DenseBitset`] — NE++'s core set `C`, its open secondary set `S_i`
//!   and the high-degree set V_h are dense bitsets over the vertex id
//!   space. The paper's memory accounting charges `|V| * (k+1)/8` bytes
//!   for `C` and all `k` secondary sets; NE++ keeps one open set and
//!   stores a closed `S_i` only as replica bits of high-degree vertices.
//! * [`IndexedMinHeap`] — the expansion step needs `arg min d_ext(v, S_i)`
//!   with decrease-key when external degrees change; a binary min-heap with a
//!   position lookup table gives `O(log |V|)` updates.
//! * [`fx`] — a fast non-cryptographic hasher (the FxHash function used by
//!   rustc) for the hash maps used by streaming partitioners; integer keys
//!   dominate, where SipHash would be needlessly slow.
//! * [`hasher`] — a streaming XXH64 checksum for the on-disk formats (the
//!   HEPB v2 per-section checksums of `hep-graph::binfile`).
//!
//! The crate is portable safe Rust: `unsafe` code is forbidden here.

#![forbid(unsafe_code)]

pub mod bitset;
pub mod bytes;
pub mod env_registry;
pub mod fx;
pub mod hasher;
pub mod minheap;
pub mod rng;
pub mod sync;

pub use bitset::DenseBitset;
pub use fx::{FxHashMap, FxHashSet, FxHasher};
pub use hasher::{hash64, Hasher64};
pub use minheap::IndexedMinHeap;
pub use rng::SplitMix64;
