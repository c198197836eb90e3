//! A from-scratch Path ORAM implementation (Stefanov et al. \[32\], as built
//! into secure processors by Ren et al. \[26\]), the memory substrate of the
//! HPCA'14 timing-channel paper this repository reproduces.
//!
//! # What lives here
//!
//! * [`TreeGeometry`] / [`TreeOram`] — one binary-tree ORAM: buckets in
//!   (simulated) untrusted DRAM — a dense tree-top array, and below it
//!   only the buckets that hold blocks — an on-chip [`stash`](Stash)
//!   kept sorted by block id, greedy path eviction, and probabilistic
//!   re-encryption of every bucket a path touches.
//! * [`RecursivePathOram`] — the full controller: a data ORAM plus three
//!   recursive position-map ORAMs (§9.1.2), an on-chip final position
//!   map, and indistinguishable dummy accesses.
//! * [`OramConfig`] — geometry; the default reproduces the paper's
//!   4 GB / Z=3 / 64 B-block configuration, which moves 24.2 KB per
//!   access.
//! * [`OramTiming`] / [`AccessPlan`] — access latency derived from the
//!   geometry and the [`otc_dram`] channel model; 1488 CPU cycles at the
//!   defaults, either as one opaque `OLAT` or decomposed into the
//!   pipelineable stages (posmap lookups, data-path read, eviction) a
//!   pipelined shard overlaps across consecutive accesses.
//!
//! Timing protection does **not** live here: this crate answers *what an
//! access does and costs*, while `otc-core` (the paper's contribution)
//! decides *when accesses happen*.
//!
//! # Example
//!
//! ```
//! use otc_oram::{OramConfig, RecursivePathOram, OramTiming};
//! use otc_dram::DdrConfig;
//!
//! let mut oram = RecursivePathOram::new(OramConfig::small())?;
//! oram.write(7, &[1u8; 64]);
//! assert_eq!(oram.read(7), vec![1u8; 64]);
//!
//! let timing = OramTiming::derive(&OramConfig::paper(), &DdrConfig::default());
//! assert_eq!(timing.latency, 1488); // the paper's per-access latency
//! # Ok::<(), String>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bucket;
mod config;
mod geometry;
mod integrity;
mod posmap;
mod recursive;
mod stash;
mod stats;
mod timing;
mod tree;
pub mod types;

pub use bucket::{Bucket, StoredBlock};
pub use config::{OramConfig, POSMAP_ENTRY_BYTES};
pub use geometry::TreeGeometry;
pub use integrity::{Digest, IntegrityTree, Verification};
pub use posmap::SparseLeafMap;
pub use recursive::RecursivePathOram;
pub use stash::Stash;
pub use stats::OramStats;
pub use timing::{AccessPlan, CapacityKind, CapacityModel, OramTiming};
pub use tree::{DefaultPayload, TreeOram, TreeStats};
pub use types::{BlockId, Leaf, NodeIndex};
