//! Set-associative cache hierarchy for the DBP reproduction.
//!
//! Models a per-core private hierarchy — an L1 data cache backed by a
//! private L2 — with true-LRU replacement, write-back/write-allocate, and
//! an MSHR file that merges concurrent misses to the same line. Cache
//! state is updated at access time; timing is carried by the returned
//! latency and resolved by the core model.
//!
//! The hierarchy is deliberately *private per core* (no shared LLC): the
//! paper's evaluation isolates DRAM-level interference, so all cross-thread
//! contention in this reproduction happens in the memory controller and the
//! DRAM banks, exactly as in the equal-bank-partitioning studies DBP builds
//! on.
//!
//! # Example
//!
//! ```
//! use dbp_cache::{Hierarchy, HierarchyConfig, AccessLevel};
//!
//! let mut h = Hierarchy::new(HierarchyConfig::default());
//! let a = h.access(0x4000, false);
//! assert_eq!(a.level, AccessLevel::MemoryMiss); // cold miss
//! let b = h.access(0x4000, false);
//! assert_eq!(b.level, AccessLevel::L1Hit);
//! ```

pub mod cache;
pub mod hierarchy;
pub mod mshr;
pub mod stats;

pub use cache::{AccessOutcome, Cache, CacheConfig};
pub use hierarchy::{AccessLevel, Hierarchy, HierarchyAccess, HierarchyConfig};
pub use mshr::Mshr;
pub use stats::CacheStats;
