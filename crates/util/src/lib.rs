//! Zero-dependency testing substrate for the DBP workspace.
//!
//! The tier-1 build must be *hermetic*: `cargo build --release --offline`
//! and `cargo test -q --offline` work with no registry access. This crate
//! replaces the external crates the seed depended on:
//!
//! - [`rng`] replaces `rand` — a seedable SplitMix64 / xoshiro256++ PRNG
//!   with the handful of sampling methods the simulator actually uses.
//! - [`prop`] replaces `proptest` — seeded case generation, bounded
//!   shrinking on failure, and failure-seed replay via `DBP_PROP_SEED`.
//!
//! Both are deliberately small. They exist so the ~60 unit and
//! property tests that validate the water-filling, demand estimation, and
//! DRAM timing logic against the paper (Xie et al., HPCA 2014) compile and
//! run on a network-less machine, forever.

pub mod prop;
pub mod rng;

pub use rng::Rng;
