//! Cycle-level DDR3 DRAM device model.
//!
//! This crate is the memory-system substrate for the Dynamic Bank
//! Partitioning (HPCA 2014) reproduction. It models a multi-channel DDR3
//! main memory at command granularity:
//!
//! - **Banks** with open-row state machines and per-command earliest-issue
//!   times (`tRCD`, `tRP`, `tRAS`, `tRC`, `tRTP`, `tWR`).
//! - **Ranks** enforcing `tRRD`, the four-activate window `tFAW`, and the
//!   write-to-read turnaround `tWTR`.
//! - **Channels** with a shared data bus (burst occupancy, rank-to-rank
//!   switch penalty `tRTRS`, read/write bus turnaround) and a command bus
//!   that accepts one command per cycle.
//! - **Refresh** at `tREFI` intervals costing `tRFC` per rank.
//! - **Address mapping** schemes, including the page-coloring layout used
//!   by bank partitioning (channel/rank/bank bits directly above the page
//!   offset) and a permutation-based (XOR) bank index.
//!
//! The device is *passive*: a memory controller (see the `dbp-memctrl`
//! crate) decides which command to send each cycle, asking
//! [`Dram::can_issue`] first and then calling [`Dram::issue`].
//!
//! Each timing rule is stated once: [`Dram::issue`] moves the bank
//! deadlines ([`BankState`]) and the rank and channel state,
//! [`Dram::rank_gates`] turns the latter into one gate per command kind,
//! and every timing query reads those. The reference they are checked
//! against is an independent DDR3 checker in `dbp-memctrl`'s tests.
//!
//! # Example
//!
//! ```
//! use dbp_dram::{Command, DramConfig, Dram};
//!
//! let cfg = DramConfig::default(); // DDR3-1333, 2 channels x 2 ranks x 8 banks
//! let mut dram = Dram::new(cfg);
//! let act = Command::activate(0, 0, 0, 42);
//! assert!(dram.can_issue(&act, 0));
//! dram.issue(&act, 0);
//! let rd = Command::read(0, 0, 0, 42, 3, false);
//! let t = dram.earliest_issue(&rd, 0).unwrap();
//! let done = dram.issue(&rd, t);
//! assert!(done.data_ready_at.unwrap() > t);
//! ```

pub mod address;
pub mod command;
pub mod config;
pub mod device;
pub mod energy;
pub mod state;
pub mod stats;
pub mod timing;

pub use address::{AddressMapper, ColorId, DecodedAddr, MappingScheme};
pub use command::{Command, CommandKind, Loc};
pub use config::{DramConfig, RowPolicy};
pub use device::{ColumnGate, Dram, IssueResult};
pub use energy::EnergyModel;
pub use state::BankState;
pub use stats::DramStats;
pub use timing::TimingParams;

/// A point in time, measured in DRAM bus clock cycles.
pub type Cycle = u64;
