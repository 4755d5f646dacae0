//! DRAM memory controller with pluggable request schedulers.
//!
//! The controller owns the per-channel read and write queues, the refresh
//! machinery, and the per-thread profiling counters that both the TCM
//! scheduler and the Dynamic Bank Partitioning policy consume (memory
//! intensity, row-buffer locality, bank-level parallelism).
//!
//! Scheduling follows the standard greedy model: each DRAM cycle and
//! channel, the controller considers every queued request, derives the
//! next command each needs (ACT, PRE, or a column command), filters to
//! those legal *this* cycle, and issues the one the active
//! [`Scheduler`] prefers.
//!
//! Provided schedulers:
//!
//! - [`scheduler::Fcfs`] — oldest first.
//! - [`scheduler::FrFcfs`] — row hits first, then oldest (the classic
//!   high-throughput baseline).
//! - [`scheduler::ParBs`] — batch-based fairness scheduling in the spirit
//!   of PAR-BS (Mutlu & Moscibroda, ISCA 2008).
//! - [`scheduler::Tcm`] — Thread Cluster Memory scheduling (Kim et al.,
//!   MICRO 2010): latency-sensitive/bandwidth-sensitive clustering with
//!   niceness-based shuffling, the scheduler DBP composes with.
//!
//! # Example
//!
//! ```
//! use dbp_dram::{Dram, DramConfig};
//! use dbp_memctrl::{CtrlConfig, MemoryController, MemRequest, TrafficKind};
//! use dbp_memctrl::scheduler::FrFcfs;
//!
//! let dram = Dram::new(DramConfig::fast_test());
//! let mut mc = MemoryController::new(dram, CtrlConfig::default(), Box::new(FrFcfs), 1);
//! let req = MemRequest::demand_read(0, 0, 0x40, 0);
//! assert!(mc.can_accept(0, false));
//! mc.enqueue(req);
//! let mut done = Vec::new();
//! for now in 0..200 {
//!     mc.tick(now, &mut done);
//! }
//! assert_eq!(done.len(), 1);
//! ```

pub mod anatomy;
mod candidates;
pub mod controller;
pub mod profiler;
pub mod request;
pub mod scheduler;

pub use anatomy::Anatomy;
pub use controller::{Completion, CtrlConfig, CtrlStats, MemoryController};
pub use profiler::{ProfilerState, ThreadProf};
pub use request::{MemRequest, TrafficKind};
pub use scheduler::Scheduler;

/// Thread (core) identifier.
pub type ThreadId = usize;

#[cfg(test)]
mod ddr3_check;
