//! Pluggable memory-request schedulers.
//!
//! A scheduler imposes a strict preference order on the read queue each
//! cycle; the controller issues the most-preferred request whose next
//! command is legal. Write scheduling is handled by the controller itself
//! (FR-FCFS within the write queue during drains), matching how scheduling
//! proposals in the literature — including TCM — define their policies
//! over demand reads.
//!
//! Every scheduler runs at its published (or, for the quanta, scaled)
//! values, which are associated constants on its `…Config` type, e.g.
//! [`TcmConfig::QUANTUM`]. The config types carry no fields; they remain
//! only because the frozen `benchmark/src/workloads.rs` writes
//! `SchedulerKind::Tcm(Default::default())`, and ROADMAP item 7's next
//! benchmark change turns those variants into unit variants.

mod atlas;
mod bliss;
mod fcfs;
mod frfcfs;
mod frfcfs_cap;
mod parbs;
mod tcm;

pub use atlas::{Atlas, AtlasConfig};
pub use bliss::{Bliss, BlissConfig};
pub use fcfs::Fcfs;
pub use frfcfs::FrFcfs;
pub use frfcfs_cap::{FrFcfsCap, FrFcfsCapConfig};
pub use parbs::{ParBs, ParBsConfig};
pub use tcm::{Tcm, TcmConfig};

use dbp_dram::Cycle;

use crate::profiler::ProfilerState;
use crate::request::MemRequest;

/// A read-request scheduling policy.
pub trait Scheduler: std::fmt::Debug {
    /// Per-cycle bookkeeping (quantum boundaries, shuffles, batch
    /// formation). `read_queues` exposes the per-channel read queues.
    fn tick(&mut self, _now: Cycle, _prof: &ProfilerState, _read_queues: &[Vec<MemRequest>]) {}

    /// Whether `a` should be served before `b`. Must be a strict weak
    /// ordering; ties must be broken deterministically (use
    /// [`MemRequest::older_than`] last).
    fn prefer(&self, a: &MemRequest, a_hit: bool, b: &MemRequest, b_hit: bool) -> bool;

    /// Notification: a read's column command issued.
    fn on_serviced(&mut self, _req: &MemRequest, _now: Cycle) {}

    /// The next cycle at which this scheduler's `tick` must run for
    /// bit-exactness — because it re-reads external state (profiler
    /// snapshots, wall-clock anchors) or snapshots queue contents into
    /// persistent state (PAR-BS batch marks). `read_queues` is the same
    /// per-channel view `tick` receives, so a wake may be conditioned on
    /// queue occupancy. Schedulers whose tick is a pure catch-up over
    /// elapsed time (k skipped decays equal one decay-by-k) may return
    /// `None`: their catch-up is lazy and order-insensitive.
    fn next_wake(&self, _now: Cycle, _read_queues: &[Vec<MemRequest>]) -> Option<Cycle> {
        None
    }
}

/// Shared tie-break: row hits first, then age. Every scheduler bottoms
/// out here so orderings stay total and deterministic.
pub(crate) fn row_hit_then_age(a: &MemRequest, a_hit: bool, b: &MemRequest, b_hit: bool) -> bool {
    match (a_hit, b_hit) {
        (true, false) => true,
        (false, true) => false,
        _ => a.older_than(b),
    }
}
