//! Memory requests as seen by the controller.

use dbp_dram::{Cycle, Loc};

use crate::ThreadId;

/// Why the request exists — used for accounting, not prioritisation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficKind {
    /// A core's demand load (the only kind that produces a completion).
    Demand,
    /// A dirty-line write-back from a cache.
    Writeback,
    /// Page-migration copy traffic caused by repartitioning.
    Migration,
}

/// One request in a controller queue.
///
/// The DRAM coordinates are decoded at enqueue time by the controller;
/// `row`/`bank` etc. are cached here so schedulers can compare requests
/// without re-decoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Unique id (assigned by the creator; echoed in completions).
    pub id: u64,
    pub thread: ThreadId,
    /// Physical byte address.
    pub addr: u64,
    pub is_write: bool,
    pub kind: TrafficKind,
    /// DRAM cycle the request entered the queue.
    pub arrival: Cycle,
    // Decoded coordinates (filled by the controller at enqueue).
    pub channel: u32,
    pub rank: u32,
    pub bank: u32,
    pub row: u32,
    pub column: u32,
    /// Whether the row-hit/miss/conflict classification happened.
    pub classified: bool,
}

impl MemRequest {
    /// A demand read with undeCoded coordinates (the controller decodes).
    pub fn demand_read(id: u64, thread: ThreadId, addr: u64, arrival: Cycle) -> Self {
        Self::new(id, thread, addr, false, TrafficKind::Demand, arrival)
    }

    /// A write-back.
    pub fn writeback(id: u64, thread: ThreadId, addr: u64, arrival: Cycle) -> Self {
        Self::new(id, thread, addr, true, TrafficKind::Writeback, arrival)
    }

    /// Migration copy traffic (`is_write` selects the copy direction).
    pub fn migration(id: u64, thread: ThreadId, addr: u64, is_write: bool, arrival: Cycle) -> Self {
        Self::new(id, thread, addr, is_write, TrafficKind::Migration, arrival)
    }

    fn new(
        id: u64,
        thread: ThreadId,
        addr: u64,
        is_write: bool,
        kind: TrafficKind,
        arrival: Cycle,
    ) -> Self {
        MemRequest {
            id,
            thread,
            addr,
            is_write,
            kind,
            arrival,
            channel: 0,
            rank: 0,
            bank: 0,
            row: 0,
            column: 0,
            classified: false,
        }
    }

    /// The bank the request targets (valid once the controller decoded it).
    pub fn loc(&self) -> Loc {
        Loc::new(self.channel, self.rank, self.bank)
    }

    /// Stable tie-break: older first, then lower id.
    pub fn older_than(&self, other: &MemRequest) -> bool {
        (self.arrival, self.id) < (other.arrival, other.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_tag_kind() {
        assert_eq!(MemRequest::demand_read(1, 0, 0, 0).kind, TrafficKind::Demand);
        assert!(MemRequest::writeback(1, 0, 0, 0).is_write);
        assert_eq!(MemRequest::migration(1, 0, 0, true, 0).kind, TrafficKind::Migration);
    }

    #[test]
    fn age_tiebreak_uses_id() {
        let a = MemRequest::demand_read(1, 0, 0, 5);
        let b = MemRequest::demand_read(2, 0, 0, 5);
        let c = MemRequest::demand_read(0, 0, 0, 6);
        assert!(a.older_than(&b));
        assert!(b.older_than(&c));
        assert!(!c.older_than(&a));
    }
}
