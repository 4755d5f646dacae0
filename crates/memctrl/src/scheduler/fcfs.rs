//! First-come first-served: the simplest (and weakest) baseline.

use crate::request::MemRequest;
use crate::scheduler::Scheduler;

/// Oldest request first, ignoring row-buffer state entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Scheduler for Fcfs {
    fn prefer(&self, a: &MemRequest, _a_hit: bool, b: &MemRequest, _b_hit: bool) -> bool {
        a.older_than(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ignores_row_hits() {
        let old = MemRequest::demand_read(0, 0, 0, 1);
        let young_hit = MemRequest::demand_read(1, 0, 0, 2);
        let s = Fcfs;
        assert!(s.prefer(&old, false, &young_hit, true));
    }
}
