//! First-ready FCFS: the standard throughput-oriented baseline
//! (Rixner et al., ISCA 2000).

use crate::request::MemRequest;
use crate::scheduler::{row_hit_then_age, Scheduler};

/// Row hits first, then oldest.
///
/// Maximises row-buffer reuse but is application-oblivious: a streaming
/// thread's endless row hits starve a random-access thread's conflicts,
/// the unfairness DBP and TCM attack.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrFcfs;

impl Scheduler for FrFcfs {
    fn prefer(&self, a: &MemRequest, a_hit: bool, b: &MemRequest, b_hit: bool) -> bool {
        row_hit_then_age(a, a_hit, b, b_hit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_beats_older_miss() {
        let old_miss = MemRequest::demand_read(0, 0, 0, 1);
        let young_hit = MemRequest::demand_read(1, 0, 0, 2);
        let s = FrFcfs;
        assert!(s.prefer(&young_hit, true, &old_miss, false));
        assert!(!s.prefer(&old_miss, false, &young_hit, true));
    }

    #[test]
    fn age_breaks_hit_ties() {
        let a = MemRequest::demand_read(0, 0, 0, 1);
        let b = MemRequest::demand_read(1, 0, 0, 2);
        let s = FrFcfs;
        assert!(s.prefer(&a, true, &b, true));
        assert!(s.prefer(&a, false, &b, false));
    }
}
