//! BLISS: the Blacklisting memory scheduler (Subramanian, Lee, Seshadri,
//! Rastogi, Mutlu — ICCD 2014), a contemporary low-complexity
//! alternative to full thread ranking.
//!
//! Observation: full per-thread ranking (ATLAS/TCM) is expensive and can
//! over-penalise; most interference comes from threads whose requests are
//! served in long *streaks*. BLISS counts consecutive services per
//! thread; a thread that exceeds [`BlissConfig::BLACKLIST_THRESHOLD`]
//! consecutive requests is blacklisted for
//! [`BlissConfig::CLEAR_INTERVAL`] cycles. Non-blacklisted
//! requests strictly outrank blacklisted ones; within a class, plain
//! FR-FCFS.

use dbp_dram::Cycle;

use crate::profiler::ProfilerState;
use crate::request::MemRequest;
use crate::scheduler::{row_hit_then_age, Scheduler};

/// BLISS's tuning at the paper's defaults, fixed (see the
/// [`crate::scheduler`] docs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlissConfig;

impl BlissConfig {
    /// Consecutive services that trigger blacklisting (paper: 4).
    pub const BLACKLIST_THRESHOLD: u32 = 4;
    /// Blacklist clearing interval, DRAM cycles (paper: 10 000).
    pub const CLEAR_INTERVAL: Cycle = 10_000;
}

/// The BLISS scheduler state.
#[derive(Debug)]
pub struct Bliss {
    blacklisted: Vec<bool>,
    last_served: Option<usize>,
    streak: u32,
    next_clear: Cycle,
}

impl Bliss {
    /// Build a BLISS scheduler for `threads` threads.
    pub fn new(threads: usize) -> Self {
        Bliss {
            blacklisted: vec![false; threads],
            last_served: None,
            streak: 0,
            next_clear: BlissConfig::CLEAR_INTERVAL,
        }
    }

    /// Whether `thread` is currently blacklisted.
    pub fn is_blacklisted(&self, thread: usize) -> bool {
        self.blacklisted[thread]
    }
}

impl Scheduler for Bliss {
    fn tick(&mut self, now: Cycle, _prof: &ProfilerState, _read_queues: &[Vec<MemRequest>]) {
        if now >= self.next_clear {
            self.blacklisted.fill(false);
            self.next_clear = now + BlissConfig::CLEAR_INTERVAL;
        }
    }

    fn prefer(&self, a: &MemRequest, a_hit: bool, b: &MemRequest, b_hit: bool) -> bool {
        let (ba, bb) = (self.blacklisted[a.thread], self.blacklisted[b.thread]);
        if ba != bb {
            return !ba; // the clean thread wins
        }
        row_hit_then_age(a, a_hit, b, b_hit)
    }

    fn next_wake(&self, _now: Cycle, _read_queues: &[Vec<MemRequest>]) -> Option<Cycle> {
        // `next_clear` re-anchors on whichever tick crosses it, so a late
        // tick would drift the clearing cadence: exact wake required.
        Some(self.next_clear)
    }

    fn on_serviced(&mut self, req: &MemRequest, _now: Cycle) {
        if self.last_served == Some(req.thread) {
            self.streak += 1;
            if self.streak >= BlissConfig::BLACKLIST_THRESHOLD {
                self.blacklisted[req.thread] = true;
            }
        } else {
            self.last_served = Some(req.thread);
            self.streak = 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve(s: &mut Bliss, thread: usize, times: u32) {
        for i in 0..times {
            s.on_serviced(&MemRequest::demand_read(u64::from(i), thread, 0, 0), 0);
        }
    }

    #[test]
    fn streaks_get_blacklisted() {
        let mut s = Bliss::new(2);
        serve(&mut s, 0, BlissConfig::BLACKLIST_THRESHOLD - 1);
        assert!(!s.is_blacklisted(0));
        serve(&mut s, 0, 1);
        assert!(s.is_blacklisted(0));
        assert!(!s.is_blacklisted(1));
    }

    #[test]
    fn interleaved_service_never_blacklists() {
        let mut s = Bliss::new(2);
        for _ in 0..20 {
            serve(&mut s, 0, 2);
            serve(&mut s, 1, 2);
        }
        assert!(!s.is_blacklisted(0));
        assert!(!s.is_blacklisted(1));
    }

    #[test]
    fn blacklisted_requests_lose() {
        let mut s = Bliss::new(2);
        serve(&mut s, 0, BlissConfig::BLACKLIST_THRESHOLD);
        let hog = MemRequest::demand_read(0, 0, 0, 1); // old, row hit
        let victim = MemRequest::demand_read(1, 1, 0, 9);
        assert!(s.prefer(&victim, false, &hog, true));
    }

    #[test]
    fn clearing_restores_priority() {
        let mut s = Bliss::new(2);
        serve(&mut s, 0, BlissConfig::BLACKLIST_THRESHOLD);
        assert!(s.is_blacklisted(0));
        s.tick(BlissConfig::CLEAR_INTERVAL, &ProfilerState::new(2, 8), &[]);
        assert!(!s.is_blacklisted(0));
    }
}
