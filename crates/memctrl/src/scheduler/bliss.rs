//! BLISS: the Blacklisting memory scheduler (Subramanian, Lee, Seshadri,
//! Rastogi, Mutlu — ICCD 2014), a contemporary low-complexity
//! alternative to full thread ranking.
//!
//! Observation: full per-thread ranking (ATLAS/TCM) is expensive and can
//! over-penalise; most interference comes from threads whose requests are
//! served in long *streaks*. BLISS counts consecutive services per
//! thread; a thread that exceeds `blacklist_threshold` consecutive
//! requests is blacklisted for `clear_interval` cycles. Non-blacklisted
//! requests strictly outrank blacklisted ones; within a class, plain
//! FR-FCFS.

use dbp_dram::Cycle;

use crate::profiler::ProfilerState;
use crate::request::MemRequest;
use crate::scheduler::{row_hit_then_age, Scheduler};

/// BLISS tuning knobs (paper defaults: 4 consecutive requests, clearing
/// every 10 000 cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlissConfig {
    /// Consecutive services that trigger blacklisting.
    pub blacklist_threshold: u32,
    /// Blacklist clearing interval, DRAM cycles.
    pub clear_interval: Cycle,
}

impl Default for BlissConfig {
    fn default() -> Self {
        BlissConfig { blacklist_threshold: 4, clear_interval: 10_000 }
    }
}

impl BlissConfig {
    /// Check the tuning knobs.
    ///
    /// # Errors
    ///
    /// Names the first field holding a value the scheduler cannot run on.
    pub fn validate(&self) -> Result<(), String> {
        if self.blacklist_threshold == 0 {
            return Err("blacklist_threshold must be positive".into());
        }
        if self.clear_interval == 0 {
            return Err("clear_interval must be positive".into());
        }
        Ok(())
    }
}

/// The BLISS scheduler state.
#[derive(Debug)]
pub struct Bliss {
    cfg: BlissConfig,
    blacklisted: Vec<bool>,
    last_served: Option<usize>,
    streak: u32,
    next_clear: Cycle,
}

impl Bliss {
    /// Build a BLISS scheduler for `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not [`BlissConfig::validate`].
    pub fn new(cfg: BlissConfig, threads: usize) -> Self {
        cfg.validate().expect("invalid BlissConfig");
        Bliss {
            cfg,
            blacklisted: vec![false; threads],
            last_served: None,
            streak: 0,
            next_clear: cfg.clear_interval,
        }
    }

    /// Whether `thread` is currently blacklisted.
    pub fn is_blacklisted(&self, thread: usize) -> bool {
        self.blacklisted[thread]
    }
}

impl Scheduler for Bliss {
    fn name(&self) -> &'static str {
        "BLISS"
    }

    fn tick(&mut self, now: Cycle, _prof: &ProfilerState, _read_queues: &[Vec<MemRequest>]) {
        if now >= self.next_clear {
            self.blacklisted.fill(false);
            self.next_clear = now + self.cfg.clear_interval;
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
            if self.streak >= self.cfg.blacklist_threshold {
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
        let mut s = Bliss::new(BlissConfig::default(), 2);
        serve(&mut s, 0, 3);
        assert!(!s.is_blacklisted(0));
        serve(&mut s, 0, 1);
        assert!(s.is_blacklisted(0));
        assert!(!s.is_blacklisted(1));
    }

    #[test]
    fn interleaved_service_never_blacklists() {
        let mut s = Bliss::new(BlissConfig::default(), 2);
        for _ in 0..20 {
            serve(&mut s, 0, 2);
            serve(&mut s, 1, 2);
        }
        assert!(!s.is_blacklisted(0));
        assert!(!s.is_blacklisted(1));
    }

    #[test]
    fn blacklisted_requests_lose() {
        let mut s = Bliss::new(BlissConfig::default(), 2);
        serve(&mut s, 0, 4);
        let hog = MemRequest::demand_read(0, 0, 0, 1); // old, row hit
        let victim = MemRequest::demand_read(1, 1, 0, 9);
        assert!(s.prefer(&victim, false, &hog, true));
    }

    #[test]
    fn clearing_restores_priority() {
        let mut s = Bliss::new(BlissConfig { blacklist_threshold: 2, clear_interval: 100 }, 2);
        serve(&mut s, 0, 2);
        assert!(s.is_blacklisted(0));
        s.tick(100, &ProfilerState::new(2, 8), &[]);
        assert!(!s.is_blacklisted(0));
    }
}
