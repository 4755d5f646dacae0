//! ATLAS: Adaptive per-thread Least-Attained-Service scheduling
//! (Kim, Han, Mutlu, Harchol-Balter — HPCA 2010), TCM's predecessor.
//!
//! Threads are ranked each quantum by *attained service* — the data-bus
//! time their requests consumed, exponentially decayed across quanta —
//! and the least-served thread gets the highest priority. Long-run
//! bandwidth hogs therefore sink, short bursts are served quickly. ATLAS
//! improves throughput strongly but is known to be unfair to the most
//! intensive threads (their attained service is always highest), which
//! is exactly what TCM's clustering later fixed.

use dbp_dram::Cycle;

use crate::profiler::{ProfilerState, ThreadProf};
use crate::request::MemRequest;
use crate::scheduler::{row_hit_then_age, Scheduler};

/// ATLAS's tuning, fixed (see the [`crate::scheduler`] docs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AtlasConfig;

impl AtlasConfig {
    /// Ranking quantum, DRAM cycles (paper: 10 M CPU cycles; scaled down
    /// like TCM's).
    pub const QUANTUM: Cycle = 50_000;
    /// Exponential decay applied to history at each quantum (paper: 0.875).
    pub const ALPHA: f64 = 0.875;
}

/// The ATLAS scheduler state.
#[derive(Debug)]
pub struct Atlas {
    /// Decayed attained service per thread.
    score: Vec<f64>,
    /// Rank per thread (lower = served first).
    rank_of: Vec<u32>,
    prev: Vec<ThreadProf>,
    next_quantum: Cycle,
}

impl Atlas {
    /// Build an ATLAS scheduler for `threads` threads.
    pub fn new(threads: usize) -> Self {
        Atlas {
            score: vec![0.0; threads],
            rank_of: vec![0; threads],
            prev: vec![ThreadProf::default(); threads],
            next_quantum: AtlasConfig::QUANTUM,
        }
    }

    /// The decayed attained service of `thread`.
    pub fn attained(&self, thread: usize) -> f64 {
        self.score[thread]
    }

    /// Current rank of `thread` (lower = higher priority).
    pub fn rank(&self, thread: usize) -> u32 {
        self.rank_of[thread]
    }

    fn requantize(&mut self, prof: &ProfilerState) {
        let n = self.score.len();
        for t in 0..n {
            let cur = prof.cumulative(t);
            let delta = cur.delta(&self.prev[t]);
            self.prev[t] = cur;
            self.score[t] = AtlasConfig::ALPHA * self.score[t] + delta.bus_cycles as f64;
        }
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            self.score[a]
                .partial_cmp(&self.score[b])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        for (rank, &t) in order.iter().enumerate() {
            self.rank_of[t] = rank as u32;
        }
    }
}

impl Scheduler for Atlas {
    fn tick(&mut self, now: Cycle, prof: &ProfilerState, _read_queues: &[Vec<MemRequest>]) {
        if now >= self.next_quantum {
            self.requantize(prof);
            self.next_quantum = now + AtlasConfig::QUANTUM;
        }
    }

    fn prefer(&self, a: &MemRequest, a_hit: bool, b: &MemRequest, b_hit: bool) -> bool {
        let (ra, rb) = (self.rank_of[a.thread], self.rank_of[b.thread]);
        if ra != rb {
            return ra < rb;
        }
        row_hit_then_age(a, a_hit, b, b_hit)
    }

    fn next_wake(&self, _now: Cycle, _read_queues: &[Vec<MemRequest>]) -> Option<Cycle> {
        // The quantum boundary re-anchors on the crossing tick and the
        // requantize reads time-dependent profiler state: exact wake.
        Some(self.next_quantum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof_with_bus(bus: &[u32]) -> ProfilerState {
        let mut p = ProfilerState::new(bus.len(), 8);
        for (t, &b) in bus.iter().enumerate() {
            for _ in 0..b {
                p.on_enqueue(t, 0, false, true);
                p.on_serviced(t, 0, false, 4, true);
            }
        }
        p
    }

    #[test]
    fn least_served_thread_ranks_first() {
        let prof = prof_with_bus(&[100, 3, 40]);
        let mut atlas = Atlas::new(3);
        atlas.tick(AtlasConfig::QUANTUM, &prof, &[]);
        assert!(atlas.rank(1) < atlas.rank(2));
        assert!(atlas.rank(2) < atlas.rank(0));
        let light = MemRequest::demand_read(0, 1, 0, 9);
        let heavy = MemRequest::demand_read(1, 0, 0, 1);
        assert!(atlas.prefer(&light, false, &heavy, true));
    }

    #[test]
    fn history_decays() {
        let mut atlas = Atlas::new(2);
        // Quantum 1: thread 0 heavy.
        let p1 = prof_with_bus(&[100, 0]);
        atlas.tick(AtlasConfig::QUANTUM, &p1, &[]);
        let after_one = atlas.attained(0);
        assert!(after_one > 0.0);
        // Quantum 2: nobody does anything; the old service decays.
        atlas.tick(2 * AtlasConfig::QUANTUM, &p1, &[]);
        assert!((atlas.attained(0) - after_one * AtlasConfig::ALPHA).abs() < 1e-9);
    }

    #[test]
    fn same_rank_falls_back_to_frfcfs() {
        let atlas = Atlas::new(2);
        let a = MemRequest::demand_read(0, 0, 0, 5);
        let b = MemRequest::demand_read(1, 1, 0, 1);
        // No quantum yet: all ranks 0 -> row-hit then age.
        assert!(atlas.prefer(&a, true, &b, false));
        assert!(atlas.prefer(&b, false, &a, false));
    }
}
