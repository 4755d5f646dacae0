//! Thread Cluster Memory scheduling (Kim, Papamichael, Mutlu,
//! Harchol-Balter — MICRO 2010), the scheduler the paper composes DBP
//! with (DBP-TCM).
//!
//! Every quantum, threads are split into a **latency-sensitive** cluster
//! (the least memory-intensive threads, up to a bandwidth-share threshold)
//! and a **bandwidth-sensitive** cluster (everyone else):
//!
//! - Latency-sensitive threads are strictly prioritised and ranked by
//!   ascending intensity — they barely use memory, so serving them first
//!   costs the intensive threads almost nothing and helps system
//!   throughput enormously.
//! - Bandwidth-sensitive threads are ranked by **niceness** (high
//!   bank-level parallelism and low row-buffer locality = nice, i.e. such
//!   a thread suffers most from interference and causes least) and the
//!   ranking is **shuffled** periodically so no intensive thread is stuck
//!   at the bottom — this is what gives TCM its fairness.
//!
//! The shuffle implemented here is the rotating variant of the paper's
//! insertion shuffle: every [`TcmConfig::SHUFFLE_INTERVAL`] the priority
//! order of the bandwidth cluster rotates by one position, giving each
//! thread equal time at each rank while changing only adjacent positions
//! per step.

use dbp_dram::Cycle;

use crate::profiler::{ProfilerState, ThreadProf};
use crate::request::MemRequest;
use crate::scheduler::{row_hit_then_age, Scheduler};

/// TCM's tuning, fixed (see the [`crate::scheduler`] docs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TcmConfig;

impl TcmConfig {
    /// Clustering quantum in DRAM cycles. The paper's TCM quantum is 1 M
    /// CPU cycles on runs of hundreds of millions of instructions; this
    /// reproduction runs a few million instructions per thread, so the
    /// quantum is scaled down proportionally to keep several
    /// re-clusterings per run.
    pub const QUANTUM: Cycle = 50_000;
    /// Shuffle interval in DRAM cycles (paper: 800).
    pub const SHUFFLE_INTERVAL: Cycle = 800;
    /// Fraction of total bandwidth usage that may sit in the
    /// latency-sensitive cluster (paper sweeps 2/24 .. 6/24; 4/24 works
    /// well).
    pub const CLUSTER_THRESH: f64 = 4.0 / 24.0;
}

/// The TCM scheduler state.
#[derive(Debug)]
pub struct Tcm {
    /// Priority rank per thread; lower is served first.
    rank_of: Vec<u32>,
    latency_cluster: Vec<bool>,
    /// Bandwidth-cluster threads in current priority order (front = best).
    bw_order: Vec<usize>,
    /// Cumulative-counter snapshot at the last quantum boundary.
    prev: Vec<ThreadProf>,
    next_quantum: Cycle,
    next_shuffle: Cycle,
}

impl Tcm {
    /// Build a TCM scheduler for `threads` threads.
    ///
    /// Until the first quantum completes there is no profile to cluster
    /// on, so all threads start at equal rank (pure FR-FCFS behaviour).
    pub fn new(threads: usize) -> Self {
        Tcm {
            rank_of: vec![0; threads],
            latency_cluster: vec![true; threads],
            bw_order: Vec::new(),
            prev: vec![ThreadProf::default(); threads],
            next_quantum: TcmConfig::QUANTUM,
            next_shuffle: TcmConfig::SHUFFLE_INTERVAL,
        }
    }

    /// Whether `thread` is currently in the latency-sensitive cluster.
    pub fn in_latency_cluster(&self, thread: usize) -> bool {
        self.latency_cluster[thread]
    }

    /// Current rank of `thread` (lower = higher priority).
    pub fn rank(&self, thread: usize) -> u32 {
        self.rank_of[thread]
    }

    fn requantize(&mut self, prof: &ProfilerState) {
        let n = self.rank_of.len();
        let window: Vec<ThreadProf> = (0..n)
            .map(|t| {
                let cur = prof.cumulative(t);
                let d = cur.delta(&self.prev[t]);
                self.prev[t] = cur;
                d
            })
            .collect();
        // Intensity: MPKI when instruction counts are available, else raw
        // read counts (proportional under equal-length quanta).
        let intensity = |t: usize| {
            let w = &window[t];
            if w.instructions > 0 {
                w.mpki()
            } else {
                w.reads as f64
            }
        };
        let total_bw: u64 = window.iter().map(|w| w.bus_cycles).sum();
        let mut by_intensity: Vec<usize> = (0..n).collect();
        by_intensity.sort_by(|&a, &b| {
            intensity(a)
                .partial_cmp(&intensity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        // Latency-sensitive cluster: least intensive threads whose summed
        // bandwidth stays below the threshold.
        let budget = TcmConfig::CLUSTER_THRESH * total_bw as f64;
        let mut used = 0u64;
        self.latency_cluster = vec![false; n];
        let mut ls: Vec<usize> = Vec::new();
        let mut bw: Vec<usize> = Vec::new();
        for &t in &by_intensity {
            if (used + window[t].bus_cycles) as f64 <= budget || window[t].bus_cycles == 0 {
                used += window[t].bus_cycles;
                self.latency_cluster[t] = true;
                ls.push(t);
            } else {
                bw.push(t);
            }
        }
        // Niceness for the bandwidth cluster: blp_rank - rbl_rank.
        let mut blp_sorted = bw.clone();
        blp_sorted.sort_by(|&a, &b| {
            window[a]
                .blp()
                .partial_cmp(&window[b].blp())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut rbl_sorted = bw.clone();
        rbl_sorted.sort_by(|&a, &b| {
            window[a]
                .rbl()
                .partial_cmp(&window[b].rbl())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let mut niceness = vec![0i64; n];
        for (r, &t) in blp_sorted.iter().enumerate() {
            niceness[t] += r as i64;
        }
        for (r, &t) in rbl_sorted.iter().enumerate() {
            niceness[t] -= r as i64;
        }
        // Nicest first.
        bw.sort_by_key(|&t| (std::cmp::Reverse(niceness[t]), t));
        self.bw_order = bw;
        self.rebuild_ranks(&ls);
        if dbp_obs::recording() {
            dbp_obs::emit(dbp_obs::EventKind::TcmCluster {
                latency: ls,
                bandwidth: self.bw_order.clone(),
            });
        }
    }

    fn rebuild_ranks(&mut self, ls: &[usize]) {
        // Latency cluster keeps ranks 0..k (by ascending intensity order
        // as passed in); bandwidth cluster follows in bw_order.
        let mut rank = 0u32;
        for &t in ls {
            self.rank_of[t] = rank;
            rank += 1;
        }
        for &t in &self.bw_order {
            self.rank_of[t] = rank;
            rank += 1;
        }
    }

    fn shuffle(&mut self) {
        if self.bw_order.len() > 1 {
            let head = self.bw_order.remove(0);
            self.bw_order.push(head);
            // Latency-cluster ranks are unchanged; recompute bw ranks.
            let base = (self.rank_of.len() - self.bw_order.len()) as u32;
            for (i, &t) in self.bw_order.iter().enumerate() {
                self.rank_of[t] = base + i as u32;
            }
            if dbp_obs::recording() {
                dbp_obs::emit(dbp_obs::EventKind::TcmShuffle { order: self.bw_order.clone() });
            }
        }
    }
}

impl Scheduler for Tcm {
    fn tick(&mut self, now: Cycle, prof: &ProfilerState, _read_queues: &[Vec<MemRequest>]) {
        if now >= self.next_quantum {
            self.requantize(prof);
            self.next_quantum = now + TcmConfig::QUANTUM;
        }
        if now >= self.next_shuffle {
            self.shuffle();
            self.next_shuffle = now + TcmConfig::SHUFFLE_INTERVAL;
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
        // Quantum and shuffle boundaries anchor on the tick that crosses
        // them (`next_* = now + interval`) and the requantize snapshot
        // reads time-dependent profiler state, so the driver must tick at
        // exactly these cycles.
        Some(self.next_quantum.min(self.next_shuffle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof_with(
        reads: &[u64],
        bus: &[u64],
        blp: &[f64],
        rbl_hits: &[(u64, u64)],
    ) -> ProfilerState {
        let n = reads.len();
        let mut p = ProfilerState::new(n, 16);
        for t in 0..n {
            for _ in 0..reads[t] {
                p.on_enqueue(t, t % 16, false, true);
            }
            // Drain them as serviced to move counters; fake bus usage.
            for i in 0..reads[t] {
                let outcome = if i < rbl_hits[t].0 {
                    Some(crate::profiler::RowOutcome::Hit)
                } else if i < rbl_hits[t].0 + rbl_hits[t].1 {
                    Some(crate::profiler::RowOutcome::Conflict)
                } else {
                    None
                };
                p.on_serviced(t, t % 16, false, outcome, 4, true);
            }
            // Manual bus + blp injection via public API is indirect; use
            // instructions to steer intensity instead.
            p.add_instructions(t, 1000);
            let _ = (bus, blp);
        }
        p
    }

    #[test]
    fn low_intensity_threads_get_priority() {
        // Thread 0: 2 reads (low MPKI). Thread 1: 200 reads (high MPKI).
        let prof = prof_with(&[2, 200], &[0, 0], &[0.0, 0.0], &[(0, 0), (0, 0)]);
        let mut tcm = Tcm::new(2);
        tcm.tick(TcmConfig::QUANTUM, &prof, &[]);
        assert!(tcm.in_latency_cluster(0));
        assert!(tcm.rank(0) < tcm.rank(1));
        let a = MemRequest::demand_read(0, 0, 0, 100); // thread 0, young
        let b = MemRequest::demand_read(1, 1, 0, 1); // thread 1, old row hit
        assert!(tcm.prefer(&a, false, &b, true), "cluster outranks row hits");
    }

    #[test]
    fn shuffle_rotates_bw_cluster() {
        let prof = prof_with(&[500, 500, 500], &[0, 0, 0], &[0.0; 3], &[(0, 0), (0, 0), (0, 0)]);
        let mut tcm = Tcm::new(3);
        tcm.tick(TcmConfig::QUANTUM, &prof, &[]);
        // Equal heavy threads: each is over the latency cluster's budget.
        assert!((0..3).all(|t| !tcm.in_latency_cluster(t)));
        let before: Vec<u32> = (0..3).map(|t| tcm.rank(t)).collect();
        tcm.tick(TcmConfig::QUANTUM + TcmConfig::SHUFFLE_INTERVAL, &prof, &[]);
        let after: Vec<u32> = (0..3).map(|t| tcm.rank(t)).collect();
        assert_ne!(before, after, "shuffle must change the order");
        // Every thread still has a unique rank.
        let mut sorted = after.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
    }

    #[test]
    fn ranks_are_always_a_permutation() {
        let prof = prof_with(&[5, 100, 40, 7], &[0; 4], &[0.0; 4], &[(0, 0); 4]);
        let mut tcm = Tcm::new(4);
        // Ticks at a third of the shuffle interval cross every quantum
        // and shuffle boundary of three quanta, at varying offsets.
        let step = (TcmConfig::SHUFFLE_INTERVAL / 3) as usize;
        for now in (TcmConfig::QUANTUM..=3 * TcmConfig::QUANTUM).step_by(step) {
            tcm.tick(now, &prof, &[]);
            let mut ranks: Vec<u32> = (0..4).map(|t| tcm.rank(t)).collect();
            ranks.sort_unstable();
            assert_eq!(ranks, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn same_thread_falls_back_to_row_hit() {
        let tcm = Tcm::new(2);
        let a = MemRequest::demand_read(0, 0, 0, 5);
        let b = MemRequest::demand_read(1, 0, 0, 1);
        assert!(tcm.prefer(&a, true, &b, false));
    }
}
