//! Parallelism-aware batch scheduling in the spirit of PAR-BS
//! (Mutlu & Moscibroda, ISCA 2008).
//!
//! Requests are grouped into batches: when the current batch drains, the
//! oldest [`ParBsConfig::BATCH_CAP`] requests per (thread, bank) are
//! marked. Marked requests strictly outrank unmarked ones (no thread can
//! be starved for longer than a batch), and within the batch threads are
//! ranked shortest-job-first (fewest marked requests, by max-per-bank
//! then total), which preserves each thread's bank-level parallelism.

use dbp_dram::Cycle;
use dbp_obs::{FxHashMap, FxHashSet};

use crate::profiler::ProfilerState;
use crate::request::MemRequest;
use crate::scheduler::{row_hit_then_age, Scheduler};

/// PAR-BS's tuning, fixed (see the [`crate::scheduler`] docs).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ParBsConfig;

impl ParBsConfig {
    /// Requests marked per (thread, bank) when a batch forms.
    pub const BATCH_CAP: usize = 5;
}

/// The PAR-BS scheduler state.
#[derive(Debug)]
pub struct ParBs {
    marked: FxHashSet<u64>,
    rank_of: Vec<u32>,
}

impl ParBs {
    /// Build a PAR-BS scheduler for `threads` threads.
    pub fn new(threads: usize) -> Self {
        ParBs { marked: FxHashSet::default(), rank_of: vec![0; threads] }
    }

    /// Whether a request is in the current batch.
    pub fn is_marked(&self, id: u64) -> bool {
        self.marked.contains(&id)
    }

    /// Number of requests still marked.
    pub fn batch_remaining(&self) -> usize {
        self.marked.len()
    }

    fn form_batch(&mut self, read_queues: &[Vec<MemRequest>]) {
        // Oldest BATCH_CAP per (thread, bank-in-channel).
        let mut per_key: FxHashMap<(usize, u32, u32, u32), Vec<&MemRequest>> = FxHashMap::default();
        for q in read_queues {
            for r in q {
                per_key.entry((r.thread, r.channel, r.rank, r.bank)).or_default().push(r);
            }
        }
        let mut per_thread_total = vec![0u64; self.rank_of.len()];
        let mut per_thread_max = vec![0u64; self.rank_of.len()];
        for ((thread, ..), mut reqs) in per_key {
            reqs.sort_by_key(|a| (a.arrival, a.id));
            let marked = reqs.iter().take(ParBsConfig::BATCH_CAP);
            let mut count = 0u64;
            for r in marked {
                self.marked.insert(r.id);
                count += 1;
            }
            per_thread_total[thread] += count;
            per_thread_max[thread] = per_thread_max[thread].max(count);
        }
        // Shortest job first: smaller max-per-bank, then smaller total.
        let mut order: Vec<usize> = (0..self.rank_of.len()).collect();
        order.sort_by_key(|&t| (per_thread_max[t], per_thread_total[t], t));
        for (rank, &t) in order.iter().enumerate() {
            self.rank_of[t] = rank as u32;
        }
    }
}

impl Scheduler for ParBs {
    fn tick(&mut self, _now: Cycle, _prof: &ProfilerState, read_queues: &[Vec<MemRequest>]) {
        if self.marked.is_empty() && read_queues.iter().any(|q| !q.is_empty()) {
            self.form_batch(read_queues);
        }
    }

    fn prefer(&self, a: &MemRequest, a_hit: bool, b: &MemRequest, b_hit: bool) -> bool {
        let (ma, mb) = (self.marked.contains(&a.id), self.marked.contains(&b.id));
        if ma != mb {
            return ma;
        }
        let (ra, rb) = (self.rank_of[a.thread], self.rank_of[b.thread]);
        if ma && ra != rb {
            return ra < rb;
        }
        row_hit_then_age(a, a_hit, b, b_hit)
    }

    fn next_wake(&self, now: Cycle, read_queues: &[Vec<MemRequest>]) -> Option<Cycle> {
        // Batch formation anchors on the first tick where the previous
        // batch has drained and a request is waiting, and the marks it
        // takes are a snapshot of the queues *at that tick* — a late
        // formation would mark requests that arrived in between. Force
        // the very next tick to execute whenever formation is pending;
        // that tick forms the batch, so the wake disarms itself.
        if self.marked.is_empty() && read_queues.iter().any(|q| !q.is_empty()) {
            Some(now + 1)
        } else {
            None
        }
    }

    fn on_serviced(&mut self, req: &MemRequest, _now: Cycle) {
        self.marked.remove(&req.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, thread: usize, bank: u32, arrival: Cycle) -> MemRequest {
        let mut r = MemRequest::demand_read(id, thread, 0, arrival);
        r.bank = bank;
        r
    }

    #[test]
    fn batch_marks_oldest_per_thread_bank() {
        let mut s = ParBs::new(2);
        let cap = ParBsConfig::BATCH_CAP as u64;
        // One more than the cap to the same (thread, bank), arriving
        // youngest first: the oldest `cap` are marked, not the first
        // queued. Plus one request from another thread.
        let mut queue: Vec<MemRequest> = (0..=cap).rev().map(|i| req(i, 0, 0, i)).collect();
        queue.push(req(100, 1, 1, 3));
        s.tick(0, &ProfilerState::new(2, 8), &[queue]);
        assert!((0..cap).all(|i| s.is_marked(i)));
        assert!(!s.is_marked(cap), "youngest past the cap: unmarked");
        assert!(s.is_marked(100));
    }

    #[test]
    fn marked_beats_unmarked() {
        let mut s = ParBs::new(2);
        let cap = ParBsConfig::BATCH_CAP as u64;
        let queues = vec![(0..=cap).map(|i| req(i, 0, 0, i)).collect::<Vec<_>>()];
        s.tick(0, &ProfilerState::new(2, 8), &queues);
        let a = req(0, 0, 0, 0);
        let b = req(cap, 0, 0, cap);
        assert!(s.prefer(&a, false, &b, true), "marked miss beats unmarked hit");
    }

    #[test]
    fn shortest_job_ranks_first_within_batch() {
        let mut s = ParBs::new(2);
        // Thread 0: 1 request. Thread 1: 4 requests on one bank.
        let queues = vec![vec![
            req(0, 0, 0, 0),
            req(1, 1, 1, 0),
            req(2, 1, 1, 1),
            req(3, 1, 1, 2),
            req(4, 1, 1, 3),
        ]];
        s.tick(0, &ProfilerState::new(2, 8), &queues);
        let a = req(0, 0, 0, 0);
        let b = req(1, 1, 1, 0);
        assert!(s.prefer(&a, false, &b, false));
    }

    #[test]
    fn wake_pends_only_while_formation_is_due() {
        let mut s = ParBs::new(1);
        assert_eq!(s.next_wake(10, &[vec![]]), None, "empty queues: nothing to form");
        let queues = vec![vec![req(0, 0, 0, 0)]];
        assert_eq!(s.next_wake(10, &queues), Some(11), "drained batch + queued request");
        s.tick(11, &ProfilerState::new(1, 8), &queues);
        assert_eq!(s.next_wake(11, &queues), None, "formation disarms the wake");
    }

    #[test]
    fn service_drains_batch_and_reforms() {
        let mut s = ParBs::new(1);
        let queues = vec![vec![req(0, 0, 0, 0)]];
        s.tick(0, &ProfilerState::new(1, 8), &queues);
        assert_eq!(s.batch_remaining(), 1);
        s.on_serviced(&req(0, 0, 0, 0), 1);
        assert_eq!(s.batch_remaining(), 0);
        let queues2 = vec![vec![req(5, 0, 0, 9)]];
        s.tick(2, &ProfilerState::new(1, 8), &queues2);
        assert!(s.is_marked(5));
    }
}
