//! Parallelism-aware batch scheduling in the spirit of PAR-BS
//! (Mutlu & Moscibroda, ISCA 2008).
//!
//! Requests are grouped into batches: when the current batch drains, the
//! oldest `batch_cap` requests per (thread, bank) are marked. Marked
//! requests strictly outrank unmarked ones (no thread can be starved for
//! longer than a batch), and within the batch threads are ranked
//! shortest-job-first (fewest marked requests, by max-per-bank then
//! total), which preserves each thread's bank-level parallelism.

use dbp_dram::Cycle;
use dbp_obs::{FxHashMap, FxHashSet};

use crate::profiler::ProfilerState;
use crate::request::MemRequest;
use crate::scheduler::{row_hit_then_age, Scheduler};

/// PAR-BS tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParBsConfig {
    /// Requests marked per (thread, bank) when a batch forms.
    pub batch_cap: usize,
}

impl Default for ParBsConfig {
    fn default() -> Self {
        ParBsConfig { batch_cap: 5 }
    }
}

impl ParBsConfig {
    /// Check the tuning knobs.
    ///
    /// # Errors
    ///
    /// Names the first field holding a value the scheduler cannot run on.
    pub fn validate(&self) -> Result<(), String> {
        if self.batch_cap == 0 {
            return Err("batch_cap must be positive".into());
        }
        Ok(())
    }
}

/// The PAR-BS scheduler state.
#[derive(Debug)]
pub struct ParBs {
    cfg: ParBsConfig,
    marked: FxHashSet<u64>,
    rank_of: Vec<u32>,
}

impl ParBs {
    /// Build a PAR-BS scheduler for `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not [`ParBsConfig::validate`].
    pub fn new(cfg: ParBsConfig, threads: usize) -> Self {
        cfg.validate().expect("invalid ParBsConfig");
        ParBs { cfg, marked: FxHashSet::default(), rank_of: vec![0; threads] }
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
        // Oldest batch_cap per (thread, bank-in-channel).
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
            let marked = reqs.iter().take(self.cfg.batch_cap);
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
    fn name(&self) -> &'static str {
        "PAR-BS"
    }

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
        let mut s = ParBs::new(ParBsConfig { batch_cap: 2 }, 2);
        let queues = vec![vec![
            req(0, 0, 0, 0),
            req(1, 0, 0, 1),
            req(2, 0, 0, 2), // third to same (thread,bank): unmarked
            req(3, 1, 1, 3),
        ]];
        s.tick(0, &ProfilerState::new(2, 8), &queues);
        assert!(s.is_marked(0));
        assert!(s.is_marked(1));
        assert!(!s.is_marked(2));
        assert!(s.is_marked(3));
    }

    #[test]
    fn marked_beats_unmarked() {
        let mut s = ParBs::new(ParBsConfig { batch_cap: 1 }, 2);
        let queues = vec![vec![req(0, 0, 0, 0), req(1, 0, 0, 5)]];
        s.tick(0, &ProfilerState::new(2, 8), &queues);
        let a = req(0, 0, 0, 0);
        let b = req(1, 0, 0, 5);
        assert!(s.prefer(&a, false, &b, true), "marked miss beats unmarked hit");
    }

    #[test]
    fn shortest_job_ranks_first_within_batch() {
        let mut s = ParBs::new(ParBsConfig { batch_cap: 5 }, 2);
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
        let mut s = ParBs::new(ParBsConfig::default(), 1);
        assert_eq!(s.next_wake(10, &[vec![]]), None, "empty queues: nothing to form");
        let queues = vec![vec![req(0, 0, 0, 0)]];
        assert_eq!(s.next_wake(10, &queues), Some(11), "drained batch + queued request");
        s.tick(11, &ProfilerState::new(1, 8), &queues);
        assert_eq!(s.next_wake(11, &queues), None, "formation disarms the wake");
    }

    #[test]
    fn service_drains_batch_and_reforms() {
        let mut s = ParBs::new(ParBsConfig { batch_cap: 1 }, 1);
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
