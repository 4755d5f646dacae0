//! Per-thread run-time memory profiling.
//!
//! These counters are the measurement half of the paper: DBP's demand
//! estimator and TCM's clustering both consume the per-epoch memory
//! intensity (MPKI), row-buffer locality (RBL), and bank-level parallelism
//! (BLP) collected here.
//!
//! BLP is sampled the way the TCM/DBP literature defines it: on every DRAM
//! cycle in which a thread has at least one outstanding read, accumulate
//! the number of distinct banks holding its reads; BLP is the average.

/// Epoch counters for one thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ThreadProf {
    /// Demand reads enqueued (the thread's LLC-miss read traffic).
    pub reads: u64,
    /// Writes enqueued on the thread's behalf (write-backs, migration).
    pub writes: u64,
    /// Reads serviced (column command issued).
    pub served_reads: u64,
    /// Writes serviced.
    pub served_writes: u64,
    /// First-service classification: open row matched.
    pub row_hits: u64,
    /// First-service classification: bank was closed.
    pub row_misses: u64,
    /// First-service classification: another row was open.
    pub row_conflicts: u64,
    /// Data-bus cycles consumed (attained bandwidth service).
    pub bus_cycles: u64,
    /// Sum of read queueing+service latencies, DRAM cycles.
    pub read_latency_sum: u64,
    /// Completed demand reads (for average latency).
    pub reads_completed: u64,
    /// Instructions retired this epoch (fed by the simulator).
    pub instructions: u64,
    /// Sum over sampled cycles of banks holding this thread's reads.
    pub blp_accum: u64,
    /// Sampled cycles in which the thread had outstanding reads.
    pub blp_cycles: u64,
}

impl ThreadProf {
    /// Memory intensity: demand reads (LLC misses) per kilo-instruction.
    /// Falls back to 0 when no instruction count was fed.
    pub fn mpki(&self) -> f64 {
        if self.instructions == 0 {
            return 0.0;
        }
        self.reads as f64 * 1000.0 / self.instructions as f64
    }

    /// Row-buffer locality: fraction of serviced requests that hit the
    /// open row.
    pub fn rbl(&self) -> f64 {
        let total = self.row_hits + self.row_misses + self.row_conflicts;
        if total == 0 {
            return 0.0;
        }
        self.row_hits as f64 / total as f64
    }

    /// Average bank-level parallelism while the thread had outstanding
    /// reads.
    pub fn blp(&self) -> f64 {
        if self.blp_cycles == 0 {
            return 0.0;
        }
        self.blp_accum as f64 / self.blp_cycles as f64
    }

    /// Average read latency (queueing + service), DRAM cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            return 0.0;
        }
        self.read_latency_sum as f64 / self.reads_completed as f64
    }

    /// Fieldwise difference `self - prev`; lets a consumer (e.g. TCM's
    /// quantum) maintain its own window over the cumulative counters.
    pub fn delta(&self, prev: &ThreadProf) -> ThreadProf {
        ThreadProf {
            reads: self.reads - prev.reads,
            writes: self.writes - prev.writes,
            served_reads: self.served_reads - prev.served_reads,
            served_writes: self.served_writes - prev.served_writes,
            row_hits: self.row_hits - prev.row_hits,
            row_misses: self.row_misses - prev.row_misses,
            row_conflicts: self.row_conflicts - prev.row_conflicts,
            bus_cycles: self.bus_cycles - prev.bus_cycles,
            read_latency_sum: self.read_latency_sum - prev.read_latency_sum,
            reads_completed: self.reads_completed - prev.reads_completed,
            instructions: self.instructions - prev.instructions,
            blp_accum: self.blp_accum - prev.blp_accum,
            blp_cycles: self.blp_cycles - prev.blp_cycles,
        }
    }

    /// Fieldwise `self += other`: fold windows (epochs, threads) together.
    pub fn accumulate(&mut self, other: &ThreadProf) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.served_reads += other.served_reads;
        self.served_writes += other.served_writes;
        self.row_hits += other.row_hits;
        self.row_misses += other.row_misses;
        self.row_conflicts += other.row_conflicts;
        self.bus_cycles += other.bus_cycles;
        self.read_latency_sum += other.read_latency_sum;
        self.reads_completed += other.reads_completed;
        self.instructions += other.instructions;
        self.blp_accum += other.blp_accum;
        self.blp_cycles += other.blp_cycles;
    }
}

/// Row-buffer outcome of a request's first service attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    Hit,
    Miss,
    Conflict,
}

/// Live profiling state for all threads in one controller.
#[derive(Debug, Clone)]
pub struct ProfilerState {
    epoch: Vec<ThreadProf>,
    cumulative: Vec<ThreadProf>,
    /// Outstanding read count per (thread, global bank).
    bank_counts: Vec<u32>,
    /// Banks with outstanding reads, per thread.
    nonzero_banks: Vec<u32>,
    total_banks: usize,
}

impl ProfilerState {
    /// State for `threads` threads over `total_banks` banks.
    pub fn new(threads: usize, total_banks: usize) -> Self {
        ProfilerState {
            epoch: vec![ThreadProf::default(); threads],
            cumulative: vec![ThreadProf::default(); threads],
            bank_counts: vec![0; threads * total_banks],
            nonzero_banks: vec![0; threads],
            total_banks,
        }
    }

    /// This epoch's counters for `thread`.
    pub fn epoch(&self, thread: usize) -> &ThreadProf {
        &self.epoch[thread]
    }

    /// Whole-run counters for `thread` (epoch totals already folded in,
    /// excluding the still-open epoch).
    pub fn cumulative(&self, thread: usize) -> ThreadProf {
        let mut c = self.cumulative[thread];
        c.accumulate(&self.epoch[thread]);
        c
    }

    /// Record an enqueued request.
    ///
    /// `tracked` must be false for background traffic (page-migration
    /// copies): counting those as the thread's demand behaviour would
    /// corrupt its MPKI/BLP profile — and, worse, feed back into the
    /// partitioning policy that caused the migration.
    pub fn on_enqueue(&mut self, thread: usize, global_bank: usize, is_write: bool, tracked: bool) {
        if !tracked {
            return;
        }
        if is_write {
            self.epoch[thread].writes += 1;
            return;
        }
        self.epoch[thread].reads += 1;
        let slot = thread * self.total_banks + global_bank;
        if self.bank_counts[slot] == 0 {
            self.nonzero_banks[thread] += 1;
        }
        self.bank_counts[slot] += 1;
    }

    /// Record a request's first-attempt row outcome (called once per
    /// request, when the controller first acts on it).
    pub fn classify(&mut self, thread: usize, outcome: RowOutcome) {
        let p = &mut self.epoch[thread];
        match outcome {
            RowOutcome::Hit => p.row_hits += 1,
            RowOutcome::Miss => p.row_misses += 1,
            RowOutcome::Conflict => p.row_conflicts += 1,
        }
    }

    /// Record a serviced request (column command issued); its row outcome
    /// went to [`ProfilerState::classify`] when the controller first acted
    /// on it.
    ///
    /// `tracked` must match the value passed at enqueue. Untracked
    /// (migration) traffic still charges the thread's attained bandwidth
    /// — the copies are real bus usage the thread caused — but does not
    /// touch its demand counters.
    pub fn on_serviced(
        &mut self,
        thread: usize,
        global_bank: usize,
        is_write: bool,
        t_burst: u32,
        tracked: bool,
    ) {
        let p = &mut self.epoch[thread];
        p.bus_cycles += u64::from(t_burst);
        if !tracked {
            return;
        }
        if is_write {
            p.served_writes += 1;
        } else {
            p.served_reads += 1;
            let slot = thread * self.total_banks + global_bank;
            debug_assert!(self.bank_counts[slot] > 0);
            self.bank_counts[slot] -= 1;
            if self.bank_counts[slot] == 0 {
                self.nonzero_banks[thread] -= 1;
            }
        }
    }

    /// Record a completed demand read and its total latency.
    pub fn on_read_complete(&mut self, thread: usize, latency: u64) {
        self.epoch[thread].read_latency_sum += latency;
        self.epoch[thread].reads_completed += 1;
    }

    /// Per-cycle BLP sampling.
    pub fn sample_blp(&mut self) {
        self.sample_blp_n(1);
    }

    /// `count` consecutive BLP samples.
    ///
    /// For `count > 1`, valid only while queue occupancy is static (no
    /// enqueue/service in the window): `nonzero_banks` is then constant,
    /// so `count` samples each add the same `n`.
    pub fn sample_blp_n(&mut self, count: u64) {
        for (t, p) in self.epoch.iter_mut().enumerate() {
            let n = self.nonzero_banks[t];
            if n > 0 {
                p.blp_accum += u64::from(n) * count;
                p.blp_cycles += count;
            }
        }
    }

    /// Feed retired-instruction deltas from the cores.
    pub fn add_instructions(&mut self, thread: usize, delta: u64) {
        self.epoch[thread].instructions += delta;
    }

    /// Close the epoch: return its per-thread counters and reset them
    /// (live queue state is preserved).
    pub fn take_epoch(&mut self) -> Vec<ThreadProf> {
        let snapshot = self.epoch.clone();
        for (c, e) in self.cumulative.iter_mut().zip(&snapshot) {
            c.accumulate(e);
        }
        for e in &mut self.epoch {
            *e = ThreadProf::default();
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blp_counts_distinct_banks() {
        let mut p = ProfilerState::new(1, 8);
        p.on_enqueue(0, 0, false, true);
        p.on_enqueue(0, 1, false, true);
        p.on_enqueue(0, 1, false, true); // same bank, still 2 distinct
        p.sample_blp();
        assert_eq!(p.epoch(0).blp_accum, 2);
        p.on_serviced(0, 1, false, 4, true);
        p.sample_blp();
        assert_eq!(p.epoch(0).blp_accum, 4); // still banks {0,1}
        p.on_serviced(0, 1, false, 4, true);
        p.sample_blp();
        assert_eq!(p.epoch(0).blp_accum, 5); // bank 1 drained
        assert!((p.epoch(0).blp() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn idle_threads_do_not_sample() {
        let mut p = ProfilerState::new(2, 4);
        p.on_enqueue(0, 0, false, true);
        p.sample_blp();
        assert_eq!(p.epoch(0).blp_cycles, 1);
        assert_eq!(p.epoch(1).blp_cycles, 0);
    }

    #[test]
    fn writes_do_not_affect_blp() {
        let mut p = ProfilerState::new(1, 4);
        p.on_enqueue(0, 2, true, true);
        p.sample_blp();
        assert_eq!(p.epoch(0).blp_cycles, 0);
        assert_eq!(p.epoch(0).writes, 1);
    }

    #[test]
    fn rbl_from_classification() {
        let mut p = ProfilerState::new(1, 4);
        for _ in 0..3 {
            p.on_enqueue(0, 0, false, true);
        }
        for outcome in [RowOutcome::Miss, RowOutcome::Hit, RowOutcome::Hit] {
            p.classify(0, outcome);
            p.on_serviced(0, 0, false, 4, true);
        }
        assert!((p.epoch(0).rbl() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn mpki_uses_fed_instructions() {
        let mut p = ProfilerState::new(1, 4);
        for _ in 0..10 {
            p.on_enqueue(0, 0, false, true);
        }
        p.add_instructions(0, 2000);
        assert!((p.epoch(0).mpki() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn take_epoch_resets_but_keeps_queue_state() {
        let mut p = ProfilerState::new(1, 4);
        p.on_enqueue(0, 0, false, true);
        let snap = p.take_epoch();
        assert_eq!(snap[0].reads, 1);
        assert_eq!(p.epoch(0).reads, 0);
        // The outstanding request still counts toward BLP.
        p.sample_blp();
        assert_eq!(p.epoch(0).blp_accum, 1);
        // Cumulative view includes both epochs.
        assert_eq!(p.cumulative(0).reads, 1);
        assert_eq!(p.cumulative(0).blp_accum, 1);
    }

    #[test]
    fn avg_latency() {
        let mut p = ProfilerState::new(1, 4);
        p.on_read_complete(0, 100);
        p.on_read_complete(0, 200);
        assert!((p.epoch(0).avg_read_latency() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn zero_denominators_yield_zero_not_nan() {
        // Misses without retired instructions (a thread stalled the whole
        // epoch): MPKI must be 0.0, not a division by zero.
        let stalled = ThreadProf { reads: 50, row_misses: 50, ..ThreadProf::default() };
        assert_eq!(stalled.mpki(), 0.0);
        assert!(stalled.mpki().is_finite());

        // BLP pressure recorded but never sampled (epoch ended between
        // enqueue and the first sample tick).
        let unsampled = ThreadProf { blp_accum: 7, ..ThreadProf::default() };
        assert_eq!(unsampled.blp(), 0.0);
        assert!(unsampled.blp().is_finite());

        // No serviced reads at all: RBL has no classified accesses.
        let idle = ThreadProf { instructions: 10_000, ..ThreadProf::default() };
        assert_eq!(idle.rbl(), 0.0);
        assert!(idle.rbl().is_finite());

        // Latency accumulated but no read completed (in-flight at epoch
        // boundary): average latency must stay finite.
        let in_flight = ThreadProf { read_latency_sum: 400, ..ThreadProf::default() };
        assert_eq!(in_flight.avg_read_latency(), 0.0);
        assert!(in_flight.avg_read_latency().is_finite());
    }
}
