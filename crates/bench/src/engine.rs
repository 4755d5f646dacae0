//! The sweep engine: every simulation an experiment asks for is a
//! [`Cell`], and the engine runs each distinct cell once per process.
//!
//! # Why the memo is sound
//!
//! A simulation is a pure function of its cell — the configuration plus
//! one `(benchmark, trace seed)` per core — and the memo key is the
//! cell's own `Debug` text ([`Cell::key`]), so equal keys mean equal
//! cells and a hit returns what a recomputation would. An alone run is
//! the one-thread cell on [`runner::alone_config`], which resets the
//! fields an alone run never exercises; that is what lets every combo,
//! migration variant and experiment over the same memory system share
//! one baseline. Which experiment populates an entry first cannot
//! matter.
//!
//! # Why parallelism preserves determinism
//!
//! Each job builds its own [`dbp_sim::System`] inside the worker from the
//! cell's plain data — nothing simulated is shared across threads — and
//! [`crate::pool::par_map`] collects results by index. `DBP_JOBS=1` and
//! `DBP_JOBS=64` therefore produce byte-identical tables (the
//! determinism test below and the CI gate both assert it).

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use dbp_obs::{Json, Prof, Recorder};
use dbp_sim::runner::{self, Cell, MixRun};
use dbp_sim::{RunResult, SimConfig};
use dbp_workloads::Mix;

use crate::harness::Combo;
use crate::pool;

/// Cumulative work counters for one [`Engine`] (monotonic; snapshot and
/// subtract to attribute work to a suite phase). A cell with one thread
/// counts as solo, any other as shared; a lookup is either a run or a
/// hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Multi-core cells actually simulated.
    pub shared_runs: u64,
    /// Multi-core lookups answered by the memo.
    pub shared_cache_hits: u64,
    /// Single-core cells actually simulated.
    pub solo_runs: u64,
    /// Single-core lookups answered by the memo.
    pub solo_cache_hits: u64,
    /// Jobs routed through [`Engine::par_map`] (the recorder-carrying
    /// diagnostics, whose product is not a [`RunResult`]).
    pub aux_runs: u64,
}

impl EngineStats {
    /// Total jobs executed.
    pub fn jobs(&self) -> u64 {
        self.shared_runs + self.solo_runs + self.aux_runs
    }

    /// Counter-wise difference since an earlier snapshot.
    pub fn since(&self, earlier: &EngineStats) -> EngineStats {
        EngineStats {
            shared_runs: self.shared_runs - earlier.shared_runs,
            shared_cache_hits: self.shared_cache_hits - earlier.shared_cache_hits,
            solo_runs: self.solo_runs - earlier.solo_runs,
            solo_cache_hits: self.solo_cache_hits - earlier.solo_cache_hits,
            aux_runs: self.aux_runs - earlier.aux_runs,
        }
    }
}

/// The sweep engine: a worker pool plus the process-wide run memo.
///
/// One engine should live for a whole process (`bench_all` shares one
/// across all experiments), so that an experiment re-reading another's
/// cells — Figure 5 is Figure 4's grid under another metric — simulates
/// nothing.
pub struct Engine {
    workers: usize,
    memo: Mutex<HashMap<String, RunResult>>,
    stats: Mutex<EngineStats>,
    annotations: Mutex<Vec<(String, Json)>>,
    /// Host-side self-profiler; disabled by default (one branch per job).
    prof: Prof,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("memoized_runs", &self.memo.lock().expect("memo poisoned").len())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::from_env()
    }
}

impl Engine {
    /// An engine with an explicit worker count (tests force 1 vs many).
    pub fn with_workers(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            memo: Mutex::new(HashMap::new()),
            stats: Mutex::new(EngineStats::default()),
            annotations: Mutex::new(Vec::new()),
            prof: Prof::disabled(),
        }
    }

    /// An engine honouring `DBP_JOBS` / the machine's parallelism.
    pub fn from_env() -> Self {
        Engine::with_workers(pool::default_workers())
    }

    /// The worker count this engine schedules onto.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Route host-side self-profiling into `prof`: every simulation that
    /// really runs gets a `bench/shared_run` or `bench/solo_run` span
    /// with the simulator's own `sim/*`, `memctrl/*` spans and work
    /// counters beneath it. Workers flush their thread-local span trees
    /// before each job returns, so a [`Prof::snapshot`] taken between
    /// grid calls sees everything. Profiling only observes — tables stay
    /// byte-identical.
    pub fn attach_profiler(&mut self, prof: &Prof) {
        self.prof = prof.clone();
    }

    /// The attached profiler (disabled unless
    /// [`Engine::attach_profiler`] was called), for experiments that
    /// build their own instrumented runs inside [`Engine::par_map`].
    pub fn profiler(&self) -> &Prof {
        &self.prof
    }

    /// Snapshot of the cumulative work counters.
    pub fn stats(&self) -> EngineStats {
        *self.stats.lock().expect("stats poisoned")
    }

    /// Attach a machine-readable side result (e.g. an experiment's
    /// percentile summary) for the suite-timing JSON. Re-annotating a key
    /// replaces its value, keeping reruns idempotent.
    pub fn annotate(&self, key: impl Into<String>, value: Json) {
        let key = key.into();
        let mut anns = self.annotations.lock().expect("annotations poisoned");
        match anns.iter_mut().find(|(k, _)| *k == key) {
            Some(slot) => slot.1 = value,
            None => anns.push((key, value)),
        }
    }

    /// Drain the accumulated annotations (insertion order preserved).
    pub fn take_annotations(&self) -> Vec<(String, Json)> {
        std::mem::take(&mut *self.annotations.lock().expect("annotations poisoned"))
    }

    /// The outcome of every cell, in order. Cells the memo lacks run as
    /// one pool batch — each distinct one once, however often the batch
    /// names it — and join the memo; the rest cost a lookup.
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<RunResult> {
        let keys: Vec<String> = cells.iter().map(Cell::key).collect();
        let is_solo = |cell: &Cell| cell.threads.len() == 1;
        let mut batch: Vec<(&String, &Cell)> = Vec::new();
        {
            let memo = self.memo.lock().expect("memo poisoned");
            let mut stats = self.stats.lock().expect("stats poisoned");
            let mut scheduled: HashSet<&String> = HashSet::new();
            for (key, cell) in keys.iter().zip(cells) {
                let runs = !memo.contains_key(key) && scheduled.insert(key);
                if runs {
                    batch.push((key, cell));
                }
                *match (is_solo(cell), runs) {
                    (true, true) => &mut stats.solo_runs,
                    (true, false) => &mut stats.solo_cache_hits,
                    (false, true) => &mut stats.shared_runs,
                    (false, false) => &mut stats.shared_cache_hits,
                } += 1;
            }
        }

        let outs = self.pooled(
            batch.iter().map(|&(_, cell)| cell).collect(),
            |cell| if is_solo(cell) { "bench/solo_run" } else { "bench/shared_run" },
            |cell| cell.run(Recorder::disabled(), self.prof.clone()),
        );

        let mut memo = self.memo.lock().expect("memo poisoned");
        for (&(key, _), out) in batch.iter().zip(outs) {
            memo.insert(key.clone(), out);
        }
        keys.iter().map(|key| memo[key].clone()).collect()
    }

    /// Run the full (mix × combo) grid of `cfg`, alone baselines
    /// included, as one [`Engine::run_cells`] batch. Returns runs indexed
    /// `[mix][combo]`, exactly as the serial nested loop would produce
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if an alone run hit the cycle cap before its instruction
    /// target (see [`runner::AloneRunError`]).
    pub fn run_grid(&self, cfg: &SimConfig, mixes: &[Mix], combos: &[Combo]) -> Vec<Vec<MixRun>> {
        let mut cells = Vec::new();
        for mix in mixes {
            cells.extend((0..mix.cores()).map(|core| Cell::alone(cfg, mix, core)));
            cells.extend(combos.iter().map(|combo| Cell::shared(&combo.apply(cfg), mix)));
        }
        let mut runs = self.run_cells(&cells).into_iter();
        let mut next = || runs.next().expect("one outcome per cell");
        mixes
            .iter()
            .map(|mix| {
                let alone: Vec<f64> = (0..mix.cores())
                    .map(|core| {
                        runner::alone_ipc_of(cfg, mix, core, &next())
                            .unwrap_or_else(|e| panic!("{e}"))
                    })
                    .collect();
                combos.iter().map(|_| MixRun::from_parts(mix, alone.clone(), next())).collect()
            })
            .collect()
    }

    /// Map arbitrary jobs over the pool (order-preserving), for work
    /// whose product is not a [`RunResult`] and so cannot be memoized.
    pub fn par_map<I, T>(&self, items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T>
    where
        I: Send,
        T: Send,
    {
        self.stats.lock().expect("stats poisoned").aux_runs += items.len() as u64;
        self.pooled(items, |_| "bench/aux_job", f)
    }

    /// `f` over `items` on the pool, each job inside the span `name`
    /// picks for it.
    fn pooled<I, T>(
        &self,
        items: Vec<I>,
        name: impl Fn(&I) -> &'static str + Sync,
        f: impl Fn(I) -> T + Sync,
    ) -> Vec<T>
    where
        I: Send,
        T: Send,
    {
        let prof = &self.prof;
        pool::par_map(self.workers, items, |item| {
            let out = {
                let _s = prof.span(name(&item));
                f(item)
            };
            // Pool workers die with the scope; hand this thread's span
            // tree back to the profiler while it is still complete.
            prof.flush_thread();
            out
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness;
    use dbp_workloads::mixes_4core;

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::fast_test();
        cfg.warmup_instructions = 10_000;
        cfg.target_instructions = 25_000;
        cfg.epoch_cpu_cycles = 50_000;
        cfg.instr_feed_interval = 10_000;
        cfg
    }

    fn assert_same(a: &[Vec<MixRun>], b: &[Vec<MixRun>]) {
        assert_eq!(a.len(), b.len());
        for (arow, brow) in a.iter().zip(b) {
            assert_eq!(arow.len(), brow.len());
            for (x, y) in arow.iter().zip(brow) {
                assert_eq!(x.alone_ipcs, y.alone_ipcs);
                assert_eq!(x.shared, y.shared);
                assert_eq!(x.metrics, y.metrics);
            }
        }
    }

    /// What Figure 5 is to Figure 4: the same grid again simulates
    /// nothing, and a grid with one more combo runs that combo's cells
    /// only.
    #[test]
    fn a_repeated_grid_simulates_nothing_and_a_new_combo_runs_only_its_cells() {
        let eng = Engine::with_workers(1);
        let cfg = tiny_cfg();
        let mixes = [mixes_4core()[0].clone(), mixes_4core()[5].clone()];
        let combos = [harness::shared(), harness::equal_bp(), harness::dbp()];
        let first = eng.run_grid(&cfg, &mixes, &combos[..2]);
        let s1 = eng.stats();
        assert_eq!(s1.solo_runs, 8, "one solo run per core, shared across combos");
        assert_eq!(s1.shared_runs, 4);
        assert_eq!((s1.solo_cache_hits, s1.shared_cache_hits), (0, 0));

        let again = eng.run_grid(&cfg, &mixes, &combos[..2]);
        let s2 = eng.stats();
        assert_eq!(s2.jobs(), s1.jobs(), "the same grid must be fully memoized");
        assert_eq!(s2.since(&s1).solo_cache_hits, 8);
        assert_eq!(s2.since(&s1).shared_cache_hits, 4);
        assert_same(&first, &again);

        let wider = eng.run_grid(&cfg, &mixes, &combos);
        let d = eng.stats().since(&s2);
        assert_eq!((d.shared_runs, d.solo_runs), (2, 0), "only the DBP column is new");
        assert_eq!((d.shared_cache_hits, d.solo_cache_hits), (4, 8));
        for (wrow, frow) in wider.iter().zip(&first) {
            assert_eq!(wrow[0].shared, frow[0].shared);
            assert_eq!(wrow[1].shared, frow[1].shared);
        }
    }

    #[test]
    fn a_batch_naming_a_cell_twice_runs_it_once() {
        let eng = Engine::with_workers(2);
        let cfg = tiny_cfg();
        let mix = &mixes_4core()[0];
        let (solo, shared) = (Cell::alone(&cfg, mix, 0), Cell::shared(&cfg, mix));
        let outs = eng.run_cells(&[solo.clone(), shared.clone(), solo, shared]);
        assert_eq!(outs[0], outs[2]);
        assert_eq!(outs[1], outs[3]);
        let s = eng.stats();
        assert_eq!((s.solo_runs, s.shared_runs), (1, 1));
        assert_eq!((s.solo_cache_hits, s.shared_cache_hits), (1, 1));
    }

    #[test]
    fn cycle_cap_panic_names_mix_benchmark_and_core_through_the_engine() {
        let mut cfg = tiny_cfg();
        cfg.max_cpu_cycles = 10_000;
        let mix = mixes_4core()[0].clone();
        let panic = std::panic::catch_unwind(|| {
            Engine::with_workers(2).run_grid(&cfg, std::slice::from_ref(&mix), &[harness::shared()])
        })
        .expect_err("a truncated alone run must not yield a grid");
        let msg = panic.downcast_ref::<String>().expect("panic carries the error text");
        let want =
            format!("`{}` (core 0 of mix `{}`) hit the cycle cap", mix.benchmarks[0], mix.name);
        assert!(msg.contains(&want), "{msg}");
    }

    #[test]
    fn solo_cache_misses_on_alone_relevant_config_changes() {
        let eng = Engine::with_workers(1);
        let cfg = tiny_cfg();
        let mixes = [mixes_4core()[0].clone()];
        let combos = [harness::shared()];
        eng.run_grid(&cfg, &mixes, &combos);
        let before = eng.stats();

        // Different bank count -> different fingerprint -> recompute.
        let mut banks = cfg.clone();
        banks.dram.banks_per_rank *= 2;
        eng.run_grid(&banks, &mixes, &combos);
        assert_eq!(eng.stats().since(&before).solo_runs, 4);

        // Different epoch length (changes the warmup span) -> recompute.
        let before = eng.stats();
        let mut epoch = cfg.clone();
        epoch.epoch_cpu_cycles *= 2;
        eng.run_grid(&epoch, &mixes, &combos);
        assert_eq!(eng.stats().since(&before).solo_runs, 4);

        // Different DRAM timing -> recompute.
        let before = eng.stats();
        let mut timing = cfg.clone();
        timing.dram.timing.cl += 1;
        eng.run_grid(&timing, &mixes, &combos);
        assert_eq!(eng.stats().since(&before).solo_runs, 4);

        // Migration knobs are alone-irrelevant -> full cache hit.
        let before = eng.stats();
        let mut migration = cfg.clone();
        migration.migration_budget_pages = None;
        eng.run_grid(&migration, &mixes, &combos);
        let d = eng.stats().since(&before);
        assert_eq!(d.solo_runs, 0);
        assert_eq!(d.solo_cache_hits, 4);
    }

    #[test]
    fn grid_matches_serial_runner_and_parallel_is_byte_identical() {
        let cfg = tiny_cfg();
        let mixes = [mixes_4core()[0].clone(), mixes_4core()[5].clone()];
        let combos = [harness::shared(), harness::equal_bp()];

        let serial = Engine::with_workers(1).run_grid(&cfg, &mixes, &combos);
        let parallel = Engine::with_workers(4).run_grid(&cfg, &mixes, &combos);
        for (srow, prow) in serial.iter().zip(&parallel) {
            for (s, p) in srow.iter().zip(prow) {
                assert_eq!(s.alone_ipcs, p.alone_ipcs);
                assert_eq!(s.shared, p.shared);
                assert_eq!(s.metrics, p.metrics);
            }
        }
        // And the engine agrees with the plain (uncached) runner path.
        let direct = dbp_sim::runner::run_mix(&combos[1].apply(&cfg), &mixes[0]);
        assert_eq!(serial[0][1].alone_ipcs, direct.alone_ipcs);
        assert_eq!(serial[0][1].metrics, direct.metrics);
    }

    #[test]
    fn profiled_grid_is_byte_identical_and_flushes_workers() {
        let cfg = tiny_cfg();
        let mixes = [mixes_4core()[0].clone()];
        let combos = [harness::shared(), harness::dbp()];
        let plain = Engine::with_workers(2).run_grid(&cfg, &mixes, &combos);

        let prof = Prof::enabled();
        let mut eng = Engine::with_workers(2);
        eng.attach_profiler(&prof);
        let profiled = eng.run_grid(&cfg, &mixes, &combos);
        for (prow, qrow) in plain.iter().zip(&profiled) {
            for (p, q) in prow.iter().zip(qrow) {
                assert_eq!(p.alone_ipcs, q.alone_ipcs);
                assert_eq!(p.shared, q.shared);
            }
        }
        // Worker trees were flushed: the snapshot sees every job, with
        // the simulator's own spans nested under the shared runs.
        let p = prof.snapshot();
        let shared =
            p.spans.iter().find(|s| s.name == "bench/shared_run").expect("shared-run span present");
        assert_eq!(shared.count, 2);
        assert!(shared.children.iter().any(|c| c.name == "sim/measure"));
        let solo = p.spans.iter().find(|s| s.name == "bench/solo_run").unwrap();
        assert_eq!(solo.count, 4);
        // A span means a simulation really ran: memo hits open none.
        eng.run_grid(&cfg, &mixes, &combos);
        let jobs = |p: &dbp_obs::Profile| -> u64 {
            p.spans.iter().filter(|s| s.name.starts_with("bench/")).map(|s| s.count).sum()
        };
        assert_eq!(jobs(&prof.snapshot()), jobs(&p));
    }

    #[test]
    fn par_map_jobs_count_as_aux_runs() {
        let eng = Engine::with_workers(2);
        let doubled = eng.par_map((0..10u64).collect(), |i| i * 2);
        assert_eq!(doubled[9], 18);
        let cfg = tiny_cfg();
        let outs = eng.run_cells(&[Cell::shared(&cfg, &mixes_4core()[0])]);
        assert!(outs[0].reached_target);
        let s = eng.stats();
        assert_eq!(s.aux_runs, 10);
        assert_eq!(s.shared_runs, 1);
        assert_eq!(s.jobs(), 11);
    }
}
