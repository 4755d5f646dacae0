//! The parallel sweep engine: every experiment's simulation runs become
//! independent jobs on the [`crate::pool`], and alone (solo) runs are
//! memoized across combos, sweep points, and experiments.
//!
//! # Why the cache is sound
//!
//! An alone run is a pure function of (a) the system configuration
//! fields that can influence it — captured by
//! [`runner::alone_fingerprint`] — and (b) the synthetic trace, which is
//! fully determined by the benchmark name and its seed
//! ([`runner::seed_for`]). The cache key is exactly that triple, so a
//! hit returns bit-identical data to a recomputation, and results do not
//! depend on which experiment happened to populate the entry first.
//!
//! # Why parallelism preserves determinism
//!
//! Each job builds its own [`dbp_sim::System`] inside the worker from
//! plain `(SimConfig, Mix, core)` data — nothing simulated is shared
//! across threads — and [`crate::pool::par_map`] collects results by
//! index. `DBP_JOBS=1` and `DBP_JOBS=64` therefore produce byte-identical
//! tables (the determinism test below and the CI gate both assert it).

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use dbp_obs::{Json, Prof};
use dbp_sim::runner::{self, MixRun};
use dbp_sim::{RunResult, SimConfig};
use dbp_workloads::Mix;

use crate::harness::Combo;
use crate::pool;

/// Cumulative work counters for one [`Engine`] (monotonic; snapshot and
/// subtract to attribute work to a suite phase).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Shared (co-scheduled) mix runs executed.
    pub shared_runs: u64,
    /// Solo runs actually simulated (= solo-cache misses).
    pub solo_runs: u64,
    /// Solo-run lookups served from the cache.
    pub solo_cache_hits: u64,
    /// Jobs routed through [`Engine::par_map`] (calibration sweeps and
    /// other non-mix experiments).
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
            solo_runs: self.solo_runs - earlier.solo_runs,
            solo_cache_hits: self.solo_cache_hits - earlier.solo_cache_hits,
            aux_runs: self.aux_runs - earlier.aux_runs,
        }
    }
}

/// (alone-config fingerprint, benchmark, trace seed) — everything an
/// alone run's outcome can depend on.
type SoloKey = (String, &'static str, u64);

/// The sweep engine: a worker pool plus the process-wide solo-run cache.
///
/// One engine should live for a whole process (`bench_all` shares one
/// across all experiments); per-binary usage still dedupes solo runs
/// across combos and sweep points within that binary.
pub struct Engine {
    workers: usize,
    cache: Mutex<HashMap<SoloKey, f64>>,
    stats: Mutex<EngineStats>,
    annotations: Mutex<Vec<(String, Json)>>,
    /// Host-side self-profiler; disabled by default (one branch per job).
    prof: Prof,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("workers", &self.workers)
            .field("cached_solo_runs", &self.cache.lock().expect("cache poisoned").len())
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::from_env()
    }
}

/// One simulation job; built from plain `Send` data, so the `System`
/// (which holds non-`Send` recorder handles) is constructed inside the
/// worker thread.
enum Job {
    Solo { cfg: SimConfig, mix: Mix, core: usize },
    Shared { cfg: SimConfig, mix: Mix },
}

enum JobOut {
    Solo(f64),
    Shared(RunResult),
}

/// A grid's shared run: one `bench/shared_run` span, self-profiled into
/// the engine's profiler, no telemetry recorder.
fn shared_run(cfg: &SimConfig, mix: &Mix, prof: &Prof) -> RunResult {
    let _s = prof.span("bench/shared_run");
    runner::run_shared_instrumented(cfg, mix, dbp_obs::Recorder::disabled(), prof.clone())
}

impl Engine {
    /// An engine with an explicit worker count (tests force 1 vs many).
    pub fn with_workers(workers: usize) -> Self {
        Engine {
            workers: workers.max(1),
            cache: Mutex::new(HashMap::new()),
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

    /// Route host-side self-profiling into `prof`: every pool job gets a
    /// `bench/*` span, shared runs additionally carry the simulator's own
    /// `sim/*`, `memctrl/*` spans and work counters. Workers flush their
    /// thread-local span trees before each job returns, so a
    /// [`Prof::snapshot`] taken between grid calls sees everything.
    /// Profiling only observes — tables stay byte-identical.
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

    /// Solo runs currently memoized.
    pub fn cached_solo_runs(&self) -> usize {
        self.cache.lock().expect("cache poisoned").len()
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

    /// Run the full (mix × combo) grid of `cfg`: every shared run and
    /// every still-uncached solo run becomes an independent pool job.
    /// Returns runs indexed `[mix][combo]`, exactly as the serial
    /// nested loop would produce them.
    pub fn run_grid(&self, cfg: &SimConfig, mixes: &[Mix], combos: &[Combo]) -> Vec<Vec<MixRun>> {
        let fp = runner::alone_fingerprint(cfg);
        let solo_key = |mix: &Mix, core: usize| {
            (fp.clone(), mix.benchmarks[core], runner::seed_for(mix, core))
        };

        // Solo runs missing from the cache, deduplicated within the batch
        // (scaled mixes repeat (benchmark, seed) pairs across sweep rows).
        let mut solo_jobs: Vec<(SoloKey, Mix, usize)> = Vec::new();
        let mut lookups = 0u64;
        {
            let cache = self.cache.lock().expect("cache poisoned");
            let mut scheduled: HashSet<SoloKey> = HashSet::new();
            for mix in mixes {
                for core in 0..mix.cores() {
                    lookups += 1;
                    let key = solo_key(mix, core);
                    if cache.contains_key(&key) || !scheduled.insert(key.clone()) {
                        continue;
                    }
                    solo_jobs.push((key, mix.clone(), core));
                }
            }
        }
        let n_solo = solo_jobs.len();

        let mut jobs: Vec<Job> = solo_jobs
            .iter()
            .map(|(_, mix, core)| Job::Solo { cfg: cfg.clone(), mix: mix.clone(), core: *core })
            .collect();
        for mix in mixes {
            for combo in combos {
                jobs.push(Job::Shared { cfg: combo.apply(cfg), mix: mix.clone() });
            }
        }

        let prof = &self.prof;
        let outs = pool::par_map(self.workers, jobs, |job| {
            let out = match job {
                Job::Solo { cfg, mix, core } => {
                    let _s = prof.span("bench/solo_run");
                    JobOut::Solo(runner::alone_ipc(&cfg, &mix, core))
                }
                Job::Shared { cfg, mix } => JobOut::Shared(shared_run(&cfg, &mix, prof)),
            };
            // Pool workers die with the scope; hand this thread's span
            // tree back to the profiler while it is still complete.
            prof.flush_thread();
            out
        });

        {
            let mut cache = self.cache.lock().expect("cache poisoned");
            for ((key, _, _), out) in solo_jobs.iter().zip(&outs[..n_solo]) {
                let JobOut::Solo(ipc) = out else { unreachable!("solo job slot") };
                cache.insert(key.clone(), *ipc);
            }
        }
        {
            let mut stats = self.stats.lock().expect("stats poisoned");
            stats.shared_runs += (mixes.len() * combos.len()) as u64;
            stats.solo_runs += n_solo as u64;
            stats.solo_cache_hits += lookups - n_solo as u64;
        }

        let cache = self.cache.lock().expect("cache poisoned");
        let mut shared = outs.into_iter().skip(n_solo);
        mixes
            .iter()
            .map(|mix| {
                let alone: Vec<f64> =
                    (0..mix.cores()).map(|core| cache[&solo_key(mix, core)]).collect();
                combos
                    .iter()
                    .map(|_| {
                        let Some(JobOut::Shared(run)) = shared.next() else {
                            unreachable!("shared job slot")
                        };
                        MixRun::from_parts(mix, alone.clone(), run)
                    })
                    .collect()
            })
            .collect()
    }

    /// Like [`Engine::run_grid`] but shared runs only — for experiments
    /// that never consult the alone baselines (e.g. the energy study).
    pub fn run_shared_grid(
        &self,
        cfg: &SimConfig,
        mixes: &[Mix],
        combos: &[Combo],
    ) -> Vec<Vec<RunResult>> {
        let mut jobs: Vec<(SimConfig, Mix)> = Vec::with_capacity(mixes.len() * combos.len());
        for mix in mixes {
            for combo in combos {
                jobs.push((combo.apply(cfg), mix.clone()));
            }
        }
        self.stats.lock().expect("stats poisoned").shared_runs += jobs.len() as u64;
        let prof = &self.prof;
        let outs = pool::par_map(self.workers, jobs, |(cfg, mix)| {
            let out = shared_run(&cfg, &mix, prof);
            prof.flush_thread();
            out
        });
        let mut it = outs.into_iter();
        mixes
            .iter()
            .map(|_| combos.iter().map(|_| it.next().expect("grid slot")).collect())
            .collect()
    }

    /// Map arbitrary jobs over the pool (order-preserving); used by the
    /// calibration/sweep experiments whose unit of work is not a mix.
    pub fn par_map<I, T>(&self, items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T>
    where
        I: Send,
        T: Send,
    {
        self.stats.lock().expect("stats poisoned").aux_runs += items.len() as u64;
        let prof = &self.prof;
        pool::par_map(self.workers, items, |item| {
            let out = {
                let _s = prof.span("bench/aux_job");
                f(item)
            };
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

    #[test]
    fn solo_cache_hits_across_combos_and_calls() {
        let eng = Engine::with_workers(1);
        let cfg = tiny_cfg();
        let mixes = [mixes_4core()[0].clone()];
        let combos = [harness::shared(), harness::dbp()];
        eng.run_grid(&cfg, &mixes, &combos);
        let s1 = eng.stats();
        assert_eq!(s1.solo_runs, 4, "one solo run per core, shared across combos");
        assert_eq!(s1.solo_cache_hits, 0);
        assert_eq!(s1.shared_runs, 2);
        // Same fingerprint again: all solo lookups must hit.
        eng.run_grid(&cfg, &mixes, &combos);
        let s2 = eng.stats().since(&s1);
        assert_eq!(s2.solo_runs, 0, "identical config must be fully cached");
        assert_eq!(s2.solo_cache_hits, 4);
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
    }

    #[test]
    fn par_map_and_shared_grid_count_jobs() {
        let eng = Engine::with_workers(2);
        let doubled = eng.par_map((0..10u64).collect(), |i| i * 2);
        assert_eq!(doubled[9], 18);
        let cfg = tiny_cfg();
        let mixes = [mixes_4core()[0].clone()];
        let grid = eng.run_shared_grid(&cfg, &mixes, &[harness::shared()]);
        assert!(grid[0][0].reached_target);
        let s = eng.stats();
        assert_eq!(s.aux_runs, 10);
        assert_eq!(s.shared_runs, 1);
        assert_eq!(s.jobs(), 11);
    }
}
