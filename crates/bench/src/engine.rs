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
//! # Why twins are sound
//!
//! Cells equal but for `cfg.policy` run as one group ([`Cell::run_group`]):
//! the first member's policy is live, the others ride along and are
//! dropped at their first plan that differs from the live one. A
//! [`dbp_core::policy::PartitionPolicy`] has one method, `partition`,
//! and holds no RNG, so the only way a policy reaches the simulation is
//! the plans `partition` returns.
//! Each rider is called exactly as it would be in its own run: the same
//! cold-start profiles, then every epoch the same `profiles` with `prev`
//! the plan in force, which is its own last plan for as long as it has
//! agreed. So a rider whose every plan — the full `Vec<ColorSet>`, not
//! unit counts, and the cold-start plan too (`Unpartitioned` and DBP part
//! there even where they agree at every epoch) — equalled the live one's
//! would have run step for step the same simulation, and its memo entry
//! is the live result. Riders that disagreed run again from cycle 0 as a
//! group of their own. Every member's configuration is validated before
//! the group runs, so a bad rider fails as it would alone; and a live
//! recorder, whose events and decision audit name the live policy, makes
//! a group of one (the engine records nothing). The riders are the shadow
//! rack's own: they plan in `ShadowRack::observe` as audit shadows do,
//! without the audit's builder or costing.
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

use dbp_core::policy::PolicyKind;
use dbp_obs::{Json, Prof, Recorder};
use dbp_sim::runner::{self, Cell, MixRun};
use dbp_sim::{RunResult, SimConfig};
use dbp_workloads::Mix;

use crate::harness::Combo;
use crate::pool;

/// Cumulative work counters for one [`Engine`] (monotonic; snapshot and
/// subtract to attribute work to a suite phase). A cell with one thread
/// counts as solo, any other as shared; a lookup is a run, a twin hit
/// or a memo hit.
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
    /// Cells answered by a twin's simulation: they rode along with a
    /// cell that differs only in its policy, and planned as it did at
    /// every decision.
    pub twin_hits: u64,
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
            twin_hits: self.twin_hits - earlier.twin_hits,
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
    /// counters beneath it. Each job runs with `prof` installed
    /// ([`dbp_obs::observe`]) and its spans fold into `prof` when the job
    /// ends, so a [`Prof::snapshot`] taken between grid calls sees
    /// everything. Profiling only observes — tables stay byte-identical.
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
    /// names it, and cells equal but for their policy as one group of
    /// twins (see [`Engine::run_twins`]) — and join the memo; the rest
    /// cost a lookup.
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<RunResult> {
        let keys: Vec<String> = cells.iter().map(Cell::key).collect();
        let mut groups: Vec<Vec<usize>> = Vec::new();
        {
            let memo = self.memo.lock().expect("memo poisoned");
            let mut stats = self.stats.lock().expect("stats poisoned");
            let mut scheduled: HashSet<&String> = HashSet::new();
            let mut group_of: HashMap<String, usize> = HashMap::new();
            for (i, (key, cell)) in keys.iter().zip(cells).enumerate() {
                if !memo.contains_key(key) && scheduled.insert(key) {
                    let g = *group_of.entry(twin_key(cell)).or_insert_with(|| {
                        groups.push(Vec::new());
                        groups.len() - 1
                    });
                    groups[g].push(i);
                } else if is_solo(cell) {
                    stats.solo_cache_hits += 1;
                } else {
                    stats.shared_cache_hits += 1;
                }
            }
        }
        // Longest first: a group may chain simulations of many threads,
        // and one left for last idles the other workers.
        groups.sort_by_key(|g| std::cmp::Reverse(g.len() * cells[g[0]].threads.len()));

        let outs = self.pooled(
            groups.iter().map(|g| g.iter().map(|&i| &cells[i]).collect()).collect(),
            |members: Vec<&Cell>| self.run_twins(&members),
        );

        let mut memo = self.memo.lock().expect("memo poisoned");
        let mut stats = self.stats.lock().expect("stats poisoned");
        for (group, outs) in groups.iter().zip(outs) {
            for (&i, (out, simulated)) in group.iter().zip(outs) {
                *match (simulated, is_solo(&cells[i])) {
                    (false, _) => &mut stats.twin_hits,
                    (true, true) => &mut stats.solo_runs,
                    (true, false) => &mut stats.shared_runs,
                } += 1;
                memo.insert(keys[i].clone(), out);
            }
        }
        keys.iter().map(|key| memo[key].clone()).collect()
    }

    /// The outcome of each of `members` — cells equal but for their
    /// policy — each with whether its own simulation ran. The first
    /// member without an outcome runs live with the rest riding along
    /// ([`Cell::run_group`]); the riders that stayed in agreement take
    /// its outcome, and those that did not run again from cycle 0 as a
    /// group of their own. One `bench/*_run` span per simulation run.
    fn run_twins(&self, members: &[&Cell]) -> Vec<(RunResult, bool)> {
        let mut outs: Vec<Option<(RunResult, bool)>> = vec![None; members.len()];
        let mut pending: Vec<usize> = (0..members.len()).collect();
        while let Some((&live, riders)) = pending.split_first() {
            let cell = members[live];
            let twins: Vec<PolicyKind> = riders.iter().map(|&m| members[m].cfg.policy).collect();
            let span = if is_solo(cell) { "bench/solo_run" } else { "bench/shared_run" };
            let (out, agreed) = {
                let _s = dbp_obs::span(span);
                cell.run_group(&twins, Recorder::disabled(), self.prof.clone())
            };
            let mut dropped = Vec::new();
            for (&m, agreed) in riders.iter().zip(agreed) {
                if agreed {
                    outs[m] = Some((out.clone(), false));
                } else {
                    dropped.push(m);
                }
            }
            outs[live] = Some((out, true));
            pending = dropped;
        }
        outs.into_iter().map(|out| out.expect("every member answered")).collect()
    }

    /// Run the full (mix × combo) grid of `cfg`, alone baselines
    /// included: [`Engine::run_grids`] with one grid.
    ///
    /// # Panics
    ///
    /// Panics if an alone run hit the cycle cap before its instruction
    /// target (see [`runner::AloneRunError`]).
    pub fn run_grid(&self, cfg: &SimConfig, mixes: &[Mix], combos: &[Combo]) -> Vec<Vec<MixRun>> {
        self.run_grids(&[(cfg.clone(), mixes.to_vec(), combos.to_vec())]).remove(0)
    }

    /// Run every `(config, mixes, combos)` grid, alone baselines
    /// included, as one [`Engine::run_cells`] batch — one pool barrier
    /// for a whole sweep, and twins found across its points. Returns
    /// runs indexed `[grid][mix][combo]`, exactly as the serial nested
    /// loop would produce them.
    ///
    /// # Panics
    ///
    /// Panics if an alone run hit the cycle cap before its instruction
    /// target (see [`runner::AloneRunError`]).
    pub fn run_grids(&self, grids: &[(SimConfig, Vec<Mix>, Vec<Combo>)]) -> Vec<Vec<Vec<MixRun>>> {
        let mut cells = Vec::new();
        for (cfg, mixes, combos) in grids {
            for mix in mixes {
                cells.extend((0..mix.cores()).map(|core| Cell::alone(cfg, mix, core)));
                cells.extend(combos.iter().map(|combo| Cell::shared(&combo.apply(cfg), mix)));
            }
        }
        let mut runs = self.run_cells(&cells).into_iter();
        let mut next = || runs.next().expect("one outcome per cell");
        grids
            .iter()
            .map(|(cfg, mixes, combos)| {
                mixes
                    .iter()
                    .map(|mix| {
                        let alone: Vec<f64> = (0..mix.cores())
                            .map(|core| {
                                runner::alone_ipc_of(cfg, mix, core, &next())
                                    .unwrap_or_else(|e| panic!("{e}"))
                            })
                            .collect();
                        combos
                            .iter()
                            .map(|_| MixRun::from_parts(mix, alone.clone(), next()))
                            .collect()
                    })
                    .collect()
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
        self.pooled(items, |item| {
            let _s = dbp_obs::span("bench/aux_job");
            f(item)
        })
    }

    /// `f` over `items` on the pool, each job with the engine's profiler
    /// installed ([`dbp_obs::observe`]); `f` opens the job's spans.
    fn pooled<I, T>(&self, items: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T>
    where
        I: Send,
        T: Send,
    {
        pool::par_map(self.workers, items, |item| {
            dbp_obs::observe(&Recorder::disabled(), &self.prof, || f(item))
        })
    }
}

fn is_solo(cell: &Cell) -> bool {
    cell.threads.len() == 1
}

/// What twins share: the cell's key with its policy blanked out.
fn twin_key(cell: &Cell) -> String {
    let cfg = SimConfig { policy: PolicyKind::Unpartitioned, ..cell.cfg.clone() };
    Cell { cfg, threads: cell.threads.clone() }.key()
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

    /// `RestrictFirst(99)` plans what `Unpartitioned` plans at every
    /// decision (thread 0 gets every unit), so it rides along and costs
    /// no simulation; Equal and DBP diverge from it at cold start and run
    /// again as a group of their own. Every outcome is still the cell's
    /// own, and one `bench/shared_run` span opens per simulation run.
    #[test]
    fn agreeing_twins_share_one_simulation_and_the_rest_run_again() {
        let prof = Prof::enabled();
        let mut eng = Engine::with_workers(2);
        eng.attach_profiler(&prof);
        let mix = &mixes_4core()[0];
        let cells: Vec<Cell> = [
            PolicyKind::Unpartitioned,
            PolicyKind::RestrictFirst(99),
            PolicyKind::Equal,
            PolicyKind::Dbp(Default::default()),
        ]
        .into_iter()
        .map(|policy| Cell::shared(&SimConfig { policy, ..tiny_cfg() }, mix))
        .collect();
        let outs = eng.run_cells(&cells);
        for (cell, out) in cells.iter().zip(&outs) {
            assert_eq!(out, &cell.run(Recorder::disabled(), Prof::disabled()));
        }
        let s = eng.stats();
        assert!(s.twin_hits >= 1, "RestrictFirst(99) must ride along: {s:?}");
        assert_eq!(s.shared_runs + s.twin_hits, 4);
        let spans = prof.snapshot();
        let runs = spans.spans.iter().find(|s| s.name == "bench/shared_run").expect("run span");
        assert_eq!(runs.count, s.shared_runs);
        // Memoised per member: the same batch again simulates nothing.
        eng.run_cells(&cells);
        assert_eq!(eng.stats().since(&s).shared_cache_hits, 4);
    }

    /// Twins are exact. Random groups of 2–4 cells equal but for their
    /// policy (duplicates included) come back, cell for cell, as one
    /// independent `System` run of that cell — over riders that diverge
    /// from the live policy at cold start, mid-run, or never. On a calm
    /// mix DBP plans "everything shared" at every epoch, exactly as
    /// `Unpartitioned` does, yet its cold start is the equal split: only
    /// the cold-start comparison tells those two runs apart.
    #[test]
    fn twin_groups_equal_independent_runs() {
        use dbp_core::policy::DbpConfig;
        use dbp_core::{ColorTopology, EstimatorConfig, ThreadMemProfile};
        use dbp_cpu::TraceSource;
        use dbp_sim::{SchedulerKind, System};
        use dbp_util::prop::{check, range, vec_of, Config};
        use dbp_util::prop_assert_eq;
        use dbp_workloads::{profiles, SyntheticTrace};

        let policy = |i: usize| {
            let dbp = |alpha| {
                let estimator = EstimatorConfig { alpha };
                PolicyKind::Dbp(DbpConfig { estimator, ..Default::default() })
            };
            match i {
                0 => PolicyKind::Unpartitioned,
                1 => PolicyKind::Equal,
                2 => dbp(1.0),
                3 => dbp(2.0),
                4 => dbp(4.0),
                5 => PolicyKind::Mcp(Default::default()),
                6 => PolicyKind::RestrictFirst(1),
                _ => PolicyKind::RestrictFirst(99),
            }
        };
        let calm = ["povray", "gobmk"];
        let any = ["povray", "mcf", "libquantum", "gcc", "lbm"];
        let gen = (
            vec_of(range(0usize..8), 2..5), // the group's policies, live first
            range(0usize..2),               // calm mix / any mix
            vec_of(range(0usize..5), 2..4), // one benchmark per core
            range(0u64..1000),              // trace seed base
            range(0usize..2),               // scheduler: FR-FCFS / TCM
        );
        // Riders of a different policy than the live one, by where they
        // diverged: cold start, mid-run, never.
        let seen = std::cell::Cell::new([0u32; 3]);
        check(Config::cases(16), &gen, |(pols, mix, workloads, seed, sched)| {
            let mut cfg = tiny_cfg();
            cfg.warmup_instructions = 5_000;
            cfg.target_instructions = 10_000;
            cfg.epoch_cpu_cycles = 20_000;
            cfg.instr_feed_interval = 5_000;
            cfg.scheduler = [SchedulerKind::FrFcfs, SchedulerKind::Tcm(Default::default())][sched];
            let names: &[&'static str] = if mix == 0 { &calm } else { &any };
            let threads: Vec<(&'static str, u64)> =
                workloads.iter().zip(seed..).map(|(&w, s)| (names[w % names.len()], s)).collect();
            let cells: Vec<Cell> = pols
                .iter()
                .map(|&p| Cell {
                    cfg: SimConfig { policy: policy(p), ..cfg.clone() },
                    threads: threads.clone(),
                })
                .collect();
            let outs = Engine::with_workers(1).run_cells(&cells);
            for (cell, out) in cells.iter().zip(&outs) {
                let traces = cell
                    .threads
                    .iter()
                    .map(|&(b, s)| {
                        Box::new(SyntheticTrace::new(profiles::by_name(b), s))
                            as Box<dyn TraceSource>
                    })
                    .collect();
                let cfg = cell.cfg.clone();
                let own = System::with_instrumentation(
                    cfg,
                    traces,
                    Recorder::disabled(),
                    Prof::disabled(),
                )
                .run();
                prop_assert_eq!(out, &own, "{:?} in group {:?}", cell.cfg.policy, pols);
            }
            let live = cells[0].cfg.policy;
            let riders: Vec<PolicyKind> =
                cells.iter().map(|c| c.cfg.policy).filter(|&p| p != live).collect();
            let (_, agreed) = cells[0].run_group(&riders, Recorder::disabled(), Prof::disabled());
            let topo = ColorTopology::from_dram(&cfg.dram);
            let cold = |kind: PolicyKind| {
                kind.build().partition(
                    &vec![ThreadMemProfile::default(); threads.len()],
                    &topo,
                    None,
                )
            };
            let mut s = seen.get();
            for (&rider, agreed) in riders.iter().zip(agreed) {
                s[if agreed {
                    2
                } else if cold(rider) != cold(live) {
                    0
                } else {
                    1
                }] += 1;
            }
            seen.set(s);
            Ok(())
        });
        let [cold, mid, never] = seen.get();
        assert!(cold > 0 && mid > 0 && never > 0, "cold {cold}, mid-run {mid}, never {never}");
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

    /// A profile with every duration zeroed: what must not depend on how
    /// many workers ran the jobs (span paths, counts and counters).
    fn shape(p: &dbp_obs::Profile) -> dbp_obs::Profile {
        fn zero(s: &mut dbp_obs::ProfSpan) {
            (s.total_ns, s.self_ns, s.max_ns) = (0, 0, 0);
            s.children.iter_mut().for_each(zero);
        }
        let mut p = p.clone();
        p.spans.iter_mut().for_each(zero);
        p
    }

    #[test]
    fn profiled_grid_is_byte_identical_and_workers_lose_no_span_data() {
        let cfg = tiny_cfg();
        let mixes = [mixes_4core()[0].clone()];
        let combos = [harness::shared(), harness::dbp()];
        let plain = Engine::with_workers(2).run_grid(&cfg, &mixes, &combos);

        let profiled_on = |workers: usize| {
            let prof = Prof::enabled();
            let mut eng = Engine::with_workers(workers);
            eng.attach_profiler(&prof);
            let grid = eng.run_grid(&cfg, &mixes, &combos);
            (prof, eng, grid)
        };
        let (prof, eng, profiled) = profiled_on(2);
        for (prow, qrow) in plain.iter().zip(&profiled) {
            for (p, q) in prow.iter().zip(qrow) {
                assert_eq!(p.alone_ipcs, q.alone_ipcs);
                assert_eq!(p.shared, q.shared);
            }
        }
        // The snapshot sees every job, with the simulator's own spans
        // nested under the shared runs.
        let p = prof.snapshot();
        let shared =
            p.spans.iter().find(|s| s.name == "bench/shared_run").expect("shared-run span present");
        assert_eq!(shared.count, 2);
        assert!(shared.children.iter().any(|c| c.name == "sim/measure"));
        let solo = p.spans.iter().find(|s| s.name == "bench/solo_run").unwrap();
        assert_eq!(solo.count, 4);
        // Each run publishes its counters once, from whichever worker, and
        // no worker loses a span: two workers record exactly the paths,
        // counts and counters one does.
        assert_eq!(p.counters.len(), 9);
        assert_eq!(shape(&p), shape(&profiled_on(1).0.snapshot()));
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
