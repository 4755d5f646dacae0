//! Experiment runner: alone runs, shared runs, and metric assembly.
//!
//! Methodology (standard for multiprogrammed memory studies, and the one
//! the paper uses): every thread runs until a fixed instruction target;
//! threads that finish early keep executing to sustain contention; IPC is
//! measured at the target. `ipc_alone` comes from running each benchmark
//! alone on the same memory system with the FR-FCFS baseline and no
//! partitioning.

use dbp_core::policy::PolicyKind;
use dbp_cpu::TraceSource;
use dbp_workloads::{Mix, SyntheticTrace};

use crate::config::{SchedulerKind, SimConfig};
use crate::metrics::{MixMetrics, RunResult};
use crate::system::System;

/// A fully measured mix: alone IPCs, the shared run, and the metrics.
#[derive(Debug, Clone)]
pub struct MixRun {
    pub mix_name: &'static str,
    pub alone_ipcs: Vec<f64>,
    pub shared: RunResult,
    pub metrics: MixMetrics,
}

impl MixRun {
    /// Assemble a measured mix from already-computed parts.
    ///
    /// # Panics
    ///
    /// Panics if `alone_ipcs` does not hold exactly one baseline per core
    /// of `mix` — a stale cache entry for a different core count must
    /// fail loudly instead of indexing metrics against the wrong
    /// baselines.
    pub fn from_parts(mix: &Mix, alone_ipcs: Vec<f64>, shared: RunResult) -> MixRun {
        assert_eq!(
            alone_ipcs.len(),
            mix.cores(),
            "alone-run baseline count does not match mix `{}` core count",
            mix.name
        );
        let metrics = MixMetrics::new(&alone_ipcs, &shared.ipcs());
        MixRun { mix_name: mix.name, alone_ipcs, shared, metrics }
    }

    /// Weighted speedup of the shared run.
    pub fn weighted_speedup(&self) -> f64 {
        self.metrics.weighted_speedup
    }

    /// Maximum slowdown of the shared run.
    pub fn max_slowdown(&self) -> f64 {
        self.metrics.max_slowdown
    }
}

/// Deterministic seed for (mix, core): FNV-1a over the mix name, the
/// benchmark name, and the core index, so repeated benchmarks in scaled
/// mixes get distinct streams.
///
/// The core index is folded into the FNV stream itself (not XORed onto
/// the result afterwards): two cores running the same benchmark in the
/// same mix must get seeds that differ throughout the word, not in a
/// couple of high bits, or their generator streams start out correlated.
pub fn seed_for(mix: &Mix, core: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes =
        mix.name.bytes().chain(mix.benchmarks[core].bytes()).chain((core as u64).to_le_bytes());
    for b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// The synthetic trace of `benchmark` under `seed`.
fn trace(benchmark: &str, seed: u64) -> Box<dyn TraceSource> {
    Box::new(SyntheticTrace::new(dbp_workloads::profiles::by_name(benchmark), seed))
}

/// The synthetic trace for one core of a mix.
pub fn trace_for(mix: &Mix, core: usize) -> Box<dyn TraceSource> {
    trace(mix.benchmarks[core], seed_for(mix, core))
}

/// Everything one simulation is a pure function of: the configuration
/// and one `(benchmark, trace seed)` per core. Every run in the
/// workspace — shared, alone, calibration — is [`Cell::run`] on one of
/// these, and [`Cell::key`] is what a memo may key its outcome by.
#[derive(Debug, Clone)]
pub struct Cell {
    pub cfg: SimConfig,
    pub threads: Vec<(&'static str, u64)>,
}

impl Cell {
    /// The shared (co-scheduled) run of `mix` under `cfg`.
    pub fn shared(cfg: &SimConfig, mix: &Mix) -> Cell {
        let threads = (0..mix.cores()).map(|i| (mix.benchmarks[i], seed_for(mix, i))).collect();
        Cell { cfg: cfg.clone(), threads }
    }

    /// The alone run of one benchmark of `mix`: the same trace, by itself
    /// on [`alone_config`].
    pub fn alone(cfg: &SimConfig, mix: &Mix, core: usize) -> Cell {
        Cell { cfg: alone_config(cfg), threads: vec![(mix.benchmarks[core], seed_for(mix, core))] }
    }

    /// The cell spelled out as text. `Debug` is derived on every type
    /// inside [`SimConfig`], so no field — present or future — can sit
    /// outside the key, and floats print their shortest round-trip form:
    /// equal keys mean equal cells, hence equal outcomes.
    pub fn key(&self) -> String {
        format!("{self:?}")
    }

    /// Simulate the cell. Telemetry goes into `rec` (events, epoch
    /// series, latency anatomy and — with
    /// [`dbp_obs::RecorderConfig::audit`] — the decision audit), host-side
    /// self-profiling spans/counters into `prof`; pass a disabled handle
    /// for a half that is not wanted. Both only observe: the outcome is
    /// byte-identical either way.
    ///
    /// Read the observers through [`dbp_obs::Recorder::snapshot`] and
    /// [`dbp_obs::Prof::snapshot`] once the run has returned, on any
    /// thread. A recorder's shared state is not `Send`, so fan-outs build
    /// one per call.
    pub fn run(&self, rec: dbp_obs::Recorder, prof: dbp_obs::Prof) -> RunResult {
        self.run_group(&[], rec, prof).0
    }

    /// Simulate the cell with the policies `twins` riding along, and
    /// report per twin whether it stayed in agreement: whether the cell
    /// with `cfg.policy` set to that twin would have planned exactly
    /// what this one did at every decision, cold start included. Such a
    /// twin's own run *is* this run, so the result is its result too; a
    /// twin that disagreed must be run on its own. Every twin's
    /// configuration is validated first, so a bad twin fails as it would
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `rec` is live and `twins` is not empty: the events and
    /// the decision audit a recorder keeps name the live policy.
    pub fn run_group(
        &self,
        twins: &[PolicyKind],
        rec: dbp_obs::Recorder,
        prof: dbp_obs::Prof,
    ) -> (RunResult, Vec<bool>) {
        assert!(
            twins.is_empty() || !rec.is_enabled(),
            "a recorded run is a group of one: its telemetry names the live policy"
        );
        let traces = self.threads.iter().map(|&(benchmark, seed)| trace(benchmark, seed)).collect();
        let mut sys = System::with_twins(self.cfg.clone(), traces, rec, prof, twins);
        let result = sys.run();
        (result, sys.twins_agreeing())
    }
}

/// The configuration an alone run executes under: `cfg`'s memory system
/// with the baseline FR-FCFS scheduler and no partitioning, whatever
/// `cfg` selects for the shared run. The migration knobs are reset to
/// their defaults as well — with a static whole-machine partition no
/// page ever migrates — so that the alone cells of configurations
/// differing only in fields an alone run never exercises are *equal*,
/// and a memo keyed by [`Cell::key`] shares them. A field missing from
/// this list costs such a memo a miss, never a stale hit.
pub fn alone_config(cfg: &SimConfig) -> SimConfig {
    let base = SimConfig::default();
    SimConfig {
        scheduler: SchedulerKind::FrFcfs,
        policy: PolicyKind::Unpartitioned,
        migration_mode: base.migration_mode,
        migration_cost: base.migration_cost,
        migration_budget_pages: base.migration_budget_pages,
        ..cfg.clone()
    }
}

/// An alone run hit the cycle cap before reaching its instruction
/// target: its IPC would be truncated, and every weighted-speedup /
/// maximum-slowdown number derived from it silently wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AloneRunError {
    pub mix: &'static str,
    pub benchmark: &'static str,
    pub core: usize,
    pub max_cpu_cycles: u64,
    pub target_instructions: u64,
}

impl std::fmt::Display for AloneRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "alone run of `{}` (core {} of mix `{}`) hit the cycle cap: \
             {} CPU cycles elapsed before the target of {} instructions; \
             its IPC would be a truncated lower bound, poisoning every \
             metric derived from it — raise max_cpu_cycles or lower \
             target_instructions",
            self.benchmark, self.core, self.mix, self.max_cpu_cycles, self.target_instructions
        )
    }
}

impl std::error::Error for AloneRunError {}

/// The alone IPC that `run` — the outcome of [`Cell::alone`]`(cfg, mix,
/// core)` — measured, or an error if it hit the cycle cap before the
/// instruction target.
pub fn alone_ipc_of(
    cfg: &SimConfig,
    mix: &Mix,
    core: usize,
    run: &RunResult,
) -> Result<f64, AloneRunError> {
    if !run.reached_target {
        return Err(AloneRunError {
            mix: mix.name,
            benchmark: mix.benchmarks[core],
            core,
            max_cpu_cycles: cfg.max_cpu_cycles,
            target_instructions: cfg.target_instructions,
        });
    }
    Ok(run.threads[0].ipc)
}

/// Alone-run IPC of every benchmark in `mix`: each runs by itself on the
/// full memory system (FR-FCFS, unpartitioned), regardless of what
/// `cfg` selects for the shared run.
///
/// # Panics
///
/// Panics — in every build profile, not just debug — if any alone run
/// hits the cycle cap before the instruction target (see
/// [`AloneRunError`]).
pub fn alone_ipcs(cfg: &SimConfig, mix: &Mix) -> Vec<f64> {
    (0..mix.cores())
        .map(|core| {
            let run = Cell::alone(cfg, mix, core)
                .run(dbp_obs::Recorder::disabled(), dbp_obs::Prof::disabled());
            alone_ipc_of(cfg, mix, core, &run).unwrap_or_else(|e| panic!("{e}"))
        })
        .collect()
}

/// The shared (co-scheduled) run of `mix` under `cfg`, unobserved (an
/// observed one is [`Cell::shared`]`(cfg, mix).run(rec, prof)`).
pub fn run_shared(cfg: &SimConfig, mix: &Mix) -> RunResult {
    Cell::shared(cfg, mix).run(dbp_obs::Recorder::disabled(), dbp_obs::Prof::disabled())
}

/// Alone runs + shared run + metrics in one call.
pub fn run_mix(cfg: &SimConfig, mix: &Mix) -> MixRun {
    let alone = alone_ipcs(cfg, mix);
    run_mix_with_alone(cfg, mix, alone)
}

/// Shared run + metrics, reusing already-measured alone IPCs (they do not
/// depend on the scheduler/policy under test, so sweeps share them).
///
/// # Panics
///
/// Panics if `alone_ipcs.len() != mix.cores()` (see
/// [`MixRun::from_parts`]).
pub fn run_mix_with_alone(cfg: &SimConfig, mix: &Mix, alone_ipcs: Vec<f64>) -> MixRun {
    MixRun::from_parts(mix, alone_ipcs, run_shared(cfg, mix))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_workloads::mixes_4core;

    fn tiny_cfg() -> SimConfig {
        let mut cfg = SimConfig::fast_test();
        cfg.target_instructions = 40_000;
        cfg
    }

    #[test]
    fn seeds_differ_across_cores_and_mixes() {
        let mixes = mixes_4core();
        assert_ne!(seed_for(&mixes[0], 0), seed_for(&mixes[0], 1));
        assert_ne!(seed_for(&mixes[0], 0), seed_for(&mixes[1], 0));
    }

    #[test]
    fn seeds_differ_in_low_word_for_repeated_benchmarks() {
        // A scaled mix repeats its benchmarks: cores 0 and 4 run the same
        // program with the same mix name, so the *only* distinguisher is
        // the core index. The old `h ^ (core << 32)` left such seeds
        // identical in the low 32 bits (correlated generator streams);
        // folding the core into the FNV stream must perturb both halves.
        let m8 = dbp_workloads::scale_mix(&mixes_4core()[0], 8);
        assert_eq!(m8.benchmarks[0], m8.benchmarks[4]);
        let a = seed_for(&m8, 0);
        let b = seed_for(&m8, 4);
        assert_ne!(a & 0xffff_ffff, b & 0xffff_ffff, "low word must differ");
        assert_ne!(a >> 32, b >> 32, "high word must differ");
    }

    #[test]
    #[should_panic(expected = "cycle cap")]
    fn alone_run_hitting_cycle_cap_panics_in_every_profile() {
        // A cycle cap far below what the instruction target needs: the
        // old debug_assert! compiled away in --release and fed the
        // truncated IPC straight into the headline metrics.
        let mut cfg = tiny_cfg();
        cfg.max_cpu_cycles = 10_000;
        let _ = alone_ipcs(&cfg, &mixes_4core()[0]);
    }

    #[test]
    fn alone_ipc_of_reports_cycle_cap_context() {
        let mut cfg = tiny_cfg();
        cfg.max_cpu_cycles = 10_000;
        let mix = &mixes_4core()[0];
        let run =
            Cell::alone(&cfg, mix, 1).run(dbp_obs::Recorder::disabled(), dbp_obs::Prof::disabled());
        let err = alone_ipc_of(&cfg, mix, 1, &run).unwrap_err();
        assert_eq!(err.mix, mix.name);
        assert_eq!(err.benchmark, mix.benchmarks[1]);
        assert_eq!(err.core, 1);
        let msg = err.to_string();
        assert!(msg.contains("cycle cap") && msg.contains(mix.benchmarks[1]), "{msg}");
    }

    #[test]
    #[should_panic(expected = "core count")]
    fn stale_alone_vector_for_wrong_core_count_fails_loudly() {
        let cfg = tiny_cfg();
        let mix = &mixes_4core()[0]; // 4 cores
        run_mix_with_alone(&cfg, mix, vec![0.5, 0.5]); // stale 2-core cache entry
    }

    /// The memo key covers the whole cell. Editing any `SimConfig` field
    /// changes the shared key; the alone key ignores exactly the fields
    /// `alone_config` resets — the ones an alone run never exercises.
    #[test]
    fn cell_keys_track_every_field_a_run_can_depend_on() {
        use crate::config::MigrationCost;
        // No `..`: a new `SimConfig` field does not compile until it is
        // listed here — and then it needs an edit in the table below.
        let SimConfig {
            dram: _,
            ctrl: _,
            core: _,
            hierarchy: _,
            mshrs: _,
            cpu_per_dram: _,
            scheduler: _,
            policy: _,
            epoch_cpu_cycles: _,
            migration_mode: _,
            migration_cost: _,
            warmup_instructions: _,
            target_instructions: _,
            max_cpu_cycles: _,
            instr_feed_interval: _,
            migration_budget_pages: _,
            time_skip: _,
        } = tiny_cfg();
        type Edit = fn(&mut SimConfig);
        let alone_irrelevant: [(&str, Edit); 5] = [
            ("scheduler", |c| c.scheduler = SchedulerKind::Tcm(Default::default())),
            ("policy", |c| c.policy = PolicyKind::Dbp(Default::default())),
            ("migration_mode", |c| c.migration_mode = dbp_osmem::MigrationMode::Eager),
            ("migration_cost", |c| c.migration_cost = MigrationCost::Free),
            ("migration_budget_pages", |c| c.migration_budget_pages = None),
        ];
        let alone_relevant: [(&str, Edit); 12] = [
            ("dram", |c| c.dram.banks_per_rank *= 2),
            ("ctrl", |c| c.ctrl.read_q_cap += 1),
            ("core", |c| c.core.rob += 1),
            ("hierarchy", |c| c.hierarchy.l2.latency += 1),
            ("mshrs", |c| c.mshrs += 1),
            ("cpu_per_dram", |c| c.cpu_per_dram += 1),
            ("epoch_cpu_cycles", |c| c.epoch_cpu_cycles *= 2),
            ("warmup_instructions", |c| c.warmup_instructions += 1),
            ("target_instructions", |c| c.target_instructions += 1),
            ("max_cpu_cycles", |c| c.max_cpu_cycles += 1),
            ("instr_feed_interval", |c| c.instr_feed_interval += 1),
            ("time_skip", |c| c.time_skip = false),
        ];
        let mix = &mixes_4core()[0];
        let cfg = tiny_cfg();
        let shared = Cell::shared(&cfg, mix).key();
        let alone = Cell::alone(&cfg, mix, 1).key();
        let edited = |edit: Edit| {
            let mut c = cfg.clone();
            edit(&mut c);
            (Cell::shared(&c, mix).key(), Cell::alone(&c, mix, 1).key())
        };
        for (field, edit) in alone_irrelevant {
            let (s, a) = edited(edit);
            assert_ne!(s, shared, "{field} must change the shared key");
            assert_eq!(a, alone, "{field} cannot reach an alone run");
        }
        for (field, edit) in alone_relevant {
            let (s, a) = edited(edit);
            assert_ne!(s, shared, "{field} must change the shared key");
            assert_ne!(a, alone, "{field} must change the alone key");
        }
        // The traces are part of the key too: another core, another mix.
        assert_ne!(Cell::alone(&cfg, mix, 2).key(), alone);
        assert_ne!(Cell::shared(&cfg, &mixes_4core()[1]).key(), shared);
    }

    /// The claim `alone_config` rests on, checked by running it: an
    /// unpartitioned single-thread run never migrates a page, so it
    /// comes out the same whatever the migration knobs say.
    #[test]
    fn migration_knobs_cannot_reach_an_alone_run() {
        let cfg = SimConfig {
            migration_mode: dbp_osmem::MigrationMode::Eager,
            migration_cost: crate::config::MigrationCost::Free,
            migration_budget_pages: None,
            ..tiny_cfg()
        };
        let mix = &mixes_4core()[0];
        let run = |cell: &Cell| cell.run(dbp_obs::Recorder::disabled(), dbp_obs::Prof::disabled());
        let reset = Cell::alone(&cfg, mix, 0);
        assert_ne!(reset.cfg.migration_budget_pages, None, "alone_config resets the knobs");
        let kept = Cell { cfg, threads: reset.threads.clone() };
        assert_eq!(run(&reset), run(&kept));
    }

    /// Every observer at once — latency anatomy, decision audit, host
    /// profiler — is deterministic and observation-only, with and without
    /// a live partitioning policy underneath. The profiler's counters are
    /// exactly the nine work counters of the run, each equal to the stat
    /// the same run keeps unprofiled.
    #[test]
    fn instrumented_run_is_deterministic_and_observation_only() {
        let mix = &mixes_4core()[0];
        let recorder = || {
            dbp_obs::Recorder::new(dbp_obs::RecorderConfig { audit: true, ..Default::default() })
        };
        let observe = |cfg: &SimConfig| {
            let (rec, prof) = (recorder(), dbp_obs::Prof::enabled());
            let r = Cell::shared(cfg, mix).run(rec.clone(), prof.clone());
            let t = rec.snapshot();
            (r, t.latency.unwrap_or_default(), t.audit.unwrap_or_default(), prof.snapshot())
        };
        let unprofiled_stats = |cfg: &SimConfig| {
            let traces = Cell::shared(cfg, mix).threads.iter().map(|&(b, s)| trace(b, s)).collect();
            let mut sys = System::with_recorder(cfg.clone(), traces, recorder());
            sys.run();
            let (s, c) = (*sys.stats(), *sys.ctrl().stats());
            [
                ("dram/timing_queries", sys.ctrl().dram().timing_queries()),
                ("memctrl/blocked_ticks", c.blocked_ticks),
                ("memctrl/commands_issued", c.commands_issued),
                ("memctrl/idle_ticks", c.idle_ticks),
                ("memctrl/requests_enqueued", c.enq_reads + c.enq_writes),
                ("sim/core_ticks", s.core_ticks),
                ("sim/core_wakes", s.core_wakes),
                ("sim/cycles_skipped", s.cycles_skipped),
                ("sim/cycles_stepped", s.cycles_stepped),
            ]
            .map(|(name, v)| (name.to_string(), v))
            .to_vec()
        };
        let dbp = PolicyKind::Dbp(Default::default());
        for cfg in [tiny_cfg(), SimConfig { policy: dbp, ..tiny_cfg() }] {
            let (r1, l1, a1, p) = observe(&cfg);
            let (r2, l2, a2, _) = observe(&cfg);
            assert_eq!(l1, l2, "seeded runs must produce identical anatomy");
            assert_eq!(l1.cores.len(), mix.cores());
            assert_eq!(l1.bank_interference.n(), mix.cores());
            assert!(l1.total_reads() > 0, "measured window must profile reads");
            assert_eq!(a1, a2, "seeded runs must produce identical audits");
            assert_eq!(a1.threads, mix.cores());
            assert_eq!(a1.shadows.len(), 3, "standard rack: equal, MCP, alt-DBP");
            if cfg.policy == dbp {
                assert!(a1.convergence.decisions > 0, "run must span repartition decisions");
                assert_eq!(a1.epochs.len() as u64, a1.convergence.decisions);
                assert!(
                    a1.prediction.iter().any(|p| p.samples > 0),
                    "multi-epoch run must pair predictions with outcomes"
                );
            }
            // Observation only: the observed run's headline numbers match
            // an unobserved run of the same seed.
            let plain = run_shared(&cfg, mix);
            assert_eq!(plain.total_cycles, r1.total_cycles);
            assert_eq!(r1.total_cycles, r2.total_cycles);
            for (a, b) in plain.threads.iter().zip(&r1.threads) {
                assert_eq!(a.ipc, b.ipc);
                assert_eq!(a.reads, b.reads);
            }

            assert!(!p.is_empty());
            assert_eq!(p.counters, unprofiled_stats(&cfg), "one published counter per stat");
            let roots: Vec<&str> = p.spans.iter().map(|s| s.name.as_str()).collect();
            for phase in ["sim/warmup", "sim/measure", "sim/collect"] {
                assert!(roots.contains(&phase), "missing root span {phase}: {roots:?}");
            }
            // The cycle counter is the ground truth the spans observe:
            // every step — warmup and measured — increments it exactly once.
            let stepped = p
                .counters
                .iter()
                .find(|(n, _)| n == "sim/cycles_stepped")
                .map(|&(_, v)| v)
                .expect("cycle counter present");
            let measure = p.spans.iter().find(|s| s.name == "sim/measure").unwrap();
            let cores_tick: u64 = measure
                .children
                .iter()
                .filter(|c| c.name == "sim/cores_tick")
                .map(|c| c.count)
                .sum();
            assert!(stepped >= cores_tick, "steps span warmup too");
            assert!(cores_tick > 0, "measured window must step");
        }
    }

    #[test]
    fn run_mix_produces_consistent_metrics() {
        let cfg = tiny_cfg();
        let mix = &mixes_4core()[2]; // mix25-1: one intensive + three calm
        let run = run_mix(&cfg, mix);
        assert_eq!(run.alone_ipcs.len(), 4);
        assert!(run.weighted_speedup() > 0.0 && run.weighted_speedup() <= 4.2);
        assert!(run.max_slowdown() >= 1.0 - 1e-6, "shared can't beat alone");
    }

    #[test]
    fn alone_runs_are_reusable() {
        let cfg = tiny_cfg();
        let mix = &mixes_4core()[0];
        let alone = alone_ipcs(&cfg, mix);
        let a = run_mix_with_alone(&cfg, mix, alone.clone());
        let b = run_mix_with_alone(&cfg, mix, alone);
        assert_eq!(a.metrics.weighted_speedup, b.metrics.weighted_speedup);
    }
}
