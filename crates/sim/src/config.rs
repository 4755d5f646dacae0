//! Whole-system configuration.

use dbp_cache::HierarchyConfig;
use dbp_core::policy::PolicyKind;
use dbp_cpu::CoreConfig;
use dbp_dram::DramConfig;
use dbp_memctrl::scheduler::{
    Atlas, AtlasConfig, Bliss, BlissConfig, Fcfs, FrFcfs, FrFcfsCap, FrFcfsCapConfig, ParBs,
    ParBsConfig, Scheduler, Tcm, TcmConfig,
};
use dbp_memctrl::CtrlConfig;
use dbp_osmem::{ColorSet, MigrationMode};

/// Which request scheduler the controller runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    Fcfs,
    FrFcfs,
    FrFcfsCap(FrFcfsCapConfig),
    ParBs(ParBsConfig),
    Atlas(AtlasConfig),
    Bliss(BlissConfig),
    Tcm(TcmConfig),
}

impl SchedulerKind {
    /// Every scheduler under its command-line name: the one list that
    /// parsing, help text and "all schedulers" loops share.
    pub fn named() -> [(&'static str, SchedulerKind); 7] {
        [
            ("fcfs", SchedulerKind::Fcfs),
            ("frfcfs", SchedulerKind::FrFcfs),
            ("frfcfs-cap", SchedulerKind::FrFcfsCap(Default::default())),
            ("parbs", SchedulerKind::ParBs(Default::default())),
            ("atlas", SchedulerKind::Atlas(Default::default())),
            ("bliss", SchedulerKind::Bliss(Default::default())),
            ("tcm", SchedulerKind::Tcm(Default::default())),
        ]
    }

    /// Instantiate the scheduler for `threads` threads.
    pub fn build(&self, threads: usize) -> Box<dyn Scheduler> {
        match self {
            SchedulerKind::Fcfs => Box::new(Fcfs),
            SchedulerKind::FrFcfs => Box::new(FrFcfs),
            SchedulerKind::FrFcfsCap(_) => Box::new(FrFcfsCap::new()),
            SchedulerKind::ParBs(_) => Box::new(ParBs::new(threads)),
            SchedulerKind::Atlas(_) => Box::new(Atlas::new(threads)),
            SchedulerKind::Bliss(_) => Box::new(Bliss::new(threads)),
            SchedulerKind::Tcm(_) => Box::new(Tcm::new(threads)),
        }
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Fcfs => "FCFS",
            SchedulerKind::FrFcfs => "FR-FCFS",
            SchedulerKind::FrFcfsCap(_) => "FR-FCFS+Cap",
            SchedulerKind::ParBs(_) => "PAR-BS",
            SchedulerKind::Atlas(_) => "ATLAS",
            SchedulerKind::Bliss(_) => "BLISS",
            SchedulerKind::Tcm(_) => "TCM",
        }
    }
}

/// Whether page-migration traffic is charged to the DRAM model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MigrationCost {
    /// Each migrated page injects line-granularity copy traffic
    /// (reads of the old frame + writes of the new one).
    #[default]
    Charged,
    /// Migration is instantaneous and free (an upper bound used by the
    /// migration-cost ablation).
    Free,
}

/// Everything needed to build a [`crate::System`].
#[derive(Debug, Clone)]
pub struct SimConfig {
    pub dram: DramConfig,
    pub ctrl: CtrlConfig,
    pub core: CoreConfig,
    pub hierarchy: HierarchyConfig,
    /// Outstanding-miss capacity per core.
    pub mshrs: usize,
    /// CPU cycles per DRAM bus cycle (4 GHz CPU over DDR3-1333 ~ 6).
    pub cpu_per_dram: u64,
    pub scheduler: SchedulerKind,
    pub policy: PolicyKind,
    /// Repartitioning epoch, CPU cycles.
    pub epoch_cpu_cycles: u64,
    /// How partition changes move resident pages.
    pub migration_mode: MigrationMode,
    pub migration_cost: MigrationCost,
    /// Instructions each thread executes before measurement starts.
    /// Warms the caches, lets first-touch allocation place the footprint,
    /// and lets dynamic policies settle (their first repartition wave —
    /// including its migration cost — happens here, as in the paper's
    /// steady-state methodology).
    pub warmup_instructions: u64,
    /// Per-thread instruction target *after warmup*; IPC is measured at
    /// this point.
    pub target_instructions: u64,
    /// Hard wall on simulated CPU cycles (safety against livelock).
    pub max_cpu_cycles: u64,
    /// How often retired-instruction counts are fed to the profiler
    /// between epochs, CPU cycles; at most one epoch. Each repartition
    /// feeds them itself, so every epoch's profile counts exactly its own
    /// instructions whether or not the interval divides the epoch
    /// (Figure 12 runs 250 000-cycle epochs on a 100 000-cycle feed).
    pub instr_feed_interval: u64,
    /// Pages the OS migration daemon may move per epoch (None =
    /// unthrottled). Caps the disruption a repartition can cause within
    /// one epoch; the remainder moves in later epochs.
    pub migration_budget_pages: Option<u64>,
    /// Event-driven time skipping (see `System::maybe_skip`). Skipping
    /// never changes a simulated outcome, only wall-clock speed; `false`
    /// pins the per-cycle stepped core for cross-checks.
    pub time_skip: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            // 2 channels x 1 rank x 8 banks = 16 banks / 16 page colors:
            // the bank-to-thread ratio of the paper-era 4-core setups
            // (large enough to matter, small enough that threads contend).
            dram: DramConfig { ranks_per_channel: 1, rows_per_bank: 8192, ..DramConfig::default() },
            ctrl: CtrlConfig::default(),
            core: CoreConfig::default(),
            hierarchy: HierarchyConfig::default(),
            mshrs: 32,
            cpu_per_dram: 6,
            scheduler: SchedulerKind::FrFcfs,
            policy: PolicyKind::Unpartitioned,
            epoch_cpu_cycles: 1_000_000,
            migration_mode: MigrationMode::Lazy,
            migration_cost: MigrationCost::Charged,
            warmup_instructions: 500_000,
            target_instructions: 1_000_000,
            max_cpu_cycles: 2_000_000_000,
            instr_feed_interval: 100_000,
            migration_budget_pages: Some(128),
            time_skip: true,
        }
    }
}

impl SimConfig {
    /// A configuration sized for unit tests: small DRAM, short epochs,
    /// low instruction targets.
    pub fn fast_test() -> Self {
        SimConfig {
            dram: DramConfig { rows_per_bank: 1024, ..DramConfig::default() },
            epoch_cpu_cycles: 200_000,
            warmup_instructions: 20_000,
            target_instructions: 100_000,
            max_cpu_cycles: 200_000_000,
            instr_feed_interval: 20_000,
            ..Default::default()
        }
    }

    /// Validate cross-field consistency.
    ///
    /// Two checks are input checks only. A zero epoch or feed interval
    /// puts its boundary at cycle 0 and never moves it: the run
    /// repartitions (or feeds) once, at cycle 0, and never skips time. A
    /// feed interval above the epoch never fires between repartitions,
    /// which feed anyway. Such runs complete soundly, so no run can show
    /// either check missing; they are refused because the run would not
    /// mean what the configuration says.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        self.dram.validate()?;
        // One page color per bank, and a partition names at most this many.
        let d = &self.dram;
        if d.total_banks() > ColorSet::MAX_COLORS {
            return Err(format!(
                "dram: {} channels x {} ranks x {} banks = {} page colors, more than the {} \
                 a partition can name",
                d.channels,
                d.ranks_per_channel,
                d.banks_per_rank,
                d.total_banks(),
                ColorSet::MAX_COLORS
            ));
        }
        self.ctrl.validate()?;
        self.policy.validate()?;
        self.core.validate().map_err(|e| format!("core: {e}"))?;
        // One line size end to end: a miss moves exactly one DRAM burst.
        let burst = self.dram.burst_bytes();
        for (level, cache) in [("l1", &self.hierarchy.l1), ("l2", &self.hierarchy.l2)] {
            cache.validate().map_err(|e| format!("hierarchy.{level}: {e}"))?;
            if cache.line_bytes != burst {
                return Err(format!(
                    "hierarchy.{level}.line_bytes ({}) must equal the DRAM burst ({burst} bytes)",
                    cache.line_bytes
                ));
            }
        }
        if self.cpu_per_dram == 0 {
            return Err("cpu_per_dram must be positive".into());
        }
        if self.epoch_cpu_cycles == 0 || self.instr_feed_interval == 0 {
            return Err("epoch and feed interval must be positive".into());
        }
        if self.instr_feed_interval > self.epoch_cpu_cycles {
            return Err("instr_feed_interval must not exceed the epoch".into());
        }
        if self.target_instructions == 0 {
            return Err("target_instructions must be positive".into());
        }
        if self.mshrs == 0 {
            return Err("mshrs must be positive".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_core::policy::DbpConfig;
    use dbp_core::EstimatorConfig;
    use dbp_cpu::{TraceOp, TraceSource};
    use dbp_workloads::{profiles, SyntheticTrace};

    const FOOTPRINT_PAGES: u64 = 32;

    /// Core `i`'s trace: line after line through `pages` pages, every
    /// fifth access a store.
    fn sweep_trace(pages: u64, i: u64) -> Box<dyn TraceSource> {
        let mut n = 0u64;
        Box::new(move || {
            n += 1;
            let gap = ((n + i) % 7) as u32;
            TraceOp { gap, addr: (n % (pages * 64)) << 6, is_write: n.is_multiple_of(5) }
        })
    }

    #[test]
    fn defaults_validate_and_build() {
        for cfg in [SimConfig::default(), SimConfig::fast_test()] {
            cfg.validate().unwrap();
            let trace = SyntheticTrace::new(profiles::by_name("mcf"), 1);
            let sys = crate::System::new(cfg, vec![Box::new(trace)]);
            assert_eq!(sys.num_cores(), 1);
        }
    }

    #[test]
    fn scheduler_kinds_build() {
        for (_, k) in SchedulerKind::named() {
            k.build(4);
            assert!(!k.label().is_empty());
        }
    }

    #[test]
    fn validation_catches_bad_controller_sizing() {
        let mut c = SimConfig::default();
        c.ctrl.write_lo = c.ctrl.write_hi;
        assert!(c.validate().unwrap_err().contains("write_lo"));
        let mut c = SimConfig::default();
        c.ctrl.read_q_cap = 0;
        assert!(c.validate().unwrap_err().contains("read_q_cap"));
    }

    #[test]
    fn validation_catches_bad_estimator_alpha() {
        for alpha in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let dbp = DbpConfig { estimator: EstimatorConfig { alpha }, ..Default::default() };
            let c = SimConfig { policy: PolicyKind::Dbp(dbp), ..SimConfig::fast_test() };
            assert!(c.validate().unwrap_err().contains("alpha"), "alpha = {alpha}");
        }
    }

    /// Shapes that used to panic in `Core::new` / `Cache::new` /
    /// `Hierarchy::new` / `ColorTopology::new` after `validate()` had
    /// passed — or, for a line that is not one DRAM burst, were accepted
    /// and mis-simulated.
    #[test]
    fn validation_covers_core_and_hierarchy() {
        let edit = |f: fn(&mut SimConfig)| {
            let mut c = SimConfig::fast_test();
            f(&mut c);
            c.validate().unwrap_err()
        };
        for (err, field) in [
            (edit(|c| c.core.rob = 0), "core: rob"),
            (edit(|c| c.core.width = 0), "core: width"),
            (edit(|c| c.hierarchy.l1.ways = 0), "hierarchy.l1: ways"),
            (
                edit(|c| {
                    c.hierarchy.l1.line_bytes = 128;
                    c.hierarchy.l2.line_bytes = 128;
                }),
                "hierarchy.l1.line_bytes (128)",
            ),
            (edit(|c| c.hierarchy.l2.line_bytes = 32), "hierarchy.l2.line_bytes (32)"),
            (
                edit(|c| {
                    c.dram.channels = 4;
                    c.dram.banks_per_rank = 64;
                }),
                "= 512 page colors, more than the 128",
            ),
        ] {
            assert!(err.contains(field), "{field}: {err}");
        }
    }

    /// `validate` is the constructor's guard. Over random configurations
    /// far from Table 1 — 1–4 channels and ranks, 1–64 banks per rank,
    /// small memories, tiny queues and odd write watermarks, narrow cores
    /// with small windows and caches, up to 16 cores on as little as one
    /// bank unit, epochs shorter than the feed interval, every policy
    /// (DBP at alpha 0, NaN and infinity too) and every scheduler —
    /// `validate()` is `Ok` exactly when building a `System` and running
    /// it into measurement does not panic, a rejected configuration
    /// panics at the guard itself, and every thread that reached its
    /// target did so at a positive IPC. Each run is observed by a live
    /// recorder, and every fraction it exports — bus utilisation,
    /// row-hit rate and each thread's RBL, per epoch and for the run —
    /// lies in [0, 1]. Each drawn configuration is also
    /// tried with each single field of `FLAWS` made invalid: a variant
    /// `validate` let through would run and must pass the same checks, so
    /// deleting any `validate` branch fails this test — except the two
    /// epoch / feed-interval checks, whose rejects run soundly (a zero
    /// feed interval only switches time skipping off, one above the
    /// epoch only never fires between repartitions, which feed anyway).
    ///
    /// Every trace here touches `FOOTPRINT_PAGES` pages and the drawn
    /// memories hold sixteen of them: running out of physical memory
    /// depends on the traces' footprints, which a `SimConfig` cannot
    /// know, so `validate` cannot guard it (`MemoryManager` panics
    /// "physical memory exhausted").
    #[test]
    fn validate_is_ok_exactly_when_the_system_builds_and_runs() {
        use dbp_obs::{Recorder, RecorderConfig};
        use dbp_util::prop::{check, range, Config};
        use dbp_util::prop_assert;

        let dbp = |alpha| {
            let estimator = EstimatorConfig { alpha };
            PolicyKind::Dbp(DbpConfig { estimator, ..Default::default() })
        };
        let bad_alpha = |k: u32| [0.0, f64::NAN, f64::INFINITY, -1.0][k as usize];
        let policy = |p: usize, k: u32| match p {
            0 => PolicyKind::Unpartitioned,
            1 => PolicyKind::Equal,
            2 => dbp(2.0),
            3 => dbp(bad_alpha(k)),
            4 => PolicyKind::Mcp(Default::default()),
            _ => PolicyKind::RestrictFirst(k),
        };
        /// One invalid field each, `k` the drawn policy parameter: every
        /// branch of `SimConfig::validate` rejects at least one of them.
        const FLAWS: usize = 20;
        let flaw = |i: usize, c: &mut SimConfig, k: u32| match i {
            0 => c.dram.channels = 3,
            1 => c.dram.ranks_per_channel = 3,
            2 => c.dram.banks_per_rank += 3,
            3 => c.ctrl.read_q_cap = 0,
            4 => c.ctrl.write_q_cap = 1,
            5 => c.ctrl.write_lo = c.ctrl.write_hi,
            6 => c.epoch_cpu_cycles = c.instr_feed_interval / 2,
            7 => c.policy = dbp(bad_alpha(k)),
            8 => c.policy = PolicyKind::RestrictFirst(0),
            9 => c.core.rob = 0,
            10 => c.core.width = 0,
            11 => c.hierarchy.l1.ways = 0,
            12 => c.hierarchy.l2.ways = 0,
            13 => c.hierarchy.l1.line_bytes = 128,
            14 => c.hierarchy.l2.line_bytes = 32,
            15 => c.dram.banks_per_rank = 256, // more than 128 page colours
            16 => c.mshrs = 0,
            17 => c.cpu_per_dram = 0,
            18 => c.target_instructions = 0,
            _ => c.instr_feed_interval = 0,
        };
        let geometry = (
            range(0u32..3),  // log2 channels
            range(0u32..3),  // log2 ranks per channel
            range(0u32..7),  // log2 banks per rank (1..=64)
            range(8u32..12), // log2 rows per bank
        );
        let queues = (
            range(1usize..5), // read queue cap
            range(2usize..9), // write queue cap
            range(0usize..8), // write_hi - 1, modulo the cap
            range(0usize..8), // write_lo, modulo write_hi
        );
        let run = (
            range(1usize..17),                  // cores
            (range(1u64..41), range(1u64..4)),  // feed interval (k cycles), epoch / feed
            (range(0usize..6), range(0u32..4)), // policy, its parameter
            range(0usize..7),                   // scheduler
            range(0u64..3),                     // extra CPU cycles on the epoch
        );
        let misc = (
            range(1u64..9),    // CPU cycles per DRAM cycle
            range(1usize..5),  // MSHRs
            range(0usize..3),  // migration budget: 0 pages, 8 pages, unthrottled
            range(0usize..16), // bit 0: eager migration, 1: closed page, 2: XOR mapping, 3: no warmup
        );
        let shape = (
            (range(1u32..5), range(1u64..65)),  // core width, ROB entries
            (range(10u32..16), range(0u32..4)), // log2 L1 bytes (1–32 KiB), log2 ways
            (range(12u32..20), range(0u32..5)), // log2 L2 bytes (4–512 KiB), log2 ways
        );
        let valid = std::cell::Cell::new(0u32);
        check(Config::cases(64), &(geometry, queues, run, misc, shape), |(g, q, r, m, sh)| {
            let (log_channels, log_ranks, log_banks, log_rows) = g;
            let (read_q_cap, write_q_cap, hi, lo) = q;
            let (cores, (feed, feeds_per_epoch), (p, k), s, extra) = r;
            let mut drawn = SimConfig::fast_test();
            let d = &mut drawn.dram;
            (d.channels, d.ranks_per_channel) = (1 << log_channels, 1 << log_ranks);
            (d.banks_per_rank, d.rows_per_bank) = (1 << log_banks, 1 << log_rows);
            let c = &mut drawn.ctrl;
            (c.read_q_cap, c.write_q_cap) = (read_q_cap, write_q_cap);
            c.write_hi = 1 + hi % write_q_cap;
            c.write_lo = lo % c.write_hi;
            drawn.instr_feed_interval = feed * 1_000;
            drawn.epoch_cpu_cycles = drawn.instr_feed_interval * feeds_per_epoch + extra;
            drawn.policy = policy(p, k);
            drawn.scheduler = SchedulerKind::named()[s].1;
            drawn.warmup_instructions = 1_000;
            drawn.target_instructions = 2_000;
            let (cpu_per_dram, mshrs, budget, bits) = m;
            (drawn.cpu_per_dram, drawn.mshrs) = (cpu_per_dram, mshrs);
            drawn.migration_budget_pages = [Some(0), Some(8), None][budget];
            if bits & 1 == 1 {
                drawn.migration_mode = MigrationMode::Eager;
            }
            if bits & 2 == 2 {
                drawn.dram.row_policy = dbp_dram::RowPolicy::Closed;
            }
            if bits & 4 == 4 {
                drawn.dram.mapping = dbp_dram::MappingScheme::PermutedPageColoring;
            }
            if bits & 8 == 8 {
                drawn.warmup_instructions = 0;
            }
            let ((width, rob), (l1_bytes, l1_ways), (l2_bytes, l2_ways)) = sh;
            (drawn.core.width, drawn.core.rob) = (width, rob);
            let h = &mut drawn.hierarchy;
            (h.l1.size_bytes, h.l1.ways) = (1 << l1_bytes, 1 << l1_ways);
            (h.l2.size_bytes, h.l2.ways) = (1 << l2_bytes, 1 << l2_ways);
            for i in (0..FLAWS).map(Some).chain([None]) {
                let mut cfg = drawn.clone();
                if let Some(i) = i {
                    flaw(i, &mut cfg, k);
                }
                // Warmup spans at least four epochs; the fifth is measured
                // (without warmup, all five are).
                cfg.max_cpu_cycles = 5 * cfg.epoch_cpu_cycles;
                let verdict = cfg.validate();
                if i.is_some() && verdict.is_err() {
                    continue; // the guard is `validate` itself: no need to build
                }
                let ran = std::panic::catch_unwind(|| {
                    let traces =
                        (0..cores as u64).map(|i| sweep_trace(FOOTPRINT_PAGES, i)).collect();
                    let rec = Recorder::new(RecorderConfig::default());
                    let run = crate::System::with_recorder(cfg.clone(), traces, rec.clone()).run();
                    (run, rec.snapshot().series)
                })
                .map_err(|panic| match panic.downcast::<String>() {
                    Ok(msg) => *msg,
                    Err(panic) => panic.downcast_ref::<&str>().map_or("?", |m| m).to_owned(),
                });
                match (verdict, ran) {
                    (Ok(()), Ok((run, series))) => {
                        valid.set(valid.get() + u32::from(i.is_none()));
                        let per_epoch = series.iter().flat_map(|e| {
                            let threads = e.threads.iter().map(|t| t.rbl);
                            [e.bus_utilisation, e.row_hit_rate].into_iter().chain(threads)
                        });
                        let per_run = [run.bus_utilisation, run.row_hit_rate]
                            .into_iter()
                            .chain(run.threads.iter().map(|t| t.rbl));
                        let fractions: Vec<f64> = per_epoch.chain(per_run).collect();
                        prop_assert!(
                            fractions.iter().all(|f| (0.0..=1.0).contains(f)),
                            "flaw {i:?}: an exported fraction is outside [0, 1]: {fractions:?}"
                        );
                        prop_assert!(
                            run.threads.iter().all(|t| !t.reached_target || t.ipc > 0.0),
                            "flaw {i:?}: a thread reached its target at IPC 0"
                        );
                    }
                    (Ok(()), Err(msg)) => {
                        prop_assert!(
                            false,
                            "flaw {i:?}: validate passed a config that panics: {msg}"
                        )
                    }
                    (Err(e), Ok(_)) => {
                        prop_assert!(false, "flaw {i:?}: validate rejected a config that runs: {e}")
                    }
                    (Err(e), Err(msg)) => prop_assert!(
                        msg.contains("invalid SimConfig") && msg.contains(&e),
                        "flaw {i:?}: {msg} is not the guard's rejection: {e}"
                    ),
                }
            }
            Ok(())
        });
        assert!(valid.get() >= 16, "only {} of 64 configurations were valid", valid.get());
    }

    #[test]
    fn validation_catches_bad_feed_interval() {
        let mut c = SimConfig::default();
        c.instr_feed_interval = c.epoch_cpu_cycles + 1;
        assert!(c.validate().is_err());
    }
}
