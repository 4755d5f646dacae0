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
    /// Every scheduler under its command-line name, default-configured:
    /// the one list that parsing, help text and "all schedulers" loops
    /// share.
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

    /// Check the selected scheduler's tuning knobs.
    ///
    /// # Errors
    ///
    /// Names the offending field, e.g. `scheduler: atlas.alpha must be …`.
    pub fn validate(&self) -> Result<(), String> {
        let (name, checked) = match self {
            SchedulerKind::Fcfs | SchedulerKind::FrFcfs => return Ok(()),
            SchedulerKind::FrFcfsCap(cfg) => ("frfcfs-cap", cfg.validate()),
            SchedulerKind::ParBs(cfg) => ("parbs", cfg.validate()),
            SchedulerKind::Atlas(cfg) => ("atlas", cfg.validate()),
            SchedulerKind::Bliss(cfg) => ("bliss", cfg.validate()),
            SchedulerKind::Tcm(cfg) => ("tcm", cfg.validate()),
        };
        checked.map_err(|e| format!("scheduler: {name}.{e}"))
    }

    /// Instantiate the scheduler for `threads` threads.
    ///
    /// # Panics
    ///
    /// Panics if the kind does not [`SchedulerKind::validate`].
    pub fn build(&self, threads: usize) -> Box<dyn Scheduler> {
        match *self {
            SchedulerKind::Fcfs => Box::new(Fcfs),
            SchedulerKind::FrFcfs => Box::new(FrFcfs),
            SchedulerKind::FrFcfsCap(cfg) => Box::new(FrFcfsCap::new(cfg)),
            SchedulerKind::ParBs(cfg) => Box::new(ParBs::new(cfg, threads)),
            SchedulerKind::Atlas(cfg) => Box::new(Atlas::new(cfg, threads)),
            SchedulerKind::Bliss(cfg) => Box::new(Bliss::new(cfg, threads)),
            SchedulerKind::Tcm(cfg) => Box::new(Tcm::new(cfg, threads)),
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
    /// How often retired-instruction counts are fed to the profiler,
    /// CPU cycles (must divide the epoch for clean accounting).
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
        self.scheduler.validate()?;
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
            let s = k.build(4);
            assert!(!s.name().is_empty());
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

    /// Scheduler knobs that used to pass `validate()` and then panic in
    /// the scheduler's constructor.
    #[test]
    fn validation_covers_scheduler_parameters() {
        let atlas = |quantum, alpha| SchedulerKind::Atlas(AtlasConfig { quantum, alpha });
        let bliss = |blacklist_threshold, clear_interval| {
            SchedulerKind::Bliss(BlissConfig { blacklist_threshold, clear_interval })
        };
        let tcm = |quantum, shuffle_interval| {
            SchedulerKind::Tcm(TcmConfig { quantum, shuffle_interval, ..Default::default() })
        };
        for (scheduler, field) in [
            (atlas(0, 0.875), "scheduler: atlas.quantum"),
            (atlas(10, 1.0), "scheduler: atlas.alpha"),
            (atlas(10, -0.1), "scheduler: atlas.alpha"),
            (atlas(10, f64::NAN), "scheduler: atlas.alpha"),
            (bliss(0, 10), "scheduler: bliss.blacklist_threshold"),
            (bliss(4, 0), "scheduler: bliss.clear_interval"),
            (SchedulerKind::FrFcfsCap(FrFcfsCapConfig { cap: 0 }), "scheduler: frfcfs-cap.cap"),
            (SchedulerKind::ParBs(ParBsConfig { batch_cap: 0 }), "scheduler: parbs.batch_cap"),
            (tcm(0, 800), "scheduler: tcm.quantum"),
            (tcm(50_000, 0), "scheduler: tcm.shuffle_interval"),
        ] {
            let err = SimConfig { scheduler, ..SimConfig::fast_test() }.validate().unwrap_err();
            assert!(err.contains(field), "{field}: {err}");
        }
        for (name, scheduler) in SchedulerKind::named() {
            assert_eq!(scheduler.validate(), Ok(()), "{name}");
        }
    }

    /// `validate` is the constructor's guard. Over random configurations
    /// far from Table 1 — 1–4 channels and ranks, 1–64 banks per rank,
    /// small memories, tiny queues and odd write watermarks, up to 16
    /// cores on as little as one bank unit, epochs shorter than the feed
    /// interval, every policy (DBP at alpha 0, NaN and infinity too) and
    /// every scheduler, each case with at most one field made invalid —
    /// `validate()` is `Ok` exactly when building a `System` and running
    /// it for a few epochs does not panic, and a rejected configuration
    /// panics at the guard itself.
    ///
    /// Every trace here touches `FOOTPRINT_PAGES` pages and the drawn
    /// memories hold sixteen of them: running out of physical memory
    /// depends on the traces' footprints, which a `SimConfig` cannot
    /// know, so `validate` cannot guard it (`MemoryManager` panics
    /// "physical memory exhausted").
    #[test]
    fn validate_is_ok_exactly_when_the_system_builds_and_runs() {
        use dbp_util::prop::{check, range, Config};
        use dbp_util::prop_assert;

        let policy = |p: usize, k: u32| {
            let dbp = |alpha| {
                let estimator = EstimatorConfig { alpha };
                PolicyKind::Dbp(DbpConfig { estimator, ..Default::default() })
            };
            match p {
                0 => PolicyKind::Unpartitioned,
                1 => PolicyKind::Equal,
                2 => dbp(2.0),
                3 => dbp([0.0, f64::NAN, f64::INFINITY, -1.0][k as usize]),
                4 => PolicyKind::Mcp(Default::default()),
                _ => PolicyKind::RestrictFirst(k),
            }
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
            range(0usize..14),                  // the one field made invalid, if any
        );
        let misc = (
            range(1u64..9),   // CPU cycles per DRAM cycle
            range(1usize..5), // MSHRs
            range(0usize..3), // migration budget: 0 pages, 8 pages, unthrottled
            range(0usize..8), // bit 0: eager migration, 1: closed page, 2: XOR mapping
            range(0u64..3),   // extra CPU cycles on the epoch
        );
        let valid = std::cell::Cell::new(0u32);
        check(Config::cases(64), &(geometry, queues, run, misc), |(g, q, r, m)| {
            let (log_channels, log_ranks, log_banks, log_rows) = g;
            let (read_q_cap, write_q_cap, hi, lo) = q;
            let (cores, (feed, feeds_per_epoch), (p, k), s, flaw) = r;
            let mut cfg = SimConfig::fast_test();
            let d = &mut cfg.dram;
            (d.channels, d.ranks_per_channel) = (1 << log_channels, 1 << log_ranks);
            (d.banks_per_rank, d.rows_per_bank) = (1 << log_banks, 1 << log_rows);
            let c = &mut cfg.ctrl;
            (c.read_q_cap, c.write_q_cap) = (read_q_cap, write_q_cap);
            c.write_hi = 1 + hi % write_q_cap;
            c.write_lo = lo % c.write_hi;
            cfg.instr_feed_interval = feed * 1_000;
            cfg.epoch_cpu_cycles = cfg.instr_feed_interval * feeds_per_epoch;
            cfg.policy = policy(p, k);
            cfg.scheduler = SchedulerKind::named()[s].1;
            cfg.warmup_instructions = 1_000;
            cfg.target_instructions = 2_000;
            let (cpu_per_dram, mshrs, budget, bits, extra) = m;
            (cfg.cpu_per_dram, cfg.mshrs) = (cpu_per_dram, mshrs);
            cfg.migration_budget_pages = [Some(0), Some(8), None][budget];
            if bits & 1 == 1 {
                cfg.migration_mode = MigrationMode::Eager;
            }
            if bits & 2 == 2 {
                cfg.dram.row_policy = dbp_dram::RowPolicy::Closed;
            }
            if bits & 4 == 4 {
                cfg.dram.mapping = dbp_dram::MappingScheme::PermutedPageColoring;
            }
            cfg.epoch_cpu_cycles += extra;
            match flaw {
                0 => cfg.dram.channels = 3,
                1 => cfg.dram.ranks_per_channel = 3,
                2 => cfg.dram.banks_per_rank += 3,
                3 => cfg.ctrl.read_q_cap = 0,
                4 => cfg.ctrl.write_q_cap = 1,
                5 => cfg.ctrl.write_lo = cfg.ctrl.write_hi,
                6 => cfg.epoch_cpu_cycles = cfg.instr_feed_interval / 2,
                7 => cfg.policy = policy(3, k),
                8 => cfg.policy = PolicyKind::RestrictFirst(0),
                _ => {}
            }
            cfg.max_cpu_cycles = 3 * cfg.epoch_cpu_cycles;
            let verdict = cfg.validate();
            let ran = std::panic::catch_unwind(|| {
                let traces = (0..cores as u64).map(|i| sweep_trace(FOOTPRINT_PAGES, i)).collect();
                crate::System::new(cfg.clone(), traces).run();
            })
            .map_err(|panic| match panic.downcast::<String>() {
                Ok(msg) => *msg,
                Err(panic) => panic.downcast_ref::<&str>().map_or("?", |m| m).to_owned(),
            });
            match (verdict, ran) {
                (Ok(()), Ok(())) => valid.set(valid.get() + 1),
                (Ok(()), Err(msg)) => {
                    prop_assert!(false, "validate passed a config that panics: {msg}")
                }
                (Err(e), Ok(())) => {
                    prop_assert!(false, "validate rejected a config that runs: {e}")
                }
                (Err(e), Err(msg)) => prop_assert!(
                    msg.contains("invalid SimConfig") && msg.contains(&e),
                    "{msg} is not the guard's rejection: {e}"
                ),
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
