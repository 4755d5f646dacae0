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
    use dbp_workloads::{profiles, SyntheticTrace};

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

    #[test]
    fn validation_catches_bad_feed_interval() {
        let mut c = SimConfig::default();
        c.instr_feed_interval = c.epoch_cpu_cycles + 1;
        assert!(c.validate().is_err());
    }
}
