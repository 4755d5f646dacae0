//! Shadow-policy evaluation: the simulator side of the decision audit,
//! and the home of policy twins.
//!
//! A [`ShadowRack`] holds extra [`PartitionPolicy`] instances — riders —
//! that see the exact same per-epoch [`ThreadMemProfile`] stream as the
//! live policy, in observation-only mode: each plans from its *own*
//! previous plan, as it would if it were live, and the rack notes
//! whether every plan so far equalled the live one. A rack comes in one
//! of two kinds:
//!
//! * the **audit** rack ([`ShadowRack::standard`]): three rival
//!   shadows, whose plans are also compared against the live decision
//!   and costed (how many resident pages *would* have to migrate to
//!   adopt them), plus a demand-estimator replica; the pure-data
//!   accounting lives in [`dbp_obs::audit`];
//! * the **twin** rack ([`ShadowRack::twins`]): the policies of cells
//!   equal but for their policy, which plan only while they agree — a
//!   twin that agreed at every decision would have run this very
//!   simulation. No builder, no costing.
//!
//! ## Observation-only contract
//!
//! `observe` takes `&MemoryManager` and reads page placement through
//! [`MemoryManager::pages_outside`]; riders receive their *own* previous
//! plan (never the live one) and a disabled recorder, so no rider
//! decision can leak into events, placement, or scheduling. The property
//! tests in `system.rs` hold the whole rack to byte-identical simulation
//! output, attached vs detached, across every scheduler.

use dbp_core::policy::{DbpConfig, PartitionPolicy, PolicyKind};
use dbp_core::{BankDemandEstimator, ColorTopology, EstimatorConfig, ThreadMemProfile};
use dbp_memctrl::ThreadProf;
use dbp_obs::audit::{AuditBuilder, EpochObservation, ProfileSample, ShadowEpoch};
use dbp_obs::AuditReport;
use dbp_osmem::{ColorSet, MemoryManager};

use crate::config::SimConfig;

/// One policy riding along, the plan it last proposed (its own history:
/// a rider reacts to its own previous decision, as it would if live),
/// and whether each of its plans so far, cold start included, equalled
/// the live one.
struct Rider {
    policy: Box<dyn PartitionPolicy>,
    last_plan: Vec<ColorSet>,
    agrees: bool,
}

/// What only the audit rack keeps: a replica of the live estimator (the
/// live policy's knobs when it is DBP, defaults otherwise) that logs
/// per-epoch demand predictions, and the accumulating report builder.
struct Audit {
    estimator: BankDemandEstimator,
    builder: AuditBuilder,
    epoch_cpu_cycles: u64,
}

/// The riders of one run, and the decision audit when the run asked for
/// one.
pub struct ShadowRack {
    riders: Vec<Rider>,
    audit: Option<Audit>,
}

impl std::fmt::Debug for ShadowRack {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowRack")
            .field("riders", &self.riders.len())
            .field("audit", &self.audit.is_some())
            .finish()
    }
}

impl ShadowRack {
    /// Cold-start one rider per policy the same way the system
    /// cold-starts the live one, whose cold-start plan is `live_cold`.
    fn riders(kinds: &[PolicyKind], topo: &ColorTopology, live_cold: &[ColorSet]) -> Vec<Rider> {
        let cold_profiles = vec![ThreadMemProfile::default(); live_cold.len()];
        kinds
            .iter()
            .map(|kind| {
                let mut policy = kind.build();
                let last_plan = policy.partition(&cold_profiles, topo, None);
                let agrees = last_plan == live_cold;
                Rider { policy, last_plan, agrees }
            })
            .collect()
    }

    /// Build the standard audit rack: equal split, MCP, and DBP with a
    /// doubled estimator gain (`alpha`) — one static rival, one
    /// channel-granular rival, and one knob ablation of the live
    /// estimator. `live_cold` is the live policy's cold-start plan,
    /// seeding its change detection.
    pub fn standard(cfg: &SimConfig, topo: &ColorTopology, live_cold: &[ColorSet]) -> ShadowRack {
        let estimator_cfg = match cfg.policy {
            PolicyKind::Dbp(dbp) => dbp.estimator,
            _ => EstimatorConfig::default(),
        };
        let alt_estimator = EstimatorConfig { alpha: estimator_cfg.alpha * 2.0 };
        let alt_dbp = match cfg.policy {
            PolicyKind::Dbp(dbp) => DbpConfig { estimator: alt_estimator, ..dbp },
            _ => DbpConfig { estimator: alt_estimator, ..DbpConfig::default() },
        };
        let kinds =
            [PolicyKind::Equal, PolicyKind::Mcp(Default::default()), PolicyKind::Dbp(alt_dbp)];
        let names = vec![
            "equal-BP".to_string(),
            "MCP".to_string(),
            format!("DBP(alpha={})", alt_estimator.alpha),
        ];
        let riders = Self::riders(&kinds, topo, live_cold);
        let cold_plans = std::iter::once(live_cold)
            .chain(riders.iter().map(|r| r.last_plan.as_slice()))
            .map(|plan| plan.iter().map(|c| topo.units_of(c)).collect())
            .collect();
        let builder =
            AuditBuilder::new(cfg.policy.label(), names, live_cold.len(), topo.units(), cold_plans);
        let audit = Audit {
            estimator: BankDemandEstimator::new(estimator_cfg),
            builder,
            epoch_cpu_cycles: cfg.epoch_cpu_cycles,
        };
        ShadowRack { riders, audit: Some(audit) }
    }

    /// Build a twin rack: the policies `kinds` ride along without an
    /// audit, and each stops planning at its first plan that differs
    /// from the live one (see [`ShadowRack::twins_agreeing`]).
    pub fn twins(kinds: &[PolicyKind], topo: &ColorTopology, live_cold: &[ColorSet]) -> ShadowRack {
        ShadowRack { riders: Self::riders(kinds, topo, live_cold), audit: None }
    }

    /// Record that measurement began after `decisions` repartitions.
    pub fn note_measurement_start(&mut self, decisions: u64) {
        if let Some(audit) = &mut self.audit {
            audit.builder.note_measurement_start(decisions);
        }
    }

    /// Feed one repartition decision: the profiles every policy saw, the
    /// raw epoch counters behind them, and the live plan about to be
    /// applied. Every rider plans once on the same inputs (a twin only
    /// while it still agrees); the audit rack then logs the comparison.
    /// Strictly read-only with respect to the simulation (`osmem` is only
    /// consulted for hypothetical migration costs).
    pub fn observe(
        &mut self,
        epoch: u64,
        profiles: &[ThreadMemProfile],
        snap: &[ThreadProf],
        live_plan: &[ColorSet],
        topo: &ColorTopology,
        osmem: &MemoryManager,
    ) {
        let auditing = self.audit.is_some();
        for r in self.riders.iter_mut().filter(|r| auditing || r.agrees) {
            let plan = r.policy.partition(profiles, topo, Some(&r.last_plan));
            r.agrees &= plan == live_plan;
            r.last_plan = plan;
        }
        let Some(audit) = &mut self.audit else { return };
        let achieved = profiles
            .iter()
            .zip(snap)
            .map(|(m, p)| ProfileSample {
                mpki: m.mpki,
                rbl: m.rbl,
                blp: m.blp,
                ipc: p.instructions as f64 / audit.epoch_cpu_cycles.max(1) as f64,
            })
            .collect();
        let predicted_units =
            profiles.iter().map(|p| audit.estimator.demand(p, topo.units())).collect();
        let shadows = self
            .riders
            .iter()
            .map(|r| {
                // The migration cost of adopting this plan *now*: pages
                // resident outside the proposed partition. An honest
                // counterfactual proxy — placement history belongs to
                // the live policy, so a long-diverged shadow reads high.
                let would_migrate_pages = r
                    .last_plan
                    .iter()
                    .enumerate()
                    .map(|(t, colors)| osmem.pages_outside(t, colors) as u64)
                    .sum();
                let units = r.last_plan.iter().map(|c| topo.units_of(c)).collect();
                ShadowEpoch { units, would_migrate_pages }
            })
            .collect();
        audit.builder.observe(&EpochObservation {
            epoch,
            live_units: live_plan.iter().map(|c| topo.units_of(c)).collect(),
            achieved,
            predicted_units,
            shadows,
        });
    }

    /// Snapshot the audit accumulated so far (`None` for a twin rack).
    pub fn report(&self) -> Option<AuditReport> {
        self.audit.as_ref().map(|a| a.builder.report())
    }

    /// Per rider, in construction order: whether each of its plans so
    /// far, the cold-start plan included, equalled the live one.
    pub fn twins_agreeing(&self) -> Vec<bool> {
        self.riders.iter().map(|r| r.agrees).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_osmem::MigrationMode;

    fn base_cfg() -> SimConfig {
        SimConfig { policy: PolicyKind::Dbp(DbpConfig::default()), ..SimConfig::fast_test() }
    }

    fn cold_plan(cfg: &SimConfig, topo: &ColorTopology, n: usize) -> Vec<ColorSet> {
        let mut policy = cfg.policy.build();
        policy.partition(&vec![ThreadMemProfile::default(); n], topo, None)
    }

    fn profiles() -> Vec<ThreadMemProfile> {
        vec![
            ThreadMemProfile { mpki: 30.0, rbl: 0.4, blp: 3.0, reads: 4000, bus_cycles: 9000 },
            ThreadMemProfile { mpki: 0.2, rbl: 0.9, blp: 1.1, reads: 40, bus_cycles: 90 },
        ]
    }

    fn snap() -> Vec<ThreadProf> {
        vec![
            ThreadProf { instructions: 50_000, ..Default::default() },
            ThreadProf { instructions: 90_000, ..Default::default() },
        ]
    }

    #[test]
    fn standard_rack_runs_three_shadows() {
        let cfg = base_cfg();
        let topo = ColorTopology::from_dram(&cfg.dram);
        let cold = cold_plan(&cfg, &topo, 2);
        let mut rack = ShadowRack::standard(&cfg, &topo, &cold);
        let osmem = MemoryManager::new(&cfg.dram, 2, MigrationMode::Lazy);
        rack.observe(0, &profiles(), &snap(), &cold, &topo, &osmem);
        let r = rack.report().expect("the standard rack audits");
        assert_eq!(r.shadows.len(), 3);
        assert_eq!(r.live.name, "DBP");
        assert_eq!(r.shadows[0].name, "equal-BP");
        assert_eq!(r.shadows[1].name, "MCP");
        assert_eq!(r.shadows[2].name, "DBP(alpha=4)");
        assert_eq!(r.threads, 2);
        assert_eq!(r.convergence.decisions, 1);
        // Demand predictions logged for both threads at the first epoch.
        assert_eq!(r.epochs.len(), 1);
        assert!(r.epochs[0].mean_abs_pred_error.is_none());
    }

    #[test]
    fn observe_is_read_only_for_osmem() {
        let cfg = base_cfg();
        let topo = ColorTopology::from_dram(&cfg.dram);
        let cold = cold_plan(&cfg, &topo, 2);
        let mut rack = ShadowRack::standard(&cfg, &topo, &cold);
        let mut osmem = MemoryManager::new(&cfg.dram, 2, MigrationMode::Lazy);
        osmem.set_partition(0, topo.unit_colors(0));
        osmem.set_partition(1, topo.unit_colors(1));
        for page in 0..16u64 {
            osmem.translate(0, page << 12);
            osmem.translate(1, (page + 100) << 12);
        }
        let before = *osmem.stats();
        let placements: Vec<u64> =
            (0..16u64).map(|page| osmem.translate(0, page << 12).pa).collect();
        rack.observe(0, &profiles(), &snap(), &cold, &topo, &osmem);
        rack.observe(1, &profiles(), &snap(), &cold, &topo, &osmem);
        let after_placements: Vec<u64> =
            (0..16u64).map(|page| osmem.translate(0, page << 12).pa).collect();
        assert_eq!(before, *osmem.stats());
        assert_eq!(placements, after_placements);
    }

    #[test]
    fn shadow_distance_tracks_divergence_from_live() {
        // A live plan that deliberately starves thread 1 must diverge
        // from the equal-split shadow.
        let cfg = base_cfg();
        let topo = ColorTopology::from_dram(&cfg.dram);
        let cold = cold_plan(&cfg, &topo, 2);
        let mut rack = ShadowRack::standard(&cfg, &topo, &cold);
        let osmem = MemoryManager::new(&cfg.dram, 2, MigrationMode::Lazy);
        let units = topo.units();
        let skewed: Vec<ColorSet> =
            vec![topo.units_colors(0..units - 1), topo.units_colors(units - 1..units)];
        rack.observe(0, &profiles(), &snap(), &skewed, &topo, &osmem);
        let r = rack.report().expect("the standard rack audits");
        let equal = &r.shadows[0];
        assert!(equal.mean_distance > 0.0, "skewed live vs equal shadow must differ");
    }
}
