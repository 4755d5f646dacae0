//! Shared experiment scaffolding: configurations, policy combinations,
//! and alone-run reuse.

use dbp_core::policy::PolicyKind;
use dbp_sim::{SchedulerKind, SimConfig};

/// A labelled (scheduler, policy) point in the comparison space.
#[derive(Debug, Clone, Copy)]
pub struct Combo {
    pub label: &'static str,
    pub scheduler: SchedulerKind,
    pub policy: PolicyKind,
}

impl Combo {
    /// Apply this combo to a configuration.
    pub fn apply(&self, cfg: &SimConfig) -> SimConfig {
        let mut c = cfg.clone();
        c.scheduler = self.scheduler;
        c.policy = self.policy;
        c
    }
}

/// FR-FCFS on a fully shared memory system (the conventional baseline).
pub fn shared() -> Combo {
    Combo { label: "FRFCFS", scheduler: SchedulerKind::FrFcfs, policy: PolicyKind::Unpartitioned }
}

/// Static equal bank partitioning.
pub fn equal_bp() -> Combo {
    Combo { label: "equal-BP", scheduler: SchedulerKind::FrFcfs, policy: PolicyKind::Equal }
}

/// Dynamic Bank Partitioning (the paper's contribution).
pub fn dbp() -> Combo {
    Combo {
        label: "DBP",
        scheduler: SchedulerKind::FrFcfs,
        policy: PolicyKind::Dbp(Default::default()),
    }
}

/// TCM scheduling on a shared system.
pub fn tcm() -> Combo {
    Combo {
        label: "TCM",
        scheduler: SchedulerKind::Tcm(Default::default()),
        policy: PolicyKind::Unpartitioned,
    }
}

/// DBP-TCM: the paper's combined proposal.
pub fn dbp_tcm() -> Combo {
    Combo {
        label: "DBP-TCM",
        scheduler: SchedulerKind::Tcm(Default::default()),
        policy: PolicyKind::Dbp(Default::default()),
    }
}

/// Memory channel partitioning (MCP baseline).
pub fn mcp() -> Combo {
    Combo {
        label: "MCP",
        scheduler: SchedulerKind::FrFcfs,
        policy: PolicyKind::Mcp(Default::default()),
    }
}

/// The Table 1 system configuration, optionally scaled down to the
/// quick (CI/smoke) instruction targets.
pub fn config_for(quick: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    if quick {
        cfg.warmup_instructions = 60_000;
        cfg.target_instructions = 150_000;
        cfg.epoch_cpu_cycles = 150_000;
        cfg.instr_feed_interval = 30_000;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combos_have_distinct_labels() {
        let all = [shared(), equal_bp(), dbp(), tcm(), dbp_tcm(), mcp()];
        let mut labels: Vec<_> = all.iter().map(|c| c.label).collect();
        labels.sort_unstable();
        let n = labels.len();
        labels.dedup();
        assert_eq!(labels.len(), n);
    }

    #[test]
    fn both_configs_validate() {
        config_for(false).validate().unwrap();
        config_for(true).validate().unwrap();
    }

    #[test]
    fn combo_apply_overrides_policy() {
        let c = dbp().apply(&config_for(false));
        assert!(matches!(c.policy, PolicyKind::Dbp(_)));
    }
}
