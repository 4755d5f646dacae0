//! The typed event taxonomy of the simulator.
//!
//! Every dynamic decision the reproduced mechanisms make — DBP
//! repartitions, page migrations, TCM re-clustering and shuffling, MCP
//! group moves — is recorded as one of these variants, stamped with the
//! CPU cycle it happened at. The taxonomy is deliberately flat and
//! primitive-typed so `dbp-obs` depends on no other workspace crate and
//! every layer of the stack can emit into it.

use crate::json::Json;

/// Why a page moved between frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationCause {
    /// Moved at `set_partition` time (eager migration mode).
    Eager,
    /// Moved on the owning thread's next touch (lazy migration mode).
    Lazy,
    /// Moved to spread a grown partition's pages across its banks.
    Rebalance,
    /// Moved by the end-of-warmup instant conformance pass.
    Conform,
}

impl MigrationCause {
    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            MigrationCause::Eager => "eager",
            MigrationCause::Lazy => "lazy",
            MigrationCause::Rebalance => "rebalance",
            MigrationCause::Conform => "conform",
        }
    }
}

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// CPU cycle the event occurred at.
    pub cycle: u64,
    pub kind: EventKind,
}

/// What happened.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A profiling epoch closed in the simulator's cycle loop (the
    /// repartition path runs right after).
    EpochStart { epoch: u64 },
    /// The per-thread profile snapshot handed to the partitioning policy.
    ThreadProfile { thread: usize, mpki: f64, rbl: f64, blp: f64 },
    /// The plan the policy returned: one rendered color set per thread,
    /// plus which threads' sets changed (and will migrate pages).
    RepartitionPlan { epoch: u64, plan: Vec<String>, changed_threads: Vec<usize> },
    /// DBP's smoothed bank-unit demand estimate for an intensive thread.
    BankDemand { thread: usize, units: u32 },
    /// MCP's interference-group assignment (0 = intensive low-RBL,
    /// 1 = intensive high-RBL, 2 = non-intensive).
    ChannelGroup { thread: usize, group: u8 },
    /// A page was copied between frames (and hence bank groups).
    PageMigration { thread: usize, vpn: u64, old_frame: u64, new_frame: u64, cause: MigrationCause },
    /// A migration found no free frame in the target partition.
    MigrationFailed { thread: usize },
    /// A migration was pushed to a later epoch by the per-epoch budget.
    MigrationDeferred { thread: usize },
    /// An allocation spilled outside the thread's exhausted partition.
    FallbackAlloc { thread: usize, vpn: u64 },
    /// TCM re-clustered threads at a quantum boundary.
    TcmCluster { latency: Vec<usize>, bandwidth: Vec<usize> },
    /// TCM rotated the bandwidth cluster's priority order (front = best).
    TcmShuffle { order: Vec<usize> },
}

impl EventKind {
    /// Stable snake_case event name used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::EpochStart { .. } => "epoch_start",
            EventKind::ThreadProfile { .. } => "thread_profile",
            EventKind::RepartitionPlan { .. } => "repartition_plan",
            EventKind::BankDemand { .. } => "bank_demand",
            EventKind::ChannelGroup { .. } => "channel_group",
            EventKind::PageMigration { .. } => "page_migration",
            EventKind::MigrationFailed { .. } => "migration_failed",
            EventKind::MigrationDeferred { .. } => "migration_deferred",
            EventKind::FallbackAlloc { .. } => "fallback_alloc",
            EventKind::TcmCluster { .. } => "tcm_cluster",
            EventKind::TcmShuffle { .. } => "tcm_shuffle",
        }
    }

    /// The thread the event belongs to, when it is thread-scoped.
    pub fn thread(&self) -> Option<usize> {
        match self {
            EventKind::ThreadProfile { thread, .. }
            | EventKind::BankDemand { thread, .. }
            | EventKind::ChannelGroup { thread, .. }
            | EventKind::PageMigration { thread, .. }
            | EventKind::MigrationFailed { thread }
            | EventKind::MigrationDeferred { thread }
            | EventKind::FallbackAlloc { thread, .. } => Some(*thread),
            _ => None,
        }
    }

    /// Whether this event fires at most a few times per epoch (the stderr
    /// echo sink prints only these; per-page events would flood it).
    pub fn is_epoch_level(&self) -> bool {
        !matches!(
            self,
            EventKind::PageMigration { .. }
                | EventKind::MigrationFailed { .. }
                | EventKind::MigrationDeferred { .. }
                | EventKind::FallbackAlloc { .. }
        )
    }

    /// The event payload as a JSON object (without name/cycle/thread).
    pub fn args_json(&self) -> Json {
        let usizes = |v: &[usize]| Json::arr(v.iter().map(|&t| Json::uint(t as u64)));
        match self {
            EventKind::EpochStart { epoch } => Json::obj([("epoch", Json::uint(*epoch))]),
            EventKind::ThreadProfile { mpki, rbl, blp, .. } => Json::obj([
                ("mpki", Json::num(*mpki)),
                ("rbl", Json::num(*rbl)),
                ("blp", Json::num(*blp)),
            ]),
            EventKind::RepartitionPlan { epoch, plan, changed_threads } => Json::obj([
                ("epoch", Json::uint(*epoch)),
                ("plan", Json::arr(plan.iter().map(Json::str))),
                ("changed_threads", usizes(changed_threads)),
            ]),
            EventKind::BankDemand { units, .. } => {
                Json::obj([("units", Json::uint(u64::from(*units)))])
            }
            EventKind::ChannelGroup { group, .. } => {
                Json::obj([("group", Json::uint(u64::from(*group)))])
            }
            EventKind::PageMigration { vpn, old_frame, new_frame, cause, .. } => Json::obj([
                ("vpn", Json::uint(*vpn)),
                ("old_frame", Json::uint(*old_frame)),
                ("new_frame", Json::uint(*new_frame)),
                ("cause", Json::str(cause.label())),
            ]),
            EventKind::MigrationFailed { .. } | EventKind::MigrationDeferred { .. } => {
                Json::Obj(Vec::new())
            }
            EventKind::FallbackAlloc { vpn, .. } => Json::obj([("vpn", Json::uint(*vpn))]),
            EventKind::TcmCluster { latency, bandwidth } => {
                Json::obj([("latency", usizes(latency)), ("bandwidth", usizes(bandwidth))])
            }
            EventKind::TcmShuffle { order } => Json::obj([("order", usizes(order))]),
        }
    }

    /// Human-readable one-liner for the stderr echo sink.
    pub fn pretty(&self, cycle: u64) -> String {
        match self {
            EventKind::EpochStart { epoch } => format!("[epoch @{cycle}] epoch {epoch} closed"),
            EventKind::ThreadProfile { thread, mpki, rbl, blp } => {
                format!("[epoch @{cycle}] t{thread}: mpki={mpki:.1} rbl={rbl:.2} blp={blp:.2}")
            }
            EventKind::RepartitionPlan { plan, changed_threads, .. } => format!(
                "[epoch @{cycle}] plan: {} (changed: {changed_threads:?})",
                plan.join(" | ")
            ),
            EventKind::BankDemand { thread, units } => {
                format!("[epoch @{cycle}] t{thread}: demand {units} bank units")
            }
            EventKind::ChannelGroup { thread, group } => {
                format!("[epoch @{cycle}] t{thread}: MCP group {group}")
            }
            EventKind::TcmCluster { latency, bandwidth } => {
                format!("[tcm @{cycle}] cluster latency={latency:?} bandwidth={bandwidth:?}")
            }
            EventKind::TcmShuffle { order } => format!("[tcm @{cycle}] shuffle -> {order:?}"),
            other => format!("[obs @{cycle}] {}", other.name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_stable_and_distinct() {
        let all = [
            EventKind::EpochStart { epoch: 0 },
            EventKind::ThreadProfile { thread: 0, mpki: 0.0, rbl: 0.0, blp: 0.0 },
            EventKind::RepartitionPlan { epoch: 0, plan: vec![], changed_threads: vec![] },
            EventKind::BankDemand { thread: 0, units: 1 },
            EventKind::ChannelGroup { thread: 0, group: 2 },
            EventKind::PageMigration {
                thread: 0,
                vpn: 1,
                old_frame: 2,
                new_frame: 3,
                cause: MigrationCause::Lazy,
            },
            EventKind::MigrationFailed { thread: 0 },
            EventKind::MigrationDeferred { thread: 0 },
            EventKind::FallbackAlloc { thread: 0, vpn: 9 },
            EventKind::TcmCluster { latency: vec![0], bandwidth: vec![1] },
            EventKind::TcmShuffle { order: vec![1, 0] },
        ];
        let mut names: Vec<&str> = all.iter().map(EventKind::name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "event names must be unique");
        for k in &all {
            assert!(!k.pretty(7).is_empty());
            // args_json must serialise without panicking.
            assert!(!k.args_json().to_json().is_empty());
        }
    }

    #[test]
    fn thread_scoping() {
        assert_eq!(EventKind::EpochStart { epoch: 1 }.thread(), None);
        assert_eq!(EventKind::FallbackAlloc { thread: 3, vpn: 0 }.thread(), Some(3));
        assert_eq!(
            EventKind::PageMigration {
                thread: 2,
                vpn: 0,
                old_frame: 0,
                new_frame: 1,
                cause: MigrationCause::Eager
            }
            .thread(),
            Some(2)
        );
    }

    #[test]
    fn per_page_events_are_not_epoch_level() {
        assert!(EventKind::EpochStart { epoch: 0 }.is_epoch_level());
        assert!(EventKind::TcmShuffle { order: vec![] }.is_epoch_level());
        assert!(!EventKind::FallbackAlloc { thread: 0, vpn: 0 }.is_epoch_level());
        assert!(!EventKind::MigrationDeferred { thread: 0 }.is_epoch_level());
    }

    #[test]
    fn migration_cause_labels() {
        for (c, l) in [
            (MigrationCause::Eager, "eager"),
            (MigrationCause::Lazy, "lazy"),
            (MigrationCause::Rebalance, "rebalance"),
            (MigrationCause::Conform, "conform"),
        ] {
            assert_eq!(c.label(), l);
        }
    }
}
