//! Regression: PAR-BS under the real quick-suite configuration must be
//! byte-identical between the time-skipping and stepped cores.
//!
//! PAR-BS batch formation snapshots the read queues at the first tick
//! where the previous batch has drained — a queue-content-dependent
//! state transition the calendar can only honour through the scheduler's
//! `next_wake`. Before that wake existed, a skipped run formed batches
//! late (marking requests that arrived mid-window) and exactly this mix
//! diverged in the suite's scheduler-landscape table. The smaller
//! 2-core `fast_test` property tests never caught it; only a 4-core
//! quick-suite workload does, so it is pinned here. The full-suite
//! `bench_all --stepped` diff leg in ci.sh covers every other
//! (scheduler, mix, policy) combination in release.

use dbp_bench::harness;
use dbp_core::policy::PolicyKind;
use dbp_sim::runner::trace_for;
use dbp_sim::{SchedulerKind, System};
use dbp_workloads::mixes_4core;

#[test]
fn parbs_quick_mix_skip_equals_stepped() {
    let mut cfg = harness::config_for(true);
    cfg.scheduler = SchedulerKind::ParBs(Default::default());
    cfg.policy = PolicyKind::Unpartitioned;
    let mixes = mixes_4core();
    let mix = mixes
        .iter()
        .find(|m| m.name == "mix25-1")
        .expect("the historically diverging mix left the mix set");
    let arm = |skip: bool| {
        let traces = (0..mix.cores()).map(|i| trace_for(mix, i)).collect();
        let mut sys = System::new(cfg.clone(), traces);
        sys.set_time_skip(skip);
        let run = sys.run();
        // `RunResult` carries no stall anatomy: a dormant core caught up
        // wrongly shows only in its own counters.
        let cores: Vec<_> = (0..mix.cores()).map(|i| *sys.core_stats(i)).collect();
        (run, sys.cycle(), cores)
    };
    let skipped = arm(true);
    let stepped = arm(false);
    assert_eq!(skipped.1, stepped.1, "final cycle diverged");
    assert_eq!(skipped.0, stepped.0, "run result diverged");
    assert_eq!(skipped.2, stepped.2, "core counters diverged");
}
