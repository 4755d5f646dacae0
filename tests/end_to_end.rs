//! Cross-crate integration tests: the full stack (traces -> cores ->
//! caches -> OS -> controller -> DRAM -> policies) behaving as a system.

use dbp_repro::dbp::policy::PolicyKind;
use dbp_repro::sim::{runner, MigrationCost, SchedulerKind, SimConfig, System};
use dbp_repro::workloads::{mixes_4core, profiles, Mix, SyntheticTrace};

fn tiny() -> SimConfig {
    let mut cfg = SimConfig::fast_test();
    cfg.warmup_instructions = 20_000;
    cfg.target_instructions = 60_000;
    cfg
}

fn sys_for(cfg: &SimConfig, names: &[&str]) -> System {
    let traces = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            Box::new(SyntheticTrace::new(profiles::by_name(n), i as u64 + 1))
                as Box<dyn dbp_repro::cpu::TraceSource>
        })
        .collect();
    System::new(cfg.clone(), traces)
}

#[test]
fn every_policy_completes_a_heavy_mix() {
    for (_, policy) in PolicyKind::named() {
        let mut cfg = tiny();
        cfg.policy = policy;
        let mut sys = sys_for(&cfg, &["mcf", "lbm", "libquantum", "milc"]);
        let r = sys.run();
        assert!(r.reached_target, "{policy:?} hit the cycle cap");
        for t in &r.threads {
            assert!(t.ipc > 0.0 && t.ipc <= 4.0, "{policy:?}: ipc {}", t.ipc);
        }
    }
}

#[test]
fn every_scheduler_completes_a_heavy_mix() {
    for (_, sched) in SchedulerKind::named() {
        let mut cfg = tiny();
        cfg.scheduler = sched;
        let mut sys = sys_for(&cfg, &["mcf", "lbm"]);
        let r = sys.run();
        assert!(r.reached_target, "{sched:?} hit the cycle cap");
    }
}

#[test]
fn partitioning_isolates_intensive_threads() {
    let mut cfg = tiny();
    cfg.policy = PolicyKind::Dbp(Default::default());
    cfg.epoch_cpu_cycles = 40_000;
    let mut sys = sys_for(&cfg, &["mcf", "libquantum"]);
    sys.run();
    let plan = sys.current_plan().expect("plan installed");
    assert!(
        plan[0].is_disjoint(&plan[1]),
        "two intensive threads must end with disjoint banks: {} vs {}",
        plan[0],
        plan[1]
    );
}

#[test]
fn partitioned_runs_raise_row_hit_rate_on_conflicting_pair() {
    // A streaming thread plus a random thread: sharing banks destroys the
    // stream's locality; any bank partitioning must restore some of it.
    let run = |policy| {
        let mut cfg = tiny();
        cfg.policy = policy;
        let mut sys = sys_for(&cfg, &["libquantum", "mcf", "lbm", "omnetpp"]);
        sys.run().row_hit_rate
    };
    let shared = run(PolicyKind::Unpartitioned);
    let equal = run(PolicyKind::Equal);
    assert!(equal > shared, "equal partitioning must improve row hits: {equal:.3} vs {shared:.3}");
}

#[test]
fn mix_metrics_are_internally_consistent() {
    let cfg = tiny();
    let mix = &mixes_4core()[5];
    let run = runner::run_mix(&cfg, mix);
    let n = mix.cores();
    assert_eq!(run.metrics.speedups.len(), n);
    // WS is the sum of speedups; MS the max inverse speedup.
    let ws: f64 = run.metrics.speedups.iter().sum();
    assert!((ws - run.metrics.weighted_speedup).abs() < 1e-9);
    let ms = run.metrics.speedups.iter().map(|s| 1.0 / s).fold(f64::MIN, f64::max);
    assert!((ms - run.metrics.max_slowdown).abs() < 1e-9);
    // No thread can exceed its alone performance by more than noise.
    for &s in &run.metrics.speedups {
        assert!(s < 1.1, "speedup {s} over alone is implausible");
    }
}

#[test]
fn free_migration_is_an_upper_bound_on_migrated_traffic() {
    let mut charged = tiny();
    charged.policy = PolicyKind::Dbp(Default::default());
    charged.epoch_cpu_cycles = 30_000;
    let mut free = charged.clone();
    free.migration_cost = MigrationCost::Free;
    let rc = sys_for(&charged, &["mcf", "libquantum"]).run();
    let rf = sys_for(&free, &["mcf", "libquantum"]).run();
    assert_eq!(rf.migration_requests, 0);
    let _ = rc; // charged may or may not have measured-window migrations
}

#[test]
fn scaled_mixes_run_on_more_cores() {
    let base = &mixes_4core()[2];
    let mix8 = dbp_repro::workloads::scale_mix(base, 8);
    let mut cfg = tiny();
    cfg.target_instructions = 30_000;
    cfg.warmup_instructions = 10_000;
    let r = runner::run_shared(&cfg, &mix8);
    assert_eq!(r.threads.len(), 8);
    assert!(r.reached_target);
}

#[test]
fn fallback_allocations_do_not_happen_in_normal_runs() {
    let mut cfg = tiny();
    cfg.policy = PolicyKind::Equal;
    let mut sys = sys_for(&cfg, &["mcf", "lbm", "libquantum", "milc"]);
    let r = sys.run();
    assert_eq!(r.fallback_allocations, 0, "partitions must be large enough for the footprints");
}

#[test]
fn single_thread_mix_works() {
    let cfg = tiny();
    let mix = Mix { name: "solo", intensive_pct: 100, benchmarks: vec!["mcf"] };
    let run = runner::run_mix(&cfg, &mix);
    // Alone == shared for a single thread: speedup ~ 1.
    assert!((run.metrics.speedups[0] - 1.0).abs() < 0.05);
    assert!((run.metrics.max_slowdown - 1.0).abs() < 0.05);
}
