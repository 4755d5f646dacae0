//! Microbenchmarks: the per-component costs that determine the
//! simulator's cycles-per-second throughput.
//!
//! Runs on the in-tree `dbp_util::bench` runner (no external harness);
//! iteration counts are tunable via `DBP_BENCH_ITERS` / `DBP_BENCH_WARMUP`.
//! The registry lives in the library (rather than the bench target) so
//! `cargo bench -p dbp-bench --bench micro` and any future callers share
//! one definition of what gets measured.
//!
//! The committed perf baseline (`BENCH_baseline.json` at the repo root)
//! is the output of this registry; regenerate it with:
//!
//! ```text
//! DBP_BENCH_JSON=$PWD/BENCH_baseline.json cargo bench -q -p dbp-bench --bench micro
//! ```

use dbp_cache::{Hierarchy, HierarchyConfig};
use dbp_core::policy::PolicyKind;
use dbp_cpu::{Core, CoreConfig, MemIssue, ReplaySource, TraceOp};
use dbp_dram::{Command, Dram, DramConfig};
use dbp_memctrl::scheduler::{FrFcfs, Tcm};
use dbp_memctrl::{CtrlConfig, MemRequest, MemoryController};
use dbp_obs::{Prof, Recorder};
use dbp_osmem::{ColorSet, FrameAllocator};
use dbp_sim::runner::trace_for;
use dbp_sim::{SimConfig, System};
use dbp_util::bench::Runner;
use dbp_workloads::{mixes_4core, profiles, scale_mix, SyntheticTrace};

fn bench_dram_commands(r: &mut Runner) {
    let cfg = DramConfig::fast_test();
    r.bench_batched(
        "dram/act_rd_pre_cycle",
        3, // ACT + RD + PRE
        || Dram::new(cfg.clone()),
        |mut d| {
            let mut now = 0;
            let act = Command::activate(0, 0, 0, 1);
            now = d.earliest_issue(&act, now).unwrap();
            d.issue(&act, now);
            let rd = Command::read(0, 0, 0, 1, 0, false);
            now = d.earliest_issue(&rd, now).unwrap();
            d.issue(&rd, now);
            let pre = Command::precharge(0, 0, 0);
            now = d.earliest_issue(&pre, now).unwrap();
            d.issue(&pre, now);
            d
        },
    );
}

/// A controller with 32 reads queued on each of `channels` channels
/// (consecutive pages rotate over the channels).
fn filled_controller(sched: Box<dyn dbp_memctrl::Scheduler>, channels: u32) -> MemoryController {
    let dram = Dram::new(DramConfig { channels, ..DramConfig::fast_test() });
    let mut mc = MemoryController::new(dram, CtrlConfig::default(), sched, 4);
    for i in 0..32 * u64::from(channels) {
        mc.enqueue(MemRequest::demand_read(i, (i % 4) as usize, i * 4096, 0));
    }
    mc
}

fn tick_64(mut mc: MemoryController) -> MemoryController {
    let mut done = Vec::new();
    for now in 0..64 {
        mc.tick(now, &mut done);
    }
    mc
}

fn bench_controller_tick(r: &mut Runner) {
    r.bench_batched(
        "controller_tick/frfcfs_32deep",
        64,
        || filled_controller(Box::new(FrFcfs), 1),
        tick_64,
    );
    // The multi-channel tick: four independent channels issuing side by side.
    r.bench_batched(
        "controller_tick/frfcfs_4ch_32deep",
        64,
        || filled_controller(Box::new(FrFcfs), 4),
        tick_64,
    );
    r.bench_batched(
        "controller_tick/tcm_32deep",
        64,
        || filled_controller(Box::new(Tcm::new(Default::default(), 4)), 1),
        tick_64,
    );
}

fn bench_write_drain(r: &mut Runner) {
    // 48 queued writes put the channel in drain mode with every request a
    // legal candidate class member — the large-candidate `pick` the
    // 32-deep read benches above never reach.
    r.bench_batched(
        "controller_tick/frfcfs_write_drain_48",
        64,
        || {
            let dram = Dram::new(DramConfig::fast_test());
            let mut mc = MemoryController::new(dram, CtrlConfig::default(), Box::new(FrFcfs), 4);
            for i in 0..48u64 {
                mc.enqueue(MemRequest::writeback(i, (i % 4) as usize, i * 4096, 0));
            }
            mc
        },
        tick_64,
    );
}

fn bench_core_forward(r: &mut Runner) {
    // A calm thread: long compute gaps between cache-hit loads, driven the
    // way `System::maybe_skip` drives it — forward to the horizon, tick
    // the dispatch cycle.
    r.bench_batched(
        "cpu/forward_10k_compute_cycles",
        10_000, // simulated CPU cycles
        || {
            let op = TraceOp { gap: 400, addr: 64, is_write: false };
            Core::new(CoreConfig::default(), Box::new(ReplaySource::new(vec![op])))
        },
        |mut core| {
            let mut now = 0;
            while now < 10_000 {
                let h = core.compute_horizon().min(10_000 - now);
                if h == 0 {
                    core.tick(now, &mut |_, _, _| MemIssue::Done { latency: 30 });
                    now += 1;
                } else {
                    core.forward(now, h);
                    now += h;
                }
            }
            core
        },
    );
}

fn bench_allocator(r: &mut Runner) {
    let cfg = DramConfig { rows_per_bank: 256, ..DramConfig::default() };
    r.bench_batched(
        "frame_allocator/alloc_free_1k",
        1024,
        || FrameAllocator::new(&cfg),
        |mut a| {
            let allowed = ColorSet::range(0, 8);
            let mut frames = Vec::with_capacity(1024);
            for _ in 0..1024 {
                frames.push(a.alloc(&allowed).unwrap());
            }
            for f in frames {
                a.free(f);
            }
            a
        },
    );
}

fn bench_cache(r: &mut Runner) {
    r.bench_batched(
        "cache/hierarchy_stream_4k",
        4096,
        || Hierarchy::new(HierarchyConfig::default()),
        |mut h| {
            for i in 0..4096u64 {
                h.access(i * 64, i % 5 == 0);
            }
            h
        },
    );
}

fn bench_trace_generation(r: &mut Runner) {
    use dbp_cpu::TraceSource;
    let mut t = SyntheticTrace::new(profiles::by_name("mcf"), 1);
    r.bench("workloads/synthetic_mcf_4k_ops", 4096, || {
        let mut acc = 0u64;
        for _ in 0..4096 {
            acc ^= t.next_op().addr;
        }
        acc
    });
}

fn step_system(prof: Prof) -> System {
    let mut cfg = SimConfig::fast_test();
    cfg.warmup_instructions = 0;
    let traces: Vec<Box<dyn dbp_cpu::TraceSource>> = ["mcf", "lbm", "libquantum", "milc"]
        .iter()
        .enumerate()
        .map(|(i, n)| {
            Box::new(SyntheticTrace::new(profiles::by_name(n), i as u64))
                as Box<dyn dbp_cpu::TraceSource>
        })
        .collect();
    System::with_instrumentation(cfg, traces, Recorder::disabled(), prof)
}

/// The repo benchmark's `scale16c` shape at micro-bench length: mix75-1
/// scaled to 16 cores on 4 channels under DBP.
fn step_system_16core() -> System {
    let mut cfg = SimConfig::fast_test();
    cfg.warmup_instructions = 0;
    cfg.dram.channels = 4;
    cfg.policy = PolicyKind::Dbp(Default::default());
    let mixes = mixes_4core();
    let base = mixes.iter().find(|m| m.name == "mix75-1").expect("mix75-1 left the mix set");
    let mix = scale_mix(base, 16);
    let traces = (0..mix.cores()).map(|i| trace_for(&mix, i)).collect();
    System::new(cfg, traces)
}

fn advance_100k(mut sys: System) -> System {
    while sys.cycle() < 100_000 {
        sys.advance(100_000);
    }
    sys
}

fn bench_end_to_end(r: &mut Runner) {
    // The headline throughput number — and, versus its `_profiled` twin
    // below, the measured cost of an *enabled* profiler. (A disabled one
    // costs a branch per span site; the perf gate on this entry is what
    // holds that claim to <2% across PRs.)
    //
    // `advance` (event-driven time skipping) is the production path every
    // experiment takes through `System::run`; the elements count stays
    // "simulated CPU cycles", so melems/s is simulated Mcycles per
    // wall-second and is directly comparable with the retired stepped-era
    // baselines.
    r.bench_batched(
        "system/step_100k_cycles_4core",
        100_000, // simulated CPU cycles
        || step_system(Prof::disabled()),
        advance_100k,
    );
    // Core-count scaling (ROADMAP 1(b)): four times the cores and twice
    // the channels of the entry above, so a per-cycle cost linear in
    // cores shows as this entry falling behind that one.
    r.bench_batched(
        "system/step_100k_cycles_16core_4ch",
        100_000,
        step_system_16core,
        advance_100k,
    );
    r.bench_batched(
        "system/step_100k_cycles_4core_profiled",
        100_000,
        || step_system(Prof::enabled()),
        advance_100k,
    );
}

/// Register every microbenchmark on `r` (the order is the report order).
pub fn register_all(r: &mut Runner) {
    bench_dram_commands(r);
    bench_controller_tick(r);
    bench_write_drain(r);
    bench_core_forward(r);
    bench_allocator(r);
    bench_cache(r);
    bench_trace_generation(r);
    bench_end_to_end(r);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbp_util::bench::BenchConfig;

    #[test]
    fn registry_runs_and_names_are_unique() {
        let mut r = Runner::new(BenchConfig { warmup_iters: 0, iters: 1 });
        register_all(&mut r);
        let names: Vec<&str> = r.results().iter().map(|s| s.name.as_str()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate bench names: {names:?}");
        assert!(names.contains(&"system/step_100k_cycles_4core"));
        assert!(names.contains(&"system/step_100k_cycles_4core_profiled"));
        assert!(names.contains(&"system/step_100k_cycles_16core_4ch"));
    }
}
