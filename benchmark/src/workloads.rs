//! The five workloads and the code that runs one pass of each.
//!
//! Every workload is a closed loop: the simulator is driven as fast as it
//! will go, one simulation after another (two at a time for
//! `headline_grid`). `README.md` records why each was chosen.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use dbp_bench::engine::Engine;
use dbp_bench::harness::{self, Combo};
use dbp_core::policy::PolicyKind;
use dbp_cpu::TraceSource;
use dbp_obs::{Prof, Recorder};
use dbp_sim::runner::{self, MixRun};
use dbp_sim::{RunResult, SchedulerKind, SimConfig, System};
use dbp_workloads::profiles::IntensityClass;
use dbp_workloads::{mixes_4core, scale_mix, Mix};

use crate::fingerprint::Fnv;
use crate::spans::Spans;

/// Worker threads of the only multi-threaded workload.
pub const GRID_WORKERS: usize = 2;

/// One shared simulation: a configuration and the mix it runs.
#[derive(Debug, Clone)]
pub struct Cell {
    pub cfg: SimConfig,
    pub mix: Mix,
}

impl Cell {
    /// Fresh traces for every core of the mix (`runner::trace_for`).
    pub fn traces(&self) -> Vec<Box<dyn TraceSource>> {
        (0..self.mix.cores()).map(|i| runner::trace_for(&self.mix, i)).collect()
    }
}

/// How a workload's simulations are executed.
// One `Shape` exists per set-up, so the size gap between variants is moot.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Shape {
    /// Shared runs, one after another on the calling thread.
    Serial(Vec<Cell>),
    /// The (mix x combo) grid with alone runs, through the bench
    /// [`Engine`] on [`GRID_WORKERS`] threads.
    Grid { cfg: SimConfig, mixes: Vec<Mix>, combos: Vec<Combo> },
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub shape: Shape,
}

/// Simulation length of a pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Length {
    /// The workload's own (timed) length.
    Full,
    /// `harness::config_for(true)`: the warm pass and the stepped-core
    /// cross-check.
    Quick,
}

/// `mix` with every trace seed re-derived from `(seed, index)`.
///
/// `runner::seed_for` hashes `Mix::name`, and the bench `Engine` offers
/// no other way in, so a non-zero seed is carried by a suffixed name.
/// Seed 0 keeps the canonical name: its results match `results/`.
///
/// `index` is the simulation's position in its pass. Host time per
/// simulated cycle swings by several percent with the trace seeds (they
/// steer every later policy decision), so each simulation of a pass
/// draws its own traces and a pass averages over them — otherwise one
/// draw of four traces would decide all 28 `sched_matrix` runs.
fn seeded(mix: &Mix, seed: u64, index: usize) -> Mix {
    if seed == 0 {
        return mix.clone();
    }
    // Leaked on purpose: `Mix::name` is `&'static str`, and a run builds
    // a few dozen of these.
    let name: &'static str = Box::leak(format!("{}#{seed}.{index}", mix.name).into_boxed_str());
    Mix { name, ..mix.clone() }
}

fn mix_named(name: &str) -> Mix {
    mixes_4core().into_iter().find(|m| m.name == name).expect("mix in the 4-core table")
}

fn with_length(mut cfg: SimConfig, length: Length) -> SimConfig {
    if length == Length::Quick {
        let quick = harness::config_for(true);
        cfg.warmup_instructions = quick.warmup_instructions;
        cfg.target_instructions = quick.target_instructions;
        cfg.epoch_cpu_cycles = quick.epoch_cpu_cycles;
        cfg.instr_feed_interval = quick.instr_feed_interval;
    }
    cfg
}

/// All seven schedulers at their default settings.
pub fn schedulers() -> [(&'static str, SchedulerKind); 7] {
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

/// Build workload `name` for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64, length: Length) -> Option<Workload> {
    let table1 = || with_length(SimConfig::default(), length);
    let serial = |name, cells: Vec<(Combo, SimConfig, Mix)>| {
        let cells = cells
            .into_iter()
            .enumerate()
            .map(|(i, (combo, cfg, mix))| Cell {
                cfg: combo.apply(&cfg),
                mix: seeded(&mix, seed, i),
            })
            .collect();
        Workload { name, shape: Shape::Serial(cells) }
    };
    Some(match name {
        "mem4c" => serial("mem4c", vec![(harness::dbp(), table1(), mix_named("mix100-1"))]),
        "calm4c" => {
            let mut cells = Vec::new();
            for mix in ["mix0-1", "mix0-2"] {
                for combo in [harness::shared(), harness::dbp()] {
                    cells.push((combo, table1(), mix_named(mix)));
                }
            }
            serial("calm4c", cells)
        }
        "sched_matrix" => {
            let cfg = with_length(
                SimConfig {
                    warmup_instructions: 200_000,
                    target_instructions: 400_000,
                    epoch_cpu_cycles: 200_000,
                    instr_feed_interval: 50_000,
                    ..SimConfig::default()
                },
                length,
            );
            let policies = [
                PolicyKind::Unpartitioned,
                PolicyKind::Equal,
                PolicyKind::Dbp(Default::default()),
                PolicyKind::Mcp(Default::default()),
            ];
            let mut cells = Vec::new();
            for (label, scheduler) in schedulers() {
                for policy in policies {
                    let combo = Combo { label, scheduler, policy };
                    cells.push((combo, cfg.clone(), mix_named("mix50-1")));
                }
            }
            serial("sched_matrix", cells)
        }
        "scale16c" => {
            let mut cfg = table1();
            cfg.dram.channels = 4;
            let mix = scale_mix(&mix_named("mix75-1"), 16);
            serial("scale16c", vec![(harness::dbp(), cfg, mix)])
        }
        "headline_grid" => {
            let mixes = mixes_4core().iter().enumerate().map(|(i, m)| seeded(m, seed, i)).collect();
            let combos = vec![harness::equal_bp(), harness::dbp()];
            Workload { name: "headline_grid", shape: Shape::Grid { cfg: table1(), mixes, combos } }
        }
        _ => return None,
    })
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct PassOut {
    /// Shared-run results, in execution (serial) or `[mix][combo]` order.
    pub runs: Vec<RunResult>,
    /// `[mix][combo]` measured mixes (`headline_grid` only).
    pub grid: Vec<Vec<MixRun>>,
    /// Simulated CPU cycles. Serial shapes: `System::cycle()`, warmup
    /// included. Grid: measured-window cycles only — the `Engine` hands
    /// back results, not systems, so warmup cycles are not observable.
    pub cycles: u64,
    /// Simulated instructions: threads x (warmup + target) per run.
    pub instructions: u64,
    /// Host seconds of each unit the pass times separately: every
    /// simulation of a serial shape, the whole grid otherwise.
    pub seconds: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
}

/// How far a co-scheduled thread may plausibly beat its alone run. An
/// alone run is unpartitioned FR-FCFS, and a calm thread inside a bank
/// partition can edge past it (mix0-2 reaches a weighted speedup of 4.05
/// on four cores at warm-pass length), so the bounds are the ones the
/// simulator's own `run_mix` test uses (4.2 on four cores), not 1.0.
const SPEEDUP_SLACK: f64 = 1.05;

/// Whether a finished shared run is a valid measurement.
fn run_is_sound(mix: &Mix, r: &RunResult) -> bool {
    r.reached_target
        && mix
            .profiles()
            .iter()
            .zip(&r.threads)
            .all(|(p, t)| p.class() != IntensityClass::High || t.reads > 0)
}

fn span<T>(spans: &mut Option<&mut Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(s) => s.scope(name, f),
        None => f(),
    }
}

/// Run one pass of `w`. `prof` is handed to every shared run (disabled
/// for the timed passes); `spans`, when given, records the calls made
/// into each layer.
pub fn run_pass(w: &Workload, prof: &Prof, mut spans: Option<&mut Spans>) -> PassOut {
    let mut out = PassOut::default();
    let mut hash = Fnv::default();
    match &w.shape {
        Shape::Serial(cells) => {
            for cell in cells {
                let Cell { cfg, mix } = cell;
                let started = Instant::now();
                out.attempted += 1;
                out.instructions +=
                    mix.cores() as u64 * (cfg.warmup_instructions + cfg.target_instructions);
                let traces = span(&mut spans, "workloads.traces", || cell.traces());
                let ran = catch_unwind(AssertUnwindSafe(|| {
                    let mut sys = span(&mut spans, "sim.construct", || {
                        System::with_instrumentation(
                            cfg.clone(),
                            traces,
                            Recorder::disabled(),
                            prof.clone(),
                        )
                    });
                    let result = span(&mut spans, "sim.run", || sys.run());
                    (result, sys.cycle())
                }));
                match ran {
                    Ok((result, cycles)) => {
                        if !run_is_sound(mix, &result) {
                            out.failed += 1;
                        }
                        out.cycles += cycles;
                        hash.run(&result);
                        out.runs.push(result);
                    }
                    Err(_) => out.failed += 1,
                }
                out.seconds.push(started.elapsed().as_secs_f64());
            }
        }
        Shape::Grid { cfg, mixes, combos } => {
            let started = Instant::now();
            let shared = (mixes.len() * combos.len()) as u64;
            let solo: u64 = mixes.iter().map(|m| m.cores() as u64).sum();
            out.attempted = shared + solo;
            let per_thread = cfg.warmup_instructions + cfg.target_instructions;
            out.instructions = (solo * combos.len() as u64 + solo) * per_thread;
            let ran = catch_unwind(AssertUnwindSafe(|| {
                let eng = span(&mut spans, "bench.engine_new", || {
                    let mut eng = Engine::with_workers(GRID_WORKERS);
                    eng.attach_profiler(prof);
                    eng
                });
                span(&mut spans, "bench.run_grid", || eng.run_grid(cfg, mixes, combos))
            }));
            match ran {
                Ok(grid) => {
                    for (mix, row) in mixes.iter().zip(&grid) {
                        for &ipc in &row[0].alone_ipcs {
                            hash.float(ipc);
                            let cycles = (cfg.target_instructions as f64 / ipc) as u64;
                            out.cycles += cycles;
                        }
                        for run in row {
                            let plausible = run.weighted_speedup()
                                <= SPEEDUP_SLACK * mix.cores() as f64
                                && run.max_slowdown() >= 1.0 / SPEEDUP_SLACK;
                            if !(plausible && run_is_sound(mix, &run.shared)) {
                                out.failed += 1;
                            }
                            out.cycles += run.shared.total_cycles;
                            hash.run(&run.shared);
                            out.runs.push(run.shared.clone());
                        }
                    }
                    out.grid = grid;
                }
                // An alone run that misses its target panics inside the
                // engine and takes the whole batch with it.
                Err(_) => out.failed = out.attempted,
            }
            out.seconds.push(started.elapsed().as_secs_f64());
        }
    }
    out.fingerprint = hash.finish();
    out
}

/// The first shared simulation of `w` (the cell the layer drivers and the
/// stepped-core cross-check use).
pub fn first_cell(w: &Workload) -> Cell {
    match &w.shape {
        Shape::Serial(cells) => cells[0].clone(),
        Shape::Grid { cfg, mixes, combos } => {
            Cell { cfg: combos[0].apply(cfg), mix: mixes[0].clone() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn every_declared_workload_builds_with_the_declared_shape() {
        let runs = |w: &Workload| match &w.shape {
            Shape::Serial(cells) => cells.len(),
            Shape::Grid { mixes, combos, .. } => mixes.len() * combos.len(),
        };
        let expected = [1, 4, 28, 1, 30];
        for (wl, n) in spec::WORKLOADS.iter().zip(expected) {
            let w = build(wl.name, 0, Length::Full).expect("declared workload builds");
            assert_eq!(w.name, wl.name);
            assert_eq!(runs(&w), n, "{}", wl.name);
        }
        assert!(build("nope", 0, Length::Full).is_none());
    }

    #[test]
    fn scale16c_is_sixteen_cores_on_four_channels() {
        let Cell { cfg, mix } = first_cell(&build("scale16c", 0, Length::Full).unwrap());
        assert_eq!(mix.cores(), 16);
        assert_eq!(cfg.dram.channels, 4);
        assert!(matches!(cfg.policy, PolicyKind::Dbp(_)));
    }

    #[test]
    fn seed_zero_is_canonical_and_other_seeds_rederive_every_trace() {
        let canon = mix_named("mix50-1");
        assert_eq!(seeded(&canon, 0, 3), canon);
        let other = seeded(&canon, 7, 0);
        assert_eq!(other.benchmarks, canon.benchmarks);
        for core in 0..canon.cores() {
            let drawn = runner::seed_for(&other, core);
            assert_ne!(drawn, runner::seed_for(&canon, core));
            assert_ne!(drawn, runner::seed_for(&seeded(&canon, 8, 0), core), "other seed");
            assert_ne!(drawn, runner::seed_for(&seeded(&canon, 7, 1), core), "other simulation");
        }
    }

    #[test]
    fn quick_length_shortens_every_cell() {
        for wl in spec::WORKLOADS {
            let full = first_cell(&build(wl.name, 0, Length::Full).unwrap()).cfg;
            let quick = first_cell(&build(wl.name, 0, Length::Quick).unwrap()).cfg;
            assert!(quick.target_instructions < full.target_instructions, "{}", wl.name);
            assert_eq!(quick.dram, full.dram);
        }
    }
}
