//! Layer drivers: tight loops over each crate's public functions, fed
//! with addresses and profiles taken from the workload's own traces.
//!
//! Each driver reports host nanoseconds per call of one layer in
//! isolation (`*.drv_*` metrics). They exist so a change to one layer can
//! be read without the rest of the simulator around it; the end-to-end
//! metric a driver number should move is tabulated in `README.md`.
//!
//! The stream flows the way it does inside `System`: trace ops are
//! translated by the OS layer, filtered by the cache hierarchy, and the
//! misses (plus dirty evictions) feed the controller and DRAM drivers.

use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

use dbp_bench::pool;
use dbp_cache::{AccessLevel, Hierarchy};
use dbp_core::policy::PolicyKind;
use dbp_core::{ColorTopology, ThreadMemProfile};
use dbp_cpu::{Core, MemIssue, TraceOp};
use dbp_dram::{Command, Dram, Loc};
use dbp_memctrl::{MemRequest, MemoryController};
use dbp_obs::{export, Json, Profile, Recorder, RecorderConfig};
use dbp_osmem::{ColorSet, MemoryManager};
use dbp_sim::{runner, System};

use crate::spans::Spans;
use crate::stats::median;
use crate::workloads::{schedulers, Cell, GRID_WORKERS};

/// Trace ops drawn per core.
const OPS_PER_CORE: usize = 100_000;
/// Core-model cycles driven per core.
const CORE_CYCLES: u64 = 200_000;
/// Controller ticks per timed chunk, and chunks per scheduler.
const TICK_CHUNK: u64 = 64;
const TICK_CHUNKS: u64 = 2_000;
/// DRAM requests replayed against a bare device.
const DRAM_REQUESTS: usize = 60_000;
/// Policy decisions timed per policy.
const DECISIONS: u32 = 2_000;
/// Jobs pushed through the bench pool.
const POOL_JOBS: u64 = 20_000;

fn ns_since(t0: Instant) -> f64 {
    t0.elapsed().as_nanos() as f64
}

/// One memory request below the caches: (thread, physical address, write).
type Miss = (usize, u64, bool);

struct Drivers<'a> {
    cell: &'a Cell,
    spans: &'a mut Spans,
    out: Vec<(String, f64)>,
}

impl Drivers<'_> {
    fn put(&mut self, name: &str, value: f64) {
        self.out.push((name.to_owned(), value));
    }

    fn threads(&self) -> usize {
        self.cell.mix.cores()
    }

    /// `SyntheticTrace::next_op`; returns the ops for the later stages.
    fn workloads(&mut self) -> Vec<Vec<TraceOp>> {
        let id = self.spans.open("workloads.drv_next_op");
        let mut ns = 0.0;
        for core in 0..self.threads() {
            let mut trace = runner::trace_for(&self.cell.mix, core);
            let t0 = Instant::now();
            for _ in 0..OPS_PER_CORE {
                black_box(trace.next_op());
            }
            ns += ns_since(t0);
        }
        self.spans.close(id);
        self.put("workloads.drv_ns_per_op", ns / (self.threads() * OPS_PER_CORE) as f64);
        // Same seeds, so the same ops again — collected outside the clock.
        (0..self.threads())
            .map(|core| {
                let mut trace = runner::trace_for(&self.cell.mix, core);
                (0..OPS_PER_CORE).map(|_| trace.next_op()).collect()
            })
            .collect()
    }

    /// `MemoryManager::translate` (first touch, then hit), then a full
    /// repartition: `set_partition` + lazy migration on touch +
    /// `rebalance_thread`. Always under an equal split, so the migration
    /// leg has pages to move whatever the cell's own policy is. Returns
    /// each op's physical address.
    fn osmem(&mut self, ops: &[Vec<TraceOp>]) -> Vec<Vec<u64>> {
        let cfg = &self.cell.cfg;
        let n = self.threads();
        let topo = ColorTopology::from_dram(&cfg.dram);
        let cold = vec![ThreadMemProfile::default(); n];
        let plan: Vec<ColorSet> = PolicyKind::Equal.build().partition(&cold, &topo, None);
        let mut os = MemoryManager::new(&cfg.dram, n, cfg.migration_mode);
        for (t, colors) in plan.iter().enumerate() {
            os.set_partition(t, *colors);
        }
        let page_bits = os.mapper().page_bits();
        let pages: Vec<Vec<u64>> = ops
            .iter()
            .map(|thread_ops| {
                let mut seen = HashSet::new();
                thread_ops
                    .iter()
                    .map(|op| op.addr)
                    .filter(|a| seen.insert(a >> page_bits))
                    .collect()
            })
            .collect();

        let id = self.spans.open("osmem.drv_translate");
        let t0 = Instant::now();
        for (t, thread_pages) in pages.iter().enumerate() {
            for &vaddr in thread_pages {
                black_box(os.translate(t, vaddr));
            }
        }
        let first_touch_ns = ns_since(t0);
        let t0 = Instant::now();
        for (t, thread_ops) in ops.iter().enumerate() {
            for op in thread_ops {
                black_box(os.translate(t, op.addr));
            }
        }
        let hit_ns = ns_since(t0);
        self.spans.close(id);
        let touched: usize = pages.iter().map(Vec::len).sum();
        self.put("osmem.drv_ns_per_first_touch", first_touch_ns / touched as f64);
        self.put("osmem.drv_ns_per_translate_hit", hit_ns / (n * OPS_PER_CORE) as f64);

        let pas: Vec<Vec<u64>> = ops
            .iter()
            .enumerate()
            .map(|(t, thread_ops)| {
                thread_ops.iter().map(|op| os.translate(t, op.addr).pa).collect()
            })
            .collect();

        // Hand every thread its neighbour's colours: every resident page
        // now violates its partition and moves on the next touch.
        let id = self.spans.open("osmem.drv_migrate");
        let before = os.stats().migrated_pages;
        let t0 = Instant::now();
        for (t, thread_pages) in pages.iter().enumerate() {
            black_box(os.set_partition(t, plan[(t + 1) % n]));
            for &vaddr in thread_pages {
                black_box(os.translate(t, vaddr));
            }
            black_box(os.rebalance_thread(t));
        }
        let migrate_ns = ns_since(t0);
        self.spans.close(id);
        let moved = os.stats().migrated_pages - before;
        assert!(moved > 0, "rotating an equal split must migrate pages");
        self.put("osmem.drv_ns_per_migrated_page", migrate_ns / moved as f64);
        pas
    }

    /// `Hierarchy::access`; returns the traffic that reaches memory.
    fn cache(&mut self, ops: &[Vec<TraceOp>], pas: &[Vec<u64>]) -> Vec<Miss> {
        let mut per_thread: Vec<Vec<Miss>> = vec![Vec::new(); self.threads()];
        let (mut l1_hits, mut mem_misses, mut accesses) = (0u64, 0u64, 0u64);
        let id = self.spans.open("cache.drv_access");
        let mut ns = 0.0;
        for (t, (thread_ops, thread_pas)) in ops.iter().zip(pas).enumerate() {
            let mut h = Hierarchy::new(self.cell.cfg.hierarchy);
            let t0 = Instant::now();
            for (op, &pa) in thread_ops.iter().zip(thread_pas) {
                let a = h.access(pa, op.is_write);
                if a.level == AccessLevel::MemoryMiss {
                    per_thread[t].push((t, pa & !63, false));
                }
                for wb in a.writebacks {
                    per_thread[t].push((t, wb, true));
                }
            }
            ns += ns_since(t0);
            l1_hits += h.l1().stats().hits;
            mem_misses += h.l2().stats().misses;
            accesses += h.l1().stats().accesses;
        }
        self.spans.close(id);
        self.put("cache.drv_ns_per_access", ns / accesses as f64);
        self.put("cache.l1_hit_rate", l1_hits as f64 / accesses as f64);
        self.put("cache.memory_miss_rate", mem_misses as f64 / accesses as f64);
        // Interleave the threads round-robin, as co-running cores would.
        let longest = per_thread.iter().map(Vec::len).max().unwrap_or(0);
        let misses: Vec<Miss> = (0..longest)
            .flat_map(|i| per_thread.iter().filter_map(move |v| v.get(i).copied()))
            .collect();
        assert!(!misses.is_empty(), "cold caches always miss");
        misses
    }

    /// `MemoryController::enqueue` / `tick` / `next_event` under each of
    /// the seven schedulers: a closed loop that tops the queues up from
    /// the miss stream, then ticks every cycle (the stepped core's path).
    fn memctrl(&mut self, misses: &[Miss]) {
        let cfg = &self.cell.cfg;
        let n = self.threads();
        let (mut enq_ns, mut enqs) = (0.0, 0u64);
        let (mut next_ns, mut nexts) = (0.0, 0u64);
        for (label, kind) in schedulers() {
            let id = self.spans.open("memctrl.drv_controller");
            let mut mc =
                MemoryController::new(Dram::new(cfg.dram.clone()), cfg.ctrl, kind.build(n), n);
            let mut feed = misses.iter().cycle().peekable();
            let mut done = Vec::new();
            let (mut now, mut req_id, mut tick_ns) = (0u64, 0u64, 0.0);
            for _ in 0..TICK_CHUNKS {
                let t0 = Instant::now();
                for _ in 0..TICK_CHUNK {
                    let &&(thread, pa, is_write) = feed.peek().expect("cycled stream");
                    if !mc.can_accept(mc.channel_of(pa), is_write) {
                        break;
                    }
                    mc.enqueue(if is_write {
                        MemRequest::writeback(req_id, thread, pa, now)
                    } else {
                        MemRequest::demand_read(req_id, thread, pa, now)
                    });
                    req_id += 1;
                    feed.next();
                }
                enq_ns += ns_since(t0);
                let t0 = Instant::now();
                for _ in 0..TICK_CHUNK {
                    mc.tick(now, &mut done);
                    now += 1;
                }
                tick_ns += ns_since(t0);
                done.clear();
                let t0 = Instant::now();
                black_box(mc.next_event(now - 1));
                next_ns += ns_since(t0);
                nexts += 1;
            }
            enqs += req_id;
            self.spans.close(id);
            self.put(
                &format!("memctrl.drv_ns_per_tick.{label}"),
                tick_ns / (TICK_CHUNK * TICK_CHUNKS) as f64,
            );
        }
        self.put("memctrl.drv_ns_per_enqueue", enq_ns / enqs as f64);
        self.put("memctrl.drv_ns_per_next_event", next_ns / nexts as f64);
    }

    /// `Dram::earliest_issue` / `issue` on a bare device: the miss stream
    /// as open-page command sequences (PRE/ACT as the bank state needs,
    /// then the column access), each issued at its earliest legal cycle.
    ///
    /// `issue` is timed by replaying a precomputed schedule;
    /// `earliest_issue` is the extra cost of the loop that also asks the
    /// device for each time. Both loops run five times; the fastest
    /// counts, since preemption only ever adds time.
    fn dram(&mut self, misses: &[Miss]) {
        let cfg = &self.cell.cfg.dram;
        let id = self.spans.open("dram.drv_replay");
        let mut dev = Dram::new(cfg.clone());
        let mut schedule: Vec<(Command, u64)> = Vec::new();
        let mut now = 0;
        for &(_, pa, is_write) in misses.iter().cycle().take(DRAM_REQUESTS) {
            let d = dev.mapper().decode(pa);
            let mut cmds = Vec::with_capacity(3);
            match dev.open_row(Loc::new(d.channel, d.rank, d.bank)) {
                Some(row) if row == d.row => {}
                Some(_) => {
                    cmds.push(Command::precharge(d.channel, d.rank, d.bank));
                    cmds.push(Command::activate(d.channel, d.rank, d.bank, d.row));
                }
                None => cmds.push(Command::activate(d.channel, d.rank, d.bank, d.row)),
            }
            cmds.push(if is_write {
                Command::write(d.channel, d.rank, d.bank, d.column, false)
            } else {
                Command::read(d.channel, d.rank, d.bank, d.row, d.column, false)
            });
            for cmd in cmds {
                now = dev.earliest_issue(&cmd, now).expect("command matches the bank state");
                dev.issue(&cmd, now);
                schedule.push((cmd, now));
            }
        }
        let fastest = |run: &dyn Fn(&mut Dram)| {
            (0..5)
                .map(|_| {
                    let mut dev = Dram::new(cfg.clone());
                    let t0 = Instant::now();
                    run(&mut dev);
                    black_box(&dev);
                    ns_since(t0)
                })
                .fold(f64::INFINITY, f64::min)
        };
        let issue_only = fastest(&|dev| {
            for (cmd, at) in &schedule {
                dev.issue(cmd, *at);
            }
        });
        let query_and_issue = fastest(&|dev| {
            let mut now = 0;
            for (cmd, _) in &schedule {
                now = dev.earliest_issue(cmd, now).expect("replay of a legal schedule");
                dev.issue(cmd, now);
            }
        });
        self.spans.close(id);
        let cmds = schedule.len() as f64;
        self.put("dram.drv_ns_per_issue", issue_only / cmds);
        self.put("dram.drv_ns_per_earliest_issue", (query_and_issue - issue_only).max(0.0) / cmds);
    }

    /// `Core::tick` every cycle, then the same cycles through
    /// `compute_horizon` + `forward` wherever the core allows it (the
    /// skip core's path). Memory always answers with an L1 hit, so only
    /// the core model is on the clock.
    fn cpu(&mut self) {
        let cfg = &self.cell.cfg;
        let latency = cfg.hierarchy.l1.latency;
        let mut mem = |_: u64, _: bool, _: u64| MemIssue::Done { latency };
        let id = self.spans.open("cpu.drv_core");
        let (mut tick_ns, mut forward_ns) = (0.0, 0.0);
        for core in 0..self.threads() {
            let mut c = Core::new(cfg.core, runner::trace_for(&self.cell.mix, core));
            let t0 = Instant::now();
            for now in 0..CORE_CYCLES {
                c.tick(now, &mut mem);
            }
            tick_ns += ns_since(t0);
            black_box(c.retired());

            let mut c = Core::new(cfg.core, runner::trace_for(&self.cell.mix, core));
            let t0 = Instant::now();
            let mut now = 0;
            while now < CORE_CYCLES {
                let k = c.compute_horizon().min(CORE_CYCLES - now);
                if k > 0 {
                    c.forward(now, k);
                    now += k;
                } else {
                    c.tick(now, &mut mem);
                    now += 1;
                }
            }
            forward_ns += ns_since(t0);
            black_box(c.retired());
        }
        self.spans.close(id);
        let cycles = self.threads() as f64 * CORE_CYCLES as f64;
        self.put("cpu.drv_ns_per_tick", tick_ns / cycles);
        self.put("cpu.drv_ns_per_forwarded_kcycle", forward_ns / (cycles / 1000.0));
    }

    /// `PartitionPolicy::partition` for equal-BP, DBP and MCP on the
    /// mix's own (MPKI, RBL, BLP) profiles, one thread's intensity
    /// swinging each epoch so stateful policies keep deciding.
    fn core(&mut self) {
        let n = self.threads();
        let topo = ColorTopology::from_dram(&self.cell.cfg.dram);
        let base: Vec<ThreadMemProfile> = self
            .cell
            .mix
            .profiles()
            .iter()
            .map(|p| {
                let reads = (p.mpki * 1000.0) as u64;
                ThreadMemProfile {
                    mpki: p.mpki,
                    rbl: p.rbl,
                    blp: p.blp,
                    reads,
                    bus_cycles: reads * 4,
                }
            })
            .collect();
        let policies = [
            ("equal", PolicyKind::Equal),
            ("dbp", PolicyKind::Dbp(Default::default())),
            ("mcp", PolicyKind::Mcp(Default::default())),
        ];
        for (label, kind) in policies {
            let id = self.spans.open("core.drv_partition");
            let mut policy = kind.build();
            let mut plan = policy.partition(&vec![ThreadMemProfile::default(); n], &topo, None);
            let mut profiles = base.clone();
            let t0 = Instant::now();
            for epoch in 0..DECISIONS {
                let swing = &mut profiles[epoch as usize % n];
                swing.mpki =
                    base[epoch as usize % n].mpki * if epoch % 2 == 0 { 1.5 } else { 0.75 };
                plan = policy.partition(&profiles, &topo, Some(&plan));
            }
            let ns = ns_since(t0);
            black_box(&plan);
            self.spans.close(id);
            self.put(&format!("core.drv_ns_per_partition.{label}"), ns / f64::from(DECISIONS));
        }
    }

    /// Profile document write + parse (`export::profile_document`,
    /// `Json::to_json`, `json::parse`, `Profile::from_json`).
    fn obs_json(&mut self, profile: &Profile) {
        let id = self.spans.open("obs.drv_json");
        let (mut bytes, mut ns) = (0usize, 0.0);
        while ns < 20e6 {
            let t0 = Instant::now();
            let text = export::profile_document(profile, Json::Null).to_json();
            let doc = dbp_obs::json::parse(&text).expect("writer output parses");
            let back = Profile::from_json(&doc).expect("profile document round-trips");
            ns += ns_since(t0);
            assert_eq!(&back, profile, "profile document round-trip changed the profile");
            bytes += text.len();
        }
        self.spans.close(id);
        self.put("obs.drv_json_mb_per_s", bytes as f64 / 1e6 / (ns / 1e9));
    }

    /// `pool::par_map` with empty jobs: queue + slot overhead per job.
    fn bench_pool(&mut self) {
        let id = self.spans.open("bench.drv_pool");
        let t0 = Instant::now();
        let out = pool::par_map(GRID_WORKERS, (0..POOL_JOBS).collect(), |i| black_box(i) + 1);
        let ns = ns_since(t0);
        self.spans.close(id);
        assert_eq!(out.len() as u64, POOL_JOBS);
        self.put("bench.drv_pool_ns_per_job", ns / POOL_JOBS as f64);
    }

    /// `System` construction (median of five).
    fn sim_construct(&mut self) {
        let id = self.spans.open("sim.drv_construct");
        let samples: Vec<f64> = (0..5)
            .map(|_| {
                let traces = self.cell.traces();
                let t0 = Instant::now();
                let sys = System::new(self.cell.cfg.clone(), traces);
                let ns = ns_since(t0);
                black_box(sys.num_cores());
                ns
            })
            .collect();
        self.spans.close(id);
        self.put("sim.construct_ns", median(&samples));
    }
}

/// Wall seconds of one shared run of `cell` with telemetry into `rec`.
fn timed_run(cell: &Cell, rec: Recorder) -> f64 {
    let traces = cell.traces();
    let t0 = Instant::now();
    let mut sys = System::with_recorder(cell.cfg.clone(), traces, rec);
    black_box(sys.run());
    t0.elapsed().as_secs_f64()
}

/// `obs.recorder_overhead_frac`: one run of `quick` (the workload's first
/// cell at warm-pass length) with latency anatomy and the decision audit
/// recording, over the same run with the recorder disabled, minus one.
pub fn recorder_overhead(quick: &Cell, spans: &mut Spans) -> f64 {
    let id = spans.open("obs.drv_recorder");
    let plain = timed_run(quick, Recorder::disabled());
    let rec = Recorder::new(RecorderConfig { audit: true, ..Default::default() });
    let recorded = timed_run(quick, rec.clone());
    let seen = rec.snapshot();
    spans.close(id);
    assert!(seen.latency.is_some() && seen.audit.is_some(), "recorder observed nothing");
    recorded / plain - 1.0
}

/// Run every layer driver on `cell`. `profile` is the traced pass's
/// `Prof` snapshot (the JSON driver's document).
pub fn run_all(cell: &Cell, profile: &Profile, spans: &mut Spans) -> Vec<(String, f64)> {
    let mut d = Drivers { cell, spans, out: Vec::new() };
    let ops = d.workloads();
    let pas = d.osmem(&ops);
    let misses = d.cache(&ops, &pas);
    d.memctrl(&misses);
    d.dram(&misses);
    d.cpu();
    d.core();
    d.obs_json(profile);
    d.bench_pool();
    d.sim_construct();
    d.out
}
