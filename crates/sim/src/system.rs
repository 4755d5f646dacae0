//! The composed system and its cycle loop.

use std::collections::VecDeque;

use dbp_cache::{AccessLevel, Hierarchy, Mshr};
use dbp_core::policy::{PartitionPolicy, PolicyKind};
use dbp_core::{ColorTopology, ThreadMemProfile};
use dbp_cpu::{Core, CoreStats, IdleState, MemIssue, TraceSource};
use dbp_dram::DramStats;
use dbp_memctrl::{Completion, MemRequest, MemoryController, ThreadProf};
use dbp_obs::{EpochSample, EventKind, Prof, Profile, Recorder, ThreadSample};
use dbp_osmem::{ColorSet, MemoryManager, MigrationJob, OsStats};

use crate::audit::ShadowRack;
use crate::config::{MigrationCost, SimConfig};
use crate::metrics::{RunResult, ThreadResult};

/// System-level counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SysStats {
    /// Repartitioning epochs executed.
    pub repartitions: u64,
    /// Migration copy requests injected into the controller.
    pub migration_requests: u64,
    /// Cycles executed one step at a time.
    pub cycles_stepped: u64,
    /// Cycles jumped over by time skipping. With `cycles_stepped`, every
    /// simulated cycle is counted exactly once.
    pub cycles_skipped: u64,
    /// Real core ticks (a dormant core's caught-up cycles are not ticks).
    pub core_ticks: u64,
    /// Core ticks after which the core went dormant past the next cycle.
    pub core_wakes: u64,
}

/// One simulated CMP: cores, private caches, OS memory manager, memory
/// controller, DRAM, and a partitioning policy.
pub struct System {
    cfg: SimConfig,
    cores: Vec<Core>,
    caches: Vec<Hierarchy>,
    /// Per core: outstanding lines and the loads waiting on each fill.
    mshrs: Vec<Mshr>,
    /// Address bits that name a line: one DRAM burst, which `validate`
    /// holds equal to both cache levels' line size.
    line_mask: u64,
    osmem: MemoryManager,
    ctrl: MemoryController,
    policy: Box<dyn PartitionPolicy>,
    topo: ColorTopology,
    last_plan: Option<Vec<ColorSet>>,
    next_req_id: u64,
    /// Copy traffic waiting for queue space.
    migration_backlog: MigrationBacklog,
    /// Per core: the last full poll evaluation proved "probe miss, no
    /// MSHR merge, MSHR full" — a verdict that cannot change until a
    /// completion is delivered to this core (frees an MSHR slot, fills
    /// the cache) or a repartition (remaps pages, refills migration
    /// budget), so repeat polls can return `Retry` without re-walking
    /// page table, caches and queues. Only consulted when time skipping
    /// is on: the stepped reference path stays a plain interpreter so
    /// the CI cross-check would expose a stale-verdict bug here.
    poll_stuck: Vec<bool>,
    /// Per core: the wake calendar (see [`CoreClock`]). With time
    /// skipping off every `wake` stays 0, so every core ticks every cycle.
    clocks: Vec<CoreClock>,
    last_fed_instr: Vec<u64>,
    cycle: u64,
    /// CPU cycle of the next DRAM tick, and that tick's DRAM cycle.
    next_dram: u64,
    dram_ticks: u64,
    /// CPU cycles of the next repartition epoch / instruction feed (the
    /// first of each is one interval in: neither fires at cycle 0).
    next_epoch: u64,
    next_feed: u64,
    finish_cycle: Vec<Option<u64>>,
    /// Cores with `finish_cycle` unset / short of the warmup target.
    /// Maintained where a core really ticks; the classification fences
    /// keep a dormant core from crossing either threshold unobserved.
    unfinished: usize,
    behind: usize,
    completions: Vec<Completion>,
    stats: SysStats,
    // Measurement window (set when warmup ends).
    measure_start: u64,
    base_retired: Vec<u64>,
    prof_base: Vec<ThreadProf>,
    dram_base: Option<DramStats>,
    os_base: OsStats,
    sys_base: SysStats,
    rec: Recorder,
    /// Policies riding along with the live one: the decision audit layer
    /// (shadow policies + estimator accuracy + convergence), built only
    /// when the recorder asked for it ([`dbp_obs::RecorderConfig::audit`]),
    /// or the policy twins of [`System::with_twins`]. Observation-only and
    /// muted (see [`muted`]): the byte-identity property tests hold
    /// attached-vs-detached runs equal.
    rack: Option<ShadowRack>,
    /// Host-side self-profiler (wall-clock spans, and the work counters
    /// each run publishes when it ends); named `host_prof` because
    /// `ctrl.prof()` is the *simulated* per-thread DRAM profiler — the
    /// two measure different worlds.
    host_prof: Prof,
}

/// One core's entry in the wake calendar. A core whose next ticks are
/// provably private — blocked until a timer or a completion, or inside a
/// memory-free compute horizon — goes dormant: it is not ticked again
/// before `wake`, and the ticks it missed are applied in closed form only
/// when something needs its state (see DESIGN.md "Event-driven time
/// skipping").
#[derive(Debug, Clone, Copy, Default)]
struct CoreClock {
    /// Every tick of cycles `< synced` has been applied to the core.
    synced: u64,
    /// First cycle the core must really tick; dormant while `> cycle`.
    wake: u64,
    /// Catch-up form of a dormant core: [`Core::forward`] (compute
    /// horizon) or [`Core::skip_cycles`] (blocked).
    forward: bool,
}

impl CoreClock {
    /// Apply the ticks of cycles `synced..now` that the core slept through.
    fn sync(&mut self, core: &mut Core, now: u64) {
        let k = now - self.synced;
        if k == 0 {
            return;
        }
        debug_assert!(now <= self.wake, "slept past the wake time");
        if self.forward {
            core.forward(self.synced, k);
        } else {
            core.skip_cycles(k);
        }
        self.synced = now;
    }

    /// Whether this is a compute-horizon sleeper that has not been
    /// classified since cycle `now - 1`: its true horizon may be later
    /// than the recorded `wake`.
    fn stale_horizon(&self, now: u64) -> bool {
        self.forward && self.synced < now
    }
}

/// Why a demand miss cannot enter the memory system this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Refusal {
    /// The core's own MSHR file is full. Core-private: the verdict holds
    /// until a fill is delivered to this core (see `System::poll_stuck`).
    Mshr,
    /// A controller queue lacks room. Shared: the verdict depends on what
    /// other cores enqueue, so it holds only while nothing issues.
    Queues,
}

/// The admission rule of a demand miss of `line` (not resident, not
/// merged): it needs a free MSHR, room in its channel's read queue, and
/// head-room in every write queue for the up-to-two write-backs a fill
/// can trigger. The one definition: `tick_core` answers `Retry` from it,
/// `core_calendar` proves a skipped window from it.
fn miss_refusal(mshr: &Mshr, ctrl: &MemoryController, line: u64) -> Option<Refusal> {
    if mshr.is_full() {
        return Some(Refusal::Mshr);
    }
    let write_cap = ctrl.cfg().write_q_cap;
    let queues_full = !ctrl.can_accept(ctrl.channel_of(line), false)
        || (0..ctrl.dram().cfg().channels).any(|ch| ctrl.queue_len(ch, true) + 2 > write_cap);
    queues_full.then_some(Refusal::Queues)
}

/// Run a rider under a disabled recorder and the run's profiler: riders
/// never emit (see [`crate::audit`]).
fn muted<R>(prof: &Prof, f: impl FnOnce() -> R) -> R {
    dbp_obs::observe(&Recorder::disabled(), prof, f)
}

/// The policy-facing view of one thread's profiling window.
fn mem_profile(p: &ThreadProf) -> ThreadMemProfile {
    ThreadMemProfile {
        mpki: p.mpki(),
        rbl: p.rbl(),
        blp: p.blp(),
        reads: p.reads,
        bus_cycles: p.bus_cycles,
    }
}

/// Row-hit rate over a set of threads' windows: the `rbl` of their sum.
fn row_hit_rate(windows: &[ThreadProf]) -> f64 {
    let mut all = ThreadProf::default();
    windows.iter().for_each(|p| all.accumulate(p));
    all.rbl()
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("cycle", &self.cycle)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl System {
    /// Build a system with one core per trace.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration is invalid.
    pub fn new(cfg: SimConfig, traces: Vec<Box<dyn TraceSource>>) -> Self {
        Self::with_recorder(cfg, traces, Recorder::disabled())
    }

    /// Build a system that emits telemetry into `rec` (see [`dbp_obs`]).
    /// The system installs it ([`dbp_obs::observe`]) while it builds its
    /// layers and for [`System::run`]; no layer holds a copy.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration is invalid.
    pub fn with_recorder(cfg: SimConfig, traces: Vec<Box<dyn TraceSource>>, rec: Recorder) -> Self {
        Self::with_instrumentation(cfg, traces, rec, Prof::disabled())
    }

    /// Build a system that emits telemetry into `rec` *and* host-side
    /// self-profiling spans/counters into `prof` (see [`dbp_obs::Prof`]).
    /// Profiling only observes wall time: the simulated outcome is
    /// byte-identical with `prof` enabled or disabled.
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty or the configuration is invalid.
    pub fn with_instrumentation(
        cfg: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        rec: Recorder,
        prof: Prof,
    ) -> Self {
        Self::with_twins(cfg, traces, rec, prof, &[])
    }

    /// [`System::with_instrumentation`] with the policies `twins` riding
    /// along in the shadow rack: each cold-starts beside the live policy
    /// and then plans every epoch from the same profiles, and
    /// [`System::twins_agreeing`] reports which never planned
    /// differently. A run that audits its decisions carries the audit
    /// rack instead, so it takes no twins
    /// ([`crate::runner::Cell::run_group`] keeps the two apart).
    ///
    /// # Panics
    ///
    /// Panics if `traces` is empty, or the configuration — or the
    /// configuration under any twin's policy — is invalid.
    pub(crate) fn with_twins(
        cfg: SimConfig,
        traces: Vec<Box<dyn TraceSource>>,
        rec: Recorder,
        prof: Prof,
        twins: &[PolicyKind],
    ) -> Self {
        cfg.validate().expect("invalid SimConfig");
        for &policy in twins {
            SimConfig { policy, ..cfg.clone() }.validate().expect("invalid SimConfig");
        }
        assert!(!traces.is_empty(), "at least one trace required");
        let n = traces.len();
        let topo = ColorTopology::from_dram(&cfg.dram);
        // The live policy's cold start may emit; the controller keeps the
        // latency anatomy under a live recorder.
        let (policy, osmem, ctrl, plan) = dbp_obs::observe(&rec, &prof, || {
            let mut policy = cfg.policy.build();
            let mut osmem = MemoryManager::new(&cfg.dram, n, cfg.migration_mode);
            // Install the policy's cold-start plan before any page is
            // touched, so static policies (equal split) are in force from
            // cycle 0.
            let cold = vec![ThreadMemProfile::default(); n];
            let plan = policy.partition(&cold, &topo, None);
            for (t, colors) in plan.iter().enumerate() {
                osmem.set_partition(t, *colors);
            }
            let dram = dbp_dram::Dram::new(cfg.dram.clone());
            let ctrl = MemoryController::new(dram, cfg.ctrl, cfg.scheduler.build(n), n);
            (policy, osmem, ctrl, plan)
        });
        let rack = muted(&prof, || {
            if rec.audit_requested() {
                Some(ShadowRack::standard(&cfg, &topo, &plan))
            } else if !twins.is_empty() {
                Some(ShadowRack::twins(twins, &topo, &plan))
            } else {
                None
            }
        });
        let line_bytes = u64::from(cfg.dram.burst_bytes());
        System {
            cores: traces.into_iter().map(|t| Core::new(cfg.core, t)).collect(),
            caches: (0..n).map(|_| Hierarchy::new(cfg.hierarchy)).collect(),
            mshrs: (0..n).map(|_| Mshr::new(cfg.mshrs)).collect(),
            line_mask: !(line_bytes - 1),
            last_plan: Some(plan),
            next_req_id: 0,
            migration_backlog: MigrationBacklog::new(
                cfg.migration_cost,
                u64::from(cfg.dram.page_bytes),
                line_bytes,
            ),
            poll_stuck: vec![false; n],
            clocks: vec![CoreClock::default(); n],
            last_fed_instr: vec![0; n],
            cycle: 0,
            next_dram: 0,
            dram_ticks: 0,
            next_epoch: cfg.epoch_cpu_cycles,
            next_feed: cfg.instr_feed_interval,
            finish_cycle: vec![None; n],
            unfinished: n,
            behind: if cfg.warmup_instructions > 0 { n } else { 0 },
            completions: Vec::new(),
            stats: SysStats::default(),
            measure_start: 0,
            base_retired: vec![0; n],
            prof_base: vec![ThreadProf::default(); n],
            dram_base: None,
            os_base: OsStats::default(),
            sys_base: SysStats::default(),
            osmem,
            ctrl,
            policy,
            topo,
            cfg,
            rec,
            rack,
            host_prof: prof,
        }
    }

    /// Override [`SimConfig::time_skip`] on an already-built system.
    pub fn set_time_skip(&mut self, on: bool) {
        self.cfg.time_skip = on;
        // The stepped core ticks everyone every cycle; the skipping core
        // re-derives each wake time after the core's next real tick.
        self.wake_all();
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Current CPU cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Core `i`'s execution counters, brought up to the current cycle.
    pub fn core_stats(&mut self, i: usize) -> &CoreStats {
        self.clocks[i].sync(&mut self.cores[i], self.cycle);
        self.cores[i].stats()
    }

    /// System counters.
    pub fn stats(&self) -> &SysStats {
        &self.stats
    }

    /// The controller (for inspection).
    pub fn ctrl(&self) -> &MemoryController {
        &self.ctrl
    }

    /// The OS memory manager (for inspection).
    pub fn osmem(&self) -> &MemoryManager {
        &self.osmem
    }

    /// The plan currently in force.
    pub fn current_plan(&self) -> Option<&[ColorSet]> {
        self.last_plan.as_deref()
    }

    /// Per twin (see [`System::with_twins`]): whether each of its plans so
    /// far, the cold-start plan included, equalled the live one.
    pub(crate) fn twins_agreeing(&self) -> Vec<bool> {
        self.rack.as_ref().map_or_else(Vec::new, ShadowRack::twins_agreeing)
    }

    /// Run the warmup phase, then measure until every core reaches the
    /// instruction target (or the cycle cap) and return the result, with
    /// the system's recorder and profiler installed.
    ///
    /// Dispatches once on whether the host profiler is live: the
    /// `PROF = false` monomorphisation contains no span code at all.
    pub fn run(&mut self) -> RunResult {
        let (rec, prof) = (self.rec.clone(), self.host_prof.clone());
        dbp_obs::observe(&rec, &prof, || {
            if prof.is_enabled() {
                self.run_loop::<true>()
            } else {
                self.run_loop::<false>()
            }
        })
    }

    fn run_loop<const PROF: bool>(&mut self) -> RunResult {
        if self.cfg.warmup_instructions > 0 {
            let _phase = self.host_prof.span("sim/warmup");
            // Warmup must also span several repartition epochs (plus one
            // cycle, so no epoch boundary coincides with measurement
            // start): a dynamic policy's plan — smoothed and debounced —
            // needs a few epochs to settle, and its settling migrations
            // belong to warmup, not to the measured steady state.
            let min_cycles = 4 * self.cfg.epoch_cpu_cycles + 1;
            while self.cycle < self.cfg.max_cpu_cycles
                && (self.cycle < min_cycles || self.behind > 0)
            {
                self.step::<PROF>();
                // The skip bound is derived from the *post-step* state: a
                // loop exit condition must never be jumped over. While a
                // core is still short of the warmup target only the cycle
                // cap can end the loop; once all cores are warm the jump
                // must land exactly on the min-cycle clamp, because
                // measurement starts there.
                let behind = self.behind > 0;
                if self.cycle < self.cfg.max_cpu_cycles && (behind || self.cycle < min_cycles) {
                    let bound = if behind { self.cfg.max_cpu_cycles } else { min_cycles };
                    self.maybe_skip(bound);
                }
            }
            self.begin_measurement();
        }
        {
            let _phase = self.host_prof.span("sim/measure");
            while self.cycle < self.cfg.max_cpu_cycles && self.unfinished > 0 {
                self.step::<PROF>();
                // Same post-step guard: if the step just finished the last
                // core, stepped mode exits here — a jump would inflate the
                // final cycle count.
                if self.unfinished > 0 {
                    self.maybe_skip(self.cfg.max_cpu_cycles);
                }
            }
        }
        let _phase = self.host_prof.span("sim/collect");
        self.collect()
    }

    /// Reset the measurement window to start *now* (end of warmup).
    fn begin_measurement(&mut self) {
        self.feed_instructions();
        // Measurement covers the steady state: finish any in-flight
        // partition transition instantly (and costlessly) so it is not
        // charged to an arbitrary slice of the measured window.
        self.osmem.conform_all();
        self.migration_backlog.clear();
        // The finish fence moves with `base_retired`: reclassify everyone.
        self.wake_all();
        if let Some(rack) = &mut self.rack {
            rack.note_measurement_start(self.stats.repartitions);
        }
        self.measure_start = self.cycle;
        for i in 0..self.cores.len() {
            self.base_retired[i] = self.cores[i].retired();
            self.prof_base[i] = self.ctrl.prof().cumulative(i);
            self.finish_cycle[i] = None;
        }
        self.unfinished = self.cores.len();
        self.dram_base = Some(self.ctrl.dram().stats().clone());
        self.os_base = *self.osmem.stats();
        self.sys_base = self.stats;
        // Latency anatomy measures the steady state only; in-flight
        // requests keep their wait accumulators so breakdowns of reads
        // spanning the warmup boundary stay sum-exact.
        self.ctrl.reset_latency();
    }

    /// Jump `cycle` forward to the next possibly-interesting cycle, or do
    /// nothing if any component could act (or observe new state) before
    /// it. See DESIGN.md "Event-driven time skipping" for the calendar
    /// and the no-state-change proof obligations.
    fn maybe_skip(&mut self, bound: u64) {
        if !self.cfg.time_skip {
            return;
        }
        let cur = self.cycle;
        // Calendar: the jump lands on the earliest of a core's wake time,
        // the next epoch / feed boundary (those run code even with
        // everyone idle) and the controller's next event.
        let mut fixed = bound.min(self.next_epoch).min(self.next_feed);
        // Pending migration copy traffic that the controller would accept
        // means the next DRAM tick enqueues: the jump may reach that tick,
        // not cross it. (If the queue is full it stays full for the whole
        // window: nothing issues or completes before the controller's
        // next event.)
        if let Some((_, addr, is_write)) = self.migration_backlog.front() {
            if self.ctrl.can_accept(self.ctrl.channel_of(addr), is_write) {
                fixed = fixed.min(self.next_dram);
            }
        }
        if fixed <= cur {
            return;
        }
        let cpd = self.cfg.cpu_per_dram;
        let mut ctrl_event = None;
        let target = loop {
            let Some((mut target, first)) = self.core_calendar(cur, fixed) else {
                return;
            };
            // The controller only acts on DRAM-tick cycles: when the
            // window already ends at or before the next one, its calendar
            // cannot lower `target` (`next_event` is past the last
            // executed DRAM tick, so scaled it is ≥ `next_dram`) and the
            // query is skipped.
            if target > self.next_dram {
                let event = *ctrl_event.get_or_insert_with(|| {
                    let _s = self.host_prof.span("memctrl/next_event");
                    self.ctrl.next_event(self.dram_ticks - 1).saturating_mul(cpd)
                });
                target = target.min(event);
            }
            // A compute horizon assumes full-width dispatch, so it only
            // grows while its core sleeps. When such a sleeper is what
            // bounds the jump (or seems due right now), bring it up to
            // date and ask again rather than execute a cycle in which
            // nothing can happen.
            match first {
                Some(i) if self.clocks[i].wake == target && self.clocks[i].stale_horizon(cur) => {
                    self.clocks[i].sync(&mut self.cores[i], cur);
                    self.classify(i);
                }
                _ if target <= cur => return,
                _ => break target,
            }
        };
        // Perform the jump: cycles [cur, target) are skipped, `target`
        // itself executes as a normal step. Sleepers are not touched (they
        // catch up when they wake); every core still awake is a
        // queue-refused poller and took `k` more `Retry` ticks.
        let k = target - cur;
        for (clock, core) in self.clocks.iter_mut().zip(&mut self.cores) {
            if clock.wake <= cur {
                core.skip_cycles(k);
                clock.synced = target;
            }
        }
        let to = target.div_ceil(cpd);
        self.ctrl.skip_ticks(self.dram_ticks, to - self.dram_ticks);
        self.dram_ticks = to;
        self.next_dram = to * cpd;
        self.stats.cycles_skipped += k;
        self.cycle = target;
    }

    /// The cores' part of the jump calendar at cycle `cur`: the earliest
    /// wake time on record (capped at `target`) and the sleeper that set
    /// it — or `None` when an awake core can act at `cur`.
    fn core_calendar(&mut self, cur: u64, mut target: u64) -> Option<(u64, Option<usize>)> {
        let mut first = None;
        for i in 0..self.clocks.len() {
            let clock = self.clocks[i];
            if clock.wake > cur || clock.stale_horizon(cur) {
                if clock.wake < target {
                    target = clock.wake;
                    first = Some(i);
                }
                continue;
            }
            // An awake core holds the clock — unless all its next tick can
            // do is repeat a poll the *shared* queues refuse. That verdict
            // depends on what other cores enqueue, so it is proved here,
            // per window, on pure views only: a peek that could
            // allocate/migrate, a probe that would hit, or a free resource
            // all mean the next tick mutates shared state — no skip. (A
            // blocked sleeper whose wake time has come must tick.)
            if clock.synced != cur {
                return None;
            }
            let IdleState::Blocked { timer, mem_poll: Some((vaddr, _)) } =
                self.cores[i].idle_state()
            else {
                return None;
            };
            if let Some(t) = timer {
                target = target.min(t);
            }
            let pa = self.osmem.peek(i, vaddr)?;
            let line = pa & self.line_mask;
            if self.caches[i].probe(pa) || self.mshrs[i].contains(line) {
                return None; // would hit or merge: the poll makes progress
            }
            // Nothing issues or completes inside the window, so a refusal
            // now is a refusal on every tick of it; no refusal means the
            // poll enqueues next tick.
            miss_refusal(&self.mshrs[i], &self.ctrl, line)?;
        }
        Some((target, first))
    }

    /// Advance exactly one CPU cycle.
    fn step<const PROF: bool>(&mut self) {
        let cycle = self.cycle;
        self.rec.set_cycle(cycle);
        self.stats.cycles_stepped += 1;
        if cycle == self.next_dram {
            let _s = PROF.then(|| self.host_prof.span("sim/dram_tick"));
            self.dram_tick(cycle);
        }
        // An epoch feeds instructions itself, so a feed boundary that
        // coincides with one only advances.
        let feed_due = cycle == self.next_feed;
        if feed_due {
            self.next_feed += self.cfg.instr_feed_interval;
        }
        if cycle == self.next_epoch {
            self.next_epoch += self.cfg.epoch_cpu_cycles;
            let _s = PROF.then(|| self.host_prof.span("sim/policy_epoch"));
            self.repartition();
        } else if feed_due {
            let _s = PROF.then(|| self.host_prof.span("sim/feed_instructions"));
            self.feed_instructions();
        }
        self.tick_cores::<PROF>(cycle);
        self.cycle += 1;
    }

    fn dram_tick(&mut self, cycle: u64) {
        let dram_now = self.dram_ticks;
        self.dram_ticks += 1;
        self.next_dram += self.cfg.cpu_per_dram;
        // Feed backlog copy traffic gently (up to 4 requests per cycle).
        // The span opens only when there is a backlog: most DRAM ticks
        // have none, and an always-on child would drown the signal (and
        // cost two clock reads per tick) for an empty loop.
        if !self.migration_backlog.is_empty() {
            let _s = self.host_prof.span("sim/migration_feed");
            for _ in 0..4 {
                let Some((thread, addr, is_write)) = self.migration_backlog.front() else {
                    break;
                };
                let ch = self.ctrl.channel_of(addr);
                if !self.ctrl.can_accept(ch, is_write) {
                    break;
                }
                self.migration_backlog.pop_front();
                let id = self.next_req_id;
                self.next_req_id += 1;
                self.ctrl.enqueue(MemRequest::migration(id, thread, addr, is_write, dram_now));
                self.stats.migration_requests += 1;
            }
        }
        let mut buf = std::mem::take(&mut self.completions);
        buf.clear();
        self.ctrl.tick(dram_now, &mut buf);
        for c in &buf {
            let (core, line) = (c.thread, c.line);
            debug_assert!(
                self.mshrs[core].contains(line),
                "core {core} awaits no fill of {line:#x}"
            );
            self.poll_stuck[core] = false;
            let waiters = self.mshrs[core].complete(line);
            // The fill changes what the core's next ticks can do: apply
            // the ticks it slept through, deliver, and classify afresh (a
            // core still blocked behind an older load sleeps on).
            self.clocks[core].sync(&mut self.cores[core], cycle);
            for load in waiters {
                self.cores[core].complete(load);
            }
            if self.cfg.time_skip {
                self.classify(core);
            }
        }
        self.completions = buf;
    }

    fn tick_cores<const PROF: bool>(&mut self, cycle: u64) {
        // Opened by the first awake core: most executed cycles have none
        // (they execute for the controller), and an empty span per cycle
        // would cost two clock reads to record nothing.
        let mut span = None;
        for i in 0..self.cores.len() {
            if self.clocks[i].wake > cycle {
                continue;
            }
            if PROF {
                span.get_or_insert_with(|| self.host_prof.span("sim/cores_tick"));
            }
            self.stats.core_ticks += 1;
            self.tick_core(i, cycle);
            if self.clocks[i].wake > cycle + 1 {
                self.stats.core_wakes += 1;
            }
        }
    }

    /// Really tick core `i` at `cycle` (after any catch-up), observe the
    /// run loop's two exit conditions, and put it back on the calendar.
    fn tick_core(&mut self, i: usize, cycle: u64) {
        let dram_now = self.dram_ticks - 1;
        let line_mask = self.line_mask;
        let time_skip = self.cfg.time_skip;
        let warm = self.cfg.warmup_instructions;
        let System { osmem, ctrl, next_req_id, migration_backlog, .. } = self;
        let core = &mut self.cores[i];
        let cache = &mut self.caches[i];
        let mshr = &mut self.mshrs[i];
        let stuck = &mut self.poll_stuck[i];
        let was_behind = core.retired() < warm;
        self.clocks[i].sync(core, cycle);
        let mut mem = |vaddr: u64, is_write: bool, load_id: u64| -> MemIssue {
            if time_skip && *stuck {
                // Memoised verdict (see `poll_stuck`): this exact poll
                // already proved Retry-on-full-MSHR and nothing that
                // could change it has happened since.
                return MemIssue::Retry;
            }
            let tr = osmem.translate(i, vaddr);
            migration_backlog.charge(tr.migration);
            let pa = tr.pa;
            let line = pa & line_mask;
            // Resource pre-flight (only if this will miss the caches).
            if !cache.probe(pa) && !mshr.contains(line) {
                if let Some(why) = miss_refusal(mshr, ctrl, line) {
                    *stuck |= why == Refusal::Mshr;
                    return MemIssue::Retry;
                }
            }
            let acc = cache.access(pa, is_write);
            for wb in &acc.writebacks {
                let id = *next_req_id;
                *next_req_id += 1;
                ctrl.enqueue(MemRequest::writeback(id, i, *wb, dram_now));
            }
            match acc.level {
                AccessLevel::L1Hit | AccessLevel::L2Hit => MemIssue::Done { latency: acc.latency },
                AccessLevel::MemoryMiss => {
                    if mshr.miss(line, (!is_write).then_some(load_id)) {
                        let id = *next_req_id;
                        *next_req_id += 1;
                        ctrl.enqueue(MemRequest::demand_read(id, i, line, dram_now));
                    }
                    MemIssue::Pending
                }
            }
        };
        core.tick(cycle, &mut mem);
        self.clocks[i].synced = cycle + 1;
        let retired = core.retired();
        if was_behind && retired >= warm {
            self.behind -= 1;
        }
        if self.finish_cycle[i].is_none()
            && retired - self.base_retired[i] >= self.cfg.target_instructions
        {
            self.finish_cycle[i] = Some(cycle + 1);
            self.unfinished -= 1;
        }
        if time_skip {
            self.classify(i);
        }
    }

    /// Put core `i`, current as of `synced`, on the wake calendar. The
    /// verdict rests on core-private state only, so it holds until
    /// something addressed to this core replaces it: a fill classifies
    /// again, an epoch wakes everyone.
    fn classify(&mut self, i: usize) {
        let core = &mut self.cores[i];
        let clock = &mut self.clocks[i];
        let now = clock.synced;
        match core.idle_state() {
            IdleState::Blocked { timer, mem_poll } => {
                // Window full, or a poll memoised stuck: nothing happens
                // before the earliest timer. Any other poll is refused (if
                // at all) by the shared queues: stay awake, and let
                // `maybe_skip` prove the refusal window by window.
                let private = mem_poll.is_none() || self.poll_stuck[i];
                clock.wake = if private { timer.unwrap_or(u64::MAX) } else { now };
                clock.forward = false;
            }
            IdleState::Active => {
                // Compute phase: `Core::forward` advances the window in
                // closed form, firing the core's own timers internally —
                // only its next possible memory dispatch ends the nap.
                let mut wake = now + core.compute_horizon();
                // Forwarded ticks retire instructions, but the run loop's
                // thresholds are observed on real ticks only: wake before
                // this core could cross either.
                let retired = core.retired();
                let width = core.max_retire_per_cycle();
                let fence = |threshold: u64| {
                    now + threshold.saturating_sub(retired).saturating_sub(1) / width
                };
                if retired < self.cfg.warmup_instructions {
                    wake = wake.min(fence(self.cfg.warmup_instructions));
                }
                if self.finish_cycle[i].is_none() {
                    wake = wake.min(fence(self.base_retired[i] + self.cfg.target_instructions));
                }
                clock.wake = wake;
                clock.forward = true;
            }
        }
    }

    /// Forget every per-core verdict: each core re-evaluates its poll,
    /// ticks at the current cycle and is classified afresh.
    fn wake_all(&mut self) {
        self.poll_stuck.fill(false);
        for clock in &mut self.clocks {
            clock.wake = clock.wake.min(self.cycle);
        }
    }

    fn feed_instructions(&mut self) {
        for i in 0..self.cores.len() {
            self.clocks[i].sync(&mut self.cores[i], self.cycle);
            let retired = self.cores[i].retired();
            let delta = retired - self.last_fed_instr[i];
            self.last_fed_instr[i] = retired;
            self.ctrl.prof_mut().add_instructions(i, delta);
        }
    }

    fn repartition(&mut self) {
        self.feed_instructions();
        // Refilled budget / remapped pages can unstick any poll.
        self.wake_all();
        self.osmem.refill_migration_budget(self.cfg.migration_budget_pages);
        let epoch = self.stats.repartitions;
        let snap = self.ctrl.prof_mut().take_epoch();
        let profiles: Vec<ThreadMemProfile> = snap.iter().map(mem_profile).collect();
        if self.rec.is_enabled() {
            self.rec.emit(EventKind::EpochStart { epoch });
            for (thread, &ThreadMemProfile { mpki, rbl, blp, .. }) in profiles.iter().enumerate() {
                self.rec.emit(EventKind::ThreadProfile { thread, mpki, rbl, blp });
            }
            let epoch_dram_cycles = self.cfg.epoch_cpu_cycles / self.cfg.cpu_per_dram;
            let busy = snap.iter().map(|p| p.bus_cycles).sum();
            self.rec.sample(EpochSample {
                epoch,
                cycle: self.cycle,
                queue_depth: self.ctrl.in_flight() as u64,
                row_hit_rate: row_hit_rate(&snap),
                bus_utilisation: self.bus_utilisation(busy, epoch_dram_cycles),
                threads: snap
                    .iter()
                    .zip(&profiles)
                    .map(|(p, &ThreadMemProfile { mpki, rbl, blp, reads, .. })| ThreadSample {
                        mpki,
                        rbl,
                        blp,
                        reads,
                        avg_read_latency: p.avg_read_latency(),
                    })
                    .collect(),
            });
        }
        let plan = self.policy.partition(&profiles, &self.topo, self.last_plan.as_deref());
        if let Some(rack) = &mut self.rack {
            muted(&self.host_prof, || {
                rack.observe(epoch, &profiles, &snap, &plan, &self.topo, &self.osmem);
            });
        }
        let changed_threads: Vec<usize> = (0..plan.len())
            .filter(|&t| self.last_plan.as_ref().is_none_or(|lp| lp[t] != plan[t]))
            .collect();
        if self.rec.is_enabled() {
            self.rec.emit(EventKind::RepartitionPlan {
                epoch,
                plan: plan.iter().map(ToString::to_string).collect(),
                changed_threads: changed_threads.clone(),
            });
        }
        for t in changed_threads {
            let mut jobs = self.osmem.set_partition(t, plan[t]);
            // A grown partition needs its pages spread to be useful.
            jobs.extend(self.osmem.rebalance_thread(t));
            self.migration_backlog.charge(jobs);
        }
        self.last_plan = Some(plan);
        self.stats.repartitions += 1;
    }

    /// Fraction of `dram_cycles` the data buses carried data, where `busy`
    /// sums every channel's busy cycles: the one definition behind the
    /// per-epoch and the whole-run figure.
    fn bus_utilisation(&self, busy: u64, dram_cycles: u64) -> f64 {
        busy as f64 / (dram_cycles.max(1) * u64::from(self.cfg.dram.channels)) as f64
    }

    /// Hand this run's host work counters — totals over warmup and
    /// measurement, zeros included — to the profiler, once per run.
    fn publish_counters(&self) {
        let (s, c) = (&self.stats, self.ctrl.stats());
        let counters = [
            ("dram/timing_queries", self.ctrl.dram().timing_queries()),
            ("memctrl/blocked_ticks", c.blocked_ticks),
            ("memctrl/commands_issued", c.commands_issued),
            ("memctrl/idle_ticks", c.idle_ticks),
            ("memctrl/requests_enqueued", c.enq_reads + c.enq_writes),
            ("sim/core_ticks", s.core_ticks),
            ("sim/core_wakes", s.core_wakes),
            ("sim/cycles_skipped", s.cycles_skipped),
            ("sim/cycles_stepped", s.cycles_stepped),
        ];
        let counters = counters.map(|(name, v)| (name.to_string(), v)).to_vec();
        self.host_prof.merge(&Profile { spans: Vec::new(), counters });
    }

    fn collect(&mut self) -> RunResult {
        self.feed_instructions();
        if let Some(rep) = self.ctrl.latency_report() {
            self.rec.set_latency(rep.clone());
        }
        if let Some(report) = self.rack.as_ref().and_then(ShadowRack::report) {
            self.rec.set_audit(report);
        }
        self.publish_counters();
        let target = self.cfg.target_instructions;
        // Each thread's measured window of the controller's profile.
        let windows: Vec<ThreadProf> = (0..self.cores.len())
            .map(|i| self.ctrl.prof().cumulative(i).delta(&self.prof_base[i]))
            .collect();
        let threads: Vec<ThreadResult> = windows
            .iter()
            .enumerate()
            .map(|(i, prof)| {
                let cycles = self.finish_cycle[i].unwrap_or(self.cycle) - self.measure_start;
                let retired = (self.cores[i].retired() - self.base_retired[i]).min(target);
                let ThreadMemProfile { mpki, rbl, blp, reads, .. } = mem_profile(prof);
                ThreadResult {
                    ipc: retired as f64 / cycles.max(1) as f64,
                    cycles_to_target: cycles,
                    reached_target: self.finish_cycle[i].is_some(),
                    mpki,
                    rbl,
                    blp,
                    avg_read_latency: prof.avg_read_latency(),
                    reads,
                }
            })
            .collect();
        let dram_stats = match &self.dram_base {
            Some(base) => self.ctrl.dram().stats().delta(base),
            None => self.ctrl.dram().stats().clone(),
        };
        let elapsed_dram = (self.cycle - self.measure_start) / self.cfg.cpu_per_dram;
        RunResult {
            total_cycles: self.cycle - self.measure_start,
            reached_target: self.finish_cycle.iter().all(Option::is_some),
            row_hit_rate: row_hit_rate(&windows),
            dram: crate::metrics::DramActivity {
                activates: dram_stats.activates,
                reads: dram_stats.reads,
                writes: dram_stats.writes,
                refreshes: dram_stats.refreshes,
                elapsed: elapsed_dram,
            },
            bus_utilisation: self.bus_utilisation(dram_stats.data_bus_busy, elapsed_dram),
            accesses_per_activate: dram_stats.accesses_per_activate(),
            bank_imbalance: dram_stats.bank_imbalance(),
            migrated_pages: self.osmem.stats().migrated_pages - self.os_base.migrated_pages,
            migration_requests: self.stats.migration_requests - self.sys_base.migration_requests,
            repartitions: self.stats.repartitions - self.sys_base.repartitions,
            fallback_allocations: self.osmem.stats().fallback_allocations
                - self.os_base.fallback_allocations,
            threads,
        }
    }
}

/// Page copies waiting to be charged to DRAM as line-granularity traffic:
/// per page, one (old-frame read, new-frame write) pair per line. Holds
/// whole jobs plus a cursor into the front one, so a repartition that
/// moves thousands of pages queues one entry per page, not one per line.
#[derive(Debug)]
struct MigrationBacklog {
    jobs: VecDeque<MigrationJob>,
    /// [`MigrationCost::Free`] drops every job: the copy costs nothing.
    charged: bool,
    /// Requests of the front job already handed out.
    cursor: u64,
    /// Lines per page (read/write pairs per job), and their size.
    lines: u64,
    line_bytes: u64,
}

impl MigrationBacklog {
    fn new(cost: MigrationCost, page_bytes: u64, line_bytes: u64) -> Self {
        MigrationBacklog {
            jobs: VecDeque::new(),
            charged: cost == MigrationCost::Charged,
            cursor: 0,
            lines: page_bytes / line_bytes,
            line_bytes,
        }
    }

    /// The one migration-cost decision: queue the copy traffic of `jobs`,
    /// or drop it when migration is free.
    #[inline]
    fn charge(&mut self, jobs: impl IntoIterator<Item = MigrationJob>) {
        if self.charged {
            self.jobs.extend(jobs);
        }
    }

    fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    fn clear(&mut self) {
        self.jobs.clear();
        self.cursor = 0;
    }

    /// The next copy request: (thread, addr, is_write).
    fn front(&self) -> Option<(usize, u64, bool)> {
        let job = self.jobs.front()?;
        let is_write = self.cursor % 2 == 1;
        let frame = if is_write { job.new_frame } else { job.old_frame };
        Some((job.thread, (frame * self.lines + self.cursor / 2) * self.line_bytes, is_write))
    }

    fn pop_front(&mut self) {
        self.cursor += 1;
        if self.cursor == 2 * self.lines {
            self.jobs.pop_front();
            self.cursor = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SchedulerKind;
    use dbp_core::policy::{DbpConfig, PolicyKind};
    use dbp_cpu::TraceOp;
    use dbp_workloads::{profiles, SyntheticTrace};

    fn stream_trace(stride_pages: u64) -> Box<dyn TraceSource> {
        let mut vpn = 0u64;
        let mut line = 0u64;
        Box::new(move || {
            line += 1;
            if line == 64 {
                line = 0;
                vpn += stride_pages;
            }
            TraceOp { gap: 20, addr: (vpn << 12) | (line << 6), is_write: false }
        })
    }

    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::fast_test();
        cfg.target_instructions = 30_000;
        cfg
    }

    #[test]
    fn single_core_reaches_target() {
        let mut sys = System::new(small_cfg(), vec![stream_trace(1)]);
        let r = sys.run();
        assert!(r.reached_target);
        assert!(r.threads[0].ipc > 0.0);
        assert!(r.threads[0].reads > 0, "stream must miss to DRAM");
    }

    #[test]
    #[should_panic(expected = "DBP estimator alpha must be finite and positive")]
    fn a_bad_policy_parameter_is_a_validate_error_not_a_constructor_assert() {
        let estimator = dbp_core::EstimatorConfig { alpha: 0.0 };
        let policy = PolicyKind::Dbp(DbpConfig { estimator, ..Default::default() });
        let cfg = SimConfig { policy, ..small_cfg() };
        let _ = System::with_instrumentation(
            cfg,
            vec![stream_trace(1)],
            Recorder::disabled(),
            Prof::disabled(),
        );
    }

    #[test]
    fn ipc_is_deterministic() {
        let run = || {
            let t = SyntheticTrace::new(profiles::by_name("mcf"), 7);
            let mut sys = System::new(small_cfg(), vec![Box::new(t)]);
            sys.run().threads[0].ipc
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn two_streams_interfere() {
        let solo = {
            let mut sys = System::new(small_cfg(), vec![stream_trace(1)]);
            sys.run().threads[0].ipc
        };
        let duo = {
            let mut sys = System::new(small_cfg(), vec![stream_trace(1), stream_trace(1)]);
            sys.run().threads[0].ipc
        };
        assert!(duo <= solo * 1.01, "co-runner cannot speed a thread up");
    }

    #[test]
    fn partitioned_threads_use_disjoint_banks() {
        let mut cfg = small_cfg();
        cfg.policy = PolicyKind::Equal;
        let mut sys = System::new(cfg, vec![stream_trace(1), stream_trace(1)]);
        sys.run();
        let plan = sys.current_plan().unwrap();
        assert!(plan[0].is_disjoint(&plan[1]));
        // No fallback allocations: partitions were large enough.
        assert_eq!(sys.osmem().stats().fallback_allocations, 0);
    }

    #[test]
    fn dbp_repartitions_during_run() {
        let mut cfg = small_cfg();
        cfg.policy = PolicyKind::Dbp(Default::default());
        cfg.epoch_cpu_cycles = 20_000;
        cfg.target_instructions = 100_000;
        cfg.warmup_instructions = 0; // count the settling migrations too
        let t0 = SyntheticTrace::new(profiles::by_name("mcf"), 1);
        let t1 = SyntheticTrace::new(profiles::by_name("libquantum"), 2);
        let mut sys = System::new(cfg, vec![Box::new(t0), Box::new(t1)]);
        let r = sys.run();
        assert!(r.repartitions >= 2, "epochs must fire");
        let plan = sys.current_plan().unwrap();
        assert!(plan[0].is_disjoint(&plan[1]), "both intensive: disjoint banks");
        assert!(r.migrated_pages > 0, "repartitioning must move pages");
    }

    #[test]
    fn tcm_scheduler_runs_end_to_end() {
        let mut cfg = small_cfg();
        cfg.scheduler = SchedulerKind::Tcm(Default::default());
        let t0 = SyntheticTrace::new(profiles::by_name("mcf"), 1);
        let t1 = SyntheticTrace::new(profiles::by_name("povray"), 2);
        let mut sys = System::new(cfg, vec![Box::new(t0), Box::new(t1)]);
        let r = sys.run();
        assert!(r.reached_target);
    }

    /// A charged page copy is one (old-frame read, new-frame write) pair
    /// per line, in line order; a free backlog drops the job.
    #[test]
    fn migration_backlog_copies_every_line_once() {
        let job = MigrationJob { thread: 1, vpn: 0, old_frame: 3, new_frame: 7 };
        let mut free = MigrationBacklog::new(MigrationCost::Free, 4096, 64);
        free.charge([job]);
        assert!(free.is_empty());
        let mut charged = MigrationBacklog::new(MigrationCost::Charged, 4096, 64);
        charged.charge(Some(job));
        let mut requests = Vec::new();
        while let Some(req) = charged.front() {
            requests.push(req);
            charged.pop_front();
        }
        assert_eq!(requests.len(), 2 * 64);
        for (line, pair) in requests.chunks(2).enumerate() {
            let line = line as u64 * 64;
            assert_eq!(pair, [(1, 3 * 4096 + line, false), (1, 7 * 4096 + line, true)]);
        }
    }

    #[test]
    fn migration_cost_free_moves_pages_without_traffic() {
        let mut cfg = small_cfg();
        cfg.policy = PolicyKind::Dbp(Default::default());
        cfg.migration_cost = MigrationCost::Free;
        cfg.epoch_cpu_cycles = 20_000;
        let t0 = SyntheticTrace::new(profiles::by_name("mcf"), 1);
        let t1 = SyntheticTrace::new(profiles::by_name("lbm"), 2);
        let mut sys = System::new(cfg, vec![Box::new(t0), Box::new(t1)]);
        let r = sys.run();
        assert_eq!(r.migration_requests, 0);
    }

    /// Bus utilisation is a fraction of every channel's bus time, per
    /// epoch and over the run: a bus-hungry mix on four channels keeps
    /// both in [0, 1], where one channel's cycles as the divisor read
    /// 1.7–2.1.
    #[test]
    fn bus_utilisation_is_a_fraction_on_four_channels() {
        let mut cfg = small_cfg();
        cfg.dram.channels = 4;
        cfg.epoch_cpu_cycles = 10_000;
        cfg.instr_feed_interval = 5_000;
        let traces = ["mcf", "lbm", "libquantum", "milc"]
            .into_iter()
            .zip(1..)
            .map(|(name, seed)| {
                Box::new(SyntheticTrace::new(profiles::by_name(name), seed)) as Box<dyn TraceSource>
            })
            .collect();
        let rec = Recorder::new(dbp_obs::RecorderConfig::default());
        let run = System::with_recorder(cfg, traces, rec.clone()).run();
        let series = rec.snapshot().series;
        assert!(!series.is_empty(), "the run must close epochs");
        let all: Vec<f64> =
            series.iter().map(|e| e.bus_utilisation).chain([run.bus_utilisation]).collect();
        assert!(all.iter().all(|u| (0.0..=1.0).contains(u)), "{all:?}");
        assert!(run.bus_utilisation > 0.0, "a memory-bound mix moves data");
    }

    #[test]
    fn row_hit_rate_reported() {
        let mut sys = System::new(small_cfg(), vec![stream_trace(1)]);
        let r = sys.run();
        assert!(r.row_hit_rate > 0.5, "a pure stream is row-friendly: {}", r.row_hit_rate);
    }

    #[test]
    fn time_skipping_engages_and_matches_stepped_run() {
        let mut cfg = small_cfg();
        cfg.policy = PolicyKind::Dbp(Default::default());
        cfg.epoch_cpu_cycles = 10_000;
        cfg.instr_feed_interval = 5_000;
        cfg.target_instructions = 40_000;
        // No profiler attached: the work counters are kept regardless.
        let arm = |time_skip: bool| {
            let t0 = SyntheticTrace::new(profiles::by_name("mcf"), 11);
            let t1 = SyntheticTrace::new(profiles::by_name("libquantum"), 12);
            let mut sys = System::new(
                SimConfig { time_skip, ..cfg.clone() },
                vec![Box::new(t0), Box::new(t1)],
            );
            let r = sys.run();
            let s = *sys.stats();
            assert_eq!(
                s.cycles_stepped + s.cycles_skipped,
                sys.cycle(),
                "every simulated cycle is counted exactly once"
            );
            let c = *sys.ctrl().stats();
            (r, s.cycles_skipped, sys.cycle(), (c.commands_issued, c.enq_reads, c.enq_writes))
        };
        let (skipped_run, skipped_cycles, skipped_end, skipped_work) = arm(true);
        let (stepped_run, stepped_skipped, stepped_end, stepped_work) = arm(false);
        assert_eq!(stepped_skipped, 0, "`time_skip: false` pins the stepped core: no jumps");
        assert!(skipped_cycles > 0, "memory-bound mix must expose idle windows");
        assert_eq!(skipped_run, stepped_run);
        assert_eq!(skipped_end, stepped_end);
        assert_eq!(skipped_work, stepped_work, "commands and enqueues do not depend on skipping");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::config::SchedulerKind;
    use dbp_core::policy::PolicyKind;
    use dbp_obs::RecorderConfig;
    use dbp_util::prop::{check, range, vec_of, Config};
    use dbp_util::{prop_assert, prop_assert_eq};
    use dbp_workloads::{profiles, SyntheticTrace};

    /// The seven schedulers, by generator index.
    fn scheduler(s: usize) -> SchedulerKind {
        SchedulerKind::named()[s].1
    }

    /// One arm's observable outcome in an equivalence test: every reported
    /// metric, final simulated time, per-rank refresh schedules, every DRAM
    /// counter (per-bank ones included), and each core's own counters —
    /// `RunResult` carries no stall anatomy, so a lazy catch-up that
    /// drifted `cycles` or a stall counter would pass every other comparison.
    fn outcome(sys: &mut System) -> (RunResult, u64, Vec<u64>, DramStats, Vec<CoreStats>) {
        let run = sys.run();
        let dram = sys.ctrl().dram();
        let cfg = dram.cfg();
        let deadlines = (0..cfg.channels)
            .flat_map(|ch| (0..cfg.ranks_per_channel).map(move |rk| (ch, rk)))
            .map(|(ch, rk)| dram.refresh_deadline(ch, rk))
            .collect();
        let commands = dram.stats().clone();
        let cores = (0..sys.num_cores()).map(|i| *sys.core_stats(i)).collect();
        (run, sys.cycle(), deadlines, commands, cores)
    }

    /// Skip-on and stepped runs of random mixes must agree on every
    /// reported metric, on final simulated time, on per-rank refresh
    /// schedules and on every core's counters, under every scheduler and
    /// partition policy, from 2 to 8 cores on 1 or 2 channels.
    #[test]
    fn time_skipping_is_bit_exact_end_to_end() {
        let names = ["mcf", "libquantum", "lbm", "povray", "gcc", "omnetpp"];
        let gen = (
            range(0usize..7),                              // scheduler
            vec_of(range(0usize..names.len()), 2usize..9), // one workload per core
            range(0u64..1000),                             // seed base
            range(0usize..4),                              // policy: none / dbp / equal / mcp
            range(1u32..3),                                // channels
        );
        check(Config::cases(8), &gen, |(s, workloads, seed, pol, channels)| {
            let mut cfg = SimConfig::fast_test();
            cfg.dram.channels = channels;
            cfg.epoch_cpu_cycles = 10_000;
            cfg.instr_feed_interval = 5_000;
            cfg.target_instructions = 20_000;
            cfg.scheduler = scheduler(s);
            cfg.policy = match pol {
                0 => PolicyKind::Unpartitioned,
                1 => PolicyKind::Dbp(Default::default()),
                2 => PolicyKind::Equal,
                _ => PolicyKind::Mcp(Default::default()),
            };
            let arm = |skip: bool| {
                let traces = workloads
                    .iter()
                    .zip(seed + 1..)
                    .map(|(&w, seed)| {
                        Box::new(SyntheticTrace::new(profiles::by_name(names[w]), seed))
                            as Box<dyn TraceSource>
                    })
                    .collect();
                let mut sys = System::new(cfg.clone(), traces);
                sys.set_time_skip(skip);
                outcome(&mut sys)
            };
            let a = arm(true);
            let b = arm(false);
            prop_assert_eq!(&a.0, &b.0);
            prop_assert_eq!(a.1, b.1);
            prop_assert_eq!(&a.2, &b.2);
            prop_assert_eq!(&a.3, &b.3);
            prop_assert_eq!(&a.4, &b.4);
            prop_assert!(a.3.refreshes > 0, "run must span at least one refresh");
            Ok(())
        });
    }

    /// Skipping used to switch itself off above 64 cores (the forward
    /// plan was a `u64` bitmask). 66 cores on 2 channels must skip, and
    /// agree with the stepped run. `fast_test` shape at a quarter of its
    /// length: the stepped arm ticks 66 cores every cycle, in debug.
    #[test]
    fn time_skipping_has_no_core_count_cap() {
        let arm = |time_skip: bool| {
            let traces = (0..66u64)
                .map(|i| {
                    // Mostly calm: every core polls the shared queues in
                    // index order, so a saturating mix starves the last
                    // cores for millions of cycles.
                    let name = match i % 22 {
                        0 => "mcf",
                        11 => "libquantum",
                        _ => "povray",
                    };
                    let profile = profiles::by_name(name);
                    Box::new(SyntheticTrace::new(profile, i)) as Box<dyn TraceSource>
                })
                .collect();
            let mut cfg = SimConfig { time_skip, ..SimConfig::fast_test() };
            cfg.dram.rows_per_bank = 8192; // 66 footprints outgrow the test-sized DRAM
            cfg.warmup_instructions = 5_000;
            cfg.target_instructions = 20_000;
            cfg.epoch_cpu_cycles = 10_000;
            cfg.instr_feed_interval = 5_000;
            let mut sys = System::new(cfg, traces);
            (outcome(&mut sys), sys.stats().cycles_skipped)
        };
        let (skipped, skipped_cycles) = arm(true);
        let (stepped, _) = arm(false);
        assert!(skipped_cycles > 0, "66 cores must still expose idle windows");
        assert_eq!(skipped, stepped);
    }

    /// Attaching the decision audit layer (shadow policies + estimator
    /// replica + convergence accounting) must leave the simulation
    /// byte-identical to an unobserved run — every metric, final
    /// simulated time, refresh schedules, DRAM counters — under every
    /// scheduler and both partition policies, and the audited arm must
    /// actually produce a populated report.
    #[test]
    fn audit_layer_is_observation_only_end_to_end() {
        let names = ["mcf", "libquantum", "lbm", "povray", "gcc", "omnetpp"];
        let gen = (
            range(0usize..7),           // scheduler
            range(0usize..names.len()), // workload 0
            range(0usize..names.len()), // workload 1
            range(0u64..1000),          // seed base
            range(0usize..2),           // policy: none / dbp
        );
        check(Config::cases(6), &gen, |(s, w0, w1, seed, pol)| {
            let mut cfg = SimConfig::fast_test();
            cfg.epoch_cpu_cycles = 10_000;
            cfg.instr_feed_interval = 5_000;
            cfg.target_instructions = 20_000;
            cfg.scheduler = scheduler(s);
            if pol == 1 {
                cfg.policy = PolicyKind::Dbp(Default::default());
            }
            let arm = |audit: bool| {
                let t0 = SyntheticTrace::new(profiles::by_name(names[w0]), seed + 1);
                let t1 = SyntheticTrace::new(profiles::by_name(names[w1]), seed + 2);
                let rec = if audit {
                    Recorder::new(RecorderConfig { audit: true, ..Default::default() })
                } else {
                    Recorder::disabled()
                };
                let mut sys = System::with_recorder(
                    cfg.clone(),
                    vec![Box::new(t0), Box::new(t1)],
                    rec.clone(),
                );
                (outcome(&mut sys), rec.snapshot().audit)
            };
            let a = arm(true);
            let b = arm(false);
            prop_assert_eq!(&a.0, &b.0);
            let report = a.1.expect("audited arm publishes a report");
            prop_assert!(b.1.is_none(), "unobserved arm must not audit");
            prop_assert_eq!(report.threads, 2);
            prop_assert_eq!(report.shadows.len(), 3);
            prop_assert!(
                report.convergence.decisions > 0,
                "run must span at least one repartition decision"
            );
            Ok(())
        });
    }

    /// Riders never emit: a recorded run keeps the same events and epoch
    /// series with the decision audit riding along as without it, under
    /// live DBP and live MCP on two channels. An unmuted rack would add
    /// the DBP(alpha×2) shadow's `bank_demand` and the MCP shadow's
    /// `channel_group` events.
    #[test]
    fn audit_riders_never_emit() {
        for policy in [PolicyKind::Dbp(Default::default()), PolicyKind::Mcp(Default::default())] {
            let mut cfg = SimConfig::fast_test();
            cfg.dram.channels = 2;
            cfg.epoch_cpu_cycles = 10_000;
            cfg.instr_feed_interval = 5_000;
            cfg.target_instructions = 20_000;
            cfg.policy = policy;
            let arm = |audit: bool| {
                let traces = ["mcf", "libquantum", "povray"]
                    .into_iter()
                    .zip(1..)
                    .map(|(name, seed)| {
                        Box::new(SyntheticTrace::new(profiles::by_name(name), seed))
                            as Box<dyn TraceSource>
                    })
                    .collect();
                let rec = Recorder::new(RecorderConfig { audit, ..Default::default() });
                System::with_recorder(cfg.clone(), traces, rec.clone()).run();
                rec.snapshot()
            };
            let (audited, plain) = (arm(true), arm(false));
            let report = audited.audit.expect("audited arm publishes a report");
            assert!(report.convergence.decisions > 0, "{policy:?}: no decision audited");
            let live_kind = match policy {
                PolicyKind::Dbp(_) => "bank_demand",
                _ => "channel_group",
            };
            assert!(plain.events.iter().any(|e| e.kind.name() == live_kind), "{policy:?}");
            assert_eq!(audited.events, plain.events, "{policy:?}: a rider emitted");
            assert_eq!(audited.series, plain.series, "{policy:?}");
        }
    }
}
