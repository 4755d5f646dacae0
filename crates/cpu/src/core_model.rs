//! The abstract out-of-order core.

use std::collections::VecDeque;

use crate::stats::CoreStats;
use crate::trace::{TraceOp, TraceSource};

/// Core parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Reorder-buffer (instruction window) capacity.
    pub rob: u64,
    /// Dispatch/retire width, instructions per cycle.
    pub width: u32,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig { rob: 128, width: 4 }
    }
}

impl CoreConfig {
    /// Check that the window and the pipeline width are usable.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        if self.rob == 0 {
            return Err("rob must be positive".into());
        }
        if self.width == 0 {
            return Err("width must be positive".into());
        }
        Ok(())
    }
}

/// How the memory system answered a just-dispatched access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemIssue {
    /// Satisfied after `latency` CPU cycles (cache hit, or a posted store).
    Done { latency: u32 },
    /// A DRAM round-trip is in flight; [`Core::complete`] will be called
    /// with the access's load id.
    Pending,
    /// Resources exhausted (MSHRs, controller queue); retry next cycle.
    Retry,
}

/// What the next [`Core::tick`] would do, assuming no completion arrives
/// and no timer fires first: either it can make progress on its own
/// (`Active`), or it is provably stuck until an external event
/// (`Blocked`), reported with the events that could unstick it. Drives
/// the time-skipping core: a `Blocked` core's ticks are no-ops except
/// for stall counters, which [`Core::skip_cycles`] advances in bulk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdleState {
    /// The next tick makes progress without external input.
    Active,
    /// Nothing happens until a timer fires, a DRAM completion arrives,
    /// or a repeated memory poll stops returning [`MemIssue::Retry`].
    Blocked {
        /// Lower bound on the earliest `done_at` timer among in-flight
        /// loads, if any: the core must tick at (or before) that cycle.
        /// May be stale-early after a DRAM completion cleared the timer
        /// it tracked — waking early is a no-op tick, never an error.
        timer: Option<u64>,
        /// The memory poll `(vaddr, is_write)` the next tick would
        /// repeat. The caller must prove it keeps returning `Retry`
        /// throughout a skipped window. `None` when the window is full
        /// (the tick polls nothing).
        mem_poll: Option<(u64, bool)>,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Load {
    seq: u64,
    id: u64,
    done_at: Option<u64>,
    done: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingOp {
    seq: u64,
    addr: u64,
    is_write: bool,
}

/// The `mem` of a forwarded tick: the caller's horizon keeps every such
/// tick short of the pending memory op.
fn no_mem(_: u64, _: bool, _: u64) -> MemIssue {
    unreachable!("forward() tick reached a memory dispatch")
}

/// The trace source of a debug-reference fork: a forward window never
/// fetches (its op is already in the lookahead slot).
#[cfg(any(test, debug_assertions))]
fn no_fetch() -> TraceOp {
    unreachable!("forward() tick fetched a trace op")
}

/// One core: consumes a trace, exposes per-cycle [`Core::tick`].
///
/// Sequence numbers count instructions. `dispatched - retired` is the
/// window occupancy; loads sit in `inflight` until their data arrives and
/// block retirement while at the window head.
pub struct Core {
    cfg: CoreConfig,
    source: Box<dyn TraceSource>,
    /// Seq of the next instruction to dispatch.
    dispatched: u64,
    /// Seq of the next instruction to retire.
    retired: u64,
    /// Stream position: seq the next fetched trace op starts from.
    stream_pos: u64,
    pending: Option<PendingOp>,
    inflight: VecDeque<Load>,
    /// Earliest armed `done_at` among `inflight` (`u64::MAX` when none):
    /// lets `tick` skip the timer sweep until one can actually fire. May
    /// go stale-early when `complete` clears a timer — the sweep then
    /// simply finds nothing and re-derives the true minimum.
    next_timer: u64,
    next_load_id: u64,
    stats: CoreStats,
}

impl std::fmt::Debug for Core {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Core")
            .field("cfg", &self.cfg)
            .field("dispatched", &self.dispatched)
            .field("retired", &self.retired)
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl Core {
    /// Build a core reading from `source`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CoreConfig::validate`].
    pub fn new(cfg: CoreConfig, source: Box<dyn TraceSource>) -> Self {
        cfg.validate().expect("invalid CoreConfig");
        Core {
            cfg,
            source,
            dispatched: 0,
            retired: 0,
            stream_pos: 0,
            pending: None,
            inflight: VecDeque::new(),
            next_timer: u64::MAX,
            next_load_id: 0,
            stats: CoreStats::default(),
        }
    }

    /// Instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Upper bound on instructions retired in one tick (the pipeline
    /// width). Time-skipping uses it to fence a forwarded compute window
    /// off any retired-instruction threshold observed by the run loop.
    pub fn max_retire_per_cycle(&self) -> u64 {
        u64::from(self.cfg.width)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Outstanding (not yet completed) loads — the core's instantaneous
    /// memory-level parallelism.
    pub fn outstanding_loads(&self) -> usize {
        self.inflight.iter().filter(|l| !l.done).count()
    }

    /// Mark the load identified by `load_id` complete (DRAM data arrived).
    pub fn complete(&mut self, load_id: u64) {
        for l in &mut self.inflight {
            if l.id == load_id {
                l.done = true;
                l.done_at = None;
                return;
            }
        }
        debug_assert!(false, "completion for unknown load {load_id}");
    }

    /// Classify what the next tick would do (pure; mirrors the control
    /// flow of [`Core::tick`] without running it).
    pub fn idle_state(&self) -> IdleState {
        if self.dispatched > self.retired {
            match self.inflight.front() {
                Some(front) if front.seq == self.retired => {
                    if front.done {
                        // Width-limited leftover: it retires next tick.
                        return IdleState::Active;
                    }
                    // Head-of-window load outstanding: retire is blocked.
                }
                // A compute gap (or no load at all) retires next tick.
                _ => return IdleState::Active,
            }
        }
        // `next_timer` is a maintained lower bound on the sweep's answer
        // (exact unless a completion cleared the tracked timer), so the
        // O(inflight) sweep is avoided on this per-skip-attempt path.
        let timer = (self.next_timer != u64::MAX).then_some(self.next_timer);
        if self.dispatched - self.retired >= self.cfg.rob {
            return IdleState::Blocked { timer, mem_poll: None };
        }
        match self.pending {
            // Next tick fetches from the trace (mutates the source).
            None => IdleState::Active,
            // Compute instructions before the memory op dispatch freely.
            Some(p) if self.dispatched < p.seq => IdleState::Active,
            Some(p) => IdleState::Blocked { timer, mem_poll: Some((p.addr, p.is_write)) },
        }
    }

    /// Bulk-equivalent of `k` consecutive ticks taken in a
    /// [`IdleState::Blocked`] state whose poll (if any) kept returning
    /// [`MemIssue::Retry`], with no timer firing and no completion
    /// arriving inside the window: exactly the stall counters `k`
    /// stepped ticks would have advanced, and nothing else.
    pub fn skip_cycles(&mut self, k: u64) {
        if k == 0 {
            return;
        }
        debug_assert!(matches!(self.idle_state(), IdleState::Blocked { .. }));
        self.stats.cycles += k;
        if self.dispatched > self.retired {
            // retire() finds the head-of-window load outstanding.
            self.stats.retire_stall_cycles += k;
        }
        if self.dispatched - self.retired >= self.cfg.rob {
            self.stats.window_full_cycles += k;
        } else {
            self.stats.mem_retry_cycles += k;
        }
    }

    /// Number of upcoming ticks guaranteed not to reach a memory
    /// dispatch, assuming no external completion arrives in between (the
    /// caller must ensure none does). Zero means the very next tick might
    /// call `mem`.
    ///
    /// Fetches the next trace op into the one-op lookahead slot when the
    /// window has room, as `dispatch` would: the op is consumed in the
    /// same order either way, so core behaviour is unchanged — only the
    /// cycle at which the fetch happens moves, and that cycle is not
    /// observable outside the core.
    pub fn compute_horizon(&mut self) -> u64 {
        if self.pending.is_none() && self.dispatched - self.retired >= self.cfg.rob {
            return 0;
        }
        // Dispatch advances at most `width` per tick, so the memory op at
        // `p.seq` stays out of reach for this many ticks even if every one
        // of them dispatches at full width.
        let p = self.fetch();
        (p.seq - self.dispatched) / u64::from(self.cfg.width)
    }

    /// The memory op in the one-op lookahead slot, drawn from the trace
    /// when the slot is empty.
    fn fetch(&mut self) -> PendingOp {
        *self.pending.get_or_insert_with(|| {
            let TraceOp { gap, addr, is_write } = self.source.next_op();
            let seq = self.stream_pos + u64::from(gap);
            self.stream_pos = seq + 1;
            PendingOp { seq, addr, is_write }
        })
    }

    /// Advance `ticks` cycles starting at cycle `start`, none of which may
    /// reach a memory dispatch, leaving exactly the state that many
    /// ordinary ticks would. Callers bound `ticks` by
    /// [`Core::compute_horizon`]; a tick that would dispatch the pending
    /// memory op panics, because the caller broke that contract.
    ///
    /// Inside such a window nothing enters `inflight` and only the core's
    /// own timers complete loads, so the core is a small deterministic
    /// system: [`Core::bulk_ticks`] advances each run of identical ticks
    /// in one update, and only regime boundaries (a load at the window
    /// head, a timer sweep, a part-empty window) take an ordinary tick.
    /// Debug builds re-check every window against the stepped loop.
    pub fn forward(&mut self, start: u64, ticks: u64) {
        #[cfg(debug_assertions)]
        let reference = {
            // The stepped loop the closed form below replicates.
            let mut stepped = self.fork(Box::new(no_fetch));
            for j in 0..ticks {
                stepped.tick(start + j, &mut no_mem);
            }
            stepped
        };
        let end = start + ticks;
        let mut now = start;
        while now < end {
            let j = self.bulk_ticks(now, end - now);
            if j == 0 {
                self.tick(now, &mut no_mem);
            }
            now += j.max(1);
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            self.same_state(&reference),
            "closed-form forward diverged from stepped ticks: {self:?} vs {reference:?}"
        );
    }

    /// Bulk-advance as many of the next `left` memory-free ticks (the
    /// first at cycle `now`) as provably repeat one of two regimes, and
    /// return how many that was; zero means the next tick is a regime
    /// boundary and must run as an ordinary [`Core::tick`].
    ///
    /// - *Head load outstanding*: nothing retires until the earliest
    ///   timer can fire, so every tick charges a retire stall while
    ///   dispatch fills the remaining room at full width, then charges
    ///   a window-full stall from the first tick it cannot.
    /// - *Steady full width*: occupancy ≥ `width`, no timer due and no
    ///   in-flight load within `width` retire slots — each tick retires
    ///   and dispatches exactly `width`, touching no stall counter and
    ///   leaving occupancy (hence the regime) unchanged.
    fn bulk_ticks(&mut self, now: u64, left: u64) -> u64 {
        let w = u64::from(self.cfg.width);
        let occ = self.dispatched - self.retired;
        // Ticks before the timer sweep has anything to do.
        let quiet = left.min(self.next_timer.saturating_sub(now));
        let j = match self.inflight.front() {
            Some(front) if front.seq == self.retired => {
                if front.done || quiet == 0 {
                    return 0;
                }
                let room = self.cfg.rob - occ;
                self.dispatched += room.min(quiet.saturating_mul(w));
                self.stats.retire_stall_cycles += quiet;
                self.stats.window_full_cycles += quiet.saturating_sub(room / w);
                quiet
            }
            front => {
                if occ < w {
                    return 0;
                }
                let j = front.map_or(quiet, |f| quiet.min((f.seq - self.retired) / w));
                self.retired += j * w;
                self.dispatched += j * w;
                self.stats.retired = self.retired;
                j
            }
        };
        self.stats.cycles += j;
        j
    }

    /// A copy of this core reading from `source` instead (the trace
    /// source itself is not cloneable).
    #[cfg(any(test, debug_assertions))]
    fn fork(&self, source: Box<dyn TraceSource>) -> Core {
        Core {
            cfg: self.cfg,
            source,
            dispatched: self.dispatched,
            retired: self.retired,
            stream_pos: self.stream_pos,
            pending: self.pending,
            inflight: self.inflight.clone(),
            next_timer: self.next_timer,
            next_load_id: self.next_load_id,
            stats: self.stats,
        }
    }

    /// Whether every field but the trace source equals `other`'s.
    #[cfg(any(test, debug_assertions))]
    fn same_state(&self, other: &Core) -> bool {
        (self.dispatched, self.retired, self.stream_pos, self.pending, self.next_timer)
            == (other.dispatched, other.retired, other.stream_pos, other.pending, other.next_timer)
            && self.inflight == other.inflight
            && self.next_load_id == other.next_load_id
            && self.stats == other.stats
    }

    /// Advance one CPU cycle. `mem` is called for each dispatched memory
    /// access as `mem(vaddr, is_write, load_id)`.
    pub fn tick(&mut self, now: u64, mem: &mut dyn FnMut(u64, bool, u64) -> MemIssue) {
        self.stats.cycles += 1;
        // 1. Timer-based completions (cache hits with latency). The sweep
        // only runs when the earliest armed timer can fire.
        if self.next_timer <= now {
            let mut next = u64::MAX;
            for l in &mut self.inflight {
                if let Some(at) = l.done_at {
                    if at <= now {
                        l.done = true;
                        l.done_at = None;
                    } else {
                        next = next.min(at);
                    }
                }
            }
            self.next_timer = next;
        }
        self.retire();
        self.dispatch(now, mem);
        self.stats.retired = self.retired;
    }

    fn retire(&mut self) {
        let mut budget = u64::from(self.cfg.width);
        let started = self.retired;
        while budget > 0 && self.retired < self.dispatched {
            match self.inflight.front() {
                Some(front) if front.seq == self.retired => {
                    if front.done {
                        self.inflight.pop_front();
                        self.retired += 1;
                        budget -= 1;
                    } else {
                        break; // head-of-window load still outstanding
                    }
                }
                Some(front) => {
                    debug_assert!(front.seq > self.retired);
                    let n =
                        budget.min(front.seq - self.retired).min(self.dispatched - self.retired);
                    self.retired += n;
                    budget -= n;
                }
                None => {
                    let n = budget.min(self.dispatched - self.retired);
                    self.retired += n;
                    budget -= n;
                }
            }
        }
        if self.retired == started && self.dispatched > self.retired {
            self.stats.retire_stall_cycles += 1;
        }
    }

    fn dispatch(&mut self, now: u64, mem: &mut dyn FnMut(u64, bool, u64) -> MemIssue) {
        let mut budget = u64::from(self.cfg.width);
        while budget > 0 {
            if self.dispatched - self.retired >= self.cfg.rob {
                self.stats.window_full_cycles += 1;
                return;
            }
            let p = self.fetch();
            if self.dispatched < p.seq {
                // Dispatch compute instructions up to the memory op.
                let room = self.cfg.rob - (self.dispatched - self.retired);
                let n = budget.min(p.seq - self.dispatched).min(room);
                self.dispatched += n;
                budget -= n;
                continue;
            }
            debug_assert_eq!(self.dispatched, p.seq);
            let id = self.next_load_id;
            match mem(p.addr, p.is_write, id) {
                MemIssue::Retry => {
                    self.stats.mem_retry_cycles += 1;
                    return;
                }
                MemIssue::Done { latency } => {
                    if p.is_write {
                        self.stats.stores += 1;
                    } else {
                        self.stats.loads += 1;
                        self.next_load_id += 1;
                        let at = now + u64::from(latency);
                        self.next_timer = self.next_timer.min(at);
                        self.inflight.push_back(Load {
                            seq: p.seq,
                            id,
                            done_at: Some(at),
                            done: latency == 0,
                        });
                    }
                    self.dispatched += 1;
                    budget -= 1;
                    self.pending = None;
                }
                MemIssue::Pending => {
                    if p.is_write {
                        self.stats.stores += 1;
                        // Posted store: the window slot frees immediately.
                    } else {
                        self.stats.loads += 1;
                        self.inflight.push_back(Load {
                            seq: p.seq,
                            id,
                            done_at: None,
                            done: false,
                        });
                    }
                    self.next_load_id += 1;
                    self.dispatched += 1;
                    budget -= 1;
                    self.pending = None;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ReplaySource;

    fn compute_only_core(rob: u64, width: u32) -> Core {
        let src = ReplaySource::new(vec![TraceOp { gap: 999, addr: 0, is_write: false }]);
        Core::new(CoreConfig { rob, width }, Box::new(src))
    }

    #[test]
    fn compute_retires_at_width() {
        let mut c = compute_only_core(128, 4);
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: 1 };
        for now in 0..100 {
            c.tick(now, &mut mem);
        }
        // Steady state: 4 IPC (minus pipeline fill).
        assert!(c.retired() >= 4 * 98);
    }

    #[test]
    fn hit_latency_is_hidden_by_window() {
        // gap 8, hits of latency 2: the window covers the latency, IPC ~ width.
        let src = ReplaySource::new(vec![TraceOp { gap: 8, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 64, width: 4 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: 2 };
        for now in 0..1000 {
            c.tick(now, &mut mem);
        }
        let ipc = c.retired() as f64 / 1000.0;
        assert!(ipc > 3.0, "ipc {ipc}");
    }

    #[test]
    fn pending_load_blocks_retirement() {
        // Every op is a load that never completes: the core dispatches up
        // to the window limit and stops retiring.
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 16, width: 4 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Pending;
        for now in 0..100 {
            c.tick(now, &mut mem);
        }
        assert_eq!(c.retired(), 0);
        assert_eq!(c.outstanding_loads(), 16); // window full of loads
        assert!(c.stats().window_full_cycles > 0);
    }

    #[test]
    fn completion_unblocks_retirement() {
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 4, width: 4 }, Box::new(src));
        let mut ids = Vec::new();
        let mut mem = |_a: u64, _w: bool, id: u64| {
            ids.push(id);
            MemIssue::Pending
        };
        for now in 0..10 {
            c.tick(now, &mut mem);
        }
        assert_eq!(c.retired(), 0);
        for id in ids {
            c.complete(id);
        }
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Retry;
        for now in 10..12 {
            c.tick(now, &mut mem);
        }
        assert!(c.retired() >= 4);
    }

    #[test]
    fn window_bounds_mlp() {
        let src = ReplaySource::new(vec![TraceOp { gap: 3, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 16, width: 4 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Pending;
        for now in 0..100 {
            c.tick(now, &mut mem);
        }
        // gap 3 + 1 load per 4 slots -> at most 4 loads in a 16-entry window.
        assert_eq!(c.outstanding_loads(), 4);
    }

    #[test]
    fn stores_do_not_block() {
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: true }]);
        let mut c = Core::new(CoreConfig { rob: 8, width: 2 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Pending;
        for now in 0..50 {
            c.tick(now, &mut mem);
        }
        assert!(c.retired() > 50, "stores must retire without waiting");
        assert!(c.stats().stores > 0);
    }

    #[test]
    fn retry_stalls_dispatch() {
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 8, width: 2 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Retry;
        for now in 0..20 {
            c.tick(now, &mut mem);
        }
        assert_eq!(c.stats().loads, 0);
        assert!(c.stats().mem_retry_cycles > 0);
    }

    #[test]
    fn idle_state_reports_progress_and_blockage() {
        // Retry-blocked on a load: Blocked with the poll exposed.
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 8, width: 2 }, Box::new(src));
        assert_eq!(c.idle_state(), IdleState::Active, "fresh core fetches");
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Retry;
        c.tick(0, &mut mem);
        assert_eq!(c.idle_state(), IdleState::Blocked { timer: None, mem_poll: Some((64, false)) });

        // Window full of pending loads: Blocked with no poll.
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 4, width: 4 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Pending;
        for now in 0..4 {
            c.tick(now, &mut mem);
        }
        assert_eq!(c.idle_state(), IdleState::Blocked { timer: None, mem_poll: None });

        // A done_at timer shows up as the wake point.
        let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
        let mut c = Core::new(CoreConfig { rob: 1, width: 1 }, Box::new(src));
        let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: 50 };
        c.tick(0, &mut mem);
        assert_eq!(c.idle_state(), IdleState::Blocked { timer: Some(50), mem_poll: None });
    }

    #[test]
    fn skip_cycles_matches_stepped_blocked_ticks() {
        let build = |mode: usize| -> Core {
            let src = ReplaySource::new(vec![TraceOp { gap: 0, addr: 64, is_write: false }]);
            let rob = if mode == 0 { 8 } else { 4 };
            let mut c = Core::new(CoreConfig { rob, width: 4 }, Box::new(src));
            // mode 0: park on Retry; mode 1: fill the window with Pending.
            let mut mem = |_a: u64, _w: bool, _id: u64| {
                if mode == 0 {
                    MemIssue::Retry
                } else {
                    MemIssue::Pending
                }
            };
            for now in 0..4 {
                c.tick(now, &mut mem);
            }
            assert!(matches!(c.idle_state(), IdleState::Blocked { .. }));
            c
        };
        for mode in 0..2 {
            let mut stepped = build(mode);
            let mut skipped = build(mode);
            let mut mem = |_a: u64, _w: bool, _id: u64| {
                if mode == 0 {
                    MemIssue::Retry
                } else {
                    MemIssue::Pending
                }
            };
            for now in 4..104 {
                stepped.tick(now, &mut mem);
            }
            skipped.skip_cycles(100);
            assert_eq!(stepped.stats(), skipped.stats(), "mode {mode}");
            assert_eq!(stepped.idle_state(), skipped.idle_state());
        }
    }

    #[test]
    fn forward_matches_stepped_compute() {
        let mk = || {
            let src = ReplaySource::new(vec![TraceOp { gap: 37, addr: 64, is_write: false }]);
            Core::new(CoreConfig { rob: 32, width: 4 }, Box::new(src))
        };
        let mut mem = |_: u64, _: bool, _: u64| MemIssue::Done { latency: 3 };
        let mut stepped = mk();
        for now in 0..400 {
            stepped.tick(now, &mut mem);
        }
        let mut fast = mk();
        let mut now = 0u64;
        while now < 400 {
            let h = fast.compute_horizon().min(400 - now);
            if h == 0 {
                fast.tick(now, &mut mem);
                now += 1;
            } else {
                fast.forward(now, h);
                now += h;
            }
        }
        assert_eq!(stepped.stats(), fast.stats());
        assert_eq!(stepped.retired(), fast.retired());
    }

    #[test]
    fn ipc_degrades_with_memory_latency() {
        // Same trace, two latencies: higher latency must not raise IPC.
        let run = |lat: u32| {
            let src = ReplaySource::new(vec![TraceOp { gap: 10, addr: 64, is_write: false }]);
            let mut c = Core::new(CoreConfig::default(), Box::new(src));
            let mut mem = move |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: lat };
            for now in 0..2000 {
                c.tick(now, &mut mem);
            }
            c.retired()
        };
        assert!(run(2) >= run(200));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::trace::ReplaySource;
    use dbp_util::prop::{any_bool, check, range, vec_of, CaseResult, Config, Gen};
    use dbp_util::{prop_assert, prop_assert_eq};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn arb_trace() -> impl Gen<Value = Vec<TraceOp>> {
        vec_of(
            (range(0u32..50), range(0u64..1_000_000), any_bool())
                .map(|(gap, page, is_write)| TraceOp { gap, addr: page << 6, is_write }),
            1..40,
        )
    }

    /// The window bound holds for any trace and any memory behaviour:
    /// outstanding loads never exceed the ROB, and retired count is
    /// monotone and bounded by dispatch.
    fn window_invariants(
        trace: Vec<TraceOp>,
        rob: u64,
        width: u32,
        latencies: &[u32],
    ) -> CaseResult {
        let mut core = Core::new(CoreConfig { rob, width }, Box::new(ReplaySource::new(trace)));
        let mut k = 0usize;
        let mut pending: Vec<u64> = Vec::new();
        let mut last_retired = 0;
        for now in 0..400u64 {
            let mut issued = Vec::new();
            let mut mem = |_a: u64, is_write: bool, id: u64| {
                k += 1;
                match k % 3 {
                    0 => MemIssue::Retry,
                    1 => MemIssue::Done { latency: latencies[k % latencies.len()] },
                    _ => {
                        if !is_write {
                            // Only loads produce completion callbacks.
                            issued.push(id);
                        }
                        MemIssue::Pending
                    }
                }
            };
            core.tick(now, &mut mem);
            pending.extend(issued);
            // Randomly complete one pending load.
            if now % 7 == 0 {
                if let Some(id) = pending.pop() {
                    core.complete(id);
                }
            }
            prop_assert!(core.outstanding_loads() as u64 <= rob);
            prop_assert!(core.retired() >= last_retired, "retirement is monotone");
            last_retired = core.retired();
        }
        Ok(())
    }

    #[test]
    fn window_invariants_hold() {
        let g = (arb_trace(), range(1u64..64), range(1u32..8), vec_of(range(0u32..400), 8..9));
        check(Config::cases(64), &g, |(trace, rob, width, latencies)| {
            window_invariants(trace, rob, width, &latencies)
        });
    }

    /// Regression: the shrunk counterexample recorded by the old proptest
    /// harness in `proptest-regressions/core_model.txt` — a single
    /// zero-gap store through a minimal (ROB 1, width 1) window with
    /// instant memory.
    #[test]
    fn regression_single_store_minimal_window() {
        window_invariants(vec![TraceOp { gap: 0, addr: 0, is_write: true }], 1, 1, &[0; 8])
            .unwrap();
    }

    /// A memory system that is a pure function of (cycle, load id), so
    /// forked cores replaying the same cycles see the same answers.
    fn mem_answer(salt: u64, now: u64, id: u64) -> MemIssue {
        let h = (salt ^ now.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ id.wrapping_mul(0xC2B2_AE3D))
            .wrapping_mul(0xFF51_AFD7_ED55_8CCD)
            >> 33;
        match h % 4 {
            0 => MemIssue::Retry,
            1 => MemIssue::Pending,
            _ => MemIssue::Done { latency: (h / 4 % 300) as u32 },
        }
    }

    /// A trace source the test keeps a handle on, so forks can clone the
    /// stream position the core under test has reached.
    struct Shared(Rc<RefCell<ReplaySource>>);
    impl TraceSource for Shared {
        fn next_op(&mut self) -> TraceOp {
            self.0.borrow_mut().next_op()
        }
    }

    /// Traces of mostly long compute gaps (up to `max_gap`: sleepable
    /// windows) with some back-to-back bursts (loads packed at the window
    /// head), plus a ROB size, a width and a salt for [`mem_answer`].
    fn windowed_case(max_gap: u32) -> impl Gen<Value = (Vec<TraceOp>, u64, u32, u64)> {
        let op = (range(0u32..3), range(0..max_gap + 1), range(0u64..1_000_000), any_bool()).map(
            |(burst, gap, page, is_write)| TraceOp {
                gap: if burst == 0 { gap % 4 } else { gap },
                addr: page << 6,
                is_write,
            },
        );
        (vec_of(op, 1..24), range(1u64..65), range(1u32..9), range(0u64..u64::MAX))
    }

    /// `forward(now, h)` equals `h` stepped ticks for every `h` up to the
    /// horizon: same counters, same classification, same full state, and
    /// the same behaviour over the 64 ordinary ticks that follow.
    fn forward_equals_stepped(trace: Vec<TraceOp>, rob: u64, width: u32, salt: u64) -> CaseResult {
        let src = Rc::new(RefCell::new(ReplaySource::new(trace)));
        let mut core = Core::new(CoreConfig { rob, width }, Box::new(Shared(src.clone())));
        let mut outstanding: Vec<u64> = Vec::new();
        let (mut now, mut windows) = (0u64, 0u32);
        for round in 0..4000u64 {
            if windows == 10 {
                break;
            }
            // Random completions between windows (and between ticks).
            outstanding.retain(|&id| {
                let hit = salt.wrapping_add(id * 31 + round).wrapping_mul(0x2545_F491_4F6C_DD1D)
                    >> 61
                    == 0;
                if hit {
                    core.complete(id);
                }
                !hit
            });
            let horizon = core.compute_horizon();
            if horizon == 0 {
                core.tick(now, &mut |_, is_write, id| {
                    let ans = mem_answer(salt, now, id);
                    if ans == MemIssue::Pending && !is_write {
                        outstanding.push(id);
                    }
                    ans
                });
                now += 1;
                continue;
            }
            windows += 1;
            let mut stepped = core.fork(Box::new(no_fetch));
            for h in 0..=horizon {
                let mut fast = core.fork(Box::new(no_fetch));
                fast.forward(now, h);
                prop_assert_eq!(fast.stats(), stepped.stats(), "stats, h {h} of {horizon}");
                prop_assert_eq!(fast.retired(), stepped.retired(), "h {h} of {horizon}");
                prop_assert_eq!(fast.idle_state(), stepped.idle_state(), "h {h} of {horizon}");
                prop_assert!(fast.same_state(&stepped), "h {h}: {fast:?} vs {stepped:?}");
                let mut fast = fast.fork(Box::new(src.borrow().clone()));
                let mut slow = stepped.fork(Box::new(src.borrow().clone()));
                for t in now + h..now + h + 64 {
                    fast.tick(t, &mut |_, _, id| mem_answer(salt, t, id));
                    slow.tick(t, &mut |_, _, id| mem_answer(salt, t, id));
                    prop_assert!(fast.same_state(&slow), "h {h}, tick {t}: {fast:?} vs {slow:?}");
                }
                if h < horizon {
                    stepped.tick(now + h, &mut no_mem);
                }
            }
            // Continue from a window length the salt picks.
            let h = salt.wrapping_add(round) % (horizon + 1);
            core.forward(now, h);
            now += h;
        }
        prop_assert!(windows > 0 || now > 0, "the case never ran");
        Ok(())
    }

    #[test]
    fn forward_equals_stepped_for_every_window_length() {
        check(Config::cases(48), &windowed_case(2000), |(trace, rob, width, salt)| {
            forward_equals_stepped(trace, rob, width, salt)
        });
    }

    /// The life of a dormant core in `System`: classified on its private
    /// state, it sleeps until `wake` at the latest; whatever ends the nap
    /// after `k` cycles first applies those `k` ticks in the recorded form
    /// (`forward` for a compute horizon, `skip_cycles` for a blocked
    /// core), then may deliver a DRAM fill, then ticks. For every `k` that
    /// must leave exactly the state of `k` ordinary ticks (the blocked
    /// core's poll answered `Retry`, as a memoised-stuck poll is) followed
    /// by the same fill and tick.
    fn dormancy_equals_stepped(trace: Vec<TraceOp>, rob: u64, width: u32, salt: u64) -> CaseResult {
        /// A blocked core with no timer sleeps until a fill: any nap
        /// length is legal, so a fixed few are tried.
        const OPEN_ENDED: u64 = 24;
        let src = Rc::new(RefCell::new(ReplaySource::new(trace)));
        let mut core = Core::new(CoreConfig { rob, width }, Box::new(Shared(src.clone())));
        let mut outstanding: Vec<u64> = Vec::new();
        let mut now = 0u64;
        let (mut naps, mut fills) = (0u32, 0u32);
        for round in 0..600u64 {
            let mix = salt.wrapping_add(round).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32;
            let (nap, forward) = match core.idle_state() {
                IdleState::Blocked { timer, .. } => {
                    (timer.map_or(OPEN_ENDED, |t| t.saturating_sub(now)), false)
                }
                IdleState::Active => (core.compute_horizon(), true),
            };
            let catch_up = |c: &mut Core, k: u64| {
                if forward {
                    c.forward(now, k);
                } else {
                    c.skip_cycles(k);
                }
            };
            let fill = (!outstanding.is_empty() && mix % 3 != 0)
                .then(|| outstanding[mix as usize % outstanding.len()]);
            if nap > 0 {
                naps += 1;
                let mut stepped = core.fork(Box::new(no_fetch));
                for k in 0..=nap {
                    let mut lazy = core.fork(Box::new(src.borrow().clone()));
                    catch_up(&mut lazy, k);
                    let mut eager = stepped.fork(Box::new(src.borrow().clone()));
                    prop_assert!(lazy.same_state(&eager), "k {k} of {nap}: {lazy:?} vs {eager:?}");
                    for c in [&mut lazy, &mut eager] {
                        if let Some(id) = fill {
                            c.complete(id);
                        }
                        c.tick(now + k, &mut |_, _, id| mem_answer(salt, now + k, id));
                    }
                    prop_assert!(
                        lazy.same_state(&eager),
                        "k {k} of {nap}, after the wake tick: {lazy:?} vs {eager:?}"
                    );
                    if k < nap {
                        stepped.tick(now + k, &mut |_, _, _| MemIssue::Retry);
                    }
                }
            }
            // Live on from a nap length the salt picks.
            let k = mix % (nap + 1);
            catch_up(&mut core, k);
            now += k;
            if let Some(id) = fill {
                core.complete(id);
                outstanding.retain(|&o| o != id);
                fills += 1;
            }
            core.tick(now, &mut |_, is_write, id| {
                let ans = mem_answer(salt, now, id);
                if ans == MemIssue::Pending && !is_write {
                    outstanding.push(id);
                }
                ans
            });
            now += 1;
        }
        prop_assert!(naps > 0, "the case never slept");
        prop_assert!(fills > 0 || outstanding.is_empty(), "no fill was ever delivered");
        Ok(())
    }

    #[test]
    fn dormant_catch_up_equals_stepped_for_every_nap_length() {
        check(Config::cases(48), &windowed_case(400), |(trace, rob, width, salt)| {
            dormancy_equals_stepped(trace, rob, width, salt)
        });
    }

    /// With every access hitting instantly, IPC approaches the width.
    #[test]
    fn ideal_memory_reaches_peak_ipc() {
        check(Config::cases(64), &range(1u32..6), |width| {
            let trace = vec![TraceOp { gap: 10, addr: 64, is_write: false }];
            let mut core =
                Core::new(CoreConfig { rob: 256, width }, Box::new(ReplaySource::new(trace)));
            let mut mem = |_a: u64, _w: bool, _id: u64| MemIssue::Done { latency: 0 };
            let cycles = 2000u64;
            for now in 0..cycles {
                core.tick(now, &mut mem);
            }
            let ipc = core.retired() as f64 / cycles as f64;
            prop_assert!(ipc > f64::from(width) * 0.9, "ipc {ipc} width {width}");
            Ok(())
        });
    }
}
