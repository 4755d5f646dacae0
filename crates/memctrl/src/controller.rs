//! The memory controller: queues, write drains, refresh, and the per-cycle
//! greedy command issue driven by a [`Scheduler`].

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use dbp_dram::{Command, CommandKind, Cycle, Dram, Loc, RowPolicy};
use dbp_obs::latency::LatencyReport;

use crate::anatomy::{Anatomy, IssuedCmd, IssuedKind};
use crate::candidates::{CandTable, KIND_ACT, KIND_COL, KIND_PRE};
use crate::profiler::{ProfilerState, RowOutcome};
use crate::request::{MemRequest, TrafficKind};
use crate::scheduler::{row_hit_then_age, Scheduler};
use crate::ThreadId;

/// Controller sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CtrlConfig {
    /// Read-queue capacity per channel.
    pub read_q_cap: usize,
    /// Write-queue capacity per channel.
    pub write_q_cap: usize,
    /// Enter write-drain mode at this write-queue occupancy.
    pub write_hi: usize,
    /// Leave write-drain mode at this occupancy.
    pub write_lo: usize,
}

impl Default for CtrlConfig {
    fn default() -> Self {
        CtrlConfig { read_q_cap: 64, write_q_cap: 64, write_hi: 48, write_lo: 16 }
    }
}

impl CtrlConfig {
    /// Check the queue sizing and the write-drain watermarks.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        if self.read_q_cap == 0 {
            return Err("read_q_cap must be positive".into());
        }
        if self.write_q_cap < 2 {
            // A miss is admitted only with room for its two write-backs.
            return Err(format!("write_q_cap must be at least 2, got {}", self.write_q_cap));
        }
        if self.write_lo >= self.write_hi || self.write_hi > self.write_q_cap {
            return Err(format!(
                "write watermarks must satisfy write_lo < write_hi <= write_q_cap, got {} / {} / {}",
                self.write_lo, self.write_hi, self.write_q_cap
            ));
        }
        Ok(())
    }
}

/// A finished demand read, reported from [`MemoryController::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The id the request was enqueued with.
    pub id: u64,
    pub thread: ThreadId,
    /// The line address the request was enqueued with.
    pub line: u64,
}

/// Controller-level counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlStats {
    pub enq_reads: u64,
    pub enq_writes: u64,
    pub completed_reads: u64,
    /// Cycles any channel spent in write-drain mode.
    pub drain_cycles: u64,
    /// Commands sent to the device, refresh work included.
    pub commands_issued: u64,
    /// Ticks that began with nothing in flight.
    pub idle_ticks: u64,
    /// Ticks that began with work in flight but issued no command.
    pub blocked_ticks: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PendingRead {
    ready_at: Cycle,
    id: u64,
    thread: ThreadId,
    line: u64,
    arrival: Cycle,
}

impl Ord for PendingRead {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.ready_at, self.id).cmp(&(other.ready_at, other.id))
    }
}

impl PartialOrd for PendingRead {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The command a class-`kind` request of the read or write queue issues.
fn class_command(
    kind: usize,
    is_write: bool,
    auto_pre: bool,
    loc: Loc,
    row: u32,
    column: u32,
) -> Command {
    match kind {
        KIND_COL if is_write => Command::Write { loc, column, auto_pre },
        KIND_COL => Command::Read { loc, column, auto_pre },
        KIND_PRE => Command::Precharge { loc },
        _ => Command::Activate { loc, row },
    }
}

/// A multi-channel memory controller in front of one [`Dram`] device.
#[derive(Debug)]
pub struct MemoryController {
    dram: Dram,
    cfg: CtrlConfig,
    sched: Box<dyn Scheduler>,
    read_q: Vec<Vec<MemRequest>>,
    write_q: Vec<Vec<MemRequest>>,
    /// Bank index of the queue slots per channel, one per queue,
    /// mirroring `read_q` / `write_q` exactly (see [`CandTable`]).
    cand_r: Vec<CandTable>,
    cand_w: Vec<CandTable>,
    /// `pick`'s legal-candidate set (all zero between picks): per 64
    /// queue slots, the legal slots, then those whose command is a column
    /// access, then those whose command is a precharge.
    legal: Vec<[u64; 3]>,
    /// What each channel issued this tick, for the latency anatomy.
    issued: Vec<Option<IssuedCmd>>,
    draining: Vec<bool>,
    pending: BinaryHeap<Reverse<PendingRead>>,
    prof: ProfilerState,
    stats: CtrlStats,
    closed_page: bool,
    anat: Anatomy,
    /// Memoised queue/refresh scan of [`MemoryController::next_event`],
    /// one `(computed_at, at)` per channel. Every scan input — queue
    /// contents, DRAM bank timing, refresh deadlines, drain hysteresis —
    /// is private to its channel and changes only when a request is
    /// enqueued there or a command issues there, so the absolute event
    /// time stays exact until one of those invalidates it (or `at`
    /// arrives and the clamp to `now + 1` could move it).
    queue_event: Vec<Option<(Cycle, Cycle)>>,
}

impl MemoryController {
    /// Build a controller for `threads` threads over `dram`; built under a
    /// live recorder ([`dbp_obs::observe`]), it keeps the latency anatomy.
    pub fn new(dram: Dram, cfg: CtrlConfig, sched: Box<dyn Scheduler>, threads: usize) -> Self {
        cfg.validate().expect("invalid CtrlConfig");
        let channels = dram.cfg().channels as usize;
        let total_banks = dram.cfg().total_banks() as usize;
        let closed_page = dram.cfg().row_policy == RowPolicy::Closed;
        let slots = cfg.read_q_cap.max(cfg.write_q_cap);
        let table =
            CandTable::new(total_banks / channels, dram.cfg().banks_per_rank as usize, slots);
        let mut anat = Anatomy::default();
        if dbp_obs::recording() {
            anat.enable(threads, total_banks, channels);
        }
        MemoryController {
            read_q: vec![Vec::with_capacity(cfg.read_q_cap); channels],
            write_q: vec![Vec::with_capacity(cfg.write_q_cap); channels],
            cand_r: vec![table.clone(); channels],
            cand_w: vec![table; channels],
            legal: vec![[0; 3]; slots.div_ceil(64)],
            issued: vec![None; channels],
            draining: vec![false; channels],
            pending: BinaryHeap::new(),
            prof: ProfilerState::new(threads, total_banks),
            stats: CtrlStats::default(),
            closed_page,
            anat,
            queue_event: vec![None; channels],
            dram,
            cfg,
            sched,
        }
    }

    /// The queue sizing this controller was built with.
    pub fn cfg(&self) -> &CtrlConfig {
        &self.cfg
    }

    /// The underlying device (read-only).
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// The accumulated latency anatomy (`None` unless the controller was
    /// built while a live recorder was installed).
    pub fn latency_report(&self) -> Option<&LatencyReport> {
        self.anat.is_enabled().then(|| self.anat.report())
    }

    /// Drop latency anatomy gathered so far (measurement-window reset).
    pub fn reset_latency(&mut self) {
        if self.anat.is_enabled() {
            self.anat.reset_window();
        }
    }

    /// Profiling state (shared with partitioning policies).
    pub fn prof(&self) -> &ProfilerState {
        &self.prof
    }

    /// Mutable profiling state (for instruction feeds and epoch taking).
    pub fn prof_mut(&mut self) -> &mut ProfilerState {
        &mut self.prof
    }

    /// Controller counters.
    pub fn stats(&self) -> &CtrlStats {
        &self.stats
    }

    /// Queue occupancy of `channel`.
    pub fn queue_len(&self, channel: u32, write: bool) -> usize {
        if write {
            self.write_q[channel as usize].len()
        } else {
            self.read_q[channel as usize].len()
        }
    }

    /// Total requests in flight (queued or awaiting data return).
    pub fn in_flight(&self) -> usize {
        self.read_q.iter().map(Vec::len).sum::<usize>()
            + self.write_q.iter().map(Vec::len).sum::<usize>()
            + self.pending.len()
    }

    /// Whether a request for `channel` can be accepted right now.
    pub fn can_accept(&self, channel: u32, is_write: bool) -> bool {
        if is_write {
            self.write_q[channel as usize].len() < self.cfg.write_q_cap
        } else {
            self.read_q[channel as usize].len() < self.cfg.read_q_cap
        }
    }

    /// Decode the channel a physical address routes to (for admission
    /// checks before building a request).
    pub fn channel_of(&self, addr: u64) -> u32 {
        self.dram.mapper().decode(addr).channel
    }

    /// Enqueue a request. The DRAM coordinates are decoded here.
    ///
    /// # Panics
    ///
    /// Panics if the target queue is full — call
    /// [`MemoryController::can_accept`] first.
    pub fn enqueue(&mut self, mut req: MemRequest) {
        let d = self.dram.mapper().decode(req.addr);
        req.channel = d.channel;
        req.rank = d.rank;
        req.bank = d.bank;
        req.row = d.row;
        req.column = d.column;
        assert!(self.can_accept(d.channel, req.is_write), "queue full on channel {}", d.channel);
        let gbank = self.dram.cfg().flat_bank(req.loc());
        self.queue_event[d.channel as usize] = None;
        self.prof.on_enqueue(req.thread, gbank, req.is_write, req.kind != TrafficKind::Migration);
        let chi = d.channel as usize;
        let is_write = req.is_write;
        if is_write {
            self.stats.enq_writes += 1;
            self.write_q[chi].push(req);
        } else {
            self.stats.enq_reads += 1;
            if req.kind == TrafficKind::Demand {
                self.anat.on_enqueue_read(req.id);
            }
            self.read_q[chi].push(req);
        }
        let idx = if is_write { self.write_q[chi].len() } else { self.read_q[chi].len() } - 1;
        self.cand_insert(chi, is_write, idx);
    }

    /// Advance one DRAM cycle: complete returned data, sample profiling,
    /// run the scheduler, and issue at most one command per channel.
    ///
    /// Finished demand reads are appended to `completed`.
    ///
    /// Dispatches once on whether a live host profiler is installed
    /// ([`dbp_obs::profiling`]) so the `PROF = false` monomorphisation
    /// carries no span guards at all.
    pub fn tick(&mut self, now: Cycle, completed: &mut Vec<Completion>) {
        if dbp_obs::profiling() {
            self.tick_impl::<true>(now, completed);
        } else {
            self.tick_impl::<false>(now, completed);
        }
    }

    fn tick_impl<const PROF: bool>(&mut self, now: Cycle, completed: &mut Vec<Completion>) {
        let _tick = PROF.then(|| dbp_obs::span("memctrl/tick"));
        let in_flight_at_start = self.in_flight();
        while let Some(&Reverse(p)) = self.pending.peek() {
            if p.ready_at > now {
                break;
            }
            self.pending.pop();
            self.prof.on_read_complete(p.thread, p.ready_at - p.arrival);
            self.stats.completed_reads += 1;
            completed.push(Completion { id: p.id, thread: p.thread, line: p.line });
        }
        self.prof.sample_blp();
        {
            let _s = PROF.then(|| dbp_obs::span("memctrl/sched"));
            self.sched.tick(now, &self.prof, &self.read_q);
        }
        // A channel whose memoised queue/refresh calendar proves no command
        // can become legal before `at` skips the scan; only the per-tick
        // drain bookkeeping (which the stepped tick would have run after
        // `try_refresh` found nothing) remains for it.
        let quiet = |m: &Option<(Cycle, Cycle)>| matches!(*m, Some((_, at)) if now < at);
        let mut any_issued = false;
        {
            let _s = (PROF && !self.queue_event.iter().all(quiet))
                .then(|| dbp_obs::span("memctrl/issue"));
            for ch in 0..self.dram.cfg().channels {
                let chi = ch as usize;
                let ic = if quiet(&self.queue_event[chi]) {
                    self.tick_drain(chi, 1);
                    None
                } else {
                    self.issue_channel(ch, now)
                };
                if ic.is_some() {
                    self.queue_event[chi] = None;
                    any_issued = true;
                }
                self.issued[chi] = ic;
            }
        }
        if self.anat.is_enabled() {
            // Issue first, then attribute: a request whose column command
            // went out this cycle has left the queue, so it accrues no
            // wait for its final cycle and the components stay strictly
            // below the total latency (the remainder is intrinsic).
            let _s = PROF.then(|| dbp_obs::span("memctrl/anatomy"));
            let MemoryController { dram, read_q, anat, issued, .. } = self;
            anat.attribute_cycle(now, dram, read_q, issued);
        }
        self.charge_ticks(in_flight_at_start, any_issued, 1);
    }

    /// Charge `count` ticks that began with `in_flight` requests to the
    /// work counters: idle with nothing in flight, blocked with work in
    /// flight but no command issued. Skipped cycles are still simulated
    /// time, so the stepped tick and the skipped window charge the same
    /// counts through here.
    fn charge_ticks(&mut self, in_flight: usize, issued: bool, count: u64) {
        if in_flight == 0 {
            self.stats.idle_ticks += count;
        } else if !issued {
            self.stats.blocked_ticks += count;
        }
    }

    /// The next DRAM cycle strictly after `now` at which this controller
    /// might act — complete a read, issue any command (including refresh
    /// work), or hit a scheduler boundary that must tick exactly —
    /// assuming nothing is enqueued in between.
    ///
    /// This is the controller's contribution to the time-skip calendar.
    /// It may be *earlier* than the true next action (an extra tick is a
    /// no-op identical to the stepped core), never later. All inputs are
    /// static while no command issues, so one query covers the window.
    pub fn next_event(&mut self, now: Cycle) -> Cycle {
        let mut at = Cycle::MAX;
        if let Some(&Reverse(p)) = self.pending.peek() {
            at = at.min(p.ready_at);
        }
        if let Some(w) = self.sched.next_wake(now, &self.read_q) {
            at = at.min(w.max(now + 1));
        }
        at.min(self.queue_event(now))
    }

    /// The queue/refresh half of [`MemoryController::next_event`]: the
    /// earliest cycle after `now` at which a queued request's next
    /// command becomes timing-legal or the refresh machinery can act.
    /// Memoised per channel — see the `queue_event` field for why a cached
    /// absolute time stays exact until an enqueue or an issued command on
    /// that channel; a live memo is re-derived and compared in debug builds.
    fn queue_event(&mut self, now: Cycle) -> Cycle {
        let mut at = Cycle::MAX;
        for ch in 0..self.dram.cfg().channels {
            let t = match self.queue_event[ch as usize] {
                Some((computed_at, t)) if now >= computed_at && now < t => {
                    if cfg!(any(test, debug_assertions)) {
                        assert_eq!(t, self.channel_event(ch, now), "stale calendar memo, ch {ch}");
                    }
                    t
                }
                _ => {
                    let t = self.channel_event(ch, now);
                    self.queue_event[ch as usize] = Some((now, t));
                    t
                }
            };
            at = at.min(t);
        }
        at
    }

    /// One channel's entry of [`MemoryController::queue_event`], unmemoised.
    fn channel_event(&mut self, ch: u32, now: Cycle) -> Cycle {
        let mut at = Cycle::MAX;
        // Refresh urgency is constant inside the window: it flips ON
        // only at a deadline (a calendar entry below) and OFF only
        // when the REF issues (an executed tick).
        let urgent = self.urgent_ranks(ch, now);
        for rank in 0..self.dram.cfg().ranks_per_channel {
            if urgent >> rank & 1 == 0 {
                // Urgency flips at the deadline tick.
                at = at.min(self.dram.refresh_deadline(ch, rank));
            } else {
                // Already urgent: wake when the refresh machinery can
                // act (the REF itself, or a precharge clearing the way).
                let rf = Command::RefreshRank { channel: ch, rank };
                match self.dram.earliest_issue(&rf, now + 1) {
                    Some(t) => at = at.min(t),
                    None => {
                        for bank in self.dram.open_banks(ch, rank) {
                            let pre = Command::precharge(ch, rank, bank);
                            if let Some(t) = self.dram.earliest_issue(&pre, now + 1) {
                                at = at.min(t);
                            }
                        }
                    }
                }
            }
        }
        // A queued request wakes the controller when its next command
        // first becomes timing-legal — but only requests in the queue
        // the next tick serves can issue, and an urgent rank admits no
        // new activates. Both are static inside the window: queue
        // contents and write-queue length only change at executed ticks.
        let chi = ch as usize;
        let use_writes = self.serves_writes(chi);
        let table = if use_writes { &self.cand_w[chi] } else { &self.cand_r[chi] };
        let t = table
            .deadlines(&self.dram, ch, use_writes, urgent)
            .fold(Cycle::MAX, |at, (_, t)| at.min(t[KIND_COL]).min(t[KIND_PRE]).min(t[KIND_ACT]));
        if t != Cycle::MAX {
            // A class may have become legal at an already-executed cycle;
            // the wake-up itself must still land strictly after `now`.
            at = at.min(t.max(now + 1));
        }
        at
    }

    /// Bulk-equivalent of `count` consecutive [`MemoryController::tick`]
    /// calls over `[from, from + count)` during which — guaranteed by the
    /// caller's calendar ([`MemoryController::next_event`]) — no data
    /// returns, no command can issue, nothing is enqueued, and no
    /// scheduler exact-wake boundary is crossed. The per-cycle counter
    /// and sampling effects of those ticks are replicated in O(queued
    /// requests), independent of `count`; scheduler-internal decay
    /// catches up lazily from elapsed-cycle deltas at the next real tick.
    pub fn skip_ticks(&mut self, from: Cycle, count: Cycle) {
        if count == 0 {
            return;
        }
        let _s = dbp_obs::span("memctrl/skip");
        debug_assert!(
            self.pending.peek().is_none_or(|&Reverse(p)| p.ready_at >= from + count),
            "skip window crosses a pending completion"
        );
        self.prof.sample_blp_n(count);
        for chi in 0..self.draining.len() {
            self.tick_drain(chi, count);
        }
        if self.anat.is_enabled() {
            let MemoryController { dram, read_q, anat, .. } = self;
            anat.attribute_span(from, count, dram, read_q);
        }
        self.charge_ticks(self.in_flight(), false, count);
    }

    /// Write-drain hysteresis, the one definition: the drain mode a tick
    /// settles into given the mode in force and the write-queue length
    /// (enter at `write_hi`, leave at `write_lo`).
    fn drain_next(&self, chi: usize) -> bool {
        let wlen = self.write_q[chi].len();
        if self.draining[chi] {
            wlen > self.cfg.write_lo
        } else {
            wlen >= self.cfg.write_hi
        }
    }

    /// Which queue channel `chi` serves on its next tick: the writes while
    /// draining, or opportunistically when no read waits. Reads the
    /// *settled* drain mode ([`MemoryController::drain_next`] is idempotent
    /// because `write_lo < write_hi`), so the answer is the same before
    /// and after [`MemoryController::tick_drain`] ran for the tick.
    fn serves_writes(&self, chi: usize) -> bool {
        self.drain_next(chi) || (self.read_q[chi].is_empty() && !self.write_q[chi].is_empty())
    }

    /// The ranks of channel `ch` whose refresh is due at or before `now`,
    /// one bit per rank: they admit no new activates and are pushed
    /// toward their REF.
    fn urgent_ranks(&self, ch: u32, now: Cycle) -> u64 {
        (0..self.dram.cfg().ranks_per_channel)
            .filter(|&rank| self.dram.refresh_urgent(ch, rank, now))
            .fold(0, |urgent, rank| urgent | 1 << rank)
    }

    /// Settle channel `chi`'s drain mode and charge `count` ticks of it —
    /// the part of [`MemoryController::issue_channel`] that must run on
    /// every tick even when the calendar proves nothing can issue. With
    /// static queues the mode settles at the first tick, so one call
    /// covers a whole skipped window.
    fn tick_drain(&mut self, chi: usize, count: Cycle) {
        self.draining[chi] = self.drain_next(chi);
        if self.draining[chi] {
            self.stats.drain_cycles += count;
        }
    }

    fn issue_channel(&mut self, ch: u32, now: Cycle) -> Option<IssuedCmd> {
        let urgent = self.urgent_ranks(ch, now);
        if urgent != 0 {
            if let Some(ic) = self.try_refresh(ch, now, urgent) {
                return Some(ic);
            }
        }
        let chi = ch as usize;
        self.tick_drain(chi, 1);
        self.issue_from(ch, now, self.serves_writes(chi), urgent)
    }

    /// Consume the cycle with refresh work if needed; reports what issued.
    fn try_refresh(&mut self, ch: u32, now: Cycle, urgent: u64) -> Option<IssuedCmd> {
        for rank in 0..self.dram.cfg().ranks_per_channel {
            if urgent & (1 << rank) == 0 {
                continue;
            }
            let rf = Command::RefreshRank { channel: ch, rank };
            match self.dram.earliest_issue(&rf, now) {
                Some(at) if at == now => {
                    self.dram.issue(&rf, now);
                    // REF needs every bank closed, so no kinds change.
                    self.stats.commands_issued += 1;
                    return Some(IssuedCmd {
                        rank,
                        bank: None,
                        thread: None,
                        id: None,
                        kind: IssuedKind::Refresh,
                    });
                }
                Some(_) => {} // precharged but mid-timing: just wait
                None => {
                    // Precharge open banks so the REF can go.
                    let ready = self.dram.open_banks(ch, rank).find(|&bank| {
                        self.dram.can_issue(&Command::precharge(ch, rank, bank), now)
                    });
                    if let Some(bank) = ready {
                        self.dram.issue(&Command::precharge(ch, rank, bank), now);
                        self.cand_rekind_bank(ch as usize, rank, bank);
                        self.stats.commands_issued += 1;
                        return Some(IssuedCmd {
                            rank,
                            bank: Some(bank),
                            thread: None,
                            id: None,
                            kind: IssuedKind::Precharge,
                        });
                    }
                }
            }
        }
        None
    }

    /// One channel's queue, its bank index, and the device, split-borrowed.
    fn cand_parts(&mut self, chi: usize, is_write: bool) -> (&mut CandTable, &[MemRequest], &Dram) {
        if is_write {
            (&mut self.cand_w[chi], &self.write_q[chi], &self.dram)
        } else {
            (&mut self.cand_r[chi], &self.read_q[chi], &self.dram)
        }
    }

    /// Index the freshly pushed queue slot `idx` under its bank.
    fn cand_insert(&mut self, chi: usize, is_write: bool, idx: usize) {
        let (table, q, dram) = self.cand_parts(chi, is_write);
        let r = &q[idx];
        let hit = dram.open_row(r.loc()) == Some(r.row);
        table.insert(r, idx, hit);
    }

    /// Mirror `Vec::swap_remove(idx)` on the bank index, given the request
    /// it returned: drop slot `idx` from `removed`'s bank and relabel the
    /// request that held the last slot — now `queue[idx]` — as `idx`.
    fn cand_remove(&mut self, chi: usize, is_write: bool, idx: usize, removed: &MemRequest) {
        let (table, q, _) = self.cand_parts(chi, is_write);
        table.remove(removed, idx);
        if let Some(moved) = q.get(idx) {
            let hit = table.remove(moved, q.len());
            table.insert(moved, idx, hit);
        }
    }

    /// Recompute the hit bits of every queued request targeting (`rank`,
    /// `bank`) on channel `chi`, in both queues — called after a command
    /// changed that bank's open row (activate, precharge, or an
    /// auto-precharging column access).
    fn cand_rekind_bank(&mut self, chi: usize, rank: u32, bank: u32) {
        let open = self.dram.open_row(Loc::new(chi as u32, rank, bank));
        self.cand_r[chi].rekind(&self.read_q[chi], rank, bank, open);
        self.cand_w[chi].rekind(&self.write_q[chi], rank, bank, open);
    }

    /// Find the most-preferred request whose next command is legal now;
    /// returns (index, command, is_row_hit).
    ///
    /// Driven by the candidate table: one timing answer per (bank, kind)
    /// class ([`CandTable::deadlines`]) admits or rejects every member at
    /// once, so only the member words of *legal* classes are touched.
    /// They are ORed into a queue-slot bitset and visited lowest set bit
    /// first — ascending queue order without a sort — which makes the
    /// first-strictly-better-wins scan byte-identical to a flat walk of
    /// the whole queue (checked against one in debug builds).
    fn pick(
        &mut self,
        ch: u32,
        now: Cycle,
        is_write: bool,
        urgent: u64,
    ) -> Option<(usize, Command, bool)> {
        let (chi, closed_page) = (ch as usize, self.closed_page);
        let MemoryController { dram, cand_r, cand_w, read_q, write_q, sched, legal, .. } = self;
        let (table, queue) =
            if is_write { (&cand_w[chi], &write_q[chi]) } else { (&cand_r[chi], &read_q[chi]) };
        table.mark_legal(dram, ch, is_write, urgent, now, legal);
        let mut best: Option<(usize, usize, bool)> = None;
        for (wi, word) in legal.iter_mut().enumerate() {
            let [mut rest, col, pre] = std::mem::take(word);
            while rest != 0 {
                let bit = rest & rest.wrapping_neg();
                let i = wi * 64 + rest.trailing_zeros() as usize;
                rest ^= bit;
                let kind = if col & bit != 0 {
                    KIND_COL
                } else if pre & bit != 0 {
                    KIND_PRE
                } else {
                    KIND_ACT
                };
                let r = &queue[i];
                let hit = kind == KIND_COL;
                let better = match &best {
                    None => true,
                    Some((bi, _, bhit)) => {
                        if is_write {
                            row_hit_then_age(r, hit, &queue[*bi], *bhit)
                        } else {
                            sched.prefer(r, hit, &queue[*bi], *bhit)
                        }
                    }
                };
                if better {
                    best = Some((i, kind, hit));
                }
            }
        }
        let res = best.map(|(i, kind, hit)| {
            let r = &queue[i];
            (i, class_command(kind, is_write, closed_page, r.loc(), r.row, r.column), hit)
        });
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            res,
            self.pick_flat(ch, now, is_write, urgent),
            "candidate table diverged from the flat queue scan"
        );
        res
    }

    /// The original exhaustive queue walk `pick` replicates — kept (test
    /// and debug builds only) as the reference the candidate table is
    /// checked against on every single debug-build pick.
    #[cfg(any(test, debug_assertions))]
    fn pick_flat(
        &self,
        ch: u32,
        now: Cycle,
        is_write: bool,
        urgent: u64,
    ) -> Option<(usize, Command, bool)> {
        let queue = if is_write { &self.write_q[ch as usize] } else { &self.read_q[ch as usize] };
        let mut best: Option<(usize, Command, bool)> = None;
        for (i, r) in queue.iter().enumerate() {
            let loc = r.loc();
            let (cmd, hit) = match self.dram.open_row(loc) {
                Some(row) if row == r.row => {
                    let cmd = if is_write {
                        Command::Write { loc, column: r.column, auto_pre: self.closed_page }
                    } else {
                        Command::Read { loc, column: r.column, auto_pre: self.closed_page }
                    };
                    (cmd, true)
                }
                Some(_) => (Command::Precharge { loc }, false),
                None => {
                    if urgent & (1 << r.rank) != 0 {
                        continue; // rank is waiting for refresh: no new rows
                    }
                    (Command::Activate { loc, row: r.row }, false)
                }
            };
            if !self.dram.can_issue(&cmd, now) {
                continue;
            }
            let better = match &best {
                None => true,
                Some((bi, _, bhit)) => {
                    if is_write {
                        row_hit_then_age(r, hit, &queue[*bi], *bhit)
                    } else {
                        self.sched.prefer(r, hit, &queue[*bi], *bhit)
                    }
                }
            };
            if better {
                best = Some((i, cmd, hit));
            }
        }
        best
    }

    fn issue_from(
        &mut self,
        ch: u32,
        now: Cycle,
        is_write: bool,
        urgent: u64,
    ) -> Option<IssuedCmd> {
        let (i, cmd, _hit) = self.pick(ch, now, is_write, urgent)?;
        let chi = ch as usize;
        // First-action classification (demand and write-back traffic only).
        let (thread, req_id, classified, tracked) = {
            let q = if is_write { &self.write_q[chi] } else { &self.read_q[chi] };
            (q[i].thread, q[i].id, q[i].classified, q[i].kind != TrafficKind::Migration)
        };
        if !classified && tracked {
            let outcome = match cmd.kind() {
                CommandKind::Read | CommandKind::Write => RowOutcome::Hit,
                CommandKind::Activate => RowOutcome::Miss,
                CommandKind::Precharge => RowOutcome::Conflict,
                CommandKind::RefreshRank => unreachable!("pick never returns REF"),
            };
            self.prof.classify(thread, outcome);
            let q = if is_write { &mut self.write_q[chi] } else { &mut self.read_q[chi] };
            q[i].classified = true;
        }
        let res = self.dram.issue(&cmd, now);
        self.stats.commands_issued += 1;
        let loc = cmd.loc().expect("pick never returns REF");
        // Row-state changes re-classify the bank's queued candidates.
        if matches!(cmd.kind(), CommandKind::Activate | CommandKind::Precharge) {
            self.cand_rekind_bank(chi, loc.rank, loc.bank);
        }
        let issued = IssuedCmd {
            rank: loc.rank,
            bank: Some(loc.bank),
            thread: Some(thread),
            id: Some(req_id),
            kind: IssuedKind::of(cmd.kind()),
        };
        if cmd.is_column() {
            let req = if is_write {
                self.write_q[chi].swap_remove(i)
            } else {
                self.read_q[chi].swap_remove(i)
            };
            self.cand_remove(chi, is_write, i, &req);
            if self.closed_page {
                // The auto-precharge closed the row under the survivors.
                self.cand_rekind_bank(chi, loc.rank, loc.bank);
            }
            let gbank = self.dram.cfg().flat_bank(loc);
            let t_burst = self.dram.cfg().timing.t_burst;
            self.prof.on_serviced(
                req.thread,
                gbank,
                req.is_write,
                None,
                t_burst,
                req.kind != TrafficKind::Migration,
            );
            self.anat.note_column(chi, req.thread);
            let data_end = res.data_ready_at.expect("column commands return data");
            if req.is_write {
                if req.kind == TrafficKind::Writeback {
                    self.anat.on_write_issued(req.thread, data_end - req.arrival);
                }
            } else {
                self.sched.on_serviced(&req, now);
                if req.kind == TrafficKind::Demand {
                    self.anat.on_read_issued(req.id, req.thread, gbank, data_end - req.arrival);
                    self.pending.push(Reverse(PendingRead {
                        ready_at: data_end,
                        id: req.id,
                        thread: req.thread,
                        line: req.addr,
                        arrival: req.arrival,
                    }));
                }
            }
        } else if cmd.kind() == CommandKind::Activate {
            self.anat.note_activate(self.dram.cfg().flat_bank(loc), thread);
        }
        Some(issued)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{Fcfs, FrFcfs};
    use dbp_dram::DramConfig;

    fn mc(sched: Box<dyn Scheduler>, threads: usize) -> MemoryController {
        MemoryController::new(
            Dram::new(DramConfig::fast_test()),
            CtrlConfig::default(),
            sched,
            threads,
        )
    }

    fn run(mc: &mut MemoryController, cycles: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in 0..cycles {
            mc.tick(now, &mut done);
        }
        done
    }

    #[test]
    fn single_read_completes() {
        let mut m = mc(Box::new(FrFcfs), 1);
        m.enqueue(MemRequest::demand_read(7, 0, 0x40, 0));
        let done = run(&mut m, 50);
        assert_eq!(done, vec![Completion { id: 7, thread: 0, line: 0x40 }]);
        assert_eq!(m.dram().stats().activates, 1);
        assert_eq!(m.dram().stats().reads, 1);
        // ACT(0) -> RD(tRCD=2) -> data at 2+CL+BURST=6.
        assert!(m.prof().epoch(0).avg_read_latency() >= 6.0);
    }

    #[test]
    fn row_hit_classified_and_served_without_activate() {
        let cfg = DramConfig::fast_test();
        let row_bytes = u64::from(cfg.row_bytes);
        let mut m = mc(Box::new(FrFcfs), 1);
        m.enqueue(MemRequest::demand_read(0, 0, 0, 0));
        // Same row, different column (within the same page/row).
        m.enqueue(MemRequest::demand_read(1, 0, 64, 0));
        let done = run(&mut m, 60);
        assert_eq!(done.len(), 2);
        assert_eq!(m.dram().stats().activates, 1, "second read must reuse the open row");
        assert_eq!(m.prof().epoch(0).row_hits, 1);
        assert_eq!(m.prof().epoch(0).row_misses, 1);
        let _ = row_bytes;
    }

    #[test]
    fn row_conflict_precharges_and_classifies() {
        let cfg = DramConfig::fast_test();
        let mut m = mc(Box::new(Fcfs), 1);
        // Two different rows of the same bank: row stride is
        // row_bytes * banks (page-coloring layout, 1 channel 1 rank).
        let same_bank_next_row = u64::from(cfg.row_bytes) * u64::from(cfg.banks_per_rank);
        m.enqueue(MemRequest::demand_read(0, 0, 0, 0));
        m.enqueue(MemRequest::demand_read(1, 0, same_bank_next_row, 0));
        let done = run(&mut m, 100);
        assert_eq!(done.len(), 2);
        assert_eq!(m.prof().epoch(0).row_conflicts, 1);
        assert!(m.dram().stats().precharges >= 1);
        assert_eq!(m.dram().stats().activates, 2);
    }

    #[test]
    fn frfcfs_prefers_hit_over_older_conflict() {
        let cfg = DramConfig::fast_test();
        let same_bank_next_row = u64::from(cfg.row_bytes) * u64::from(cfg.banks_per_rank);
        let mut m = mc(Box::new(FrFcfs), 2);
        // Open row 0 via thread 0.
        m.enqueue(MemRequest::demand_read(0, 0, 0, 0));
        let mut done = Vec::new();
        for now in 0..20 {
            m.tick(now, &mut done);
        }
        assert_eq!(done.len(), 1);
        // Now enqueue an older conflict (thread 1) and a younger hit
        // (thread 0). FR-FCFS serves the hit first.
        m.enqueue(MemRequest::demand_read(10, 1, same_bank_next_row, 20));
        m.enqueue(MemRequest::demand_read(11, 0, 128, 21));
        for now in 20..120 {
            m.tick(now, &mut done);
        }
        assert_eq!(done.len(), 3);
        assert_eq!(done[1].id, 11, "row hit must bypass the older conflict");
        assert_eq!(done[2].id, 10);
    }

    #[test]
    fn writes_drain_at_watermark() {
        let mut m = mc(Box::new(FrFcfs), 1);
        let hi = m.cfg.write_hi;
        for i in 0..hi as u64 {
            m.enqueue(MemRequest::writeback(i, 0, i * 4096, 0));
        }
        run(&mut m, 500);
        assert!(m.dram().stats().writes as usize >= hi - m.cfg.write_lo);
        assert!(m.stats().drain_cycles > 0);
    }

    #[test]
    fn reads_alone_do_not_trigger_drain_but_idle_writes_go() {
        let mut m = mc(Box::new(FrFcfs), 1);
        // A single write, below the watermark: issued opportunistically
        // because no reads are pending.
        m.enqueue(MemRequest::writeback(0, 0, 0x40, 0));
        run(&mut m, 100);
        assert_eq!(m.dram().stats().writes, 1);
        assert_eq!(m.stats().drain_cycles, 0);
    }

    #[test]
    fn refresh_issues_when_due() {
        let mut m = mc(Box::new(FrFcfs), 1);
        let t_refi = Cycle::from(m.dram().cfg().timing.t_refi);
        run(&mut m, t_refi + 50);
        assert!(m.dram().stats().refreshes >= 1);
    }

    #[test]
    fn refresh_precharges_open_rows_first() {
        let mut m = mc(Box::new(FrFcfs), 1);
        let t_refi = Cycle::from(m.dram().cfg().timing.t_refi);
        // Keep a row open right up to the refresh deadline.
        m.enqueue(MemRequest::demand_read(0, 0, 0, 0));
        let mut done = Vec::new();
        for now in 0..t_refi + 100 {
            m.tick(now, &mut done);
        }
        assert!(m.dram().stats().refreshes >= 1);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut m = mc(Box::new(FrFcfs), 1);
        let cap = m.cfg.read_q_cap;
        for i in 0..cap as u64 {
            assert!(m.can_accept(0, false));
            m.enqueue(MemRequest::demand_read(i, 0, i * 4096, 0));
        }
        assert!(!m.can_accept(0, false));
    }

    #[test]
    #[should_panic(expected = "queue full")]
    fn enqueue_past_capacity_panics() {
        let mut m = mc(Box::new(FrFcfs), 1);
        for i in 0..=m.cfg.read_q_cap as u64 {
            m.enqueue(MemRequest::demand_read(i, 0, i * 4096, 0));
        }
    }

    #[test]
    fn ctrl_config_rejects_each_bad_shape() {
        CtrlConfig::default().validate().unwrap();
        let d = CtrlConfig::default();
        for (bad, what) in [
            (CtrlConfig { read_q_cap: 0, ..d }, "read_q_cap"),
            (CtrlConfig { write_q_cap: 1, write_hi: 1, write_lo: 0, ..d }, "write_q_cap"),
            (CtrlConfig { write_lo: d.write_hi, ..d }, "write_lo < write_hi"),
            (CtrlConfig { write_hi: d.write_q_cap + 1, ..d }, "write_hi <= write_q_cap"),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.contains(what), "{bad:?}: {err}");
        }
    }

    #[test]
    #[should_panic(expected = "invalid CtrlConfig")]
    fn controller_refuses_an_invalid_config() {
        let cfg = CtrlConfig { write_lo: 48, ..CtrlConfig::default() };
        MemoryController::new(Dram::new(DramConfig::fast_test()), cfg, Box::new(FrFcfs), 1);
    }

    #[test]
    fn closed_page_policy_precharges_after_access() {
        let mut dram_cfg = DramConfig::fast_test();
        dram_cfg.row_policy = RowPolicy::Closed;
        let mut m =
            MemoryController::new(Dram::new(dram_cfg), CtrlConfig::default(), Box::new(FrFcfs), 1);
        m.enqueue(MemRequest::demand_read(0, 0, 0, 0));
        run(&mut m, 50);
        assert_eq!(m.dram().open_row(Loc::new(0, 0, 0)), None);
    }

    #[test]
    fn migration_reads_do_not_complete_to_cores() {
        let mut m = mc(Box::new(FrFcfs), 1);
        m.enqueue(MemRequest::migration(0, 0, 0x40, false, 0));
        let done = run(&mut m, 100);
        assert!(done.is_empty());
        assert_eq!(m.dram().stats().reads, 1);
    }

    #[test]
    fn blp_visible_for_parallel_banks() {
        let cfg = DramConfig::fast_test();
        let mut m = mc(Box::new(FrFcfs), 1);
        // 4 requests to 4 different banks (consecutive pages).
        for b in 0..4u64 {
            m.enqueue(MemRequest::demand_read(b, 0, b * u64::from(cfg.page_bytes), 0));
        }
        let mut done = Vec::new();
        m.tick(0, &mut done);
        assert!(m.prof().epoch(0).blp_accum >= 4, "all four banks outstanding");
    }

    #[test]
    fn per_thread_attribution() {
        let mut m = mc(Box::new(FrFcfs), 2);
        m.enqueue(MemRequest::demand_read(0, 0, 0, 0));
        m.enqueue(MemRequest::demand_read(1, 1, 4096, 0));
        run(&mut m, 60);
        assert_eq!(m.prof().epoch(0).served_reads, 1);
        assert_eq!(m.prof().epoch(1).served_reads, 1);
    }

    /// The host self-profiler is observation-only: identical completions
    /// and stats (work counters included) with it attached, and
    /// exact-sum span aggregates. The work counters reconcile with the
    /// device's command counts (open page: no auto-precharges).
    #[test]
    fn host_profiler_counts_work_without_perturbing() {
        let ticks = 200;
        let feed = |m: &mut MemoryController| {
            for i in 0..6u64 {
                m.enqueue(MemRequest::demand_read(i, 0, i * 4096, 0));
            }
        };
        let mut plain = mc(Box::new(FrFcfs), 1);
        feed(&mut plain);
        let done_plain = run(&mut plain, ticks);

        let prof = dbp_obs::Prof::enabled();
        let mut profiled = mc(Box::new(FrFcfs), 1);
        feed(&mut profiled);
        let done_prof =
            dbp_obs::observe(&dbp_obs::Recorder::disabled(), &prof, || run(&mut profiled, ticks));

        assert_eq!(done_plain, done_prof);
        assert_eq!(plain.stats(), profiled.stats());
        assert_eq!(plain.dram().stats(), profiled.dram().stats());

        assert_eq!(plain.dram().timing_queries(), profiled.dram().timing_queries());

        let c = profiled.stats();
        assert_eq!(c.enq_reads + c.enq_writes, 6);
        let s = profiled.dram().stats();
        assert_eq!(
            c.commands_issued,
            s.activates + s.precharges + s.reads + s.writes + s.refreshes
        );
        // Six reads drain quickly; most of the 200 ticks find nothing.
        assert!(c.idle_ticks > 0);
        assert!(c.idle_ticks + c.blocked_ticks + c.commands_issued >= ticks);
        assert!(profiled.dram().timing_queries() >= c.commands_issued);
        let snap = prof.snapshot(); // asserts exact-sum
        let tick = snap.spans.iter().find(|s| s.name == "memctrl/tick").expect("tick span");
        assert_eq!(tick.count, ticks);
        let names: Vec<&str> = tick.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["memctrl/issue", "memctrl/sched"]);
    }
}

#[cfg(test)]
mod anatomy_tests {
    use super::*;
    use crate::scheduler::FrFcfs;
    use dbp_dram::DramConfig;
    use dbp_obs::{Prof, Recorder, RecorderConfig};

    fn mc_plain(threads: usize) -> MemoryController {
        MemoryController::new(
            Dram::new(DramConfig::fast_test()),
            CtrlConfig::default(),
            Box::new(FrFcfs),
            threads,
        )
    }

    /// A controller with latency anatomy switched on: built while a live
    /// recorder is installed.
    fn mc_recorded(threads: usize) -> MemoryController {
        let rec = Recorder::new(RecorderConfig::default());
        dbp_obs::observe(&rec, &Prof::disabled(), || mc_plain(threads))
    }

    fn run(m: &mut MemoryController, cycles: Cycle) -> Vec<Completion> {
        let mut done = Vec::new();
        for now in 0..cycles {
            m.tick(now, &mut done);
        }
        done
    }

    /// Same-bank row stride for the fast_test page-coloring layout
    /// (1 channel, 1 rank).
    fn same_bank_stride() -> u64 {
        let c = DramConfig::fast_test();
        u64::from(c.row_bytes) * u64::from(c.banks_per_rank)
    }

    /// The tentpole invariant: for every profiled read the five latency
    /// components sum *exactly* (u64 equality) to `ready_at - arrival`.
    /// `LatencyReport::record_read` asserts this per request in every
    /// build profile; here we additionally check the aggregate identity
    /// on a contended multi-core workload.
    #[test]
    fn breakdown_components_sum_exactly_to_total_latency() {
        let mut m = mc_recorded(4);
        let stride = same_bank_stride();
        let mut id = 0;
        for burst in 0..6u64 {
            for t in 0..4usize {
                // All four cores fight over bank 0 with distinct rows,
                // plus a second stream on different banks for bus load.
                m.enqueue(MemRequest::demand_read(id, t, (burst * 4 + t as u64) * stride, 0));
                id += 1;
                m.enqueue(MemRequest::demand_read(id, t, 4096 * (t as u64 + 1), 0));
                id += 1;
            }
        }
        let done = run(&mut m, 5_000);
        assert_eq!(done.len(), 48, "all reads complete");
        let rep = m.latency_report().expect("recorder attached");
        assert_eq!(rep.total_reads(), 48);
        for core in &rep.cores {
            let component_sum: u64 = core.components.iter().sum();
            assert_eq!(
                component_sum,
                core.read.sum(),
                "per-core components must partition the summed read latency"
            );
        }
        // Heavy same-bank contention must show up as non-intrinsic time.
        let waited: u64 =
            rep.cores.iter().flat_map(|c| c.components[..dbp_obs::latency::INTRINSIC].iter()).sum();
        assert!(waited > 0, "contended workload must record wait cycles");
    }

    /// The anatomy follows the recorder installed when the controller is
    /// built, not the one installed when it ticks: a disabled recorder or
    /// none leaves it off, and a scope that ends does not switch it off.
    #[test]
    fn anatomy_follows_the_recorder_installed_at_construction() {
        let live = Recorder::new(RecorderConfig::default());
        let mut built_inside = mc_recorded(1);
        let mut built_outside = mc_plain(1);
        let muted = dbp_obs::observe(&Recorder::disabled(), &Prof::disabled(), || mc_plain(1));
        for m in [&mut built_inside, &mut built_outside] {
            m.enqueue(MemRequest::demand_read(0, 0, 0, 0));
        }
        run(&mut built_inside, 200);
        dbp_obs::observe(&live, &Prof::disabled(), || run(&mut built_outside, 200));
        assert_eq!(built_inside.latency_report().map(LatencyReport::total_reads), Some(1));
        assert!(built_outside.latency_report().is_none());
        assert!(muted.latency_report().is_none());
    }

    /// Attribution is observation-only: an enabled recorder changes no
    /// scheduling decision, completion, or counter.
    #[test]
    fn enabled_recorder_does_not_change_behaviour() {
        let build = |recorded: bool| {
            let mut m = if recorded { mc_recorded(2) } else { mc_plain(2) };
            let stride = same_bank_stride();
            for i in 0..10u64 {
                m.enqueue(MemRequest::demand_read(i, (i % 2) as usize, i * stride / 2, 0));
                m.enqueue(MemRequest::writeback(100 + i, (i % 2) as usize, i * 4096, 0));
            }
            m
        };
        let mut plain = build(false);
        let mut recorded = build(true);
        let done_plain = run(&mut plain, 4_000);
        let done_rec = run(&mut recorded, 4_000);
        assert_eq!(done_plain, done_rec);
        assert_eq!(plain.stats(), recorded.stats());
        assert_eq!(plain.dram().stats(), recorded.dram().stats());
        assert!(plain.latency_report().is_none());
        assert!(recorded.latency_report().is_some());
    }

    /// Cross-core same-bank conflicts charge the bank interference
    /// matrix; core-private banks keep it clean.
    #[test]
    fn bank_interference_requires_shared_banks() {
        // Shared: both cores hammer bank 0 with alternating rows.
        let mut shared = mc_recorded(2);
        let stride = same_bank_stride();
        for i in 0..8u64 {
            shared.enqueue(MemRequest::demand_read(i, (i % 2) as usize, i * stride, 0));
        }
        run(&mut shared, 4_000);
        let rep = shared.latency_report().unwrap();
        assert!(
            rep.bank_interference.off_diagonal_sum() > 0,
            "alternating-row conflicts must charge cross-core bank interference"
        );

        // Private: each core owns its own bank (consecutive pages map to
        // different banks under page coloring).
        let mut private = mc_recorded(2);
        let page = u64::from(DramConfig::fast_test().page_bytes);
        for i in 0..8u64 {
            let t = (i % 2) as usize;
            private.enqueue(MemRequest::demand_read(i, t, t as u64 * page + (i / 2) * 64, 0));
        }
        run(&mut private, 4_000);
        let rep = private.latency_report().unwrap();
        assert_eq!(
            rep.bank_interference.off_diagonal_sum(),
            0,
            "core-private banks must not show cross-core bank interference"
        );
    }

    /// Satellite: writeback drains are profiled into the write histogram.
    #[test]
    fn writeback_latency_is_recorded() {
        let mut m = mc_recorded(1);
        for i in 0..20u64 {
            m.enqueue(MemRequest::writeback(i, 0, i * 4096, 0));
        }
        run(&mut m, 2_000);
        let rep = m.latency_report().unwrap();
        assert_eq!(rep.cores[0].write.count(), 20);
        assert!(rep.cores[0].write.min() > 0);
        assert_eq!(rep.cores[0].read.count(), 0);
    }

    /// Migration traffic is invisible to the anatomy: it belongs to the
    /// repartitioning machinery, not to any core's demand stream.
    #[test]
    fn migration_traffic_is_not_profiled() {
        let mut m = mc_recorded(1);
        m.enqueue(MemRequest::migration(0, 0, 0x40, false, 0));
        m.enqueue(MemRequest::migration(1, 0, 0x80, true, 0));
        run(&mut m, 500);
        let rep = m.latency_report().unwrap();
        assert_eq!(rep.total_reads(), 0);
        assert_eq!(rep.cores[0].write.count(), 0);
    }

    /// A measurement-window reset drops the report but keeps in-flight
    /// accumulators, so spanning reads still satisfy the sum invariant
    /// (record_read would panic otherwise).
    #[test]
    fn window_reset_keeps_inflight_reads_sum_exact() {
        let mut m = mc_recorded(2);
        let stride = same_bank_stride();
        for i in 0..8u64 {
            m.enqueue(MemRequest::demand_read(i, (i % 2) as usize, i * stride, 0));
        }
        let mut done = Vec::new();
        m.tick(0, &mut done); // accrue some wait cycles
        m.tick(1, &mut done);
        m.reset_latency();
        for now in 2..4_000 {
            m.tick(now, &mut done);
        }
        assert_eq!(done.len(), 8);
        let rep = m.latency_report().unwrap();
        // All eight reads issued after the reset, so all land in the
        // post-reset report with exact breakdowns.
        assert_eq!(rep.total_reads(), 8);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::scheduler::{Fcfs, FrFcfs, ParBs, Tcm};
    use dbp_dram::DramConfig;
    use dbp_util::prop::{any_bool, check, range, vec_of, CaseResult, Config, Gen};
    use dbp_util::{prop_assert, prop_assert_eq};

    /// Conservation: under any scheduler and any admissible request
    /// stream, every demand read eventually completes exactly once, and
    /// every accepted request is serviced.
    /// Feed-then-drain driver; returns (completions, enqueued reads).
    fn drive(
        mc: &mut MemoryController,
        reqs: &[(usize, u64, bool)],
    ) -> Result<(Vec<Completion>, u64), String> {
        let mut done = Vec::new();
        let mut now: Cycle = 0;
        let mut enq_reads = 0u64;
        let mut id = 0u64;
        let mut queue: std::collections::VecDeque<_> = reqs.iter().copied().collect();
        // Feed requests as capacity allows, then drain.
        while !queue.is_empty() || mc.in_flight() > 0 {
            if let Some(&(thread, page, is_write)) = queue.front() {
                let addr = page << 12;
                let ch = mc.channel_of(addr);
                if mc.can_accept(ch, is_write) {
                    queue.pop_front();
                    let req = if is_write {
                        MemRequest::writeback(id, thread, addr, now)
                    } else {
                        enq_reads += 1;
                        MemRequest::demand_read(id, thread, addr, now)
                    };
                    id += 1;
                    mc.enqueue(req);
                }
            }
            mc.tick(now, &mut done);
            now += 1;
            prop_assert!(now < 500_000, "livelock: {} in flight", mc.in_flight());
        }
        Ok((done, enq_reads))
    }

    fn conservation_holds(
        sched_idx: usize,
        channels: u32,
        reqs: Vec<(usize, u64, bool)>,
    ) -> CaseResult {
        let mut mc = build_any(sched_idx, channels, false);
        let (done, enq_reads) = drive(&mut mc, &reqs)?;
        prop_assert_eq!(done.len() as u64, enq_reads, "every read completes");
        let mut ids: Vec<u64> = done.iter().map(|c| c.id).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len() as u64, enq_reads, "no duplicate completions");
        // Row classification is complete and consistent.
        let mut classified = 0;
        for t in 0..4 {
            let p = mc.prof().cumulative(t);
            classified += p.row_hits + p.row_misses + p.row_conflicts;
        }
        prop_assert_eq!(classified, mc.dram().stats().reads + mc.dram().stats().writes);

        // Latency anatomy is observation-only: re-running with a live
        // recorder changes no completion or counter, profiles every
        // demand read, and every breakdown sums exactly to its total
        // (record_read asserts per request in all build profiles).
        let mut rec = build_any(sched_idx, channels, true);
        let (done_rec, _) = drive(&mut rec, &reqs)?;
        prop_assert_eq!(&done_rec, &done, "recorder must not perturb completions");
        prop_assert_eq!(rec.stats(), mc.stats(), "recorder must not perturb counters");
        prop_assert_eq!(rec.dram().stats(), mc.dram().stats(), "nor any issued command");
        let rep = rec.latency_report().expect("recorder attached");
        prop_assert_eq!(rep.total_reads(), enq_reads, "every demand read profiled");
        for core in &rep.cores {
            prop_assert_eq!(
                core.components.iter().sum::<u64>(),
                core.read.sum(),
                "components partition the summed latency"
            );
        }
        Ok(())
    }

    #[test]
    fn all_requests_complete_under_any_scheduler() {
        let g = (
            range(0usize..7),
            range(0u32..3).map(|k| 1 << k),
            // 512 pages fit fast_test capacity
            vec_of((range(0usize..4), range(0u64..512), any_bool()), 1..40),
        );
        check(Config::cases(32), &g, |(sched_idx, channels, reqs)| {
            conservation_holds(sched_idx, channels, reqs)
        });
    }

    /// Regression: the shrunk counterexample recorded by the old proptest
    /// harness in `proptest-regressions/controller.txt` — a single FCFS
    /// demand read to the highest admissible page of the fast_test
    /// geometry (the original shrink reported page 512, one past the
    /// current 0..512 generator range; 511 is the boundary it pins).
    #[test]
    fn regression_single_read_highest_page_fcfs() {
        conservation_holds(0, 1, vec![(0, 511, false)]).unwrap();
    }

    fn build_any(idx: usize, channels: u32, recorded: bool) -> MemoryController {
        let ctrl = CtrlConfig { read_q_cap: 16, write_q_cap: 16, write_hi: 12, write_lo: 4 };
        let dram = DramConfig { channels, ..DramConfig::fast_test() };
        let rec =
            if recorded { dbp_obs::Recorder::new(Default::default()) } else { Default::default() };
        dbp_obs::observe(&rec, &dbp_obs::Prof::disabled(), || build_with(idx, dram, ctrl))
    }

    fn build_with(idx: usize, dram: DramConfig, ctrl: CtrlConfig) -> MemoryController {
        use crate::scheduler::{Atlas, Bliss, FrFcfsCap};
        let sched: Box<dyn Scheduler> = match idx {
            0 => Box::new(Fcfs),
            1 => Box::new(FrFcfs),
            2 => Box::new(FrFcfsCap::new()),
            3 => Box::new(ParBs::new(4)),
            4 => Box::new(Atlas::new(4)),
            5 => Box::new(Bliss::new(4)),
            _ => Box::new(Tcm::new(4)),
        };
        MemoryController::new(Dram::new(dram), ctrl, sched, 4)
    }

    /// Both bank indexes of every channel equal a from-scratch rebuild from
    /// the queues and the device's open rows (catches a missed
    /// `swap_remove` relabel or a stale hit bit even on an illegal slot).
    fn index_equals_rebuild(mc: &MemoryController) -> CaseResult {
        let c = mc.dram.cfg();
        let banks = (c.total_banks() / c.channels) as usize;
        let slots = mc.cfg.read_q_cap.max(mc.cfg.write_q_cap);
        let tables = mc.cand_r.iter().zip(&mc.read_q).chain(mc.cand_w.iter().zip(&mc.write_q));
        for (table, q) in tables {
            let mut want = CandTable::new(banks, c.banks_per_rank as usize, slots);
            for (i, r) in q.iter().enumerate() {
                let hit = mc.dram.open_row(r.loc()) == Some(r.row);
                want.insert(r, i, hit);
            }
            prop_assert_eq!(table, &want, "bank index (members / hits / occupied)");
        }
        Ok(())
    }

    /// The bitset-ordered `pick` returns exactly what the exhaustive
    /// queue walk does, for both queues of every channel, and the bank
    /// indexes match a rebuild, on every tick of a feed-then-drain run
    /// that also keeps the per-channel calendar memos live; returns the
    /// deepest queue seen.
    fn pick_equals_flat(
        mut mc: MemoryController,
        reqs: &[(usize, u64, bool)],
        masks: &[u64],
    ) -> Result<usize, String> {
        let channels = mc.dram.cfg().channels;
        let mut feed = reqs.iter().copied().peekable();
        let (mut done, mut deepest) = (Vec::new(), 0);
        let mut now: Cycle = 0;
        let mut id = 0u64;
        while feed.peek().is_some() || mc.in_flight() > 0 {
            for _ in 0..3 * channels {
                let Some(&(thread, page, is_write)) = feed.peek() else { break };
                let addr = page << 12;
                if !mc.can_accept(mc.channel_of(addr), is_write) {
                    break;
                }
                feed.next();
                mc.enqueue(if is_write {
                    MemRequest::writeback(id, thread, addr, now)
                } else {
                    MemRequest::demand_read(id, thread, addr, now)
                });
                id += 1;
            }
            let urgent = masks[now as usize % masks.len()];
            for (ch, is_write) in (0..channels).flat_map(|ch| [(ch, false), (ch, true)]) {
                deepest = deepest.max(mc.queue_len(ch, is_write));
                prop_assert_eq!(
                    mc.pick(ch, now, is_write, urgent),
                    mc.pick_flat(ch, now, is_write, urgent),
                    "cycle {}, channel {}, is_write {}, urgent {:#b}",
                    now,
                    ch,
                    is_write,
                    urgent
                );
            }
            prop_assert!(mc.legal.iter().all(|&w| w == [0; 3]), "pick must leave the bitset clear");
            mc.tick(now, &mut done);
            index_equals_rebuild(&mc)?;
            mc.next_event(now);
            now += 1;
            prop_assert!(now < 500_000, "livelock: {} in flight", mc.in_flight());
        }
        Ok(deepest)
    }

    #[test]
    fn pick_matches_flat_scan_for_every_scheduler_page_policy_and_queue_cap() {
        for (sched_idx, closed, cap, channels) in (0..7usize)
            .flat_map(|s| [false, true].map(|c| (s, c)))
            .flat_map(|(s, c)| [5usize, 64, 100].map(|cap| (s, c, cap)))
            .flat_map(|(s, c, cap)| [1u32, 2, 4].map(|ch| (s, c, cap, ch)))
        {
            let dram = DramConfig {
                channels,
                ranks_per_channel: 2,
                row_policy: if closed { RowPolicy::Closed } else { RowPolicy::Open },
                ..DramConfig::fast_test()
            };
            let ctrl = CtrlConfig {
                read_q_cap: cap,
                write_q_cap: cap,
                write_hi: cap * 3 / 4,
                write_lo: cap / 4,
            };
            let deepest = std::cell::Cell::new(0);
            let n = cap * channels as usize;
            let g = (
                // 1024 pages fit two fast_test ranks; enough requests to
                // fill the queues to `cap` (a partial last bitset word).
                vec_of((range(0usize..4), range(0u64..1024), any_bool()), n * 3..n * 4),
                vec_of(range(0u64..4), 1..8),
            );
            check(Config::cases(3), &g, |(reqs, masks)| {
                let mc = build_with(sched_idx, dram.clone(), ctrl);
                deepest.set(deepest.get().max(pick_equals_flat(mc, &reqs, &masks)?));
                Ok(())
            });
            assert_eq!(
                deepest.get(),
                cap,
                "scheduler {sched_idx}, {channels} channels: queues must fill"
            );
        }
    }

    /// Tentpole gate at the controller level: draining a queue by jumping
    /// from `next_event` to `next_event` (with `skip_ticks` replicating
    /// the window) must be bit-exact with ticking every cycle — same
    /// completions in the same order, same counters (including
    /// drain_cycles and BLP samples), and the same per-rank refresh
    /// deadlines (i.e. exactly the same REF count per rank, even when a
    /// jump would otherwise cross `refresh_due`).
    fn skip_equals_stepped(
        sched_idx: usize,
        channels: u32,
        recorded: bool,
        reqs: &[(usize, u64, bool)],
    ) -> CaseResult {
        let feed = |mc: &mut MemoryController| {
            let mut id = 0u64;
            for &(thread, page, is_write) in reqs {
                let addr = page << 12;
                let ch = mc.channel_of(addr);
                if !mc.can_accept(ch, is_write) {
                    continue;
                }
                let req = if is_write {
                    MemRequest::writeback(id, thread, addr, 0)
                } else {
                    MemRequest::demand_read(id, thread, addr, 0)
                };
                id += 1;
                mc.enqueue(req);
            }
        };
        let mut stepped = build_any(sched_idx, channels, recorded);
        feed(&mut stepped);
        let mut done_s = Vec::new();
        let mut now: Cycle = 0;
        while stepped.in_flight() > 0 {
            prop_assert!(now < 500_000, "stepped livelock");
            stepped.tick(now, &mut done_s);
            now += 1;
        }

        let mut skipped = build_any(sched_idx, channels, recorded);
        feed(&mut skipped);
        let mut done_k = Vec::new();
        let mut now: Cycle = 0;
        let mut jumped = false;
        while skipped.in_flight() > 0 {
            prop_assert!(now < 500_000, "skipped livelock");
            skipped.tick(now, &mut done_k);
            if skipped.in_flight() == 0 {
                // The stepped drive stops here too: a jump past the last
                // completion would charge idle ticks it never ran.
                break;
            }
            let next = skipped.next_event(now).max(now + 1);
            if next > now + 1 {
                skipped.skip_ticks(now + 1, next - (now + 1));
                jumped = true;
            }
            now = next;
        }
        prop_assert!(jumped || reqs.is_empty(), "the skipping drive must actually jump");
        prop_assert_eq!(&done_k, &done_s, "completions must match exactly");
        prop_assert_eq!(skipped.stats(), stepped.stats(), "counters must match");
        prop_assert_eq!(skipped.dram().stats(), stepped.dram().stats(), "commands must match");
        for t in 0..4 {
            prop_assert_eq!(
                stepped.prof().cumulative(t),
                skipped.prof().cumulative(t),
                "thread {} profile must match",
                t
            );
        }
        let c = stepped.dram().cfg().clone();
        for ch in 0..c.channels {
            for rank in 0..c.ranks_per_channel {
                prop_assert_eq!(
                    stepped.dram().refresh_deadline(ch, rank),
                    skipped.dram().refresh_deadline(ch, rank),
                    "REF count must match on channel {} rank {}",
                    ch,
                    rank
                );
            }
        }
        // Every histogram, stall component and interference-matrix cell.
        prop_assert_eq!(stepped.latency_report(), skipped.latency_report());
        prop_assert_eq!(stepped.latency_report().is_some(), recorded);
        Ok(())
    }

    #[test]
    fn time_skipping_is_bit_exact_under_any_scheduler() {
        let g = (
            range(0usize..7),
            range(0u32..3).map(|k| 1 << k),
            any_bool(),
            vec_of((range(0usize..4), range(0u64..512), any_bool()), 1..40),
        );
        check(Config::cases(32), &g, |(sched_idx, channels, recorded, reqs)| {
            skip_equals_stepped(sched_idx, channels, recorded, &reqs)
        });
    }

    /// A refresh deadline inside an otherwise-idle stretch must still
    /// fire exactly: with empty queues a naive jump would sail past
    /// `refresh_due`, but the calendar clamps to the deadline, the REF
    /// issues on exactly the same cycle as in the stepped core, and the
    /// per-rank deadline advances identically.
    #[test]
    fn refresh_fires_exactly_across_jumps() {
        let mut stepped = build_any(1, 1, false);
        let mut skipped = build_any(1, 1, false);
        let mut done = Vec::new();
        let horizon: Cycle = 1_000; // five fast_test tREFI periods
        for now in 0..horizon {
            stepped.tick(now, &mut done);
        }
        let mut now: Cycle = 0;
        let mut ticked = 0u64;
        while now < horizon {
            skipped.tick(now, &mut done);
            ticked += 1;
            let next = skipped.next_event(now).max(now + 1).min(horizon);
            skipped.skip_ticks(now + 1, next - (now + 1));
            now = next;
        }
        assert!(done.is_empty());
        assert_eq!(stepped.stats(), skipped.stats());
        assert_eq!(stepped.dram().stats(), skipped.dram().stats());
        assert!(stepped.dram().stats().refreshes >= 4, "horizon spans several tREFI");
        assert!(
            ticked < 2 * stepped.dram().stats().refreshes + 4,
            "idle stretches must be skipped, not stepped ({ticked} ticks)"
        );
        assert_eq!(stepped.dram().refresh_deadline(0, 0), skipped.dram().refresh_deadline(0, 0));
    }
}
