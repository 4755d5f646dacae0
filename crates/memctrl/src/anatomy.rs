//! Per-cycle latency attribution: decomposes each demand read's queueing
//! delay into additive components and charges interference cycles to the
//! core holding the contended resource.
//!
//! The controller calls [`Anatomy::attribute_cycle`] once per DRAM cycle
//! (only when telemetry is enabled — a disabled anatomy is a single
//! branch, like the rest of the recorder plumbing). For every *queued*
//! demand read the classifier decides what, this cycle, kept its next
//! command from issuing, with a fixed precedence:
//!
//! 1. its own ACT/PRE issued — intrinsic service or bank-busy;
//! 2. an older request is queued on the same bank — queue wait, charged
//!    to that request's core;
//! 3. someone else's command issued on its bank (or a refresh on its
//!    rank) — queue wait or bank-busy;
//! 4. it heads its bank queue: ask the device ([`Dram::column_gate`] /
//!    [`Dram::timing_ready`]) whether the bank, the bus, or only
//!    command-slot arbitration is in the way.
//!
//! Because a request's column issue removes it from the queue *before*
//! attribution runs, a request can accrue at most one wait-cycle per
//! cycle it spends queued, strictly fewer than its total latency (which
//! also spans CAS + burst). The remainder is the intrinsic component,
//! and the five components sum exactly to `ready_at - arrival` — an
//! invariant asserted in every build profile when the read's column
//! command issues.
//!
//! Interference matrices follow the Blacklisting observation that the
//! request that matters is each core's *oldest* outstanding read: only
//! that request charges blocked cycles to the core holding its bank
//! ([`LatencyReport::bank_interference`]) or the bus
//! (`bus_interference`). With thread-private bank partitions no other
//! core can hold your bank, so the cross-core bank matrix provably
//! zeroes while bus contention stays visible.

use dbp_dram::{ColumnGate, Command, Cycle, Dram};
use dbp_obs::latency::{LatencyReport, BANK_BUSY, BUS, INTRINSIC, QUEUE_OTHER, QUEUE_SAME};
use dbp_obs::FxHashMap;

use crate::request::{MemRequest, TrafficKind};
use crate::ThreadId;

/// What the controller issued on one channel this cycle, as seen by the
/// attribution pass.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IssuedCmd {
    pub cmd: Command,
    /// The owning core and request id; `None` for refresh work.
    pub by: Option<(ThreadId, u64)>,
}

/// Why a queued demand read did not advance this cycle.
enum Cause {
    /// Nothing to charge: its own service is in progress.
    Intrinsic,
    /// Waiting behind another queued/issued request owned by `by`.
    /// `bus` marks losses of channel arbitration (vs. bank ordering),
    /// which routes the interference charge to the bus matrix.
    Queue { by: ThreadId, bus: bool },
    /// The bank is unusable (conflict precharge, tRP/tRRD/tFAW tails,
    /// refresh); `by` is the core responsible, if attributable.
    BankBusy { by: Option<ThreadId> },
    /// Only bus-level spacing blocks it.
    Bus { by: Option<ThreadId> },
}

/// The attribution engine. Construct via `Default` (disabled) and call
/// [`Anatomy::enable`] when the controller is built under a live recorder.
#[derive(Debug, Default)]
pub struct Anatomy {
    enabled: bool,
    /// Wait-cycle accumulators per in-flight demand read id:
    /// `[queue_same, queue_other, bank_busy, bus]`.
    waits: FxHashMap<u64, [u64; 4]>,
    /// Core whose column command most recently used each channel's bus.
    bus_owner: Vec<Option<ThreadId>>,
    /// Core that activated the current/most recent row per global bank
    /// (kept across precharge so tRP tails attribute to the old owner).
    row_owner: Vec<Option<ThreadId>>,
    report: LatencyReport,
    // Per-cycle scratch, reused to avoid allocation in the hot loop.
    bank_head: Vec<Option<(Cycle, u64, ThreadId)>>,
    oldest: Vec<Option<(Cycle, u64)>>,
}

impl Anatomy {
    /// Turn the engine on, sized for the machine geometry.
    pub fn enable(&mut self, threads: usize, total_banks: usize, channels: usize) {
        self.enabled = true;
        self.bus_owner = vec![None; channels];
        self.row_owner = vec![None; total_banks];
        self.bank_head = vec![None; total_banks];
        self.oldest = vec![None; threads];
        self.report = LatencyReport::new(threads, total_banks);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The accumulated report (valid while enabled).
    pub fn report(&self) -> &LatencyReport {
        &self.report
    }

    /// Clear the measured report at a measurement-window boundary. The
    /// per-request wait accumulators survive so reads spanning the
    /// boundary still satisfy the sum invariant when they complete.
    pub fn reset_window(&mut self) {
        let (threads, banks) = (self.oldest.len(), self.row_owner.len());
        self.report = LatencyReport::new(threads, banks);
    }

    /// Start tracking a newly enqueued demand read.
    pub fn on_enqueue_read(&mut self, id: u64) {
        if self.enabled {
            self.waits.insert(id, [0; 4]);
        }
    }

    /// Note a row activation on `gbank` by `thread`.
    pub fn note_activate(&mut self, gbank: usize, thread: ThreadId) {
        if self.enabled {
            self.row_owner[gbank] = Some(thread);
        }
    }

    /// Note a column command by `thread` occupying `channel`'s bus.
    pub fn note_column(&mut self, channel: usize, thread: ThreadId) {
        if self.enabled {
            self.bus_owner[channel] = Some(thread);
        }
    }

    /// A demand read's column command issued: close its breakdown.
    ///
    /// # Panics
    ///
    /// Panics in every build profile if the accumulated wait cycles
    /// exceed the total latency — the breakdown must partition it.
    pub fn on_read_issued(&mut self, id: u64, thread: ThreadId, gbank: usize, total: u64) {
        if !self.enabled {
            return;
        }
        let w = self.waits.remove(&id).unwrap_or([0; 4]);
        let waited: u64 = w.iter().sum();
        assert!(waited <= total, "read {id}: waited {waited} cycles but total latency is {total}");
        let mut components = [0u64; 5];
        components[QUEUE_SAME] = w[0];
        components[QUEUE_OTHER] = w[1];
        components[BANK_BUSY] = w[2];
        components[BUS] = w[3];
        components[INTRINSIC] = total - waited;
        self.report.record_read(thread, gbank, total, components);
    }

    /// A writeback's column command issued: record its latency.
    pub fn on_write_issued(&mut self, thread: ThreadId, total: u64) {
        if self.enabled {
            self.report.record_write(thread, total);
        }
    }

    /// Pass 1 of both attribution forms: the oldest queued request per
    /// bank (the blocker a younger same-bank request waits behind) and
    /// the oldest queued demand read per core (the interference-matrix
    /// subject).
    fn scan_heads(&mut self, dram: &Dram, read_q: &[Vec<MemRequest>]) {
        self.bank_head.fill(None);
        self.oldest.fill(None);
        for r in read_q.iter().flatten() {
            let g = dram.cfg().flat_bank(r.loc());
            let key = (r.arrival, r.id);
            if self.bank_head[g].is_none_or(|(a, i, _)| key < (a, i)) {
                self.bank_head[g] = Some((r.arrival, r.id, r.thread));
            }
            if r.kind == TrafficKind::Demand && self.oldest[r.thread].is_none_or(|o| key < o) {
                self.oldest[r.thread] = Some(key);
            }
        }
    }

    /// Charge `len` cycles of `cause` to `r`'s wait components and, if
    /// `r` is its core's oldest read, to the interfering core's matrix
    /// entry.
    fn charge(&mut self, r: &MemRequest, cause: Cause, len: u64) {
        let (component, charge) = match cause {
            Cause::Intrinsic => (None, None),
            Cause::Queue { by, bus } => {
                let c = if by == r.thread { 0 } else { 1 };
                (Some(c), Some((bus, by)))
            }
            Cause::BankBusy { by } => (Some(2), by.map(|j| (false, j))),
            Cause::Bus { by } => (Some(3), by.map(|j| (true, j))),
        };
        if let Some(c) = component {
            if let Some(w) = self.waits.get_mut(&r.id) {
                w[c] += len;
            }
        }
        if self.oldest[r.thread] == Some((r.arrival, r.id)) {
            if let Some((bus, holder)) = charge {
                if bus {
                    self.report.bus_interference.add(r.thread, holder, len);
                } else {
                    self.report.bank_interference.add(r.thread, holder, len);
                }
            }
        }
    }

    /// Charge one stall cycle to each queued demand read (and, for each
    /// core's oldest read, to the interfering core's matrix entry).
    /// `issued` is what each channel issued this cycle, if anything.
    pub(crate) fn attribute_cycle(
        &mut self,
        now: Cycle,
        dram: &Dram,
        read_q: &[Vec<MemRequest>],
        issued: &[Option<IssuedCmd>],
    ) {
        self.scan_heads(dram, read_q);
        // Pass 2: classify each queued demand read's stall this cycle.
        for (chi, q) in read_q.iter().enumerate() {
            let ch_issued = issued.get(chi).copied().flatten();
            for r in q.iter().filter(|r| r.kind == TrafficKind::Demand) {
                let (cause, _) = self.classify(now, dram, r, ch_issued);
                self.charge(r, cause, 1);
            }
        }
    }

    /// Bulk-equivalent of `count` consecutive [`Anatomy::attribute_cycle`]
    /// calls over `[from, from + count)` in which **nothing issued** on
    /// any channel and the queues did not change.
    ///
    /// Under those preconditions the per-cycle classification is
    /// piecewise-constant with at most one transition per request: a
    /// request behind an older same-bank request (or facing a foreign
    /// open row) keeps the same cause all window, while a bank-gated
    /// request (tRCD tail, refresh recovery, or a closed bank's ACT
    /// spacing) switches to a pure bus/arbitration wait the cycle the
    /// bank-side constraint clears — the boundary [`Anatomy::classify`]
    /// reports beside the cause.
    pub(crate) fn attribute_span(
        &mut self,
        from: Cycle,
        count: Cycle,
        dram: &Dram,
        read_q: &[Vec<MemRequest>],
    ) {
        if count == 0 {
            return;
        }
        self.scan_heads(dram, read_q);
        let end = from + count;
        for r in read_q.iter().flatten().filter(|r| r.kind == TrafficKind::Demand) {
            // The window's first cycle decides the cause; it holds until
            // the bank-side gate (if that is the cause) clears.
            let (first, clears_at) = self.classify(from, dram, r, None);
            let len1 = clears_at.map_or(count, |b| b.min(end) - from);
            let bus_after = Cause::Bus { by: self.bus_owner[r.channel as usize] };
            for (len, cause) in [(len1, first), (count - len1, bus_after)] {
                if len > 0 {
                    self.charge(r, cause, len);
                }
            }
        }
    }

    /// Decide what kept `r` from advancing at cycle `now` (precedence in
    /// the module docs). When the cause is a bank-side timing gate, also
    /// report the cycle (`> now`) it clears: with nothing issuing in
    /// between, the cause holds up to that cycle and is a pure
    /// bus/arbitration wait from it on.
    fn classify(
        &self,
        now: Cycle,
        dram: &Dram,
        r: &MemRequest,
        ch_issued: Option<IssuedCmd>,
    ) -> (Cause, Option<Cycle>) {
        let loc = r.loc();
        let gbank = dram.cfg().flat_bank(loc);
        let bank_busy = Cause::BankBusy { by: self.row_owner[gbank] };
        // 1. Our own ACT/PRE issued: service in progress (a PRE for a row
        // conflict still counts against the bank's previous owner).
        if let Some(ic) = ch_issued {
            if ic.by.is_some_and(|(_, id)| id == r.id) {
                let own_precharge = matches!(ic.cmd, Command::Precharge { .. });
                return (if own_precharge { bank_busy } else { Cause::Intrinsic }, None);
            }
        }
        // 2. An older request queued on the same bank goes first.
        if let Some((a, i, t)) = self.bank_head[gbank] {
            if (a, i) < (r.arrival, r.id) {
                return (Cause::Queue { by: t, bus: false }, None);
            }
        }
        // 3. Someone else's command landed on our bank (e.g. a draining
        // write, or a younger row-hit read preferred by FR-FCFS), or a
        // refresh took our rank.
        if let Some(ic) = ch_issued {
            if matches!(ic.cmd, Command::RefreshRank { rank, .. } if rank == r.rank) {
                return (Cause::BankBusy { by: None }, None);
            }
            if ic.cmd.loc() == Some(loc) {
                let cause = match ic.by {
                    Some((j, _)) => Cause::Queue { by: j, bus: false },
                    // Refresh-preparation precharge.
                    None => Cause::BankBusy { by: None },
                };
                return (cause, None);
            }
        }
        // 4. We head our bank's queue: ask the device what gates us.
        match dram.open_row(loc) {
            Some(row) if row == r.row => match dram.column_gate(loc, now) {
                Some(ColumnGate::Bank(clears_at)) => {
                    // tRCD after our own activate is intrinsic service.
                    let own_row = self.row_owner[gbank] == Some(r.thread);
                    (if own_row { Cause::Intrinsic } else { bank_busy }, Some(clears_at))
                }
                Some(ColumnGate::Bus) => {
                    (Cause::Bus { by: self.bus_owner[r.channel as usize] }, None)
                }
                Some(ColumnGate::Ready) | None => (self.arbitration_loss(r, ch_issued), None),
            },
            // Another row is open: conflict, blamed on whoever opened it
            // (the diagonal is allowed — own-thread conflicts count too,
            // but only off-diagonals are cross-core interference).
            Some(_) => (bank_busy, None),
            None => {
                let act = Command::Activate { loc, row: r.row };
                let ready_at =
                    dram.timing_ready(&act, now).expect("closed bank accepts an activate");
                if ready_at > now {
                    // tRP tail, tRRD/tFAW spacing, or refresh window.
                    (bank_busy, Some(ready_at))
                } else {
                    (self.arbitration_loss(r, ch_issued), None)
                }
            }
        }
    }

    /// The device was ready but the command slot went elsewhere (or the
    /// controller was draining writes).
    fn arbitration_loss(&self, r: &MemRequest, ch_issued: Option<IssuedCmd>) -> Cause {
        match ch_issued {
            Some(IssuedCmd { by: Some((j, _)), .. }) => Cause::Queue { by: j, bus: true },
            // A refresh-driven command won the slot.
            Some(_) => Cause::BankBusy { by: None },
            // Nothing issued at all (e.g. a write drain with no issuable
            // write): the channel slot was effectively held by whoever
            // last used the bus.
            None => Cause::Bus { by: self.bus_owner[r.channel as usize] },
        }
    }
}
