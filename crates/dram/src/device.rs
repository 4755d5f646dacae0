//! The DRAM device: accepts commands, enforces every timing constraint,
//! and reports data-return times.

use std::cell::Cell;

use crate::address::AddressMapper;
use crate::command::{Command, Loc};
use crate::config::DramConfig;
use crate::state::{BankState, ChannelState, RankState};
use crate::stats::DramStats;
use crate::Cycle;

/// Outcome of a successfully issued command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueResult {
    /// For column commands, the cycle the data burst completes (read data
    /// available / write data absorbed). `None` for other commands.
    pub data_ready_at: Option<Cycle>,
}

/// The resource class gating a row-hit read, as reported by
/// [`Dram::column_gate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnGate {
    /// Every timing constraint except command-bus arbitration holds.
    Ready,
    /// The bank is not ready before the given cycle: tRCD after its
    /// activate, or rank refresh.
    Bank(Cycle),
    /// Only bus-level spacing blocks it: tCCD, write-to-read turnaround,
    /// data-bus occupancy, or the rank-switch penalty.
    Bus,
}

/// A multi-channel DDR3 device.
///
/// The device is passive: the memory controller polls [`Dram::can_issue`]
/// (or [`Dram::earliest_issue`]) and calls [`Dram::issue`]. All times are
/// DRAM bus cycles. Issuing a command that violates a constraint is a
/// programming error and panics in debug builds.
#[derive(Debug, Clone)]
pub struct Dram {
    cfg: DramConfig,
    mapper: AddressMapper,
    channels: Vec<ChannelState>,
    ranks: Vec<RankState>,   // [channel * ranks + rank]
    banks: Vec<BankState>,   // [(channel * ranks + rank) * banks + bank]
    refresh_due: Vec<Cycle>, // per rank, absolute deadline of next REF
    stats: DramStats,
    /// Host work counter, see [`Dram::timing_queries`]. A `Cell` because
    /// the oracle it counts takes `&self`.
    timing_queries: Cell<u64>,
}

impl Dram {
    /// Build a device for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`DramConfig::validate`].
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate().expect("invalid DramConfig");
        let mapper = AddressMapper::new(&cfg);
        let nch = cfg.channels as usize;
        let nra = nch * cfg.ranks_per_channel as usize;
        let nba = nra * cfg.banks_per_rank as usize;
        let t_refi = Cycle::from(cfg.timing.t_refi);
        Dram {
            channels: vec![ChannelState::default(); nch],
            ranks: vec![RankState::default(); nra],
            banks: vec![BankState::default(); nba],
            refresh_due: vec![t_refi; nra],
            stats: DramStats::new(nba),
            mapper,
            cfg,
            timing_queries: Cell::new(0),
        }
    }

    /// How often something has asked the timing oracle
    /// ([`Dram::timing_ready`] and its callers): the legality re-check in
    /// [`Dram::issue`], refresh, and the latency anatomy. The
    /// controller's candidate scan reads [`Dram::channel_banks`] and
    /// [`Dram::rank_gates`] instead and is not counted. Host work, not
    /// simulated state: nothing simulated reads it.
    pub fn timing_queries(&self) -> u64 {
        self.timing_queries.get()
    }

    /// The device configuration.
    pub fn cfg(&self) -> &DramConfig {
        &self.cfg
    }

    /// The address mapper for this device's layout.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Data-bus cycles before cycle `t`, summed over channels, each burst
    /// counted over the cycles its data occupies the bus. A window
    /// `[a, b)` therefore holds at most `b - a` busy cycles per channel,
    /// which [`DramStats::data_bus_busy`] — whole bursts, charged at
    /// issue — does not promise. `t` must follow every command issued.
    pub fn data_bus_busy_before(&self, t: Cycle) -> Cycle {
        let after: Cycle = self.channels.iter().map(|ch| ch.busy_from(t)).sum();
        self.stats.data_bus_busy - after
    }

    #[inline]
    fn rank_idx(&self, channel: u32, rank: u32) -> usize {
        (channel * self.cfg.ranks_per_channel + rank) as usize
    }

    #[inline]
    fn bank_idx(&self, loc: Loc) -> usize {
        self.cfg.flat_bank(loc)
    }

    /// The row currently open in the addressed bank, if any.
    #[inline]
    pub fn open_row(&self, loc: Loc) -> Option<u32> {
        self.banks[self.bank_idx(loc)].open_row
    }

    /// The bank states of `channel`, indexed `rank * banks_per_rank + bank`:
    /// each bank's open row and its own deadlines (`next_act`,
    /// `next_read`, `next_write`, `next_pre`), which change only when a
    /// command hits that bank.
    #[inline]
    pub fn channel_banks(&self, channel: u32) -> &[BankState] {
        let n = (self.cfg.ranks_per_channel * self.cfg.banks_per_rank) as usize;
        &self.banks[channel as usize * n..][..n]
    }

    /// The rank half of [`Dram::timing_ready`], indexed like a bank's
    /// deadlines `[act, read, write, pre]`: the earliest cycle an ACT
    /// (tRRD, tFAW), READ (tWTR, tCCD, data-bus occupancy and rank
    /// switch), WRITE (read-to-write turnaround, tCCD, data bus) or PRE to
    /// any bank of (`channel`, `rank`) clears every constraint above the
    /// bank, refresh (tRFC) included. For a bank in the state the command
    /// needs (closed for ACT, open otherwise), the command's timing-ready
    /// cycle is the later of this gate and the bank's own deadline.
    #[inline]
    pub fn rank_gates(&self, channel: u32, rank: u32) -> [Cycle; 4] {
        let t = &self.cfg.timing;
        let r = &self.ranks[self.rank_idx(channel, rank)];
        let ch = &self.channels[channel as usize];
        let faw = match r.act_window.len() {
            n if n >= 4 => r.act_window[n - 4] + Cycle::from(t.t_faw),
            _ => 0,
        };
        let data = ch.data_start(rank, t.t_rtrs);
        [
            r.next_act.max(faw).max(r.refresh_done),
            r.next_read
                .max(ch.next_read)
                .max(r.refresh_done)
                .max(data.saturating_sub(Cycle::from(t.cl))),
            ch.next_write.max(r.refresh_done).max(data.saturating_sub(Cycle::from(t.cwl))),
            r.refresh_done,
        ]
    }

    /// Whether the command bus of `channel` can accept a command at `now`.
    pub fn cmd_bus_free(&self, channel: u32, now: Cycle) -> bool {
        self.channels[channel as usize].cmd_free(now)
    }

    /// Earliest cycle `>= now` at which `cmd` satisfies every timing
    /// constraint, including the one-command-per-cycle command bus.
    ///
    /// Returns `None` when the command is structurally impossible right now
    /// (activating an already-open bank, reading a closed or mismatched
    /// bank, refreshing a rank with open rows).
    #[inline]
    pub fn earliest_issue(&self, cmd: &Command, now: Cycle) -> Option<Cycle> {
        let mut at = self.timing_ready(cmd, now)?;
        if self.channels[cmd.channel() as usize].last_cmd_at == Some(at) {
            at += 1;
        }
        Some(at)
    }

    /// Earliest cycle `>= now` at which `cmd` satisfies every bank / rank /
    /// data-bus timing constraint, ignoring command-bus arbitration
    /// ([`Dram::earliest_issue`] adds that). The latency-anatomy
    /// classifier uses it to separate "the device is not ready" from
    /// "another command won the slot". Written out per command as the
    /// reference that [`Dram::rank_gates`] + [`Dram::channel_banks`] are
    /// checked against.
    #[inline]
    pub fn timing_ready(&self, cmd: &Command, now: Cycle) -> Option<Cycle> {
        self.timing_queries.set(self.timing_queries.get() + 1);
        let t = &self.cfg.timing;
        match *cmd {
            Command::Activate { loc, .. } => {
                let b = &self.banks[self.bank_idx(loc)];
                if b.open_row.is_some() {
                    return None;
                }
                let r = &self.ranks[self.rank_idx(loc.channel, loc.rank)];
                let mut at = now.max(b.next_act).max(r.next_act).max(r.refresh_done);
                if r.act_window.len() >= 4 {
                    at = at.max(r.act_window[r.act_window.len() - 4] + Cycle::from(t.t_faw));
                }
                Some(at)
            }
            Command::Read { loc, .. } => {
                let b = &self.banks[self.bank_idx(loc)];
                b.open_row?;
                let r = &self.ranks[self.rank_idx(loc.channel, loc.rank)];
                let ch = &self.channels[loc.channel as usize];
                let mut at =
                    now.max(b.next_read).max(r.next_read).max(ch.next_read).max(r.refresh_done);
                // Data must start when the bus is free.
                let data_earliest = ch.data_start(loc.rank, t.t_rtrs);
                at = at.max(data_earliest.saturating_sub(Cycle::from(t.cl)));
                Some(at)
            }
            Command::Write { loc, .. } => {
                let b = &self.banks[self.bank_idx(loc)];
                b.open_row?;
                let r = &self.ranks[self.rank_idx(loc.channel, loc.rank)];
                let ch = &self.channels[loc.channel as usize];
                let mut at = now.max(b.next_write).max(ch.next_write).max(r.refresh_done);
                let data_earliest = ch.data_start(loc.rank, t.t_rtrs);
                at = at.max(data_earliest.saturating_sub(Cycle::from(t.cwl)));
                Some(at)
            }
            Command::Precharge { loc } => {
                let b = &self.banks[self.bank_idx(loc)];
                b.open_row?;
                let r = &self.ranks[self.rank_idx(loc.channel, loc.rank)];
                Some(now.max(b.next_pre).max(r.refresh_done))
            }
            Command::RefreshRank { channel, rank } => {
                let ri = self.rank_idx(channel, rank);
                let base = ri * self.cfg.banks_per_rank as usize;
                let mut at = now.max(self.ranks[ri].refresh_done);
                for b in &self.banks[base..base + self.cfg.banks_per_rank as usize] {
                    if b.open_row.is_some() {
                        return None;
                    }
                    at = at.max(b.next_act);
                }
                Some(at)
            }
        }
    }

    /// Whether `cmd` may issue exactly at `now` (including the command bus).
    #[inline]
    pub fn can_issue(&self, cmd: &Command, now: Cycle) -> bool {
        if !self.cmd_bus_free(cmd.channel(), now) {
            return false;
        }
        matches!(self.earliest_issue(cmd, now), Some(at) if at == now)
    }

    /// Which resource class is gating a row-hit read of the bank at `loc`
    /// at `now`: [`ColumnGate::Bank`] when the bank itself is not ready
    /// (tRCD after ACT, rank refresh; it carries the cycle that gate
    /// clears, so a time-skipping caller finds the class transition inside
    /// a window in which no command issues with this one query),
    /// [`ColumnGate::Bus`] when only data/command-bus spacing blocks it
    /// (tCCD, write-to-read turnaround, burst occupancy, rank-switch
    /// penalty), [`ColumnGate::Ready`] when every constraint except
    /// command-bus arbitration is satisfied. `None` when the bank has no
    /// open row.
    pub fn column_gate(&self, loc: Loc, now: Cycle) -> Option<ColumnGate> {
        let b = &self.banks[self.bank_idx(loc)];
        b.open_row?;
        let t = &self.cfg.timing;
        let r = &self.ranks[self.rank_idx(loc.channel, loc.rank)];
        let bank_ready = b.next_read.max(r.refresh_done);
        if bank_ready > now {
            return Some(ColumnGate::Bank(bank_ready));
        }
        let ch = &self.channels[loc.channel as usize];
        let data_gate = ch.data_start(loc.rank, t.t_rtrs).saturating_sub(Cycle::from(t.cl));
        if r.next_read.max(ch.next_read).max(data_gate) > now {
            return Some(ColumnGate::Bus);
        }
        Some(ColumnGate::Ready)
    }

    /// Issue `cmd` at `now`, updating all timing state.
    ///
    /// Returns the data completion time for column commands.
    ///
    /// # Panics
    ///
    /// Panics (in all builds) if the command violates a timing or state
    /// constraint — the controller must check [`Dram::can_issue`] first.
    pub fn issue(&mut self, cmd: &Command, now: Cycle) -> IssueResult {
        assert!(self.can_issue(cmd, now), "illegal command {cmd:?} at cycle {now}");
        let t = self.cfg.timing;
        self.channels[cmd.channel() as usize].last_cmd_at = Some(now);
        match *cmd {
            Command::Activate { loc, row } => {
                let ri = self.rank_idx(loc.channel, loc.rank);
                let bi = self.bank_idx(loc);
                let b = &mut self.banks[bi];
                b.open_row = Some(row);
                b.next_read = now + Cycle::from(t.t_rcd);
                b.next_write = now + Cycle::from(t.t_rcd);
                b.next_pre = now + Cycle::from(t.t_ras);
                b.next_act = now + Cycle::from(t.t_rc);
                let r = &mut self.ranks[ri];
                r.next_act = now + Cycle::from(t.t_rrd);
                r.record_act(now, t.t_faw);
                self.stats.record_activate(bi);
                IssueResult { data_ready_at: None }
            }
            Command::Read { loc, auto_pre, .. } => {
                let bi = self.bank_idx(loc);
                let data_start = now + Cycle::from(t.cl);
                let data_end = data_start + Cycle::from(t.t_burst);
                let ch = &mut self.channels[loc.channel as usize];
                debug_assert!(data_start >= ch.data_start(loc.rank, t.t_rtrs));
                ch.record_burst(now, loc.rank, data_start, data_end);
                // Read-to-write turnaround on the channel.
                ch.next_write = ch.next_write.max(now + Cycle::from(t.read_to_write()));
                // Back-to-back column spacing.
                ch.next_read = ch.next_read.max(now + Cycle::from(t.t_ccd));
                let b = &mut self.banks[bi];
                b.next_pre = b.next_pre.max(now + Cycle::from(t.t_rtp));
                if auto_pre {
                    let pre_at = b.next_pre;
                    b.open_row = None;
                    b.next_act = b.next_act.max(pre_at + Cycle::from(t.t_rp));
                    self.stats.record_precharge(bi);
                }
                self.stats.record_read(bi, t.t_burst);
                IssueResult { data_ready_at: Some(data_end) }
            }
            Command::Write { loc, auto_pre, .. } => {
                let bi = self.bank_idx(loc);
                let ri = self.rank_idx(loc.channel, loc.rank);
                let data_start = now + Cycle::from(t.cwl);
                let data_end = data_start + Cycle::from(t.t_burst);
                let ch = &mut self.channels[loc.channel as usize];
                debug_assert!(data_start >= ch.data_start(loc.rank, t.t_rtrs));
                ch.record_burst(now, loc.rank, data_start, data_end);
                ch.next_write = ch.next_write.max(now + Cycle::from(t.t_ccd));
                // Write-to-read turnaround within the rank.
                let r = &mut self.ranks[ri];
                r.next_read = r.next_read.max(data_end + Cycle::from(t.t_wtr));
                let b = &mut self.banks[bi];
                b.next_pre = b.next_pre.max(data_end + Cycle::from(t.t_wr));
                if auto_pre {
                    let pre_at = b.next_pre;
                    b.open_row = None;
                    b.next_act = b.next_act.max(pre_at + Cycle::from(t.t_rp));
                    self.stats.record_precharge(bi);
                }
                self.stats.record_write(bi, t.t_burst);
                IssueResult { data_ready_at: Some(data_end) }
            }
            Command::Precharge { loc } => {
                let bi = self.bank_idx(loc);
                let b = &mut self.banks[bi];
                b.open_row = None;
                b.next_act = b.next_act.max(now + Cycle::from(t.t_rp));
                self.stats.record_precharge(bi);
                IssueResult { data_ready_at: None }
            }
            Command::RefreshRank { channel, rank } => {
                let ri = self.rank_idx(channel, rank);
                // The rank's one record of tRFC: every command's timing
                // includes `refresh_done`, so no bank deadline repeats it.
                let r = &mut self.ranks[ri];
                r.refresh_done = now + Cycle::from(t.t_rfc);
                self.refresh_due[ri] += Cycle::from(t.t_refi);
                self.stats.record_refresh();
                IssueResult { data_ready_at: None }
            }
        }
    }

    /// Absolute deadline by which the next REF of (channel, rank) should
    /// issue.
    #[inline]
    pub fn refresh_deadline(&self, channel: u32, rank: u32) -> Cycle {
        self.refresh_due[self.rank_idx(channel, rank)]
    }

    /// Whether the rank's refresh is due at or before `now`.
    #[inline]
    pub fn refresh_urgent(&self, channel: u32, rank: u32, now: Cycle) -> bool {
        now >= self.refresh_deadline(channel, rank)
    }

    /// Banks of (channel, rank) that currently hold an open row — these
    /// must be precharged before a refresh.
    pub fn open_banks(&self, channel: u32, rank: u32) -> impl Iterator<Item = u32> + '_ {
        let ri = self.rank_idx(channel, rank);
        let base = ri * self.cfg.banks_per_rank as usize;
        (0..self.cfg.banks_per_rank)
            .filter(move |&b| self.banks[base + b as usize].open_row.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn dev() -> Dram {
        Dram::new(DramConfig::fast_test())
    }

    fn t() -> TimingParams {
        TimingParams::fast_test()
    }

    #[test]
    fn activate_then_read_obeys_trcd() {
        let mut d = dev();
        let act = Command::activate(0, 0, 0, 5);
        assert!(d.can_issue(&act, 0));
        d.issue(&act, 0);
        let rd = Command::read(0, 0, 0, 5, 0, false);
        // tRCD = 2: read legal at cycle 2, not before.
        assert!(!d.can_issue(&rd, 1));
        assert_eq!(d.earliest_issue(&rd, 0), Some(Cycle::from(t().t_rcd)));
        let r = d.issue(&rd, 2);
        assert_eq!(r.data_ready_at, Some(2 + Cycle::from(t().cl + t().t_burst)));
    }

    #[test]
    fn read_requires_open_row() {
        let d = dev();
        let rd = Command::read(0, 0, 0, 5, 0, false);
        assert_eq!(d.earliest_issue(&rd, 0), None);
    }

    #[test]
    fn activate_blocked_while_row_open() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 0, 5), 0);
        assert_eq!(d.earliest_issue(&Command::activate(0, 0, 0, 6), 10), None);
    }

    #[test]
    fn precharge_respects_tras_then_act_tr() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 0, 5), 0);
        let pre = Command::precharge(0, 0, 0);
        // tRAS = 5.
        assert_eq!(d.earliest_issue(&pre, 0), Some(5));
        d.issue(&pre, 5);
        let act = Command::activate(0, 0, 0, 6);
        // After PRE at 5, ACT at 5 + tRP = 7; also tRC = 7 from cycle 0.
        assert_eq!(d.earliest_issue(&act, 0), Some(7));
    }

    #[test]
    fn same_rank_activates_spaced_by_trrd() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 0, 1), 0);
        let act2 = Command::activate(0, 0, 1, 1);
        assert_eq!(d.earliest_issue(&act2, 0), Some(Cycle::from(t().t_rrd)));
    }

    #[test]
    fn faw_limits_burst_of_activates() {
        let mut d = dev();
        let mut now = 0;
        for b in 0..4 {
            let act = Command::activate(0, 0, b, 1);
            now = d.earliest_issue(&act, now).unwrap();
            d.issue(&act, now);
        }
        // 4 activates at 0,2,4,6 (tRRD=2). A 5th (re-activate bank 0 after
        // closing it) must wait for tFAW = 8 from the first.
        let pre = Command::precharge(0, 0, 0);
        let pre_at = d.earliest_issue(&pre, now).unwrap();
        d.issue(&pre, pre_at);
        let act5 = Command::activate(0, 0, 0, 2);
        let at = d.earliest_issue(&act5, pre_at).unwrap();
        assert!(at >= Cycle::from(t().t_faw));
    }

    #[test]
    fn data_bus_serialises_reads() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 0, 1), 0);
        let act2 = Command::activate(0, 0, 1, 1);
        let a2 = d.earliest_issue(&act2, 0).unwrap();
        d.issue(&act2, a2);
        let rd0 = Command::read(0, 0, 0, 1, 0, false);
        let t0 = d.earliest_issue(&rd0, 0).unwrap();
        let r0 = d.issue(&rd0, t0);
        let rd1 = Command::read(0, 0, 1, 1, 0, false);
        let t1 = d.earliest_issue(&rd1, t0).unwrap();
        let r1 = d.issue(&rd1, t1);
        // Bursts must not overlap.
        assert!(r1.data_ready_at.unwrap() >= r0.data_ready_at.unwrap() + Cycle::from(t().t_burst));
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 0, 1), 0);
        let wr = Command::write(0, 0, 0, 0, false);
        let tw = d.earliest_issue(&wr, 0).unwrap();
        let res = d.issue(&wr, tw);
        let data_end = res.data_ready_at.unwrap();
        let rd = Command::read(0, 0, 0, 1, 1, false);
        let tr = d.earliest_issue(&rd, tw).unwrap();
        assert!(tr >= data_end + Cycle::from(t().t_wtr));
    }

    #[test]
    fn auto_precharge_closes_row() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 0, 1), 0);
        let rd = Command::read(0, 0, 0, 1, 0, true);
        let tr = d.earliest_issue(&rd, 0).unwrap();
        d.issue(&rd, tr);
        assert_eq!(d.open_row(Loc::new(0, 0, 0)), None);
        // Row can be re-activated, but only after tRTP + tRP from the read.
        let act = Command::activate(0, 0, 0, 2);
        let ta = d.earliest_issue(&act, tr).unwrap();
        assert!(ta >= tr + Cycle::from(t().t_rtp + t().t_rp));
    }

    #[test]
    fn refresh_requires_all_banks_closed() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 2, 1), 0);
        let rf = Command::RefreshRank { channel: 0, rank: 0 };
        assert_eq!(d.earliest_issue(&rf, 0), None);
        assert_eq!(d.open_banks(0, 0).collect::<Vec<_>>(), vec![2]);
        let pre = Command::precharge(0, 0, 2);
        let tp = d.earliest_issue(&pre, 0).unwrap();
        d.issue(&pre, tp);
        let tr = d.earliest_issue(&rf, tp).unwrap();
        d.issue(&rf, tr);
        // All banks blocked for tRFC.
        let act = Command::activate(0, 0, 0, 1);
        assert_eq!(d.earliest_issue(&act, tr), Some(tr + Cycle::from(t().t_rfc)));
        // Deadline advanced by tREFI.
        assert_eq!(d.refresh_deadline(0, 0), Cycle::from(t().t_refi) * 2);
    }

    #[test]
    fn command_bus_one_per_cycle() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 0, 1), 0);
        // Another command on the same channel in the same cycle is illegal
        // even if its bank-level timing allows it.
        let act2 = Command::activate(0, 0, 1, 1);
        assert!(!d.can_issue(&act2, 0));
    }

    #[test]
    #[should_panic(expected = "illegal command")]
    fn issuing_illegal_command_panics() {
        let mut d = dev();
        d.issue(&Command::read(0, 0, 0, 0, 0, false), 0);
    }

    #[test]
    fn column_gate_tracks_bank_then_bus_then_ready() {
        let mut d = dev();
        let loc = Loc::new(0, 0, 0);
        // Closed bank: no gate at all.
        assert_eq!(d.column_gate(loc, 0), None);
        d.issue(&Command::activate(0, 0, 0, 5), 0);
        // During tRCD the bank itself is not ready, and says until when.
        let ready_at = Cycle::from(t().t_rcd);
        assert_eq!(d.column_gate(loc, ready_at - 1), Some(ColumnGate::Bank(ready_at)));
        assert_eq!(d.column_gate(loc, ready_at), Some(ColumnGate::Ready));
        d.issue(&Command::read(0, 0, 0, 5, 0, false), ready_at);
        // Immediately after a read, only column/bus spacing (tCCD, data
        // burst) blocks the next read on the same open row.
        assert_eq!(d.column_gate(loc, ready_at + 1), Some(ColumnGate::Bus));
    }

    #[test]
    fn column_gate_reports_bank_during_refresh() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 1, 5), 0);
        let pre = Command::precharge(0, 0, 1);
        let tp = d.earliest_issue(&pre, 0).unwrap();
        d.issue(&pre, tp);
        let rf = Command::RefreshRank { channel: 0, rank: 0 };
        let tr = d.earliest_issue(&rf, tp).unwrap();
        d.issue(&rf, tr);
        // Open a row elsewhere is impossible during tRFC, so emulate a
        // pre-refresh open row by checking timing_ready on an ACT.
        let act = Command::activate(0, 0, 0, 3);
        let recovered = tr + Cycle::from(t().t_rfc);
        assert_eq!(d.timing_ready(&act, tr + 1), Some(recovered));
        assert_eq!(d.timing_ready(&act, recovered), Some(recovered));
    }

    #[test]
    fn timing_ready_ignores_command_bus() {
        let mut d = dev();
        d.issue(&Command::activate(0, 0, 0, 5), 0);
        // Same cycle: the command bus is taken, but bank timing for an
        // ACT on another bank is satisfied.
        let act2 = Command::activate(0, 0, 2, 1);
        assert!(!d.can_issue(&act2, 0), "command bus busy");
        // tRRD pushes the other bank's ACT out; at tRRD it is timing-ready.
        assert_eq!(d.timing_ready(&act2, 0), Some(Cycle::from(t().t_rrd)));
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::config::DramConfig;
    use dbp_util::prop::{any_bool, check, one_of, range, vec_of, BoxedGen, Config, Gen};
    use dbp_util::prop_assert;

    #[derive(Debug, Clone)]
    enum Op {
        Touch { bank: u32, row: u32, column: u32, write: bool },
        Close { bank: u32 },
    }

    fn arb_op() -> impl Gen<Value = Op> {
        one_of::<Op>(vec![
            (range(0u32..4), range(0u32..64), range(0u32..32), any_bool())
                .map(|(bank, row, column, write)| Op::Touch { bank, row, column, write })
                .boxed() as BoxedGen<Op>,
            range(0u32..4).map(|bank| Op::Close { bank }).boxed(),
        ])
    }

    /// Drive a random but legal command stream and check global
    /// invariants: data bursts never overlap on the channel bus and
    /// reads always return data after their issue time.
    #[test]
    fn random_legal_streams_keep_bus_exclusive() {
        check(Config::cases(48), &vec_of(arb_op(), 1..60), |ops| {
            let mut d = Dram::new(DramConfig::fast_test());
            let mut now: Cycle = 0;
            let mut bursts: Vec<(Cycle, Cycle)> = Vec::new();
            let t_burst = Cycle::from(d.cfg().timing.t_burst);
            for op in ops {
                match op {
                    Op::Touch { bank, row, column, write } => {
                        let loc = Loc::new(0, 0, bank);
                        if let Some(open) = d.open_row(loc) {
                            if open != row {
                                let pre = Command::precharge(0, 0, bank);
                                now = d.earliest_issue(&pre, now).unwrap();
                                d.issue(&pre, now);
                            }
                        }
                        if d.open_row(loc).is_none() {
                            let act = Command::Activate { loc, row };
                            now = d.earliest_issue(&act, now).unwrap();
                            d.issue(&act, now);
                        }
                        let col = if write {
                            Command::Write { loc, column, auto_pre: false }
                        } else {
                            Command::Read { loc, column, auto_pre: false }
                        };
                        let at = d.earliest_issue(&col, now).unwrap();
                        let res = d.issue(&col, at);
                        let end = res.data_ready_at.unwrap();
                        prop_assert!(end > at, "data must follow the command");
                        bursts.push((end - t_burst, end));
                        now = at;
                    }
                    Op::Close { bank } => {
                        let pre = Command::precharge(0, 0, bank);
                        if let Some(at) = d.earliest_issue(&pre, now) {
                            d.issue(&pre, at);
                            now = at;
                        }
                    }
                }
            }
            bursts.sort_unstable();
            for w in bursts.windows(2) {
                prop_assert!(w[1].0 >= w[0].1, "data bursts overlap: {:?} then {:?}", w[0], w[1]);
            }
            Ok(())
        });
    }

    /// Whatever earliest_issue returns must actually be issuable at
    /// that cycle (issue() asserts legality internally).
    #[test]
    fn earliest_issue_is_self_consistent() {
        check(Config::cases(48), &vec_of(range(0u32..64), 1..20), |seed_rows| {
            let mut d = Dram::new(DramConfig::fast_test());
            let mut now = 0;
            for (i, row) in seed_rows.iter().enumerate() {
                let bank = (i as u32) % 4;
                let loc = Loc::new(0, 0, bank);
                if d.open_row(loc).is_some() {
                    let pre = Command::precharge(0, 0, bank);
                    now = d.earliest_issue(&pre, now).unwrap();
                    d.issue(&pre, now);
                }
                let act = Command::Activate { loc, row: *row };
                now = d.earliest_issue(&act, now).unwrap();
                d.issue(&act, now);
                let rd = Command::Read { loc, column: 0, auto_pre: false };
                now = d.earliest_issue(&rd, now).unwrap();
                d.issue(&rd, now);
            }
            Ok(())
        });
    }
}
