//! Internal timing state of banks, ranks, and channels.
//!
//! Each level keeps "earliest next issue" timestamps which
//! [`crate::device::Dram`] consults and advances. The representation is
//! deliberately monotone: timestamps only move forward, which makes the
//! model robust to out-of-order queries.

use std::collections::VecDeque;

use crate::Cycle;

/// Per-bank state: the open row plus earliest-issue times for each command
/// class affecting this bank.
#[derive(Debug, Clone, Default)]
pub struct BankState {
    /// Currently open row, if any.
    pub open_row: Option<u32>,
    /// Earliest cycle an ACT may issue (covers tRP after PRE and tRC after
    /// the previous ACT).
    pub next_act: Cycle,
    /// Earliest cycle a READ or WRITE may issue (covers tRCD).
    pub next_col: Cycle,
    /// Earliest cycle a PRE may issue (covers tRAS, tRTP, tWR).
    pub next_pre: Cycle,
}

impl BankState {
    /// Close the row by a precharge at `at`, explicit or automatic: the
    /// next ACT waits `t_rp` after it.
    pub(crate) fn precharge(&mut self, at: Cycle, t_rp: u32) {
        self.open_row = None;
        self.next_act = self.next_act.max(at + Cycle::from(t_rp));
    }
}

/// Per-rank state: tRRD / tFAW activation throttling and the
/// write-to-read turnaround within the rank.
#[derive(Debug, Clone, Default)]
pub struct RankState {
    /// Earliest cycle any ACT may issue in this rank (tRRD).
    pub next_act: Cycle,
    /// Issue times of the most recent activates (bounded to 4, for tFAW).
    pub act_window: VecDeque<Cycle>,
    /// Earliest cycle a READ may issue in this rank (tWTR after writes).
    pub next_read: Cycle,
    /// When the rank's current refresh completes (banks unusable before).
    pub refresh_done: Cycle,
}

impl RankState {
    /// Record an activate at `now`, retiring entries that have left the
    /// window.
    pub fn record_act(&mut self, now: Cycle, t_faw: u32) {
        self.act_window.push_back(now);
        while let Some(&front) = self.act_window.front() {
            if self.act_window.len() > 4 || front + Cycle::from(t_faw) <= now {
                self.act_window.pop_front();
            } else {
                break;
            }
        }
    }
}

/// Per-channel state: the shared data bus and read/write turnaround.
#[derive(Debug, Clone, Default)]
pub struct ChannelState {
    /// First cycle the data bus is free.
    pub data_free_at: Cycle,
    /// Rank that owns the most recent data burst (for tRTRS).
    pub last_data_rank: Option<u32>,
    /// Earliest cycle a READ command may issue on this channel
    /// (write-to-read bus turnaround is handled per rank; this covers
    /// channel-level gaps).
    pub next_read: Cycle,
    /// Earliest cycle a WRITE command may issue (read-to-write turnaround).
    pub next_write: Cycle,
    /// Cycle of the last command accepted (one command per cycle).
    pub last_cmd_at: Option<Cycle>,
    /// Data bursts `[start, end)` that may outlast the last column
    /// command, oldest first (they never overlap).
    bursts: VecDeque<(Cycle, Cycle)>,
}

impl ChannelState {
    /// Earliest start for a data burst by `rank`, honouring bus occupancy
    /// and the rank-switch penalty.
    pub fn data_start(&self, rank: u32, t_rtrs: u32) -> Cycle {
        match self.last_data_rank {
            Some(r) if r != rank => self.data_free_at + Cycle::from(t_rtrs),
            _ => self.data_free_at,
        }
    }

    /// A column command issued at `now` puts `rank`'s data on the bus
    /// over `[start, end)`. Bursts over by `now` are dropped: every
    /// later [`ChannelState::busy_from`] asks about a cycle after them.
    pub(crate) fn record_burst(&mut self, now: Cycle, rank: u32, start: Cycle, end: Cycle) {
        self.data_free_at = end;
        self.last_data_rank = Some(rank);
        while self.bursts.front().is_some_and(|&(_, e)| e <= now) {
            self.bursts.pop_front();
        }
        self.bursts.push_back((start, end));
    }

    /// Data-bus cycles at or after `t` that recorded bursts occupy.
    pub(crate) fn busy_from(&self, t: Cycle) -> Cycle {
        self.bursts.iter().map(|&(start, end)| end.saturating_sub(start.max(t))).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_count_only_the_cycles_they_occupy() {
        let mut ch = ChannelState::default();
        ch.record_burst(0, 0, 5, 9);
        ch.record_burst(4, 1, 11, 15);
        assert_eq!((ch.data_free_at, ch.last_data_rank), (15, Some(1)));
        assert_eq!(ch.busy_from(5), 8);
        assert_eq!(ch.busy_from(7), 6, "half of the first burst is before 7");
        assert_eq!(ch.busy_from(12), 3);
        assert_eq!(ch.busy_from(15), 0);
        // Issuing at 9 drops the first burst, which ended there.
        ch.record_burst(9, 1, 15, 19);
        assert_eq!(ch.bursts.len(), 2);
        assert_eq!(ch.busy_from(10), 8);
    }

    #[test]
    fn faw_window_stays_bounded() {
        let mut r = RankState::default();
        for t in 0..100 {
            r.record_act(t * 3, 8);
        }
        assert!(r.act_window.len() <= 4);
    }

    #[test]
    fn rank_switch_adds_penalty() {
        let ch = ChannelState { data_free_at: 10, last_data_rank: Some(0), ..Default::default() };
        assert_eq!(ch.data_start(0, 2), 10);
        assert_eq!(ch.data_start(1, 2), 12);
    }
}
