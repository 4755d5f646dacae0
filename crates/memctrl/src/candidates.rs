//! The controller's bank index of its queues and the one timing kernel
//! over it (DESIGN.md "Candidate table").
//!
//! A queued request's next command is a column access (row hit), a
//! precharge (row conflict) or an activate (row closed). Timing legality
//! depends only on (bank, that kind) — never on the specific row or
//! column — so one answer per (bank, kind) class admits or rejects every
//! member at once.

use dbp_dram::{BankState, Cycle, Dram};

use crate::request::MemRequest;

/// Candidate command kinds: the index of a class's deadline.
pub(crate) const KIND_COL: usize = 0;
pub(crate) const KIND_PRE: usize = 1;
pub(crate) const KIND_ACT: usize = 2;

/// Set-bit positions of a bitset, ascending.
struct Bits<'a> {
    words: &'a [u64],
    /// Index of the next word to load.
    next: usize,
    /// The unvisited bits of word `next - 1`.
    word: u64,
}

impl<'a> Bits<'a> {
    fn new(words: &'a [u64]) -> Self {
        Bits { words, next: 0, word: 0 }
    }
}

impl Iterator for Bits<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.word == 0 {
            self.word = *self.words.get(self.next)?;
            self.next += 1;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some((self.next - 1) * 64 + bit)
    }
}

/// All ones if `cond`, else zero.
#[inline]
fn mask(cond: bool) -> u64 {
    u64::from(cond).wrapping_neg()
}

/// The earliest cycle each candidate class of one bank can issue, indexed
/// by `KIND_*`: the later of the bank's own deadline and its rank's gate
/// ([`Dram::rank_gates`]) — `Cycle::MAX` for a class with no member, and
/// for activates while the rank is `urgent` (it waits for its REF). The
/// command-bus slot is left out: every caller asks about a cycle after
/// the channel's last command. Presence is a mask ORed into each
/// deadline, so there is no branch.
#[inline]
fn class_deadlines(
    bank: &BankState,
    gates: &[Cycle; 4],
    members: &[u64],
    hits: &[u64],
    is_write: bool,
    urgent: bool,
) -> [Cycle; 3] {
    let (hit, miss) =
        members.iter().zip(hits).fold((0, 0), |(hit, miss), (&m, &h)| (hit | h, miss | (m & !h)));
    let open = bank.open_row.is_some();
    let col = bank.next_col.max(if is_write { gates[2] } else { gates[1] });
    // `!mask(present)` is zero for a present class and all ones otherwise.
    [
        col | !mask(open & (hit != 0)),
        bank.next_pre.max(gates[3]) | !mask(open & (miss != 0)),
        bank.next_act.max(gates[0]) | !mask(!open & !urgent & (miss != 0)),
    ]
}

/// Per-(channel, queue) index of the queue's slots by target bank, sized
/// once at construction and maintained in O(1) per enqueue / serve, so
/// that command-issue scans and the time-skip calendar are O(occupied
/// banks) instead of O(queue depth).
///
/// `bank` below is the channel-local index `rank * banks_per_rank + bank`
/// — the index of [`Dram::channel_banks`]. The three candidate classes of
/// a bank are *derived*, never stored: bank closed -> ACT = `members`;
/// bank open -> COL = `hits`, PRE = `members & !hits`. Their timing is
/// derived too, from the device's own state, on every use
/// ([`CandTable::deadlines`]), so nothing here goes stale.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CandTable {
    banks_per_rank: usize,
    /// Bitset words per bank: one bit per queue slot.
    words: usize,
    /// `members[bank * words..][..words]`: queue slots targeting `bank`.
    members: Vec<u64>,
    /// The members whose row is the bank's open row (zero while closed).
    hits: Vec<u64>,
    /// Banks with at least one member.
    occupied: Vec<u64>,
}

impl CandTable {
    pub(crate) fn new(banks: usize, banks_per_rank: usize, slots: usize) -> Self {
        let words = slots.div_ceil(64);
        CandTable {
            banks_per_rank,
            words,
            members: vec![0; banks * words],
            hits: vec![0; banks * words],
            occupied: vec![0; banks.div_ceil(64)],
        }
    }

    fn bank(&self, rank: u32, bank: u32) -> usize {
        rank as usize * self.banks_per_rank + bank as usize
    }

    /// Add queue slot `idx`, holding `r`; `hit`: its row is the open row.
    pub(crate) fn insert(&mut self, r: &MemRequest, idx: usize, hit: bool) {
        let bank = self.bank(r.rank, r.bank);
        let (wi, bit) = (bank * self.words + idx / 64, 1u64 << (idx % 64));
        self.members[wi] |= bit;
        if hit {
            self.hits[wi] |= bit;
        }
        self.occupied[bank / 64] |= 1 << (bank % 64);
    }

    /// Drop queue slot `idx`, which held `r`; reports whether it was a hit.
    pub(crate) fn remove(&mut self, r: &MemRequest, idx: usize) -> bool {
        let bank = self.bank(r.rank, r.bank);
        let (wi, bit) = (bank * self.words + idx / 64, 1u64 << (idx % 64));
        let hit = self.hits[wi] & bit != 0;
        self.members[wi] &= !bit;
        self.hits[wi] &= !bit;
        if self.members[bank * self.words..][..self.words].iter().all(|&w| w == 0) {
            self.occupied[bank / 64] &= !(1 << (bank % 64));
        }
        hit
    }

    /// Recompute the hit bits of (`rank`, `bank`)'s members — slots of
    /// `queue`, the queue this table indexes — against the bank's open
    /// row `open`.
    pub(crate) fn rekind(&mut self, queue: &[MemRequest], rank: u32, bank: u32, open: Option<u32>) {
        let start = self.bank(rank, bank) * self.words;
        let words = start..start + self.words;
        self.hits[words.clone()].fill(0);
        for i in Bits::new(&self.members[words]) {
            self.hits[start + i / 64] |= u64::from(Some(queue[i].row) == open) << (i % 64);
        }
    }

    /// Every occupied bank of channel `ch`, ascending, with its
    /// [`class_deadlines`] for this (`is_write`) queue; activates on the
    /// `urgent` ranks read `Cycle::MAX`. Each rank's gates are read once.
    pub(crate) fn deadlines<'a>(
        &'a self,
        dram: &'a Dram,
        ch: u32,
        is_write: bool,
        urgent: u64,
    ) -> impl Iterator<Item = (usize, [Cycle; 3])> + 'a {
        let banks = dram.channel_banks(ch);
        let mut gates = (usize::MAX, [0; 4]);
        Bits::new(&self.occupied).map(move |b| {
            let rank = b / self.banks_per_rank;
            if gates.0 != rank {
                gates = (rank, dram.rank_gates(ch, rank as u32));
            }
            let words = b * self.words..(b + 1) * self.words;
            let t = class_deadlines(
                &banks[b],
                &gates.1,
                &self.members[words.clone()],
                &self.hits[words],
                is_write,
                urgent >> rank & 1 != 0,
            );
            (b, t)
        })
    }

    /// OR into `legal` — per 64 queue slots: the slots whose next command
    /// can issue at `now`, then those of them that are column accesses,
    /// then those that are precharges — every member of every class whose
    /// [`CandTable::deadlines`] entry is at most `now`.
    pub(crate) fn mark_legal(
        &self,
        dram: &Dram,
        ch: u32,
        is_write: bool,
        urgent: u64,
        now: Cycle,
        legal: &mut [[u64; 3]],
    ) {
        for (b, t) in self.deadlines(dram, ch, is_write, urgent) {
            let [col, pre, act] = t.map(|t| mask(t <= now));
            let words = b * self.words..(b + 1) * self.words;
            for ((l, &m), &h) in
                legal.iter_mut().zip(&self.members[words.clone()]).zip(&self.hits[words])
            {
                // A closed bank has no hits: an activate takes all of `members`.
                let (a, c, p) = (m & act, h & col, m & !h & pre);
                *l = [l[0] | a | c | p, l[1] | c, l[2] | p];
            }
        }
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use crate::ddr3_check::Ddr3Check;
    use dbp_dram::{Command, DramConfig, Loc, RowPolicy, TimingParams};
    use dbp_util::prop::{any_bool, check, range, vec_of, CaseResult, Config, Gen};
    use dbp_util::prop_assert_eq;

    /// Every command the device could be asked about at `now`, bank by
    /// bank and rank by rank: its ACT, RD, WR and PRE, then the REF.
    fn every_command(dram: &Dram) -> Vec<Command> {
        let c = dram.cfg();
        let auto_pre = c.row_policy == RowPolicy::Closed;
        let mut cmds = Vec::new();
        for (ch, rank) in
            (0..c.channels).flat_map(|ch| (0..c.ranks_per_channel).map(move |r| (ch, r)))
        {
            for bank in 0..c.banks_per_rank {
                let loc = Loc::new(ch, rank, bank);
                cmds.extend([
                    Command::Activate { loc, row: 0 },
                    Command::Read { loc, column: 0, auto_pre },
                    Command::Write { loc, column: 0, auto_pre },
                    Command::Precharge { loc },
                ]);
            }
            cmds.push(Command::RefreshRank { channel: ch, rank });
        }
        cmds
    }

    /// The kernel against the checker on one device state, after a
    /// command at `now`: for every channel, both queues, and every bank of
    /// a table holding a request on the open row if bit `2b` of `members`
    /// is set and one on another row if bit `2b + 1` is (second bitset
    /// word), [`CandTable::deadlines`] yields exactly the occupied banks,
    /// and each class with a member reads, from `now` on, the checker's
    /// earliest cycle for its command; absent classes, and activates on
    /// `urgent` ranks, read `Cycle::MAX`.
    fn kernel_equals_checker(
        dram: &Dram,
        ddr3: &Ddr3Check,
        now: Cycle,
        members: u64,
        urgent: u64,
    ) -> CaseResult {
        let c = dram.cfg();
        let auto_pre = c.row_policy == RowPolicy::Closed;
        let bpr = c.banks_per_rank as usize;
        let banks = c.ranks_per_channel as usize * bpr;
        for (ch, is_write) in (0..c.channels).flat_map(|ch| [(ch, false), (ch, true)]) {
            let mut table = CandTable::new(banks, bpr, 128);
            let mut want = Vec::new();
            for b in 0..banks {
                let (rank, bank) = ((b / bpr) as u32, (b % bpr) as u32);
                let loc = Loc::new(ch, rank, bank);
                let open = dram.open_row(loc);
                let (hit, miss) = (members >> (2 * b) & 1 != 0, members >> (2 * b + 1) & 1 != 0);
                let req = MemRequest { rank, bank, ..MemRequest::demand_read(0, 0, 0, 0) };
                for (slot, member) in [(b, hit), (64 + b, miss)] {
                    if member {
                        table.insert(&req, slot, slot < 64 && open.is_some());
                    }
                }
                if !(hit || miss) {
                    continue;
                }
                let ready = |cmd: Command| ddr3.earliest(&cmd, now).expect("class state holds");
                let mut t = [Cycle::MAX; 3];
                if open.is_some() {
                    if hit {
                        t[KIND_COL] = ready(if is_write {
                            Command::Write { loc, column: 0, auto_pre }
                        } else {
                            Command::Read { loc, column: 0, auto_pre }
                        });
                    }
                    if miss {
                        t[KIND_PRE] = ready(Command::Precharge { loc });
                    }
                } else if urgent >> rank & 1 == 0 {
                    t[KIND_ACT] = ready(Command::Activate { loc, row: 0 });
                }
                want.push((b, t));
            }
            let got: Vec<_> = table
                .deadlines(dram, ch, is_write, urgent)
                .map(|(b, t)| (b, t.map(|t| t.max(now))))
                .collect();
            prop_assert_eq!(
                got,
                want,
                "kernel {:?}, checker {:?}: channel {}, is_write {}, urgent {:#b}, at {}",
                got,
                want,
                ch,
                is_write,
                urgent,
                now
            );
        }
        Ok(())
    }

    /// One step of a random command stream on a bank: `0` open `row`,
    /// `1` activate `row` in every closed bank of the rank (back to back,
    /// so tRRD and then tFAW gate them), `2` / `3` open the bank's `row`
    /// and read / write it, `4` close the bank, `5` close every bank of
    /// the rank and refresh it.
    type Step = ((u32, u32, u32), (usize, u32, Cycle), (u64, u64));

    /// Drive `steps` through a device with `cfg`, each command issued at
    /// its earliest legal cycle after the step's idle `gap`. After every
    /// command: the checker found it legal, the device's
    /// [`Dram::timing_ready`] of every command equals the checker's
    /// earliest cycle, and so does every present class of the kernel.
    fn stream_matches_the_checker(cfg: DramConfig, steps: &[Step]) -> CaseResult {
        let auto_pre = cfg.row_policy == RowPolicy::Closed;
        let mut ddr3 = Ddr3Check::new(&cfg);
        let mut dram = Dram::new(cfg);
        let every = every_command(&dram);
        let mut now: Cycle = 0;
        for &((ch, rank, bank), (step, row, gap), (members, urgent)) in steps {
            let c = dram.cfg();
            let (ch, rank) = (ch % c.channels, rank % c.ranks_per_channel);
            let loc = Loc::new(ch, rank, bank % c.banks_per_rank);
            let open = dram.open_row(loc);
            let mut cmds = Vec::new();
            match step {
                1 => cmds.extend(
                    (0..c.banks_per_rank)
                        .filter(|&b| dram.open_row(Loc::new(ch, rank, b)).is_none())
                        .map(|b| Command::activate(ch, rank, b, row)),
                ),
                4 => cmds.extend(open.map(|_| Command::Precharge { loc })),
                5 => {
                    cmds.extend(dram.open_banks(ch, rank).map(|b| Command::precharge(ch, rank, b)));
                    cmds.push(Command::RefreshRank { channel: ch, rank });
                }
                _ => {
                    if open.is_some_and(|r| r != row) {
                        cmds.push(Command::Precharge { loc });
                    }
                    if open != Some(row) {
                        cmds.push(Command::Activate { loc, row });
                    }
                    match step {
                        2 => cmds.push(Command::Read { loc, column: 0, auto_pre }),
                        3 => cmds.push(Command::Write { loc, column: 0, auto_pre }),
                        _ => {}
                    }
                }
            }
            now += gap;
            for cmd in cmds {
                now = dram.earliest_issue(&cmd, now).ok_or(format!("{cmd:?} is impossible"))?;
                dram.issue(&cmd, now);
                ddr3.issue(&cmd, now)?;
                for cmd in &every {
                    let (device, checker) = (dram.timing_ready(cmd, now), ddr3.earliest(cmd, now));
                    prop_assert_eq!(
                        device,
                        checker,
                        "{:?} at {}: device {:?}, checker {:?}",
                        cmd,
                        now,
                        device,
                        checker
                    );
                }
                kernel_equals_checker(&dram, &ddr3, now, members, urgent)?;
            }
        }
        Ok(())
    }

    /// Random legal command streams over 1-4 channels x 1-4 ranks x 1-8
    /// banks, both page policies, held to the independent checker
    /// ([`Ddr3Check`]) under three timings: Table 1, `fast_test`, and
    /// `fast_test` stretched so that tCCD, tRC and tFAW each bind alone.
    /// Both presets have tCCD = BL (the data bus implies tCCD) and
    /// tRC = tRAS + tRP (PRE and ACT spacing imply tRC), and only Table 1
    /// with 8 banks lets tFAW bind.
    #[test]
    fn device_and_kernel_match_the_ddr3_checker_on_random_legal_streams() {
        let g = (
            (range(0u32..3), range(0u32..3), range(0u32..4), any_bool(), range(0u32..3)),
            vec_of(
                (
                    (range(0u32..4), range(0u32..4), range(0u32..8)),
                    // Mostly no idle gap, so activates land tRRD apart.
                    (range(0usize..6), range(0u32..3), range(0 as Cycle..24).map(|g| g / 16 * g)),
                    (range(0..u64::MAX), range(0u64..16)),
                ),
                1..120,
            ),
        );
        check(Config::cases(256), &g, |((ch, ranks, banks, closed, timing), steps)| {
            let fast = DramConfig::fast_test();
            let stretched = TimingParams { t_ccd: 3, t_rc: 9, t_faw: 10, ..fast.timing };
            let cfg = DramConfig {
                channels: 1 << ch,
                ranks_per_channel: 1 << ranks,
                banks_per_rank: 1 << banks,
                row_policy: if closed { RowPolicy::Closed } else { RowPolicy::Open },
                ..match timing {
                    0 => DramConfig::default(),
                    1 => fast,
                    _ => DramConfig { timing: stretched, ..fast },
                }
            };
            stream_matches_the_checker(cfg, &steps)
        });
    }
}
