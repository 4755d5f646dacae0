//! An independent DDR3 legality checker, for tests: the reference that
//! the device model and the controller's candidate kernel are held to.
//!
//! It is written from the DDR3 rules, not from `dbp-dram`'s model: from
//! that crate it takes only the timing parameters of a [`DramConfig`] and
//! the `Command` / `Loc` / `Cycle` vocabulary. It keeps each channel's
//! issued commands and states every rule as the least lag a later
//! command keeps after an earlier one:
//!
//! | scope   | earlier → later  | lag                                   |
//! |---------|------------------|---------------------------------------|
//! | bank    | ACT → ACT        | tRC                                   |
//! | bank    | ACT → RD / WR    | tRCD                                  |
//! | bank    | ACT → PRE        | tRAS                                  |
//! | bank    | RD → PRE         | tRTP                                  |
//! | bank    | WR → PRE         | CWL + BL + tWR                        |
//! | bank    | PRE → ACT        | tRP                                   |
//! | rank    | ACT → ACT        | tRRD; tFAW after the ACT four before  |
//! | rank    | WR → RD          | CWL + BL + tWTR                       |
//! | rank    | REF → any        | tRFC                                  |
//! | rank    | PRE → REF        | tRP                                   |
//! | rank    | ACT → REF        | tRC                                   |
//! | channel | RD → RD, WR → WR | tCCD                                  |
//! | channel | RD → WR          | max(CL − CWL, 0) + BL + 2             |
//!
//! A data burst, `[t + CL, +BL)` for a read and `[t + CWL, +BL)` for a
//! write, starts no earlier than the previous burst's end, plus tRTRS
//! when that burst came from another rank. The command bus takes one
//! command per cycle. ACT needs a closed bank, RD / WR / PRE an open one,
//! REF a rank with every bank closed. An auto-precharging column command
//! closes its bank at once and precharges it at the bank's earliest legal
//! PRE after it.

use std::collections::HashMap;

use dbp_dram::{Command, Cycle, DramConfig, Loc};

/// The command classes the rules relate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Act,
    Rd,
    Wr,
    Pre,
    Ref,
}

/// Every class: the later side of a rule that binds all commands.
const ANY: &[Op] = &[Op::Act, Op::Rd, Op::Wr, Op::Pre, Op::Ref];

fn op(cmd: &Command) -> Op {
    match cmd {
        Command::Activate { .. } => Op::Act,
        Command::Read { .. } => Op::Rd,
        Command::Write { .. } => Op::Wr,
        Command::Precharge { .. } => Op::Pre,
        Command::RefreshRank { .. } => Op::Ref,
    }
}

/// The (channel, rank) a command addresses.
fn rank_of(cmd: &Command) -> (u32, u32) {
    match *cmd {
        Command::Activate { loc, .. }
        | Command::Read { loc, .. }
        | Command::Write { loc, .. }
        | Command::Precharge { loc } => (loc.channel, loc.rank),
        Command::RefreshRank { channel, rank } => (channel, rank),
    }
}

/// Which pairs of commands a rule relates.
#[derive(Debug, Clone, Copy)]
enum Scope {
    Bank,
    Rank,
    Channel,
}

/// `later` keeps at least `lag` cycles after `earlier` within `scope`.
struct Rule {
    name: &'static str,
    scope: Scope,
    earlier: Op,
    later: &'static [Op],
    lag: Cycle,
}

/// A command on a channel's record. `auto` marks the precharge an
/// auto-precharging column command implies; it takes no command slot.
#[derive(Debug, Clone, Copy)]
struct Issued {
    at: Cycle,
    cmd: Command,
    auto: bool,
}

/// A lower bound on a command's issue cycle: the rule and the earlier
/// command that set it.
struct Bound {
    at: Cycle,
    rule: &'static str,
    after: Issued,
}

/// Replays issued commands and answers when a command may legally issue.
pub(crate) struct Ddr3Check {
    rules: Vec<Rule>,
    t_faw: Cycle,
    cl: Cycle,
    cwl: Cycle,
    burst: Cycle,
    t_rtrs: Cycle,
    /// No rule reaches further back than this many cycles.
    horizon: Cycle,
    /// Per channel, the commands that can still bind a later one, in
    /// issue order.
    history: HashMap<u32, Vec<Issued>>,
    /// The open row of every open bank.
    open: HashMap<Loc, u32>,
}

impl Ddr3Check {
    pub(crate) fn new(cfg: &DramConfig) -> Self {
        let t = &cfg.timing;
        let c = Cycle::from;
        let write_end = c(t.cwl) + c(t.t_burst);
        let turnaround = c(t.cl.saturating_sub(t.cwl)) + c(t.t_burst) + 2;
        let rule = |name: &'static str, scope, earlier, later: &'static [Op], lag| Rule {
            name,
            scope,
            earlier,
            later,
            lag,
        };
        let rules = vec![
            rule("tRC", Scope::Bank, Op::Act, &[Op::Act], c(t.t_rc)),
            rule("tRCD", Scope::Bank, Op::Act, &[Op::Rd, Op::Wr], c(t.t_rcd)),
            rule("tRAS", Scope::Bank, Op::Act, &[Op::Pre], c(t.t_ras)),
            rule("tRTP", Scope::Bank, Op::Rd, &[Op::Pre], c(t.t_rtp)),
            rule("tWR", Scope::Bank, Op::Wr, &[Op::Pre], write_end + c(t.t_wr)),
            rule("tRP", Scope::Bank, Op::Pre, &[Op::Act], c(t.t_rp)),
            rule("tRRD", Scope::Rank, Op::Act, &[Op::Act], c(t.t_rrd)),
            rule("tWTR", Scope::Rank, Op::Wr, &[Op::Rd], write_end + c(t.t_wtr)),
            rule("tRFC", Scope::Rank, Op::Ref, ANY, c(t.t_rfc)),
            rule("tRP before REF", Scope::Rank, Op::Pre, &[Op::Ref], c(t.t_rp)),
            rule("tRC before REF", Scope::Rank, Op::Act, &[Op::Ref], c(t.t_rc)),
            rule("tCCD", Scope::Channel, Op::Rd, &[Op::Rd], c(t.t_ccd)),
            rule("tCCD", Scope::Channel, Op::Wr, &[Op::Wr], c(t.t_ccd)),
            rule("read-to-write turnaround", Scope::Channel, Op::Rd, &[Op::Wr], turnaround),
        ];
        let bus_lag = c(t.cl.max(t.cwl)) + c(t.t_burst) + c(t.t_rtrs);
        let horizon = rules.iter().map(|r| r.lag).chain([c(t.t_faw), bus_lag]).max().unwrap_or(0);
        Ddr3Check {
            rules,
            t_faw: c(t.t_faw),
            cl: c(t.cl),
            cwl: c(t.cwl),
            burst: c(t.t_burst),
            t_rtrs: c(t.t_rtrs),
            horizon,
            history: HashMap::new(),
            open: HashMap::new(),
        }
    }

    /// The bank state `cmd` needs: closed for ACT, open for RD / WR /
    /// PRE, every bank of the rank closed for REF.
    fn structural(&self, cmd: &Command) -> Result<(), String> {
        let open = |loc: &Loc| self.open.contains_key(loc);
        let (ok, needs) = match *cmd {
            Command::Activate { loc, .. } => (!open(&loc), "a closed bank"),
            Command::Read { loc, .. } | Command::Write { loc, .. } | Command::Precharge { loc } => {
                (open(&loc), "an open bank")
            }
            Command::RefreshRank { channel, rank } => {
                let busy = self.open.keys().any(|l| (l.channel, l.rank) == (channel, rank));
                (!busy, "every bank of its rank closed")
            }
        };
        if ok {
            Ok(())
        } else {
            Err(format!("bank state: {cmd:?} needs {needs}"))
        }
    }

    /// Every lower bound the channel's record puts on `cmd`.
    fn bounds<'a>(&'a self, cmd: &'a Command) -> impl Iterator<Item = Bound> + 'a {
        let history = self.history.get(&cmd.channel()).map_or(&[][..], Vec::as_slice);
        let pairs = history.iter().flat_map(move |e| {
            self.rules
                .iter()
                .filter(move |r| r.earlier == op(&e.cmd) && r.later.contains(&op(cmd)))
                .filter(move |r| match r.scope {
                    Scope::Bank => e.cmd.loc().is_some() && e.cmd.loc() == cmd.loc(),
                    Scope::Rank => rank_of(&e.cmd) == rank_of(cmd),
                    Scope::Channel => true,
                })
                .map(move |r| Bound { at: e.at + r.lag, rule: r.name, after: *e })
        });
        // tFAW: the fourth ACT of the rank before this one.
        let faw = (op(cmd) == Op::Act)
            .then(|| {
                let acts = history
                    .iter()
                    .filter(|e| op(&e.cmd) == Op::Act && rank_of(&e.cmd) == rank_of(cmd));
                acts.rev().nth(3)
            })
            .flatten()
            .map(|e| Bound { at: e.at + self.t_faw, rule: "tFAW", after: *e });
        // The data bus: this burst after the previous one.
        let latency = |c: &Command| if op(c) == Op::Rd { self.cl } else { self.cwl };
        let bus = matches!(op(cmd), Op::Rd | Op::Wr)
            .then(|| {
                history.iter().rev().find(|e| !e.auto && matches!(op(&e.cmd), Op::Rd | Op::Wr))
            })
            .flatten()
            .map(|e| {
                let switch = rank_of(&e.cmd) != rank_of(cmd);
                let free =
                    e.at + latency(&e.cmd) + self.burst + if switch { self.t_rtrs } else { 0 };
                let rule = if switch { "tRTRS" } else { "data bus" };
                Bound { at: free.saturating_sub(latency(cmd)), rule, after: *e }
            });
        pairs.chain(faw).chain(bus)
    }

    /// The earliest cycle `>= from` at which `cmd` keeps every rule except
    /// the one-command-per-cycle command bus; `None` when the bank state
    /// forbids it. Exact for any `from` at or after the last command
    /// issued on the channel.
    pub(crate) fn earliest(&self, cmd: &Command, from: Cycle) -> Option<Cycle> {
        self.structural(cmd).ok()?;
        Some(self.bounds(cmd).map(|b| b.at).fold(from, Cycle::max))
    }

    /// Record `cmd` issued at `at`, or name the rule it breaks and the
    /// earlier command it breaks it against.
    pub(crate) fn issue(&mut self, cmd: &Command, at: Cycle) -> Result<(), String> {
        self.structural(cmd)?;
        let ch = cmd.channel();
        let history = self.history.get(&ch).map_or(&[][..], Vec::as_slice);
        if let Some(e) = history.iter().rev().find(|e| !e.auto) {
            if e.at >= at {
                return Err(format!(
                    "one command per cycle, in time order: {cmd:?} at {at} after {:?} at {}",
                    e.cmd, e.at
                ));
            }
        }
        if let Some(b) = self.bounds(cmd).find(|b| at < b.at) {
            return Err(format!(
                "{}: {cmd:?} at {at} before cycle {}, set by {:?} at {}",
                b.rule, b.at, b.after.cmd, b.after.at
            ));
        }
        let history = self.history.entry(ch).or_default();
        history.push(Issued { at, cmd: *cmd, auto: false });
        let horizon = self.horizon;
        history.retain(|e| e.at + horizon > at);
        match *cmd {
            Command::Activate { loc, row } => {
                self.open.insert(loc, row);
            }
            Command::Precharge { loc } => {
                self.open.remove(&loc);
            }
            Command::Read { loc, auto_pre: true, .. }
            | Command::Write { loc, auto_pre: true, .. } => {
                let pre = Command::Precharge { loc };
                let pre_at = self.earliest(&pre, at).expect("the bank is still open");
                self.open.remove(&loc);
                let auto = Issued { at: pre_at, cmd: pre, auto: true };
                self.history.entry(ch).or_default().push(auto);
            }
            _ => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `fast_test` timing: tRCD 2, tRAS 5, tRP 2, tRRD 2, tFAW 8, CL 2,
    /// CWL 1, BL 2, tWTR 2, tRTRS 1, tRFC 20.
    fn check() -> Ddr3Check {
        Ddr3Check::new(&DramConfig { ranks_per_channel: 2, ..DramConfig::fast_test() })
    }

    fn rule_of(err: String) -> String {
        err.split(':').next().unwrap_or_default().to_owned()
    }

    #[test]
    fn names_the_broken_rule() {
        let mut c = check();
        c.issue(&Command::activate(0, 0, 0, 7), 0).unwrap();
        let rd = Command::read(0, 0, 0, 7, 0, false);
        assert_eq!(c.earliest(&rd, 0), Some(2));
        assert_eq!(rule_of(c.issue(&rd, 1).unwrap_err()), "tRCD");
        c.issue(&rd, 2).unwrap();
        let pre = Command::precharge(0, 0, 0);
        assert_eq!(rule_of(c.issue(&pre, 4).unwrap_err()), "tRAS");
        // The same cycle twice, or an ACT to an open bank.
        assert!(c.issue(&Command::activate(0, 0, 1, 1), 2).unwrap_err().contains("per cycle"));
        assert!(c.issue(&Command::activate(0, 0, 0, 1), 9).unwrap_err().contains("bank state"));
    }

    #[test]
    fn four_activates_open_a_faw_window() {
        let mut cfg = DramConfig { ranks_per_channel: 2, ..DramConfig::fast_test() };
        cfg.timing.t_faw = 10;
        let mut c = Ddr3Check::new(&cfg);
        for (bank, at) in [(0, 0), (1, 2), (2, 4)] {
            c.issue(&Command::activate(0, 0, bank, 1), at).unwrap();
        }
        c.issue(&Command::precharge(0, 0, 0), 5).unwrap();
        c.issue(&Command::activate(0, 0, 3, 1), 6).unwrap();
        // tRRD, tRP and tRC allow cycle 8; the window from cycle 0 holds to 10.
        let act = Command::activate(0, 0, 0, 2);
        assert_eq!(c.earliest(&act, 7), Some(10));
        assert_eq!(rule_of(c.issue(&act, 9).unwrap_err()), "tFAW");
        assert_eq!(c.earliest(&Command::activate(0, 1, 0, 2), 7), Some(7), "other rank");
    }

    #[test]
    fn bursts_switch_ranks_after_trtrs() {
        let mut c = check();
        c.issue(&Command::activate(0, 0, 0, 1), 0).unwrap();
        c.issue(&Command::activate(0, 1, 0, 1), 1).unwrap();
        c.issue(&Command::read(0, 0, 0, 1, 0, false), 2).unwrap();
        // Burst [4, 6) on rank 0; rank 1's may start at 6 + tRTRS = 7.
        let rd = Command::read(0, 1, 0, 1, 0, false);
        assert_eq!(c.earliest(&rd, 3), Some(5));
        assert_eq!(rule_of(c.issue(&rd, 4).unwrap_err()), "tRTRS");
    }

    #[test]
    fn auto_precharge_and_refresh_wait_their_turn() {
        let mut c = check();
        c.issue(&Command::activate(0, 0, 0, 1), 0).unwrap();
        // RD at 2 auto-precharges at max(tRAS 5, 2 + tRTP) = 5; ACT at 7.
        c.issue(&Command::read(0, 0, 0, 1, 0, true), 2).unwrap();
        assert_eq!(c.earliest(&Command::activate(0, 0, 0, 2), 3), Some(7));
        let rf = Command::RefreshRank { channel: 0, rank: 0 };
        assert_eq!(c.earliest(&rf, 3), Some(7), "tRC after the ACT, tRP after the PRE");
        c.issue(&rf, 7).unwrap();
        assert_eq!(c.earliest(&Command::activate(0, 0, 1, 2), 8), Some(27));
        assert_eq!(c.earliest(&Command::precharge(0, 0, 1), 8), None);
    }
}
