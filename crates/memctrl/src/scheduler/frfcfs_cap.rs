//! FR-FCFS with a row-hit streak cap (Mutlu & Moscibroda's FR-FCFS+Cap
//! variant): bounds how long an open-row stream can starve conflicting
//! requests to the same bank.

use dbp_dram::Cycle;

use crate::request::MemRequest;
use crate::scheduler::{row_hit_then_age, Scheduler};

/// Maximum consecutive row hits served per bank before hits lose their
/// priority boost there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrFcfsCapConfig {
    pub cap: u32,
}

impl Default for FrFcfsCapConfig {
    fn default() -> Self {
        FrFcfsCapConfig { cap: 4 }
    }
}

impl FrFcfsCapConfig {
    /// Check the tuning knobs.
    ///
    /// # Errors
    ///
    /// Names the first field holding a value the scheduler cannot run on.
    pub fn validate(&self) -> Result<(), String> {
        if self.cap == 0 {
            return Err("cap must be positive".into());
        }
        Ok(())
    }
}

/// FR-FCFS with per-bank streak capping.
#[derive(Debug)]
pub struct FrFcfsCap {
    cfg: FrFcfsCapConfig,
    /// Consecutive row hits served, per (channel, rank, bank) key.
    streaks: dbp_obs::FxHashMap<(u32, u32, u32), u32>,
    /// Decay boundaries already applied (boundary = 256-cycle mark,
    /// including cycle 0). Lets `tick` apply the exact number of decays
    /// elapsed even when the clock jumps over several boundaries.
    boundaries_seen: u64,
}

impl FrFcfsCap {
    /// Build the scheduler.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not [`FrFcfsCapConfig::validate`].
    pub fn new(cfg: FrFcfsCapConfig) -> Self {
        cfg.validate().expect("invalid FrFcfsCapConfig");
        FrFcfsCap { cfg, streaks: dbp_obs::FxHashMap::default(), boundaries_seen: 0 }
    }

    fn capped(&self, r: &MemRequest) -> bool {
        self.streaks.get(&(r.channel, r.rank, r.bank)).is_some_and(|&s| s >= self.cfg.cap)
    }
}

impl Scheduler for FrFcfsCap {
    fn name(&self) -> &'static str {
        "FR-FCFS+Cap"
    }

    fn prefer(&self, a: &MemRequest, a_hit: bool, b: &MemRequest, b_hit: bool) -> bool {
        // A row hit on a capped bank loses its boost (treated as a miss).
        let a_eff = a_hit && !self.capped(a);
        let b_eff = b_hit && !self.capped(b);
        row_hit_then_age(a, a_eff, b, b_eff)
    }

    fn on_serviced(&mut self, req: &MemRequest, _now: Cycle) {
        // Count services per bank; decay in tick() releases the cap when
        // the streak breaks. (Exact hit-only counting needs row state the
        // scheduler doesn't see; service counting over-approximates, which
        // only makes the cap slightly stricter.)
        let entry = self.streaks.entry((req.channel, req.rank, req.bank)).or_insert(0);
        *entry = (*entry + 1).min(self.cfg.cap * 4);
    }

    fn tick(
        &mut self,
        now: Cycle,
        _prof: &crate::profiler::ProfilerState,
        _read_queues: &[Vec<MemRequest>],
    ) {
        // Streaks decay every few hundred cycles so a bank is not capped
        // forever after a burst. Decay by the number of 256-cycle
        // boundaries crossed since the last tick, not by one: a
        // time-skipping driver may not tick every boundary, and k
        // successive `saturating_sub(1)` equal one `saturating_sub(k)`.
        let total = now / 256 + 1;
        let k = total - self.boundaries_seen;
        if k > 0 {
            self.boundaries_seen = total;
            let k = u32::try_from(k).unwrap_or(u32::MAX);
            for s in self.streaks.values_mut() {
                *s = s.saturating_sub(k);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, thread: usize, bank: u32, arrival: Cycle) -> MemRequest {
        let mut r = MemRequest::demand_read(id, thread, 0, arrival);
        r.bank = bank;
        r
    }

    #[test]
    fn behaves_like_frfcfs_before_cap() {
        let s = FrFcfsCap::new(FrFcfsCapConfig::default());
        let hit = req(0, 0, 0, 9);
        let old_miss = req(1, 1, 0, 1);
        assert!(s.prefer(&hit, true, &old_miss, false));
    }

    #[test]
    fn capped_bank_loses_hit_priority() {
        let mut s = FrFcfsCap::new(FrFcfsCapConfig { cap: 2 });
        for i in 0..2 {
            s.on_serviced(&req(i, 0, 0, 0), 0);
        }
        let hit_on_capped = req(2, 0, 0, 9);
        let old_miss = req(3, 1, 0, 1);
        assert!(
            s.prefer(&old_miss, false, &hit_on_capped, true),
            "age wins once the streak is capped"
        );
        // Another bank is unaffected.
        let hit_other_bank = req(4, 0, 1, 9);
        assert!(s.prefer(&hit_other_bank, true, &old_miss, false));
    }

    #[test]
    fn decay_is_delta_exact_across_jumps() {
        // One tick landing after several skipped boundaries must decay
        // exactly as much as ticking every cycle would have.
        let prof = crate::profiler::ProfilerState::new(1, 8);
        let mut stepped = FrFcfsCap::new(FrFcfsCapConfig { cap: 2 });
        let mut skipped = FrFcfsCap::new(FrFcfsCapConfig { cap: 2 });
        for s in [&mut stepped, &mut skipped] {
            s.tick(0, &prof, &[]);
            for i in 0..6 {
                s.on_serviced(&req(i, 0, 0, 1), 1);
            }
        }
        for now in 1..=700u64 {
            stepped.tick(now, &prof, &[]);
        }
        skipped.tick(700, &prof, &[]);
        assert_eq!(stepped.streaks, skipped.streaks);
    }

    #[test]
    fn streaks_decay_over_time() {
        let mut s = FrFcfsCap::new(FrFcfsCapConfig { cap: 2 });
        for i in 0..2 {
            s.on_serviced(&req(i, 0, 0, 0), 0);
        }
        assert!(s.capped(&req(9, 0, 0, 0)));
        let prof = crate::profiler::ProfilerState::new(1, 8);
        for now in [256u64, 512] {
            s.tick(now, &prof, &[]);
        }
        assert!(!s.capped(&req(9, 0, 0, 0)));
    }
}
