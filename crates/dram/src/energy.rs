//! A coarse DDR3 energy model.
//!
//! Follows the standard decomposition used by DRAM power calculators:
//! a fixed energy per ACT/PRE pair, per column access, and per refresh,
//! plus a background power term. The defaults approximate a 2 Gb DDR3-1333
//! x8 device scaled to a rank; this is for *relative* comparisons between
//! policies (e.g. a policy that halves activates saves activate energy),
//! not absolute watts.

use crate::stats::DramStats;
use crate::Cycle;

/// Per-operation energies (picojoules) and background power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Energy of one ACT + PRE pair, pJ.
    pub act_pre_pj: f64,
    /// Energy of one READ burst, pJ.
    pub read_pj: f64,
    /// Energy of one WRITE burst, pJ.
    pub write_pj: f64,
    /// Energy of one rank refresh, pJ.
    pub refresh_pj: f64,
    /// Background power, mW (applied over elapsed time).
    pub background_mw: f64,
    /// Bus clock period in picoseconds.
    pub clock_ps: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            act_pre_pj: 1600.0,
            read_pj: 1100.0,
            write_pj: 1200.0,
            refresh_pj: 24000.0,
            background_mw: 350.0,
            clock_ps: 1500.0,
        }
    }
}

impl EnergyModel {
    /// Total energy in nanojoules over `elapsed` bus cycles of activity
    /// described by `stats`.
    pub fn total_nj(&self, stats: &DramStats, elapsed: Cycle) -> f64 {
        let dynamic_pj = stats.activates as f64 * self.act_pre_pj
            + stats.reads as f64 * self.read_pj
            + stats.writes as f64 * self.write_pj
            + stats.refreshes as f64 * self.refresh_pj;
        // mW * ps = 1e-3 J/s * 1e-12 s = 1e-15 J = 1e-3 pJ
        let background_pj = self.background_mw * self.clock_ps * elapsed as f64 * 1e-3;
        (dynamic_pj + background_pj) / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_activates_cost_more() {
        let m = EnergyModel::default();
        let mut few = DramStats::new(1);
        let mut many = DramStats::new(1);
        few.record_activate(0);
        for _ in 0..10 {
            many.record_activate(0);
        }
        assert!(m.total_nj(&many, 100) > m.total_nj(&few, 100));
    }

    #[test]
    fn background_grows_with_time() {
        let m = EnergyModel::default();
        let s = DramStats::new(1);
        assert!(m.total_nj(&s, 2000) > m.total_nj(&s, 1000));
    }
}
