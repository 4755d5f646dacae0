//! Bank-demand estimation from run-time profiles.
//!
//! The key principle of the paper: *"profile threads' memory
//! characteristics at run-time and estimate their demands for bank
//! amount, then use the estimation to direct bank partitioning."*
//!
//! A thread's achieved BLP under-reports the parallelism it could exploit
//! — banks were contended while it was measured — so the estimate scales
//! measured BLP by a head-room factor `alpha`. Threads with very high
//! row-buffer locality are discounted: a streaming thread keeps one row
//! open per stream and gains little from extra banks.

use crate::profile::ThreadMemProfile;

/// RBL above which demand is discounted (streaming threads).
const HIGH_RBL: f64 = 0.85;
/// Multiplier applied to the demand of high-RBL threads.
const RBL_DISCOUNT: f64 = 0.5;
/// Threads at or above this MPKI get at least [`BANDWIDTH_FLOOR_UNITS`]
/// regardless of discounts: a heavily streaming thread still needs a
/// second bank to overlap the next row activation with the current row's
/// drain (and to absorb its write-backs).
const BANDWIDTH_FLOOR_MPKI: f64 = 10.0;
/// The floor applied to such threads.
const BANDWIDTH_FLOOR_UNITS: u32 = 2;

/// The one tuning knob of [`BankDemandEstimator`] (Ablation 1 sweeps it;
/// the decision audit shadows it doubled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorConfig {
    /// Head-room multiplier over measured BLP (paper intuition: a thread
    /// needs more banks than it currently reaches to avoid serialisation).
    /// Must be finite and positive; `PolicyKind::validate` checks it.
    pub alpha: f64,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig { alpha: 2.0 }
    }
}

/// Estimates how many bank units a thread can profitably use.
#[derive(Debug, Clone, Copy, Default)]
pub struct BankDemandEstimator {
    cfg: EstimatorConfig,
}

impl BankDemandEstimator {
    /// Build an estimator.
    pub fn new(cfg: EstimatorConfig) -> Self {
        BankDemandEstimator { cfg }
    }

    /// The configuration in force.
    pub fn cfg(&self) -> &EstimatorConfig {
        &self.cfg
    }

    /// Estimated bank-unit demand of `profile`, clamped to
    /// `1..=max_units`.
    pub fn demand(&self, profile: &ThreadMemProfile, max_units: u32) -> u32 {
        let mut d = self.cfg.alpha * profile.blp.max(1.0);
        if profile.rbl >= HIGH_RBL {
            d *= RBL_DISCOUNT;
        }
        let mut d = d.round() as u32;
        if profile.mpki >= BANDWIDTH_FLOOR_MPKI {
            d = d.max(BANDWIDTH_FLOOR_UNITS);
        }
        d.clamp(1, max_units.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(blp: f64, rbl: f64) -> ThreadMemProfile {
        ThreadMemProfile { mpki: 20.0, rbl, blp, reads: 1000, bus_cycles: 4000 }
    }

    #[test]
    fn demand_scales_with_blp() {
        let e = BankDemandEstimator::default();
        assert!(e.demand(&prof(6.0, 0.3), 32) > e.demand(&prof(1.5, 0.3), 32));
        assert_eq!(e.demand(&prof(4.0, 0.3), 32), 8); // alpha = 2
    }

    #[test]
    fn streaming_threads_discounted() {
        let e = BankDemandEstimator::default();
        let random = e.demand(&prof(3.0, 0.2), 32);
        let stream = e.demand(&prof(3.0, 0.95), 32);
        assert!(stream < random);
    }

    #[test]
    fn clamped_to_bounds() {
        let e = BankDemandEstimator::default();
        assert_eq!(e.demand(&prof(0.0, 0.0), 32), 2); // max(blp,1)*alpha
        assert_eq!(e.demand(&prof(100.0, 0.0), 8), 8);
        assert!(e.demand(&prof(0.1, 0.99), 32) >= 1);
    }
}
