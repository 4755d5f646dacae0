//! Device-level statistics: command counts, per-bank activity, and data
//! bus busy time.

use crate::Cycle;

/// Counters accumulated by [`crate::Dram`] as commands issue.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Total ACT commands.
    pub activates: u64,
    /// Total READ commands.
    pub reads: u64,
    /// Total WRITE commands.
    pub writes: u64,
    /// Total PRE commands (explicit and auto).
    pub precharges: u64,
    /// Total REF commands.
    pub refreshes: u64,
    /// Bus cycles spent transferring data, summed over channels.
    pub data_bus_busy: Cycle,
    /// ACT count per bank (flat index), for bank-balance studies.
    pub activates_per_bank: Vec<u64>,
    /// Column commands per bank (flat index).
    pub accesses_per_bank: Vec<u64>,
}

impl DramStats {
    pub(crate) fn new(num_banks: usize) -> Self {
        DramStats {
            activates_per_bank: vec![0; num_banks],
            accesses_per_bank: vec![0; num_banks],
            ..Default::default()
        }
    }

    pub(crate) fn record_activate(&mut self, bank: usize) {
        self.activates += 1;
        self.activates_per_bank[bank] += 1;
    }

    pub(crate) fn record_column(&mut self, bank: usize, is_write: bool, t_burst: u32) {
        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        self.accesses_per_bank[bank] += 1;
        self.data_bus_busy += Cycle::from(t_burst);
    }

    pub(crate) fn record_precharge(&mut self) {
        self.precharges += 1;
    }

    pub(crate) fn record_refresh(&mut self) {
        self.refreshes += 1;
    }

    /// Fieldwise difference `self - prev`, for measuring over a window
    /// (e.g. excluding warmup).
    ///
    /// # Panics
    ///
    /// Panics if `prev` has a different bank count or is not an earlier
    /// snapshot of the same device (counter underflow).
    pub fn delta(&self, prev: &DramStats) -> DramStats {
        assert_eq!(self.activates_per_bank.len(), prev.activates_per_bank.len());
        DramStats {
            activates: self.activates - prev.activates,
            reads: self.reads - prev.reads,
            writes: self.writes - prev.writes,
            precharges: self.precharges - prev.precharges,
            refreshes: self.refreshes - prev.refreshes,
            data_bus_busy: self.data_bus_busy - prev.data_bus_busy,
            activates_per_bank: self
                .activates_per_bank
                .iter()
                .zip(&prev.activates_per_bank)
                .map(|(a, b)| a - b)
                .collect(),
            accesses_per_bank: self
                .accesses_per_bank
                .iter()
                .zip(&prev.accesses_per_bank)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// Column accesses per activate — the device-level row-buffer locality
    /// actually achieved (1.0 means every activate served exactly one
    /// access).
    pub fn accesses_per_activate(&self) -> f64 {
        if self.activates == 0 {
            return 0.0;
        }
        (self.reads + self.writes) as f64 / self.activates as f64
    }

    /// Coefficient of variation of per-bank accesses — 0 when perfectly
    /// balanced.
    pub fn bank_imbalance(&self) -> f64 {
        let n = self.accesses_per_bank.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        let mean = self.accesses_per_bank.iter().sum::<u64>() as f64 / n;
        if mean == 0.0 {
            return 0.0;
        }
        let var =
            self.accesses_per_bank.iter().map(|&a| (a as f64 - mean).powi(2)).sum::<f64>() / n;
        var.sqrt() / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accesses_per_activate_handles_zero() {
        let s = DramStats::new(4);
        assert_eq!(s.accesses_per_activate(), 0.0);
    }

    #[test]
    fn imbalance_zero_when_balanced() {
        let mut s = DramStats::new(2);
        s.record_column(0, false, 4);
        s.record_column(1, false, 4);
        assert_eq!(s.bank_imbalance(), 0.0);
    }

    #[test]
    fn imbalance_positive_when_skewed() {
        let mut s = DramStats::new(2);
        for _ in 0..10 {
            s.record_column(0, false, 4);
        }
        assert!(s.bank_imbalance() > 0.9);
    }
}
