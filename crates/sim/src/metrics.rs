//! Multiprogrammed-performance metrics: weighted speedup (system
//! throughput), harmonic speedup, and maximum slowdown (unfairness) —
//! the three metrics the paper reports.

/// Per-thread outcome of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadResult {
    /// Instructions per CPU cycle up to the instruction target.
    pub ipc: f64,
    /// Cycles to reach the target (total cycles if it never did).
    pub cycles_to_target: u64,
    /// Whether the thread reached the instruction target.
    pub reached_target: bool,
    /// Measured demand-read MPKI.
    pub mpki: f64,
    /// Measured row-buffer locality.
    pub rbl: f64,
    /// Measured bank-level parallelism.
    pub blp: f64,
    /// Average DRAM read latency (queueing + service), DRAM cycles.
    pub avg_read_latency: f64,
    /// Demand reads issued.
    pub reads: u64,
}

/// DRAM activity during the measured window (command counts for energy
/// accounting).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramActivity {
    pub activates: u64,
    pub reads: u64,
    pub writes: u64,
    pub refreshes: u64,
    /// DRAM bus cycles elapsed in the window.
    pub elapsed: u64,
}

impl DramActivity {
    /// Energy in nanojoules under `model`.
    pub fn energy_nj(&self, model: &dbp_dram::EnergyModel) -> f64 {
        // Rebuild a DramStats shell for the model's accounting.
        let stats = dbp_dram::DramStats {
            activates: self.activates,
            reads: self.reads,
            writes: self.writes,
            refreshes: self.refreshes,
            ..Default::default()
        };
        model.total_nj(&stats, self.elapsed)
    }
}

/// Whole-system outcome of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    pub threads: Vec<ThreadResult>,
    pub total_cycles: u64,
    /// DRAM command activity in the measured window.
    pub dram: DramActivity,
    /// All threads reached the instruction target before the cycle cap.
    pub reached_target: bool,
    /// System-wide row-buffer hit rate across serviced requests.
    pub row_hit_rate: f64,
    /// DRAM data-bus utilisation over the run: busy cycles summed over
    /// channels, divided by the channels' total bus cycles.
    pub bus_utilisation: f64,
    /// Column accesses per row activation (device-level locality).
    pub accesses_per_activate: f64,
    /// Coefficient of variation of per-bank accesses.
    pub bank_imbalance: f64,
    /// Pages moved by repartitioning.
    pub migrated_pages: u64,
    /// Copy requests injected for those pages.
    pub migration_requests: u64,
    /// Repartitioning epochs executed.
    pub repartitions: u64,
    /// Allocations that spilled outside their partition.
    pub fallback_allocations: u64,
}

impl RunResult {
    /// Per-thread IPCs.
    pub fn ipcs(&self) -> Vec<f64> {
        self.threads.iter().map(|t| t.ipc).collect()
    }
}

/// Shared-run metrics relative to per-thread alone-run IPCs.
#[derive(Debug, Clone, PartialEq)]
pub struct MixMetrics {
    /// Per-thread speedups `ipc_shared / ipc_alone`.
    pub speedups: Vec<f64>,
    /// Weighted speedup: sum of speedups (system throughput).
    pub weighted_speedup: f64,
    /// Harmonic mean of speedups (balance of throughput and fairness).
    pub harmonic_speedup: f64,
    /// Maximum slowdown: `max(ipc_alone / ipc_shared)` (unfairness; lower
    /// is better/fairer).
    pub max_slowdown: f64,
}

impl MixMetrics {
    /// Compute the metrics from alone and shared IPCs.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, are empty, or contain
    /// non-positive IPCs.
    pub fn new(alone: &[f64], shared: &[f64]) -> Self {
        assert_eq!(alone.len(), shared.len(), "thread count mismatch");
        assert!(!alone.is_empty(), "no threads");
        for (&a, &s) in alone.iter().zip(shared) {
            assert!(a > 0.0 && s > 0.0, "IPCs must be positive (alone {a}, shared {s})");
        }
        let speedups: Vec<f64> = shared.iter().zip(alone).map(|(s, a)| s / a).collect();
        let weighted_speedup = speedups.iter().sum();
        let harmonic_speedup =
            speedups.len() as f64 / speedups.iter().map(|s| 1.0 / s).sum::<f64>();
        let max_slowdown = speedups.iter().map(|s| 1.0 / s).fold(f64::MIN, f64::max);
        MixMetrics { speedups, weighted_speedup, harmonic_speedup, max_slowdown }
    }
}

/// Geometric mean of positive values.
///
/// # Panics
///
/// Panics on an empty slice or non-positive values.
pub fn gmean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "gmean of nothing");
    let log_sum: f64 = values
        .iter()
        .map(|&v| {
            assert!(v > 0.0, "gmean requires positive values, got {v}");
            v.ln()
        })
        .sum();
    (log_sum / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_activity_energy_scales_with_commands() {
        let model = dbp_dram::EnergyModel::default();
        let quiet = DramActivity { elapsed: 1000, ..Default::default() };
        let busy =
            DramActivity { activates: 100, reads: 300, writes: 100, refreshes: 2, elapsed: 1000 };
        assert!(busy.energy_nj(&model) > quiet.energy_nj(&model));
        assert!(quiet.energy_nj(&model) > 0.0, "background power is nonzero");
    }

    #[test]
    fn metrics_on_no_slowdown() {
        let m = MixMetrics::new(&[1.0, 2.0], &[1.0, 2.0]);
        assert!((m.weighted_speedup - 2.0).abs() < 1e-12);
        assert!((m.harmonic_speedup - 1.0).abs() < 1e-12);
        assert!((m.max_slowdown - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_slowdown_tracks_worst_thread() {
        let m = MixMetrics::new(&[1.0, 1.0], &[0.5, 0.9]);
        assert!((m.max_slowdown - 2.0).abs() < 1e-12);
        assert!((m.weighted_speedup - 1.4).abs() < 1e-12);
    }

    #[test]
    fn harmonic_punishes_imbalance() {
        let balanced = MixMetrics::new(&[1.0, 1.0], &[0.7, 0.7]);
        let skewed = MixMetrics::new(&[1.0, 1.0], &[1.0, 0.4]);
        assert!(balanced.harmonic_speedup > skewed.harmonic_speedup);
    }

    #[test]
    fn gmean_basics() {
        assert!((gmean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((gmean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn gmean_rejects_zero() {
        gmean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn mismatched_lengths_panic() {
        MixMetrics::new(&[1.0], &[1.0, 2.0]);
    }
}
