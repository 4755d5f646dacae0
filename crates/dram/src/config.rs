//! DRAM organisation (geometry) and device-level policy configuration.

use crate::command::Loc;
use crate::timing::TimingParams;
use crate::MappingScheme;

/// Row-buffer management policy applied by the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RowPolicy {
    /// Leave rows open after a column access (exploits row-buffer locality).
    #[default]
    Open,
    /// Auto-precharge after every column access (no locality, no conflicts).
    Closed,
}

/// Geometry and policy of the modelled main memory.
///
/// The defaults describe the reproduction's Table 1 configuration:
/// DDR3-1333, 2 channels x 2 ranks x 8 banks, 8 KiB rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Independent memory channels, each with its own buses.
    pub channels: u32,
    /// Ranks per channel (share the channel buses).
    pub ranks_per_channel: u32,
    /// Banks per rank.
    pub banks_per_rank: u32,
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// Row-buffer size per bank, in bytes.
    pub row_bytes: u32,
    /// Data bus width in bytes (x64 = 8).
    pub bus_bytes: u32,
    /// Burst length in transfers (BL8).
    pub burst_length: u32,
    /// Timing constraints.
    pub timing: TimingParams,
    /// Row-buffer management policy.
    pub row_policy: RowPolicy,
    /// Physical address layout.
    pub mapping: MappingScheme,
    /// Virtual-memory page size used for coloring, in bytes.
    pub page_bytes: u32,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig {
            channels: 2,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            rows_per_bank: 16384,
            row_bytes: 8192,
            bus_bytes: 8,
            burst_length: 8,
            timing: TimingParams::ddr3_1333(),
            row_policy: RowPolicy::Open,
            mapping: MappingScheme::PageColoring,
            page_bytes: 4096,
        }
    }
}

impl DramConfig {
    /// A minimal geometry with [`TimingParams::fast_test`] timing, for unit
    /// tests that count cycles by hand.
    pub fn fast_test() -> Self {
        DramConfig {
            channels: 1,
            ranks_per_channel: 1,
            banks_per_rank: 4,
            rows_per_bank: 64,
            row_bytes: 8192,
            timing: TimingParams::fast_test(),
            ..Default::default()
        }
    }

    /// Bytes moved by one burst (one cache line with BL8 on a 64-bit bus).
    pub fn burst_bytes(&self) -> u32 {
        self.bus_bytes * self.burst_length
    }

    /// Columns per row, in burst-sized units.
    pub fn columns_per_row(&self) -> u32 {
        self.row_bytes / self.burst_bytes()
    }

    /// Total banks across the whole memory system.
    pub fn total_banks(&self) -> u32 {
        self.channels * self.ranks_per_channel * self.banks_per_rank
    }

    /// Flat index of the bank at `loc`, in `0..total_banks()`: channel-major,
    /// then rank, then bank. The one definition every per-bank table
    /// (device state, statistics, profiling, latency anatomy) is indexed by.
    #[inline]
    pub fn flat_bank(&self, loc: Loc) -> usize {
        ((loc.channel * self.ranks_per_channel + loc.rank) * self.banks_per_rank + loc.bank)
            as usize
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        u64::from(self.total_banks()) * u64::from(self.rows_per_bank) * u64::from(self.row_bytes)
    }

    /// Number of physical page frames.
    pub fn total_frames(&self) -> u64 {
        self.capacity_bytes() / u64::from(self.page_bytes)
    }

    /// Pages that fit in one row buffer.
    pub fn pages_per_row(&self) -> u32 {
        self.row_bytes / self.page_bytes
    }

    /// Check that every field is a positive power of two where required and
    /// that the timing parameters are self-consistent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        fn pow2(name: &str, v: u32) -> Result<(), String> {
            if v == 0 || !v.is_power_of_two() {
                Err(format!("{name} must be a positive power of two, got {v}"))
            } else {
                Ok(())
            }
        }
        pow2("channels", self.channels)?;
        pow2("ranks_per_channel", self.ranks_per_channel)?;
        if self.ranks_per_channel > 64 {
            // The controller tracks per-rank refresh urgency in a u64 mask.
            return Err(format!(
                "ranks_per_channel must be at most 64, got {}",
                self.ranks_per_channel
            ));
        }
        pow2("banks_per_rank", self.banks_per_rank)?;
        pow2("rows_per_bank", self.rows_per_bank)?;
        pow2("row_bytes", self.row_bytes)?;
        pow2("bus_bytes", self.bus_bytes)?;
        pow2("burst_length", self.burst_length)?;
        pow2("page_bytes", self.page_bytes)?;
        if self.row_bytes < self.page_bytes {
            return Err(format!(
                "row_bytes ({}) must be at least one page ({})",
                self.row_bytes, self.page_bytes
            ));
        }
        if self.burst_bytes() > self.page_bytes {
            return Err("a burst must not span pages".to_owned());
        }
        self.timing.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_validates() {
        DramConfig::default().validate().unwrap();
        DramConfig::fast_test().validate().unwrap();
    }

    #[test]
    fn default_geometry() {
        let c = DramConfig::default();
        assert_eq!(c.total_banks(), 32);
        assert_eq!(c.burst_bytes(), 64);
        assert_eq!(c.columns_per_row(), 128);
        assert_eq!(c.pages_per_row(), 2);
        // 32 banks * 16384 rows * 8 KiB = 4 GiB
        assert_eq!(c.capacity_bytes(), 4 << 30);
        assert_eq!(c.total_frames(), (4u64 << 30) / 4096);
        assert_eq!(c.flat_bank(Loc::new(0, 0, 0)), 0);
        assert_eq!(c.flat_bank(Loc::new(0, 1, 2)), 10);
        assert_eq!(c.flat_bank(Loc::new(1, 1, 7)), c.total_banks() as usize - 1);
    }

    #[test]
    fn rejects_non_power_of_two() {
        let c = DramConfig { banks_per_rank: 6, ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_more_ranks_than_the_urgency_mask_holds() {
        let ok = DramConfig { ranks_per_channel: 64, ..Default::default() };
        ok.validate().unwrap();
        let c = DramConfig { ranks_per_channel: 128, ..Default::default() };
        let err = c.validate().unwrap_err();
        assert!(err.contains("ranks_per_channel") && err.contains("128"), "{err}");
    }

    #[test]
    fn rejects_row_smaller_than_page() {
        let c = DramConfig { row_bytes: 2048, ..Default::default() };
        assert!(c.validate().is_err());
    }
}
