//! JEDEC DDR3 timing parameters, expressed in DRAM bus clock cycles.
//!
//! A "bus clock cycle" is one period of the DDR command clock (e.g. 1.5 ns
//! for DDR3-1333). Data is transferred on both edges, so a burst of 8
//! transfers occupies `BL/2 = 4` bus cycles.

/// The full set of timing constraints the device model enforces.
///
/// All values are in bus clock cycles. The preset
/// ([`TimingParams::ddr3_1333`]) follows the common speed-bin datasheet
/// values for 2 Gb parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// CAS latency: READ command to first data.
    pub cl: u32,
    /// CAS write latency: WRITE command to first data.
    pub cwl: u32,
    /// ACT to internal READ/WRITE (RAS-to-CAS delay).
    pub t_rcd: u32,
    /// PRE to ACT on the same bank (row precharge).
    pub t_rp: u32,
    /// ACT to PRE on the same bank (row active time).
    pub t_ras: u32,
    /// ACT to ACT on the same bank (`t_ras + t_rp`).
    pub t_rc: u32,
    /// ACT to ACT on different banks of the same rank.
    pub t_rrd: u32,
    /// Four-activate window per rank.
    pub t_faw: u32,
    /// End of write data to READ command, same rank.
    pub t_wtr: u32,
    /// End of write data to PRE on the written bank (write recovery).
    pub t_wr: u32,
    /// READ to PRE on the same bank.
    pub t_rtp: u32,
    /// Column-to-column delay (also the burst duration for BL8).
    pub t_ccd: u32,
    /// Data bus occupancy of one burst (`BL/2` for DDR).
    pub t_burst: u32,
    /// Rank-to-rank data bus switch penalty.
    pub t_rtrs: u32,
    /// Refresh cycle time (one REF command per rank).
    pub t_rfc: u32,
    /// Average refresh interval (one REF due per rank every `t_refi`).
    pub t_refi: u32,
    /// Bus clock period in picoseconds (for reporting only).
    pub clock_ps: u32,
}

impl TimingParams {
    /// DDR3-1333H (666.7 MHz bus clock, 9-9-9), 2 Gb parts.
    ///
    /// This is the speed bin used by the paper-era evaluation setups.
    pub fn ddr3_1333() -> Self {
        TimingParams {
            cl: 9,
            cwl: 7,
            t_rcd: 9,
            t_rp: 9,
            t_ras: 24,
            t_rc: 33,
            t_rrd: 4,
            t_faw: 20,
            t_wtr: 5,
            t_wr: 10,
            t_rtp: 5,
            t_ccd: 4,
            t_burst: 4,
            t_rtrs: 2,
            t_rfc: 107,
            t_refi: 5200,
            clock_ps: 1500,
        }
    }

    /// Tiny constants for fast, readable unit tests.
    ///
    /// Not a real device; every constraint is still structurally enforced,
    /// just with small numbers so tests can count cycles by hand.
    pub fn fast_test() -> Self {
        TimingParams {
            cl: 2,
            cwl: 1,
            t_rcd: 2,
            t_rp: 2,
            t_ras: 5,
            t_rc: 7,
            t_rrd: 2,
            t_faw: 8,
            t_wtr: 2,
            t_wr: 3,
            t_rtp: 2,
            t_ccd: 2,
            t_burst: 2,
            t_rtrs: 1,
            t_rfc: 20,
            t_refi: 200,
            clock_ps: 1000,
        }
    }

    /// READ command to WRITE command minimum gap on the same channel,
    /// derived from the bus turnaround: `CL - CWL + tBURST + 2`.
    pub fn read_to_write(&self) -> u32 {
        self.cl.saturating_sub(self.cwl) + self.t_burst + 2
    }

    /// Sanity-check internal consistency (e.g. `t_rc >= t_ras + t_rp` holds
    /// approximately, burst lengths are positive).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// relationship.
    pub fn validate(&self) -> Result<(), String> {
        if self.t_burst == 0 {
            return Err("t_burst must be positive".to_owned());
        }
        if self.t_ccd < self.t_burst {
            return Err(format!("t_ccd ({}) must cover the burst ({})", self.t_ccd, self.t_burst));
        }
        if self.t_rc < self.t_ras {
            return Err(format!("t_rc ({}) must be at least t_ras ({})", self.t_rc, self.t_ras));
        }
        if self.t_faw < self.t_rrd {
            return Err(format!("t_faw ({}) must be at least t_rrd ({})", self.t_faw, self.t_rrd));
        }
        if self.t_refi <= self.t_rfc {
            return Err(format!("t_refi ({}) must exceed t_rfc ({})", self.t_refi, self.t_rfc));
        }
        Ok(())
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::ddr3_1333()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        TimingParams::ddr3_1333().validate().unwrap();
        TimingParams::fast_test().validate().unwrap();
    }

    #[test]
    fn ddr3_1333_is_9_9_9() {
        let t = TimingParams::ddr3_1333();
        assert_eq!((t.cl, t.t_rcd, t.t_rp), (9, 9, 9));
        assert_eq!(t.t_rc, t.t_ras + t.t_rp);
    }

    #[test]
    fn read_to_write_gap_covers_burst() {
        let t = TimingParams::ddr3_1333();
        assert!(t.read_to_write() >= t.t_burst);
    }

    #[test]
    fn validate_rejects_zero_burst() {
        let mut t = TimingParams::ddr3_1333();
        t.t_burst = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_refi_below_rfc() {
        let mut t = TimingParams::ddr3_1333();
        t.t_refi = t.t_rfc;
        assert!(t.validate().is_err());
    }
}
