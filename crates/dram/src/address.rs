//! Physical-address layout: how addresses map onto channel, rank, bank,
//! row, and column.
//!
//! Bank partitioning relies on the *page-coloring* layout: the channel,
//! rank, and bank index bits sit directly above the page offset, so the OS
//! picks a page's (channel, rank, bank) triple — its **color** — when it
//! picks the physical frame. See [`MappingScheme::PageColoring`].

use crate::config::DramConfig;

/// Identifies one (channel, rank, bank) triple; the unit of allocation for
/// page-coloring-based partitioning.
pub type ColorId = u32;

/// Physical address layout schemes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MappingScheme {
    /// `row | col_high | bank | rank | channel | col_low | offset` (MSB to
    /// LSB). Channel/rank/bank bits are directly above the page offset so
    /// the OS controls them via frame selection. The default, and the
    /// layout assumed by every partitioning policy.
    #[default]
    PageColoring,
    /// Like [`MappingScheme::PageColoring`] but the effective bank index is
    /// XOR-ed with the low row bits (permutation-based interleaving,
    /// Zhang et al. MICRO 2000). Spreads row-sequential streams over banks;
    /// incompatible with OS bank control only in the sense that a thread's
    /// color maps to a *different but still unique* bank per row — colors
    /// remain disjoint, so partitioning still isolates threads.
    PermutedPageColoring,
}

/// A physical address decomposed into DRAM coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DecodedAddr {
    pub channel: u32,
    pub rank: u32,
    /// Effective bank index (after permutation, if enabled).
    pub bank: u32,
    pub row: u32,
    /// Column in burst-sized units.
    pub column: u32,
}

/// Translates between physical addresses and [`DecodedAddr`] coordinates
/// for a fixed [`DramConfig`].
#[derive(Debug, Clone)]
pub struct AddressMapper {
    /// Row bits XOR-ed into the bank field: every bank bit under
    /// [`MappingScheme::PermutedPageColoring`], none otherwise.
    bank_xor_mask: u32,
    offset_bits: u32,
    col_low_bits: u32,
    col_high_bits: u32,
    ch_bits: u32,
    rank_bits: u32,
    bank_bits: u32,
    row_bits: u32,
    page_bits: u32,
}

impl AddressMapper {
    /// Build a mapper for `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not validate (all geometry fields must be
    /// powers of two with `row_bytes >= page_bytes`).
    pub fn new(cfg: &DramConfig) -> Self {
        cfg.validate().expect("invalid DramConfig");
        let offset_bits = cfg.burst_bytes().trailing_zeros();
        let page_bits = cfg.page_bytes.trailing_zeros();
        let col_bits = cfg.columns_per_row().trailing_zeros();
        let col_low_bits = page_bits - offset_bits;
        assert!(
            col_bits >= col_low_bits,
            "row must span at least one page (col_bits {col_bits} < col_low {col_low_bits})"
        );
        let bank_bits = cfg.banks_per_rank.trailing_zeros();
        AddressMapper {
            bank_xor_mask: match cfg.mapping {
                MappingScheme::PageColoring => 0,
                MappingScheme::PermutedPageColoring => (1 << bank_bits) - 1,
            },
            offset_bits,
            col_low_bits,
            col_high_bits: col_bits - col_low_bits,
            ch_bits: cfg.channels.trailing_zeros(),
            rank_bits: cfg.ranks_per_channel.trailing_zeros(),
            bank_bits,
            row_bits: cfg.rows_per_bank.trailing_zeros(),
            page_bits,
        }
    }

    /// Number of distinct colors, i.e. (channel, rank, bank) triples.
    pub fn num_colors(&self) -> u32 {
        1 << (self.ch_bits + self.rank_bits + self.bank_bits)
    }

    /// Page-offset width in bits.
    pub fn page_bits(&self) -> u32 {
        self.page_bits
    }

    /// Total addressable bytes.
    pub fn capacity(&self) -> u64 {
        1u64 << (self.offset_bits
            + self.col_low_bits
            + self.col_high_bits
            + self.ch_bits
            + self.rank_bits
            + self.bank_bits
            + self.row_bits)
    }

    fn take(addr: &mut u64, bits: u32) -> u32 {
        let v = (*addr & ((1u64 << bits) - 1)) as u32;
        *addr >>= bits;
        v
    }

    /// Decompose a physical byte address.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `pa` exceeds the configured capacity.
    #[inline]
    pub fn decode(&self, pa: u64) -> DecodedAddr {
        debug_assert!(pa < self.capacity(), "address {pa:#x} out of range");
        let mut a = pa >> self.offset_bits;
        let col_low = Self::take(&mut a, self.col_low_bits);
        let channel = Self::take(&mut a, self.ch_bits);
        let rank = Self::take(&mut a, self.rank_bits);
        let bank = Self::take(&mut a, self.bank_bits);
        let col_high = Self::take(&mut a, self.col_high_bits);
        let row = Self::take(&mut a, self.row_bits);
        let bank = self.permute_bank(bank, row);
        DecodedAddr { channel, rank, bank, row, column: (col_high << self.col_low_bits) | col_low }
    }

    /// Reassemble a physical byte address (with a zero burst offset) from
    /// DRAM coordinates. Exact inverse of [`AddressMapper::decode`].
    pub fn encode(&self, d: &DecodedAddr) -> u64 {
        let bank_field = self.permute_bank(d.bank, d.row); // XOR is its own inverse
        let col_low = u64::from(d.column) & ((1u64 << self.col_low_bits) - 1);
        let col_high = u64::from(d.column) >> self.col_low_bits;
        let mut a: u64 = u64::from(d.row);
        a = (a << self.col_high_bits) | col_high;
        a = (a << self.bank_bits) | u64::from(bank_field);
        a = (a << self.rank_bits) | u64::from(d.rank);
        a = (a << self.ch_bits) | u64::from(d.channel);
        a = (a << self.col_low_bits) | col_low;
        a << self.offset_bits
    }

    fn permute_bank(&self, bank: u32, row: u32) -> u32 {
        bank ^ (row & self.bank_xor_mask)
    }

    /// The color of a decoded address: a dense index over
    /// (channel, rank, bank).
    ///
    /// Under [`MappingScheme::PermutedPageColoring`] the color is computed
    /// from the *pre-permutation* bank field so that it stays a pure
    /// function of the frame number (the OS-visible quantity).
    pub fn color_of(&self, d: &DecodedAddr) -> ColorId {
        let bank_field = self.permute_bank(d.bank, d.row);
        ((d.channel << self.rank_bits | d.rank) << self.bank_bits) | bank_field
    }

    /// The color of a physical page frame. Channel, rank and bank field
    /// sit above the page offset in both layouts, so every line of a
    /// frame has this one color.
    pub fn frame_color(&self, frame: u64) -> ColorId {
        self.color_of(&self.decode(frame << self.page_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(scheme: MappingScheme) -> DramConfig {
        DramConfig { mapping: scheme, ..DramConfig::default() }
    }

    #[test]
    fn color_count_matches_geometry() {
        let m = AddressMapper::new(&cfg(MappingScheme::PageColoring));
        assert_eq!(m.num_colors(), 32);
    }

    #[test]
    fn capacity_matches_config() {
        let c = cfg(MappingScheme::PageColoring);
        let m = AddressMapper::new(&c);
        assert_eq!(m.capacity(), c.capacity_bytes());
    }

    #[test]
    fn page_coloring_keeps_color_within_page() {
        let c = cfg(MappingScheme::PageColoring);
        let m = AddressMapper::new(&c);
        let base = 7u64 * u64::from(c.page_bytes);
        let d0 = m.decode(base);
        let color = m.color_of(&d0);
        for off in (0..u64::from(c.page_bytes)).step_by(64) {
            let d = m.decode(base + off);
            assert_eq!(m.color_of(&d), color);
            assert_eq!((d.channel, d.rank, d.bank), (d0.channel, d0.rank, d0.bank));
        }
    }

    #[test]
    fn consecutive_frames_cycle_colors() {
        let c = cfg(MappingScheme::PageColoring);
        let m = AddressMapper::new(&c);
        // With 8 KiB rows and 4 KiB pages, frames alternate within a row's
        // two pages before moving to the next color: frame color period is
        // num_colors over the col_high span. Just check all colors appear
        // among the first num_colors * pages_per_row frames.
        let mut seen = vec![false; m.num_colors() as usize];
        for f in 0..u64::from(m.num_colors()) * u64::from(c.pages_per_row()) {
            seen[m.frame_color(f) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn permuted_scheme_varies_bank_across_rows() {
        let c = cfg(MappingScheme::PermutedPageColoring);
        let m = AddressMapper::new(&c);
        // Same bank field, different rows -> different effective banks.
        let a0 =
            m.decode(m.encode(&DecodedAddr { channel: 0, rank: 0, bank: 0, row: 0, column: 0 }));
        let mut pa1 = DecodedAddr { channel: 0, rank: 0, bank: 0, row: 1, column: 0 };
        // encode/decode of an effective-bank coordinate must round-trip.
        pa1 = m.decode(m.encode(&pa1));
        assert_eq!(a0.bank, 0);
        assert_eq!(pa1.bank, 0);
        // But a *frame-sequential* scan sees permuted banks.
        let f_per_row_group = u64::from(m.num_colors()) * u64::from(c.pages_per_row());
        let b0 = m.decode(0).bank;
        let b1 = m.decode(f_per_row_group * u64::from(c.page_bytes) * 2).bank;
        let _ = (b0, b1); // rows 0 and 2 permute bank 0 to 0 and 2
        assert_eq!(m.decode(0).row, 0);
    }

    #[test]
    fn permuted_frames_still_have_unique_colors() {
        let c = cfg(MappingScheme::PermutedPageColoring);
        let m = AddressMapper::new(&c);
        for f in 0..256u64 {
            let color = m.frame_color(f);
            // Every line in the frame agrees on the color.
            let base = f << m.page_bits();
            for off in (0..u64::from(c.page_bytes)).step_by(256) {
                let d = m.decode(base + off);
                assert_eq!(m.color_of(&d), color);
            }
        }
    }

    mod props {
        use super::*;
        use dbp_util::prop::{check, range, Config};
        use dbp_util::{prop_assert, prop_assert_eq};

        #[test]
        fn decode_encode_roundtrip() {
            let g = (range(0u64..(4u64 << 30)), range(0usize..2));
            check(Config::default(), &g, |(pa, scheme_idx)| {
                let scheme =
                    [MappingScheme::PageColoring, MappingScheme::PermutedPageColoring][scheme_idx];
                let m = AddressMapper::new(&cfg(scheme));
                let pa = pa & !63; // burst aligned
                let d = m.decode(pa);
                prop_assert_eq!(m.encode(&d), pa);
                Ok(())
            });
        }

        #[test]
        fn decoded_fields_in_range() {
            check(Config::default(), &range(0u64..(4u64 << 30)), |pa| {
                let c = cfg(MappingScheme::PageColoring);
                let m = AddressMapper::new(&c);
                let d = m.decode(pa);
                prop_assert!(d.channel < c.channels);
                prop_assert!(d.rank < c.ranks_per_channel);
                prop_assert!(d.bank < c.banks_per_rank);
                prop_assert!(d.row < c.rows_per_bank);
                prop_assert!(d.column < c.columns_per_row());
                Ok(())
            });
        }

        #[test]
        fn frame_color_matches_line_colors() {
            check(Config::default(), &range(0u64..100_000), |frame| {
                let c = cfg(MappingScheme::PageColoring);
                let m = AddressMapper::new(&c);
                let fc = m.frame_color(frame);
                let d = m.decode((frame << m.page_bits()) + 128);
                prop_assert_eq!(m.color_of(&d), fc);
                Ok(())
            });
        }
    }
}
