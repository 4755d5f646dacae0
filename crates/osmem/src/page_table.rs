//! Per-thread virtual-to-physical page maps.

use dbp_obs::FxHashMap;

use crate::{Frame, Vpn};

/// A flat page table for one thread.
///
/// Backed by a fixed-seed [`FxHashMap`]: `translate` sits on the
/// simulator's hottest path (every core memory poll), and the fixed seed
/// keeps iteration order reproducible across runs.
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    map: FxHashMap<Vpn, Frame>,
}

impl PageTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up a mapping.
    #[inline]
    pub fn translate(&self, vpn: Vpn) -> Option<Frame> {
        self.map.get(&vpn).copied()
    }

    /// Install (or replace) a mapping, returning the previous frame.
    pub fn map(&mut self, vpn: Vpn, frame: Frame) -> Option<Frame> {
        self.map.insert(vpn, frame)
    }

    /// Remove a mapping, returning the frame if present.
    pub fn unmap(&mut self, vpn: Vpn) -> Option<Frame> {
        self.map.remove(&vpn)
    }

    /// Number of resident pages.
    pub fn resident_pages(&self) -> usize {
        self.map.len()
    }

    /// Iterate (vpn, frame) pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Frame)> + '_ {
        self.map.iter().map(|(&v, &f)| (v, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_unmap() {
        let mut pt = PageTable::new();
        assert_eq!(pt.translate(7), None);
        assert_eq!(pt.map(7, 100), None);
        assert_eq!(pt.translate(7), Some(100));
        assert_eq!(pt.map(7, 200), Some(100));
        assert_eq!(pt.unmap(7), Some(200));
        assert_eq!(pt.resident_pages(), 0);
    }

    #[test]
    fn iter_covers_all_mappings() {
        let mut pt = PageTable::new();
        pt.map(1, 10);
        pt.map(2, 20);
        let mut pairs: Vec<_> = pt.iter().collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(1, 10), (2, 20)]);
    }
}
