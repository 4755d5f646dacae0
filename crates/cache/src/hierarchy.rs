//! A private two-level hierarchy (L1D backed by L2) as seen by one core.

use crate::cache::{Cache, CacheConfig};

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessLevel {
    L1Hit,
    L2Hit,
    /// Missed both levels: a DRAM read is required.
    MemoryMiss,
}

/// Configuration of the per-core hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyConfig {
    pub l1: CacheConfig,
    pub l2: CacheConfig,
}

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig { l1: CacheConfig::l1d(), l2: CacheConfig::l2() }
    }
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyAccess {
    /// Level that satisfied the access.
    pub level: AccessLevel,
    /// Latency in CPU cycles up to (but not including) DRAM.
    pub latency: u32,
    /// Dirty lines evicted along the way; each must become a DRAM write.
    pub writebacks: Vec<u64>,
}

/// L1 + private L2, write-back and write-allocate at both levels,
/// non-inclusive (fills go to both levels; evictions are independent).
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
}

impl Hierarchy {
    /// Build an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if either level's geometry is invalid or line sizes differ.
    pub fn new(cfg: HierarchyConfig) -> Self {
        assert_eq!(cfg.l1.line_bytes, cfg.l2.line_bytes, "L1 and L2 must share a line size");
        Hierarchy { l1: Cache::new(cfg.l1), l2: Cache::new(cfg.l2) }
    }

    /// Access `pa`. Updates both levels and reports where the data came
    /// from plus any dirty evictions.
    pub fn access(&mut self, pa: u64, is_write: bool) -> HierarchyAccess {
        let l1_lat = self.l1.cfg().latency;
        let l2_lat = self.l2.cfg().latency;
        let mut writebacks = Vec::new();
        let l1_out = self.l1.access(pa, is_write);
        if l1_out.hit {
            return HierarchyAccess { level: AccessLevel::L1Hit, latency: l1_lat, writebacks };
        }
        // An L1 dirty victim is absorbed by the L2 (write-back allocate).
        if let Some(victim) = l1_out.writeback {
            let vo = self.l2.access(victim, true);
            if let Some(wb) = vo.writeback {
                writebacks.push(wb);
            }
        }
        // On a write miss the dirty bit lives in the L1 (the L2 copy stays
        // clean until the L1 victim returns) — write-back allocate-on-miss.
        let l2_out = self.l2.access(pa, false);
        if let Some(wb) = l2_out.writeback {
            writebacks.push(wb);
        }
        if l2_out.hit {
            HierarchyAccess { level: AccessLevel::L2Hit, latency: l1_lat + l2_lat, writebacks }
        } else {
            HierarchyAccess { level: AccessLevel::MemoryMiss, latency: l1_lat + l2_lat, writebacks }
        }
    }

    /// Whether `pa`'s line is resident at either level (no state change).
    /// Used by resource pre-checks: a probing hit means the access cannot
    /// need MSHR or controller-queue space.
    #[inline]
    pub fn probe(&self, pa: u64) -> bool {
        self.l1.probe(pa) || self.l2.probe(pa)
    }

    /// The L1 level (for stats).
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// The L2 level (for stats).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// L2 misses per access across the whole hierarchy so far — the
    /// hierarchy's DRAM traffic rate.
    pub fn memory_miss_rate(&self) -> f64 {
        let acc = self.l1.stats().accesses;
        if acc == 0 {
            return 0.0;
        }
        self.l2.stats().misses as f64 / acc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l1: CacheConfig { size_bytes: 256, ways: 2, line_bytes: 64, latency: 2 },
            l2: CacheConfig { size_bytes: 1024, ways: 4, line_bytes: 64, latency: 10 },
        })
    }

    #[test]
    fn cold_miss_reaches_memory() {
        let mut h = tiny();
        let a = h.access(0, false);
        assert_eq!(a.level, AccessLevel::MemoryMiss);
        assert_eq!(a.latency, 12);
        assert!(a.writebacks.is_empty());
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut h = tiny();
        h.access(0, false);
        let a = h.access(0, false);
        assert_eq!(a.level, AccessLevel::L1Hit);
        assert_eq!(a.latency, 2);
    }

    #[test]
    fn l2_hit_after_l1_eviction() {
        let mut h = tiny();
        // Fill set 0 of the L1 (2 ways) with three lines; line 0 falls to
        // L2 only.
        h.access(0, false);
        h.access(256, false);
        h.access(512, false);
        let a = h.access(0, false);
        assert_eq!(a.level, AccessLevel::L2Hit);
    }

    #[test]
    fn dirty_l1_victim_lands_in_l2_not_memory() {
        let mut h = tiny();
        h.access(0, true); // dirty in L1
        h.access(256, false);
        let a = h.access(512, false); // evicts line 0 from L1 into L2
        assert!(a.writebacks.is_empty(), "dirty L1 victim must be absorbed by L2");
        // And the line is still an L2 hit.
        let b = h.access(0, false);
        assert_eq!(b.level, AccessLevel::L2Hit);
    }

    #[test]
    fn dirty_l2_victim_produces_memory_writeback() {
        let mut h = tiny();
        // Dirty a line and push it out of both levels. The L2 set for
        // address 0 also holds 1024, 2048, ... (4 ways).
        h.access(0, true);
        h.access(256, false); // L1 set-mate
        h.access(512, false); // evicts dirty 0 from L1 -> L2 (dirty)
                              // Now flood the L2 set of address 0 with 4 fresh lines.
        let mut wrote_back = false;
        for i in 1..=4u64 {
            let a = h.access(i * 1024, false);
            if a.writebacks.contains(&0) {
                wrote_back = true;
            }
        }
        assert!(wrote_back, "dirty L2 victim must be written to memory");
    }

    #[test]
    fn miss_rate_counts_l2_misses() {
        let mut h = tiny();
        h.access(0, false); // memory miss
        h.access(0, false); // L1 hit
        assert!((h.memory_miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "line size")]
    fn mismatched_line_sizes_panic() {
        let _ = Hierarchy::new(HierarchyConfig {
            l1: CacheConfig { size_bytes: 256, ways: 2, line_bytes: 32, latency: 2 },
            l2: CacheConfig::l2(),
        });
    }
}
