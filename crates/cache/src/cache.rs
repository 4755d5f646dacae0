//! A single set-associative, write-back, write-allocate cache.

use crate::stats::CacheStats;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u32,
    /// Associativity.
    pub ways: u32,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Hit latency in CPU cycles.
    pub latency: u32,
}

impl CacheConfig {
    /// 32 KiB, 4-way, 64 B lines, 2-cycle — a typical L1D.
    pub fn l1d() -> Self {
        CacheConfig { size_bytes: 32 << 10, ways: 4, line_bytes: 64, latency: 2 }
    }

    /// 512 KiB, 8-way, 64 B lines, 12-cycle — a typical private L2.
    pub fn l2() -> Self {
        CacheConfig { size_bytes: 512 << 10, ways: 8, line_bytes: 64, latency: 12 }
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size_bytes / (self.ways * self.line_bytes)
    }

    /// Check power-of-two geometry with at least one set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() || self.line_bytes == 0 {
            return Err(format!("line_bytes must be a power of two, got {}", self.line_bytes));
        }
        if self.ways == 0 {
            return Err("ways must be positive".to_owned());
        }
        let denom = self.ways * self.line_bytes;
        if denom == 0 || !self.size_bytes.is_multiple_of(denom) {
            return Err("size must be a multiple of ways * line_bytes".to_owned());
        }
        let sets = self.sets();
        if sets == 0 || !sets.is_power_of_two() {
            return Err(format!("set count must be a positive power of two, got {sets}"));
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Line {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic timestamp of the last touch (true LRU).
    stamp: u64,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// Physical address (line-aligned) of a dirty victim evicted by the
    /// fill, which must be written back to the next level.
    pub writeback: Option<u64>,
}

/// One set-associative cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    lines: Vec<Line>, // sets * ways, row-major by set
    clock: u64,
    stats: CacheStats,
    set_mask: u64,
    line_bits: u32,
}

impl Cache {
    /// Build an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` fails [`CacheConfig::validate`].
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid CacheConfig");
        Cache {
            lines: vec![Line::default(); (cfg.sets() * cfg.ways) as usize],
            clock: 0,
            stats: CacheStats::default(),
            set_mask: u64::from(cfg.sets()) - 1,
            line_bits: cfg.line_bytes.trailing_zeros(),
            cfg,
        }
    }

    /// The configuration of this level.
    pub fn cfg(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_of(&self, pa: u64) -> usize {
        (((pa >> self.line_bits) & self.set_mask) * u64::from(self.cfg.ways)) as usize
    }

    fn tag_of(&self, pa: u64) -> u64 {
        pa >> self.line_bits
    }

    /// Access `pa`; on a miss, allocate the line and evict LRU.
    ///
    /// `is_write` marks the (present or filled) line dirty.
    pub fn access(&mut self, pa: u64, is_write: bool) -> AccessOutcome {
        self.clock += 1;
        let tag = self.tag_of(pa);
        let base = self.set_of(pa);
        let ways = self.cfg.ways as usize;
        self.stats.accesses += 1;
        // Hit path.
        for line in &mut self.lines[base..base + ways] {
            if line.valid && line.tag == tag {
                line.stamp = self.clock;
                line.dirty |= is_write;
                self.stats.hits += 1;
                return AccessOutcome { hit: true, writeback: None };
            }
        }
        // Miss: pick an invalid way, else LRU.
        self.stats.misses += 1;
        let victim = {
            let set = &self.lines[base..base + ways];
            let mut victim = 0;
            let mut best = u64::MAX;
            for (i, line) in set.iter().enumerate() {
                if !line.valid {
                    victim = i;
                    break;
                }
                if line.stamp < best {
                    best = line.stamp;
                    victim = i;
                }
            }
            victim
        };
        let line = &mut self.lines[base + victim];
        let writeback = if line.valid && line.dirty {
            self.stats.writebacks += 1;
            Some((line.tag) << self.line_bits)
        } else {
            None
        };
        *line = Line { tag, valid: true, dirty: is_write, stamp: self.clock };
        AccessOutcome { hit: false, writeback }
    }

    /// Whether `pa`'s line is present (no state change).
    #[inline]
    pub fn probe(&self, pa: u64) -> bool {
        let tag = self.tag_of(pa);
        let base = self.set_of(pa);
        self.lines[base..base + self.cfg.ways as usize].iter().any(|l| l.valid && l.tag == tag)
    }

    /// Invalidate `pa`'s line if present, returning the line-aligned
    /// address if it was dirty (the caller must write it back).
    pub fn invalidate(&mut self, pa: u64) -> Option<u64> {
        let tag = self.tag_of(pa);
        let base = self.set_of(pa);
        for line in &mut self.lines[base..base + self.cfg.ways as usize] {
            if line.valid && line.tag == tag {
                line.valid = false;
                if line.dirty {
                    return Some(tag << self.line_bits);
                }
                return None;
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 2 sets x 2 ways x 64 B.
        Cache::new(CacheConfig { size_bytes: 256, ways: 2, line_bytes: 64, latency: 1 })
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).hit);
        assert!(c.access(0, false).hit);
        assert!(c.access(32, false).hit); // same line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines 0 and 256 (2 ways). Touch 0 again, then bring
        // in 512 -> 256 must be the victim.
        c.access(0, false);
        c.access(256, false);
        c.access(0, false);
        c.access(512, false);
        assert!(c.probe(0));
        assert!(!c.probe(256));
        assert!(c.probe(512));
    }

    #[test]
    fn dirty_eviction_produces_writeback() {
        let mut c = tiny();
        c.access(0, true); // dirty
        c.access(256, false);
        let out = c.access(512, false); // evicts line 0 (LRU, dirty)
        assert_eq!(out.writeback, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_has_no_writeback() {
        let mut c = tiny();
        c.access(0, false);
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true); // now dirty
        c.access(256, false);
        let out = c.access(512, false);
        assert_eq!(out.writeback, Some(0));
    }

    #[test]
    fn invalidate_returns_dirty_line() {
        let mut c = tiny();
        c.access(64, true);
        assert_eq!(c.invalidate(64), Some(64));
        assert!(!c.probe(64));
        assert_eq!(c.invalidate(64), None);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        c.access(0, false);
        c.access(64, false); // set 1
        c.access(256, false); // set 0 second way
        assert!(c.probe(0));
        assert!(c.probe(64));
        assert!(c.probe(256));
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        assert!(CacheConfig { size_bytes: 100, ways: 2, line_bytes: 64, latency: 1 }
            .validate()
            .is_err());
        assert!(CacheConfig { size_bytes: 256, ways: 2, line_bytes: 48, latency: 1 }
            .validate()
            .is_err());
        CacheConfig::l1d().validate().unwrap();
        CacheConfig::l2().validate().unwrap();
    }
}
