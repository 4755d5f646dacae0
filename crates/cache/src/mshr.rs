//! Miss-status holding registers: track outstanding misses, merge
//! secondary misses to the same line, and remember who waits on each fill.

use dbp_obs::FxHashMap;

/// A bounded file of miss-status holding registers.
///
/// Keys are line-aligned physical addresses. An entry *is* the list of
/// load ids waiting on the line's fill, in arrival order; a store miss
/// holds an entry but waits for nothing (stores are posted).
#[derive(Debug, Clone)]
pub struct Mshr {
    entries: FxHashMap<u64, Vec<u64>>,
    capacity: usize,
}

impl Mshr {
    /// Create a file with room for `capacity` distinct outstanding lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR capacity must be positive");
        let mut entries = FxHashMap::default();
        entries.reserve(capacity);
        Mshr { entries, capacity }
    }

    /// Record a miss on `line_addr`, queueing `waiter` (a load id; `None`
    /// for a store) for the fill. Returns whether this is the first miss
    /// to the line — a memory request must be sent — rather than one
    /// merged into an outstanding entry.
    ///
    /// # Panics
    ///
    /// Panics on a first miss while the file is full: the requester must
    /// stall on [`Mshr::is_full`] unless [`Mshr::contains`] the line.
    pub fn miss(&mut self, line_addr: u64, waiter: Option<u64>) -> bool {
        let outstanding = self.entries.len();
        self.entries.entry(line_addr).or_default().extend(waiter);
        assert!(self.entries.len() <= self.capacity, "MSHR file is full");
        self.entries.len() > outstanding
    }

    /// Complete the fill of `line_addr`, returning the loads that were
    /// waiting on it in arrival order (none if the line was not
    /// outstanding).
    pub fn complete(&mut self, line_addr: u64) -> Vec<u64> {
        self.entries.remove(&line_addr).unwrap_or_default()
    }

    /// Whether `line_addr` has an outstanding miss.
    #[inline]
    pub fn contains(&self, line_addr: u64) -> bool {
        self.entries.contains_key(&line_addr)
    }

    /// Number of outstanding lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the file is at capacity.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_miss_then_merge_and_fill_returns_waiters_in_arrival_order() {
        let mut m = Mshr::new(4);
        assert!(m.miss(0x40, Some(7)), "first miss sends a request");
        assert!(!m.miss(0x40, Some(3)), "second miss merges");
        assert!(!m.miss(0x40, Some(9)));
        assert_eq!(m.len(), 1);
        assert_eq!(m.complete(0x40), [7, 3, 9]);
        assert!(m.is_empty());
    }

    #[test]
    fn store_miss_holds_an_entry_with_no_waiter() {
        let mut m = Mshr::new(4);
        assert!(m.miss(0x80, None));
        assert!(m.contains(0x80));
        // A load merging into the store's entry is the only waiter.
        assert!(!m.miss(0x80, Some(1)));
        assert_eq!(m.complete(0x80), [1]);
        assert!(m.miss(0xc0, None));
        assert_eq!(m.complete(0xc0), [0u64; 0]);
    }

    #[test]
    fn full_file_still_merges() {
        let mut m = Mshr::new(2);
        assert!(m.miss(0, Some(0)));
        assert!(m.miss(64, Some(1)));
        assert!(m.is_full());
        assert!(!m.miss(64, Some(2)), "merging needs no free entry");
        m.complete(0);
        assert!(!m.is_full());
        assert!(m.miss(128, Some(3)));
    }

    #[test]
    #[should_panic(expected = "MSHR file is full")]
    fn first_miss_on_a_full_file_panics() {
        let mut m = Mshr::new(1);
        m.miss(0, None);
        m.miss(64, None);
    }

    #[test]
    fn complete_unknown_line_returns_no_waiter() {
        let mut m = Mshr::new(2);
        assert!(m.complete(0xdead).is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = Mshr::new(0);
    }
}
