//! Color-aware physical frame allocator.

use dbp_dram::{AddressMapper, ColorId, DramConfig};

use crate::{ColorSet, Frame};

/// Per-color free lists over all physical frames.
///
/// Frames are handed out from the *most free* allowed color, which keeps
/// a thread's footprint balanced across its partition (maximising its
/// bank-level parallelism, the property DBP cares about).
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    free: Vec<Vec<Frame>>, // indexed by color
    /// Colors frames arithmetically (no per-frame table: configurations
    /// can have millions of frames).
    mapper: AddressMapper,
}

impl FrameAllocator {
    /// Build an allocator over every frame of `cfg`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` has more than [`ColorSet::MAX_COLORS`] colors.
    pub fn new(cfg: &DramConfig) -> Self {
        let mapper = AddressMapper::new(cfg);
        let n_colors = mapper.num_colors();
        assert!(n_colors <= ColorSet::MAX_COLORS, "{n_colors} colors exceed ColorSet capacity");
        let mut free: Vec<Vec<Frame>> = vec![Vec::new(); n_colors as usize];
        // Push in reverse so that pop() hands out ascending frame numbers,
        // which keeps early allocations in low rows (realistic and
        // deterministic).
        for frame in (0..cfg.total_frames()).rev() {
            free[mapper.frame_color(frame) as usize].push(frame);
        }
        FrameAllocator { free, mapper }
    }

    /// Number of colors.
    pub fn num_colors(&self) -> u32 {
        self.free.len() as u32
    }

    /// Free frames remaining in `color`.
    pub fn free_in_color(&self, color: ColorId) -> usize {
        self.free[color as usize].len()
    }

    /// The color of `frame`.
    pub fn color_of(&self, frame: Frame) -> ColorId {
        self.mapper.frame_color(frame)
    }

    /// Allocate a frame from the allowed set, preferring the color with
    /// the most free frames. Returns `None` when every allowed color is
    /// exhausted.
    pub fn alloc(&mut self, allowed: &ColorSet) -> Option<Frame> {
        let best = allowed
            .iter()
            .filter(|&c| (c as usize) < self.free.len())
            .max_by_key(|&c| self.free[c as usize].len())?;
        self.free[best as usize].pop()
    }

    /// Return `frame` to its color's free list.
    pub fn free(&mut self, frame: Frame) {
        let color = self.color_of(frame);
        self.free[color as usize].push(frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> DramConfig {
        DramConfig { rows_per_bank: 64, ..DramConfig::default() }
    }

    #[test]
    fn frames_divide_evenly_by_color() {
        let cfg = small_cfg();
        let a = FrameAllocator::new(&cfg);
        let per_color = (cfg.total_frames() / u64::from(a.num_colors())) as usize;
        for c in 0..a.num_colors() {
            assert_eq!(a.free_in_color(c), per_color);
        }
    }

    #[test]
    fn alloc_respects_color_set() {
        let cfg = small_cfg();
        let mut a = FrameAllocator::new(&cfg);
        let allowed = ColorSet::from_iter([3u32, 7]);
        for _ in 0..10 {
            let f = a.alloc(&allowed).unwrap();
            assert!(allowed.contains(a.color_of(f)));
        }
    }

    #[test]
    fn alloc_balances_across_colors() {
        let cfg = small_cfg();
        let mut a = FrameAllocator::new(&cfg);
        let allowed = ColorSet::range(0, 4);
        let mut counts = [0usize; 4];
        for _ in 0..40 {
            let f = a.alloc(&allowed).unwrap();
            counts[a.color_of(f) as usize] += 1;
        }
        for c in counts {
            assert_eq!(c, 10);
        }
    }

    #[test]
    fn exhaustion_returns_none() {
        let cfg = small_cfg();
        let mut a = FrameAllocator::new(&cfg);
        let one = ColorSet::from_iter([0u32]);
        let cap = a.free_in_color(0);
        for _ in 0..cap {
            assert!(a.alloc(&one).is_some());
        }
        assert_eq!(a.alloc(&one), None);
    }

    #[test]
    fn free_recycles() {
        let cfg = small_cfg();
        let mut a = FrameAllocator::new(&cfg);
        let one = ColorSet::from_iter([2u32]);
        let f = a.alloc(&one).unwrap();
        let before = a.free_in_color(2);
        a.free(f);
        assert_eq!(a.free_in_color(2), before + 1);
    }

    #[test]
    fn empty_set_allocates_nothing() {
        let cfg = small_cfg();
        let mut a = FrameAllocator::new(&cfg);
        assert_eq!(a.alloc(&ColorSet::empty()), None);
    }
}
