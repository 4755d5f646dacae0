//! Sets of page colors, the allocation unit of bank partitioning.

use dbp_dram::ColorId;

/// A set of colors, stored as a 128-bit mask.
///
/// Configurations in this reproduction never exceed 128 (channel, rank,
/// bank) triples; constructors panic beyond that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ColorSet(u128);

impl ColorSet {
    /// The maximum color id representable.
    pub const MAX_COLORS: u32 = 128;

    /// The empty set.
    pub fn empty() -> Self {
        ColorSet(0)
    }

    /// All colors in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    pub fn all(n: u32) -> Self {
        Self::range(0, n)
    }

    /// Colors in `lo..hi`.
    ///
    /// # Panics
    ///
    /// Panics if `hi > 128` or `lo > hi`.
    pub fn range(lo: u32, hi: u32) -> Self {
        assert!(hi <= Self::MAX_COLORS, "color {hi} out of range");
        assert!(lo <= hi, "inverted range {lo}..{hi}");
        let mut s = ColorSet(0);
        for c in lo..hi {
            s.insert(c);
        }
        s
    }

    /// Insert a color.
    ///
    /// # Panics
    ///
    /// Panics if `color >= 128`.
    pub fn insert(&mut self, color: ColorId) {
        assert!(color < Self::MAX_COLORS, "color {color} out of range");
        self.0 |= 1u128 << color;
    }

    /// Remove a color.
    pub fn remove(&mut self, color: ColorId) {
        if color < Self::MAX_COLORS {
            self.0 &= !(1u128 << color);
        }
    }

    /// Whether `color` is in the set.
    #[inline]
    pub fn contains(&self, color: ColorId) -> bool {
        color < Self::MAX_COLORS && self.0 & (1u128 << color) != 0
    }

    /// Number of colors in the set.
    pub fn len(&self) -> u32 {
        self.0.count_ones()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Iterate colors in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = ColorId> + '_ {
        (0..Self::MAX_COLORS).filter(move |&c| self.contains(c))
    }

    /// Set union.
    pub fn union(&self, other: &ColorSet) -> ColorSet {
        ColorSet(self.0 | other.0)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ColorSet) -> ColorSet {
        ColorSet(self.0 & other.0)
    }

    /// Colors in `self` but not `other`.
    pub fn difference(&self, other: &ColorSet) -> ColorSet {
        ColorSet(self.0 & !other.0)
    }

    /// Whether the two sets share no color.
    pub fn is_disjoint(&self, other: &ColorSet) -> bool {
        self.0 & other.0 == 0
    }
}

impl FromIterator<ColorId> for ColorSet {
    fn from_iter<I: IntoIterator<Item = ColorId>>(iter: I) -> Self {
        let mut s = ColorSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

impl std::fmt::Display for ColorSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for c in self.iter() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = ColorSet::empty();
        assert!(s.is_empty());
        s.insert(5);
        s.insert(127);
        assert!(s.contains(5));
        assert!(s.contains(127));
        assert!(!s.contains(6));
        assert_eq!(s.len(), 2);
        s.remove(5);
        assert!(!s.contains(5));
    }

    #[test]
    fn range_and_all() {
        assert_eq!(ColorSet::all(32).len(), 32);
        let r = ColorSet::range(4, 8);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![4, 5, 6, 7]);
    }

    #[test]
    fn set_algebra() {
        let a = ColorSet::range(0, 4);
        let b = ColorSet::range(2, 6);
        assert_eq!(a.union(&b), ColorSet::range(0, 6));
        assert_eq!(a.intersection(&b), ColorSet::range(2, 4));
        assert_eq!(a.difference(&b), ColorSet::range(0, 2));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn from_iterator() {
        let s: ColorSet = [3u32, 1, 4].into_iter().collect();
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![1, 3, 4]);
    }

    #[test]
    fn display_lists_members() {
        let s = ColorSet::from_iter([2u32, 9]);
        assert_eq!(s.to_string(), "{2,9}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn insert_beyond_capacity_panics() {
        let mut s = ColorSet::empty();
        s.insert(128);
    }
}
