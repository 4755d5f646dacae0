//! A measurement policy: pin thread 0 to a fixed number of bank units.
//!
//! Used by the "equal partitioning destroys bank-level parallelism"
//! characterisation (Figure 2): running one benchmark alone while varying
//! its bank allotment isolates the IPC-vs-banks curve that motivates DBP.

use dbp_osmem::ColorSet;

use crate::policy::PartitionPolicy;
use crate::profile::ThreadMemProfile;
use crate::topology::ColorTopology;

/// Thread 0 gets exactly `units` bank units; all other threads (if any)
/// share the remaining units.
#[derive(Debug, Clone, Copy)]
pub struct RestrictFirst {
    units: u32,
}

impl RestrictFirst {
    /// Build the policy.
    ///
    /// # Panics
    ///
    /// Panics if `units` is zero.
    pub fn new(units: u32) -> Self {
        assert!(units > 0, "thread 0 needs at least one unit");
        RestrictFirst { units }
    }
}

impl PartitionPolicy for RestrictFirst {
    fn partition(
        &mut self,
        profiles: &[ThreadMemProfile],
        topo: &ColorTopology,
        _prev: Option<&[ColorSet]>,
    ) -> Vec<ColorSet> {
        let k = self.units.min(topo.units());
        let first = topo.units_colors(0..k);
        let rest =
            if k < topo.units() { topo.units_colors(k..topo.units()) } else { topo.all_colors() };
        (0..profiles.len()).map(|t| if t == 0 { first } else { rest }).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn restricts_thread_zero_only() {
        let topo = ColorTopology::new(2, 1, 8);
        let mut p = RestrictFirst::new(2);
        let plan = p.partition(&[ThreadMemProfile::default(); 3], &topo, None);
        assert_eq!(plan[0].len(), 4); // 2 units x 2 channels

        assert_eq!(plan[1], plan[2]);
        assert!(plan[0].is_disjoint(&plan[1]));
    }

    #[test]
    fn clamps_to_topology() {
        let topo = ColorTopology::new(1, 1, 4);
        let mut p = RestrictFirst::new(99);
        let plan = p.partition(&[ThreadMemProfile::default()], &topo, None);
        assert_eq!(plan[0], topo.all_colors());
    }

    #[test]
    #[should_panic(expected = "at least one unit")]
    fn zero_units_panics() {
        let _ = RestrictFirst::new(0);
    }
}
