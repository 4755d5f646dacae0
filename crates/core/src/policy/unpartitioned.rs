//! The shared baseline: no partitioning at all.

use dbp_osmem::ColorSet;

use crate::policy::PartitionPolicy;
use crate::profile::ThreadMemProfile;
use crate::topology::ColorTopology;

/// Every thread may allocate from every color. Interference is whatever
/// the scheduler permits — this is the conventional shared memory system.
#[derive(Debug, Clone, Copy, Default)]
pub struct Unpartitioned;

impl PartitionPolicy for Unpartitioned {
    fn partition(
        &mut self,
        profiles: &[ThreadMemProfile],
        topo: &ColorTopology,
        _prev: Option<&[ColorSet]>,
    ) -> Vec<ColorSet> {
        vec![topo.all_colors(); profiles.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn everyone_gets_everything() {
        let topo = ColorTopology::new(2, 2, 8);
        let mut p = Unpartitioned;
        let plan = p.partition(&[ThreadMemProfile::default(); 4], &topo, None);
        assert_eq!(plan.len(), 4);
        for s in plan {
            assert_eq!(s, topo.all_colors());
        }
    }
}
