//! Static equal bank partitioning (Jeong et al. HPCA 2012 / Liu et al.
//! PACT 2012), the prior work DBP improves on.

use dbp_osmem::ColorSet;

use crate::policy::PartitionPolicy;
use crate::profile::ThreadMemProfile;
use crate::topology::ColorTopology;

/// Split the bank units evenly among threads, ignoring their behaviour.
///
/// Eliminates inter-thread row-buffer interference like any bank
/// partitioning, but caps every thread at `banks / n` banks — which
/// destroys the bank-level parallelism of threads that could use more.
/// That lost BLP is exactly what [`crate::policy::Dbp`] recovers.
///
/// When there are more threads than units, threads share units
/// round-robin (`thread i -> unit i mod units`).
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualBankPartitioning;

impl PartitionPolicy for EqualBankPartitioning {
    fn partition(
        &mut self,
        profiles: &[ThreadMemProfile],
        topo: &ColorTopology,
        _prev: Option<&[ColorSet]>,
    ) -> Vec<ColorSet> {
        let n = profiles.len() as u32;
        assert!(n > 0, "no threads to partition");
        let units = topo.units();
        if n > units {
            return (0..n).map(|t| topo.unit_colors(t % units)).collect();
        }
        let per = units / n;
        let extra = units % n;
        let mut next = 0u32;
        (0..n)
            .map(|t| {
                let count = per + u32::from(t < extra);
                let set = topo.units_colors(next..next + count);
                next += count;
                set
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_threads_eight_units() {
        let topo = ColorTopology::new(2, 2, 8);
        let mut p = EqualBankPartitioning;
        let plan = p.partition(&[ThreadMemProfile::default(); 4], &topo, None);
        // Each thread: 2 units x 4 (ch,rank) = 8 colors.
        for s in &plan {
            assert_eq!(s.len(), 8);
        }
        // Disjoint and complete.
        for i in 0..4 {
            for j in i + 1..4 {
                assert!(plan[i].is_disjoint(&plan[j]));
            }
        }
        let union = plan.iter().fold(ColorSet::empty(), |a, s| a.union(s));
        assert_eq!(union, topo.all_colors());
    }

    #[test]
    fn uneven_split_gives_remainder_to_first() {
        let topo = ColorTopology::new(1, 1, 8);
        let mut p = EqualBankPartitioning;
        let plan = p.partition(&[ThreadMemProfile::default(); 3], &topo, None);
        let lens: Vec<u32> = plan.iter().map(ColorSet::len).collect();
        assert_eq!(lens, vec![3, 3, 2]);
    }

    #[test]
    fn more_threads_than_units_shares_round_robin() {
        let topo = ColorTopology::new(1, 1, 4);
        let mut p = EqualBankPartitioning;
        let plan = p.partition(&[ThreadMemProfile::default(); 6], &topo, None);
        assert_eq!(plan[0], plan[4]);
        assert_eq!(plan[1], plan[5]);
        assert!(plan[0].is_disjoint(&plan[1]));
    }

    #[test]
    fn ignores_profiles_entirely() {
        let topo = ColorTopology::new(2, 2, 8);
        let mut p = EqualBankPartitioning;
        let hungry = ThreadMemProfile { blp: 8.0, mpki: 50.0, ..Default::default() };
        let idle = ThreadMemProfile::default();
        let plan = p.partition(&[hungry, idle], &topo, None);
        assert_eq!(plan[0].len(), plan[1].len());
    }
}
