//! Dynamic Bank Partitioning — the paper's algorithm.

use dbp_osmem::ColorSet;

use crate::estimator::{BankDemandEstimator, EstimatorConfig};
use crate::policy::{debounce, proportional_alloc, sticky_at_least, PartitionPolicy};
use crate::profile::ThreadMemProfile;
use crate::topology::ColorTopology;

/// Threads below this MPKI are *non-intensive* and grouped onto a
/// shared slice — they rarely conflict, so dedicating banks to each
/// of them wastes parallelism the intensive threads need.
const LOW_MPKI: f64 = 1.0;
/// Minimum bank-unit demand attributed to the non-intensive group
/// (it behaves like one thread with at least this much parallelism).
const CALM_GROUP_FLOOR: u32 = 2;

/// DBP tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DbpConfig {
    /// Demand-estimation parameters.
    pub estimator: EstimatorConfig,
    /// Ablation switch: when false, non-intensive threads are *not*
    /// grouped and compete for dedicated units like everyone else.
    pub group_non_intensive: bool,
}

impl Default for DbpConfig {
    fn default() -> Self {
        DbpConfig { estimator: EstimatorConfig::default(), group_non_intensive: true }
    }
}

/// The Dynamic Bank Partitioning policy.
///
/// Each epoch:
///
/// 1. classify threads by memory intensity (with the shared hysteresis
///    rule, `sticky_at_least`);
/// 2. estimate every intensive thread's bank-unit demand from its
///    measured BLP and row locality (exponentially smoothed);
/// 3. treat the non-intensive threads as *one* group-taker whose demand is
///    that of its hungriest member;
/// 4. **water-fill** the bank units: takers whose demand fits under the
///    fair share get exactly their demand, the freed units flow to the
///    BLP-hungry takers, and any surplus is split proportionally — so no
///    thread is squeezed below its demand to feed another (the failure
///    mode of both equal partitioning and naive proportional splits);
/// 5. keep previously-owned units wherever possible and debounce count
///    changes (the shared two-in-a-row rule, `debounce`), so
///    repartitioning migrates few pages.
#[derive(Debug)]
pub struct Dbp {
    cfg: DbpConfig,
    est: BankDemandEstimator,
    last_demands: Vec<u32>,
    ewma_demand: Vec<f64>,
    was_intensive: Vec<bool>,
    pending_counts: Option<Vec<u32>>,
}

impl Dbp {
    /// Build the policy.
    pub fn new(cfg: DbpConfig) -> Self {
        Dbp {
            est: BankDemandEstimator::new(cfg.estimator),
            cfg,
            last_demands: Vec::new(),
            ewma_demand: Vec::new(),
            was_intensive: Vec::new(),
            pending_counts: None,
        }
    }

    fn classify_intensive(&mut self, t: usize, profile: &ThreadMemProfile) -> bool {
        let now =
            sticky_at_least(profile.mpki, self.was_intensive[t], LOW_MPKI * 1.25, LOW_MPKI * 0.75);
        self.was_intensive[t] = now;
        now
    }

    fn smoothed_demand(&mut self, t: usize, raw: u32) -> f64 {
        let raw = f64::from(raw);
        let prev = self.ewma_demand[t];
        let next = if prev == 0.0 { raw } else { 0.5 * prev + 0.5 * raw };
        self.ewma_demand[t] = next;
        next
    }

    /// The per-thread demand estimates from the most recent
    /// [`PartitionPolicy::partition`] call (0 for non-intensive threads).
    pub fn last_demands(&self) -> &[u32] {
        &self.last_demands
    }

    /// Water-filling with demand caps until the pool is spoken for, then
    /// proportional surplus. Every taker gets at least one unit.
    ///
    /// # Panics
    ///
    /// Panics if there are more takers than units.
    fn water_fill(pool: u32, demands: &[u32]) -> Vec<u32> {
        let n = demands.len();
        assert!(n as u32 <= pool, "more takers than units");
        let total_demand: u32 = demands.iter().sum();
        if total_demand <= pool {
            // Everyone's demand fits; split the surplus proportionally.
            let surplus = pool - total_demand;
            let extra = proportional_alloc(
                surplus + n as u32,
                &demands.iter().map(|&d| f64::from(d)).collect::<Vec<_>>(),
            );
            return demands
                .iter()
                .zip(extra)
                .map(|(&d, e)| d + e - 1) // proportional_alloc guarantees >= 1
                .collect();
        }
        // Demand exceeds supply: satisfy small demands fully, then share
        // the rest proportionally among the big ones.
        let mut alloc: Vec<Option<u32>> = vec![None; n];
        let mut remaining = pool;
        let mut active: Vec<usize> = (0..n).collect();
        loop {
            let share = remaining / active.len() as u32;
            let (fits, over): (Vec<usize>, Vec<usize>) =
                active.iter().partition(|&&i| demands[i] <= share.max(1));
            if fits.is_empty() || over.is_empty() {
                let dem: Vec<f64> = active.iter().map(|&i| f64::from(demands[i])).collect();
                let split = proportional_alloc(remaining, &dem);
                for (&i, s) in active.iter().zip(split) {
                    alloc[i] = Some(s);
                }
                break;
            }
            for &i in &fits {
                alloc[i] = Some(demands[i]);
                remaining -= demands[i];
            }
            active = over;
        }
        alloc.into_iter().map(|a| a.expect("all takers assigned")).collect()
    }

    /// Stable unit assignment: keep previously-owned units, then fill
    /// ascending. `counts[k]` units for taker `k`; `prev_units[k]` lists
    /// units taker `k` currently owns within the pool `0..pool`.
    fn assign_stable(pool: u32, counts: &[u32], prev_units: &[Vec<u32>]) -> Vec<Vec<u32>> {
        let mut owner: Vec<Option<usize>> = vec![None; pool as usize];
        let mut result: Vec<Vec<u32>> = vec![Vec::new(); counts.len()];
        for (k, prev) in prev_units.iter().enumerate() {
            for &u in prev {
                if u < pool && owner[u as usize].is_none() && result[k].len() < counts[k] as usize {
                    owner[u as usize] = Some(k);
                    result[k].push(u);
                }
            }
        }
        for (k, &count) in counts.iter().enumerate() {
            let mut u = 0u32;
            while result[k].len() < count as usize {
                debug_assert!(u < pool, "unit pool exhausted");
                if owner[u as usize].is_none() {
                    owner[u as usize] = Some(k);
                    result[k].push(u);
                }
                u += 1;
            }
            result[k].sort_unstable();
        }
        result
    }
}

impl PartitionPolicy for Dbp {
    fn partition(
        &mut self,
        profiles: &[ThreadMemProfile],
        topo: &ColorTopology,
        prev: Option<&[ColorSet]>,
    ) -> Vec<ColorSet> {
        let n = profiles.len();
        assert!(n > 0, "no threads to partition");
        self.last_demands = vec![0; n];
        if self.ewma_demand.len() != n {
            self.ewma_demand = vec![0.0; n];
            self.was_intensive = vec![false; n];
        }
        // Cold start (no measurements yet): fall back to the equal-split
        // prior so the first real epoch only migrates the *delta* between
        // equal and demand-proportional shares.
        if profiles.iter().all(|p| p.reads == 0) {
            return crate::policy::EqualBankPartitioning.partition(profiles, topo, prev);
        }
        let (intensive, calm): (Vec<usize>, Vec<usize>) = (0..n).partition(|&t| {
            !self.cfg.group_non_intensive || self.classify_intensive(t, &profiles[t])
        });
        // Nothing intensive: partitioning buys nothing; leave everything
        // shared so the non-intensive threads keep all their locality.
        if intensive.is_empty() {
            return vec![topo.all_colors(); n];
        }
        let units = topo.units();
        // Takers: one per intensive thread + one for the calm group.
        let n_takers = intensive.len() as u32 + u32::from(!calm.is_empty());
        if n_takers > units {
            // More takers than units: fall back to round-robin sharing.
            let mut plan = vec![ColorSet::empty(); n];
            for (k, &t) in intensive.iter().enumerate() {
                self.last_demands[t] = 1;
                plan[t] = topo.unit_colors(k as u32 % units);
            }
            let calm_set = topo.unit_colors(units - 1);
            for &t in &calm {
                plan[t] = calm_set;
            }
            return plan;
        }
        let mut demands: Vec<u32> = intensive
            .iter()
            .map(|&t| {
                let raw = self.est.demand(&profiles[t], units);
                let d = self.smoothed_demand(t, raw).round().max(1.0) as u32;
                self.last_demands[t] = d;
                dbp_obs::emit(dbp_obs::EventKind::BankDemand { thread: t, units: d });
                d
            })
            .collect();
        if !calm.is_empty() {
            let calm_max =
                calm.iter().map(|&t| self.est.demand(&profiles[t], units)).max().unwrap_or(1);
            demands.push(calm_max.max(CALM_GROUP_FLOOR));
        }
        let mut counts = Self::water_fill(units, &demands);
        let prev_units: Vec<Vec<u32>> = intensive
            .iter()
            .chain(calm.first())
            .map(|&t| prev.map_or_else(Vec::new, |p| topo.units_of(&p[t])))
            .collect();
        // Debounce the count vector: rounding flapping (a demand hovering
        // between two unit counts) then never migrates pages, while a
        // genuine demand shift is adopted one epoch late.
        if prev.is_some() {
            let prev_counts: Vec<u32> = prev_units.iter().map(|u| u.len() as u32).collect();
            let fits =
                prev_counts.iter().sum::<u32>() == units && prev_counts.iter().all(|&c| c >= 1);
            if fits {
                counts = debounce(&mut self.pending_counts, prev_counts, counts);
            } else {
                self.pending_counts = None;
            }
        }
        let assigned = Self::assign_stable(units, &counts, &prev_units);
        let mut plan = vec![ColorSet::empty(); n];
        for (k, &t) in intensive.iter().enumerate() {
            plan[t] = topo.units_colors(assigned[k].iter().copied());
        }
        if !calm.is_empty() {
            let calm_set = topo.units_colors(assigned[intensive.len()].iter().copied());
            for &t in &calm {
                plan[t] = calm_set;
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn intensive(blp: f64, rbl: f64) -> ThreadMemProfile {
        ThreadMemProfile { mpki: 25.0, rbl, blp, reads: 50_000, bus_cycles: 200_000 }
    }

    fn calm() -> ThreadMemProfile {
        ThreadMemProfile { mpki: 0.2, rbl: 0.5, blp: 1.0, reads: 400, bus_cycles: 1_600 }
    }

    fn topo() -> ColorTopology {
        ColorTopology::new(2, 2, 8)
    }

    #[test]
    fn water_fill_respects_demand_caps() {
        // Demands [6, 2] over 8: both satisfied exactly.
        assert_eq!(Dbp::water_fill(8, &[6, 2]), vec![6, 2]);
        // Over-demand [6, 6] over 8: proportional split.
        assert_eq!(Dbp::water_fill(8, &[6, 6]), vec![4, 4]);
        // Small demand protected: [7, 1] over 4 -> [3, 1].
        assert_eq!(Dbp::water_fill(4, &[7, 1]), vec![3, 1]);
    }

    #[test]
    fn water_fill_distributes_surplus() {
        // Demands [2, 2] over 8: surplus split evenly.
        let a = Dbp::water_fill(8, &[2, 2]);
        assert_eq!(a.iter().sum::<u32>(), 8);
        assert_eq!(a, vec![4, 4]);
        // Surplus follows demand.
        let b = Dbp::water_fill(8, &[4, 2]);
        assert_eq!(b.iter().sum::<u32>(), 8);
        assert!(b[0] > b[1]);
    }

    #[test]
    fn water_fill_never_starves() {
        for pool in 3..=16u32 {
            for d in 1..=8u32 {
                let a = Dbp::water_fill(pool, &[d, 8, 8].map(|x| x.min(pool)));
                assert_eq!(a.iter().sum::<u32>(), pool, "pool {pool} d {d}");
                assert!(a.iter().all(|&x| x >= 1));
            }
        }
    }

    #[test]
    fn high_blp_thread_gets_more_banks() {
        let mut dbp = Dbp::new(DbpConfig::default());
        let plan = dbp.partition(&[intensive(6.0, 0.2), intensive(1.2, 0.95)], &topo(), None);
        assert!(plan[0].len() > plan[1].len());
        assert!(plan[0].is_disjoint(&plan[1]));
        assert!(dbp.last_demands()[0] > dbp.last_demands()[1]);
    }

    #[test]
    fn streaming_thread_keeps_its_demand() {
        // The streaming thread's demand (~2 units) must be satisfied, not
        // squeezed to 1 by the hungry thread.
        let mut dbp = Dbp::new(DbpConfig::default());
        let plan = dbp.partition(&[intensive(8.0, 0.2), intensive(1.0, 0.95)], &topo(), None);
        let streaming_units = topo().units_of(&plan[1]).len();
        assert!(streaming_units >= 1);
        assert_eq!(topo().units_of(&plan[0]).len() + streaming_units, topo().units() as usize);
    }

    #[test]
    fn non_intensive_threads_share_one_slice() {
        let mut dbp = Dbp::new(DbpConfig::default());
        let plan = dbp.partition(&[intensive(4.0, 0.3), calm(), calm()], &topo(), None);
        assert_eq!(plan[1], plan[2]);
        assert!(plan[0].is_disjoint(&plan[1]));
        assert!(!plan[1].is_empty());
    }

    #[test]
    fn all_calm_stays_unpartitioned() {
        let mut dbp = Dbp::new(DbpConfig::default());
        let plan = dbp.partition(&[calm(), calm()], &topo(), None);
        assert_eq!(plan[0], topo().all_colors());
        assert_eq!(plan[1], topo().all_colors());
    }

    #[test]
    fn plan_covers_all_units_disjointly() {
        let mut dbp = Dbp::new(DbpConfig::default());
        let profs = [intensive(6.0, 0.2), intensive(3.0, 0.4), intensive(2.0, 0.6), calm()];
        let plan = dbp.partition(&profs, &topo(), None);
        for i in 0..3 {
            for j in i + 1..4 {
                assert!(plan[i].is_disjoint(&plan[j]), "{i} vs {j}");
            }
            assert!(!plan[i].is_empty());
        }
        let union = plan.iter().fold(ColorSet::empty(), |a, s| a.union(s));
        assert_eq!(union, topo().all_colors());
    }

    #[test]
    fn repartition_is_stable_under_same_profiles() {
        let mut dbp = Dbp::new(DbpConfig::default());
        let profs = [intensive(5.0, 0.2), intensive(2.0, 0.7), calm(), calm()];
        let first = dbp.partition(&profs, &topo(), None);
        let second = dbp.partition(&profs, &topo(), Some(&first));
        assert_eq!(first, second, "same profiles must not churn pages");
    }

    #[test]
    fn demand_shift_adopted_after_debounce() {
        let mut dbp = Dbp::new(DbpConfig::default());
        let t = topo();
        let hungry = [intensive(8.0, 0.2), intensive(1.0, 0.2)];
        let modest = [intensive(1.0, 0.2), intensive(8.0, 0.2)];
        let p0 = dbp.partition(&hungry, &t, None);
        assert!(t.units_of(&p0[0]).len() > t.units_of(&p0[1]).len());
        // One epoch of the shifted profile: debounced, plan unchanged.
        let p1 = dbp.partition(&modest, &t, Some(&p0));
        assert_eq!(p0, p1);
        // After enough epochs the smoothed demands converge and the plan
        // flips around.
        let mut plan = p1;
        for _ in 0..6 {
            plan = dbp.partition(&modest, &t, Some(&plan));
        }
        assert!(t.units_of(&plan[1]).len() > t.units_of(&plan[0]).len());
        // And the shrunk thread keeps a subset of its old units.
        assert!(!plan[0].intersection(&p0[0]).is_empty());
    }

    #[test]
    fn more_intensive_threads_than_units_share() {
        let small = ColorTopology::new(1, 1, 2);
        let mut dbp = Dbp::new(DbpConfig::default());
        let profs = vec![intensive(2.0, 0.3); 4];
        let plan = dbp.partition(&profs, &small, None);
        assert_eq!(plan[0], plan[2]);
        assert_eq!(plan[1], plan[3]);
        assert!(plan[0].is_disjoint(&plan[1]));
    }

    #[test]
    fn grouping_ablation_dedicates_units_to_calm_threads() {
        let mut dbp = Dbp::new(DbpConfig { group_non_intensive: false, ..Default::default() });
        let plan = dbp.partition(&[intensive(4.0, 0.3), calm(), calm()], &topo(), None);
        // Without grouping, the calm threads get their own disjoint units.
        assert!(plan[1].is_disjoint(&plan[2]));
    }

    #[test]
    fn single_unit_topology_degenerates_to_sharing() {
        let tiny = ColorTopology::new(1, 1, 1);
        let mut dbp = Dbp::new(DbpConfig::default());
        let plan = dbp.partition(&[intensive(4.0, 0.2), calm()], &tiny, None);
        assert!(!plan[0].is_empty());
        assert!(!plan[1].is_empty());
    }
}
