//! Memory Channel Partitioning (Muralidhara, Subramanian, Mutlu,
//! Kandemir, Moscibroda — MICRO 2011), reconstructed as a baseline.
//!
//! MCP maps the data of applications that interfere most severely onto
//! *different channels*: threads are classified by memory intensity, the
//! intensive ones by row-buffer locality, and the channel set is divided
//! between the groups in proportion to their bandwidth demand. All banks
//! within a group's channels stay shared among that group.
//!
//! The DBP paper's criticism, which this implementation reproduces by
//! construction: channel granularity is coarse, so intensive threads are
//! squeezed onto a channel subset, *physically* concentrating their
//! contention and inflating their slowdown (hurting fairness) even when
//! it helps the non-intensive threads.

use dbp_osmem::ColorSet;

use crate::policy::{debounce, proportional_alloc, sticky_at_least, PartitionPolicy};
use crate::profile::ThreadMemProfile;
use crate::topology::ColorTopology;

/// MCP classification thresholds (MICRO 2011 values).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McpConfig {
    /// Threads below this MPKI are non-intensive.
    pub low_mpki: f64,
    /// Intensive threads at or above this RBL form the high-locality
    /// group.
    pub high_rbl: f64,
}

impl Default for McpConfig {
    fn default() -> Self {
        McpConfig { low_mpki: 1.5, high_rbl: 0.5 }
    }
}

/// The channel-partitioning policy.
///
/// Classification uses a hysteresis band (+/-25 % on the MPKI threshold,
/// +/-0.1 on the RBL threshold): a thread near a boundary would otherwise
/// flip groups every epoch, and under channel partitioning a group flip
/// migrates the thread's *entire* resident footprint.
#[derive(Debug)]
pub struct ChannelPartitioning {
    cfg: McpConfig,
    last_group: Vec<Option<usize>>,
    /// A tentative group switch observed last epoch; applied only when the
    /// same switch is computed twice in a row (debouncing — one flip
    /// migrates the thread's whole footprint across channels).
    pending_switch: Vec<Option<usize>>,
}

impl ChannelPartitioning {
    /// Build the policy.
    pub fn new(cfg: McpConfig) -> Self {
        ChannelPartitioning { cfg, last_group: Vec::new(), pending_switch: Vec::new() }
    }

    /// Group with hysteresis and debouncing: 0 = intensive low-RBL,
    /// 1 = intensive high-RBL, 2 = non-intensive.
    fn group_of(&mut self, t: usize, p: &ThreadMemProfile) -> usize {
        let prev = self.last_group[t];
        let (low_mpki, high_rbl) = (self.cfg.low_mpki, self.cfg.high_rbl);
        let was_intensive = matches!(prev, Some(0) | Some(1));
        let raw = if !sticky_at_least(p.mpki, was_intensive, low_mpki * 1.25, low_mpki * 0.75) {
            2
        } else {
            usize::from(sticky_at_least(p.rbl, prev == Some(1), high_rbl + 0.1, high_rbl - 0.1))
        };
        let group = match prev {
            None => raw, // first classification applies immediately
            Some(prev_g) => debounce(&mut self.pending_switch[t], prev_g, raw),
        };
        self.last_group[t] = Some(group);
        group
    }
}

impl PartitionPolicy for ChannelPartitioning {
    fn name(&self) -> &'static str {
        "memory channel partitioning"
    }

    fn partition(
        &mut self,
        profiles: &[ThreadMemProfile],
        topo: &ColorTopology,
        _prev: Option<&[ColorSet]>,
    ) -> Vec<ColorSet> {
        let n = profiles.len();
        assert!(n > 0, "no threads to partition");
        if self.last_group.len() != n {
            self.last_group = vec![None; n];
            self.pending_switch = vec![None; n];
        }
        // Channel partitioning needs more than one channel.
        if topo.channels() < 2 {
            return vec![topo.all_colors(); n];
        }
        // Group 0: intensive, low RBL. Group 1: intensive, high RBL.
        // Group 2: non-intensive.
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); 3];
        for (t, p) in profiles.iter().enumerate() {
            let g = self.group_of(t, p);
            dbp_obs::emit(dbp_obs::EventKind::ChannelGroup { thread: t, group: g as u8 });
            members[g].push(t);
        }
        let mut groups: Vec<(Vec<usize>, f64)> = members
            .into_iter()
            .filter(|m| !m.is_empty())
            .map(|m| {
                let bw = m.iter().map(|&t| profiles[t].bandwidth_demand()).sum::<f64>();
                (m, bw)
            })
            .collect();
        if groups.len() < 2 {
            return vec![topo.all_colors(); n];
        }
        // Fewer channels than groups: merge the lightest group into the
        // next lightest until they fit.
        groups.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        while groups.len() as u32 > topo.channels() {
            let (light_members, light_bw) = groups.remove(0);
            groups[0].0.extend(light_members);
            groups[0].1 += light_bw;
        }
        let demands: Vec<f64> = groups.iter().map(|g| g.1).collect();
        let counts = proportional_alloc(topo.channels(), &demands);
        let mut plan = vec![ColorSet::empty(); n];
        let mut next_ch = 0u32;
        for ((members, _), count) in groups.iter().zip(counts) {
            let mut set = ColorSet::empty();
            for ch in next_ch..next_ch + count {
                set = set.union(&topo.channel_colors(ch));
            }
            next_ch += count;
            for &t in members {
                plan[t] = set;
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prof(mpki: f64, rbl: f64, bw: u64) -> ThreadMemProfile {
        ThreadMemProfile { mpki, rbl, blp: 2.0, reads: bw / 4, bus_cycles: bw }
    }

    fn topo() -> ColorTopology {
        ColorTopology::new(2, 2, 8)
    }

    #[test]
    fn separates_streaming_from_random_intensive() {
        let mut mcp = ChannelPartitioning::new(McpConfig::default());
        let plan =
            mcp.partition(&[prof(30.0, 0.2, 100_000), prof(25.0, 0.9, 100_000)], &topo(), None);
        assert!(plan[0].is_disjoint(&plan[1]), "conflicting groups share no channel");
        assert_eq!(plan[0].len(), 16); // one full channel each
        assert_eq!(plan[1].len(), 16);
    }

    #[test]
    fn non_intensive_gets_own_channel_when_available() {
        let mut mcp = ChannelPartitioning::new(McpConfig::default());
        let four_ch = ColorTopology::new(4, 1, 8);
        let plan = mcp.partition(
            &[prof(30.0, 0.2, 100_000), prof(25.0, 0.9, 100_000), prof(0.1, 0.5, 100)],
            &four_ch,
            None,
        );
        assert!(plan[2].is_disjoint(&plan[0]));
        assert!(plan[2].is_disjoint(&plan[1]));
    }

    #[test]
    fn merges_groups_when_channels_scarce() {
        let mut mcp = ChannelPartitioning::new(McpConfig::default());
        // Three groups but only two channels: the lightest (non-intensive)
        // merges.
        let plan = mcp.partition(
            &[prof(30.0, 0.2, 100_000), prof(25.0, 0.9, 90_000), prof(0.1, 0.5, 100)],
            &topo(),
            None,
        );
        // The two intensive groups remain separated.
        assert!(plan[0].is_disjoint(&plan[1]));
        // The calm thread shares with exactly one of them.
        assert!(plan[2] == plan[0] || plan[2] == plan[1]);
    }

    #[test]
    fn same_group_threads_share_channels() {
        let mut mcp = ChannelPartitioning::new(McpConfig::default());
        let plan = mcp.partition(
            &[prof(30.0, 0.2, 100_000), prof(28.0, 0.1, 90_000), prof(25.0, 0.9, 100_000)],
            &topo(),
            None,
        );
        assert_eq!(plan[0], plan[1]);
        assert!(plan[0].is_disjoint(&plan[2]));
    }

    #[test]
    fn single_channel_degenerates_to_shared() {
        let mut mcp = ChannelPartitioning::new(McpConfig::default());
        let one_ch = ColorTopology::new(1, 2, 8);
        let plan = mcp.partition(&[prof(30.0, 0.2, 1000), prof(25.0, 0.9, 1000)], &one_ch, None);
        assert_eq!(plan[0], one_ch.all_colors());
        assert_eq!(plan[1], one_ch.all_colors());
    }

    #[test]
    fn all_one_group_degenerates_to_shared() {
        let mut mcp = ChannelPartitioning::new(McpConfig::default());
        let plan = mcp.partition(&[prof(30.0, 0.2, 1000), prof(28.0, 0.3, 900)], &topo(), None);
        assert_eq!(plan[0], topo().all_colors());
        assert_eq!(plan[1], topo().all_colors());
    }

    /// A group change moves the thread's whole footprint across
    /// channels, so it must be confirmed: a one-epoch flip keeps the
    /// channel group, a second flip in a row adopts the new one, and an
    /// MPKI inside the 0.75–1.25× band around `low_mpki` keeps the class.
    #[test]
    fn group_changes_are_debounced_and_banded() {
        let four_ch = ColorTopology::new(4, 1, 8);
        let mut mcp = ChannelPartitioning::new(McpConfig::default());
        let (low, high, calm) =
            (prof(30.0, 0.2, 100_000), prof(25.0, 0.9, 100_000), prof(0.1, 0.5, 100));
        // Threads 0-2 anchor one group each; thread 3 is the probe.
        let mut epoch = |probe| mcp.partition(&[low, high, calm, probe], &four_ch, None);
        let p = epoch(low);
        assert_eq!(p[3], p[0]);
        assert!(p[0].is_disjoint(&p[1]) && p[1].is_disjoint(&p[2]));
        let p = epoch(high);
        assert_eq!(p[3], p[0], "a one-epoch flip keeps the group");
        let p = epoch(high);
        assert_eq!(p[3], p[1], "a second flip in a row adopts the group");
        // 1.2 and 1.8 MPKI sit inside 1.125..1.875, and 0.45 RBL inside
        // 0.4..0.6: each class holds.
        for _ in 0..3 {
            let p = epoch(prof(1.2, 0.9, 100_000));
            assert_eq!(p[3], p[1], "an intensive thread stays intensive");
        }
        for _ in 0..3 {
            let p = epoch(prof(25.0, 0.45, 100_000));
            assert_eq!(p[3], p[1], "a high-RBL thread stays high-RBL");
        }
        epoch(calm);
        epoch(calm);
        for _ in 0..3 {
            let p = epoch(prof(1.8, 0.5, 100));
            assert_eq!(p[3], p[2], "a calm thread stays calm");
        }
    }

    #[test]
    fn bandwidth_heavy_group_gets_more_channels() {
        let mut mcp = ChannelPartitioning::new(McpConfig::default());
        let four_ch = ColorTopology::new(4, 1, 8);
        let plan = mcp.partition(
            &[prof(40.0, 0.2, 300_000), prof(35.0, 0.1, 300_000), prof(20.0, 0.9, 50_000)],
            &four_ch,
            None,
        );
        assert!(plan[0].len() > plan[2].len());
    }
}
