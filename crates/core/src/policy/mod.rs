//! Partitioning policies: profiles in, per-thread color sets out.

mod dbp;
mod equal;
mod mcp;
mod restrict;
mod unpartitioned;

pub use dbp::{Dbp, DbpConfig};
pub use equal::EqualBankPartitioning;
pub use mcp::{ChannelPartitioning, McpConfig};
pub use restrict::RestrictFirst;
pub use unpartitioned::Unpartitioned;

use dbp_osmem::ColorSet;

use crate::profile::ThreadMemProfile;
use crate::topology::ColorTopology;

/// A memory-partitioning policy.
///
/// Called once per profiling epoch with every thread's measured profile;
/// returns the color set each thread may allocate pages from. `prev` is
/// the plan currently in force, letting stateful policies minimise the
/// pages that must migrate.
pub trait PartitionPolicy: std::fmt::Debug {
    /// Compute the next plan. The result has one non-empty [`ColorSet`]
    /// per thread.
    fn partition(
        &mut self,
        profiles: &[ThreadMemProfile],
        topo: &ColorTopology,
        prev: Option<&[ColorSet]>,
    ) -> Vec<ColorSet>;
}

/// Declarative policy selection for experiment configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PolicyKind {
    /// All threads may use every color (the shared baseline).
    Unpartitioned,
    /// Static equal split of bank units (prior work the paper improves).
    Equal,
    /// Dynamic Bank Partitioning (the paper's contribution).
    Dbp(DbpConfig),
    /// Memory Channel Partitioning (MCP baseline).
    Mcp(McpConfig),
    /// Measurement-only: pin thread 0 to N bank units (Figure 2).
    RestrictFirst(u32),
}

impl PolicyKind {
    /// The four comparable policies under their command-line names,
    /// default-configured (`RestrictFirst` is measurement-only and has
    /// none): the one list that parsing, help text and "every policy"
    /// loops share.
    pub fn named() -> [(&'static str, PolicyKind); 4] {
        [
            ("shared", PolicyKind::Unpartitioned),
            ("equal", PolicyKind::Equal),
            ("dbp", PolicyKind::Dbp(Default::default())),
            ("mcp", PolicyKind::Mcp(Default::default())),
        ]
    }

    /// Instantiate the policy.
    pub fn build(&self) -> Box<dyn PartitionPolicy> {
        match *self {
            PolicyKind::Unpartitioned => Box::new(Unpartitioned),
            PolicyKind::Equal => Box::new(EqualBankPartitioning),
            PolicyKind::Dbp(cfg) => Box::new(Dbp::new(cfg)),
            PolicyKind::Mcp(cfg) => Box::new(ChannelPartitioning::new(cfg)),
            PolicyKind::RestrictFirst(units) => Box::new(RestrictFirst::new(units)),
        }
    }

    /// Check the policy's parameters, so a bad value is an error before
    /// anything is built rather than a meaningless plan later.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated requirement.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            PolicyKind::Dbp(cfg) => {
                let alpha = cfg.estimator.alpha;
                if !(alpha.is_finite() && alpha > 0.0) {
                    return Err(format!(
                        "DBP estimator alpha must be finite and positive, got {alpha}"
                    ));
                }
            }
            PolicyKind::RestrictFirst(0) => {
                return Err("restrict-first must give thread 0 at least 1 unit, got 0".into());
            }
            _ => {}
        }
        Ok(())
    }

    /// Short label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            PolicyKind::Unpartitioned => "shared",
            PolicyKind::Equal => "equal-BP",
            PolicyKind::Dbp(_) => "DBP",
            PolicyKind::Mcp(_) => "MCP",
            PolicyKind::RestrictFirst(_) => "restrict",
        }
    }
}

/// The one hysteresis rule: whether `value` counts as at or above a
/// threshold, given whether it did last epoch. Crossing upward needs
/// `enter`, dropping back needs to fall below `leave` (`leave <= enter`),
/// so a value hovering near the threshold keeps its class.
pub(crate) fn sticky_at_least(value: f64, was: bool, enter: f64, leave: f64) -> bool {
    value >= if was { leave } else { enter }
}

/// The one debounce rule: `proposed` replaces `current` only when the
/// same change was proposed at the previous call too. `pending` holds
/// the change awaiting its confirmation; a proposal equal to `current`
/// clears it.
pub(crate) fn debounce<T: PartialEq>(pending: &mut Option<T>, current: T, proposed: T) -> T {
    if proposed == current {
        *pending = None;
        current
    } else if pending.take().as_ref() == Some(&proposed) {
        proposed
    } else {
        *pending = Some(proposed);
        current
    }
}

/// Split `total` units among `demands.len()` takers proportionally, with
/// every taker receiving at least one unit (largest-remainder style).
///
/// # Panics
///
/// Panics if there are more takers than units, or no takers.
pub(crate) fn proportional_alloc(total: u32, demands: &[f64]) -> Vec<u32> {
    let n = demands.len();
    assert!(n > 0, "no takers");
    assert!(n as u32 <= total, "more takers ({n}) than units ({total})");
    let sum: f64 = demands.iter().sum::<f64>().max(f64::MIN_POSITIVE);
    let mut alloc: Vec<u32> =
        demands.iter().map(|d| (((total as f64) * d / sum).floor() as u32).max(1)).collect();
    let mut s: u32 = alloc.iter().sum();
    while s > total {
        // Reclaim from the taker with the most units (keep the minimum 1).
        let i = (0..n)
            .filter(|&i| alloc[i] > 1)
            .max_by_key(|&i| alloc[i])
            .expect("sum > total implies someone has more than 1");
        alloc[i] -= 1;
        s -= 1;
    }
    while s < total {
        // Grant to the most under-served taker (largest demand per unit).
        let i = (0..n)
            .max_by(|&a, &b| {
                let ra = demands[a] / f64::from(alloc[a]);
                let rb = demands[b] / f64::from(alloc[b]);
                ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("n > 0");
        alloc[i] += 1;
        s += 1;
    }
    alloc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_alloc_sums_to_total() {
        let a = proportional_alloc(8, &[6.0, 2.0, 1.0, 1.0]);
        assert_eq!(a.iter().sum::<u32>(), 8);
        assert!(a.iter().all(|&x| x >= 1));
        assert!(a[0] > a[1]);
    }

    #[test]
    fn proportional_alloc_handles_zero_demands() {
        let a = proportional_alloc(4, &[0.0, 0.0]);
        assert_eq!(a.iter().sum::<u32>(), 4);
        assert!(a.iter().all(|&x| x >= 1));
    }

    #[test]
    fn proportional_alloc_exact_split() {
        assert_eq!(proportional_alloc(4, &[1.0, 1.0]), vec![2, 2]);
    }

    #[test]
    fn proportional_alloc_respects_minimum() {
        let a = proportional_alloc(4, &[1000.0, 0.001, 0.001]);
        assert_eq!(a.iter().sum::<u32>(), 4);
        assert_eq!(a[1], 1);
        assert_eq!(a[2], 1);
        assert_eq!(a[0], 2);
    }

    #[test]
    #[should_panic(expected = "more takers")]
    fn too_many_takers_panics() {
        let _ = proportional_alloc(2, &[1.0, 1.0, 1.0]);
    }

    #[test]
    fn debounce_adopts_only_a_change_proposed_twice_in_a_row() {
        let mut pending = None;
        assert_eq!(debounce(&mut pending, 0, 1), 0);
        // Flapping between two proposals never adopts either.
        assert_eq!(debounce(&mut pending, 0, 2), 0);
        assert_eq!(debounce(&mut pending, 0, 1), 0);
        // Proposing the current value forgets the pending change.
        assert_eq!(debounce(&mut pending, 0, 0), 0);
        assert_eq!(pending, None);
        assert_eq!(debounce(&mut pending, 0, 1), 0);
        assert_eq!(debounce(&mut pending, 0, 1), 1);
        assert_eq!(pending, None);
    }

    #[test]
    fn policy_kind_builds_all() {
        let named = PolicyKind::named().map(|(_, kind)| kind);
        for kind in named.into_iter().chain([PolicyKind::RestrictFirst(2)]) {
            kind.build();
            assert!(!kind.label().is_empty());
        }
    }

    /// `RestrictFirst::new(0)` asserts; `validate` says so first.
    #[test]
    fn restrict_first_zero_is_a_validate_error() {
        let err = PolicyKind::RestrictFirst(0).validate().unwrap_err();
        assert!(err.contains("at least 1 unit, got 0"), "{err}");
        assert_eq!(PolicyKind::RestrictFirst(1).validate(), Ok(()));
    }
}
