//! Policy decision audit: shadow-policy comparison, demand-estimation
//! accuracy, and convergence telemetry.
//!
//! The simulator decides a bank partition every epoch. This module
//! answers three questions about those decisions, purely from data the
//! epoch loop already produces:
//!
//! 1. **Shadow policies** — what would rival policies (equal split, MCP,
//!    DBP with different estimator knobs) have allocated on the *same*
//!    profile stream? Each epoch the live plan is compared against every
//!    shadow's hypothetical plan: the *allocation distance* (symmetric
//!    difference of per-thread bank-unit sets, summed over threads), the
//!    pages resident outside the shadow's proposed partition (the
//!    migration backlog adopting that plan would create), and per-policy
//!    churn/flap counters.
//! 2. **Estimation accuracy** — the estimator's predicted bank demand
//!    for the *next* epoch is paired with what the thread actually
//!    achieved in that epoch (BLP, row-hit rate, IPC), yielding a
//!    per-thread prediction-error series and a calibration table
//!    (predicted-demand bucket × achieved BLP).
//! 3. **Convergence** — epochs until the live allocation stabilises
//!    after warmup and after each detected profile-phase shift, plus a
//!    flap-rate metric.
//!
//! The module is pure data: the `sim` crate feeds an [`AuditBuilder`]
//! one [`EpochObservation`] per repartition decision and snapshots an
//! [`AuditReport`] at the end of the run. Everything here is
//! observation-only by construction — nothing reaches back into the
//! simulation, and the byte-identity property tests in `dbp-sim` hold
//! the whole audit path to that contract.
//!
//! ## Metric definitions
//!
//! * **change** — a decision whose plan differs from the same policy's
//!   previous plan for at least one thread (`thread_changes` counts the
//!   threads individually).
//! * **flap** — a thread whose allocation returns to its value of two
//!   decisions ago after changing in between (an A→B→A toggle),
//!   counted per (thread, decision).
//! * **flap rate** — flaps / (threads × decisions).
//! * **stable** — [`STABLE_WINDOW`] consecutive decisions without a
//!   change. *Epochs-to-stable* is the number of decisions from a
//!   reference point (measurement start, or a phase shift) to the first
//!   decision of the first stable window; `None` if the run ends first.
//! * **phase shift** — a decision where a thread's profile moved sharply
//!   against the previous epoch (MPKI by > max(2.0, 30 %) or BLP
//!   by > 1.0).

use crate::json::json_record;
use crate::table::Table;

/// Consecutive unchanged decisions required before the allocation counts
/// as stable.
pub const STABLE_WINDOW: u64 = 3;

/// What one thread actually achieved during one epoch (fed alongside the
/// profile the policies decided on).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProfileSample {
    /// Memory intensity (misses per kilo-instruction) over the epoch.
    pub mpki: f64,
    /// Achieved row-buffer hit fraction over the epoch.
    pub rbl: f64,
    /// Achieved bank-level parallelism over the epoch.
    pub blp: f64,
    /// Instructions per CPU cycle over the epoch.
    pub ipc: f64,
}

/// One shadow policy's hypothetical decision for one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShadowEpoch {
    /// Per-thread allocated bank units (sorted unit ids).
    pub units: Vec<Vec<u32>>,
    /// Resident pages that violate the proposed partition — the
    /// migration backlog this plan would create if adopted now.
    pub would_migrate_pages: u64,
}

/// Everything the audit layer observes about one repartition decision.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochObservation {
    /// Zero-based decision (epoch) index.
    pub epoch: u64,
    /// The live policy's plan: per-thread bank units (sorted unit ids).
    pub live_units: Vec<Vec<u32>>,
    /// Per-thread achieved behaviour during the epoch that just closed.
    pub achieved: Vec<ProfileSample>,
    /// The estimator's raw bank-unit demand prediction per thread,
    /// computed from this epoch's profile (a forecast for the next).
    pub predicted_units: Vec<u32>,
    /// One entry per shadow policy, in rack order.
    pub shadows: Vec<ShadowEpoch>,
}

json_record! {
    /// Decision-churn counters for one policy (live or shadow).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ChurnStats {
        /// Repartition decisions observed.
        pub decisions: u64,
        /// Decisions that changed at least one thread's allocation.
        pub changes: u64,
        /// Sum over decisions of threads whose allocation changed.
        pub thread_changes: u64,
        /// A→B→A toggles (see the module docs).
        pub flaps: u64,
    }

    /// Aggregate audit of one policy across the run.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct PolicyAudit {
        /// Display label (e.g. `DBP`, `equal-BP`, `DBP(alpha=4)`).
        pub name: String,
        pub churn: ChurnStats,
        /// Mean per-decision allocation distance to the live plan (always 0
        /// for the live policy itself).
        pub mean_distance: f64,
        /// Largest single-decision distance to the live plan.
        pub max_distance: u64,
        /// Decisions whose plan matched the live plan exactly.
        pub agreement_epochs: u64,
        /// Total pages that violated this policy's proposed partitions.
        pub would_migrate_pages: u64,
    }

    /// Prediction-accuracy aggregates for one thread.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct ThreadPrediction {
        pub thread: usize,
        /// Paired (prediction, next-epoch outcome) samples.
        pub samples: u64,
        /// Mean signed error, units (predicted − realised demand).
        pub mean_err: f64,
        /// Mean absolute error, units.
        pub mean_abs_err: f64,
        /// Largest absolute error, units.
        pub max_abs_err: u64,
        /// Mean predicted demand, units.
        pub mean_predicted: f64,
        /// Mean BLP the thread actually achieved in the predicted epochs.
        pub mean_achieved_blp: f64,
        /// Mean row-hit fraction achieved in the predicted epochs.
        pub mean_achieved_rbl: f64,
        /// Mean IPC achieved in the predicted epochs.
        pub mean_achieved_ipc: f64,
    }

    /// One cell of the per-thread calibration table: all epochs in which
    /// `predicted_units` was forecast for `thread`, against what it then
    /// achieved.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct CalibrationRow {
        pub thread: usize,
        pub predicted_units: u32,
        pub samples: u64,
        pub mean_blp: f64,
        pub min_blp: f64,
        pub max_blp: f64,
    }

    /// A detected profile-phase shift and how long the live allocation took
    /// to restabilise afterwards.
    #[derive(Debug, Clone, PartialEq)]
    pub struct PhaseShift {
        /// Decision index at which the shift was detected.
        pub epoch: u64,
        pub thread: usize,
        /// Which profile dimension moved (`mpki` or `blp`).
        pub metric: String,
        /// Decisions until the first [`STABLE_WINDOW`]-long run of unchanged
        /// live decisions starting at or after the shift; `None` if the run
        /// ended first.
        pub epochs_to_restabilize: Option<u64>,
    }

    /// Convergence telemetry for the live policy.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct Convergence {
        /// Total decisions observed.
        pub decisions: u64,
        /// Decision index at which measurement began (end of warmup), if the
        /// run had a measured phase.
        pub measurement_start: Option<u64>,
        /// Decisions from measurement start to the first stable window.
        pub epochs_to_stable: Option<u64>,
        /// The window length the stability metrics use.
        pub stable_window: u64,
        /// Live-policy flap rate (see [`ChurnStats::flap_rate`]).
        pub flap_rate: f64,
        pub phase_shifts: Vec<PhaseShift>,
    }

    /// Per-decision audit row (the exported time series).
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct AuditEpochRow {
        pub epoch: u64,
        /// Threads whose live allocation changed this decision.
        pub live_changed: Vec<usize>,
        /// Mean absolute prediction error across threads, units; `None` for
        /// the first decision (nothing to pair against yet).
        pub mean_abs_pred_error: Option<f64>,
        /// Per shadow: allocation distance to the live plan.
        pub shadow_distance: Vec<u64>,
        /// Per shadow: pages violating the shadow's proposed partition.
        pub shadow_would_migrate: Vec<u64>,
    }

    /// The complete audit of one run.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct AuditReport {
        pub threads: usize,
        /// Bank units available to a single thread's allocation.
        pub max_units: u32,
        pub live: PolicyAudit,
        pub shadows: Vec<PolicyAudit>,
        pub prediction: Vec<ThreadPrediction>,
        pub calibration: Vec<CalibrationRow>,
        pub convergence: Convergence,
        pub epochs as "epoch_rows": Vec<AuditEpochRow>,
    }
}

impl ChurnStats {
    /// Flaps per (thread × decision); 0 when nothing was decided.
    pub fn flap_rate(&self, threads: usize) -> f64 {
        let cells = self.decisions.saturating_mul(threads as u64);
        if cells == 0 {
            0.0
        } else {
            self.flaps as f64 / cells as f64
        }
    }
}

// ---------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default)]
struct PredAccum {
    samples: u64,
    err_sum: f64,
    abs_err_sum: f64,
    max_abs_err: u64,
    pred_sum: f64,
    blp_sum: f64,
    rbl_sum: f64,
    ipc_sum: f64,
}

#[derive(Debug, Clone, Default)]
struct CalibAccum {
    samples: u64,
    blp_sum: f64,
    min_blp: f64,
    max_blp: f64,
}

/// Accumulates one [`EpochObservation`] per repartition decision and
/// snapshots an [`AuditReport`] on demand.
#[derive(Debug, Clone)]
pub struct AuditBuilder {
    live_name: String,
    shadow_names: Vec<String>,
    threads: usize,
    max_units: u32,
    /// Plan history per policy (index 0 = live, then shadows): the plan
    /// one and two decisions ago, seeded with the cold-start plans.
    prev: Vec<Vec<Vec<u32>>>,
    prev2: Vec<Option<Vec<Vec<u32>>>>,
    churn: Vec<ChurnStats>,
    distance_sum: Vec<u64>,
    max_distance: Vec<u64>,
    agreement: Vec<u64>,
    would_migrate: Vec<u64>,
    /// Previous decision's predictions, waiting to be paired with the
    /// next epoch's achieved profile.
    pending_pred: Option<Vec<u32>>,
    pred: Vec<PredAccum>,
    /// Calibration accumulators indexed `[thread][predicted_units]`.
    calib: Vec<Vec<CalibAccum>>,
    live_changed: Vec<bool>,
    shifts: Vec<(u64, usize, &'static str, u64)>,
    prev_achieved: Option<Vec<ProfileSample>>,
    measurement_start: Option<u64>,
    epochs: Vec<AuditEpochRow>,
    decisions: u64,
}

impl AuditBuilder {
    /// Start an audit. `cold_plans` seeds every policy's plan history
    /// (index 0 = live, then one per shadow, matching `shadow_names`) so
    /// the first real decision's change detection compares against the
    /// cold-start allocation, exactly like the simulator's own
    /// `changed_threads` accounting.
    ///
    /// # Panics
    ///
    /// Panics if `cold_plans.len() != shadow_names.len() + 1` or
    /// `max_units == 0`.
    pub fn new(
        live_name: &str,
        shadow_names: Vec<String>,
        threads: usize,
        max_units: u32,
        cold_plans: Vec<Vec<Vec<u32>>>,
    ) -> AuditBuilder {
        assert_eq!(cold_plans.len(), shadow_names.len() + 1, "one cold plan per policy");
        assert!(max_units > 0, "audit needs at least one bank unit");
        let n_policies = cold_plans.len();
        AuditBuilder {
            live_name: live_name.to_string(),
            shadow_names,
            threads,
            max_units,
            prev: cold_plans,
            prev2: vec![None; n_policies],
            churn: vec![ChurnStats::default(); n_policies],
            distance_sum: vec![0; n_policies],
            max_distance: vec![0; n_policies],
            agreement: vec![0; n_policies],
            would_migrate: vec![0; n_policies],
            pending_pred: None,
            pred: vec![PredAccum::default(); threads],
            calib: vec![vec![CalibAccum::default(); max_units as usize + 1]; threads],
            live_changed: Vec::new(),
            shifts: Vec::new(),
            prev_achieved: None,
            measurement_start: None,
            epochs: Vec::new(),
            decisions: 0,
        }
    }

    /// Record that warmup ended and `decisions` decisions had already
    /// been made when measurement began.
    pub fn note_measurement_start(&mut self, decisions: u64) {
        self.measurement_start = Some(decisions);
    }

    /// Feed one repartition decision.
    ///
    /// # Panics
    ///
    /// Panics if the observation's vectors disagree with the thread or
    /// shadow count declared at construction.
    pub fn observe(&mut self, obs: &EpochObservation) {
        let n = self.threads;
        assert_eq!(obs.live_units.len(), n, "live plan thread count");
        assert_eq!(obs.achieved.len(), n, "achieved sample thread count");
        assert_eq!(obs.predicted_units.len(), n, "prediction thread count");
        assert_eq!(obs.shadows.len(), self.shadow_names.len(), "shadow count");

        // Prediction pairing: last decision's forecast vs this epoch's
        // outcome. The realised demand is what the estimator would have
        // needed to predict to match the achieved parallelism.
        let mean_abs = self.pending_pred.take().map(|preds| {
            let mut abs_sum = 0.0;
            for (t, &pred) in preds.iter().enumerate() {
                let a = &obs.achieved[t];
                let realised = realised_units(a.blp, self.max_units);
                let err = f64::from(pred) - f64::from(realised);
                let acc = &mut self.pred[t];
                acc.samples += 1;
                acc.err_sum += err;
                acc.abs_err_sum += err.abs();
                acc.max_abs_err = acc.max_abs_err.max(err.abs().round() as u64);
                acc.pred_sum += f64::from(pred);
                acc.blp_sum += a.blp;
                acc.rbl_sum += a.rbl;
                acc.ipc_sum += a.ipc;
                abs_sum += err.abs();
                let cell = &mut self.calib[t][pred.min(self.max_units) as usize];
                if cell.samples == 0 {
                    cell.min_blp = a.blp;
                    cell.max_blp = a.blp;
                } else {
                    cell.min_blp = cell.min_blp.min(a.blp);
                    cell.max_blp = cell.max_blp.max(a.blp);
                }
                cell.samples += 1;
                cell.blp_sum += a.blp;
            }
            abs_sum / n as f64
        });
        self.pending_pred = Some(obs.predicted_units.clone());

        // Phase-shift detection against the previous epoch's profile.
        if let Some(prev) = &self.prev_achieved {
            for (t, (p, c)) in prev.iter().zip(&obs.achieved).enumerate() {
                let d_mpki = (c.mpki - p.mpki).abs();
                if d_mpki > (0.3 * p.mpki).max(2.0) {
                    self.shifts.push((obs.epoch, t, "mpki", self.decisions));
                } else if (c.blp - p.blp).abs() > 1.0 {
                    self.shifts.push((obs.epoch, t, "blp", self.decisions));
                }
            }
        }
        self.prev_achieved = Some(obs.achieved.clone());

        // Churn and flap accounting for the live policy and every shadow.
        let mut live_changed = Vec::new();
        let mut shadow_distance = Vec::new();
        let mut shadow_would_migrate = Vec::new();
        for p in 0..self.prev.len() {
            let plan: &Vec<Vec<u32>> =
                if p == 0 { &obs.live_units } else { &obs.shadows[p - 1].units };
            let churn = &mut self.churn[p];
            churn.decisions += 1;
            let mut changed_threads = 0u64;
            for t in 0..n {
                let changed = self.prev[p][t] != plan[t];
                if changed {
                    changed_threads += 1;
                    if p == 0 {
                        live_changed.push(t);
                    }
                }
                if let Some(prev2) = &self.prev2[p] {
                    if changed && prev2[t] == plan[t] {
                        churn.flaps += 1;
                    }
                }
            }
            if changed_threads > 0 {
                churn.changes += 1;
            }
            churn.thread_changes += changed_threads;
            if p > 0 {
                let s = &obs.shadows[p - 1];
                let dist: u64 =
                    (0..n).map(|t| symmetric_distance(&obs.live_units[t], &s.units[t])).sum();
                self.distance_sum[p] += dist;
                self.max_distance[p] = self.max_distance[p].max(dist);
                if dist == 0 {
                    self.agreement[p] += 1;
                }
                self.would_migrate[p] += s.would_migrate_pages;
                shadow_distance.push(dist);
                shadow_would_migrate.push(s.would_migrate_pages);
            }
            self.prev2[p] = Some(std::mem::replace(&mut self.prev[p], plan.clone()));
        }
        self.live_changed.push(!live_changed.is_empty());
        self.epochs.push(AuditEpochRow {
            epoch: obs.epoch,
            live_changed,
            mean_abs_pred_error: mean_abs,
            shadow_distance,
            shadow_would_migrate,
        });
        self.decisions += 1;
    }

    /// Decisions from `from` (a decision index) until the start of the
    /// first [`STABLE_WINDOW`]-long run of unchanged live decisions.
    fn stable_after(&self, from: u64) -> Option<u64> {
        let w = STABLE_WINDOW as usize;
        let changed = &self.live_changed;
        let start = from as usize;
        if start > changed.len() {
            return None;
        }
        changed[start..].windows(w).position(|win| win.iter().all(|&c| !c)).map(|pos| pos as u64)
    }

    /// Snapshot the report accumulated so far.
    pub fn report(&self) -> AuditReport {
        let policy_audit = |p: usize| {
            let decided = self.churn[p].decisions.max(1);
            PolicyAudit {
                name: if p == 0 {
                    self.live_name.clone()
                } else {
                    self.shadow_names[p - 1].clone()
                },
                churn: self.churn[p],
                mean_distance: self.distance_sum[p] as f64 / decided as f64,
                max_distance: self.max_distance[p],
                agreement_epochs: self.agreement[p],
                would_migrate_pages: self.would_migrate[p],
            }
        };
        let prediction = (0..self.threads)
            .map(|t| {
                let a = &self.pred[t];
                let n = a.samples.max(1) as f64;
                ThreadPrediction {
                    thread: t,
                    samples: a.samples,
                    mean_err: a.err_sum / n,
                    mean_abs_err: a.abs_err_sum / n,
                    max_abs_err: a.max_abs_err,
                    mean_predicted: a.pred_sum / n,
                    mean_achieved_blp: a.blp_sum / n,
                    mean_achieved_rbl: a.rbl_sum / n,
                    mean_achieved_ipc: a.ipc_sum / n,
                }
            })
            .collect();
        let mut calibration = Vec::new();
        for t in 0..self.threads {
            for u in 0..=self.max_units {
                let c = &self.calib[t][u as usize];
                if c.samples > 0 {
                    calibration.push(CalibrationRow {
                        thread: t,
                        predicted_units: u,
                        samples: c.samples,
                        mean_blp: c.blp_sum / c.samples as f64,
                        min_blp: c.min_blp,
                        max_blp: c.max_blp,
                    });
                }
            }
        }
        let convergence = Convergence {
            decisions: self.decisions,
            measurement_start: self.measurement_start,
            epochs_to_stable: self.measurement_start.and_then(|s| self.stable_after(s)),
            stable_window: STABLE_WINDOW,
            flap_rate: self.churn[0].flap_rate(self.threads),
            phase_shifts: self
                .shifts
                .iter()
                .map(|&(epoch, thread, metric, decision)| PhaseShift {
                    epoch,
                    thread,
                    metric: metric.to_string(),
                    epochs_to_restabilize: self.stable_after(decision),
                })
                .collect(),
        };
        AuditReport {
            threads: self.threads,
            max_units: self.max_units,
            live: policy_audit(0),
            shadows: (1..self.prev.len()).map(policy_audit).collect(),
            prediction,
            calibration,
            convergence,
            epochs: self.epochs.clone(),
        }
    }
}

/// The bank-unit demand the achieved BLP retrospectively justified: the
/// estimator's own `ceil(alpha × blp)` rule with its default gain,
/// clamped to the machine. Pairing predictions against this puts the
/// error in the same unit the policy allocates in.
fn realised_units(blp: f64, max_units: u32) -> u32 {
    (2.0 * blp.max(1.0)).ceil().min(f64::from(max_units)).max(1.0) as u32
}

/// Cardinality of the symmetric difference of two sorted unit lists.
fn symmetric_distance(a: &[u32], b: &[u32]) -> u64 {
    let (mut i, mut j, mut d) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                d += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                d += 1;
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
        }
    }
    d + (a.len() - i) as u64 + (b.len() - j) as u64
}

// ---------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------

/// Live + shadow policy comparison: churn, flaps, distance, migration
/// pressure.
pub fn policy_table(r: &AuditReport) -> Table {
    let mut t = Table::new([
        "policy",
        "decisions",
        "changes",
        "thread-chg",
        "flaps",
        "flap rate",
        "mean dist",
        "max dist",
        "agree",
        "would-migrate",
    ]);
    t.align_left(0);
    for (i, p) in std::iter::once(&r.live).chain(&r.shadows).enumerate() {
        t.row([
            if i == 0 { format!("{} (live)", p.name) } else { p.name.clone() },
            p.churn.decisions.to_string(),
            p.churn.changes.to_string(),
            p.churn.thread_changes.to_string(),
            p.churn.flaps.to_string(),
            format!("{:.3}", p.churn.flap_rate(r.threads)),
            if i == 0 { "-".to_string() } else { format!("{:.2}", p.mean_distance) },
            if i == 0 { "-".to_string() } else { p.max_distance.to_string() },
            if i == 0 { "-".to_string() } else { p.agreement_epochs.to_string() },
            if i == 0 { "-".to_string() } else { p.would_migrate_pages.to_string() },
        ]);
    }
    t
}

/// Per-thread demand-prediction accuracy.
pub fn prediction_table(r: &AuditReport) -> Table {
    let mut t = Table::new([
        "thread",
        "samples",
        "mean pred",
        "mean BLP",
        "mean RBL",
        "mean IPC",
        "mean err",
        "mean |err|",
        "max |err|",
    ]);
    for p in &r.prediction {
        t.row([
            p.thread.to_string(),
            p.samples.to_string(),
            format!("{:.2}", p.mean_predicted),
            format!("{:.2}", p.mean_achieved_blp),
            format!("{:.2}", p.mean_achieved_rbl),
            format!("{:.3}", p.mean_achieved_ipc),
            format!("{:+.2}", p.mean_err),
            format!("{:.2}", p.mean_abs_err),
            p.max_abs_err.to_string(),
        ]);
    }
    t
}

/// The calibration table: predicted-demand bucket × achieved BLP.
pub fn calibration_table(r: &AuditReport) -> Table {
    let mut t =
        Table::new(["thread", "predicted units", "samples", "mean BLP", "min BLP", "max BLP"]);
    for c in &r.calibration {
        t.row([
            c.thread.to_string(),
            c.predicted_units.to_string(),
            c.samples.to_string(),
            format!("{:.2}", c.mean_blp),
            format!("{:.2}", c.min_blp),
            format!("{:.2}", c.max_blp),
        ]);
    }
    t
}

/// Phase shifts and restabilisation times.
pub fn phase_shift_table(r: &AuditReport) -> Table {
    let mut t = Table::new(["epoch", "thread", "metric", "epochs to restabilize"]);
    t.align_left(2);
    for s in &r.convergence.phase_shifts {
        t.row([
            s.epoch.to_string(),
            s.thread.to_string(),
            s.metric.clone(),
            s.epochs_to_restabilize.map_or_else(|| "never".to_string(), |e| e.to_string()),
        ]);
    }
    t
}

/// One-paragraph convergence summary.
pub fn convergence_summary(r: &AuditReport) -> String {
    let c = &r.convergence;
    let stable = match (c.measurement_start, c.epochs_to_stable) {
        (None, _) => "no measured phase".to_string(),
        (Some(s), Some(e)) => {
            format!("stable {e} decision(s) after measurement start (decision {s})")
        }
        (Some(s), None) => format!("never stable after measurement start (decision {s})"),
    };
    format!(
        "convergence: {} decision(s); {stable}; stable window {}; live flap rate {:.3}; {} phase shift(s)\n",
        c.decisions,
        c.stable_window,
        c.flap_rate,
        c.phase_shifts.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(units: &[&[u32]]) -> Vec<Vec<u32>> {
        units.iter().map(|u| u.to_vec()).collect()
    }

    fn builder2() -> AuditBuilder {
        // Two threads, 4 units, live + one shadow, both cold-started on
        // an equal split.
        let cold = plan(&[&[0, 1], &[2, 3]]);
        AuditBuilder::new("DBP", vec!["equal-BP".to_string()], 2, 4, vec![cold.clone(), cold])
    }

    fn obs(
        epoch: u64,
        live: Vec<Vec<u32>>,
        shadow: Vec<Vec<u32>>,
        blp: [f64; 2],
        pred: [u32; 2],
    ) -> EpochObservation {
        EpochObservation {
            epoch,
            live_units: live,
            achieved: blp
                .iter()
                .map(|&b| ProfileSample { mpki: 10.0, rbl: 0.5, blp: b, ipc: 0.7 })
                .collect(),
            predicted_units: pred.to_vec(),
            shadows: vec![ShadowEpoch { units: shadow, would_migrate_pages: 5 }],
        }
    }

    #[test]
    fn symmetric_distance_counts_both_sides() {
        assert_eq!(symmetric_distance(&[0, 1], &[0, 1]), 0);
        assert_eq!(symmetric_distance(&[0, 1], &[1, 2]), 2);
        assert_eq!(symmetric_distance(&[], &[4, 5, 6]), 3);
        assert_eq!(symmetric_distance(&[0, 1, 2], &[3]), 4);
    }

    #[test]
    fn distance_and_agreement_accumulate() {
        let mut b = builder2();
        // Shadow agrees at epoch 0, diverges by 2 units/thread at epoch 1.
        b.observe(&obs(
            0,
            plan(&[&[0, 1], &[2, 3]]),
            plan(&[&[0, 1], &[2, 3]]),
            [1.0, 1.0],
            [1, 1],
        ));
        b.observe(&obs(
            1,
            plan(&[&[0, 1], &[2, 3]]),
            plan(&[&[0, 2], &[1, 3]]),
            [1.0, 1.0],
            [1, 1],
        ));
        let r = b.report();
        let s = &r.shadows[0];
        assert_eq!(s.agreement_epochs, 1);
        assert_eq!(s.max_distance, 4); // threads 0 and 1 each differ by 2
        assert!((s.mean_distance - 2.0).abs() < 1e-12);
        assert_eq!(s.would_migrate_pages, 10);
        assert_eq!(r.epochs.len(), 2);
        assert_eq!(r.epochs[1].shadow_distance, vec![4]);
    }

    #[test]
    fn flaps_require_a_b_a_toggle() {
        let mut b = builder2();
        let a = plan(&[&[0, 1], &[2, 3]]);
        let c = plan(&[&[0, 1, 2], &[3]]);
        // live: cold=A, then A (no change), C (change), A (flap!), A.
        b.observe(&obs(0, a.clone(), a.clone(), [1.0, 1.0], [1, 1]));
        b.observe(&obs(1, c.clone(), a.clone(), [1.0, 1.0], [1, 1]));
        b.observe(&obs(2, a.clone(), a.clone(), [1.0, 1.0], [1, 1]));
        b.observe(&obs(3, a.clone(), a.clone(), [1.0, 1.0], [1, 1]));
        let r = b.report();
        // Both threads toggled A->C->A: two flaps at decision 2.
        assert_eq!(r.live.churn.flaps, 2);
        assert_eq!(r.live.churn.changes, 2);
        assert_eq!(r.live.churn.thread_changes, 4);
        assert_eq!(r.shadows[0].churn.changes, 0, "constant shadow never changes");
        assert!((r.convergence.flap_rate - 2.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn predictions_pair_with_the_next_epoch() {
        let mut b = builder2();
        let a = plan(&[&[0, 1], &[2, 3]]);
        // Epoch 0 predicts 4 units for thread 0; epoch 1's achieved BLP
        // of 1.0 realises ceil(2*max(1,1))=2 units -> error +2.
        b.observe(&obs(0, a.clone(), a.clone(), [1.0, 1.0], [4, 1]));
        b.observe(&obs(1, a.clone(), a.clone(), [1.0, 2.0], [4, 1]));
        let r = b.report();
        assert_eq!(r.epochs[0].mean_abs_pred_error, None, "first decision pairs nothing");
        let p0 = &r.prediction[0];
        assert_eq!(p0.samples, 1);
        assert!((p0.mean_err - 2.0).abs() < 1e-12);
        assert!((p0.mean_abs_err - 2.0).abs() < 1e-12);
        assert_eq!(p0.max_abs_err, 2);
        // Thread 1 predicted 1, realised ceil(2*2)=4 -> error -3.
        let p1 = &r.prediction[1];
        assert!((p1.mean_err + 3.0).abs() < 1e-12);
        // Calibration: thread 0's bucket 4 saw achieved BLP 1.0.
        let c = r.calibration.iter().find(|c| c.thread == 0 && c.predicted_units == 4).unwrap();
        assert_eq!(c.samples, 1);
        assert!((c.mean_blp - 1.0).abs() < 1e-12);
    }

    #[test]
    fn convergence_counts_epochs_to_stable_window() {
        let mut b = builder2();
        let a = plan(&[&[0, 1], &[2, 3]]);
        let c = plan(&[&[0, 1, 2], &[3]]);
        // Decisions: change, change, then quiet. Measurement starts at
        // decision 1 -> one more changing decision, then stability.
        b.observe(&obs(0, c.clone(), a.clone(), [1.0, 1.0], [1, 1]));
        b.note_measurement_start(1);
        b.observe(&obs(1, a.clone(), a.clone(), [1.0, 1.0], [1, 1]));
        for e in 2..6 {
            b.observe(&obs(e, a.clone(), a.clone(), [1.0, 1.0], [1, 1]));
        }
        let r = b.report();
        assert_eq!(r.convergence.measurement_start, Some(1));
        // Decision 1 changed (C->A); decisions 2.. are unchanged, so the
        // stable window starts 1 decision after measurement start.
        assert_eq!(r.convergence.epochs_to_stable, Some(1));
    }

    #[test]
    fn never_stable_reports_none() {
        let mut b = builder2();
        let a = plan(&[&[0, 1], &[2, 3]]);
        let c = plan(&[&[0, 1, 2], &[3]]);
        b.note_measurement_start(0);
        for e in 0..6 {
            let p = if e % 2 == 0 { c.clone() } else { a.clone() };
            b.observe(&obs(e, p, a.clone(), [1.0, 1.0], [1, 1]));
        }
        let r = b.report();
        assert_eq!(r.convergence.epochs_to_stable, None);
        assert!(r.live.churn.flaps > 0, "alternating plans are flaps");
    }

    #[test]
    fn phase_shift_detection_and_restabilisation() {
        let mut b = builder2();
        let a = plan(&[&[0, 1], &[2, 3]]);
        let c = plan(&[&[0, 1, 2], &[3]]);
        let calm = |e| obs(e, a.clone(), a.clone(), [1.0, 1.0], [1, 1]);
        b.observe(&calm(0));
        // Thread 0's MPKI jumps 10 -> 30 at epoch 1; the live plan
        // reacts for one decision, then settles.
        let mut shifted = obs(1, c.clone(), a.clone(), [1.0, 1.0], [1, 1]);
        shifted.achieved[0].mpki = 30.0;
        b.observe(&shifted);
        let mut after = obs(2, c.clone(), a.clone(), [1.0, 1.0], [1, 1]);
        after.achieved[0].mpki = 30.0;
        b.observe(&after);
        for e in 3..6 {
            let mut o = obs(e, c.clone(), a.clone(), [1.0, 1.0], [1, 1]);
            o.achieved[0].mpki = 30.0;
            b.observe(&o);
        }
        let r = b.report();
        let shift = r.convergence.phase_shifts.iter().find(|s| s.metric == "mpki").unwrap();
        assert_eq!(shift.epoch, 1);
        assert_eq!(shift.thread, 0);
        // Decision 1 changed the plan; decisions 2.. are quiet.
        assert_eq!(shift.epochs_to_restabilize, Some(1));
    }

    #[test]
    fn tables_render_every_policy_and_thread() {
        let mut b = builder2();
        let a = plan(&[&[0, 1], &[2, 3]]);
        b.observe(&obs(0, a.clone(), a.clone(), [1.0, 1.0], [2, 1]));
        b.observe(&obs(1, a.clone(), a.clone(), [1.5, 1.0], [2, 1]));
        let r = b.report();
        assert_eq!(policy_table(&r).len(), 2);
        assert_eq!(prediction_table(&r).len(), 2);
        assert!(!calibration_table(&r).is_empty());
        let summary = convergence_summary(&r);
        assert!(summary.contains("decision(s)"), "{summary}");
    }

    #[test]
    fn realised_units_clamps_to_machine() {
        assert_eq!(realised_units(0.0, 8), 2); // floor at blp 1.0
        assert_eq!(realised_units(2.4, 8), 5);
        assert_eq!(realised_units(100.0, 8), 8);
    }
}
