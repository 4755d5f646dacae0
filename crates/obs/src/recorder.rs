//! The recorder: the telemetry buffers of one run.
//!
//! A [`Recorder`] is a cheap-clone handle (the simulator is
//! single-threaded, so it is an `Option<Rc<..>>`) that the run's owner
//! installs for the run; components emit through [`crate::seam`]. Built
//! with [`Recorder::disabled`], every call is a branch on a `None`, which
//! keeps the instrumented hot paths free of observable work; the
//! determinism suite asserts the simulation is byte-identical either way.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::audit::AuditReport;
use crate::event::{EventKind, TraceEvent};
use crate::json::json_record;
use crate::latency::LatencyReport;

/// Ring-buffer capacity: plenty for epoch-level events over long runs
/// while bounding memory when per-page events fire in bursts. On
/// overflow the oldest events are dropped (and counted).
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// Construction-time knobs for an enabled recorder.
#[derive(Debug, Clone, Default)]
pub struct RecorderConfig {
    /// Pretty-print epoch-level events to stderr as they arrive
    /// (what `dbpsim run --trace-plan` switches on).
    pub stderr_echo: bool,
    /// Ask the simulator to run the decision audit layer (shadow
    /// policies + estimator accuracy + convergence) and publish its
    /// report via [`Recorder::set_audit`].
    pub audit: bool,
}

json_record! {
    /// One per-thread sample inside an [`EpochSample`].
    #[derive(Debug, Clone, PartialEq)]
    pub struct ThreadSample {
        pub mpki: f64,
        pub rbl: f64,
        pub blp: f64,
        /// Reads serviced for this thread during the epoch.
        pub reads: u64,
        pub avg_read_latency: f64,
    }

    /// The per-epoch time-series sample taken when a profiling epoch closes.
    #[derive(Debug, Clone, PartialEq)]
    pub struct EpochSample {
        /// Zero-based epoch index.
        pub epoch: u64,
        /// CPU cycle at which the epoch closed.
        pub cycle: u64,
        /// Requests in flight across all controllers at the epoch boundary.
        pub queue_depth: u64,
        /// Row-hit rate over the epoch's DRAM accesses (0.0 if none).
        pub row_hit_rate: f64,
        /// Fraction of the epoch's DRAM cycles the data buses were busy,
        /// averaged over channels.
        pub bus_utilisation: f64,
        /// One entry per hardware thread, index = thread id.
        pub threads: Vec<ThreadSample>,
    }
}

/// Everything an enabled recorder captured, in arrival order.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    pub events: Vec<TraceEvent>,
    /// Events discarded because the ring buffer was full.
    pub dropped_events: u64,
    pub series: Vec<EpochSample>,
    /// The memory controller's end-of-run latency anatomy, if one was
    /// published via [`Recorder::set_latency`].
    pub latency: Option<LatencyReport>,
    /// The run's decision audit, if one was requested
    /// ([`RecorderConfig::audit`]) and published via
    /// [`Recorder::set_audit`].
    pub audit: Option<AuditReport>,
}

#[derive(Debug)]
struct Inner {
    cycle: Cell<u64>,
    events: RefCell<VecDeque<TraceEvent>>,
    dropped: Cell<u64>,
    series: RefCell<Vec<EpochSample>>,
    latency: RefCell<Option<LatencyReport>>,
    audit: RefCell<Option<AuditReport>>,
    audit_requested: bool,
    stderr_echo: bool,
}

/// Handle into the telemetry subsystem. Clones share the same buffers.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    inner: Option<Rc<Inner>>,
}

impl Recorder {
    /// A recorder that drops everything; every method is a near-no-op.
    pub const fn disabled() -> Self {
        Recorder { inner: None }
    }

    /// An enabled recorder with the given configuration.
    pub fn new(cfg: RecorderConfig) -> Self {
        Recorder {
            inner: Some(Rc::new(Inner {
                cycle: Cell::new(0),
                events: RefCell::new(VecDeque::new()),
                dropped: Cell::new(0),
                series: RefCell::new(Vec::new()),
                latency: RefCell::new(None),
                audit: RefCell::new(None),
                audit_requested: cfg.audit,
                stderr_echo: cfg.stderr_echo,
            })),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Advance the recorder's notion of "now". Called once per simulated
    /// CPU cycle batch by the sim loop; emitters don't pass timestamps.
    #[inline]
    pub fn set_cycle(&self, cycle: u64) {
        if let Some(inner) = &self.inner {
            inner.cycle.set(cycle);
        }
    }

    /// Record an event at the current cycle. Components emit through
    /// the seam ([`crate::seam::emit`]), which calls this.
    #[inline]
    pub(crate) fn emit(&self, kind: EventKind) {
        let Some(inner) = &self.inner else { return };
        let cycle = inner.cycle.get();
        if inner.stderr_echo && kind.is_epoch_level() {
            eprintln!("{}", kind.pretty(cycle));
        }
        let mut events = inner.events.borrow_mut();
        if events.len() == DEFAULT_EVENT_CAPACITY {
            events.pop_front();
            inner.dropped.set(inner.dropped.get() + 1);
        }
        events.push_back(TraceEvent { cycle, kind });
    }

    /// Record an epoch's time-series sample. The series is unbounded:
    /// epochs are rare (one per ~1M cycles) so growth is negligible.
    pub fn sample(&self, sample: EpochSample) {
        if let Some(inner) = &self.inner {
            inner.series.borrow_mut().push(sample);
        }
    }

    /// Publish the run's latency anatomy (replaces any earlier report).
    pub fn set_latency(&self, report: LatencyReport) {
        if let Some(inner) = &self.inner {
            *inner.latency.borrow_mut() = Some(report);
        }
    }

    /// Did construction ask for the decision audit layer? The simulator
    /// only builds its shadow rack when this is set.
    pub fn audit_requested(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.audit_requested)
    }

    /// Publish the run's decision audit (replaces any earlier report).
    pub fn set_audit(&self, report: AuditReport) {
        if let Some(inner) = &self.inner {
            *inner.audit.borrow_mut() = Some(report);
        }
    }

    /// Copy out everything captured so far. Empty for a disabled recorder.
    pub fn snapshot(&self) -> Telemetry {
        match &self.inner {
            None => Telemetry::default(),
            Some(inner) => Telemetry {
                events: inner.events.borrow().iter().cloned().collect(),
                dropped_events: inner.dropped.get(),
                series: inner.series.borrow().clone(),
                latency: inner.latency.borrow().clone(),
                audit: inner.audit.borrow().clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_captures_nothing() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.set_cycle(100);
        r.emit(EventKind::EpochStart { epoch: 0 });
        r.sample(EpochSample {
            epoch: 0,
            cycle: 100,
            queue_depth: 0,
            row_hit_rate: 0.0,
            bus_utilisation: 0.0,
            threads: vec![],
        });
        r.set_latency(LatencyReport::new(2, 4));
        let t = r.snapshot();
        assert!(t.events.is_empty());
        assert!(t.series.is_empty());
        assert_eq!(t.dropped_events, 0);
        assert_eq!(t.latency, None);
    }

    #[test]
    fn latency_report_is_shared_between_clones() {
        let r = Recorder::new(RecorderConfig::default());
        assert_eq!(r.snapshot().latency, None);
        let mut report = LatencyReport::new(1, 2);
        report.record_read(0, 1, 50, [0, 0, 10, 0, 40]);
        r.clone().set_latency(report.clone());
        assert_eq!(r.snapshot().latency, Some(report));
    }

    #[test]
    fn audit_request_flag_and_report_round_trip() {
        let r = Recorder::new(RecorderConfig::default());
        assert!(!r.audit_requested(), "audit is opt-in");
        assert_eq!(r.snapshot().audit, None);
        let r = Recorder::new(RecorderConfig { audit: true, ..Default::default() });
        assert!(r.audit_requested());
        let report = AuditReport { threads: 2, max_units: 4, ..Default::default() };
        r.clone().set_audit(report.clone());
        assert_eq!(r.snapshot().audit, Some(report));
        assert!(!Recorder::disabled().audit_requested());
    }

    #[test]
    fn events_are_stamped_with_current_cycle() {
        let r = Recorder::new(RecorderConfig::default());
        assert!(r.is_enabled());
        r.set_cycle(42);
        r.emit(EventKind::EpochStart { epoch: 1 });
        r.set_cycle(99);
        r.emit(EventKind::MigrationFailed { thread: 2 });
        let t = r.snapshot();
        assert_eq!(t.events.len(), 2);
        assert_eq!(t.events[0].cycle, 42);
        assert_eq!(t.events[1].cycle, 99);
        assert_eq!(t.events[1].kind, EventKind::MigrationFailed { thread: 2 });
    }

    #[test]
    fn clones_share_buffers() {
        let r = Recorder::new(RecorderConfig::default());
        let r2 = r.clone();
        r.set_cycle(7);
        r2.emit(EventKind::EpochStart { epoch: 0 });
        let t = r.snapshot();
        assert_eq!(t.events.len(), 1);
        assert_eq!(t.events[0].cycle, 7);
    }

    #[test]
    fn ring_buffer_drops_oldest_and_counts() {
        let r = Recorder::new(RecorderConfig::default());
        let total = DEFAULT_EVENT_CAPACITY as u64 + 2;
        for e in 0..total {
            r.set_cycle(e);
            r.emit(EventKind::EpochStart { epoch: e });
        }
        let t = r.snapshot();
        assert_eq!(t.dropped_events, 2);
        let epochs: Vec<u64> = t
            .events
            .iter()
            .map(|ev| match ev.kind {
                EventKind::EpochStart { epoch } => epoch,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(epochs, (2..total).collect::<Vec<_>>());
    }

    #[test]
    fn series_accumulates_in_order() {
        let r = Recorder::new(RecorderConfig::default());
        for epoch in 0..3 {
            r.sample(EpochSample {
                epoch,
                cycle: epoch * 1000,
                queue_depth: epoch,
                row_hit_rate: 0.5,
                bus_utilisation: 0.25,
                threads: vec![ThreadSample {
                    mpki: 1.0,
                    rbl: 0.5,
                    blp: 2.0,
                    reads: 10,
                    avg_read_latency: 100.0,
                }],
            });
        }
        let t = r.snapshot();
        assert_eq!(t.series.len(), 3);
        assert_eq!(t.series[2].epoch, 2);
        assert_eq!(t.series[2].cycle, 2000);
        assert_eq!(t.series[0].threads.len(), 1);
    }
}
