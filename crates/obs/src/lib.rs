//! `dbp-obs` — the zero-dependency telemetry substrate of the simulator.
//!
//! Its pieces, layered bottom-up:
//!
//! * [`json`] — a minimal order-preserving JSON model with a strict
//!   RFC 8259 parser and a writer (non-finite floats serialise as
//!   `null`, matching `JSON.stringify`), and [`json::JsonValue`]: each exported
//!   record declares its field list once and gets its writer and reader
//!   from it;
//! * [`event`] + [`recorder`] — the typed event taxonomy and the
//!   cheap-clone [`Recorder`] handle the whole stack emits into. A
//!   disabled recorder reduces every call to a `None` check, so
//!   instrumentation never perturbs the simulation;
//! * [`seam`] — the one way observers reach the stack: a run installs
//!   its pair ([`observe`]); components [`emit`] and [`span`] through it;
//! * [`export`] — renders captured [`Telemetry`] as the one run
//!   document (epochs, events, `latency` and `audit` sections) and as a
//!   Chrome `trace_event` file for `chrome://tracing` / Perfetto;
//! * [`prof`] — host-side self-profiling: exact-sum wall-clock span
//!   trees (opened through the seam) and the work-counter totals each
//!   run merges in, behind a cheap-clone handle like [`Recorder`]'s;
//! * [`audit`] — the policy decision audit data model (shadow-policy
//!   comparison, demand-estimation accuracy, convergence telemetry),
//!   fed by the simulator's epoch loop;
//! * [`cli`] — the workspace's one argument parser, behind every bin's
//!   uniform `--help`.
//!
//! The `dbpreport` bin renders, converts and validates the four
//! documents: run report, suite timing, Chrome trace, self-profile.
//!
//! The crate intentionally depends on nothing else in the workspace (or
//! outside it) so any layer can use it without cycles.

pub mod audit;
pub mod cli;
pub mod event;
pub mod export;
pub mod fxhash;
pub mod hist;
pub mod json;
pub mod latency;
pub mod prof;
pub mod recorder;
pub mod seam;
pub mod table;

pub use audit::{AuditBuilder, AuditReport, EpochObservation, ProfileSample, ShadowEpoch};
pub use event::{EventKind, MigrationCause, TraceEvent};
pub use fxhash::{FxHashMap, FxHashSet};
pub use hist::Histogram;
pub use json::Json;
pub use latency::{CoreLatency, LatencyReport, Matrix};
pub use prof::{Prof, ProfSpan, Profile};
pub use recorder::{EpochSample, Recorder, RecorderConfig, Telemetry, ThreadSample};
pub use seam::{emit, observe, profiling, recording, span};
pub use table::Table;
