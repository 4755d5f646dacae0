//! Export captured telemetry as machine-readable documents.
//!
//! Two formats are produced from the same [`Telemetry`]:
//!
//! * the **run document** ([`run_document`]) — run summary, the full
//!   epoch time series and the event log, then the latency anatomy and
//!   the decision audit as nested sections: everything one run recorded,
//!   under one envelope, for scripted analysis and `dbpreport`;
//! * a **Chrome `trace_event` document** — loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>, with instant events
//!   for every trace event and counter tracks for the epoch metrics.
//!   Timestamps are CPU cycles reported in the `ts` microsecond field,
//!   i.e. the UI's "microsecond" axis reads in cycles.
//!
//! The host side has two documents of its own: the self-profile
//! ([`profile_document`]; separate because a profile taken with the
//! recorder live measures the recorder) and `bench_all`'s suite timing.

use crate::event::TraceEvent;
use crate::json::{json_record, Json, JsonValue};
use crate::prof::{ProfSpan, Profile};
use crate::recorder::{EpochSample, Telemetry};

/// Format version stamped into every document so downstream tooling can
/// detect schema changes across PRs.
pub const FORMAT_VERSION: u64 = 1;

/// Semantic schema version (`major.minor`) stamped into the versioned
/// documents. Bump the minor for additive changes; bump the major when a
/// consumer written against the old layout would misread the new one.
pub const SCHEMA_VERSION: &str = "1.3";

/// The highest major schema version this crate's readers understand.
pub const SCHEMA_MAJOR: u64 = 1;

/// Check a parsed document's `schema_version` against what this build
/// can read. Documents predating the field (no `schema_version` key)
/// pass: they are from schema 1.0 producers.
///
/// # Errors
///
/// Returns a message when the field is malformed or its major version is
/// newer than [`SCHEMA_MAJOR`].
pub fn check_schema_version(doc: &Json) -> Result<(), String> {
    let Some(v) = doc.get("schema_version") else { return Ok(()) };
    let s = v.as_str().ok_or("schema_version must be a string")?;
    let major: u64 = s
        .split('.')
        .next()
        .unwrap_or("")
        .parse()
        .map_err(|_| format!("malformed schema_version {s:?}"))?;
    if major > SCHEMA_MAJOR {
        return Err(format!(
            "document schema_version {s} is newer than the supported major {SCHEMA_MAJOR}"
        ));
    }
    Ok(())
}

fn event_json(ev: &TraceEvent) -> Json {
    let mut pairs = vec![
        ("name".to_string(), Json::str(ev.kind.name())),
        ("cycle".to_string(), Json::uint(ev.cycle)),
    ];
    if let Some(t) = ev.kind.thread() {
        pairs.push(("thread".to_string(), Json::uint(t as u64)));
    }
    pairs.push(("args".to_string(), ev.kind.args_json()));
    Json::Obj(pairs)
}

/// A versioned document: both version stamps, then `body`'s keys.
fn stamped(body: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let stamps = [
        ("format_version", Json::uint(FORMAT_VERSION)),
        ("schema_version", Json::str(SCHEMA_VERSION)),
    ];
    Json::obj(stamps.into_iter().chain(body))
}

/// Build the one per-run document (`dbpsim run --report-out`): the
/// stamps, the caller's `summary` (run context, embedded verbatim), the
/// epoch time series, the event log, then one nested section per report
/// the run published — `latency` (per-core / per-bank histograms and the
/// interference matrices) and `audit` (shadow-policy comparison,
/// prediction accuracy, calibration, convergence and the per-decision
/// `epoch_rows`). A section the run did not produce is left out.
pub fn run_document(t: &Telemetry, summary: Json) -> Json {
    let always = [
        ("summary", summary),
        ("epochs", t.series.to_json()),
        ("events", Json::arr(t.events.iter().map(event_json))),
        ("dropped_events", Json::uint(t.dropped_events)),
    ];
    let latency = t.latency.as_ref().map(|r| ("latency", r.to_json()));
    let audit = t.audit.as_ref().map(|r| ("audit", r.to_json()));
    stamped(always.into_iter().chain(latency).chain(audit))
}

json_record! {
    /// Timing of one experiment inside a `bench_all` suite run, destined for
    /// the suite-timing JSON (`bench_all --json`).
    #[derive(Debug, Clone, PartialEq)]
    pub struct SuiteExperimentTiming {
        /// Experiment (binary) name, e.g. `fig4_ws_dbp`.
        pub name: String,
        /// Wall-clock for this experiment, nanoseconds.
        pub wall_ns: u128,
        /// Simulations actually run (shared + solo + auxiliary).
        pub jobs: u64,
        /// Single-core runs answered from the run memo instead of re-running.
        pub solo_cache_hits: u64,
        /// Multi-core runs answered from the run memo instead of re-running.
        pub shared_cache_hits: u64,
        /// Runs answered by a twin: a simulation of the same cell under
        /// another policy whose plans equalled this one's at every
        /// decision.
        pub twin_hits: u64,
    }
}

/// Build the experiment-suite timing document: per-experiment wall clock
/// and job counts, plus the pool configuration that produced them. CI
/// publishes it as `SUITE_timing.json`. `annotations` are
/// extra key/value pairs experiments attached during the run (e.g. the
/// interference diagnostic's percentile summaries).
pub fn suite_timing_document(
    workers: usize,
    quick: bool,
    total_wall_ns: u128,
    rows: &[SuiteExperimentTiming],
    annotations: &[(String, Json)],
) -> Json {
    stamped([
        ("workers", Json::uint(workers as u64)),
        ("quick", Json::Bool(quick)),
        ("total_wall_ns", Json::uint(total_wall_ns as u64)),
        ("experiments", Json::arr(rows.iter().map(JsonValue::to_json))),
        ("annotations", Json::Obj(annotations.to_vec())),
    ])
}

/// Build the self-profile document for `--profile-out`: the stamps and
/// `summary`, `total_ns`, then the [`Profile`] body's own keys (span tree
/// and work counters) at top level. Render it with the `dbpreport` bin;
/// parse it back with [`Profile::from_json`].
pub fn profile_document(p: &Profile, summary: Json) -> Json {
    let head = [("summary", summary), ("total_ns", Json::uint(p.total_ns()))];
    stamped(head.into_iter().chain(p.json_pairs()))
}

/// Render an aggregated [`Profile`] as a Chrome `trace_event` document.
///
/// A merged profile has no per-occurrence timestamps, so spans are laid
/// out on a *synthetic* timeline: each node becomes one complete ("X")
/// event of duration `total_ns`, children packed left-to-right inside
/// their parent starting at its open edge; the gap that remains on the
/// right is the parent's self time. Durations and proportions are real,
/// horizontal order is not chronology.
pub fn profile_chrome_trace(p: &Profile) -> Json {
    fn emit(s: &ProfSpan, start_ns: u64, out: &mut Vec<Json>) {
        out.push(Json::obj([
            ("name", Json::str(&s.name)),
            ("ph", Json::str("X")),
            ("ts", Json::num(start_ns as f64 / 1e3)),
            ("dur", Json::num(s.total_ns as f64 / 1e3)),
            ("pid", Json::uint(0)),
            ("tid", Json::uint(0)),
            (
                "args",
                Json::obj([
                    ("count", Json::uint(s.count)),
                    ("self_ns", Json::uint(s.self_ns)),
                    ("max_ns", Json::uint(s.max_ns)),
                ]),
            ),
        ]));
        let mut cursor = start_ns;
        for c in &s.children {
            emit(c, cursor, out);
            cursor += c.total_ns;
        }
    }
    let mut events: Vec<Json> = vec![
        Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::uint(0)),
            ("args", Json::obj([("name", Json::str("dbp self-profile"))])),
        ]),
        Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::uint(0)),
            ("tid", Json::uint(0)),
            ("args", Json::obj([("name", Json::str("aggregated spans"))])),
        ]),
    ];
    let mut cursor = 0u64;
    for s in &p.spans {
        emit(s, cursor, &mut events);
        cursor += s.total_ns;
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ns")),
        ("otherData", Json::obj([("clock", Json::str("synthetic_wall_ns"))])),
    ])
}

/// `trace_event` instant ("i") event on the process/thread rows.
fn chrome_instant(ev: &TraceEvent) -> Json {
    Json::obj([
        ("name", Json::str(ev.kind.name())),
        ("ph", Json::str("i")),
        ("s", Json::str("t")),
        ("ts", Json::uint(ev.cycle)),
        ("pid", Json::uint(0)),
        // Thread-scoped events land on row `thread + 1`; global ones on 0.
        ("tid", Json::uint(ev.kind.thread().map_or(0, |t| t as u64 + 1))),
        ("args", ev.kind.args_json()),
    ])
}

/// `trace_event` counter ("C") sample: one named counter track whose
/// series are the object's key/value pairs.
fn chrome_counter(name: &str, cycle: u64, series: Vec<(String, Json)>) -> Json {
    Json::obj([
        ("name", Json::str(name)),
        ("ph", Json::str("C")),
        ("ts", Json::uint(cycle)),
        ("pid", Json::uint(0)),
        ("args", Json::Obj(series)),
    ])
}

/// Per-thread series for one metric, keys `t0`, `t1`, ...
fn thread_series(
    s: &EpochSample,
    f: impl Fn(&crate::recorder::ThreadSample) -> f64,
) -> Vec<(String, Json)> {
    s.threads.iter().enumerate().map(|(i, t)| (format!("t{i}"), Json::num(f(t)))).collect()
}

/// Build a Chrome `trace_event`-format document (`{"traceEvents": [...]}`).
pub fn chrome_trace(t: &Telemetry) -> Json {
    let mut events: Vec<Json> = Vec::new();
    // Name the rows so Perfetto shows "thread 0" instead of bare tids.
    let max_thread = t
        .events
        .iter()
        .filter_map(|e| e.kind.thread())
        .chain(t.series.iter().map(|s| s.threads.len().saturating_sub(1)))
        .max();
    events.push(Json::obj([
        ("name", Json::str("process_name")),
        ("ph", Json::str("M")),
        ("pid", Json::uint(0)),
        ("args", Json::obj([("name", Json::str("dbpsim"))])),
    ]));
    for tid in 0..=max_thread.map_or(0, |m| m as u64 + 1) {
        let label = if tid == 0 { "sim".to_string() } else { format!("thread {}", tid - 1) };
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::uint(0)),
            ("tid", Json::uint(tid)),
            ("args", Json::obj([("name", Json::str(label))])),
        ]));
    }
    for ev in &t.events {
        events.push(chrome_instant(ev));
    }
    for s in &t.series {
        events.push(chrome_counter("mpki", s.cycle, thread_series(s, |t| t.mpki)));
        events.push(chrome_counter("row_buffer_locality", s.cycle, thread_series(s, |t| t.rbl)));
        events.push(chrome_counter("bank_level_parallelism", s.cycle, thread_series(s, |t| t.blp)));
        events.push(chrome_counter(
            "queue_depth",
            s.cycle,
            vec![("requests".to_string(), Json::uint(s.queue_depth))],
        ));
        events.push(chrome_counter(
            "row_hit_rate",
            s.cycle,
            vec![("rate".to_string(), Json::num(s.row_hit_rate))],
        ));
        events.push(chrome_counter(
            "bus_utilisation",
            s.cycle,
            vec![("fraction".to_string(), Json::num(s.bus_utilisation))],
        ));
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ns")),
        ("otherData", Json::obj([("clock", Json::str("cpu_cycles"))])),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::{AuditBuilder, AuditReport, EpochObservation, ProfileSample, ShadowEpoch};
    use crate::event::{EventKind, MigrationCause};
    use crate::json;
    use crate::latency::LatencyReport;
    use crate::recorder::{Recorder, RecorderConfig, ThreadSample};

    /// 2^53, the largest integer the `f64` number model carries exactly.
    const BIG: u64 = 1 << 53;

    /// A small run with both report sections, between them exercising
    /// every shape a record field takes: `Some` and `None`, empty and
    /// non-empty vectors, nested records, 2^53.
    fn sample_telemetry() -> Telemetry {
        let r = Recorder::new(RecorderConfig::default());
        r.set_cycle(1_000_000);
        r.emit(EventKind::EpochStart { epoch: 0 });
        r.emit(EventKind::ThreadProfile { thread: 0, mpki: 12.5, rbl: 0.8, blp: 2.4 });
        r.emit(EventKind::RepartitionPlan {
            epoch: 0,
            plan: vec!["t0:{0,1}".to_string(), "t1:{2,3}".to_string()],
            changed_threads: vec![1],
        });
        r.emit(EventKind::PageMigration {
            thread: 1,
            vpn: 77,
            old_frame: 3,
            new_frame: 9,
            cause: MigrationCause::Lazy,
        });
        r.sample(EpochSample {
            epoch: 0,
            cycle: 1_000_000,
            queue_depth: 5,
            row_hit_rate: 0.6,
            bus_utilisation: 0.3,
            threads: vec![
                ThreadSample {
                    mpki: 12.5,
                    rbl: 0.8,
                    blp: 2.4,
                    reads: 100,
                    avg_read_latency: 210.0,
                },
                ThreadSample { mpki: 0.0, rbl: 0.0, blp: 0.0, reads: 0, avg_read_latency: 0.0 },
            ],
        });
        // Two cores, two banks, two threads, nothing symmetric: a reader
        // that transposes a matrix or swaps core and bank order fails.
        let mut latency = LatencyReport::new(2, 2);
        latency.record_read(0, 1, 120, [10, 20, 30, 40, 20]);
        latency.record_read(1, 0, 40, [0, 0, 0, 0, 40]);
        latency.record_write(1, 60);
        latency.bank_interference.add(1, 0, BIG);
        latency.bus_interference.add(0, 1, 5);
        let plan = |t0: &[u32], t1: &[u32]| vec![t0.to_vec(), t1.to_vec()];
        let equal = plan(&[0, 1], &[2, 3]);
        let mut audit = AuditBuilder::new(
            "DBP",
            vec!["equal-BP".to_string()],
            2,
            8,
            vec![equal.clone(), equal.clone()],
        );
        for (epoch, mpki, live, would_migrate_pages) in
            [(0, 1.0, equal.clone(), BIG), (1, 40.0, plan(&[0, 1, 2], &[3]), 0)]
        {
            audit.observe(&EpochObservation {
                epoch,
                live_units: live,
                achieved: vec![
                    ProfileSample { mpki: 0.5, rbl: 0.25, blp: 3.5, ipc: 1.5 },
                    ProfileSample { mpki, rbl: 0.5, blp: 1.25, ipc: 0.75 },
                ],
                predicted_units: vec![4, 1],
                shadows: vec![ShadowEpoch { units: equal.clone(), would_migrate_pages }],
            });
            audit.note_measurement_start(1);
        }
        r.set_latency(latency);
        r.set_audit(audit.report());
        r.snapshot()
    }

    fn suite_row() -> SuiteExperimentTiming {
        SuiteExperimentTiming {
            name: "fig4_ws_dbp".to_string(),
            wall_ns: u128::from(BIG),
            jobs: 105,
            solo_cache_hits: 0,
            shared_cache_hits: 45,
            twin_hits: 5,
        }
    }

    fn span_tree() -> ProfSpan {
        let leaf = ProfSpan { name: "leaf".to_string(), count: BIG, ..Default::default() };
        ProfSpan { name: "run".to_string(), children: vec![leaf], ..Default::default() }
    }

    /// Value to `Json` to text, parsed and read back: nothing is lost.
    fn round_trips<T: JsonValue + PartialEq + std::fmt::Debug>(v: &T) {
        let text = v.to_json().to_json();
        let back = T::from_json(&json::parse(&text).expect("writer output parses"));
        assert_eq!(back.as_ref(), Ok(v), "{text}");
    }

    /// [`round_trips`], and every key of the record is load-bearing: with
    /// it deleted the reader either names it, or reads it as the `null`
    /// an `Option` field accepts, never as anything else.
    fn is_a_record<T: JsonValue + PartialEq + std::fmt::Debug>(v: &T) {
        round_trips(v);
        let Json::Obj(pairs) = v.to_json() else { panic!("{v:?} is not written as an object") };
        for i in 0..pairs.len() {
            let mut cut = pairs.clone();
            let (key, _) = cut.remove(i);
            match T::from_json(&Json::Obj(cut)) {
                Ok(back) => assert_eq!(back.to_json().get(&key), Some(&Json::Null), "{key}"),
                Err(e) => assert!(e.contains(&format!("missing `{key}`")), "{key}: {e}"),
            }
        }
    }

    #[test]
    fn every_record_round_trips_and_names_each_missing_key() {
        let run = sample_telemetry();
        let audit = run.audit.expect("sample has an audit");
        assert_eq!(audit.epochs[0].mean_abs_pred_error, None);
        assert!(audit.epochs[1].mean_abs_pred_error.is_some());
        is_a_record(&audit);
        is_a_record(&audit.live);
        is_a_record(&audit.live.churn);
        is_a_record(&audit.prediction[1]);
        is_a_record(&audit.calibration[1]);
        is_a_record(&audit.convergence);
        is_a_record(&audit.convergence.phase_shifts[0]);
        is_a_record(&audit.epochs[0]);
        is_a_record(&audit.epochs[1]);
        is_a_record(&run.series[0]);
        is_a_record(&run.series[0].threads[0]);
        is_a_record(&suite_row());
        is_a_record(&span_tree());
        // Written by hand, around the named `components`, derived keys
        // (`mean`, `p99`, ...) and the checks a reader of outside input owes.
        let latency = run.latency.expect("sample has a latency anatomy");
        is_a_record(&latency.cores[1]);
        round_trips(&latency);
        round_trips(&latency.cores[1].write);
        round_trips(&latency.bank_interference);
    }

    #[test]
    fn readers_refuse_a_narrowed_integer_and_a_mistyped_option() {
        let text = sample_telemetry().audit.to_json().to_json();
        let load = |from: &str, to: &str| {
            assert!(text.contains(from), "{from} in {text}");
            AuditReport::from_json(&json::parse(&text.replacen(from, to, 1)).unwrap()).unwrap_err()
        };
        // 2^32 + 8 must not load as 8.
        assert_eq!(
            load("\"max_units\":8", "\"max_units\":4294967304"),
            "`max_units` 4294967304 does not fit u32"
        );
        assert_eq!(
            load("\"predicted_units\":4", "\"predicted_units\":4294967300"),
            "`calibration` [0] `predicted_units` 4294967300 does not fit u32"
        );
        // An `Option` is absent, `null`, or its type: never silently `None`.
        assert_eq!(
            load("\"mean_abs_pred_error\":2.5", "\"mean_abs_pred_error\":\"2.5\""),
            "`epoch_rows` [1] `mean_abs_pred_error` must be a number"
        );
    }

    /// A run document as schema 1.3 spells it, byte for byte: a writer
    /// change that moves it, or a reader change that can no longer load
    /// it, has broken every stored report.
    const RUN_DOCUMENT: &str = concat!(
        r#"{"format_version":1,"schema_version":"1.3","summary":{"policy":"dbp"},"#,
        r#""epochs":[{"epoch":0,"cycle":1000000,"queue_depth":5,"row_hit_rate":0.6,"#,
        r#""bus_utilisation":0.3,"threads":[{"mpki":12.5,"rbl":0.8,"blp":2.4,"reads":100,"#,
        r#""avg_read_latency":210},{"mpki":0,"rbl":0,"blp":0,"reads":0,"avg_read_latency":0}]}],"#,
        r#""events":[{"name":"epoch_start","cycle":1000000,"args":{"epoch":0}},"#,
        r#"{"name":"thread_profile","cycle":1000000,"thread":0,"args":{"mpki":12.5,"rbl":0.8,"#,
        r#""blp":2.4}},{"name":"repartition_plan","cycle":1000000,"args":{"epoch":0,"#,
        r#""plan":["t0:{0,1}","t1:{2,3}"],"changed_threads":[1]}},{"name":"page_migration","#,
        r#""cycle":1000000,"thread":1,"args":{"vpn":77,"old_frame":3,"new_frame":9,"#,
        r#""cause":"lazy"}}],"dropped_events":0,"latency":{"cores":[{"read":{"count":1,"sum":120,"#,
        r#""min":120,"max":120,"mean":120,"p50":120,"p90":120,"p99":120,"buckets":[[62,1]]},"#,
        r#""write":{"count":0,"sum":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,"#,
        r#""buckets":[]},"components":{"queue_same_core":10,"queue_other_core":20,"bank_busy":30,"#,
        r#""bus_contention":40,"intrinsic":20}},{"read":{"count":1,"sum":40,"min":40,"max":40,"#,
        r#""mean":40,"p50":40,"p90":40,"p99":40,"buckets":[[36,1]]},"write":{"count":1,"sum":60,"#,
        r#""min":60,"max":60,"mean":60,"p50":60,"p90":60,"p99":60,"buckets":[[46,1]]},"#,
        r#""components":{"queue_same_core":0,"queue_other_core":0,"bank_busy":0,"#,
        r#""bus_contention":0,"intrinsic":40}}],"banks":[{"count":1,"sum":40,"min":40,"max":40,"#,
        r#""mean":40,"p50":40,"p90":40,"p99":40,"buckets":[[36,1]]},{"count":1,"sum":120,"#,
        r#""min":120,"max":120,"mean":120,"p50":120,"p90":120,"p99":120,"buckets":[[62,1]]}],"#,
        r#""interference":{"bank":[[0,0],[9007199254740992,0]],"bus":[[0,5],[0,0]]}},"#,
        r#""audit":{"threads":2,"max_units":8,"live":{"name":"DBP","churn":{"decisions":2,"#,
        r#""changes":1,"thread_changes":2,"flaps":0},"mean_distance":0,"max_distance":0,"#,
        r#""agreement_epochs":0,"would_migrate_pages":0},"shadows":[{"name":"equal-BP","#,
        r#""churn":{"decisions":2,"changes":0,"thread_changes":0,"flaps":0},"mean_distance":1,"#,
        r#""max_distance":2,"agreement_epochs":1,"would_migrate_pages":9007199254740992}],"#,
        r#""prediction":[{"thread":0,"samples":1,"mean_err":-3,"mean_abs_err":3,"max_abs_err":3,"#,
        r#""mean_predicted":4,"mean_achieved_blp":3.5,"mean_achieved_rbl":0.25,"#,
        r#""mean_achieved_ipc":1.5},{"thread":1,"samples":1,"mean_err":-2,"mean_abs_err":2,"#,
        r#""max_abs_err":2,"mean_predicted":1,"mean_achieved_blp":1.25,"mean_achieved_rbl":0.5,"#,
        r#""mean_achieved_ipc":0.75}],"calibration":[{"thread":0,"predicted_units":4,"samples":1,"#,
        r#""mean_blp":3.5,"min_blp":3.5,"max_blp":3.5},{"thread":1,"predicted_units":1,"#,
        r#""samples":1,"mean_blp":1.25,"min_blp":1.25,"max_blp":1.25}],"#,
        r#""convergence":{"decisions":2,"measurement_start":1,"epochs_to_stable":null,"#,
        r#""stable_window":3,"flap_rate":0,"phase_shifts":[{"epoch":1,"thread":1,"metric":"mpki","#,
        r#""epochs_to_restabilize":null}]},"epoch_rows":[{"epoch":0,"live_changed":[],"#,
        r#""mean_abs_pred_error":null,"shadow_distance":[0],"#,
        r#""shadow_would_migrate":[9007199254740992]},{"epoch":1,"live_changed":[0,1],"#,
        r#""mean_abs_pred_error":2.5,"shadow_distance":[2],"shadow_would_migrate":[0]}]}}"#,
    );

    #[test]
    fn run_document_matches_its_pinned_text_and_loads_back() {
        let run = sample_telemetry();
        let doc = run_document(&run, Json::obj([("policy", Json::str("dbp"))]));
        assert_eq!(doc.to_json(), RUN_DOCUMENT);
        let back = json::parse(RUN_DOCUMENT).expect("pinned text parses");
        check_schema_version(&back).expect("own schema version is accepted");
        assert_eq!(back.field("epochs").as_ref(), Ok(&run.series));
        assert_eq!(back.req_arr("events").map(<[Json]>::len), Ok(run.events.len()));
        assert_eq!(back.field("dropped_events"), Ok(run.dropped_events));
        assert_eq!(back.field("latency"), Ok(run.latency));
        assert_eq!(back.field("audit"), Ok(run.audit));
        // A run that published no report exports no section.
        let bare = run_document(&Telemetry::default(), Json::Null);
        assert!(
            bare.get("epochs").is_some() && bare.get("latency").or(bare.get("audit")).is_none()
        );
    }

    /// The two host documents as text. Renaming a `json_record!` field
    /// renames its key, and a round trip cannot notice: a literal does.
    #[test]
    fn host_documents_keep_their_layout() {
        let ann = [("diag".to_string(), Json::obj([("reads", Json::uint(7))]))];
        assert_eq!(
            suite_timing_document(4, true, 9_999_999, &[suite_row()], &ann).to_json(),
            r#"{"format_version":1,"schema_version":"1.3","workers":4,"quick":true,"total_wall_ns":9999999,"experiments":[{"name":"fig4_ws_dbp","wall_ns":9007199254740992,"jobs":105,"solo_cache_hits":0,"shared_cache_hits":45,"twin_hits":5}],"annotations":{"diag":{"reads":7}}}"#
        );
        let p = Profile { spans: vec![span_tree()], counters: vec![("cycles".to_string(), 42)] };
        let text = profile_document(&p, Json::obj([("mix", Json::str("mix-a"))])).to_json();
        assert_eq!(
            text,
            r#"{"format_version":1,"schema_version":"1.3","summary":{"mix":"mix-a"},"total_ns":0,"spans":[{"name":"run","count":0,"total_ns":0,"self_ns":0,"max_ns":0,"children":[{"name":"leaf","count":9007199254740992,"total_ns":0,"self_ns":0,"max_ns":0,"children":[]}]}],"counters":{"cycles":42}}"#
        );
        let back = json::parse(&text).unwrap();
        assert!(check_schema_version(&back).is_ok());
        assert_eq!(Profile::from_json(&back), Ok(p));
    }

    #[test]
    fn chrome_trace_is_valid_trace_event_json() {
        let t = sample_telemetry();
        let doc = chrome_trace(&t);
        let back = json::parse(&doc.to_json()).expect("chrome trace must be valid JSON");
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Every entry needs name + ph; instants need ts.
        for e in events {
            assert!(e.get("name").and_then(Json::as_str).is_some());
            let ph = e.get("ph").and_then(Json::as_str).unwrap();
            assert!(matches!(ph, "i" | "C" | "M"), "unexpected phase {ph}");
            if ph != "M" {
                assert!(e.get("ts").and_then(Json::as_num).is_some());
            }
        }
        // 4 instants, 6 counters per epoch, plus metadata rows.
        let instants = events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("i"));
        assert_eq!(instants.count(), 4);
        let counters: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("C")).collect();
        assert_eq!(counters.len(), 6);
        let mpki = counters.iter().find(|e| e.get("name").and_then(Json::as_str) == Some("mpki"));
        let args = mpki.unwrap().get("args").unwrap();
        assert_eq!(args.get("t0").and_then(Json::as_num), Some(12.5));
        assert_eq!(args.get("t1").and_then(Json::as_num), Some(0.0));
        // Thread rows are named for Perfetto.
        let names: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| e.get("args").unwrap().get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert!(names.contains(&"sim"));
        assert!(names.contains(&"thread 1"));
    }

    #[test]
    fn every_reader_rejects_a_negative_or_fractional_count_naming_the_field() {
        type Load = fn(&Json) -> Result<(), String>;
        let span = ProfSpan {
            name: "run".to_string(),
            count: 0,
            total_ns: 0,
            self_ns: 0,
            max_ns: 0,
            children: Vec::new(),
        };
        let profile = Profile { spans: vec![span], counters: Vec::new() };
        let audit = crate::audit::AuditBuilder::new("DBP", Vec::new(), 1, 2, vec![vec![vec![0]]]);
        let cases: [(&str, Json, Load); 4] = [
            ("count", crate::Histogram::new().to_json(), |j| {
                crate::Histogram::from_json(j).map(drop)
            }),
            ("count", LatencyReport::new(1, 1).to_json(), |j| {
                LatencyReport::from_json(j).map(drop)
            }),
            ("decisions", audit.report().to_json(), |j| AuditReport::from_json(j).map(drop)),
            ("count", profile.to_json(), |j| Profile::from_json(j).map(drop)),
        ];
        for (field, doc, load) in cases {
            let text = doc.to_json();
            load(&json::parse(&text).unwrap()).expect("the unedited document loads");
            let good = format!("\"{field}\":0");
            assert!(text.contains(&good), "{text}");
            for bad in ["-3", "1.5", "1e30"] {
                let edited = text.replacen(&good, &format!("\"{field}\":{bad}"), 1);
                let err = load(&json::parse(&edited).unwrap()).expect_err(&edited);
                assert!(err.contains(&format!("`{field}`")), "{field} = {bad}: {err}");
            }
        }
    }

    #[test]
    fn future_major_schema_versions_are_rejected() {
        let ok = json::parse(r#"{"schema_version":"1.0"}"#).unwrap();
        assert!(check_schema_version(&ok).is_ok());
        let additive = json::parse(r#"{"schema_version":"1.9"}"#).unwrap();
        assert!(check_schema_version(&additive).is_ok());
        let legacy = json::parse(r#"{"format_version":1}"#).unwrap();
        assert!(check_schema_version(&legacy).is_ok(), "pre-schema docs pass");
        let future = json::parse(r#"{"schema_version":"2.0"}"#).unwrap();
        let err = check_schema_version(&future).unwrap_err();
        assert!(err.contains("newer"), "{err}");
        let junk = json::parse(r#"{"schema_version":"banana"}"#).unwrap();
        assert!(check_schema_version(&junk).unwrap_err().contains("malformed"));
        let not_str = json::parse(r#"{"schema_version":2}"#).unwrap();
        assert!(check_schema_version(&not_str).is_err());
    }

    #[test]
    fn chrome_trace_round_trips_through_parser_preserving_event_count() {
        let t = sample_telemetry();
        let doc = chrome_trace(&t);
        let back = json::parse(&doc.to_json()).expect("must be RFC 8259");
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        // Exact census: one process_name row, one thread_name row per tid
        // (sim + each hardware thread), one instant per captured event,
        // and six counter tracks per epoch sample.
        let max_thread = t
            .events
            .iter()
            .filter_map(|e| e.kind.thread())
            .chain(t.series.iter().map(|s| s.threads.len().saturating_sub(1)))
            .max()
            .expect("sample telemetry has thread-scoped data");
        let expected = 1 + (max_thread + 2) + t.events.len() + 6 * t.series.len();
        assert_eq!(events.len(), expected);
        // Writing the parsed document again is a fixpoint: the writer and
        // parser agree on every value in the export.
        assert_eq!(json::parse(&back.to_json()).unwrap(), back);
        assert_eq!(back, doc);
    }

    #[test]
    fn profile_chrome_trace_packs_children_inside_parents() {
        let p = Profile {
            spans: vec![ProfSpan {
                name: "run".to_string(),
                count: 1,
                total_ns: 10_000,
                self_ns: 4_000,
                max_ns: 10_000,
                children: vec![
                    ProfSpan {
                        name: "a".to_string(),
                        count: 2,
                        total_ns: 2_000,
                        self_ns: 2_000,
                        max_ns: 1_500,
                        children: vec![],
                    },
                    ProfSpan {
                        name: "b".to_string(),
                        count: 1,
                        total_ns: 4_000,
                        self_ns: 4_000,
                        max_ns: 4_000,
                        children: vec![],
                    },
                ],
            }],
            counters: vec![],
        };
        p.assert_exact_sum();
        let doc = profile_chrome_trace(&p);
        let back = json::parse(&doc.to_json()).expect("must be RFC 8259");
        let events = back.get("traceEvents").and_then(Json::as_arr).unwrap();
        let xs: Vec<_> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        assert_eq!(xs.len(), 3);
        // Child "b" starts where "a" ends (ts in microseconds).
        let b = xs.iter().find(|e| e.get("name").and_then(Json::as_str) == Some("b")).unwrap();
        assert_eq!(b.get("ts").and_then(Json::as_num), Some(2.0));
        assert_eq!(b.get("dur").and_then(Json::as_num), Some(4.0));
    }

    #[test]
    fn empty_telemetry_exports_cleanly() {
        let t = Telemetry::default();
        let c = chrome_trace(&t);
        let back = json::parse(&c.to_json()).unwrap();
        assert!(back.get("traceEvents").and_then(Json::as_arr).is_some());
    }
}
