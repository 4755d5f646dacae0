//! Export captured telemetry as machine-readable documents.
//!
//! Two formats are produced from the same [`Telemetry`]:
//!
//! * a **metrics document** — run summary + the full epoch time series +
//!   the event log, meant for scripted analysis (plotting Fig. 3-style
//!   demand convergence, counting repartitions, ...);
//! * a **Chrome `trace_event` document** — loadable in
//!   `chrome://tracing` or <https://ui.perfetto.dev>, with instant events
//!   for every trace event and counter tracks for the epoch metrics.
//!   Timestamps are CPU cycles reported in the `ts` microsecond field,
//!   i.e. the UI's "microsecond" axis reads in cycles.

use crate::audit::AuditReport;
use crate::event::TraceEvent;
use crate::json::Json;
use crate::latency::LatencyReport;
use crate::prof::{ProfSpan, Profile};
use crate::recorder::{EpochSample, Telemetry};

/// Format version stamped into both documents so downstream tooling can
/// detect schema changes across PRs.
pub const FORMAT_VERSION: u64 = 1;

/// Semantic schema version (`major.minor`) stamped into the versioned
/// documents. Bump the minor for additive changes; bump the major when a
/// consumer written against the old layout would misread the new one.
pub const SCHEMA_VERSION: &str = "1.0";

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

fn epoch_json(s: &EpochSample) -> Json {
    Json::obj([
        ("epoch", Json::uint(s.epoch)),
        ("cycle", Json::uint(s.cycle)),
        ("queue_depth", Json::uint(s.queue_depth)),
        ("row_hit_rate", Json::num(s.row_hit_rate)),
        ("bus_utilisation", Json::num(s.bus_utilisation)),
        (
            "threads",
            Json::arr(s.threads.iter().map(|t| {
                Json::obj([
                    ("mpki", Json::num(t.mpki)),
                    ("rbl", Json::num(t.rbl)),
                    ("blp", Json::num(t.blp)),
                    ("reads", Json::uint(t.reads)),
                    ("avg_read_latency", Json::num(t.avg_read_latency)),
                ])
            })),
        ),
    ])
}

/// Build the metrics document. `summary` is caller-provided run context
/// (config, end-of-run aggregates) and is embedded verbatim.
pub fn metrics_document(t: &Telemetry, summary: Json) -> Json {
    Json::obj([
        ("format_version", Json::uint(FORMAT_VERSION)),
        ("summary", summary),
        ("epochs", Json::arr(t.series.iter().map(epoch_json))),
        ("events", Json::arr(t.events.iter().map(event_json))),
        ("dropped_events", Json::uint(t.dropped_events)),
    ])
}

/// The layout the per-run report documents share: the version stamps,
/// the caller's `summary`, an optional `lead` field, then the keys of
/// the report's own `body` object, flattened into the top level.
fn stamped_document(summary: Json, lead: Option<(&str, Json)>, body: Json) -> Json {
    let mut pairs = vec![
        ("format_version".to_string(), Json::uint(FORMAT_VERSION)),
        ("schema_version".to_string(), Json::str(SCHEMA_VERSION)),
        ("summary".to_string(), summary),
    ];
    pairs.extend(lead.map(|(k, v)| (k.to_string(), v)));
    match body {
        Json::Obj(body) => pairs.extend(body),
        _ => unreachable!("report bodies are JSON objects"),
    }
    Json::Obj(pairs)
}

/// Build the latency-anatomy document for `dbpsim --latency-out`:
/// version stamps, caller-provided run context, then the
/// [`LatencyReport`] body (per-core/per-bank histograms and the
/// interference matrices).
pub fn latency_document(report: &LatencyReport, summary: Json) -> Json {
    stamped_document(summary, None, report.to_json())
}

/// Build the decision-audit document for `dbpsim --audit-out`: version
/// stamps, caller-provided run context, then the [`AuditReport`] body
/// (shadow-policy comparison, prediction accuracy, calibration,
/// convergence, and the per-decision time series under `epoch_rows` —
/// deliberately not `epochs`, which routes a document to the metrics
/// renderer).
pub fn audit_document(report: &AuditReport, summary: Json) -> Json {
    stamped_document(summary, None, report.to_json())
}

/// Timing of one experiment inside a `bench_all` suite run, destined for
/// the suite-timing JSON (`bench_all --json`).
#[derive(Debug, Clone)]
pub struct SuiteExperimentTiming {
    /// Experiment (binary) name, e.g. `fig4_ws_dbp`.
    pub name: String,
    /// Wall-clock for this experiment, nanoseconds.
    pub wall_ns: u128,
    /// Simulation jobs dispatched (shared + solo + auxiliary runs).
    pub jobs: u64,
    /// Solo runs answered from the memoized cache instead of re-running.
    pub solo_cache_hits: u64,
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
    Json::obj([
        ("format_version", Json::uint(FORMAT_VERSION)),
        ("schema_version", Json::str(SCHEMA_VERSION)),
        ("workers", Json::uint(workers as u64)),
        ("quick", Json::Bool(quick)),
        ("total_wall_ns", Json::uint(total_wall_ns as u64)),
        (
            "experiments",
            Json::arr(rows.iter().map(|r| {
                Json::obj([
                    ("name", Json::str(&r.name)),
                    ("wall_ns", Json::uint(r.wall_ns as u64)),
                    ("jobs", Json::uint(r.jobs)),
                    ("solo_cache_hits", Json::uint(r.solo_cache_hits)),
                ])
            })),
        ),
        ("annotations", Json::Obj(annotations.to_vec())),
    ])
}

/// Build the self-profile document for `--profile-out`: version stamps,
/// caller-provided run context, then the [`Profile`] body (span tree +
/// work counters). Render it with the `dbpreport` bin; parse it back with
/// [`Profile::from_json`].
pub fn profile_document(p: &Profile, summary: Json) -> Json {
    stamped_document(summary, Some(("total_ns", Json::uint(p.total_ns()))), p.to_json())
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
    use crate::event::{EventKind, MigrationCause};
    use crate::json;
    use crate::recorder::{Recorder, RecorderConfig, ThreadSample};

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
        r.snapshot()
    }

    #[test]
    fn metrics_document_round_trips_and_has_samples() {
        let t = sample_telemetry();
        let doc = metrics_document(&t, Json::obj([("policy", Json::str("dbp"))]));
        let text = doc.to_json();
        let back = json::parse(&text).expect("metrics doc must be valid JSON");
        assert_eq!(back.get("format_version").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            back.get("summary").and_then(|s| s.get("policy")).and_then(Json::as_str),
            Some("dbp")
        );
        let epochs = back.get("epochs").and_then(Json::as_arr).unwrap();
        assert_eq!(epochs.len(), 1);
        let threads = epochs[0].get("threads").and_then(Json::as_arr).unwrap();
        assert_eq!(threads.len(), 2);
        assert_eq!(threads[0].get("mpki").and_then(Json::as_num), Some(12.5));
        let events = back.get("events").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        // Thread-scoped event carries its thread id at top level.
        assert_eq!(events[3].get("thread").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            events[3].get("args").and_then(|a| a.get("cause")).and_then(Json::as_str),
            Some("lazy")
        );
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
    fn suite_timing_document_round_trips() {
        let rows = vec![
            SuiteExperimentTiming {
                name: "fig4_ws_dbp".to_string(),
                wall_ns: 1_234_567,
                jobs: 105,
                solo_cache_hits: 120,
            },
            SuiteExperimentTiming {
                name: "table3_mixes".to_string(),
                wall_ns: 1_000,
                jobs: 0,
                solo_cache_hits: 0,
            },
        ];
        let ann = vec![("diag".to_string(), Json::obj([("reads", Json::uint(7))]))];
        let doc = suite_timing_document(4, true, 9_999_999, &rows, &ann);
        let back = json::parse(&doc.to_json()).expect("suite timing doc must be valid JSON");
        assert_eq!(back.get("format_version").and_then(Json::as_num), Some(1.0));
        assert_eq!(back.get("schema_version").and_then(Json::as_str), Some(SCHEMA_VERSION));
        assert_eq!(back.get("workers").and_then(Json::as_num), Some(4.0));
        assert_eq!(back.get("total_wall_ns").and_then(Json::as_num), Some(9_999_999.0));
        let exps = back.get("experiments").and_then(Json::as_arr).unwrap();
        assert_eq!(exps.len(), 2);
        assert_eq!(exps[0].get("name").and_then(Json::as_str), Some("fig4_ws_dbp"));
        assert_eq!(exps[0].get("jobs").and_then(Json::as_num), Some(105.0));
        assert_eq!(exps[0].get("solo_cache_hits").and_then(Json::as_num), Some(120.0));
        assert_eq!(
            back.get("annotations")
                .and_then(|a| a.get("diag"))
                .and_then(|d| d.get("reads"))
                .and_then(Json::as_num),
            Some(7.0)
        );
        assert!(check_schema_version(&back).is_ok());
    }

    #[test]
    fn latency_document_round_trips_with_schema() {
        let mut report = LatencyReport::new(2, 4);
        report.record_read(0, 2, 120, [10, 20, 30, 40, 20]);
        report.record_write(1, 55);
        report.bank_interference.add(0, 1, 20);
        let doc = latency_document(&report, Json::obj([("policy", Json::str("none"))]));
        let back = json::parse(&doc.to_json()).expect("latency doc must be valid JSON");
        assert!(check_schema_version(&back).is_ok());
        assert_eq!(back.get("schema_version").and_then(Json::as_str), Some(SCHEMA_VERSION));
        assert_eq!(
            back.get("summary").and_then(|s| s.get("policy")).and_then(Json::as_str),
            Some("none")
        );
        let parsed = LatencyReport::from_json(&back).expect("body must reconstruct");
        assert_eq!(parsed, report);
    }

    #[test]
    fn audit_document_round_trips_with_schema() {
        use crate::audit::{AuditBuilder, EpochObservation, ProfileSample, ShadowEpoch};

        let mut b = AuditBuilder::new(
            "DBP",
            vec!["equal-BP".to_string()],
            2,
            4,
            vec![vec![vec![0, 1], vec![2, 3]], vec![vec![0, 1], vec![2, 3]]],
        );
        b.observe(&EpochObservation {
            epoch: 0,
            live_units: vec![vec![0, 1, 2], vec![3]],
            achieved: vec![ProfileSample::default(), ProfileSample::default()],
            predicted_units: vec![3, 1],
            shadows: vec![ShadowEpoch {
                units: vec![vec![0, 1], vec![2, 3]],
                would_migrate_pages: 5,
            }],
        });
        let report = b.report();
        let doc = audit_document(&report, Json::obj([("mix", Json::str("mix50-1"))]));
        let back = json::parse(&doc.to_json()).expect("audit doc must be valid JSON");
        assert!(check_schema_version(&back).is_ok());
        assert_eq!(back.get("schema_version").and_then(Json::as_str), Some(SCHEMA_VERSION));
        assert_eq!(
            back.get("summary").and_then(|s| s.get("mix")).and_then(Json::as_str),
            Some("mix50-1")
        );
        // The per-decision series exports as `epoch_rows`, NOT `epochs`:
        // `dbpreport` routes metrics documents by the `epochs` key, so an
        // audit document must never carry it at top level.
        assert!(back.get("epoch_rows").is_some());
        assert!(back.get("epochs").is_none(), "audit docs must not collide with metrics routing");
        let parsed = AuditReport::from_json(&back).expect("body must reconstruct");
        assert_eq!(parsed, report);
        // A future-major producer is rejected before anyone reads the body.
        let future = json::parse(&doc.to_json().replace("\"1.0\"", "\"2.0\"")).unwrap();
        assert!(check_schema_version(&future).unwrap_err().contains("newer"));
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
    fn profile_document_round_trips_with_schema() {
        let prof = crate::prof::Prof::enabled();
        {
            let _run = prof.span("run");
            let _tick = prof.span("tick");
        }
        prof.counter("cycles").add(42);
        let p = prof.snapshot();
        let doc = profile_document(&p, Json::obj([("mix", Json::str("mix-a"))]));
        let back = json::parse(&doc.to_json()).expect("profile doc must be valid JSON");
        assert!(check_schema_version(&back).is_ok());
        assert_eq!(back.get("schema_version").and_then(Json::as_str), Some(SCHEMA_VERSION));
        assert_eq!(
            back.get("summary").and_then(|s| s.get("mix")).and_then(Json::as_str),
            Some("mix-a")
        );
        assert_eq!(back.get("total_ns").and_then(Json::as_num), Some(p.total_ns() as f64));
        let parsed = Profile::from_json(&back).expect("body must reconstruct");
        assert_eq!(parsed, p);
        // A future-major producer is rejected before anyone reads the body.
        let future = json::parse(&doc.to_json().replace("\"1.0\"", "\"2.0\"")).unwrap();
        assert!(check_schema_version(&future).unwrap_err().contains("newer"));
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
        let m = metrics_document(&t, Json::Obj(Vec::new()));
        assert!(json::parse(&m.to_json()).is_ok());
        let c = chrome_trace(&t);
        let back = json::parse(&c.to_json()).unwrap();
        assert!(back.get("traceEvents").and_then(Json::as_arr).is_some());
    }
}
