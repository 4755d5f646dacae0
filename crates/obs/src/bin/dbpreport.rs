//! The one document tool: render, convert, or validate the simulator's
//! JSON exports.
//!
//! `dbpreport` recognises the four documents the workspace produces by
//! one top-level key each — run reports (`dbpsim --report-out`),
//! suite-timing documents (`bench_all --json`), Chrome traces
//! (`--trace-out`), and self-profiles (`--profile-out`) — and renders
//! each in full as aligned tables (or markdown with `--md`). A run report
//! renders section by section: epoch time-series with sparklines; latency
//! percentiles, component breakdowns and interference heatmaps; the
//! live-vs-shadow policy comparison, prediction accuracy, calibration
//! and convergence telemetry. A profile renders its work counters, the
//! exact-sum span tree and the hottest paths.
//!
//! Modes (no files: read stdin):
//!
//! * `dbpreport [--md] [--top N] <file>...` — tables.
//! * `dbpreport --folded <profile>...` — flamegraph-ready folded stacks
//!   (`path;to;leaf self_ns`), pipe into `flamegraph.pl`.
//! * `dbpreport --chrome <out.json> <profile>` — a Chrome `trace_event`
//!   document (synthetic timeline, real durations).
//! * `dbpreport --check [--require-key K]... <file>...` — strict JSON
//!   validation over the in-tree parser, optionally demanding top-level
//!   keys; what `ci.sh` gates every exported artifact with.
//!
//! Every input is processed; any failure makes the exit status nonzero.

use std::process::ExitCode;

use dbp_obs::audit::{
    calibration_table, convergence_summary, phase_shift_table, policy_table, prediction_table,
};
use dbp_obs::cli::{read_inputs, Arg, CliSpec};
use dbp_obs::export::{self, SuiteExperimentTiming};
use dbp_obs::json::{self, Json};
use dbp_obs::latency::{
    bank_latency_table, breakdown_table, interference_table, read_latency_table,
    write_latency_table, LatencyReport,
};
use dbp_obs::prof::{counter_table, span_table, top_self_table, Profile};
use dbp_obs::table::{fmt_ns, push_table, sparkline, summary_line, Table};
use dbp_obs::{AuditReport, EpochSample};

const SPEC: CliSpec = CliSpec {
    bin: "dbpreport",
    about: "render, convert, or validate dbpsim/bench_all JSON exports",
    positional: "[file ...]  JSON exports (default: stdin)",
    args: &[
        Arg::flag("--md", "emit markdown tables instead of aligned plain text"),
        Arg::opt("--top", "n", "rows in a profile's top-by-self-time table (default 10)"),
        Arg::flag("--folded", "emit a profile's flamegraph folded stacks instead of tables"),
        Arg::opt("--chrome", "out.json", "convert one profile to a Chrome trace_event file"),
        Arg::flag("--check", "validate only: parse each document, print one ok line"),
        Arg::opt("--require-key", "key", "with --check: demand a top-level key (repeatable)"),
    ],
};

/// What to do with each input document.
enum Mode {
    /// `top` is `Some` only when `--top` was given: it then demands a
    /// profile, like the other two profile-only modes.
    Tables {
        md: bool,
        top: Option<usize>,
    },
    Folded,
    Chrome {
        out: String,
    },
    Check {
        required_keys: Vec<String>,
    },
}

/// A run report: the summary line, then one block of tables per section
/// the run recorded.
fn render_run(doc: &Json, md: bool) -> Result<String, String> {
    let epochs: Vec<EpochSample> = doc.field("epochs")?;
    let mut out = summary_line(doc);
    out.push_str(&epoch_tables(&epochs, doc.req_arr("events")?.len(), md));
    if let Some(report) = doc.field::<Option<LatencyReport>>("latency")? {
        out.push('\n');
        out.push_str(&latency_tables(&report, md));
    }
    if let Some(report) = doc.field::<Option<AuditReport>>("audit")? {
        out.push('\n');
        out.push_str(&audit_tables(&report, md));
    }
    Ok(out)
}

fn epoch_tables(epochs: &[EpochSample], events: usize, md: bool) -> String {
    let mut out = String::new();
    let mut t = Table::new(["epoch", "cycle", "queue", "row hit", "bus util"]);
    for e in epochs {
        t.row([
            e.epoch.to_string(),
            e.cycle.to_string(),
            e.queue_depth.to_string(),
            format!("{:.3}", e.row_hit_rate),
            format!("{:.3}", e.bus_utilisation),
        ]);
    }
    push_table(&mut out, "epoch time-series", &t, md);
    let mut spark = |label: &str, value: fn(&EpochSample) -> f64| {
        let series: Vec<f64> = epochs.iter().map(value).collect();
        out.push_str(&format!("{label:>8}  {}\n", sparkline(&series)));
    };
    spark("row hit", |e| e.row_hit_rate);
    spark("bus util", |e| e.bus_utilisation);
    spark("queue", |e| e.queue_depth as f64);
    out.push_str(&format!("events captured: {events}\n"));
    out
}

fn latency_tables(report: &LatencyReport, md: bool) -> String {
    let mut out = format!("demand reads profiled: {}\n", report.total_reads());
    push_table(&mut out, "read latency (DRAM cycles)", &read_latency_table(report), md);
    push_table(&mut out, "read latency breakdown (% of total)", &breakdown_table(report), md);
    push_table(&mut out, "writeback latency (DRAM cycles)", &write_latency_table(report), md);
    push_table(
        &mut out,
        "bank interference (cycles core i blocked on a bank held by core j)",
        &interference_table(&report.bank_interference),
        md,
    );
    push_table(
        &mut out,
        "bus interference (cycles core i blocked on the bus held by core j)",
        &interference_table(&report.bus_interference),
        md,
    );
    push_table(&mut out, "per-bank read latency", &bank_latency_table(report), md);
    out
}

fn render_suite(doc: &Json, md: bool) -> Result<String, String> {
    let mut out = String::new();
    let workers: u64 = doc.field("workers")?;
    let total: u64 = doc.field("total_wall_ns")?;
    out.push_str(&format!("workers: {workers}  total wall: {:.2}s\n", total as f64 / 1e9));
    let mut t =
        Table::new(["experiment", "wall (s)", "jobs", "shared hits", "solo hits", "twin hits"]);
    for e in doc.field::<Vec<SuiteExperimentTiming>>("experiments")? {
        t.row([
            e.name,
            format!("{:.2}", e.wall_ns as f64 / 1e9),
            e.jobs.to_string(),
            e.shared_cache_hits.to_string(),
            e.solo_cache_hits.to_string(),
            e.twin_hits.to_string(),
        ]);
    }
    push_table(&mut out, "experiments", &t, md);
    if let Some(Json::Obj(ann)) = doc.get("annotations") {
        if !ann.is_empty() {
            out.push_str("\nannotations:\n");
            for (k, v) in ann {
                out.push_str(&format!("  {k}: {}\n", v.to_json()));
            }
        }
    }
    Ok(out)
}

fn render_profile(doc: &Json, md: bool, top: usize) -> Result<String, String> {
    let p = Profile::from_json(doc)?;
    let mut out = summary_line(doc);
    out.push_str(&format!("profiled wall time: {}\n", fmt_ns(u128::from(p.total_ns()))));
    if !p.counters.is_empty() {
        push_table(&mut out, "work counters", &counter_table(&p), md);
    }
    push_table(&mut out, "span tree (wall clock, exact-sum)", &span_table(&p), md);
    push_table(&mut out, &format!("top {top} by self time"), &top_self_table(&p, top), md);
    Ok(out)
}

fn render_trace(doc: &Json, _md: bool) -> Result<String, String> {
    let events = doc.req_arr("traceEvents")?;
    let (mut instants, mut counters, mut meta) = (0u64, 0u64, 0u64);
    for e in events {
        match e.get("ph").and_then(Json::as_str) {
            Some("i") => instants += 1,
            Some("C") => counters += 1,
            Some("M") => meta += 1,
            _ => {}
        }
    }
    Ok(format!(
        "chrome trace: {} rows ({instants} instants, {counters} counter samples, {meta} metadata)\n",
        events.len()
    ))
}

fn audit_tables(report: &AuditReport, md: bool) -> String {
    let mut out = format!(
        "decision audit: {} thread(s), {} bank unit(s), {} decision(s)\n",
        report.threads, report.max_units, report.convergence.decisions
    );
    push_table(&mut out, "policy comparison (live vs shadows)", &policy_table(report), md);
    push_table(&mut out, "demand-prediction accuracy (bank units)", &prediction_table(report), md);
    push_table(
        &mut out,
        "calibration (predicted-demand bucket x achieved BLP)",
        &calibration_table(report),
        md,
    );
    out.push('\n');
    out.push_str(&convergence_summary(report));
    if !report.convergence.phase_shifts.is_empty() {
        push_table(&mut out, "profile phase shifts", &phase_shift_table(report), md);
    }
    if report.epochs.len() > 1 {
        let errs: Vec<f64> = report.epochs.iter().filter_map(|e| e.mean_abs_pred_error).collect();
        if !errs.is_empty() {
            out.push_str(&format!("\n{:>18}  {}\n", "mean |pred err|", sparkline(&errs)));
        }
        for (s, shadow) in report.shadows.iter().enumerate() {
            let dist: Vec<f64> = report
                .epochs
                .iter()
                .filter_map(|e| e.shadow_distance.get(s).map(|&d| d as f64))
                .collect();
            out.push_str(&format!(
                "{:>18}  {}\n",
                format!("dist {}", shadow.name),
                sparkline(&dist)
            ));
        }
    }
    out
}

const NOT_A_PROFILE: &str =
    "not a profile document (--top, --folded and --chrome take --profile-out exports)";

/// The top-level key that identifies each document kind: run report,
/// suite timing, Chrome trace, profile.
const KINDS: [&str; 4] = ["epochs", "experiments", "traceEvents", "spans"];

fn kind_of(doc: &Json) -> Option<&'static str> {
    KINDS.into_iter().find(|k| doc.get(k).is_some())
}

/// Route a parsed document to its renderer by its top-level keys.
fn render_doc(doc: &Json, md: bool, top: Option<usize>) -> Result<String, String> {
    export::check_schema_version(doc)?;
    let kind = kind_of(doc);
    if top.is_some() && kind != Some("spans") {
        return Err(NOT_A_PROFILE.to_string());
    }
    match kind {
        Some("epochs") => render_run(doc, md),
        Some("experiments") => render_suite(doc, md),
        Some("traceEvents") => render_trace(doc, md),
        Some("spans") => render_profile(doc, md, top.unwrap_or(10)),
        _ => Err("unrecognised document (expected a run report, suite timing, trace or profile)"
            .to_string()),
    }
}

fn load_profile(doc: &Json) -> Result<Profile, String> {
    export::check_schema_version(doc)?;
    if kind_of(doc) != Some("spans") {
        return Err(NOT_A_PROFILE.to_string());
    }
    Profile::from_json(doc)
}

/// Handle one input under `mode`; the error carries no label.
fn process(label: &str, text: &str, mode: &Mode) -> Result<(), String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    match mode {
        Mode::Tables { md, top } => {
            let body = render_doc(&doc, *md, *top)?;
            println!("== {label} ==");
            println!("{body}");
        }
        Mode::Folded => print!("{}", load_profile(&doc)?.folded()),
        Mode::Chrome { out } => {
            let trace = export::profile_chrome_trace(&load_profile(&doc)?);
            std::fs::write(out, trace.to_json()).map_err(|e| format!("{out}: {e}"))?;
            eprintln!("dbpreport: wrote Chrome trace to {out}");
        }
        Mode::Check { required_keys } => {
            let missing: Vec<_> = required_keys.iter().filter(|k| doc.get(k).is_none()).collect();
            if !missing.is_empty() {
                return Err(format!("missing required key(s) {missing:?}"));
            }
            println!("dbpreport: {label}: ok ({} bytes)", text.len());
        }
    }
    Ok(())
}

fn mode_of(parsed: &dbp_obs::cli::Parsed) -> Result<Mode, String> {
    let top = match parsed.option("--top") {
        None => None,
        Some(v) => Some(v.parse().map_err(|_| format!("--top needs a number, got `{v}`"))?),
    };
    let required_keys: Vec<String> =
        parsed.options("--require-key").into_iter().map(str::to_owned).collect();
    let (check, folded, chrome) =
        (parsed.flag("--check"), parsed.flag("--folded"), parsed.option("--chrome"));
    if usize::from(check) + usize::from(folded) + usize::from(chrome.is_some()) > 1 {
        return Err("--check, --folded and --chrome are mutually exclusive".to_string());
    }
    if !check && !required_keys.is_empty() {
        return Err("--require-key needs --check".to_string());
    }
    // No file means stdin: one input.
    if chrome.is_some() && parsed.files.len() > 1 {
        return Err("--chrome takes exactly one input profile".to_string());
    }
    Ok(if check {
        Mode::Check { required_keys }
    } else if folded {
        Mode::Folded
    } else if let Some(out) = chrome {
        Mode::Chrome { out: out.to_string() }
    } else {
        Mode::Tables { md: parsed.flag("--md"), top }
    })
}

fn main() -> ExitCode {
    let parsed = SPEC.parse_or_exit();
    let mode = match mode_of(&parsed) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("dbpreport: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for (label, input) in read_inputs(&parsed.files) {
        let result = input
            .and_then(|text| process(&label, &text, &mode).map_err(|e| format!("{label}: {e}")));
        if let Err(e) = result {
            eprintln!("dbpreport: {e}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LATENCY_BODY: &str = r#""cores":[],"banks":[],"interference":{"bank":[],"bus":[]}"#;

    #[test]
    fn a_report_renders_its_sections_and_a_bare_section_is_refused() {
        let report = format!(r#"{{"epochs":[],"events":[],"latency":{{{LATENCY_BODY}}}}}"#);
        let text = render_doc(&json::parse(&report).unwrap(), false, None).expect("renders");
        assert!(text.contains("events captured: 0\n\ndemand reads profiled: 0\n"), "{text}");
        assert!(!text.contains("decision audit"), "no audit section was exported: {text}");
        // The pre-1.1 latency document carried the same body at top level:
        // it must be refused, not routed to some renderer by a stray key.
        let bare = format!(r#"{{"format_version":1,"schema_version":"1.0",{LATENCY_BODY}}}"#);
        let err = render_doc(&json::parse(&bare).unwrap(), false, None).unwrap_err();
        assert!(err.starts_with("unrecognised document"), "{err}");
    }
}
