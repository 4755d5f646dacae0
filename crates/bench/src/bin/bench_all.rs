//! The one experiment binary: run the entire suite — all tables,
//! figures, ablations and extensions — or just the experiments named on
//! the command line, in one process, sharing one worker pool and one
//! memoized solo-run cache across experiments.
//!
//! Run: `cargo run --release -p dbp-bench --bin bench_all -- [--quick] [NAME ...]`
//! (`--help` lists every option). `bench_all NAME > results/NAME.txt`
//! regenerates one committed table; `DBP_JOBS=n` sets the worker count
//! (`1` forces the serial reference path).
//!
//! Experiment tables go to **stdout** and are byte-identical for any
//! worker count, with or without `--stepped`; timing, progress, and the
//! perf delta table go to **stderr**, so `bench_all > tables.txt` is
//! diffable across `DBP_JOBS` settings — exactly what the CI determinism
//! gate does. Every artifact write failure is a hard error: CI must
//! never mistake a run whose output silently vanished for a successful
//! one, and under `--baseline` a regressed or missing benchmark exits 1.

use dbp_bench::engine::Engine;
use dbp_bench::experiments::{self, Experiment};
use dbp_bench::{harness, perf};
use dbp_obs::cli::{Arg, CliSpec};
use dbp_obs::export::{profile_document, suite_timing_document, SuiteExperimentTiming};
use dbp_obs::{Json, Prof, Table};
use dbp_util::bench::{fmt_ns, Stopwatch};

const SPEC: CliSpec = CliSpec {
    bin: "bench_all",
    about: "run the experiment suite (or the named experiments) and the micro-bench perf gate",
    positional: "[NAME ...]  experiments to run, in the order given (default: the whole registry)",
    args: &[
        Arg::flag("--quick", "reduced instruction targets (CI and smoke runs)"),
        Arg::flag("--stepped", "pin the per-cycle stepped core (time-skip cross-check)"),
        Arg::opt("--json", "path", "write the suite timing summary as JSON"),
        Arg::opt("--profile-out", "path", "self-profile the suite; write the profile document"),
        Arg::opt("--baseline", "path", "compare micro-bench floors against this baseline"),
        Arg::opt("--bench-results", "path", "the current DBP_BENCH_JSON artifact to compare"),
        Arg::opt("--perf-out", "path", "write the comparison as a perf-summary JSON"),
        Arg::opt("--history-append", "path", "append this run's medians as one JSON line"),
        Arg::flag("--perf-only", "skip the experiments; just compare and gate"),
        Arg::opt("--tolerance", "frac", "relative noise tolerance (default 0.35)"),
    ],
};

struct Opts {
    experiments: Vec<Experiment>,
    quick: bool,
    stepped: bool,
    json_path: Option<String>,
    profile_out: Option<String>,
    baseline: Option<String>,
    bench_results: Option<String>,
    perf_out: Option<String>,
    history_append: Option<String>,
    perf_only: bool,
    tolerance: f64,
}

/// A usage error: one line on stderr, exit 2 (as `CliSpec` does).
fn usage_error(msg: &str) -> ! {
    eprintln!("bench_all: {msg}");
    std::process::exit(2);
}

fn parse_opts() -> Opts {
    let parsed = SPEC.parse_or_exit();
    let path = |name: &str| parsed.option(name).map(str::to_owned);
    let registry = experiments::all();
    let experiments = if parsed.files.is_empty() {
        registry
    } else {
        let find = |name: &String| {
            registry.iter().find(|e| e.name == name).copied().unwrap_or_else(|| {
                let names: Vec<_> = registry.iter().map(|e| e.name).collect();
                usage_error(&format!("unknown experiment `{name}`; one of: {}", names.join(" ")))
            })
        };
        parsed.files.iter().map(find).collect()
    };
    let tolerance = match parsed.option("--tolerance") {
        None => perf::DEFAULT_TOLERANCE,
        Some(v) => match v.trim().parse::<f64>() {
            Ok(t) if t.is_finite() && t >= 0.0 => t,
            _ => usage_error(&format!("--tolerance needs a non-negative number, got `{v}`")),
        },
    };
    let opts = Opts {
        experiments,
        quick: parsed.flag("--quick"),
        stepped: parsed.flag("--stepped"),
        json_path: path("--json"),
        profile_out: path("--profile-out"),
        baseline: path("--baseline"),
        bench_results: path("--bench-results"),
        perf_out: path("--perf-out"),
        history_append: path("--history-append"),
        perf_only: parsed.flag("--perf-only"),
        tolerance,
    };
    if opts.baseline.is_some() && opts.bench_results.is_none() {
        usage_error("--baseline needs --bench-results <path> (the current medians)");
    }
    if opts.history_append.is_some() && opts.bench_results.is_none() {
        usage_error("--history-append needs --bench-results <path> (the medians source)");
    }
    if opts.perf_only && opts.baseline.is_none() {
        usage_error("--perf-only without --baseline has nothing to do");
    }
    if opts.perf_only && !parsed.files.is_empty() {
        usage_error("--perf-only runs no experiments; drop the names");
    }
    opts
}

/// Write `doc` to `path` or exit 1 — a vanished artifact must not look
/// like success to CI.
fn write_or_die(what: &str, path: &str, doc: &Json) {
    match std::fs::write(path, doc.to_json()) {
        Ok(()) => eprintln!("bench_all: wrote {what} to {path}"),
        Err(e) => {
            eprintln!("bench_all: cannot write {what} {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Read and parse the JSON document at `path`, or exit 1.
fn load_json(what: &str, path: &str) -> Json {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("bench_all: cannot read {what} {path}: {e}");
        std::process::exit(1);
    });
    dbp_obs::json::parse(&text).unwrap_or_else(|e| {
        eprintln!("bench_all: {what} {path} is not valid JSON: {e}");
        std::process::exit(1);
    })
}

fn load_floors(what: &str, path: &str) -> Vec<(String, u64)> {
    perf::parse_floors(&load_json(what, path)).unwrap_or_else(|e| {
        eprintln!("bench_all: {what} {path}: {e}");
        std::process::exit(1);
    })
}

fn run_suite(opts: &Opts) {
    let prof = if opts.profile_out.is_some() { Prof::enabled() } else { Prof::disabled() };
    let mut eng = Engine::from_env();
    eng.attach_profiler(&prof);
    let mut cfg = harness::config_for(opts.quick);
    cfg.time_skip = !opts.stepped;
    eprintln!(
        "bench_all: {} worker(s), {} config{}{}",
        eng.workers(),
        if opts.quick { "quick" } else { "full (Table 1)" },
        if opts.stepped { ", stepped core" } else { "" },
        if prof.is_enabled() { ", self-profiling on" } else { "" }
    );

    let suite = Stopwatch::start();
    let mut rows: Vec<SuiteExperimentTiming> = Vec::new();
    for exp in &opts.experiments {
        let before = eng.stats();
        let sw = Stopwatch::start();
        let body = (exp.render)(&eng, &cfg);
        let wall = sw.elapsed_ns();
        println!("== {} ==\n", exp.title);
        println!("{body}");
        let done = eng.stats().since(&before);
        eprintln!(
            "bench_all: {} done in {} ({} job(s), {} solo-cache hit(s))",
            exp.name,
            fmt_ns(wall),
            done.jobs(),
            done.solo_cache_hits
        );
        rows.push(SuiteExperimentTiming {
            name: exp.name.to_string(),
            wall_ns: wall,
            jobs: done.jobs(),
            solo_cache_hits: done.solo_cache_hits,
        });
    }

    let total_ns = suite.elapsed_ns();
    let s = eng.stats();
    let mut timing = Table::new(["experiment", "wall", "jobs", "cache hits"]);
    timing.align_left(0);
    for r in &rows {
        timing.row([
            r.name.clone(),
            fmt_ns(r.wall_ns),
            r.jobs.to_string(),
            r.solo_cache_hits.to_string(),
        ]);
    }
    timing.row([
        "total".to_owned(),
        fmt_ns(total_ns),
        s.jobs().to_string(),
        s.solo_cache_hits.to_string(),
    ]);
    eprint!("{}", timing.render());
    eprintln!(
        "bench_all: suite done in {} on {} worker(s) — {} jobs ({} shared, {} solo, {} aux), \
         {} solo-cache hits ({} distinct solo runs memoized)",
        fmt_ns(total_ns),
        eng.workers(),
        s.jobs(),
        s.shared_runs,
        s.solo_runs,
        s.aux_runs,
        s.solo_cache_hits,
        eng.cached_solo_runs()
    );

    if let Some(path) = &opts.json_path {
        let doc = suite_timing_document(
            eng.workers(),
            opts.quick,
            total_ns,
            &rows,
            &eng.take_annotations(),
        );
        write_or_die("suite timing JSON", path, &doc);
    }
    if let Some(path) = &opts.profile_out {
        let profile = prof.snapshot();
        let summary = Json::obj([
            ("source", Json::str("bench_all")),
            ("workers", Json::uint(eng.workers() as u64)),
            ("quick", Json::Bool(opts.quick)),
            ("suite_wall_ns", Json::uint(total_ns as u64)),
        ]);
        write_or_die("self-profile JSON", path, &profile_document(&profile, summary));
    }
}

/// Append this run's medians as one JSON line to the longitudinal
/// history file. Append-only: history is a log, never rewritten.
fn run_history_append(opts: &Opts) {
    use std::io::Write;

    let Some(path) = &opts.history_append else { return };
    let results_path = opts.bench_results.as_deref().expect("checked in parse_opts");
    let doc = load_json("bench results", results_path);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let line = perf::history_line(&doc, now).unwrap_or_else(|e| {
        eprintln!("bench_all: bench results {results_path}: {e}");
        std::process::exit(1);
    });
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{}", line.to_json()));
    match appended {
        Ok(()) => eprintln!("bench_all: appended bench history line to {path}"),
        Err(e) => {
            eprintln!("bench_all: cannot append bench history {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Compare medians against the baseline; returns whether the gate failed.
fn run_perf_compare(opts: &Opts) -> bool {
    let Some(baseline_path) = &opts.baseline else { return false };
    let results_path = opts.bench_results.as_deref().expect("checked in parse_opts");
    let baseline = load_floors("baseline", baseline_path);
    let current = load_floors("bench results", results_path);
    let rows = perf::compare(&baseline, &current, opts.tolerance);
    eprintln!(
        "bench_all: perf comparison vs {baseline_path} (tolerance ±{:.0}%)",
        opts.tolerance * 100.0
    );
    eprint!("{}", perf::delta_table(&rows).render());

    if let Some(path) = &opts.perf_out {
        let doc = perf::perf_summary_document(&rows, opts.tolerance);
        write_or_die("perf summary JSON", path, &doc);
    }
    let failures = perf::gate_failures(&rows);
    if failures.is_empty() {
        eprintln!("bench_all: perf gate passed ({} benchmark(s) compared)", rows.len());
        return false;
    }
    for f in &failures {
        eprintln!(
            "bench_all: perf {}: {} (baseline {}, current {})",
            f.status.as_str(),
            f.name,
            f.baseline_ns.map_or_else(|| "-".into(), |n| fmt_ns(u128::from(n))),
            f.current_ns.map_or_else(|| "-".into(), |n| fmt_ns(u128::from(n))),
        );
    }
    eprintln!("bench_all: perf gate FAILED ({} finding(s))", failures.len());
    true
}

fn main() {
    let opts = parse_opts();
    if !opts.perf_only {
        run_suite(&opts);
    }
    run_history_append(&opts);
    if run_perf_compare(&opts) {
        std::process::exit(1);
    }
}
