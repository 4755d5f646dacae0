//! The one experiment binary: run the entire suite — all tables,
//! figures, ablations and extensions — or just the experiments named on
//! the command line, in one process, sharing one worker pool and one
//! run memo across experiments (each distinct simulation runs once).
//!
//! Run: `cargo run --release -p dbp-bench --bin bench_all -- [--quick] [NAME ...]`
//! (`--help` lists every option). `bench_all NAME > results/NAME.txt`
//! regenerates one committed table; `DBP_JOBS=n` sets the worker count
//! (`1` forces the serial reference path).
//!
//! Experiment tables go to **stdout** and are byte-identical for any
//! worker count, with or without `--stepped`; timing and progress go to
//! **stderr**, so `bench_all > tables.txt` is diffable across `DBP_JOBS`
//! settings — exactly what the CI determinism gate does. Every artifact
//! write failure is a hard error: CI must never mistake a run whose
//! output silently vanished for a successful one.

use std::time::Instant;

use dbp_bench::engine::Engine;
use dbp_bench::experiments::{self, Experiment};
use dbp_bench::harness;
use dbp_obs::cli::{Arg, CliSpec};
use dbp_obs::export::{profile_document, suite_timing_document, SuiteExperimentTiming};
use dbp_obs::table::fmt_ns;
use dbp_obs::{Json, Prof, Table};

const SPEC: CliSpec = CliSpec {
    bin: "bench_all",
    about: "run the experiment suite (or the named experiments)",
    positional: "[NAME ...]  experiments to run, in the order given (default: the whole registry)",
    args: &[
        Arg::flag("--quick", "reduced instruction targets (CI and smoke runs)"),
        Arg::flag("--stepped", "pin the per-cycle stepped core (time-skip cross-check)"),
        Arg::opt("--json", "path", "write the suite timing summary as JSON"),
        Arg::opt("--profile-out", "path", "self-profile the suite; write the profile document"),
    ],
};

struct Opts {
    experiments: Vec<Experiment>,
    quick: bool,
    stepped: bool,
    json_path: Option<String>,
    profile_out: Option<String>,
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
    Opts {
        experiments,
        quick: parsed.flag("--quick"),
        stepped: parsed.flag("--stepped"),
        json_path: path("--json"),
        profile_out: path("--profile-out"),
    }
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

    let suite = Instant::now();
    let mut rows: Vec<SuiteExperimentTiming> = Vec::new();
    for exp in &opts.experiments {
        let before = eng.stats();
        let started = Instant::now();
        let body = (exp.render)(&eng, &cfg);
        let wall = started.elapsed().as_nanos();
        println!("== {} ==\n", exp.title);
        println!("{body}");
        let done = eng.stats().since(&before);
        eprintln!(
            "bench_all: {} done in {} ({} job(s) run; memo hits: {} shared, {} solo; twin hits: {})",
            exp.name,
            fmt_ns(wall),
            done.jobs(),
            done.shared_cache_hits,
            done.solo_cache_hits,
            done.twin_hits
        );
        rows.push(SuiteExperimentTiming {
            name: exp.name.to_string(),
            wall_ns: wall,
            jobs: done.jobs(),
            solo_cache_hits: done.solo_cache_hits,
            shared_cache_hits: done.shared_cache_hits,
            twin_hits: done.twin_hits,
        });
    }

    let total_ns = suite.elapsed().as_nanos();
    let s = eng.stats();
    let mut timing =
        Table::new(["experiment", "wall", "jobs", "shared hits", "solo hits", "twin hits"]);
    timing.align_left(0);
    for r in &rows {
        timing.row([
            r.name.clone(),
            fmt_ns(r.wall_ns),
            r.jobs.to_string(),
            r.shared_cache_hits.to_string(),
            r.solo_cache_hits.to_string(),
            r.twin_hits.to_string(),
        ]);
    }
    timing.row([
        "total".to_owned(),
        fmt_ns(total_ns),
        s.jobs().to_string(),
        s.shared_cache_hits.to_string(),
        s.solo_cache_hits.to_string(),
        s.twin_hits.to_string(),
    ]);
    eprint!("{}", timing.render());
    eprintln!(
        "bench_all: suite done in {} on {} worker(s) — {} jobs run ({} shared, {} solo, {} aux), \
         memo hits: {} shared, {} solo; twin hits: {}",
        fmt_ns(total_ns),
        eng.workers(),
        s.jobs(),
        s.shared_runs,
        s.solo_runs,
        s.aux_runs,
        s.shared_cache_hits,
        s.solo_cache_hits,
        s.twin_hits
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

fn main() {
    run_suite(&parse_opts());
}
