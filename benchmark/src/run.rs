//! One workload in one process: set-up, timed passes or the traced run,
//! the correctness checks, and the result document.

use std::path::{Path, PathBuf};
use std::time::Instant;

use dbp_obs::{Json, Prof};
use dbp_sim::System;

use crate::spec::{self, MetricSpec};
use crate::stats::{summarise, Summary};
use crate::traced;
use crate::workloads::{build, first_cell, run_pass, Length, PassOut, Shape, Workload};

/// Set-ups timed per run; the median is `setup_s`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;

/// Environment switches the simulator or its harness would obey. Removed
/// so a run measures the same program whatever shell it starts from.
const SCRUBBED_ENV: [&str; 5] =
    ["DBP_NO_SKIP", "DBP_TRACE_PLAN", "DBP_QUICK", "DBP_JOBS", "DBP_PROP_SEED"];

pub fn scrub_environment() {
    for var in SCRUBBED_ENV {
        std::env::remove_var(var);
    }
}

/// The benchmark package's directory (results and traces go to `out/`
/// beneath it, committed reference tables sit beside it).
pub fn package_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

pub fn out_dir() -> PathBuf {
    package_dir().join("out")
}

/// What `run` was asked to do for one workload.
#[derive(Debug, Clone, Copy)]
pub struct Request<'a> {
    pub workload: &'a str,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Measured {
    pub spec: MetricSpec,
    pub value: f64,
    /// The whole passes behind a timed metric: median, extremes, count.
    pub passes: Option<Summary>,
}

/// The outcome of one workload run.
#[derive(Debug)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub fingerprint: u64,
    /// Named correctness checks and whether each held.
    pub checks: Vec<(&'static str, bool)>,
    pub metrics: Vec<Measured>,
    /// Untraced runs: host seconds per pass behind the declared rates
    /// (each simulation's fastest run summed, and the whole passes).
    pub pass_seconds: Option<(f64, Summary)>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result line.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.spec.name.clone(),
                        Json::obj([
                            ("value", Json::num(m.value)),
                            ("unit", Json::str(m.spec.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }

    /// The full result document written under `out/`.
    fn document(&self, host: Json) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            let mut pairs = vec![
                ("name", Json::str(m.spec.name.clone())),
                ("value", Json::num(m.value)),
                ("unit", Json::str(m.spec.unit)),
            ];
            if let Some(p) = m.passes {
                pairs.push(("median", Json::num(p.median)));
                pairs.push(("min", Json::num(p.min)));
                pairs.push(("max", Json::num(p.max)));
                pairs.push(("passes", Json::uint(p.count as u64)));
            }
            Json::obj(pairs)
        });
        Json::obj([
            ("workload", Json::str(self.workload.clone())),
            ("seed", Json::uint(self.seed)),
            ("traced", Json::Bool(self.traced)),
            ("host", host),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::uint(self.attempted)),
            ("failed", Json::uint(self.failed)),
            ("ops_failed_frac", Json::num(self.failed as f64 / self.attempted as f64)),
            ("sim_fingerprint", Json::str(format!("{:016x}", self.fingerprint))),
            (
                "pass_seconds",
                self.pass_seconds.map_or(Json::Null, |(best, whole)| {
                    Json::obj([
                        ("value", Json::num(best)),
                        ("median", Json::num(whole.median)),
                        ("min", Json::num(whole.min)),
                        ("max", Json::num(whole.max)),
                        ("passes", Json::uint(whole.count as u64)),
                    ])
                }),
            ),
            ("checks", Json::obj(self.checks.iter().map(|&(name, ok)| (name, Json::Bool(ok))))),
            ("metrics", Json::arr(metrics)),
        ])
    }

    /// Every metric by name with its unit, then the checks.
    pub fn print(&self) {
        println!(
            "== {} (seed {}, {}) ==",
            self.workload,
            self.seed,
            if self.traced { "traced: per-layer" } else { "untraced: end-to-end" }
        );
        for m in &self.metrics {
            let passes = m.passes.map_or(String::new(), |p| {
                format!(
                    "  (samples: median {:.6}, min {:.6}, max {:.6}, n {})",
                    p.median, p.min, p.max, p.count
                )
            });
            println!("  {:<40} {:>16.6} {}{passes}", m.spec.name, m.value, m.spec.unit);
        }
        if let Some((best, whole)) = self.pass_seconds {
            println!(
                "  {:<40} {best:>16.6} s  (samples: median {:.6}, min {:.6}, max {:.6}, n {})",
                "pass_seconds", whole.median, whole.min, whole.max, whole.count
            );
        }
        println!(
            "  {:<40} {:>16.6} frac  ({} failed of {} attempted)",
            "ops_failed_frac",
            self.failed as f64 / self.attempted as f64,
            self.failed,
            self.attempted
        );
        println!("  {:<40} {:016x}", "sim_fingerprint", self.fingerprint);
        for (name, ok) in &self.checks {
            println!("  check {name:<34} {}", if *ok { "ok" } else { "FAILED" });
        }
    }
}

fn capture(program: &str, args: &[&str], dir: &Path) -> String {
    std::process::Command::new(program)
        .args(args)
        .current_dir(dir)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Where and on what the run happened.
pub fn host_info(seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    Json::obj([
        ("nproc", Json::uint(nproc as u64)),
        ("rustc", Json::str(capture("rustc", &["--version"], package_dir()))),
        ("git_commit", Json::str(capture("git", &["rev-parse", "HEAD"], package_dir()))),
        ("seed", Json::uint(seed)),
    ])
}

/// One set-up: build the workload at both lengths and run the warm pass.
fn set_up(req: &Request) -> Option<(Workload, Workload, PassOut)> {
    let full = build(req.workload, req.seed, Length::Full)?;
    let quick = build(req.workload, req.seed, Length::Quick)?;
    let warm = run_pass(&quick, &Prof::disabled(), None);
    Some((full, quick, warm))
}

/// The stepped core must reproduce the skipping core bit for bit: rerun
/// the first quick-length simulation with time skipping off.
fn stepped_core_agrees(quick: &Workload, warm: &PassOut) -> bool {
    let cell = first_cell(quick);
    let mut sys = System::new(cell.cfg.clone(), cell.traces());
    sys.set_time_skip(false);
    warm.runs.first() == Some(&sys.run())
}

/// The gmean rows of the committed Figure 4 / Figure 5 tables, columns
/// `[equal-BP, DBP]`, as printed (three decimals).
fn committed_gmeans() -> Option<[String; 4]> {
    let row = |file: &str| -> Option<[String; 2]> {
        let text = std::fs::read_to_string(package_dir().join("../results").join(file)).ok()?;
        let line = text.lines().find(|l| l.trim_start().starts_with("gmean"))?;
        let cols: Vec<&str> = line.split_whitespace().collect();
        // gmean | FRFCFS | equal-BP | DBP
        Some([cols.get(2)?.to_string(), cols.get(3)?.to_string()])
    };
    let [ws_eq, ws_dbp] = row("fig4_ws_dbp.txt")?;
    let [ms_eq, ms_dbp] = row("fig5_ms_dbp.txt")?;
    Some([ws_eq, ws_dbp, ms_eq, ms_dbp])
}

fn results_match(out: &PassOut) -> bool {
    let Some((_, _, gmeans)) = traced::headline_gains(out) else { return false };
    committed_gmeans().is_some_and(|want| gmeans.map(|g| format!("{g:.3}")) == want)
}

/// What either kind of run measured, before it is matched to the spec.
struct Measurement {
    metrics: Vec<(String, f64, Option<Summary>)>,
    checks: Vec<(&'static str, bool)>,
    attempted: u64,
    failed: u64,
    fingerprint: u64,
    /// The last full-length pass (the grid's results are checked on it).
    last: PassOut,
    pass_seconds: Option<(f64, Summary)>,
}

/// The traced run: per-layer metrics, span and profile documents.
fn measure_traced(full: &Workload, quick: &Workload) -> Measurement {
    let t = traced::run(full, quick);
    let coverage = t.metrics.iter().find(|(n, _)| n == "obs.layer_coverage_frac").map(|m| m.1);
    let checks = vec![
        ("profiler_is_observation_only", t.untraced.fingerprint == t.traced.fingerprint),
        ("layer_spans_cover_95pct", coverage.is_some_and(|c| c >= 0.95)),
    ];
    write_json(&format!("{}.spans.json", full.name), &t.spans.to_json());
    write_json(
        &format!("{}.profile.json", full.name),
        &dbp_obs::export::profile_document(&t.profile, Json::str(full.name)),
    );
    Measurement {
        metrics: t.metrics.into_iter().map(|(n, v)| (n, v, None)).collect(),
        checks,
        attempted: t.untraced.attempted + t.traced.attempted,
        failed: t.untraced.failed + t.traced.failed,
        fingerprint: t.traced.fingerprint,
        last: t.traced,
        pass_seconds: None,
    }
}

/// The timed passes: end-to-end metrics. `setups` are the set-up times
/// already taken.
fn measure_timed(full: &Workload, seconds: u64, setups: &[f64]) -> Measurement {
    // Two passes at least where a pass is a sequence of simulations, so
    // every simulation gets a second chance at a quiet moment.
    let min_passes = match full.shape {
        Shape::Serial(_) => 2,
        Shape::Grid { .. } => 1,
    };
    let mut passes: Vec<PassOut> = Vec::new();
    let budget = Instant::now();
    while passes.len() < min_passes || budget.elapsed().as_secs() < seconds {
        passes.push(run_pass(full, &Prof::disabled(), None));
    }
    let fingerprint = passes[0].fingerprint;
    let checks = vec![(
        "fingerprint_equal_across_passes",
        passes.iter().all(|o| o.fingerprint == fingerprint),
    )];
    // The reported time of a pass is the sum, over its simulations, of
    // each one's fastest run in any pass: interference from the host only
    // ever adds time, and on a shared box it adds 10-40 % to some passes
    // of every run (README, "Measured steadiness").
    let units = passes[0].seconds.len();
    let wall: f64 =
        (0..units).map(|u| passes.iter().map(|o| o.seconds[u]).fold(f64::INFINITY, f64::min)).sum();
    let whole = summarise(&passes.iter().map(|o| o.seconds.iter().sum()).collect::<Vec<_>>());
    let per_second = |amount: u64| -> (f64, Option<Summary>) {
        let rate = |s: f64| amount as f64 / 1e6 / s;
        // The slowest pass gives the lowest rate, and the other way round.
        let passes = Summary {
            median: rate(whole.median),
            min: rate(whole.max),
            max: rate(whole.min),
            count: whole.count,
        };
        (rate(wall), Some(passes))
    };
    let (mcycles, mcycles_passes) = per_second(passes[0].cycles);
    let (minstr, minstr_passes) = per_second(passes[0].instructions);
    let setup = summarise(setups);
    Measurement {
        metrics: vec![
            ("sim_mcycles_per_s".into(), mcycles, mcycles_passes),
            ("sim_minstr_per_s".into(), minstr, minstr_passes),
            ("setup_s".into(), setup.median, Some(setup)),
        ],
        checks,
        attempted: passes.iter().map(|o| o.attempted).sum(),
        failed: passes.iter().map(|o| o.failed).sum(),
        fingerprint,
        last: passes.pop().expect("at least one pass"),
        pass_seconds: Some((wall, whole)),
    }
}

/// Run one workload as `req` asks. `None` for an unknown workload name.
pub fn run(req: &Request, started: Instant) -> Option<Outcome> {
    // Only the untraced run reports `setup_s`; the traced run sets up once.
    // A cheap set-up (0.2 s on `mem4c`) is repeated for a second, so its
    // median rests on more than three samples.
    let (min, max) = if req.traced { (1, 1) } else { (MIN_SETUPS, MAX_SETUPS) };
    let mut setups = Vec::new();
    let mut built = None;
    while setups.len() < min || (setups.len() < max && started.elapsed().as_secs_f64() < 1.0) {
        // The first set-up is timed from process start: it pays for
        // loading the program and faulting in its heap.
        let t0 = if setups.is_empty() { started } else { Instant::now() };
        built = Some(set_up(req)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (full, quick, warm) = built.expect("at least one set-up");

    let Measurement { metrics, mut checks, attempted, failed, fingerprint, last, pass_seconds } =
        if req.traced {
            measure_traced(&full, &quick)
        } else {
            measure_timed(&full, req.seconds, &setups)
        };
    match full.shape {
        Shape::Serial(_) => {
            checks.push(("stepped_core_agrees", stepped_core_agrees(&quick, &warm)))
        }
        // Only the canonical seed has committed tables to compare with.
        Shape::Grid { .. } if req.seed == 0 => checks.push(("results_match", results_match(&last))),
        Shape::Grid { .. } => {}
    }
    // Every check is one more attempted operation.
    let attempted = warm.attempted + attempted + checks.len() as u64;
    let failed = warm.failed + failed + checks.iter().filter(|(_, ok)| !ok).count() as u64;

    let declared = if req.traced { spec::per_layer() } else { spec::end_to_end() };
    let metrics = declared
        .into_iter()
        .map(|spec| {
            let (_, value, passes) = metrics
                .iter()
                .find(|(n, _, _)| *n == spec.name)
                .unwrap_or_else(|| panic!("declared metric `{}` was not measured", spec.name));
            Measured { spec, value: *value, passes: *passes }
        })
        .collect();
    let outcome = Outcome {
        workload: full.name.to_owned(),
        seed: req.seed,
        traced: req.traced,
        attempted,
        failed,
        fingerprint,
        checks,
        metrics,
        pass_seconds,
    };
    let kind = if req.traced { "traced" } else { "untraced" };
    write_json(&format!("{}.{kind}.json", full.name), &outcome.document(host_info(req.seed)));
    Some(outcome)
}

/// Write `doc` under `out/`. A result that cannot be stored is an error
/// of the run, not something to drop silently.
pub fn write_json(file: &str, doc: &Json) {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join(file), doc.to_json() + "\n"))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", dir.join(file).display()));
}
