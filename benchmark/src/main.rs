//! The repo benchmark: five steady-state workloads, host-speed and
//! paper-accuracy metrics, and a per-layer budget. See `README.md`.
//!
//! ```text
//! benchmark run [--workload W] [--seed S] [--seconds N] [--trace 0|1 | --traced] [--check-repeat]
//! benchmark spec
//! ```
//!
//! With `--workload`, that workload runs in this process (so
//! `peak_rss_mb` is its own) and the last line of standard output is the
//! result object `{"correct", "attempted", "failed", "metrics"}`. Without
//! it, every workload runs in a child process of its own, untraced then
//! traced unless `--trace` picks one. `spec` prints `BENCHMARK.json`.

mod drivers;
mod fingerprint;
mod run;
mod spans;
mod spec;
mod stats;
mod traced;
mod workloads;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dbp_obs::Json;

const USAGE: &str = "usage: benchmark run [--workload W] [--seed S] [--seconds N] \
                     [--trace 0|1 | --traced] [--check-repeat]\n       benchmark spec";

#[derive(Debug, Clone, PartialEq, Eq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    /// `Some(false)` untraced, `Some(true)` traced, `None` both.
    trace: Option<bool>,
    check_repeat: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 0,
        seconds: spec::RUN_SECONDS,
        trace: None,
        check_repeat: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number =
            |v: &String| v.parse::<u64>().map_err(|_| format!("{flag}: `{v}` is not a number"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !spec::WORKLOADS.iter().any(|w| w.name == name) {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name.clone());
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?,
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                })
            }
            "--traced" => parsed.trace = Some(true),
            "--check-repeat" => parsed.check_repeat = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(parsed)
}

/// Run one workload here; the result object is the last line printed.
fn run_here(workload: &str, args: &Args, started: Instant) -> ExitCode {
    let req = run::Request {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace == Some(true),
    };
    let outcome = run::run(&req, started).expect("workload name was validated");
    outcome.print();
    println!("{}", outcome.result_line().to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// One child's result line, parsed.
struct ChildResult {
    workload: &'static str,
    line: Json,
}

/// Run every workload in a child process each, in each requested trace
/// mode, echoing what the children print.
fn run_children(args: &Args) -> Result<Vec<ChildResult>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let modes: &[bool] = match args.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut results = Vec::new();
    for w in spec::WORKLOADS {
        for &traced in modes {
            let out = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot start the {} run: {e}", w.name))?;
            let text = String::from_utf8_lossy(&out.stdout);
            let (report, line) = text
                .trim_end()
                .rsplit_once('\n')
                .ok_or_else(|| format!("the {} run printed no result", w.name))?;
            println!("{report}");
            let line = dbp_obs::json::parse(line)
                .map_err(|e| format!("the {} run's result line does not parse: {e:?}", w.name))?;
            results.push(ChildResult { workload: w.name, line });
        }
    }
    Ok(results)
}

fn field(line: &Json, key: &str) -> f64 {
    line.get(key).and_then(Json::as_num).unwrap_or(f64::NAN)
}

/// Fold the children's results into one object of the same shape, metric
/// names prefixed with their workload, and store it as `out/result.json`.
fn combined(results: &[ChildResult], seed: u64) -> Json {
    let mut metrics = Vec::new();
    for r in results {
        if let Some(Json::Obj(pairs)) = r.line.get("metrics") {
            metrics.extend(pairs.iter().map(|(k, v)| (format!("{}/{k}", r.workload), v.clone())));
        }
    }
    let correct =
        results.iter().all(|r| r.line.get("correct").and_then(Json::as_bool) == Some(true));
    let sum = |key: &str| results.iter().map(|r| field(&r.line, key)).sum::<f64>();
    let doc = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(sum("attempted"))),
        ("failed", Json::num(sum("failed"))),
        ("metrics", Json::Obj(metrics)),
    ]);
    let mut stored = vec![("host".to_owned(), run::host_info(seed))];
    if let Json::Obj(pairs) = &doc {
        stored.extend(pairs.iter().cloned());
    }
    run::write_json("result.json", &Json::Obj(stored));
    doc
}

/// Compare two whole-benchmark runs of the same code: end-to-end metrics
/// within their bounds, exact metrics (simulated statistics and counts)
/// identical. Prints one row per metric; returns whether all agreed.
fn repeat_agrees(first: &[ChildResult], second: &[ChildResult]) -> bool {
    let specs: Vec<_> = spec::end_to_end().into_iter().chain(spec::per_layer()).collect();
    let mut agreed = true;
    println!("== check-repeat: two runs of the same code ==");
    println!(
        "  {:<14} {:<38} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "first", "second", "diff"
    );
    for (a, b) in first.iter().zip(second) {
        let (Some(Json::Obj(ma)), Some(mb)) = (a.line.get("metrics"), b.line.get("metrics")) else {
            println!("  {:<14} missing metrics", a.workload);
            agreed = false;
            continue;
        };
        for (name, va) in ma {
            let spec =
                specs.iter().find(|s| &s.name == name).expect("children report declared metrics");
            let x = field(va, "value");
            let y = mb.get(name).map_or(f64::NAN, |v| field(v, "value"));
            let diff = if x == y { 0.0 } else { (y - x).abs() / x.abs() };
            let verdict = match (spec.exact, spec.bound) {
                (true, _) if x == y => "identical",
                (true, _) => "DIFFERS",
                (false, Some(bound)) if diff <= bound => "within bound",
                (false, Some(_)) => "OUT OF BOUND",
                (false, None) => "-",
            };
            agreed &= !matches!(verdict, "DIFFERS" | "OUT OF BOUND");
            println!(
                "  {:<14} {:<38} {x:>16.6} {y:>16.6} {:>8.2}%  {verdict}",
                a.workload,
                name,
                diff * 100.0
            );
        }
    }
    agreed
}

fn main() -> ExitCode {
    let started = Instant::now();
    run::scrub_environment();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("spec") if argv.len() == 1 => {
            print!("{}", spec::document_text());
            ExitCode::SUCCESS
        }
        Some("run") => {
            let args = match parse_args(&argv[1..]) {
                Ok(args) => args,
                Err(e) => {
                    eprintln!("benchmark: {e}\n{USAGE}");
                    return ExitCode::from(2);
                }
            };
            if let Some(workload) = &args.workload {
                return run_here(workload, &args, started);
            }
            let outcome = run_children(&args).and_then(|first| {
                let repeat_ok = if args.check_repeat {
                    let second = run_children(&args)?;
                    repeat_agrees(&first, &second)
                } else {
                    true
                };
                Ok((combined(&first, args.seed), repeat_ok))
            });
            match outcome {
                Ok((doc, repeat_ok)) => {
                    println!("{}", doc.to_json());
                    let correct = doc.get("correct").and_then(Json::as_bool) == Some(true);
                    if correct && repeat_ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::FAILURE
                    }
                }
                Err(e) => {
                    eprintln!("benchmark: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let a = args(&["--workload", "mem4c", "--seed", "7", "--seconds", "15", "--trace", "1"])
            .unwrap();
        assert_eq!(a.workload.as_deref(), Some("mem4c"));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 15, Some(true)));
    }

    #[test]
    fn defaults_run_everything_at_the_declared_length() {
        let a = args(&[]).unwrap();
        assert_eq!(
            a,
            Args {
                workload: None,
                seed: 0,
                seconds: spec::RUN_SECONDS,
                trace: None,
                check_repeat: false
            }
        );
        assert_eq!(args(&["--traced"]).unwrap().trace, Some(true));
    }

    #[test]
    fn bad_arguments_are_errors_not_panics() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--seed", "x"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }
}
