//! `dbpsim` — command-line front-end for the DBP simulator.
//!
//! ```console
//! $ dbpsim list                                 # available mixes & benchmarks
//! $ dbpsim run --mix mix50-1 --policy dbp       # one measurement
//! $ dbpsim run --mix mix100-1 --policy dbp --scheduler tcm --csv
//! $ dbpsim run --bench mcf,libquantum --policy equal --instructions 500000
//! $ dbpsim compare --mix mix75-1                # all policies side by side
//! ```
//!
//! `dbpsim help` (or `--help`) prints the full grammar.

use std::process::ExitCode;

use dbp_repro::dbp::policy::PolicyKind;
use dbp_repro::obs::cli::{Arg, CliSpec, Parsed};
use dbp_repro::obs::{export, Json, Prof, Recorder, RecorderConfig, Table};
use dbp_repro::sim::report::{f3, run_result_json};
use dbp_repro::sim::{runner, SchedulerKind, SimConfig};
use dbp_repro::workloads::{mixes_4core, profiles, Mix};

const SPEC: CliSpec = CliSpec {
    bin: "dbpsim",
    about: "Dynamic Bank Partitioning simulator (HPCA 2014 reproduction)",
    positional: "<command>  list (mixes and benchmarks) | run (one mix, one configuration) | \
                 compare (one mix, every policy) | help",
    args: &[
        Arg::opt("--mix", "name", "a predefined mix (see `dbpsim list`)"),
        Arg::opt("--bench", "a,b,...", "ad-hoc mix from benchmark names (alternative to --mix)"),
        Arg::opt("--policy", "p", "shared | equal | dbp | mcp (default dbp)"),
        Arg::opt(
            "--scheduler",
            "s",
            "fcfs | frfcfs | frfcfs-cap | parbs | atlas | bliss | tcm (default frfcfs)",
        ),
        Arg::opt("--instructions", "n", "measured instructions per thread (default 1000000)"),
        Arg::opt("--warmup", "n", "warmup instructions per thread (default 500000)"),
        Arg::opt("--channels", "n", "DRAM channels, a power of two (default 2)"),
        Arg::opt("--banks", "n", "banks per rank, a power of two (default 8)"),
        Arg::opt("--epoch", "cycles", "repartitioning epoch in CPU cycles (default 1000000)"),
        Arg::flag("--csv", "emit CSV instead of an aligned table"),
        Arg::opt("--trace-out", "file", "run: Chrome trace_event JSON of the shared run"),
        Arg::opt("--report-out", "file", "run: epochs, events, latency anatomy and audit as JSON"),
        Arg::opt("--profile-out", "file", "run: host self-profile (spans + work counters) as JSON"),
        Arg::flag("--trace-plan", "run: pretty-print each epoch's profiles and plan to stderr"),
    ],
};

/// Look `s` up in an enum's `named()` table; the error lists the names.
fn lookup<T: Copy>(what: &str, table: &[(&'static str, T)], s: &str) -> Result<T, String> {
    table.iter().find(|(name, _)| *name == s).map(|&(_, kind)| kind).ok_or_else(|| {
        let names: Vec<&str> = table.iter().map(|(name, _)| *name).collect();
        format!("unknown {what} {s:?} ({})", names.join("|"))
    })
}

fn parse_policy(s: &str) -> Result<PolicyKind, String> {
    match s {
        "none" => Ok(PolicyKind::Unpartitioned),
        _ => lookup("policy", &PolicyKind::named(), s),
    }
}

fn parse_scheduler(s: &str) -> Result<SchedulerKind, String> {
    lookup("scheduler", &SchedulerKind::named(), s)
}

/// The options only `run` reads (their help says "run:"); any other
/// command given one would otherwise succeed and write nothing.
const RUN_ONLY: [&str; 4] = ["--trace-out", "--report-out", "--profile-out", "--trace-plan"];

#[derive(Debug)]
struct Options {
    mix: Option<String>,
    bench: Option<String>,
    policy: PolicyKind,
    scheduler: SchedulerKind,
    instructions: u64,
    warmup: u64,
    channels: u32,
    banks: u32,
    epoch: u64,
    csv: bool,
    trace_out: Option<String>,
    report_out: Option<String>,
    profile_out: Option<String>,
    trace_plan: bool,
}

/// A numeric option's value, or `default` when it was not given.
fn number<T>(parsed: &Parsed, name: &str, default: T) -> Result<T, String>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    parsed.option(name).map_or(Ok(default), |v| v.parse().map_err(|e| format!("{name}: {e}")))
}

fn parse_options(parsed: &Parsed) -> Result<Options, String> {
    let text = |name: &str| parsed.option(name).map(str::to_owned);
    Ok(Options {
        mix: text("--mix"),
        bench: text("--bench"),
        policy: parsed
            .option("--policy")
            .map_or(Ok(PolicyKind::Dbp(Default::default())), parse_policy)?,
        scheduler: parsed
            .option("--scheduler")
            .map_or(Ok(SchedulerKind::FrFcfs), parse_scheduler)?,
        instructions: number(parsed, "--instructions", 1_000_000)?,
        warmup: number(parsed, "--warmup", 500_000)?,
        channels: number(parsed, "--channels", 2)?,
        banks: number(parsed, "--banks", 8)?,
        epoch: number(parsed, "--epoch", 1_000_000)?,
        csv: parsed.flag("--csv"),
        trace_out: text("--trace-out"),
        report_out: text("--report-out"),
        profile_out: text("--profile-out"),
        trace_plan: parsed.flag("--trace-plan"),
    })
}

fn resolve_mix(opts: &Options) -> Result<Mix, String> {
    match (&opts.mix, &opts.bench) {
        (Some(name), None) => mixes_4core()
            .into_iter()
            .find(|m| m.name == name.as_str())
            .ok_or_else(|| format!("unknown mix {name:?}; see `dbpsim list`")),
        (None, Some(list)) => {
            let benchmarks: Vec<&'static str> = list
                .split(',')
                .map(|n| {
                    profiles::PROFILES
                        .iter()
                        .find(|p| p.name == n.trim())
                        .map(|p| p.name)
                        .ok_or_else(|| format!("unknown benchmark {n:?}; see `dbpsim list`"))
                })
                .collect::<Result<_, _>>()?;
            if benchmarks.is_empty() {
                return Err("--bench needs at least one benchmark".into());
            }
            Ok(Mix { name: "custom", intensive_pct: 0, benchmarks })
        }
        (Some(_), Some(_)) => Err("--mix and --bench are mutually exclusive".into()),
        (None, None) => Err("one of --mix or --bench is required".into()),
    }
}

fn config_for(opts: &Options) -> Result<SimConfig, String> {
    let mut cfg = SimConfig {
        policy: opts.policy,
        scheduler: opts.scheduler,
        target_instructions: opts.instructions,
        warmup_instructions: opts.warmup,
        epoch_cpu_cycles: opts.epoch,
        ..Default::default()
    };
    cfg.dram.channels = opts.channels;
    cfg.dram.banks_per_rank = opts.banks;
    // Instruction feeding must be at least as frequent as epochs.
    cfg.instr_feed_interval = cfg.instr_feed_interval.min(opts.epoch);
    cfg.validate()?;
    Ok(cfg)
}

fn result_table(mix: &Mix, run: &runner::MixRun) -> Table {
    let mut t =
        Table::new(["thread", "benchmark", "IPC", "alone", "slowdown", "MPKI", "RBL", "BLP"]);
    for (i, name) in mix.benchmarks.iter().enumerate() {
        let th = &run.shared.threads[i];
        t.row([
            i.to_string(),
            (*name).to_owned(),
            f3(th.ipc),
            f3(run.alone_ipcs[i]),
            f3(1.0 / run.metrics.speedups[i]),
            format!("{:.1}", th.mpki),
            format!("{:.2}", th.rbl),
            format!("{:.2}", th.blp),
        ]);
    }
    t
}

fn cmd_list() {
    println!("mixes:");
    for m in mixes_4core() {
        println!(
            "  {:<10} ({:>3}% intensive)  {}",
            m.name,
            m.intensive_pct,
            m.benchmarks.join(", ")
        );
    }
    println!("\nbenchmarks:");
    for p in profiles::PROFILES {
        println!(
            "  {:<12} {:?}  MPKI {:>5.1}  RBL {:.2}  BLP {:.1}",
            p.name,
            p.class(),
            p.mpki,
            p.rbl,
            p.blp
        );
    }
}

fn cmd_run(opts: &Options) -> Result<(), String> {
    let mix = resolve_mix(opts)?;
    let cfg = config_for(opts)?;
    eprintln!(
        "running {} [{}] under {} / {} ...",
        mix.name,
        mix.benchmarks.join(", "),
        cfg.scheduler.label(),
        cfg.policy.label(),
    );
    let telemetry_wanted = opts.trace_out.is_some() || opts.report_out.is_some() || opts.trace_plan;
    let rec = if telemetry_wanted {
        Recorder::new(RecorderConfig {
            audit: opts.report_out.is_some(),
            stderr_echo: opts.trace_plan,
        })
    } else {
        Recorder::disabled()
    };
    let prof = if opts.profile_out.is_some() { Prof::enabled() } else { Prof::disabled() };
    // Alone runs are calibration, not the experiment: only the shared run
    // is observed, so a profile measures its host cost alone.
    let alone = runner::alone_ipcs(&cfg, &mix);
    let shared = runner::Cell::shared(&cfg, &mix).run(rec.clone(), prof.clone());
    let run = runner::MixRun::from_parts(&mix, alone, shared);
    if telemetry_wanted {
        write_telemetry(opts, &cfg, &mix, &run, &rec)?;
    }
    if let Some(path) = &opts.profile_out {
        let profile = prof.snapshot();
        let summary = Json::obj([
            ("source", Json::str("dbpsim run")),
            ("mix", Json::str(mix.name)),
            ("policy", Json::str(cfg.policy.label())),
            ("scheduler", Json::str(cfg.scheduler.label())),
        ]);
        let doc = export::profile_document(&profile, summary);
        std::fs::write(path, doc.to_json()).map_err(|e| format!("--profile-out {path}: {e}"))?;
        eprintln!(
            "wrote self-profile ({} root span(s), {} counter(s)) to {path} \
             (render with `dbpreport {path}`)",
            profile.spans.len(),
            profile.counters.len()
        );
    }
    let t = result_table(&mix, &run);
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
    }
    println!(
        "weighted speedup {:.3} | harmonic speedup {:.3} | maximum slowdown {:.3} | row hits {:.1}%",
        run.metrics.weighted_speedup,
        run.metrics.harmonic_speedup,
        run.metrics.max_slowdown,
        run.shared.row_hit_rate * 100.0
    );
    Ok(())
}

fn write_telemetry(
    opts: &Options,
    cfg: &SimConfig,
    mix: &Mix,
    run: &runner::MixRun,
    rec: &Recorder,
) -> Result<(), String> {
    let telemetry = rec.snapshot();
    if let Some(path) = &opts.trace_out {
        let doc = export::chrome_trace(&telemetry);
        std::fs::write(path, doc.to_json()).map_err(|e| format!("--trace-out {path}: {e}"))?;
        eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
    }
    if let Some(path) = &opts.report_out {
        let summary = Json::obj([
            ("mix", Json::str(mix.name)),
            ("benchmarks", Json::arr(mix.benchmarks.iter().map(|b| Json::str(*b)))),
            ("policy", Json::str(cfg.policy.label())),
            ("scheduler", Json::str(cfg.scheduler.label())),
            ("weighted_speedup", Json::num(run.metrics.weighted_speedup)),
            ("harmonic_speedup", Json::num(run.metrics.harmonic_speedup)),
            ("max_slowdown", Json::num(run.metrics.max_slowdown)),
            ("run", run_result_json(&run.shared)),
        ]);
        let doc = export::run_document(&telemetry, summary);
        std::fs::write(path, doc.to_json()).map_err(|e| format!("--report-out {path}: {e}"))?;
        eprintln!(
            "wrote run report ({} epochs, {} events) to {path} (render with `dbpreport {path}`)",
            telemetry.series.len(),
            telemetry.events.len()
        );
    }
    Ok(())
}

fn cmd_compare(opts: &Options) -> Result<(), String> {
    let mix = resolve_mix(opts)?;
    let cfg = config_for(opts)?;
    let alone = runner::alone_ipcs(&cfg, &mix);
    let mut t = Table::new(["policy", "WS", "HS", "MS", "rowhit"]);
    for (_, policy) in PolicyKind::named() {
        let mut c = cfg.clone();
        c.policy = policy;
        let run = runner::run_mix_with_alone(&c, &mix, alone.clone());
        t.row([
            policy.label().to_owned(),
            f3(run.metrics.weighted_speedup),
            f3(run.metrics.harmonic_speedup),
            f3(run.metrics.max_slowdown),
            format!("{:.1}%", run.shared.row_hit_rate * 100.0),
        ]);
    }
    if opts.csv {
        print!("{}", t.to_csv());
    } else {
        println!("{t}");
    }
    Ok(())
}

fn main() -> ExitCode {
    let parsed = SPEC.parse_or_exit();
    let outcome = match parsed.files.as_slice() {
        [] => {
            eprint!("{}", SPEC.help());
            return ExitCode::FAILURE;
        }
        [cmd] => match (cmd.as_str(), RUN_ONLY.iter().find(|name| parsed.flag(name))) {
            ("run", _) => parse_options(&parsed).and_then(|o| cmd_run(&o)),
            ("help" | "list" | "compare", Some(name)) => {
                Err(format!("{name} applies to `run` only, not `{cmd}`"))
            }
            ("help", None) => {
                print!("{}", SPEC.help());
                Ok(())
            }
            ("list", None) => {
                cmd_list();
                Ok(())
            }
            ("compare", None) => parse_options(&parsed).and_then(|o| cmd_compare(&o)),
            (other, _) => Err(format!("unknown command {other:?}; try `dbpsim help`")),
        },
        [_, extra, ..] => Err(format!("unexpected argument {extra:?}; try `dbpsim help`")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
