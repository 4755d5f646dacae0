//! End-to-end tests of the `dbpsim` command-line interface.

use std::process::Command;

fn dbpsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dbpsim"))
}

#[test]
fn help_prints_usage() {
    let out = dbpsim().arg("help").output().expect("spawn dbpsim");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("usage: dbpsim"));
    assert!(text.contains("--policy"));
    // The two literal name lists in the help are the enums' own tables.
    let policies = dbp_repro::dbp::policy::PolicyKind::named().map(|(name, _)| name).join(" | ");
    assert!(text.contains(&format!("{policies} (default dbp)")), "{policies}\n{text}");
    let schedulers = dbp_repro::sim::SchedulerKind::named().map(|(name, _)| name).join(" | ");
    assert!(text.contains(&format!("{schedulers} (default frfcfs)")), "{schedulers}\n{text}");
}

#[test]
fn list_names_mixes_and_benchmarks() {
    let out = dbpsim().arg("list").output().expect("spawn dbpsim");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("mix100-1"));
    assert!(text.contains("libquantum"));
}

#[test]
fn run_ad_hoc_mix_reports_metrics() {
    let out = dbpsim()
        .args([
            "run",
            "--bench",
            "povray,gobmk",
            "--instructions",
            "30000",
            "--warmup",
            "10000",
            "--policy",
            "equal",
        ])
        .output()
        .expect("spawn dbpsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("weighted speedup"));
    assert!(text.contains("povray"));
}

#[test]
fn csv_mode_emits_csv() {
    let out = dbpsim()
        .args(["run", "--bench", "povray", "--instructions", "20000", "--warmup", "5000", "--csv"])
        .output()
        .expect("spawn dbpsim");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("thread,benchmark,IPC"));
}

#[test]
fn telemetry_exports_are_valid_json() {
    let dir = std::env::temp_dir().join(format!("dbpsim-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("trace.json");
    let report = dir.join("report.json");

    let out = dbpsim()
        .args([
            "run",
            "--bench",
            "mcf,povray",
            "--instructions",
            "30000",
            "--warmup",
            "10000",
            "--epoch",
            "20000",
            "--policy",
            "dbp",
        ])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--report-out")
        .arg(&report)
        .output()
        .expect("spawn dbpsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let load = |path: &std::path::Path| {
        dbp_repro::obs::json::parse(&std::fs::read_to_string(path).expect("export written"))
            .expect("export must be valid JSON")
    };
    let rows = load(&trace);
    let rows = rows.req_arr("traceEvents").expect("traceEvents array");
    assert!(rows.len() > 2, "expected events beyond the metadata rows");

    // One document carries every section the run recorded.
    let doc = load(&report);
    assert!(doc.get("schema_version").is_some() && doc.get("summary").is_some());
    let epochs = doc.req_arr("epochs").expect("epochs array");
    assert!(!epochs.is_empty(), "expected at least one sampled epoch");
    assert_eq!(epochs[0].req_arr("threads").map(<[_]>::len), Ok(2), "samples for both cores");
    let section =
        |name: &str, list: &str| doc.req(name).and_then(|s| s.req_arr(list)).map(<[_]>::len);
    assert_eq!(section("latency", "cores"), Ok(2));
    assert_eq!(section("audit", "shadows"), Ok(3));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_options_fail_cleanly() {
    for args in [
        vec!["run"],                      // missing mix
        vec!["run", "--mix", "nope"],     // unknown mix
        vec!["run", "--bench", "quake3"], // unknown benchmark
        vec!["run", "--policy", "best"],  // unknown policy
        vec!["frobnicate"],               // unknown command
    ] {
        let out = dbpsim().args(&args).output().expect("spawn dbpsim");
        assert!(!out.status.success(), "{args:?} should fail");
        assert!(!out.stderr.is_empty());
    }
}

/// 4 channels x 64 banks is more page colors than a partition can name:
/// a configuration error on stderr, not a panic.
#[test]
fn too_many_colors_is_an_error_not_a_panic() {
    let out = dbpsim()
        .args(["run", "--bench", "mcf,lbm", "--channels", "4", "--banks", "64"])
        .output()
        .expect("spawn dbpsim");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.lines().any(|l| l.starts_with("error:") && l.contains("colors")), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// Every option the help marks "run:" does nothing for `compare` or
/// `list`, so giving it there is a usage error that names it; an unknown
/// command is still reported as that.
#[test]
fn run_only_options_are_refused_by_other_commands() {
    let help = dbpsim().arg("help").output().expect("spawn dbpsim").stdout;
    let help = String::from_utf8_lossy(&help);
    let marked: Vec<&str> = help
        .lines()
        .filter(|l| l.contains("  run: "))
        .map(|l| l.split_whitespace().next().expect("option name"))
        .collect();
    assert_eq!(marked, ["--trace-out", "--report-out", "--profile-out", "--trace-plan"]);
    for option in marked {
        for cmd in [vec!["compare", "--mix", "mix50-1"], vec!["list"], vec!["bogus"]] {
            let value = (option != "--trace-plan").then_some("r.json");
            let out = dbpsim().args(&cmd).arg(option).args(value).output().expect("spawn dbpsim");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success() && out.stdout.is_empty(), "{cmd:?} {option}: {err}");
            let names = if cmd[0] == "bogus" { "unknown command" } else { option };
            assert!(err.contains(names), "{cmd:?} {option} must say {names}: {err}");
        }
    }
}
