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
    let metrics = dir.join("metrics.json");

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
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("spawn dbpsim");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let trace_doc =
        dbp_repro::obs::json::parse(&std::fs::read_to_string(&trace).expect("trace file written"))
            .expect("trace file must be valid JSON");
    let rows = trace_doc.get("traceEvents").and_then(|v| v.as_arr()).expect("traceEvents array");
    assert!(rows.len() > 2, "expected events beyond the metadata rows");

    let metrics_doc = dbp_repro::obs::json::parse(
        &std::fs::read_to_string(&metrics).expect("metrics file written"),
    )
    .expect("metrics file must be valid JSON");
    let epochs = metrics_doc.get("epochs").and_then(|v| v.as_arr()).expect("epochs array");
    assert!(!epochs.is_empty(), "expected at least one sampled epoch");
    assert!(metrics_doc.get("summary").is_some());
    assert!(
        epochs[0].get("threads").and_then(|v| v.as_arr()).is_some_and(|t| t.len() == 2),
        "per-thread samples for both cores"
    );

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
