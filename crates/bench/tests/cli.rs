//! End-to-end tests of the `bench_all` command line.

use std::process::{Command, Output};

fn bench_all(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench_all")).args(args).output().expect("spawn bench_all")
}

#[test]
fn a_single_name_prints_that_experiment_only() {
    let out = bench_all(&["--quick", "table3_mixes"]);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.starts_with("== Table 3: multiprogrammed workload mixes ==\n\n"), "{text}");
    assert_eq!(text.matches("\n== ").count(), 0, "exactly one banner:\n{text}");
    assert!(text.contains("mix100-1"));
}

#[test]
fn an_unknown_name_is_a_usage_error_listing_the_registry() {
    let out = bench_all(&["--quick", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run before the names are checked");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("`nope`") && err.contains("fig4_ws_dbp"), "{err}");
}

#[test]
fn help_exits_zero_and_lists_exactly_the_four_options() {
    let out = bench_all(&["--help"]);
    assert_eq!(out.status.code(), Some(0));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("[NAME ...]"), "{text}");
    let listed: Vec<&str> = text
        .lines()
        .filter_map(|l| l.trim_start().split(' ').next())
        .filter(|w| w.starts_with("--") && *w != "--help")
        .collect();
    assert_eq!(listed, ["--quick", "--stepped", "--json", "--profile-out"], "{text}");
}

#[test]
fn the_removed_perf_gate_options_are_unknown() {
    let out = bench_all(&["--baseline", "x"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing may run on a usage error");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--baseline"));
}
