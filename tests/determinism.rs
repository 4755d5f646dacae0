//! Bit-exact reproducibility across the whole stack.
//!
//! Everything in the simulator is seeded and ordered: two identical runs
//! must produce identical statistics, or experiments are not comparable.

use dbp_repro::cpu::TraceSource;
use dbp_repro::dbp::policy::PolicyKind;
use dbp_repro::sim::{runner, RunResult, SchedulerKind, SimConfig};
use dbp_repro::workloads::{mixes_4core, profiles, SyntheticTrace};

fn run_once(policy: PolicyKind, sched: SchedulerKind) -> RunResult {
    let mut cfg = SimConfig::fast_test();
    cfg.warmup_instructions = 20_000;
    cfg.target_instructions = 50_000;
    cfg.policy = policy;
    cfg.scheduler = sched;
    runner::run_shared(&cfg, &mixes_4core()[5])
}

#[test]
fn identical_runs_are_bit_exact_shared() {
    let a = run_once(PolicyKind::Unpartitioned, SchedulerKind::FrFcfs);
    let b = run_once(PolicyKind::Unpartitioned, SchedulerKind::FrFcfs);
    assert_eq!(a, b);
}

#[test]
fn identical_runs_are_bit_exact_dbp() {
    let a = run_once(PolicyKind::Dbp(Default::default()), SchedulerKind::FrFcfs);
    let b = run_once(PolicyKind::Dbp(Default::default()), SchedulerKind::FrFcfs);
    assert_eq!(a, b, "DBP runs (including migrations) must be deterministic");
}

#[test]
fn identical_runs_are_bit_exact_tcm_mcp() {
    let a = run_once(PolicyKind::Mcp(Default::default()), SchedulerKind::Tcm(Default::default()));
    let b = run_once(PolicyKind::Mcp(Default::default()), SchedulerKind::Tcm(Default::default()));
    assert_eq!(a, b);
}

#[test]
fn different_policies_actually_differ() {
    let a = run_once(PolicyKind::Unpartitioned, SchedulerKind::FrFcfs);
    let b = run_once(PolicyKind::Equal, SchedulerKind::FrFcfs);
    assert_ne!(a, b, "policies must change observable behaviour");
}

/// The structural equality above could in principle pass while a rendered
/// report differs (e.g. via a non-deterministic Debug impl); pin the
/// byte-level rendering too, since reports are what humans diff.
#[test]
fn same_seed_reports_are_byte_identical() {
    let a = run_once(PolicyKind::Dbp(Default::default()), SchedulerKind::FrFcfs);
    let b = run_once(PolicyKind::Dbp(Default::default()), SchedulerKind::FrFcfs);
    assert_eq!(
        format!("{a:#?}").into_bytes(),
        format!("{b:#?}").into_bytes(),
        "rendered reports must match byte for byte"
    );
}

/// Telemetry must observe, never perturb: a run with an enabled recorder
/// attached is byte-identical to the same run without one. This is the
/// contract that lets `--trace-out` be used on real experiments without
/// invalidating them.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    use dbp_repro::obs::{Prof, Recorder, RecorderConfig};

    let mut cfg = SimConfig::fast_test();
    cfg.warmup_instructions = 20_000;
    cfg.target_instructions = 50_000;
    cfg.policy = PolicyKind::Dbp(Default::default());
    let mix = &mixes_4core()[5];

    let silent = runner::run_shared(&cfg, mix);
    let rec = Recorder::new(RecorderConfig::default());
    let recorded = runner::run_shared_instrumented(&cfg, mix, rec.clone(), Prof::disabled());

    assert_eq!(silent, recorded, "an enabled recorder must not change the run");
    let t = rec.snapshot();
    assert!(!t.events.is_empty(), "the recorder must actually have observed events");
    assert!(!t.series.is_empty(), "the recorder must have sampled epoch metrics");
}

/// Self-profiling must observe, never perturb: a run with an enabled
/// host profiler is byte-identical to the same run without one, and the
/// profile it produces survives a JSON round-trip (exact-sum included)
/// while a future-major document is rejected. This is the contract that
/// lets `--profile-out` ride along on real experiments.
#[test]
fn profiling_does_not_perturb_the_simulation() {
    use dbp_repro::obs::{export, Prof, Profile, Recorder};

    let mut cfg = SimConfig::fast_test();
    cfg.warmup_instructions = 20_000;
    cfg.target_instructions = 50_000;
    cfg.policy = PolicyKind::Dbp(Default::default());
    let mix = &mixes_4core()[5];

    let silent = runner::run_shared(&cfg, mix);
    let prof = Prof::enabled();
    let profiled = runner::run_shared_instrumented(&cfg, mix, Recorder::disabled(), prof.clone());
    assert_eq!(silent, profiled, "an enabled profiler must not change the run");
    assert_eq!(
        format!("{silent:#?}").into_bytes(),
        format!("{profiled:#?}").into_bytes(),
        "rendered reports must match byte for byte"
    );

    // The profile itself: non-empty, exact-sum (asserted inside
    // snapshot), and stable through the export document.
    let profile = prof.snapshot();
    assert!(!profile.is_empty(), "the profiler must actually have observed spans");
    let doc = export::profile_document(
        &profile,
        dbp_repro::obs::Json::obj([("mix", dbp_repro::obs::Json::str(mix.name))]),
    );
    let text = doc.to_json();
    let parsed = dbp_repro::obs::json::parse(&text).expect("profile document must be valid JSON");
    export::check_schema_version(&parsed).expect("own schema version must be accepted");
    let back = Profile::from_json(&parsed).expect("profile must round-trip");
    assert_eq!(profile, back, "span tree and counters must survive the round-trip");

    // A document stamped with a future major schema must be rejected.
    let future = text.replacen(
        &format!("\"schema_version\":\"{}\"", export::SCHEMA_VERSION),
        "\"schema_version\":\"99.0\"",
        1,
    );
    assert_ne!(future, text, "replacement must have found the version stamp");
    let parsed = dbp_repro::obs::json::parse(&future).unwrap();
    assert!(
        export::check_schema_version(&parsed).is_err(),
        "a future-major document must be rejected, not misread"
    );
}

/// The in-tree xoshiro256++ PRNG must actually respond to its seed: the
/// same (profile, seed) pair replays an identical op stream, while a
/// different seed diverges.
#[test]
fn changing_the_trace_seed_changes_the_trace() {
    let stream = |seed: u64| {
        let mut t = SyntheticTrace::new(profiles::by_name("mcf"), seed);
        (0..4096).map(|_| t.next_op()).collect::<Vec<_>>()
    };
    let base = stream(7);
    assert_eq!(base, stream(7), "same seed must replay the same ops");
    assert_ne!(base, stream(8), "a changed seed must produce a different trace");
}
