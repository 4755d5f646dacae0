//! The traced run: per-layer metrics of one workload.
//!
//! Separate from the timed passes. One untraced pass gives the reference
//! wall time; one pass with `dbp_obs::Prof` enabled gives the
//! in-simulation split (read through the existing public
//! `System::with_instrumentation` / `Engine::attach_profiler` path, whose
//! snapshot asserts the exact-sum invariant); the layer drivers give the
//! isolated per-call costs. The benchmark's own [`Spans`] wrap every call
//! made into a layer along the way.

use dbp_obs::{Prof, ProfSpan, Profile};
use dbp_sim::metrics::gmean;

use crate::drivers;
use crate::spans::Spans;
use crate::workloads::{first_cell, run_pass, PassOut, Shape, Workload, GRID_WORKERS};

/// The paper's headline claims (abstract): DBP over equal-BP.
const PAPER_WS_GAIN_PCT: f64 = 4.3;
const PAPER_MS_REDUCTION_PCT: f64 = 16.0;

/// Aggregate of every profile node with one name, wherever it sits in
/// the tree (under `sim/warmup`, `sim/measure`, a `bench/shared_run`...).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Agg {
    total_ns: u64,
    self_ns: u64,
    count: u64,
    max_ns: u64,
}

fn agg(spans: &[ProfSpan], name: &str) -> Agg {
    let mut a = Agg::default();
    for s in spans {
        if s.name == name {
            a.total_ns += s.total_ns;
            a.self_ns += s.self_ns;
            a.count += s.count;
            a.max_ns = a.max_ns.max(s.max_ns);
        }
        let below = agg(&s.children, name);
        a.total_ns += below.total_ns;
        a.self_ns += below.self_ns;
        a.count += below.count;
        a.max_ns = a.max_ns.max(below.max_ns);
    }
    a
}

fn counter(p: &Profile, name: &str) -> u64 {
    p.counters.iter().find(|(n, _)| n == name).map_or(0, |&(_, v)| v)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// DBP-over-equal-BP gains of a `[mix][equal-BP, DBP]` grid, in percent:
/// (gmean weighted-speedup gain, gmean maximum-slowdown reduction), plus
/// the four gmeans themselves `[ws_equal, ws_dbp, ms_equal, ms_dbp]`.
pub fn headline_gains(out: &PassOut) -> Option<(f64, f64, [f64; 4])> {
    if out.grid.is_empty() {
        return None;
    }
    let series = |combo: usize, f: fn(&dbp_sim::runner::MixRun) -> f64| {
        gmean(&out.grid.iter().map(|row| f(&row[combo])).collect::<Vec<_>>())
    };
    let ws = [series(0, |r| r.weighted_speedup()), series(1, |r| r.weighted_speedup())];
    let ms = [series(0, |r| r.max_slowdown()), series(1, |r| r.max_slowdown())];
    Some((
        (ws[1] / ws[0] - 1.0) * 100.0,
        (1.0 - ms[1] / ms[0]) * 100.0,
        [ws[0], ws[1], ms[0], ms[1]],
    ))
}

/// Metrics read from the `Prof` snapshot and results of the traced pass.
fn from_profile(
    w: &Workload,
    p: &Profile,
    out: &PassOut,
    untraced_s: f64,
    traced_s: f64,
) -> Vec<(String, f64)> {
    let stepped = counter(p, "sim/cycles_stepped");
    let cycles = stepped + counter(p, "sim/cycles_skipped");
    let per_100k = |ns: u64| ratio(ns as f64 * 1e5, cycles as f64);
    // The controller ticks once per `cpu_per_dram` CPU cycles; its idle
    // and blocked counters are shares of the profiled runs' DRAM ticks.
    let dram_ticks = (cycles / first_cell(w).cfg.cpu_per_dram) as f64;
    let span = |name: &str| agg(&p.spans, name);

    let loop_self = span("sim/warmup").self_ns + span("sim/measure").self_ns;
    let epoch = span("sim/policy_epoch");
    let tick = span("memctrl/tick");
    let skip = span("memctrl/skip");
    let commands = counter(p, "memctrl/commands_issued");
    let queries = counter(p, "dram/timing_queries");

    let reads: u64 = out.runs.iter().flat_map(|r| &r.threads).map(|t| t.reads).sum();
    let latency: f64 =
        out.runs.iter().flat_map(|r| &r.threads).map(|t| t.avg_read_latency * t.reads as f64).sum();
    let mean = |f: fn(&dbp_sim::RunResult) -> f64| {
        ratio(out.runs.iter().map(f).sum(), out.runs.len() as f64)
    };
    let columns: u64 = out.runs.iter().map(|r| r.dram.reads + r.dram.writes).sum();
    let activates: u64 = out.runs.iter().map(|r| r.dram.activates).sum();

    let (ws_gain, ms_reduction) = headline_gains(out).map_or((0.0, 0.0), |(ws, ms, _)| (ws, ms));

    let shared_jobs = span("bench/shared_run");
    let solo_jobs = span("bench/solo_run");
    let solo_lookups = match &w.shape {
        Shape::Serial(_) => 0,
        Shape::Grid { mixes, .. } => mixes.iter().map(|m| m.cores() as u64).sum(),
    };

    let values = [
        ("repro.err_ws_pp", (ws_gain - PAPER_WS_GAIN_PCT).abs()),
        ("repro.err_ms_pp", (ms_reduction - PAPER_MS_REDUCTION_PCT).abs()),
        ("repro.ws_gain_pct", ws_gain),
        ("repro.ms_reduction_pct", ms_reduction),
        ("sim.cycles_total", cycles as f64),
        ("sim.cycles_stepped", stepped as f64),
        ("sim.skip_frac", ratio((cycles - stepped) as f64, cycles as f64)),
        ("sim.ns_per_executed_cycle", ratio(untraced_s * 1e9, stepped as f64)),
        ("sim.loop_self_ns_per_100k", per_100k(loop_self)),
        ("sim.cores_tick_ns_per_100k", per_100k(span("sim/cores_tick").total_ns)),
        ("sim.dram_tick_self_ns_per_100k", per_100k(span("sim/dram_tick").self_ns)),
        ("sim.policy_epoch_ns_per_epoch", ratio(epoch.total_ns as f64, epoch.count as f64)),
        ("sim.migration_feed_ns_per_100k", per_100k(span("sim/migration_feed").total_ns)),
        ("memctrl.tick_self_ns_per_100k", per_100k(tick.self_ns)),
        ("memctrl.sched_ns_per_100k", per_100k(span("memctrl/sched").total_ns)),
        ("memctrl.issue_ns_per_100k", per_100k(span("memctrl/issue").total_ns)),
        ("memctrl.skip_ns_per_100k", per_100k(skip.total_ns)),
        ("memctrl.ns_per_command", ratio((tick.total_ns + skip.total_ns) as f64, commands as f64)),
        ("memctrl.requests_enqueued", counter(p, "memctrl/requests_enqueued") as f64),
        ("memctrl.commands_issued", commands as f64),
        ("memctrl.idle_tick_frac", ratio(counter(p, "memctrl/idle_ticks") as f64, dram_ticks)),
        (
            "memctrl.blocked_tick_frac",
            ratio(counter(p, "memctrl/blocked_ticks") as f64, dram_ticks),
        ),
        ("memctrl.row_hit_rate", mean(|r| r.row_hit_rate)),
        ("memctrl.avg_read_latency_cyc", ratio(latency, reads as f64)),
        ("memctrl.bus_utilisation", mean(|r| r.bus_utilisation)),
        ("dram.timing_queries", queries as f64),
        ("dram.timing_queries_per_command", ratio(queries as f64, commands as f64)),
        ("dram.accesses_per_activate", ratio(columns as f64, activates as f64)),
        ("osmem.migrated_pages", out.runs.iter().map(|r| r.migrated_pages).sum::<u64>() as f64),
        (
            "osmem.fallback_allocations",
            out.runs.iter().map(|r| r.fallback_allocations).sum::<u64>() as f64,
        ),
        ("core.repartitions", out.runs.iter().map(|r| r.repartitions).sum::<u64>() as f64),
        ("obs.prof_overhead_frac", traced_s / untraced_s - 1.0),
        ("bench.jobs", (shared_jobs.count + solo_jobs.count) as f64),
        ("bench.solo_runs", solo_jobs.count as f64),
        (
            "bench.solo_cache_hit_rate",
            ratio(solo_lookups.saturating_sub(solo_jobs.count) as f64, solo_lookups as f64),
        ),
        (
            "bench.pool_efficiency",
            ratio(
                (shared_jobs.total_ns + solo_jobs.total_ns) as f64,
                GRID_WORKERS as f64 * traced_s * 1e9,
            ),
        ),
        ("bench.longest_job_s", shared_jobs.max_ns.max(solo_jobs.max_ns) as f64 / 1e9),
    ];
    values.into_iter().map(|(n, v)| (n.to_owned(), v)).collect()
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// Everything the traced run learned.
pub struct Traced {
    pub metrics: Vec<(String, f64)>,
    /// The untraced reference pass (for the fingerprint and checks).
    pub untraced: PassOut,
    /// The pass run with the profiler on.
    pub traced: PassOut,
    /// The `Prof` snapshot of the traced pass.
    pub profile: Profile,
    pub spans: Spans,
}

/// Run the traced measurement of `w`; `quick` is the same workload at
/// warm-pass length (the recorder-overhead run uses its first cell).
pub fn run(w: &Workload, quick: &Workload) -> Traced {
    let mut spans = Spans::new(w.name);

    let id = spans.open("untraced_pass");
    let untraced = run_pass(w, &Prof::disabled(), None);
    spans.close(id);
    let untraced_s = spans.duration_ns(id) as f64 / 1e9;

    let prof = Prof::enabled();
    let pass = spans.open("traced_pass");
    let traced = run_pass(w, &prof, Some(&mut spans));
    spans.close(pass);
    let traced_s = spans.duration_ns(pass) as f64 / 1e9;
    // Snapshot asserts self + children == total on every node.
    let profile = prof.snapshot();

    let mut metrics = from_profile(w, &profile, &traced, untraced_s, traced_s);
    // Read before the drivers run: they hold whole op streams in memory.
    metrics.push(("sim.peak_rss_mb".to_owned(), peak_rss_mb()));
    // Share of the traced pass spent inside spans around layer calls.
    let coverage = 1.0 - spans.self_ns(pass) as f64 / spans.duration_ns(pass) as f64;
    metrics.push(("obs.layer_coverage_frac".to_owned(), coverage));

    let id = spans.open("drivers");
    metrics.extend(drivers::run_all(&first_cell(w), &profile, &mut spans));
    let overhead = drivers::recorder_overhead(&first_cell(quick), &mut spans);
    metrics.push(("obs.recorder_overhead_frac".to_owned(), overhead));
    spans.close(id);

    Traced { metrics, untraced, traced, profile, spans }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(name: &str, ns: u64) -> ProfSpan {
        ProfSpan {
            name: name.into(),
            count: 1,
            total_ns: ns,
            self_ns: ns,
            max_ns: ns,
            children: vec![],
        }
    }

    #[test]
    fn agg_sums_a_name_across_every_parent() {
        let tree = vec![
            ProfSpan {
                name: "sim/warmup".into(),
                count: 1,
                total_ns: 50,
                self_ns: 20,
                max_ns: 50,
                children: vec![leaf("memctrl/skip", 30)],
            },
            ProfSpan {
                name: "sim/measure".into(),
                count: 1,
                total_ns: 90,
                self_ns: 20,
                max_ns: 90,
                children: vec![leaf("memctrl/skip", 70)],
            },
        ];
        assert_eq!(
            agg(&tree, "memctrl/skip"),
            Agg { total_ns: 100, self_ns: 100, count: 2, max_ns: 70 }
        );
        assert_eq!(agg(&tree, "sim/warmup").self_ns, 20);
        assert_eq!(agg(&tree, "absent"), Agg::default());
    }

    #[test]
    fn ratios_with_an_empty_denominator_read_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
