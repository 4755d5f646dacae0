//! The benchmark's declaration: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! table rendered by `benchmark spec`; a unit test holds the two equal.

use dbp_obs::Json;

/// Seconds one run measures for (`BENCHMARK.json` `run_seconds`, and the
/// default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "mem4c",
        why: "memory-bound steady state (mix100-1, FR-FCFS+DBP): ~15% of cycles execute, memctrl+dram ~55% of host time, so controller/DRAM optimisations must show here",
    },
    WorkloadSpec {
        name: "calm4c",
        why: "bypasses the controller (mix0-1/mix0-2): ~94% of cycles skipped, run loop + skip calendar + Core::forward dominate; a memctrl/dram win should read no change here",
    },
    WorkloadSpec {
        name: "sched_matrix",
        why: "mix50-1 under all 7 schedulers x 4 policies: stateful schedulers behind Box<dyn Scheduler> and MCP page migration; a win specialised to FR-FCFS shows as a loss here",
    },
    WorkloadSpec {
        name: "scale16c",
        why: "16 cores on 4 channels (mix75-1 scaled, 64 banks): per-cycle cost linear in cores, multi-channel controller, a partition space four times Table 1's",
    },
    WorkloadSpec {
        name: "headline_grid",
        why: "what users run (Figures 4/5): 15 mixes x {equal-BP, DBP} + 60 alone runs on 2 worker threads; the only workload that sees the bench engine, and the one that yields the paper-accuracy numbers",
    },
];

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: share of the parent's median by which the metric
    /// may worsen before a change is rejected.
    pub bound: Option<f64>,
    /// Simulated or counted, so it repeats exactly for a given seed;
    /// `--check-repeat` demands equality instead of applying a bound.
    pub exact: bool,
}

fn m(name: &str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name: name.to_owned(), unit, better, bound: None, exact: false }
}

fn exact(name: &str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { exact: true, ..m(name, unit, better) }
}

/// What a user of the simulator sees. All host-side, all untraced.
///
/// Work per second, not seconds per pass: the work of a pass is fixed by
/// the seed, so the two say the same thing, but when the host slows by a
/// quarter a rate worsens by 25 % and a time by 33 %, and on a shared box
/// the bound has little room to spare. Seconds per pass are still printed.
pub fn end_to_end() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let bounded =
        |name, unit, better, bound| MetricSpec { bound: Some(bound), ..m(name, unit, better) };
    vec![
        bounded("sim_mcycles_per_s", "Mcycles/s", Higher, 0.25),
        bounded("sim_minstr_per_s", "Minstr/s", Higher, 0.25),
        bounded("setup_s", "s", Lower, 0.25),
    ]
}

/// Single-layer metrics, reported by the traced run. Layers are crates.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let mut v = vec![
        // Paper accuracy (simulated; `headline_grid` measures it, the
        // other workloads run no equal-BP baseline and report a gain of 0).
        exact("repro.err_ws_pp", "pp", Lower),
        exact("repro.err_ms_pp", "pp", Lower),
        exact("repro.ws_gain_pct", "%", Higher),
        exact("repro.ms_reduction_pct", "%", Higher),
        // sim
        exact("sim.cycles_total", "count", Lower),
        exact("sim.cycles_stepped", "count", Lower),
        exact("sim.skip_frac", "frac", Higher),
        m("sim.ns_per_executed_cycle", "ns", Lower),
        m("sim.loop_self_ns_per_100k", "ns/100kcyc", Lower),
        m("sim.cores_tick_ns_per_100k", "ns/100kcyc", Lower),
        m("sim.dram_tick_self_ns_per_100k", "ns/100kcyc", Lower),
        m("sim.policy_epoch_ns_per_epoch", "ns", Lower),
        m("sim.migration_feed_ns_per_100k", "ns/100kcyc", Lower),
        m("sim.construct_ns", "ns", Lower),
        m("sim.peak_rss_mb", "MB", Lower),
        // memctrl
        m("memctrl.tick_self_ns_per_100k", "ns/100kcyc", Lower),
        m("memctrl.sched_ns_per_100k", "ns/100kcyc", Lower),
        m("memctrl.issue_ns_per_100k", "ns/100kcyc", Lower),
        m("memctrl.skip_ns_per_100k", "ns/100kcyc", Lower),
        m("memctrl.ns_per_command", "ns", Lower),
        exact("memctrl.requests_enqueued", "count", Lower),
        exact("memctrl.commands_issued", "count", Lower),
        exact("memctrl.idle_tick_frac", "frac", Higher),
        exact("memctrl.blocked_tick_frac", "frac", Lower),
        exact("memctrl.row_hit_rate", "frac", Higher),
        exact("memctrl.avg_read_latency_cyc", "cycles", Lower),
        exact("memctrl.bus_utilisation", "frac", Higher),
    ];
    for (label, _) in crate::workloads::schedulers() {
        v.push(m(&format!("memctrl.drv_ns_per_tick.{label}"), "ns", Lower));
    }
    v.extend([
        m("memctrl.drv_ns_per_enqueue", "ns", Lower),
        m("memctrl.drv_ns_per_next_event", "ns", Lower),
        // dram
        exact("dram.timing_queries", "count", Lower),
        exact("dram.timing_queries_per_command", "ratio", Lower),
        exact("dram.accesses_per_activate", "ratio", Higher),
        m("dram.drv_ns_per_earliest_issue", "ns", Lower),
        m("dram.drv_ns_per_issue", "ns", Lower),
        // cpu, cache, workloads
        m("cpu.drv_ns_per_tick", "ns", Lower),
        m("cpu.drv_ns_per_forwarded_kcycle", "ns/kcyc", Lower),
        m("cache.drv_ns_per_access", "ns", Lower),
        exact("cache.l1_hit_rate", "frac", Higher),
        exact("cache.memory_miss_rate", "frac", Lower),
        m("workloads.drv_ns_per_op", "ns", Lower),
        // osmem, core
        m("osmem.drv_ns_per_translate_hit", "ns", Lower),
        m("osmem.drv_ns_per_first_touch", "ns", Lower),
        m("osmem.drv_ns_per_migrated_page", "ns", Lower),
        exact("osmem.migrated_pages", "count", Lower),
        exact("osmem.fallback_allocations", "count", Lower),
    ]);
    for policy in ["equal", "dbp", "mcp"] {
        v.push(m(&format!("core.drv_ns_per_partition.{policy}"), "ns", Lower));
    }
    v.extend([
        exact("core.repartitions", "count", Lower),
        // obs
        m("obs.prof_overhead_frac", "frac", Lower),
        m("obs.recorder_overhead_frac", "frac", Lower),
        m("obs.drv_json_mb_per_s", "MB/s", Higher),
        m("obs.layer_coverage_frac", "frac", Higher),
        // bench (zero on the single-threaded workloads, which bypass it)
        exact("bench.jobs", "count", Lower),
        exact("bench.solo_runs", "count", Lower),
        exact("bench.solo_cache_hit_rate", "frac", Higher),
        m("bench.pool_efficiency", "frac", Higher),
        m("bench.longest_job_s", "s", Lower),
        m("bench.drv_pool_ns_per_job", "ns", Lower),
    ]);
    v
}

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Lower => "lower",
        Better::Higher => "higher",
    }
}

/// The `BENCHMARK.json` document this table declares.
pub fn document() -> Json {
    let metric = |s: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::str(s.name.clone())),
            ("unit", Json::str(s.unit)),
            ("better", Json::str(better_str(s.better))),
        ];
        if let Some(b) = s.bound {
            pairs.push(("bound", Json::num(b)));
        }
        Json::obj(pairs)
    };
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Json::obj([
        ("command", Json::arr(command.map(Json::str))),
        ("paths", Json::arr([Json::str("benchmark")])),
        ("run_seconds", Json::uint(RUN_SECONDS)),
        (
            "workloads",
            Json::arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))])),
            ),
        ),
        ("end_to_end", Json::arr(end_to_end().iter().map(metric))),
        ("per_layer", Json::arr(per_layer().iter().map(metric))),
    ])
}

/// [`document`] pretty-printed one metric per line (stable, diffable).
pub fn document_text() -> String {
    let doc = document();
    let mut out = String::from("{\n");
    let Json::Obj(pairs) = &doc else { unreachable!("document is an object") };
    for (i, (key, value)) in pairs.iter().enumerate() {
        let last = i + 1 == pairs.len();
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  \"{key}\": [\n"));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 == items.len() { "" } else { "," };
                    out.push_str(&format!("    {}{comma}\n", item.to_json()));
                }
                out.push_str("  ]");
            }
            _ => out.push_str(&format!("  \"{key}\": {}", value.to_json())),
        }
        out.push_str(if last { "\n" } else { ",\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn is_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for w in WORKLOADS {
            assert!(is_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: why too long", w.name);
            assert!(seen.insert(w.name.to_owned()), "{} used twice", w.name);
        }
        for s in end_to_end().iter().chain(&per_layer()) {
            assert!(is_name(&s.name), "{}", s.name);
            assert!(is_unit(s.unit), "{}: unit {}", s.name, s.unit);
            assert!(seen.insert(s.name.clone()), "{} used twice", s.name);
        }
    }

    #[test]
    fn bounds_sit_on_end_to_end_metrics_only_and_setup_has_the_largest() {
        let e2e = end_to_end();
        assert!(e2e.iter().all(|s| matches!(s.bound, Some(b) if b > 0.0 && b <= 0.25)));
        assert!(per_layer().iter().all(|s| s.bound.is_none()));
        let setup = e2e.iter().find(|s| s.name == "setup_s").expect("setup_s declared");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(e2e.iter().all(|s| s.bound <= setup.bound));
        assert!(per_layer().len() <= 128 && e2e.len() <= 16);
    }

    #[test]
    fn benchmark_json_matches_this_table_exactly() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        // `assert!`, not `assert_eq!`: a mismatch should not dump both documents.
        let stale = "BENCHMARK.json is stale: regenerate it with `benchmark spec > BENCHMARK.json`";
        assert!(
            dbp_obs::json::parse(&text).expect("BENCHMARK.json parses") == document(),
            "{stale}"
        );
        assert!(text == document_text(), "{stale}");
    }
}
