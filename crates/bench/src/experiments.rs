//! One function per table/figure of the (reconstructed) evaluation.
//!
//! Each takes the shared sweep [`Engine`] plus a configuration and
//! returns a [`Table`] whose rows are the series the paper plots; the
//! `bench_all` binary runs the registry ([`all`]) — whole, or the
//! entries named on its command line — in one process so the engine's
//! run memo is shared across experiments. See
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! recorded paper-vs-measured outcomes.
//!
//! Every simulation below — shared run, alone baseline, restricted
//! single-benchmark run — is a [`Cell`] handed to the engine, which runs
//! the distinct ones it has not seen as independent jobs on its worker
//! pool; results are collected by index, so the tables are
//! byte-identical whatever `DBP_JOBS` says. An experiment just names the
//! cells it reads: two that read the same ones simulate them once.

use dbp_core::policy::PolicyKind;
use dbp_core::{BankDemandEstimator, EstimatorConfig, ThreadMemProfile};
use dbp_obs::{AuditReport, LatencyReport, Prof, Recorder, RecorderConfig};
use dbp_osmem::MigrationMode;
use dbp_sim::metrics::gmean;
use dbp_sim::report::{f3, pct, Table};
use dbp_sim::runner::{run_shared_instrumented, Cell, MixRun};
use dbp_sim::{MigrationCost, SimConfig, ThreadResult};
use dbp_workloads::{mixes_4core, profiles, scale_mix, Mix};

use crate::engine::Engine;
use crate::harness::{self, Combo};

/// Representative mix subset used by the parameter sweeps (one or two
/// mixes per intensity category, to keep sweep runtimes tractable).
pub fn sweep_mixes() -> Vec<Mix> {
    let all = mixes_4core();
    [2, 5, 6, 9, 12, 13].into_iter().map(|i| all[i].clone()).collect()
}

/// Table 1: the simulated system configuration.
pub fn table1_config(_eng: &Engine, cfg: &SimConfig) -> Table {
    let mut t = Table::new(["parameter", "value"]);
    let d = &cfg.dram;
    t.row(["cores", &format!("{} OoO-window, {}-wide, ROB {}", 4, cfg.core.width, cfg.core.rob)]);
    t.row([
        "L1D",
        &format!(
            "{} KiB, {}-way, {} B lines, {} cyc",
            cfg.hierarchy.l1.size_bytes >> 10,
            cfg.hierarchy.l1.ways,
            cfg.hierarchy.l1.line_bytes,
            cfg.hierarchy.l1.latency
        ),
    ]);
    t.row([
        "L2 (private)",
        &format!(
            "{} KiB, {}-way, {} cyc",
            cfg.hierarchy.l2.size_bytes >> 10,
            cfg.hierarchy.l2.ways,
            cfg.hierarchy.l2.latency
        ),
    ]);
    t.row(["MSHRs", &cfg.mshrs.to_string()]);
    t.row([
        "DRAM",
        &format!("DDR3, CL-tRCD-tRP {}-{}-{}", d.timing.cl, d.timing.t_rcd, d.timing.t_rp),
    ]);
    t.row([
        "channels x ranks x banks",
        &format!(
            "{} x {} x {} = {} banks",
            d.channels,
            d.ranks_per_channel,
            d.banks_per_rank,
            d.total_banks()
        ),
    ]);
    t.row(["row buffer", &format!("{} KiB", d.row_bytes >> 10)]);
    t.row(["CPU:DRAM clock ratio", &format!("{}:1", cfg.cpu_per_dram)]);
    t.row([
        "read/write queue",
        &format!("{}/{} per channel", cfg.ctrl.read_q_cap, cfg.ctrl.write_q_cap),
    ]);
    t.row(["page size", &format!("{} KiB", d.page_bytes >> 10)]);
    t.row(["colors", &format!("{}", d.total_banks())]);
    t.row(["repartition epoch", &format!("{} CPU cycles", cfg.epoch_cpu_cycles)]);
    t.row([
        "migration",
        &format!("{:?}, budget {:?} pages/epoch", cfg.migration_mode, cfg.migration_budget_pages),
    ]);
    t.row([
        "warmup / measured instructions",
        &format!("{} / {}", cfg.warmup_instructions, cfg.target_instructions),
    ]);
    t
}

/// The single-benchmark runs of Table 2 and Figures 2–3: `benchmark` by
/// itself on `cfg` restricted to its first `units` bank units (`None`:
/// the whole unpartitioned machine), all on one calibration trace seed —
/// so the runs the three experiments have in common are the same cells.
fn single_runs(
    eng: &Engine,
    cfg: &SimConfig,
    jobs: impl IntoIterator<Item = (&'static str, Option<u32>)>,
) -> Vec<ThreadResult> {
    let cells: Vec<Cell> = jobs
        .into_iter()
        .map(|(benchmark, units)| {
            let policy = units.map_or(PolicyKind::Unpartitioned, PolicyKind::RestrictFirst);
            Cell { cfg: SimConfig { policy, ..cfg.clone() }, threads: vec![(benchmark, 42)] }
        })
        .collect();
    eng.run_cells(&cells).iter().map(|run| run.threads[0]).collect()
}

/// Table 2: benchmark characteristics — calibration targets vs values
/// measured running each benchmark alone.
pub fn table2_benchmarks(eng: &Engine, cfg: &SimConfig) -> Table {
    let mut t =
        Table::new(["benchmark", "class", "MPKI*", "MPKI", "RBL*", "RBL", "BLP*", "BLP", "IPC"]);
    let measured = single_runs(eng, cfg, profiles::PROFILES.iter().map(|p| (p.name, None)));
    for (p, th) in profiles::PROFILES.iter().zip(&measured) {
        t.row([
            p.name.to_owned(),
            format!("{:?}", p.class()),
            format!("{:.1}", p.mpki),
            format!("{:.1}", th.mpki),
            format!("{:.2}", p.rbl),
            format!("{:.2}", th.rbl),
            format!("{:.1}", p.blp),
            format!("{:.1}", th.blp),
            format!("{:.3}", th.ipc),
        ]);
    }
    t
}

/// Table 3: the workload mixes.
pub fn table3_mixes() -> Table {
    let mut t = Table::new(["mix", "intensive", "benchmarks"]);
    for m in mixes_4core() {
        t.row([m.name.to_owned(), format!("{}%", m.intensive_pct), m.benchmarks.join(", ")]);
    }
    t
}

/// Figure 1 (motivation): two applications co-running on a shared memory
/// system slow each other down far beyond their bandwidth shares.
pub fn fig1_motivation(eng: &Engine, cfg: &SimConfig) -> Table {
    let mix = Mix { name: "motivation", intensive_pct: 100, benchmarks: vec!["libquantum", "mcf"] };
    let run =
        eng.run_grid(cfg, std::slice::from_ref(&mix), &[harness::shared()]).remove(0).remove(0);
    let mut t = Table::new(["benchmark", "IPC alone", "IPC shared", "slowdown"]);
    for (i, name) in mix.benchmarks.iter().enumerate() {
        t.row([
            (*name).to_owned(),
            f3(run.alone_ipcs[i]),
            f3(run.shared.threads[i].ipc),
            f3(1.0 / run.metrics.speedups[i]),
        ]);
    }
    t
}

/// Figure 2: restricting a high-BLP benchmark to fewer banks destroys its
/// performance — the cost of *equal* bank partitioning.
pub fn fig2_equal_blp_loss(eng: &Engine, cfg: &SimConfig) -> Table {
    let mut t = Table::new(["benchmark", "bank units", "banks", "IPC", "BLP", "vs all-banks"]);
    let units = cfg.dram.banks_per_rank; // a unit spans all channels/ranks
    let names = ["mcf", "GemsFDTD", "libquantum"];
    let budgets = [1u32, 2, 4, units];
    let jobs = names.iter().flat_map(|&n| budgets.into_iter().map(move |k| (n, Some(k))));
    let runs = single_runs(eng, cfg, jobs);
    for (&name, row) in names.iter().zip(runs.chunks(budgets.len())) {
        let full_ipc = row[budgets.len() - 1].ipc; // k == units
        for (k, th) in budgets.into_iter().zip(row) {
            t.row([
                name.to_owned(),
                k.to_string(),
                (k * cfg.dram.channels * cfg.dram.ranks_per_channel).to_string(),
                f3(th.ipc),
                format!("{:.2}", th.blp),
                pct(th.ipc / full_ipc),
            ]);
        }
    }
    t
}

/// Figure 3: demand-estimation accuracy — the estimator's bank budget vs
/// the empirically best budget found by sweeping.
pub fn fig3_demand_estimation(eng: &Engine, cfg: &SimConfig) -> Table {
    let mut t = Table::new([
        "benchmark",
        "measured BLP",
        "estimated units",
        "best units",
        "IPC@est/IPC@best",
    ]);
    let est = BankDemandEstimator::new(EstimatorConfig::default());
    let units = cfg.dram.banks_per_rank;
    let names = ["mcf", "lbm", "libquantum", "milc", "omnetpp"];
    // k == 0 is the unrestricted measured run; 1..=units the budget sweep.
    let jobs = names.iter().flat_map(|&n| (0..=units).map(move |k| (n, (k > 0).then_some(k))));
    let runs = single_runs(eng, cfg, jobs);
    let per_bench = units as usize + 1;
    for (bi, &name) in names.iter().enumerate() {
        let solo = &runs[bi * per_bench]; // the k == 0 run
        let measured = ThreadMemProfile {
            mpki: solo.mpki,
            rbl: solo.rbl,
            blp: solo.blp,
            reads: solo.reads,
            bus_cycles: 1,
        };
        let estimate = est.demand(&measured, units).min(units);
        let mut ipc_at = vec![0.0f64; units as usize + 1];
        for k in 1..=units {
            ipc_at[k as usize] = runs[bi * per_bench + k as usize].ipc;
        }
        let best = (1..=units)
            .max_by(|&a, &b| {
                ipc_at[a as usize]
                    .partial_cmp(&ipc_at[b as usize])
                    .unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(1);
        t.row([
            name.to_owned(),
            format!("{:.2}", measured.blp),
            estimate.to_string(),
            best.to_string(),
            f3(ipc_at[estimate as usize] / ipc_at[best as usize]),
        ]);
    }
    t
}

/// The shared engine behind Figures 4-8: run `combos` over `mixes` and
/// tabulate one metric.
fn policy_comparison(
    eng: &Engine,
    cfg: &SimConfig,
    mixes: &[Mix],
    combos: &[Combo],
    metric: fn(&MixRun) -> f64,
    metric_name: &str,
) -> Table {
    let mut headers = vec!["mix".to_owned()];
    headers.extend(combos.iter().map(|c| format!("{} {}", c.label, metric_name)));
    let mut t = Table::new(headers);
    let grid = eng.run_grid(cfg, mixes, combos);
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); combos.len()];
    for (mix, runs) in mixes.iter().zip(&grid) {
        let mut row = vec![mix.name.to_owned()];
        for (k, run) in runs.iter().enumerate() {
            let v = metric(run);
            series[k].push(v);
            row.push(f3(v));
        }
        t.row(row);
    }
    let mut row = vec!["gmean".to_owned()];
    for s in &series {
        row.push(f3(gmean(s)));
    }
    t.row(row);
    // Relative row: each combo vs the first (baseline) combo. For
    // weighted speedup higher is better; for maximum slowdown lower is
    // better — the sign convention is explained by the binaries.
    let base = gmean(&series[0]);
    let mut rel = vec![format!("vs {}", combos[0].label)];
    for s in &series {
        rel.push(pct(gmean(s) / base));
    }
    t.row(rel);
    t
}

/// Figure 4: weighted speedup — shared FR-FCFS vs equal bank partitioning
/// vs DBP. Headline: DBP improves system performance by ~4.3 % over equal
/// bank partitioning.
pub fn fig4_ws_dbp(eng: &Engine, cfg: &SimConfig) -> Table {
    policy_comparison(
        eng,
        cfg,
        &mixes_4core(),
        &[harness::shared(), harness::equal_bp(), harness::dbp()],
        |r| r.metrics.weighted_speedup,
        "WS",
    )
}

/// Figure 5: maximum slowdown (unfairness; lower is better) for the same
/// comparison. Headline: DBP improves fairness by ~16 % over equal bank
/// partitioning.
pub fn fig5_ms_dbp(eng: &Engine, cfg: &SimConfig) -> Table {
    policy_comparison(
        eng,
        cfg,
        &mixes_4core(),
        &[harness::shared(), harness::equal_bp(), harness::dbp()],
        |r| r.metrics.max_slowdown,
        "MS",
    )
}

/// Figure 6: system row-buffer hit rate per policy — partitioning's
/// mechanism is eliminating inter-thread row closures.
pub fn fig6_row_hits(eng: &Engine, cfg: &SimConfig) -> Table {
    policy_comparison(
        eng,
        cfg,
        &mixes_4core(),
        &[
            harness::shared(),
            harness::equal_bp(),
            harness::dbp(),
            harness::tcm(),
            harness::dbp_tcm(),
        ],
        |r| r.shared.row_hit_rate.max(1e-9),
        "RBH",
    )
}

/// Figure 7: composing DBP with TCM. Headline: DBP-TCM improves system
/// throughput by ~6.2 % and fairness by ~16.7 % over TCM alone.
pub fn fig7_dbp_tcm_ws(eng: &Engine, cfg: &SimConfig) -> Table {
    policy_comparison(
        eng,
        cfg,
        &mixes_4core(),
        &[harness::tcm(), harness::dbp(), harness::dbp_tcm()],
        |r| r.metrics.weighted_speedup,
        "WS",
    )
}

/// Figure 7 (fairness half).
pub fn fig7_dbp_tcm_ms(eng: &Engine, cfg: &SimConfig) -> Table {
    policy_comparison(
        eng,
        cfg,
        &mixes_4core(),
        &[harness::tcm(), harness::dbp(), harness::dbp_tcm()],
        |r| r.metrics.max_slowdown,
        "MS",
    )
}

/// Figure 8: DBP-TCM vs MCP. Headline: +5.3 % throughput and +37 %
/// fairness over MCP.
pub fn fig8_vs_mcp(eng: &Engine, cfg: &SimConfig) -> (Table, Table) {
    let combos = [harness::mcp(), harness::dbp_tcm()];
    let ws =
        policy_comparison(eng, cfg, &mixes_4core(), &combos, |r| r.metrics.weighted_speedup, "WS");
    let ms = policy_comparison(eng, cfg, &mixes_4core(), &combos, |r| r.metrics.max_slowdown, "MS");
    (ws, ms)
}

/// Each combo's gmean WS and MS over the mixes of a `[mix][combo]` grid.
fn gmeans(grid: &[Vec<MixRun>], combos: usize) -> Vec<(f64, f64)> {
    (0..combos)
        .map(|k| {
            let ws: Vec<f64> = grid.iter().map(|runs| runs[k].metrics.weighted_speedup).collect();
            let ms: Vec<f64> = grid.iter().map(|runs| runs[k].metrics.max_slowdown).collect();
            (gmean(&ws), gmean(&ms))
        })
        .collect()
}

/// A (banks | channels | cores | epoch | alpha | ...) sweep row: gmean WS
/// and MS over the sweep mixes for each combo.
fn sweep_row(eng: &Engine, cfg: &SimConfig, mixes: &[Mix], combos: &[Combo]) -> Vec<(f64, f64)> {
    gmeans(&eng.run_grid(cfg, mixes, combos), combos.len())
}

/// A sweep table: one row per `(label, config, mixes)` point, the label
/// followed by each combo's `WS/MS` gmeans over the point's mixes. Every
/// point runs in one engine batch.
fn sweep_table(
    eng: &Engine,
    headers: impl IntoIterator<Item = &'static str>,
    combos: &[Combo],
    points: impl IntoIterator<Item = (String, SimConfig, Vec<Mix>)>,
) -> Table {
    let (labels, grids): (Vec<String>, Vec<_>) = points
        .into_iter()
        .map(|(label, cfg, mixes)| (label, (cfg, mixes, combos.to_vec())))
        .unzip();
    let mut t = Table::new(headers);
    for (label, grid) in labels.into_iter().zip(eng.run_grids(&grids)) {
        let mut cells = vec![label];
        cells.extend(gmeans(&grid, combos.len()).iter().map(|(w, m)| format!("{w:.3}/{m:.3}")));
        t.row(cells);
    }
    t
}

/// Figure 9: sensitivity to banks per channel (8/16/32 total banks).
pub fn fig9_banks_sweep(eng: &Engine, cfg: &SimConfig) -> Table {
    let combos = [harness::shared(), harness::equal_bp(), harness::dbp()];
    let points = [4u32, 8, 16].map(|banks| {
        let mut c = cfg.clone();
        c.dram.banks_per_rank = banks;
        c.dram.rows_per_bank = cfg.dram.rows_per_bank * cfg.dram.banks_per_rank / banks;
        let total = banks * c.dram.channels * c.dram.ranks_per_channel;
        (total.to_string(), c, sweep_mixes())
    });
    sweep_table(eng, ["banks", "shared WS/MS", "equal-BP WS/MS", "DBP WS/MS"], &combos, points)
}

/// Figure 10: sensitivity to channel count (1/2/4).
pub fn fig10_channels_sweep(eng: &Engine, cfg: &SimConfig) -> Table {
    let combos = [harness::shared(), harness::equal_bp(), harness::dbp(), harness::mcp()];
    let headers = ["channels", "shared WS/MS", "equal-BP WS/MS", "DBP WS/MS", "MCP WS/MS"];
    let points = [1u32, 2, 4].map(|channels| {
        let mut c = cfg.clone();
        c.dram.channels = channels;
        c.dram.rows_per_bank = cfg.dram.rows_per_bank * cfg.dram.channels / channels;
        (channels.to_string(), c, sweep_mixes())
    });
    sweep_table(eng, headers, &combos, points)
}

/// Figure 11: sensitivity to core count (2/4/8) with scaled mixes.
pub fn fig11_cores_sweep(eng: &Engine, cfg: &SimConfig) -> Table {
    let combos = [harness::shared(), harness::equal_bp(), harness::dbp()];
    let all = mixes_4core();
    let points = [2usize, 4, 8].map(|cores| {
        let mixes = [&all[2], &all[6], &all[12]].map(|m| scale_mix(m, cores)).to_vec();
        (cores.to_string(), cfg.clone(), mixes)
    });
    sweep_table(eng, ["cores", "shared WS/MS", "equal-BP WS/MS", "DBP WS/MS"], &combos, points)
}

/// Figure 12: sensitivity to the repartitioning epoch length.
pub fn fig12_epoch_sweep(eng: &Engine, cfg: &SimConfig) -> Table {
    let combos = [harness::dbp(), harness::dbp_tcm()];
    let points = [250_000u64, 500_000, 1_000_000, 2_000_000].map(|epoch| {
        let mut c = cfg.clone();
        c.epoch_cpu_cycles = epoch;
        c.instr_feed_interval = c.instr_feed_interval.min(epoch);
        (epoch.to_string(), c, sweep_mixes())
    });
    sweep_table(eng, ["epoch (CPU cycles)", "DBP WS/MS", "DBP-TCM WS/MS"], &combos, points)
}

/// Ablation 1: the demand head-room coefficient alpha (one combo per
/// alpha, all dispatched in a single grid).
pub fn abl1_alpha(eng: &Engine, cfg: &SimConfig) -> Table {
    let mut t = Table::new(["alpha", "DBP WS", "DBP MS"]);
    let alphas = [1.0f64, 1.5, 2.0, 3.0, 4.0];
    let combos: Vec<Combo> = alphas
        .iter()
        .map(|&alpha| Combo {
            label: "DBP",
            scheduler: harness::dbp().scheduler,
            policy: PolicyKind::Dbp(dbp_core::policy::DbpConfig {
                estimator: EstimatorConfig { alpha },
                ..Default::default()
            }),
        })
        .collect();
    let rows = sweep_row(eng, cfg, &sweep_mixes(), &combos);
    for (alpha, (w, m)) in alphas.iter().zip(rows) {
        t.row([format!("{alpha:.1}"), f3(w), f3(m)]);
    }
    t
}

/// Ablation 2: grouping non-intensive threads on a shared slice vs giving
/// each a dedicated allocation.
pub fn abl2_grouping(eng: &Engine, cfg: &SimConfig) -> Table {
    let mixes: Vec<Mix> = {
        let all = mixes_4core();
        // Mixed-intensity mixes are where grouping matters.
        vec![all[2].clone(), all[3].clone(), all[6].clone(), all[9].clone()]
    };
    let on = harness::dbp();
    let off = Combo {
        label: "DBP-nogroup",
        scheduler: on.scheduler,
        policy: PolicyKind::Dbp(dbp_core::policy::DbpConfig {
            group_non_intensive: false,
            ..Default::default()
        }),
    };
    let row = sweep_row(eng, cfg, &mixes, &[on, off]);
    let mut t = Table::new(["variant", "WS", "MS"]);
    t.row(["grouped".to_owned(), f3(row[0].0), f3(row[0].1)]);
    t.row(["ungrouped".to_owned(), f3(row[1].0), f3(row[1].1)]);
    t
}

/// Ablation 3: migration cost model (free vs charged, budget sizes,
/// lazy vs eager). The tweaks touch only migration knobs, which cannot
/// affect an alone run, so all variants share the same alone cells.
pub fn abl3_migration(eng: &Engine, cfg: &SimConfig) -> Table {
    type Tweak = Box<dyn Fn(&mut SimConfig)>;
    let mut t = Table::new(["variant", "WS", "MS", "note"]);
    let variants: Vec<(&str, Tweak)> = vec![
        ("free", Box::new(|c: &mut SimConfig| c.migration_cost = MigrationCost::Free)),
        ("charged, budget 32", Box::new(|c| c.migration_budget_pages = Some(32))),
        ("charged, budget 128", Box::new(|_| {})),
        ("charged, unthrottled", Box::new(|c| c.migration_budget_pages = None)),
        ("eager, budget 128", Box::new(|c| c.migration_mode = MigrationMode::Eager)),
    ];
    let grids: Vec<_> = variants
        .iter()
        .map(|(_, tweak)| {
            let mut c = cfg.clone();
            tweak(&mut c);
            (c, sweep_mixes(), vec![harness::dbp()])
        })
        .collect();
    for ((label, _), grid) in variants.iter().zip(eng.run_grids(&grids)) {
        let mut ws = Vec::new();
        let mut ms = Vec::new();
        let mut migrated = 0u64;
        for runs in &grid {
            let run = &runs[0];
            ws.push(run.metrics.weighted_speedup);
            ms.push(run.metrics.max_slowdown);
            migrated += run.shared.migrated_pages;
        }
        t.row([
            (*label).to_owned(),
            f3(gmean(&ws)),
            f3(gmean(&ms)),
            format!("{migrated} pages migrated in-measurement"),
        ]);
    }
    t
}

/// Extension (not in the paper): DRAM energy per policy.
///
/// Bank partitioning cuts activates (every eliminated row conflict is an
/// ACT/PRE pair saved), which the coarse energy model turns into energy
/// per serviced byte. Alone baselines are never consulted, so this asks
/// for the shared cells only.
pub fn ext1_energy(eng: &Engine, cfg: &SimConfig) -> Table {
    let model = dbp_dram::EnergyModel::default();
    let combos = [harness::shared(), harness::equal_bp(), harness::dbp(), harness::dbp_tcm()];
    let mut t =
        Table::new(["policy", "activates/1k-reads", "accesses/ACT", "energy (mJ)", "nJ/byte"]);
    let cells: Vec<Cell> = sweep_mixes()
        .iter()
        .flat_map(|mix| combos.iter().map(move |combo| Cell::shared(&combo.apply(cfg), mix)))
        .collect();
    let grid = eng.run_cells(&cells);
    for (ci, combo) in combos.iter().enumerate() {
        let mut acts_per_kread = Vec::new();
        let mut apa = Vec::new();
        let mut energy_mj = 0.0;
        let mut bytes = 0u64;
        for run in grid.iter().skip(ci).step_by(combos.len()) {
            let d = run.dram;
            acts_per_kread.push(d.activates as f64 * 1000.0 / (d.reads.max(1)) as f64);
            apa.push(run.accesses_per_activate.max(1e-9));
            energy_mj += d.energy_nj(&model) * 1e-6;
            bytes += (d.reads + d.writes) * 64;
        }
        t.row([
            combo.label.to_owned(),
            format!("{:.0}", gmean(&acts_per_kread)),
            format!("{:.2}", gmean(&apa)),
            format!("{energy_mj:.2}"),
            format!("{:.3}", energy_mj * 1e6 / bytes.max(1) as f64),
        ]);
    }
    t
}

/// Extension (not in the paper): DBP under the permutation-based (XOR)
/// bank mapping.
///
/// Permutation interleaving spreads row-sequential streams over banks —
/// good for the shared baseline — but every frame still has a unique
/// color, so partitioning still isolates threads. This ablation checks
/// that DBP's benefit is not an artifact of the plain page-coloring
/// layout.
pub fn ext2_mapping(eng: &Engine, cfg: &SimConfig) -> Table {
    use dbp_dram::MappingScheme;
    let mut t = Table::new(["mapping", "policy", "WS", "MS", "rowhit"]);
    let combos = [harness::shared(), harness::dbp()];
    let mappings = [
        ("page-coloring", MappingScheme::PageColoring),
        ("XOR-permuted", MappingScheme::PermutedPageColoring),
    ];
    let grids: Vec<_> = mappings
        .iter()
        .map(|&(_, mapping)| {
            let mut c = cfg.clone();
            c.dram.mapping = mapping;
            (c, sweep_mixes(), combos.to_vec())
        })
        .collect();
    for ((mname, _), grid) in mappings.iter().zip(eng.run_grids(&grids)) {
        for (ci, combo) in combos.iter().enumerate() {
            let mut ws = Vec::new();
            let mut ms = Vec::new();
            let mut rh = Vec::new();
            for runs in &grid {
                let run = &runs[ci];
                ws.push(run.metrics.weighted_speedup);
                ms.push(run.metrics.max_slowdown);
                rh.push(run.shared.row_hit_rate.max(1e-9));
            }
            t.row([
                (*mname).to_owned(),
                combo.label.to_owned(),
                f3(gmean(&ws)),
                f3(gmean(&ms)),
                f3(gmean(&rh)),
            ]);
        }
    }
    t
}

/// Extension (not in the paper): the full scheduler landscape, with and
/// without DBP underneath — all 14 (scheduler, policy) combos dispatched
/// as one grid.
///
/// Places DBP among the era's schedulers: FCFS, FR-FCFS (+Cap), PAR-BS,
/// ATLAS, BLISS, TCM. The paper's orthogonality claim predicts the DBP
/// column improves *every* scheduler's fairness.
pub fn ext3_schedulers(eng: &Engine, cfg: &SimConfig) -> Table {
    let schedulers = dbp_sim::SchedulerKind::named();
    let combos: Vec<Combo> = schedulers
        .iter()
        .flat_map(|&(_, sched)| {
            [PolicyKind::Unpartitioned, PolicyKind::Dbp(Default::default())]
                .into_iter()
                .map(move |policy| Combo { label: sched.label(), scheduler: sched, policy })
        })
        .collect();
    let rows = sweep_row(eng, cfg, &sweep_mixes(), &combos);
    let mut t = Table::new(["scheduler", "shared WS/MS", "+DBP WS/MS"]);
    for (si, (_, sched)) in schedulers.iter().enumerate() {
        let mut cells = vec![sched.label().to_owned()];
        for (w, m) in &rows[2 * si..2 * si + 2] {
            cells.push(format!("{w:.3}/{m:.3}"));
        }
        t.row(cells);
    }
    t
}

/// The latency anatomy of `mix`'s shared run under `cfg`, self-profiled
/// into `prof`. Each call owns a private recorder (its shared state is
/// not `Send`), so this is safe to fan out across pool workers.
fn latency_of(cfg: &SimConfig, mix: &Mix, prof: &Prof) -> LatencyReport {
    let rec = Recorder::new(RecorderConfig::default());
    run_shared_instrumented(cfg, mix, rec.clone(), prof.clone());
    rec.snapshot().latency.unwrap_or_default()
}

/// Diagnostic: per-request latency anatomy and the interference
/// attribution matrices for the Figure 1 motivation mix, under the three
/// headline policies. This is the observability companion to Figures 1,
/// 4 and 5: it shows *where* the unpartitioned system's latency goes
/// (queueing behind the other core, bank conflicts, bus contention) and
/// that bank partitioning zeroes the cross-core bank interference while
/// leaving bus-level contention visible.
///
/// Also publishes a machine-readable percentile summary per policy as a
/// `bench_all --json` annotation (`diag_interference`).
pub fn diag_interference(eng: &Engine, cfg: &SimConfig) -> String {
    use dbp_obs::latency::latency_report_text;
    use dbp_obs::Json;

    let mix = Mix { name: "motivation", intensive_pct: 100, benchmarks: vec!["libquantum", "mcf"] };
    let combos = [harness::shared(), harness::equal_bp(), harness::dbp()];
    let runs: Vec<LatencyReport> = eng
        .par_map(combos.iter().map(|combo| combo.apply(cfg)).collect(), |run_cfg| {
            latency_of(&run_cfg, &mix, eng.profiler())
        });

    let mut headline =
        Table::new(["policy", "reads", "mean", "p50", "p90", "p99", "bank x-core", "bus x-core"]);
    let mut out = String::new();
    let mut annotations = Vec::new();
    for (combo, rep) in combos.iter().zip(&runs) {
        let mut all = dbp_obs::Histogram::new();
        for core in &rep.cores {
            all.merge(&core.read);
        }
        headline.row([
            combo.label.to_owned(),
            all.count().to_string(),
            format!("{:.1}", all.mean()),
            all.value_at_quantile(0.50).to_string(),
            all.value_at_quantile(0.90).to_string(),
            all.value_at_quantile(0.99).to_string(),
            rep.bank_interference.off_diagonal_sum().to_string(),
            rep.bus_interference.off_diagonal_sum().to_string(),
        ]);
        annotations.push((combo.label.to_owned(), rep.summary_json()));
    }
    eng.annotate("diag_interference", Json::Obj(annotations));
    out.push_str(&headline.to_string());
    out.push_str(
        "(read latency in DRAM cycles; x-core = cycles a core's oldest read was\n \
         blocked on a bank/the bus held by the other core)\n",
    );
    for (combo, rep) in combos.iter().zip(&runs) {
        out.push_str(&format!("\n--- {} ---\n{}", combo.label, latency_report_text(rep)));
    }
    out
}

/// Diagnostic: the policy decision audit for a standard 4-core mix.
/// Each run carries the shadow rack (equal-BP, MCP, and a doubled-alpha
/// DBP ablation) in observation-only mode, so one table answers three
/// questions at once: how far the live policy's allocations sit from its
/// rivals' (and what adopting a rival would cost in page migrations),
/// how well the bank-demand estimator's predictions match the BLP each
/// thread then achieves, and how quickly the live allocation converges
/// after warmup and after profile-phase shifts.
///
/// Runs the audit under live DBP and live equal-BP: the latter is the
/// control — a static policy must show zero churn and a DBP shadow that
/// keeps its distance.
///
/// Also publishes a machine-readable summary per live policy as a
/// `bench_all --json` annotation (`diag_audit`). The full audit of the
/// DBP run is the `audit` section of `dbpsim run --mix mix50-1
/// --report-out`, rendered by `dbpreport`.
pub fn diag_audit(eng: &Engine, cfg: &SimConfig) -> String {
    use dbp_obs::audit::{
        calibration_table, convergence_summary, phase_shift_table, policy_table, prediction_table,
    };
    use dbp_obs::Json;

    let mix = mixes_4core().into_iter().find(|m| m.name == "mix50-1").expect("mix50-1 registered");
    let combos = [harness::dbp(), harness::equal_bp()];
    let runs: Vec<AuditReport> =
        eng.par_map(combos.iter().map(|combo| combo.apply(cfg)).collect(), |run_cfg| {
            let rec = Recorder::new(RecorderConfig { audit: true, ..Default::default() });
            run_shared_instrumented(&run_cfg, &mix, rec.clone(), eng.profiler().clone());
            rec.snapshot().audit.unwrap_or_default()
        });

    let mut headline = Table::new([
        "live policy",
        "decisions",
        "flap rate",
        "to-stable",
        "|pred err|",
        "closest shadow",
    ]);
    let mut annotations = Vec::new();
    for (combo, rep) in combos.iter().zip(&runs) {
        let samples: u64 = rep.prediction.iter().map(|p| p.samples).sum();
        let abs_err = if samples == 0 {
            f64::NAN
        } else {
            rep.prediction.iter().map(|p| p.mean_abs_err * p.samples as f64).sum::<f64>()
                / samples as f64
        };
        let closest = rep
            .shadows
            .iter()
            .min_by(|a, b| a.mean_distance.total_cmp(&b.mean_distance))
            .expect("standard rack is non-empty");
        headline.row([
            combo.label.to_owned(),
            rep.convergence.decisions.to_string(),
            format!("{:.3}", rep.convergence.flap_rate),
            match rep.convergence.epochs_to_stable {
                Some(n) => n.to_string(),
                None => "-".to_owned(),
            },
            format!("{abs_err:.2}"),
            format!("{} ({:.1})", closest.name, closest.mean_distance),
        ]);
        annotations.push((
            combo.label.to_owned(),
            Json::obj([
                ("decisions", Json::uint(rep.convergence.decisions)),
                ("flap_rate", Json::num(rep.convergence.flap_rate)),
                (
                    "epochs_to_stable",
                    rep.convergence.epochs_to_stable.map_or(Json::Null, Json::uint),
                ),
                ("mean_abs_pred_error", Json::num(abs_err)),
                (
                    "shadow_mean_distance",
                    Json::Obj(
                        rep.shadows
                            .iter()
                            .map(|s| (s.name.clone(), Json::num(s.mean_distance)))
                            .collect(),
                    ),
                ),
            ]),
        ));
    }
    eng.annotate("diag_audit", Json::Obj(annotations));

    let mut out = String::new();
    out.push_str(&headline.to_string());
    out.push_str(
        "(flap rate = A>B>A allocation toggles per thread-decision; to-stable =\n \
         decisions from measurement start until 3 unchanged in a row; |pred err| in\n \
         bank units; closest shadow = smallest mean allocation distance to live)\n",
    );
    for (combo, rep) in combos.iter().zip(&runs) {
        out.push_str(&format!("\n--- live {} ---\n", combo.label));
        out.push_str(&policy_table(rep).to_string());
        out.push_str(&prediction_table(rep).to_string());
        out.push_str(&calibration_table(rep).to_string());
        let shifts = phase_shift_table(rep);
        if !shifts.is_empty() {
            out.push_str(&shifts.to_string());
        }
        out.push_str(&convergence_summary(rep));
        out.push('\n');
    }
    out
}

/// A registered experiment: its name, the `== title ==` banner
/// `bench_all` prints, and a renderer producing the full stdout body
/// (tables plus reading-direction footnotes).
#[derive(Clone, Copy)]
pub struct Experiment {
    /// The name `bench_all NAME` selects and `results/NAME.txt` is keyed
    /// by, e.g. `"fig4_ws_dbp"`.
    pub name: &'static str,
    /// Banner title (printed as `== title ==`).
    pub title: &'static str,
    /// Render the experiment's stdout body through the engine.
    pub render: fn(&Engine, &SimConfig) -> String,
}

/// The full experiment registry, in suite order (tables, figures,
/// ablations, extensions) — the order `bench_all` runs them in. No table
/// depends on it: a memo hit returns what a recomputation would.
pub fn all() -> Vec<Experiment> {
    fn table(t: Table) -> String {
        t.to_string()
    }
    vec![
        Experiment {
            name: "table1_config",
            title: "Table 1: simulated system configuration",
            render: |e, c| table(table1_config(e, c)),
        },
        Experiment {
            name: "table2_benchmarks",
            title: "Table 2: benchmark characteristics (targets marked *, measured unmarked)",
            render: |e, c| table(table2_benchmarks(e, c)),
        },
        Experiment {
            name: "table3_mixes",
            title: "Table 3: multiprogrammed workload mixes",
            render: |_, _| table(table3_mixes()),
        },
        Experiment {
            name: "fig1_motivation",
            title: "Figure 1 (motivation): DRAM interference between co-running applications",
            render: |e, c| table(fig1_motivation(e, c)),
        },
        Experiment {
            name: "fig2_equal_blp_loss",
            title: "Figure 2: restricting banks destroys high-BLP benchmarks (the cost of equal partitioning)",
            render: |e, c| table(fig2_equal_blp_loss(e, c)),
        },
        Experiment {
            name: "fig3_demand_estimation",
            title: "Figure 3: bank-demand estimation accuracy vs empirical optimum",
            render: |e, c| table(fig3_demand_estimation(e, c)),
        },
        Experiment {
            name: "fig4_ws_dbp",
            title: "Figure 4: weighted speedup - shared vs equal-BP vs DBP (paper: DBP +4.3% over equal-BP)",
            render: |e, c| {
                format!("{}\n(weighted speedup: higher is better)", fig4_ws_dbp(e, c))
            },
        },
        Experiment {
            name: "fig5_ms_dbp",
            title: "Figure 5: maximum slowdown - shared vs equal-BP vs DBP (paper: DBP improves fairness 16% over equal-BP)",
            render: |e, c| {
                format!("{}\n(maximum slowdown: lower is better/fairer)", fig5_ms_dbp(e, c))
            },
        },
        Experiment {
            name: "fig6_row_hits",
            title: "Figure 6: system row-buffer hit rate per policy",
            render: |e, c| table(fig6_row_hits(e, c)),
        },
        Experiment {
            name: "fig7_dbp_tcm",
            title: "Figure 7: composing DBP with TCM (paper: DBP-TCM +6.2% WS, +16.7% fairness over TCM)",
            render: |e, c| {
                format!(
                    "{}\n(weighted speedup: higher is better)\n\n{}\n(maximum slowdown: lower is better/fairer)",
                    fig7_dbp_tcm_ws(e, c),
                    fig7_dbp_tcm_ms(e, c)
                )
            },
        },
        Experiment {
            name: "fig8_vs_mcp",
            title: "Figure 8: DBP-TCM vs MCP (paper: +5.3% WS, +37% fairness)",
            render: |e, c| {
                let (ws, ms) = fig8_vs_mcp(e, c);
                format!(
                    "{ws}\n(weighted speedup: higher is better)\n\n{ms}\n(maximum slowdown: lower is better/fairer)"
                )
            },
        },
        Experiment {
            name: "fig9_banks_sweep",
            title: "Figure 9: sensitivity to total bank count",
            render: |e, c| table(fig9_banks_sweep(e, c)),
        },
        Experiment {
            name: "fig10_channels_sweep",
            title: "Figure 10: sensitivity to channel count",
            render: |e, c| table(fig10_channels_sweep(e, c)),
        },
        Experiment {
            name: "fig11_cores_sweep",
            title: "Figure 11: sensitivity to core count (scaled mixes)",
            render: |e, c| table(fig11_cores_sweep(e, c)),
        },
        Experiment {
            name: "fig12_epoch_sweep",
            title: "Figure 12: sensitivity to the repartitioning epoch",
            render: |e, c| table(fig12_epoch_sweep(e, c)),
        },
        Experiment {
            name: "abl1_alpha",
            title: "Ablation 1: demand head-room coefficient alpha",
            render: |e, c| table(abl1_alpha(e, c)),
        },
        Experiment {
            name: "abl2_grouping",
            title: "Ablation 2: grouping non-intensive threads on a shared slice",
            render: |e, c| table(abl2_grouping(e, c)),
        },
        Experiment {
            name: "abl3_migration",
            title: "Ablation 3: page-migration cost model",
            render: |e, c| table(abl3_migration(e, c)),
        },
        Experiment {
            name: "ext1_energy",
            title: "Extension: DRAM energy by policy (activate savings from partitioning)",
            render: |e, c| table(ext1_energy(e, c)),
        },
        Experiment {
            name: "ext2_mapping",
            title: "Extension: DBP under permutation-based (XOR) bank mapping",
            render: |e, c| table(ext2_mapping(e, c)),
        },
        Experiment {
            name: "ext3_schedulers",
            title: "Extension: scheduler landscape (FCFS..TCM), shared vs +DBP",
            render: |e, c| {
                format!("{}\n(WS higher is better; MS lower is fairer)", ext3_schedulers(e, c))
            },
        },
        Experiment {
            name: "diag_interference",
            title: "Diagnostic: latency anatomy & interference attribution (Fig. 1 mix, shared vs equal-BP vs DBP)",
            render: diag_interference,
        },
        Experiment {
            name: "diag_audit",
            title: "Diagnostic: decision audit - shadow policies, estimator accuracy, convergence (mix50-1)",
            render: diag_audit,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eng() -> Engine {
        Engine::with_workers(2)
    }

    #[test]
    fn table3_lists_all_mixes() {
        let t = table3_mixes();
        assert_eq!(t.len(), mixes_4core().len());
    }

    #[test]
    fn sweep_mixes_cover_categories() {
        let pcts: Vec<u32> = sweep_mixes().iter().map(|m| m.intensive_pct).collect();
        assert!(pcts.contains(&25));
        assert!(pcts.contains(&50));
        assert!(pcts.contains(&75));
        assert!(pcts.contains(&100));
    }

    #[test]
    fn table1_renders() {
        let t = table1_config(&eng(), &SimConfig::default());
        assert!(t.render().contains("DDR3"));
        assert!(t.len() > 10);
    }

    fn smoke_cfg() -> SimConfig {
        let mut cfg = SimConfig::fast_test();
        cfg.warmup_instructions = 10_000;
        cfg.target_instructions = 25_000;
        cfg.epoch_cpu_cycles = 50_000;
        cfg.instr_feed_interval = 10_000;
        cfg
    }

    #[test]
    fn fig1_smoke() {
        let t = fig1_motivation(&eng(), &smoke_cfg());
        assert_eq!(t.len(), 2);
        assert!(t.render().contains("libquantum"));
    }

    #[test]
    fn fig2_smoke() {
        let mut cfg = smoke_cfg();
        cfg.target_instructions = 15_000;
        let t = fig2_equal_blp_loss(&eng(), &cfg);
        // 3 benchmarks x 4 budgets.
        assert_eq!(t.len(), 12);
    }

    #[test]
    fn ext1_energy_smoke() {
        // One mix is enough to exercise the energy plumbing, but the
        // table shape needs all four policies; use a tiny config.
        let mut cfg = smoke_cfg();
        cfg.target_instructions = 10_000;
        cfg.warmup_instructions = 5_000;
        let t = ext1_energy(&eng(), &cfg);
        assert_eq!(t.len(), 4);
        assert!(t.render().contains("DBP"));
    }

    #[test]
    fn registry_names_are_unique_and_match_the_committed_results() {
        let exps = all();
        assert_eq!(exps.len(), 23);
        let mut names: Vec<_> = exps.iter().map(|e| e.name.to_owned()).collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
        // `results/NAME.txt` is `bench_all NAME > results/NAME.txt`: a
        // renamed or dropped experiment must not leave a stale table.
        let results = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        let mut stems: Vec<String> = std::fs::read_dir(results)
            .expect("results/ is committed")
            .map(|e| e.expect("readable entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
            .collect();
        stems.sort_unstable();
        assert_eq!(names, stems);
    }

    #[test]
    fn renders_are_byte_identical_serial_vs_parallel() {
        // The determinism contract of the whole harness: an experiment
        // rendered through a 1-worker engine and a many-worker engine
        // must produce identical bytes (the CI gate asserts the same for
        // the full quick suite). `diag_interference` additionally pins
        // the latency-anatomy path: per-cycle attribution and histogram
        // merges must not depend on worker scheduling.
        let cfg = smoke_cfg();
        for name in ["fig1_motivation", "diag_interference", "diag_audit"] {
            let exp = all().into_iter().find(|e| e.name == name).expect("registered");
            let serial = (exp.render)(&Engine::with_workers(1), &cfg);
            let parallel = (exp.render)(&Engine::with_workers(4), &cfg);
            assert_eq!(serial, parallel, "{name} must not depend on DBP_JOBS");
        }
    }

    /// The interference-matrix shape the whole diagnostic exists to
    /// show, regression-tested on the Fig. 1 motivation mix: private
    /// banks (equal-BP, and DBP once settled) eliminate cross-core
    /// *bank* interference that the unpartitioned system suffers, while
    /// the shared bus stays contended under every policy.
    #[test]
    fn diag_interference_matrix_sanity() {
        let cfg = smoke_cfg();
        let mix =
            Mix { name: "motivation", intensive_pct: 100, benchmarks: vec!["libquantum", "mcf"] };
        let report_for = |combo: Combo| latency_of(&combo.apply(&cfg), &mix, &Prof::disabled());
        let shared = report_for(harness::shared());
        let equal = report_for(harness::equal_bp());
        let dbp = report_for(harness::dbp());

        assert!(shared.total_reads() > 0 && equal.total_reads() > 0 && dbp.total_reads() > 0);
        let shared_bank = shared.bank_interference.off_diagonal_sum();
        assert!(shared_bank > 0, "unpartitioned banks must show cross-core bank interference");
        assert_eq!(
            equal.bank_interference.off_diagonal_sum(),
            0,
            "equal-BP gives each core private banks: cross-core bank entries must vanish"
        );
        assert!(
            dbp.bank_interference.off_diagonal_sum() <= shared_bank / 5,
            "DBP must eliminate nearly all cross-core bank interference (shared {} vs dbp {})",
            shared_bank,
            dbp.bank_interference.off_diagonal_sum()
        );
        assert!(
            equal.bus_interference.off_diagonal_sum() > 0,
            "the data bus stays shared under bank partitioning"
        );
    }
}
