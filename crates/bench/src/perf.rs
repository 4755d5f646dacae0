//! Perf-regression comparison: current micro-bench floors against a
//! committed baseline (`BENCH_baseline.json`).
//!
//! The compared statistic is each benchmark's **minimum** (`min_ns`),
//! not its median: on shared CI runners preemption and cold caches can
//! only make iterations *slower*, so the floor is the statistic a
//! structural slowdown (an accidental O(n²), a dropped memo) must move,
//! while medians of tiny CI iteration counts mostly measure the host.
//! On top of that the comparison uses a *relative tolerance* (default
//! ±35%, `bench_all --tolerance` overrides): a benchmark only counts as
//! regressed when its floor exceeds `baseline * (1 + tolerance)`. The
//! gate is fatal: `bench_all --baseline` exits 1 on any finding.
//!
//! Statuses:
//!
//! - `ok` — within tolerance of the baseline
//! - `improved` — faster than `baseline * (1 - tolerance)` (informational)
//! - `regressed` — slower than `baseline * (1 + tolerance)` → gate fires
//! - `new` — present now, absent from the baseline (passes; the baseline
//!   needs regenerating to start tracking it)
//! - `missing` — present in the baseline, absent now → gate fires: a
//!   silently dropped benchmark is how coverage rots

use dbp_obs::{Json, Table};

/// Default relative noise tolerance for floor comparisons.
pub const DEFAULT_TOLERANCE: f64 = 0.35;

/// Verdict for one benchmark of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PerfStatus {
    Ok,
    Improved,
    Regressed,
    New,
    Missing,
}

impl PerfStatus {
    /// The JSON/table spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            PerfStatus::Ok => "ok",
            PerfStatus::Improved => "improved",
            PerfStatus::Regressed => "regressed",
            PerfStatus::New => "new",
            PerfStatus::Missing => "missing",
        }
    }

    /// Does this status fail the gate?
    pub fn fails_gate(self) -> bool {
        matches!(self, PerfStatus::Regressed | PerfStatus::Missing)
    }
}

/// One benchmark's baseline-vs-current comparison.
#[derive(Debug, Clone)]
pub struct PerfRow {
    pub name: String,
    pub baseline_ns: Option<u64>,
    pub current_ns: Option<u64>,
    /// `current / baseline` when both sides exist.
    pub ratio: Option<f64>,
    pub status: PerfStatus,
}

/// Extract `(name, min_ns)` pairs from a bench-results document (the
/// format [`dbp_util::bench::Runner::json_report`] writes).
///
/// # Errors
///
/// Returns a message when the document lacks a `benchmarks` array or an
/// entry lacks a string `name` / numeric `min_ns`.
pub fn parse_floors(doc: &Json) -> Result<Vec<(String, u64)>, String> {
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("bench document has no `benchmarks` array")?;
    benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let name = b
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("benchmarks[{i}] has no string `name`"))?;
            let floor = b
                .get("min_ns")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("benchmarks[{i}] ({name}) has no numeric `min_ns`"))?;
            Ok((name.to_owned(), floor as u64))
        })
        .collect()
}

/// Extract `(name, median_ns)` pairs from a bench-results document —
/// the statistic the longitudinal history tracks (medians summarise a
/// run; floors feed the regression gate).
///
/// # Errors
///
/// Returns a message when the document lacks a `benchmarks` array or an
/// entry lacks a string `name` / numeric `median_ns`.
pub fn parse_medians(doc: &Json) -> Result<Vec<(String, u64)>, String> {
    let benches = doc
        .get("benchmarks")
        .and_then(Json::as_arr)
        .ok_or("bench document has no `benchmarks` array")?;
    benches
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let name = b
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("benchmarks[{i}] has no string `name`"))?;
            let med = b
                .get("median_ns")
                .and_then(Json::as_num)
                .ok_or_else(|| format!("benchmarks[{i}] ({name}) has no numeric `median_ns`"))?;
            Ok((name.to_owned(), med as u64))
        })
        .collect()
}

/// Build one schema-stamped line of `BENCH_history.jsonl` from a
/// bench-results document: the run's medians keyed by benchmark name,
/// plus the caller-supplied wall-clock second. One JSON object per CI
/// run — `tail`/`jq`-friendly, and each line self-describes its schema
/// so old history survives format evolution.
///
/// # Errors
///
/// Propagates [`parse_medians`] errors.
pub fn history_line(doc: &Json, unix_time_s: u64) -> Result<Json, String> {
    let medians = parse_medians(doc)?;
    Ok(Json::obj([
        ("format_version", Json::uint(dbp_obs::export::FORMAT_VERSION)),
        ("schema_version", Json::str(dbp_obs::export::SCHEMA_VERSION)),
        ("unix_time_s", Json::uint(unix_time_s)),
        ("benchmarks", Json::uint(medians.len() as u64)),
        ("medians", Json::Obj(medians.into_iter().map(|(n, m)| (n, Json::uint(m))).collect())),
    ]))
}

/// Compare current floors against a baseline with a relative
/// `tolerance`. Rows come out in baseline order, then current-only
/// (`new`) entries in current order — so the delta table is stable
/// against reordering on either side.
pub fn compare(
    baseline: &[(String, u64)],
    current: &[(String, u64)],
    tolerance: f64,
) -> Vec<PerfRow> {
    let med =
        |set: &[(String, u64)], name: &str| set.iter().find(|(n, _)| n == name).map(|&(_, m)| m);
    let mut rows: Vec<PerfRow> = baseline
        .iter()
        .map(|(name, base)| match med(current, name) {
            Some(cur) => {
                let ratio = cur as f64 / (*base).max(1) as f64;
                let status = if ratio > 1.0 + tolerance {
                    PerfStatus::Regressed
                } else if ratio < 1.0 - tolerance {
                    PerfStatus::Improved
                } else {
                    PerfStatus::Ok
                };
                PerfRow {
                    name: name.clone(),
                    baseline_ns: Some(*base),
                    current_ns: Some(cur),
                    ratio: Some(ratio),
                    status,
                }
            }
            None => PerfRow {
                name: name.clone(),
                baseline_ns: Some(*base),
                current_ns: None,
                ratio: None,
                status: PerfStatus::Missing,
            },
        })
        .collect();
    for (name, cur) in current {
        if med(baseline, name).is_none() {
            rows.push(PerfRow {
                name: name.clone(),
                baseline_ns: None,
                current_ns: Some(*cur),
                ratio: None,
                status: PerfStatus::New,
            });
        }
    }
    rows
}

/// The rows whose status fails the gate (regressed or missing).
pub fn gate_failures(rows: &[PerfRow]) -> Vec<&PerfRow> {
    rows.iter().filter(|r| r.status.fails_gate()).collect()
}

/// Render the comparison as an aligned delta table.
pub fn delta_table(rows: &[PerfRow]) -> Table {
    let fmt_side = |ns: Option<u64>| {
        ns.map_or_else(|| "-".to_owned(), |n| dbp_obs::table::fmt_ns(u128::from(n)))
    };
    let mut t = Table::new(["benchmark", "baseline", "current", "delta", "status"]);
    t.align_left(0).align_left(4);
    for r in rows {
        let delta =
            r.ratio.map_or_else(|| "-".to_owned(), |q| format!("{:+.1}%", (q - 1.0) * 100.0));
        t.row([
            r.name.clone(),
            fmt_side(r.baseline_ns),
            fmt_side(r.current_ns),
            delta,
            r.status.as_str().to_owned(),
        ]);
    }
    t
}

/// Build the `perf_summary` document `bench_all --perf-out` writes:
/// version stamps, the comparison parameters, one row per benchmark, and
/// the gate verdict CI scripts key off.
pub fn perf_summary_document(rows: &[PerfRow], tolerance: f64) -> Json {
    let failures = gate_failures(rows);
    Json::obj([
        ("format_version", Json::uint(dbp_obs::export::FORMAT_VERSION)),
        ("schema_version", Json::str(dbp_obs::export::SCHEMA_VERSION)),
        ("tolerance", Json::num(tolerance)),
        ("gate_passed", Json::Bool(failures.is_empty())),
        ("failures", Json::uint(failures.len() as u64)),
        (
            "benchmarks",
            Json::arr(rows.iter().map(|r| {
                let mut pairs = vec![
                    ("name".to_string(), Json::str(&r.name)),
                    ("status".to_string(), Json::str(r.status.as_str())),
                ];
                if let Some(b) = r.baseline_ns {
                    pairs.push(("baseline_ns".to_string(), Json::uint(b)));
                }
                if let Some(c) = r.current_ns {
                    pairs.push(("current_ns".to_string(), Json::uint(c)));
                }
                if let Some(q) = r.ratio {
                    pairs.push(("ratio".to_string(), Json::num(q)));
                }
                Json::Obj(pairs)
            })),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(pairs: &[(&str, u64)]) -> Vec<(String, u64)> {
        pairs.iter().map(|&(n, m)| (n.to_owned(), m)).collect()
    }

    #[test]
    fn identical_floors_pass_within_tolerance() {
        let base = set(&[("a", 100), ("b", 2_000)]);
        let rows = compare(&base, &base, DEFAULT_TOLERANCE);
        assert!(rows.iter().all(|r| r.status == PerfStatus::Ok));
        assert!(gate_failures(&rows).is_empty());
        let doc = perf_summary_document(&rows, DEFAULT_TOLERANCE);
        assert_eq!(doc.get("gate_passed").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn injected_2x_regression_fires_the_gate() {
        let base = set(&[("steady", 1_000), ("hot", 1_000)]);
        let cur = set(&[("steady", 1_050), ("hot", 2_000)]); // 2x: well past ±35%
        let rows = compare(&base, &cur, DEFAULT_TOLERANCE);
        let hot = rows.iter().find(|r| r.name == "hot").unwrap();
        assert_eq!(hot.status, PerfStatus::Regressed);
        assert!((hot.ratio.unwrap() - 2.0).abs() < 1e-12);
        let fails = gate_failures(&rows);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].name, "hot");
        let doc = perf_summary_document(&rows, DEFAULT_TOLERANCE);
        assert_eq!(doc.get("gate_passed").and_then(Json::as_bool), Some(false));
        assert_eq!(doc.get("failures").and_then(Json::as_num), Some(1.0));
    }

    #[test]
    fn noise_within_tolerance_is_ok_but_improvements_are_flagged() {
        let base = set(&[("a", 1_000)]);
        assert_eq!(compare(&base, &set(&[("a", 1_340)]), 0.35)[0].status, PerfStatus::Ok);
        assert_eq!(compare(&base, &set(&[("a", 660)]), 0.35)[0].status, PerfStatus::Ok);
        assert_eq!(
            compare(&base, &set(&[("a", 500)]), 0.35)[0].status,
            PerfStatus::Improved,
            "improvements stay informational"
        );
        assert!(!PerfStatus::Improved.fails_gate());
    }

    #[test]
    fn new_passes_missing_fails() {
        let base = set(&[("kept", 100), ("dropped", 100)]);
        let cur = set(&[("kept", 100), ("added", 100)]);
        let rows = compare(&base, &cur, DEFAULT_TOLERANCE);
        let by = |n: &str| rows.iter().find(|r| r.name == n).unwrap();
        assert_eq!(by("dropped").status, PerfStatus::Missing);
        assert_eq!(by("added").status, PerfStatus::New);
        assert!(by("dropped").status.fails_gate(), "dropped coverage must fail");
        assert!(!by("added").status.fails_gate(), "new benches pass until rebaselined");
        // Row order: baseline order first, then new entries.
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["kept", "dropped", "added"]);
    }

    #[test]
    fn parse_floors_round_trips_runner_json() {
        let mut r = dbp_util::bench::Runner::new(dbp_util::bench::BenchConfig {
            warmup_iters: 0,
            iters: 1,
        });
        r.bench("spin", 8, || std::hint::black_box(1u64 + 1));
        let doc = dbp_obs::json::parse(&r.json_report().to_json()).unwrap();
        let floors = parse_floors(&doc).unwrap();
        assert_eq!(floors.len(), 1);
        assert_eq!(floors[0].0, "spin");
        assert!(parse_floors(&Json::obj([("nope", Json::uint(1))])).is_err());
    }

    #[test]
    fn history_line_is_schema_stamped_and_keyed_by_name() {
        let doc = Json::obj([(
            "benchmarks",
            Json::arr([
                Json::obj([("name", Json::str("a")), ("median_ns", Json::uint(120))]),
                Json::obj([("name", Json::str("b")), ("median_ns", Json::uint(7))]),
            ]),
        )]);
        let line = history_line(&doc, 1_700_000_000).unwrap();
        assert_eq!(line.get("unix_time_s").and_then(Json::as_num), Some(1.7e9));
        assert_eq!(line.get("benchmarks").and_then(Json::as_num), Some(2.0));
        assert_eq!(
            line.get("medians").and_then(|m| m.get("a")).and_then(Json::as_num),
            Some(120.0)
        );
        assert!(line.get("schema_version").is_some());
        // The line must survive its own serialisation (what CI appends).
        let reparsed = dbp_obs::json::parse(&line.to_json()).unwrap();
        assert_eq!(reparsed, line);
        // Medians are required: a floors-only document is an error.
        let floors_only = Json::obj([(
            "benchmarks",
            Json::arr([Json::obj([("name", Json::str("a")), ("min_ns", Json::uint(9))])]),
        )]);
        assert!(history_line(&floors_only, 0).is_err());
    }

    #[test]
    fn delta_table_renders_all_statuses() {
        let base = set(&[("reg", 1_000), ("gone", 50)]);
        let cur = set(&[("reg", 5_000), ("fresh", 10)]);
        let t = delta_table(&compare(&base, &cur, DEFAULT_TOLERANCE));
        let s = t.render();
        assert!(s.contains("regressed") && s.contains("missing") && s.contains("new"));
        assert!(s.contains("+400.0%"));
        assert!(s.contains('-'), "absent sides render as dashes");
    }

    #[test]
    fn zero_tolerance_accepts_identical_floors() {
        assert!(compare(&set(&[("a", 100)]), &set(&[("a", 100)]), 0.0)
            .iter()
            .all(|r| r.status == PerfStatus::Ok));
    }
}
