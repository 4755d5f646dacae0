//! JSON summaries and number formatting for the harness.

use dbp_obs::Json;

use crate::metrics::RunResult;

/// A [`RunResult`] as a JSON object, suitable as the `summary` of a
/// [`dbp_obs::export::run_document`].
pub fn run_result_json(r: &RunResult) -> Json {
    Json::obj([
        ("total_cycles", Json::uint(r.total_cycles)),
        ("reached_target", Json::Bool(r.reached_target)),
        ("row_hit_rate", Json::num(r.row_hit_rate)),
        ("bus_utilisation", Json::num(r.bus_utilisation)),
        ("accesses_per_activate", Json::num(r.accesses_per_activate)),
        ("bank_imbalance", Json::num(r.bank_imbalance)),
        ("migrated_pages", Json::uint(r.migrated_pages)),
        ("migration_requests", Json::uint(r.migration_requests)),
        ("repartitions", Json::uint(r.repartitions)),
        ("fallback_allocations", Json::uint(r.fallback_allocations)),
        (
            "threads",
            Json::arr(r.threads.iter().map(|t| {
                Json::obj([
                    ("ipc", Json::num(t.ipc)),
                    ("cycles_to_target", Json::uint(t.cycles_to_target)),
                    ("reached_target", Json::Bool(t.reached_target)),
                    ("mpki", Json::num(t.mpki)),
                    ("rbl", Json::num(t.rbl)),
                    ("blp", Json::num(t.blp)),
                    ("avg_read_latency", Json::num(t.avg_read_latency)),
                    ("reads", Json::uint(t.reads)),
                ])
            })),
        ),
    ])
}

/// Format a float with 3 decimal places (the harness convention).
pub fn f3(v: f64) -> String {
    format!("{v:.3}")
}

/// Format a ratio as a signed percentage, e.g. `+4.3%`.
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(pct(1.043), "+4.3%");
        assert_eq!(pct(0.95), "-5.0%");
    }

    #[test]
    fn run_result_json_round_trips() {
        use crate::metrics::{DramActivity, ThreadResult};
        let r = RunResult {
            threads: vec![ThreadResult {
                ipc: 0.75,
                cycles_to_target: 40_000,
                reached_target: true,
                mpki: 21.5,
                rbl: 0.4,
                blp: 2.25,
                avg_read_latency: 180.0,
                reads: 860,
            }],
            total_cycles: 40_000,
            dram: DramActivity::default(),
            reached_target: true,
            row_hit_rate: 0.55,
            bus_utilisation: 0.31,
            accesses_per_activate: 1.8,
            bank_imbalance: 0.2,
            migrated_pages: 12,
            migration_requests: 12,
            repartitions: 3,
            fallback_allocations: 0,
        };
        let doc = dbp_obs::json::parse(&run_result_json(&r).to_json()).expect("must parse");
        assert_eq!(doc.get("total_cycles").and_then(|v| v.as_num()), Some(40_000.0));
        assert_eq!(doc.get("repartitions").and_then(|v| v.as_num()), Some(3.0));
        let t = &doc.get("threads").and_then(|v| v.as_arr()).expect("threads")[0];
        assert_eq!(t.get("ipc").and_then(|v| v.as_num()), Some(0.75));
        assert_eq!(t.get("reads").and_then(|v| v.as_num()), Some(860.0));
    }
}
