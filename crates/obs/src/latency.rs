//! Per-request latency anatomy: component breakdowns, per-core and
//! per-bank histograms, and the core-to-core interference matrices.
//!
//! The memory controller decomposes every completed demand read's
//! `ready_at - arrival` into five additive components (see
//! [`COMPONENT_NAMES`]); the invariant that they sum *exactly* to the
//! total is asserted at both the recording site in the controller and
//! again in [`LatencyReport::record_read`], in every build profile.
//!
//! Interference is attributed Blacklisting-style: only for each core's
//! *oldest* in-flight demand read (the one actually gating progress),
//! one cycle is charged to the core holding the bank or the bus it is
//! waiting on. Bank-held and bus-held cycles go to separate matrices so
//! that private-bank partitioning provably zeroes the cross-core *bank*
//! matrix while shared-channel bus contention remains visible.

use crate::hist::Histogram;
use crate::json::{Json, JsonValue};
use crate::table::Table;

/// Number of additive latency components.
pub const N_COMPONENTS: usize = 5;

/// Component index: queued behind a same-core request.
pub const QUEUE_SAME: usize = 0;
/// Component index: queued behind an other-core request.
pub const QUEUE_OTHER: usize = 1;
/// Component index: bank busy — row conflict, precharge/activate
/// timing, or refresh, with no specific older request to blame.
pub const BANK_BUSY: usize = 2;
/// Component index: data/command bus contention and turnaround gaps.
pub const BUS: usize = 3;
/// Component index: intrinsic service (own ACT/tRCD, CAS, data burst).
pub const INTRINSIC: usize = 4;

/// JSON/report names of the components, indexed by the constants above.
pub const COMPONENT_NAMES: [&str; N_COMPONENTS] =
    ["queue_same_core", "queue_other_core", "bank_busy", "bus_contention", "intrinsic"];

/// A dense N×N counter matrix: `cells[i * n + j]` is the cycles core
/// `i`'s oldest demand read was blocked while core `j` held the
/// contended resource.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Matrix {
    n: usize,
    cells: Vec<u64>,
}

impl Matrix {
    /// An all-zero `n`×`n` matrix.
    pub fn new(n: usize) -> Self {
        Matrix { n, cells: vec![0; n * n] }
    }

    /// Side length.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Add `v` to cell `(i, j)`.
    pub fn add(&mut self, i: usize, j: usize, v: u64) {
        self.cells[i * self.n + j] += v;
    }

    /// Read cell `(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> u64 {
        self.cells[i * self.n + j]
    }

    /// Sum of every cell.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
    }

    /// Sum of the cells where `i != j` — the cross-core interference.
    pub fn off_diagonal_sum(&self) -> u64 {
        let mut sum = 0;
        for i in 0..self.n {
            for j in 0..self.n {
                if i != j {
                    sum += self.get(i, j);
                }
            }
        }
        sum
    }

    /// Element-wise accumulate `other` (must be the same size).
    pub fn merge(&mut self, other: &Matrix) {
        assert_eq!(self.n, other.n, "matrix size mismatch");
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            *a += b;
        }
    }
}

impl JsonValue for Matrix {
    /// JSON form: an array of row arrays.
    fn to_json(&self) -> Json {
        Json::arr((0..self.n).map(|i| Json::arr((0..self.n).map(|j| Json::uint(self.get(i, j))))))
    }

    /// Rebuild from that form: an error unless the value is a square
    /// matrix of non-negative integers.
    fn from_json(v: &Json) -> Result<Matrix, String> {
        let rows = v.as_arr().ok_or("matrix must be an array of rows")?;
        let n = rows.len();
        let mut m = Matrix::new(n);
        for (i, row) in rows.iter().enumerate() {
            let cells = row.as_arr().filter(|r| r.len() == n).ok_or("matrix must be square")?;
            for (j, c) in cells.iter().enumerate() {
                m.cells[i * n + j] =
                    c.as_u64().ok_or("matrix cells must be non-negative integers")?;
            }
        }
        Ok(m)
    }
}

/// One core's latency anatomy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreLatency {
    /// Total demand-read latency (`ready_at - arrival`), per read.
    pub read: Histogram,
    /// Writeback latency (enqueue to data-burst end), per write.
    pub write: Histogram,
    /// Summed cycles per component across all reads; the five entries
    /// add up exactly to `read.sum()`.
    pub components: [u64; N_COMPONENTS],
}

impl CoreLatency {
    /// The component totals as a `name: cycles` object keyed by
    /// [`COMPONENT_NAMES`].
    fn components_json(&self) -> Json {
        Json::obj(COMPONENT_NAMES.into_iter().zip(self.components.map(Json::uint)))
    }
}

/// Written by hand: `components` is an array in memory and a named
/// object in JSON.
impl JsonValue for CoreLatency {
    fn to_json(&self) -> Json {
        Json::obj([
            ("read", self.read.to_json()),
            ("write", self.write.to_json()),
            ("components", self.components_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<CoreLatency, String> {
        let named = v.req("components")?;
        let mut components = [0u64; N_COMPONENTS];
        for (slot, name) in components.iter_mut().zip(COMPONENT_NAMES) {
            *slot = named.field(name).map_err(|e| format!("`components` {e}"))?;
        }
        Ok(CoreLatency { read: v.field("read")?, write: v.field("write")?, components })
    }
}

/// The full anatomy of one measured run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LatencyReport {
    /// Indexed by core id.
    pub cores: Vec<CoreLatency>,
    /// Total read latency per global bank index.
    pub banks: Vec<Histogram>,
    /// Cycles core `i`'s oldest read waited on a *bank* held by core `j`.
    pub bank_interference: Matrix,
    /// Cycles core `i`'s oldest read waited on the *bus* held by core `j`.
    pub bus_interference: Matrix,
}

impl LatencyReport {
    /// An empty report sized for `cores` cores and `banks` global banks.
    pub fn new(cores: usize, banks: usize) -> Self {
        LatencyReport {
            cores: vec![CoreLatency::default(); cores],
            banks: vec![Histogram::default(); banks],
            bank_interference: Matrix::new(cores),
            bus_interference: Matrix::new(cores),
        }
    }

    /// Record one completed demand read.
    ///
    /// # Panics
    ///
    /// Panics (in every build profile) unless `components` sum exactly
    /// to `total` — the breakdown must be a partition, not an estimate.
    pub fn record_read(
        &mut self,
        core: usize,
        bank: usize,
        total: u64,
        components: [u64; N_COMPONENTS],
    ) {
        assert_eq!(
            components.iter().sum::<u64>(),
            total,
            "latency components must sum exactly to the total"
        );
        let c = &mut self.cores[core];
        c.read.record(total);
        for (acc, v) in c.components.iter_mut().zip(components) {
            *acc += v;
        }
        self.banks[bank].record(total);
    }

    /// Record one completed writeback.
    pub fn record_write(&mut self, core: usize, total: u64) {
        self.cores[core].write.record(total);
    }

    /// Total demand reads recorded across all cores.
    pub fn total_reads(&self) -> u64 {
        self.cores.iter().map(|c| c.read.count()).sum()
    }

    /// A compact percentile/interference summary, used by `bench_all`'s
    /// suite JSON annotations.
    pub fn summary_json(&self) -> Json {
        Json::obj([
            ("reads", Json::uint(self.total_reads())),
            (
                "cores",
                Json::arr(self.cores.iter().map(|c| {
                    Json::obj([
                        ("reads", Json::uint(c.read.count())),
                        ("mean", Json::num(c.read.mean())),
                        ("p50", Json::uint(c.read.value_at_quantile(0.50))),
                        ("p90", Json::uint(c.read.value_at_quantile(0.90))),
                        ("p99", Json::uint(c.read.value_at_quantile(0.99))),
                        ("max", Json::uint(c.read.max())),
                        ("components", c.components_json()),
                    ])
                })),
            ),
            ("bank_interference_cross_core", Json::uint(self.bank_interference.off_diagonal_sum())),
            ("bus_interference_cross_core", Json::uint(self.bus_interference.off_diagonal_sum())),
        ])
    }
}

impl JsonValue for LatencyReport {
    /// JSON body: `cores`, `banks`, and `interference` keys.
    fn to_json(&self) -> Json {
        Json::obj([
            ("cores", self.cores.to_json()),
            ("banks", self.banks.to_json()),
            (
                "interference",
                Json::obj([
                    ("bank", self.bank_interference.to_json()),
                    ("bus", self.bus_interference.to_json()),
                ]),
            ),
        ])
    }

    /// Rebuild from a JSON value carrying those keys: an error names the
    /// first malformed field, or a matrix that does not match the cores.
    fn from_json(v: &Json) -> Result<LatencyReport, String> {
        let cores: Vec<CoreLatency> = v.field("cores")?;
        let banks = v.field("banks")?;
        let interference = v.req("interference")?;
        let bank_interference: Matrix = interference.field("bank")?;
        let bus_interference: Matrix = interference.field("bus")?;
        if bank_interference.n() != cores.len() || bus_interference.n() != cores.len() {
            return Err("interference matrix size must match core count".into());
        }
        Ok(LatencyReport { cores, banks, bank_interference, bus_interference })
    }
}

/// Per-core read-latency percentile table.
pub fn read_latency_table(r: &LatencyReport) -> Table {
    let mut t = Table::new(["core", "reads", "mean", "p50", "p90", "p99", "max"]);
    for (i, c) in r.cores.iter().enumerate() {
        t.row([
            i.to_string(),
            c.read.count().to_string(),
            format!("{:.1}", c.read.mean()),
            c.read.value_at_quantile(0.50).to_string(),
            c.read.value_at_quantile(0.90).to_string(),
            c.read.value_at_quantile(0.99).to_string(),
            c.read.max().to_string(),
        ]);
    }
    t
}

/// Per-core writeback-latency percentile table.
pub fn write_latency_table(r: &LatencyReport) -> Table {
    let mut t = Table::new(["core", "writes", "mean", "p50", "p99", "max"]);
    for (i, c) in r.cores.iter().enumerate() {
        t.row([
            i.to_string(),
            c.write.count().to_string(),
            format!("{:.1}", c.write.mean()),
            c.write.value_at_quantile(0.50).to_string(),
            c.write.value_at_quantile(0.99).to_string(),
            c.write.max().to_string(),
        ]);
    }
    t
}

/// Per-core component breakdown (percent of total read latency).
pub fn breakdown_table(r: &LatencyReport) -> Table {
    let mut headers = vec!["core".to_string(), "total cycles".to_string()];
    headers.extend(COMPONENT_NAMES.iter().map(|n| format!("{n} %")));
    let mut t = Table::new(headers);
    for (i, c) in r.cores.iter().enumerate() {
        let total = c.read.sum();
        let mut row = vec![i.to_string(), total.to_string()];
        for v in c.components {
            let pct = if total == 0 { 0.0 } else { 100.0 * v as f64 / total as f64 };
            row.push(format!("{pct:.1}"));
        }
        t.row(row);
    }
    t
}

/// An interference matrix as a heatmap-style table: row `i` is the
/// blocked core, column `j` the core holding the resource.
pub fn interference_table(m: &Matrix) -> Table {
    let mut headers = vec!["blocked \\ holder".to_string()];
    headers.extend((0..m.n()).map(|j| format!("core {j}")));
    let mut t = Table::new(headers);
    for i in 0..m.n() {
        let mut row = vec![format!("core {i}")];
        row.extend((0..m.n()).map(|j| m.get(i, j).to_string()));
        t.row(row);
    }
    t
}

/// Per-bank read-latency table (banks that saw no reads are skipped).
pub fn bank_latency_table(r: &LatencyReport) -> Table {
    let mut t = Table::new(["bank", "reads", "mean", "p50", "p99", "max"]);
    for (i, h) in r.banks.iter().enumerate() {
        if h.is_empty() {
            continue;
        }
        t.row([
            i.to_string(),
            h.count().to_string(),
            format!("{:.1}", h.mean()),
            h.value_at_quantile(0.50).to_string(),
            h.value_at_quantile(0.99).to_string(),
            h.max().to_string(),
        ]);
    }
    t
}

/// The full anatomy rendered as the standard sequence of captioned
/// tables — shared by the bench diagnostic experiment and `dbpreport`.
pub fn latency_report_text(r: &LatencyReport) -> String {
    let mut out = String::new();
    out.push_str("read latency (DRAM cycles):\n");
    out.push_str(&read_latency_table(r).render());
    out.push_str("\nread latency breakdown:\n");
    out.push_str(&breakdown_table(r).render());
    out.push_str("\nwriteback latency (DRAM cycles):\n");
    out.push_str(&write_latency_table(r).render());
    out.push_str("\nbank interference matrix (cycles blocked on a bank held by):\n");
    out.push_str(&interference_table(&r.bank_interference).render());
    out.push_str("\nbus interference matrix (cycles blocked on the bus held by):\n");
    out.push_str(&interference_table(&r.bus_interference).render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> LatencyReport {
        let mut r = LatencyReport::new(2, 4);
        r.record_read(0, 1, 100, [10, 20, 30, 5, 35]);
        r.record_read(0, 1, 40, [0, 0, 0, 0, 40]);
        r.record_read(1, 3, 250, [0, 200, 10, 10, 30]);
        r.record_write(1, 60);
        r.bank_interference.add(1, 0, 200);
        r.bus_interference.add(0, 1, 5);
        r
    }

    #[test]
    fn record_read_accumulates_components() {
        let r = sample();
        assert_eq!(r.cores[0].components, [10, 20, 30, 5, 75]);
        assert_eq!(r.cores[0].read.sum(), 140);
        assert_eq!(r.cores[0].components.iter().sum::<u64>(), r.cores[0].read.sum());
        assert_eq!(r.banks[1].count(), 2);
        assert_eq!(r.banks[3].count(), 1);
        assert_eq!(r.total_reads(), 3);
        assert_eq!(r.cores[1].write.count(), 1);
    }

    #[test]
    #[should_panic(expected = "sum exactly")]
    fn record_read_rejects_non_additive_breakdown() {
        LatencyReport::new(1, 1).record_read(0, 0, 100, [10, 20, 30, 5, 36]);
    }

    #[test]
    fn matrix_sums() {
        let mut m = Matrix::new(3);
        m.add(0, 0, 7);
        m.add(0, 2, 1);
        m.add(2, 1, 2);
        assert_eq!(m.total(), 10);
        assert_eq!(m.off_diagonal_sum(), 3);
        let mut other = Matrix::new(3);
        other.add(0, 2, 9);
        m.merge(&other);
        assert_eq!(m.get(0, 2), 10);
    }

    #[test]
    fn from_json_rejects_mismatched_matrix() {
        let mut r = sample();
        r.bank_interference = Matrix::new(3);
        let parsed = json::parse(&r.to_json().to_json()).unwrap();
        assert!(LatencyReport::from_json(&parsed).unwrap_err().contains("size"));
    }

    #[test]
    fn tables_cover_all_cores_and_matrices() {
        let r = sample();
        let text = latency_report_text(&r);
        assert!(text.contains("read latency breakdown"));
        assert!(text.contains("bank interference matrix"));
        assert_eq!(read_latency_table(&r).len(), 2);
        assert_eq!(interference_table(&r.bank_interference).len(), 2);
        // Only the two banks with traffic appear.
        assert_eq!(bank_latency_table(&r).len(), 2);
        // Breakdown percentages sum to ~100 for an active core.
        let b = breakdown_table(&r);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn summary_json_exposes_cross_core_totals() {
        let doc = json::parse(&sample().summary_json().to_json()).unwrap();
        assert_eq!(doc.get("reads").and_then(Json::as_num), Some(3.0));
        assert_eq!(doc.get("bank_interference_cross_core").and_then(Json::as_num), Some(200.0));
        assert_eq!(doc.get("bus_interference_cross_core").and_then(Json::as_num), Some(5.0));
        let cores = doc.get("cores").and_then(Json::as_arr).unwrap();
        assert_eq!(cores.len(), 2);
        assert!(cores[0].get("p99").is_some());
    }
}
