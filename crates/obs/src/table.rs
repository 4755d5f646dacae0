//! Plain-text table rendering shared by the simulator report layer, the
//! bench harness, and the `dbpreport` bin.
//!
//! Lived in `dbp-sim` originally; moved down here so `dbpreport` (which
//! must not depend on the simulator) renders with the same code that
//! produced every committed `results/*.txt` table.

/// Human-readable wall time: picks ns/us/ms/s to keep 3-4 significant
/// digits. Shared by the experiment-suite timing summary and the
/// self-profiler tables. (Lives here rather
/// than `dbp-util` because util depends on this crate, not the other
/// way round; `dbp_util::bench::fmt_ns` re-exports it.)
pub fn fmt_ns(ns: u128) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// A simple fixed-width table accumulated row by row.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Per-column alignment; `true` = left. Defaults to right (numeric).
    left: Vec<bool>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(headers: impl IntoIterator<Item = S>) -> Self {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let left = vec![false; headers.len()];
        Table { headers, rows: Vec::new(), left }
    }

    /// Left-align column `col` (name-like columns; numeric columns keep
    /// the right-aligned default).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn align_left(&mut self, col: usize) -> &mut Self {
        self.left[col] = true;
        self
    }

    /// Append a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row<S: Into<String>>(&mut self, cells: impl IntoIterator<Item = S>) -> &mut Self {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
        self
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for c in 0..cols {
                widths[c] = widths[c].max(row[c].len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let line = cells
                .iter()
                .zip(widths)
                .zip(&self.left)
                .map(
                    |((cell, w), &l)| {
                        if l {
                            format!("{cell:<w$}")
                        } else {
                            format!("{cell:>w$}")
                        }
                    },
                )
                .collect::<Vec<_>>()
                .join("  ");
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as a GitHub-flavoured markdown table (columns follow the
    /// same alignment [`Table::render`] uses: right by default, left
    /// where [`Table::align_left`] was called).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for &l in &self.left {
            out.push_str(if l { " :--- |" } else { " ---: |" });
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }

    /// Render as CSV (headers first; cells containing commas or quotes
    /// are quoted per RFC 4180).
    pub fn to_csv(&self) -> String {
        fn esc(cell: &str) -> String {
            if cell.contains(',') || cell.contains('"') || cell.contains('\n') {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        }
        let mut out = String::new();
        out.push_str(&self.headers.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| esc(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Emit one captioned table in either plain (`render`) or markdown
/// format — the shape every `dbpreport` renderer emits.
pub fn push_table(out: &mut String, caption: &str, t: &Table, md: bool) {
    if md {
        out.push_str(&format!("\n**{caption}**\n\n"));
        out.push_str(&t.to_markdown());
    } else {
        out.push_str(&format!("\n{caption}:\n"));
        out.push_str(&t.render());
    }
}

/// One line of run context pulled from a document's `summary` object,
/// if any (string and numeric entries only).
pub fn summary_line(doc: &crate::json::Json) -> String {
    use crate::json::Json;
    let Some(Json::Obj(pairs)) = doc.get("summary") else { return String::new() };
    let mut parts = Vec::new();
    for (k, v) in pairs {
        match v {
            Json::Str(s) => parts.push(format!("{k}={s}")),
            Json::Num(n) => parts.push(format!("{k}={n}")),
            Json::Bool(b) => parts.push(format!("{k}={b}")),
            _ => {}
        }
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("summary: {}\n", parts.join("  "))
    }
}

/// A unicode block-character sparkline of `values` scaled to their own
/// min..max range (empty input renders as an empty string).
pub fn sparkline(values: &[f64]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    let (lo, hi) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    values
        .iter()
        .map(|&v| {
            if !v.is_finite() {
                return '·';
            }
            if hi <= lo {
                return BARS[0];
            }
            let t = (v - lo) / (hi - lo);
            BARS[((t * 7.0).round() as usize).min(7)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(["mix", "WS"]);
        t.row(["mix100-1", "2.531"]);
        t.row(["gmean", "2.1"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("mix"));
        assert!(lines[2].contains("mix100-1"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_escapes_special_cells() {
        let mut t = Table::new(["name", "value"]);
        t.row(["plain", "1"]);
        t.row(["with,comma", "say \"hi\""]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "name,value");
        assert_eq!(lines[1], "plain,1");
        assert_eq!(lines[2], "\"with,comma\",\"say \"\"hi\"\"\"");
    }

    #[test]
    fn markdown_has_alignment_row() {
        let mut t = Table::new(["core", "p99"]);
        t.row(["0", "412"]);
        let md = t.to_markdown();
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines[0], "| core | p99 |");
        assert_eq!(lines[1], "| ---: | ---: |");
        assert_eq!(lines[2], "| 0 | 412 |");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_panics() {
        Table::new(["a", "b"]).row(["only-one"]);
    }

    #[test]
    fn left_aligned_columns_pad_on_the_right() {
        let mut t = Table::new(["span", "ns"]);
        t.align_left(0);
        t.row(["tick", "12"]);
        t.row(["a-longer-name", "3"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].starts_with("tick "), "{s}");
        assert!(!lines[2].ends_with(' '), "no trailing pad: {s:?}");
        let md = t.to_markdown();
        assert!(md.lines().nth(1).unwrap().contains(":---"), "{md}");
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.500 us");
        assert_eq!(fmt_ns(2_000_000), "2.000 ms");
        assert_eq!(fmt_ns(3_210_000_000), "3.210 s");
    }

    #[test]
    fn sparkline_scales_to_range() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0, 1.0]), "▁▁");
        let s = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(s.chars().count(), 3);
        assert!(s.starts_with('▁') && s.ends_with('█'));
        assert_eq!(sparkline(&[f64::NAN, 2.0]), "·▁");
    }
}
