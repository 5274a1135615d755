//! Table formatting and summary statistics for the figure harnesses.

/// Geometric mean of a slice of positive values (the paper's averages for
/// speedups are geometric-mean-like "average speedup" numbers).
///
/// # Example
///
/// ```
/// let g = swgpu_bench::geomean(&[1.0, 4.0]);
/// assert!((g - 2.0).abs() < 1e-12);
/// ```
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean of a slice (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// A simple aligned-column table that also knows how to dump itself as
/// CSV — every harness prints one of these.
///
/// # Example
///
/// ```
/// let mut t = swgpu_bench::Table::new(vec!["bench".into(), "speedup".into()]);
/// t.row(vec!["gups".into(), "4.52".into()]);
/// let rendered = t.render();
/// assert!(rendered.contains("gups"));
/// assert!(t.to_csv().starts_with("bench,speedup"));
/// ```
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: Vec<String>) -> Self {
        Self {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the aligned human-readable table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:<w$}", c, w = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders as CSV (headers + rows). Cells containing commas, double
    /// quotes, or newlines are quoted per RFC 4180 (embedded quotes are
    /// doubled); plain cells pass through unquoted.
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n', '\r']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        for line in std::iter::once(&self.headers).chain(&self.rows) {
            for (j, cell) in line.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&escape(cell));
            }
            out.push('\n');
        }
        out
    }

    /// Prints the table, optionally followed by its CSV form.
    pub fn print(&self, csv: bool) {
        println!("{}", self.render());
        if csv {
            println!("--- csv ---");
            println!("{}", self.to_csv());
        }
    }
}

/// Formats a speedup as `1.23x`.
pub fn fmt_x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Formats a fraction as a percentage.
pub fn fmt_pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn table_alignment() {
        let mut t = Table::new(vec!["a".into(), "long_header".into()]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("a     "), "{:?}", lines[0]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn csv_round_trip() {
        let mut t = Table::new(vec!["x".into(), "y".into()]);
        t.row(vec!["1".into(), "2".into()]);
        assert_eq!(t.to_csv(), "x,y\n1,2\n");
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_quotes_special_cells_per_rfc4180() {
        let mut t = Table::new(vec!["metric".into(), "value".into()]);
        t.row(vec!["queue, then access".into(), "95%".into()]);
        t.row(vec!["say \"hi\"".into(), "a\nb".into()]);
        assert_eq!(
            t.to_csv(),
            "metric,value\n\"queue, then access\",95%\n\"say \"\"hi\"\"\",\"a\nb\"\n"
        );
    }

    #[test]
    fn format_helpers() {
        assert_eq!(fmt_x(2.239), "2.24x");
        assert_eq!(fmt_pct(0.728), "72.8%");
    }
}
