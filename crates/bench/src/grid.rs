//! Benchmark × configuration grids and the speedup tables built over them.

use crate::report::{fmt_x, geomean, Table};
use crate::runner::{Cell, Runner};
use swgpu_sim::{GpuConfig, SimStats};
use swgpu_workloads::{BenchmarkSpec, WorkloadClass};

/// A resolved benchmark × configuration grid: one row per benchmark, one
/// column per configuration. Column 0 is the base every speedup is
/// measured against.
#[derive(Debug)]
pub struct Grid {
    specs: Vec<BenchmarkSpec>,
    rows: Vec<Vec<SimStats>>,
}

impl Grid {
    /// Resolves `specs` × `configs` at the published footprint in one
    /// runner batch.
    pub fn run(runner: &Runner, specs: Vec<BenchmarkSpec>, configs: &[GpuConfig]) -> Self {
        let cell = |spec: &BenchmarkSpec, col: usize| Cell::bench(spec, configs[col].clone());
        Self::run_with(runner, specs, configs.len(), cell, Vec::new()).0
    }

    /// Resolves a `width`-column grid whose cells `cell(spec, column)`
    /// builds, in one batch with the `extra` cells; their stats come back
    /// second, in order.
    pub fn run_with(
        runner: &Runner,
        specs: Vec<BenchmarkSpec>,
        width: usize,
        cell: impl Fn(&BenchmarkSpec, usize) -> Cell,
        extra: Vec<Cell>,
    ) -> (Self, Vec<SimStats>) {
        let mut cells: Vec<Cell> = specs
            .iter()
            .flat_map(|spec| (0..width).map(|col| cell(spec, col)))
            .collect();
        let grid_cells = cells.len();
        cells.extend(extra);
        let mut stats = runner.run_cells(&cells);
        let extra = stats.split_off(grid_cells);
        let mut stats = stats.into_iter();
        let rows = specs
            .iter()
            .map(|_| stats.by_ref().take(width).collect())
            .collect();
        (Grid { specs, rows }, extra)
    }

    /// The rows: each benchmark with its stats, one per column.
    pub fn rows(&self) -> impl Iterator<Item = (&BenchmarkSpec, &[SimStats])> {
        self.specs.iter().zip(self.rows.iter().map(Vec::as_slice))
    }

    /// Splits the grid into columns `..col` and `col..`: two grids over
    /// the same benchmarks, each with its own base column.
    pub fn split_at(self, col: usize) -> (Grid, Grid) {
        let (left, right) = self
            .rows
            .into_iter()
            .map(|mut row| {
                let right = row.split_off(col);
                (row, right)
            })
            .unzip();
        let left = Grid {
            specs: self.specs.clone(),
            rows: left,
        };
        (
            left,
            Grid {
                specs: self.specs,
                rows: right,
            },
        )
    }

    /// The geomean over the rows (the irregular ones only when
    /// `irregular_only`) of each column's speedup over column 0.
    pub fn geomean_speedups(&self, irregular_only: bool) -> Vec<f64> {
        let rows: Vec<&[SimStats]> = self
            .rows()
            .filter(|(spec, _)| !irregular_only || spec.class == WorkloadClass::Irregular)
            .map(|(_, row)| row)
            .collect();
        let width = self.rows.first().map_or(0, Vec::len);
        (0..width)
            .map(|col| {
                let xs: Vec<f64> = rows.iter().map(|r| r[col].speedup_over(&r[0])).collect();
                geomean(&xs)
            })
            .collect()
    }

    /// The speedup table: one row per benchmark with each column's
    /// speedup over column 0, then a geomean row. `labels` heads the
    /// reported columns: every column, or every column but the base. With
    /// `class`, a class column follows the benchmark and the geomean rows
    /// are two, over all benchmarks and over the irregular ones.
    ///
    /// # Panics
    ///
    /// Panics when `labels` names neither every column nor every column
    /// but the base.
    pub fn speedup_table(&self, labels: &[String], class: bool) -> Table {
        let width = self.rows.first().map_or(0, Vec::len);
        assert!(
            labels.len() == width || labels.len() + 1 == width,
            "{} labels for {width} columns",
            labels.len()
        );
        let first = width - labels.len();
        let mut headers = vec!["bench".to_string()];
        if class {
            headers.push("class".into());
        }
        headers.extend_from_slice(labels);
        let mut table = Table::new(headers);
        for (spec, row) in self.rows() {
            let mut cells = vec![spec.abbr.to_string()];
            if class {
                cells.push(format!("{:?}", spec.class));
            }
            cells.extend(row[first..].iter().map(|s| fmt_x(s.speedup_over(&row[0]))));
            table.row(cells);
        }
        let summaries: &[(&str, bool)] = if class {
            &[("all", false), ("irregular", true)]
        } else {
            &[("", false)]
        };
        for &(label, irregular_only) in summaries {
            let mut cells = vec!["geomean".to_string()];
            if class {
                cells.push(label.into());
            }
            let geo = self.geomean_speedups(irregular_only);
            cells.extend(geo[first..].iter().map(|&x| fmt_x(x)));
            table.row(cells);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_workloads::by_abbr;

    fn close(xs: &[f64], want: &[f64]) -> bool {
        xs.len() == want.len() && xs.iter().zip(want).all(|(x, w)| (x - w).abs() < 1e-9)
    }

    /// A grid over hand-built stats: no simulation.
    fn grid(rows: &[(&str, &[u64])]) -> Grid {
        let specs = rows
            .iter()
            .map(|(abbr, _)| by_abbr(abbr).unwrap())
            .collect();
        let rows = rows
            .iter()
            .map(|(_, cycles)| {
                cycles
                    .iter()
                    .map(|&cycles| SimStats {
                        cycles,
                        ..SimStats::default()
                    })
                    .collect()
            })
            .collect();
        Grid { specs, rows }
    }

    fn lines(t: &Table) -> Vec<String> {
        t.to_csv().lines().map(str::to_string).collect()
    }

    #[test]
    fn speedups_are_over_column_zero() {
        // gups is irregular, gemm regular.
        let g = grid(&[("gups", &[800, 200, 400]), ("gemm", &[100, 100, 50])]);
        let t = g.speedup_table(&["A".into(), "B".into()], false);
        assert_eq!(
            lines(&t),
            [
                "bench,A,B",
                "gups,4.00x,2.00x",
                "gemm,1.00x,2.00x",
                // geomean(4, 1) = 2, geomean(2, 2) = 2.
                "geomean,2.00x,2.00x",
            ]
        );
        let t = g.speedup_table(&["base".into(), "A".into(), "B".into()], false);
        assert_eq!(lines(&t)[0], "bench,base,A,B");
        assert_eq!(lines(&t)[1], "gups,1.00x,4.00x,2.00x");
    }

    #[test]
    fn class_column_and_irregular_row_only_when_asked() {
        let g = grid(&[("gups", &[900, 100]), ("gemm", &[100, 100])]);
        let t = g.speedup_table(&["A".into()], true);
        assert_eq!(
            lines(&t),
            [
                "bench,class,A",
                "gups,Irregular,9.00x",
                "gemm,Regular,1.00x",
                "geomean,all,3.00x",
                "geomean,irregular,9.00x",
            ]
        );
        let t = g.speedup_table(&["A".into()], false);
        assert!(!t.to_csv().contains("irregular") && !t.to_csv().contains("Regular"));
        assert_eq!(t.len(), 3);
        let irr = g.geomean_speedups(true);
        assert!((irr[1] - 9.0).abs() < 1e-9, "{irr:?}");
    }

    #[test]
    fn split_gives_each_half_its_own_base() {
        let g = grid(&[("gups", &[100, 50, 300, 100])]);
        let (left, right) = g.split_at(2);
        assert!(close(&left.geomean_speedups(false), &[1.0, 2.0]));
        assert!(close(&right.geomean_speedups(false), &[1.0, 3.0]));
    }

    #[test]
    #[should_panic(expected = "1 labels for 3 columns")]
    fn labels_must_cover_the_reported_columns() {
        grid(&[("gups", &[1, 2, 3])]).speedup_table(&["A".into()], false);
    }
}
