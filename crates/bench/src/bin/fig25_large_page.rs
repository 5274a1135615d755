//! Figure 25: SoftWalker speedup over the baseline when both use 2 MB
//! pages, for the 10 benchmarks whose footprints scale beyond the 2 MB
//! L2 TLB coverage (2 GB).
//!
//! Paper headline: 7 of 10 apps still speed up — sssp 1.26x, nw 1.18x,
//! gesv 2.29x, and xsb/spmv/gups keep large 5.1x/4.5x/7.0x gains.

use swgpu_bench::report::fmt_x;
use swgpu_bench::{parse_args, runner, Cell, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::table4;

fn main() {
    let h = parse_args();
    let pct = runner::LARGE_PAGE_FOOTPRINT_PERCENT;
    let systems = [SystemConfig::Baseline, SystemConfig::SoftWalker];
    let (grid, _) = Grid::run_with(
        &Runner::from_harness(&h),
        table4().into_iter().filter(|b| b.scalable).collect(),
        systems.len(),
        |spec, col| Cell::bench_scaled(spec, systems[col].build(h.scale).with_large_pages(), pct),
        Vec::new(),
    );

    let mut table = Table::new(vec![
        "bench".into(),
        "footprint (xTable4)".into(),
        "speedup (2MB pages)".into(),
    ]);
    for (spec, row) in grid.rows() {
        table.row(vec![
            spec.abbr.to_string(),
            format!("{}x", pct / 100),
            fmt_x(row[1].speedup_over(&row[0])),
        ]);
    }

    println!("Figure 25 — SoftWalker speedup with 2 MB pages (scaled footprints)");
    println!("(paper: 7/10 apps improve; xsb 5.1x, spmv 4.5x, gups 7.0x)\n");
    table.print(h.csv);
    println!("geomean: {}", fmt_x(grid.geomean_speedups(false)[1]));
}
