//! Figure 6: page-walk contention persists under prior techniques —
//! scaling PTWs still pays off when (a) NHA coalescing or (b) 2 MB large
//! pages are applied, on the 10 footprint-scalable benchmarks.
//!
//! Paper headline: even with coalescing or large pages, growing the
//! walker pool keeps improving performance, so higher walk throughput is
//! complementary to prior work.

use swgpu_bench::{parse_args, runner, Cell, Grid, Runner, Scale, SystemConfig};
use swgpu_workloads::{table4, BenchmarkSpec};

/// The (config, footprint%) cell for `walkers` PTWs under one of the two
/// prior techniques.
fn cell_at(spec: &BenchmarkSpec, scale: Scale, walkers: usize, large_pages: bool) -> Cell {
    let mut cfg = SystemConfig::ScaledPtw {
        walkers,
        scale_mshrs: true,
    }
    .build(scale);
    let pct = if large_pages {
        cfg = cfg.with_large_pages();
        runner::LARGE_PAGE_FOOTPRINT_PERCENT
    } else {
        cfg.ptw.nha = true;
        100
    };
    Cell::bench_scaled(spec, cfg, pct)
}

fn main() {
    let h = parse_args();
    let ptws = [32usize, 128, 512];
    let n = ptws.len();
    // Columns: the PTW sweep under NHA, then under 2 MB pages.
    let (grid, _) = Grid::run_with(
        &Runner::from_harness(&h),
        table4().into_iter().filter(|b| b.scalable).collect(),
        2 * n,
        |spec, col| cell_at(spec, h.scale, ptws[col % n], col >= n),
        Vec::new(),
    );
    let (nha, large) = grid.split_at(n);

    let labels: Vec<String> = ptws.iter().map(|n| format!("{n}PTW")).collect();
    for (title, grid) in [
        ("(a) with NHA coalescing", nha),
        ("(b) with 2MB pages", large),
    ] {
        println!("Figure 6{title} — PTW scaling still helps (normalized to 32 PTWs under the same technique)\n");
        grid.speedup_table(&labels, false).print(h.csv);
        println!();
    }
    println!("(paper: substantial gains from extra PTWs remain under both techniques)");
}
