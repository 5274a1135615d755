//! Figure 12: scaling PTWs only, L2 TLB MSHRs only, or both together —
//! for irregular apps at 64 KB and 2 MB pages, normalized to the
//! 32-PTW / 128-MSHR baseline.
//!
//! Paper headline (fraction of the ideal speedup reached at the largest
//! scale): 64 KB — PTWs-only 59.3%, MSHRs-only 30.4%; 2 MB — 83.4% and
//! 63.7%. Both must scale together.

use swgpu_bench::report::{fmt_pct, fmt_x};
use swgpu_bench::{parse_args, runner, Cell, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::irregular;

/// A scaling strategy: its name and its configuration at a factor.
type Strategy = (&'static str, fn(usize) -> SystemConfig);

/// The strategies one sub-figure compares.
const STRATEGIES: [Strategy; 3] = [
    ("PTWs", |f| SystemConfig::ScaledPtw {
        walkers: 32 * f,
        scale_mshrs: false,
    }),
    ("MSHRs", |f| SystemConfig::ScaledMshr { entries: 128 * f }),
    ("PTWs+MSHRs", |f| SystemConfig::ScaledPtw {
        walkers: 32 * f,
        scale_mshrs: true,
    }),
];

fn main() {
    let h = parse_args();
    let factors = [2usize, 4, 8];

    // One sub-figure's columns: baseline, ideal, then every strategy at
    // every factor.
    let mut systems = vec![SystemConfig::Baseline, SystemConfig::Ideal];
    for (_, scaled) in STRATEGIES {
        systems.extend(factors.map(scaled));
    }
    let n = systems.len();
    // Columns: the 64 KB-page sub-figure, then the 2 MB-page one.
    let (grid, _) = Grid::run_with(
        &Runner::from_harness(&h),
        irregular(),
        2 * n,
        |spec, col| {
            let mut cfg = systems[col % n].build(h.scale);
            let pct = if col >= n {
                cfg = cfg.with_large_pages();
                runner::LARGE_PAGE_FOOTPRINT_PERCENT
            } else {
                100
            };
            Cell::bench_scaled(spec, cfg, pct)
        },
        Vec::new(),
    );
    let (small, large) = grid.split_at(n);

    for (page, grid) in [("64KB", small), ("2MB", large)] {
        let mut headers = vec!["strategy".to_string()];
        headers.extend(
            factors
                .iter()
                .map(|f| format!("x{f} (={} PTWs/{} MSHRs)", 32 * f, 128 * f)),
        );
        headers.push("% of ideal @max".into());
        let mut table = Table::new(headers);

        let geo = grid.geomean_speedups(false);
        let ideal_geo = geo[1];
        for (s, (name, _)) in STRATEGIES.iter().enumerate() {
            let strategy = &geo[2 + s * factors.len()..2 + (s + 1) * factors.len()];
            let mut cells = vec![name.to_string()];
            cells.extend(strategy.iter().map(|&x| fmt_x(x)));
            // "% of ideal": how much of the ideal's gain the strategy
            // captured at the largest factor.
            let last_geo = strategy[factors.len() - 1];
            let frac = ((last_geo - 1.0) / (ideal_geo - 1.0).max(1e-9)).clamp(0.0, 2.0);
            cells.push(fmt_pct(frac));
            table.row(cells);
        }
        table.row(vec![
            "Ideal".into(),
            String::new(),
            String::new(),
            fmt_x(ideal_geo),
            fmt_pct(1.0),
        ]);

        println!("Figure 12 ({page} pages) — scaling PTWs vs MSHRs vs both (irregular geomean)\n");
        table.print(h.csv);
        println!();
    }
    println!("(paper: 64KB — PTWs-only 59.3% of ideal, MSHRs-only 30.4%; 2MB — 83.4% / 63.7%)");
}
