//! Figure 4: average memory access latency as the number of concurrent
//! page walks grows — the paper's real-GPU (NVIDIA A2000) contention
//! microbenchmark, replayed on the simulated baseline.
//!
//! Paper headline: latency grows roughly linearly with concurrency once
//! the walkers saturate; at 256 concurrent walks it is ~4x the
//! single-walk latency.

use swgpu_bench::{parse_args, Cell, Runner, Table};
use swgpu_sim::GpuConfig;

fn main() {
    let h = parse_args();
    let accesses_per_warp: u32 = 16;
    let concurrency = [1usize, 2, 4, 8, 16, 32, 64, 128, 256];
    let mut table = Table::new(vec![
        "concurrent walks".into(),
        "avg access latency (cyc)".into(),
        "vs 1 walk".into(),
    ]);

    let cell_at = |concurrent: usize| {
        let cfg = GpuConfig {
            sms: 32.min(concurrent.max(1)),
            max_warps: concurrent.div_ceil(32.min(concurrent.max(1))).max(1),
            ..GpuConfig::default()
        };
        let warps_per_sm = cfg.max_warps;
        Cell::micro(
            cfg,
            concurrent,
            warps_per_sm,
            accesses_per_warp,
            4 * 1024 * 1024 * 1024,
        )
    };
    let cells: Vec<Cell> = concurrency.iter().map(|&c| cell_at(c)).collect();
    let runs = Runner::from_harness(&h).run_cells(&cells);

    let mut first = None;
    for (stats, &concurrent) in runs.iter().zip(&concurrency) {
        // Each single-lane warp issues its accesses serially, so per-access
        // latency is total runtime divided by the per-warp access count.
        let latency = stats.cycles as f64 / f64::from(accesses_per_warp);
        let base = *first.get_or_insert(latency);
        table.row(vec![
            concurrent.to_string(),
            format!("{latency:.0}"),
            format!("{:.2}x", latency / base),
        ]);
    }

    println!("Figure 4 — memory access latency vs concurrent page walks (32-PTW baseline)");
    println!("(paper: ~4x latency at 256 concurrent walks on an A2000)\n");
    table.print(h.csv);
}
