//! Figure 23: sensitivity to the per-level page-table access latency
//! (fixed at 50–400 cycles per level for both baseline and SoftWalker).
//!
//! Paper headline: SoftWalker's speedup grows with per-level latency —
//! 1.6x / 2.3x / 3.5x / 4.2x / 4.8x at 50/100/200/300/400 cycles — and
//! so does the queueing-delay reduction, because slower walks deepen the
//! baseline's queues.

use swgpu_bench::report::{fmt_pct, fmt_x};
use swgpu_bench::{geomean, parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::irregular;

fn main() {
    let h = parse_args();
    let latencies = [50u64, 100, 200, 300, 400];
    // Columns: (baseline, SoftWalker) at each latency in turn.
    let configs: Vec<_> = latencies
        .iter()
        .flat_map(|&lat| {
            [SystemConfig::Baseline, SystemConfig::SoftWalker]
                .map(|sys| sys.build(h.scale).with_fixed_walk_latency(lat))
        })
        .collect();
    let grid = Grid::run(&Runner::from_harness(&h), irregular(), &configs);

    let mut table = Table::new(vec![
        "per-level latency".into(),
        "speedup (geomean irregular)".into(),
        "queue-delay reduction".into(),
    ]);
    for (i, &lat) in latencies.iter().enumerate() {
        let mut speedups = Vec::new();
        let mut q_base = 0u64;
        let mut q_sw = 0u64;
        for (_, row) in grid.rows() {
            let (base, sw) = (&row[2 * i], &row[2 * i + 1]);
            speedups.push(sw.speedup_over(base));
            q_base += base.walk.queue_cycles;
            q_sw += sw.walk.queue_cycles;
        }
        let red = 1.0 - q_sw as f64 / q_base.max(1) as f64;
        table.row(vec![
            format!("{lat} cyc"),
            fmt_x(geomean(&speedups)),
            fmt_pct(red),
        ]);
    }

    println!("Figure 23 — impact of per-level page-table access latency (irregular set)");
    println!("(paper: 1.6x/2.3x/3.5x/4.2x/4.8x at 50/100/200/300/400 cycles)\n");
    table.print(h.csv);
}
