//! Ablation: PW Warp design choices.
//!
//! Sweeps the three knobs the paper fixes by construction, to show *why*
//! its choices are sufficient:
//!
//! 1. **Walk threads / SoftPWB entries per SM** (paper: 32/32) — speedup
//!    saturates once per-SM concurrency covers the per-SM miss demand.
//! 2. **Instruction overhead** of the Figure 14 routine — the per-walk
//!    execution cost barely matters because queueing, not execution,
//!    dominated the baseline (Key Insight 3).
//! 3. **Distributor dispatch rate** — one or two dispatches per cycle
//!    suffice to feed every SM.

use swgpu_bench::report::fmt_x;
use swgpu_bench::{parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_sim::GpuConfig;
use swgpu_workloads::irregular;

fn main() {
    let h = parse_args();
    let sw = |tweak: &dyn Fn(&mut GpuConfig)| {
        let mut cfg = SystemConfig::SoftWalker.build(h.scale);
        tweak(&mut cfg);
        cfg
    };
    // Each sweep: its title, its table header, and its points as (row
    // label, SoftWalker configuration).
    let sweeps = [
        (
            "Ablation 1 — PW threads per SM (paper fixes 32):\n",
            "PW threads / SoftPWB",
            [4usize, 8, 16, 32, 64]
                .map(|n| {
                    let cfg = sw(&|c| {
                        c.pw_warp.threads = n;
                        c.pw_warp.softpwb_entries = n;
                    });
                    (n.to_string(), cfg)
                })
                .to_vec(),
        ),
        (
            "\nAblation 2 — walk-routine instruction overhead (paper's routine ≈ 6 setup + 3/level):\n",
            "setup/per-level instrs",
            [(1u32, 1u32), (6, 3), (12, 6), (24, 12), (48, 24)]
                .map(|(setup, per_level)| {
                    let cfg = sw(&|c| {
                        c.pw_warp.setup_instrs = setup;
                        c.pw_warp.per_level_instrs = per_level;
                    });
                    (format!("{setup}/{per_level}"), cfg)
                })
                .to_vec(),
        ),
        (
            "\nAblation 3 — Request Distributor dispatch rate:\n",
            "dispatches/cycle",
            [1usize, 2, 4, 8]
                .map(|rate| (rate.to_string(), sw(&|c| c.dispatches_per_cycle = rate)))
                .to_vec(),
        ),
    ];
    // Columns: the baseline, then every sweep's points in order.
    let mut configs = vec![SystemConfig::Baseline.build(h.scale)];
    for (_, _, points) in &sweeps {
        configs.extend(points.iter().map(|(_, cfg)| cfg.clone()));
    }
    // A 4-benchmark representative subset keeps the sweeps affordable.
    let subset = irregular()
        .into_iter()
        .filter(|s| ["gups", "xsb", "bfs", "spmv"].contains(&s.abbr))
        .collect();
    let grid = Grid::run(&Runner::from_harness(&h), subset, &configs);
    let mut geo = grid.geomean_speedups(false).into_iter().skip(1);

    for (title, header, points) in &sweeps {
        let mut table = Table::new(vec![header.to_string(), "speedup".into()]);
        for ((label, _), x) in points.iter().zip(geo.by_ref()) {
            table.row(vec![label.clone(), fmt_x(x)]);
        }
        println!("{title}");
        table.print(h.csv);
    }
    println!("\n(speedups are geomeans over gups/xsb/bfs/spmv vs the 32-PTW baseline)");
}
