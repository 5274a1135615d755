//! Figure 15: speedup versus relative area overhead for hardware PTW
//! scaling (various walker counts x PWB port counts) against SoftWalker.
//!
//! Paper headline: within the area budget where hardware manages 32–128
//! PTWs (speedups 1.1x–2.1x), SoftWalker delivers over 2.6x.

use swgpu_area::{relative_area, softwalker_relative_area, PtwAreaConfig};
use swgpu_bench::report::fmt_x;
use swgpu_bench::{parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::irregular;

fn main() {
    let h = parse_args();
    let points: Vec<(usize, usize)> = [32usize, 64, 128, 256]
        .iter()
        .flat_map(|&w| [1usize, 2, 4].map(|p| (w, p)))
        .collect();
    // Columns: the baseline, every hardware point, then SoftWalker.
    let mut configs = vec![SystemConfig::Baseline.build(h.scale)];
    configs.extend(points.iter().map(|&(walkers, ports)| {
        let mut cfg = SystemConfig::ScaledPtw {
            walkers,
            scale_mshrs: true,
        }
        .build(h.scale);
        cfg.ptw.pwb_ports = ports;
        cfg
    }));
    configs.push(SystemConfig::SoftWalker.build(h.scale));
    let grid = Grid::run(&Runner::from_harness(&h), irregular(), &configs);
    let geo = grid.geomean_speedups(false);

    let mut table = Table::new(vec![
        "config".into(),
        "PWB ports".into(),
        "relative area".into(),
        "speedup (geomean irregular)".into(),
    ]);
    for (i, &(walkers, ports)) in points.iter().enumerate() {
        let area = relative_area(PtwAreaConfig::scaled(walkers, ports));
        // 32 PTWs on one port is the baseline itself.
        let x = if walkers == 32 && ports == 1 {
            1.0
        } else {
            geo[1 + i]
        };
        table.row(vec![
            format!("{walkers}PTW"),
            ports.to_string(),
            format!("{area:.1}"),
            fmt_x(x),
        ]);
    }

    let sw_area = softwalker_relative_area(h.scale.sms(), 1024);
    table.row(vec![
        "SoftWalker".into(),
        "-".into(),
        format!("{sw_area:.1}"),
        fmt_x(geo[1 + points.len()]),
    ]);

    println!("Figure 15 — speedup vs relative area (normalized to 32 PTWs, 1 PWB port)");
    println!("(paper: hardware reaches 1.1x-2.1x inside the 16-64x area box; SoftWalker exceeds 2.6x at lower area)\n");
    table.print(h.csv);
}
