//! Figure 20: L2 data cache miss rate, baseline vs SoftWalker — plus the
//! DRAM bandwidth utilization the accompanying discussion quotes.
//!
//! Paper headline: the extra page-walk traffic leaves the L2 miss rate
//! essentially unchanged, because the baseline leaves the memory system
//! underutilized (irregular apps use only ~6.7% of DRAM bandwidth).

use swgpu_bench::report::fmt_pct;
use swgpu_bench::{mean, parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::{table4, WorkloadClass};

fn main() {
    let h = parse_args();
    let configs = [SystemConfig::Baseline, SystemConfig::SoftWalker].map(|s| s.build(h.scale));
    let grid = Grid::run(&Runner::from_harness(&h), table4(), &configs);
    let mut table = Table::new(vec![
        "bench".into(),
        "class".into(),
        "L2D miss (base)".into(),
        "L2D miss (SW)".into(),
        "delta".into(),
        "DRAM util (base)".into(),
        "DRAM util (SW)".into(),
    ]);

    let mut base_utils = Vec::new();
    for (spec, row) in grid.rows() {
        let (base, sw) = (&row[0], &row[1]);
        let mb = base.l2d.miss_rate();
        let ms = sw.l2d.miss_rate();
        table.row(vec![
            spec.abbr.to_string(),
            format!("{:?}", spec.class),
            fmt_pct(mb),
            fmt_pct(ms),
            format!("{:+.1}pp", (ms - mb) * 100.0),
            fmt_pct(base.dram_utilization),
            fmt_pct(sw.dram_utilization),
        ]);
        if spec.class == WorkloadClass::Irregular {
            base_utils.push(base.dram_utilization);
        }
    }

    println!("Figure 20 — L2 data cache miss rate (baseline vs SoftWalker)");
    println!("(paper: miss rate unchanged; baseline irregular DRAM utilization ~6.7%)\n");
    table.print(h.csv);
    println!(
        "mean baseline DRAM utilization (irregular): {}",
        fmt_pct(mean(&base_utils))
    );
}
