//! Figure 19: reduction of warp-scheduler stall cycles under SoftWalker
//! relative to the baseline.
//!
//! Paper headline: 71% average stall reduction for irregular apps;
//! regular apps can see up to +10% more stalls (negative reduction).

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
        "baseline stalls".into(),
        "SoftWalker stalls".into(),
        "reduction".into(),
    ]);

    let mut irr = Vec::new();
    let mut reg = Vec::new();
    for (spec, row) in grid.rows() {
        let (base, sw) = (&row[0], &row[1]);
        let red = sw.stall_reduction_vs(base);
        table.row(vec![
            spec.abbr.to_string(),
            format!("{:?}", spec.class),
            base.stall_cycles().to_string(),
            sw.stall_cycles().to_string(),
            fmt_pct(red),
        ]);
        match spec.class {
            WorkloadClass::Irregular => irr.push(red),
            WorkloadClass::Regular => reg.push(red),
        }
    }

    println!("Figure 19 — stall-cycle reduction under SoftWalker");
    println!("(paper: irregular avg 71%; regular up to −10%)\n");
    table.print(h.csv);
    println!(
        "mean reduction: irregular {} | regular {}",
        fmt_pct(mean(&irr)),
        fmt_pct(mean(&reg))
    );
}
