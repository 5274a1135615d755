//! Figure 17: reduction of L2 TLB MSHR failures when the In-TLB MSHR is
//! enabled (SoftWalker) relative to the 32-PTW baseline.
//!
//! Paper headline: In-TLB MSHR eliminates 95.3% of MSHR failures on
//! average; spmv only reaches ~65% because its misses pile into a few
//! L2 TLB sets.

use swgpu_bench::report::fmt_pct;
use swgpu_bench::{mean, parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::irregular;

fn main() {
    let h = parse_args();
    let configs = [SystemConfig::Baseline, SystemConfig::SoftWalker].map(|s| s.build(h.scale));
    let grid = Grid::run(&Runner::from_harness(&h), irregular(), &configs);
    let mut table = Table::new(vec![
        "bench".into(),
        "baseline failures".into(),
        "SoftWalker failures".into(),
        "reduction".into(),
    ]);

    let mut reductions = Vec::new();
    for (spec, row) in grid.rows() {
        let b = row[0].l2_mshr_failure_events;
        let s = row[1].l2_mshr_failure_events;
        let red = if b == 0 {
            0.0
        } else {
            1.0 - s as f64 / b as f64
        };
        if b > 0 {
            reductions.push(red);
        }
        table.row(vec![
            spec.abbr.to_string(),
            b.to_string(),
            s.to_string(),
            fmt_pct(red),
        ]);
    }

    println!("Figure 17 — L2 TLB MSHR failure reduction with In-TLB MSHR");
    println!("(paper: 95.3% average reduction; spmv ~65% due to per-set contention)\n");
    table.print(h.csv);
    println!(
        "mean reduction over benchmarks with failures: {}",
        fmt_pct(mean(&reductions))
    );
}
