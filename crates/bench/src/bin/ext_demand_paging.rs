//! Extension experiment: the cost of demand paging across Table 4.
//!
//! The paper's evaluation assumes a fully populated page table (our
//! prebuilt images). This harness re-runs every Table 4 benchmark with
//! the simulated driver/OS memory manager enabled — pages populated on
//! first touch, each first touch a major fault serviced after the
//! driver's fill latency — and reports the slowdown relative to the
//! prebuilt baseline for both the 32-PTW hardware baseline and
//! SoftWalker, plus the fault and coalescing behaviour the manager
//! observed. Irregular benchmarks touch far more pages per access, so
//! they both fault more and recover less of the fill cost.
//!
//! Overheads are cycles(prebuilt) / cycles(demand-paged): 1.00x means
//! demand paging was free, 0.50x means the run took twice as long.

use swgpu_bench::report::fmt_x;
use swgpu_bench::{parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_sim::GpuConfig;
use swgpu_types::MmConfig;
use swgpu_workloads::table4;

fn main() {
    let h = parse_args();
    // Columns: each system prebuilt, then demand-paged.
    let configs: Vec<_> = [SystemConfig::Baseline, SystemConfig::SoftWalker]
        .iter()
        .flat_map(|sys| {
            let prebuilt = sys.build(h.scale);
            let demand = GpuConfig {
                mm: MmConfig::demand_paged(),
                ..prebuilt.clone()
            };
            [prebuilt, demand]
        })
        .collect();
    let grid = Grid::run(&Runner::from_harness(&h), table4(), &configs);

    let mut table = Table::new(vec![
        "bench".into(),
        "class".into(),
        "major faults".into(),
        "64K coal".into(),
        "2M coal".into(),
        "HW overhead".into(),
        "SW overhead".into(),
    ]);
    for (spec, row) in grid.rows() {
        // The fault columns report the SoftWalker demand-paged run.
        let paged = &row[3];
        table.row(vec![
            spec.abbr.to_string(),
            format!("{:?}", spec.class),
            paged.mm.major_faults.to_string(),
            paged.mm.coalesces_64k.to_string(),
            paged.mm.coalesces_2m.to_string(),
            fmt_x(row[1].speedup_over(&row[0])),
            fmt_x(row[3].speedup_over(&row[2])),
        ]);
    }
    // Each system's demand-paged column over its own prebuilt base.
    let (hw, sw) = grid.split_at(2);
    for (label, irregular_only) in [("all", false), ("irregular", true)] {
        table.row(vec![
            "geomean".into(),
            label.into(),
            "-".into(),
            "-".into(),
            "-".into(),
            fmt_x(hw.geomean_speedups(irregular_only)[1]),
            fmt_x(sw.geomean_speedups(irregular_only)[1]),
        ]);
    }

    println!("Extension — demand paging (first-touch fill) vs the prebuilt page table");
    println!("(overhead = prebuilt-relative speedup; < 1.00x means demand paging cost cycles)\n");
    table.print(h.csv);
}
