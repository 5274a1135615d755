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
use swgpu_bench::{geomean, parse_args, prefetch, Cell, Runner, SystemConfig, Table};
use swgpu_types::MmConfig;
use swgpu_workloads::{table4, WorkloadClass};

fn main() {
    let h = parse_args();
    let systems = [SystemConfig::Baseline, SystemConfig::SoftWalker];

    let demand = |sys: SystemConfig| {
        let mut cfg = sys.build(h.scale);
        cfg.mm = MmConfig::demand_paged();
        cfg
    };

    let mut matrix = Vec::new();
    for spec in table4() {
        for sys in systems {
            matrix.push(Cell::bench(&spec, sys.build(h.scale)));
            matrix.push(Cell::bench(&spec, demand(sys)));
        }
    }
    prefetch(&matrix);

    let mut table = Table::new(vec![
        "bench".into(),
        "class".into(),
        "major faults".into(),
        "64K coal".into(),
        "2M coal".into(),
        "HW overhead".into(),
        "SW overhead".into(),
    ]);

    let mut per_system: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];
    let mut per_system_irr: Vec<Vec<f64>> = vec![Vec::new(); systems.len()];

    for spec in table4() {
        let mut row = vec![spec.abbr.to_string(), format!("{:?}", spec.class)];
        let mut overheads = Vec::new();
        let mut faults = (0, 0, 0);
        for (i, sys) in systems.iter().enumerate() {
            let base = Runner::global().get(&Cell::bench(&spec, sys.build(h.scale)));
            let paged = Runner::global().get(&Cell::bench(&spec, demand(*sys)));
            let x = paged.speedup_over(&base);
            per_system[i].push(x);
            if spec.class == WorkloadClass::Irregular {
                per_system_irr[i].push(x);
            }
            overheads.push(fmt_x(x));
            faults = (
                paged.mm.major_faults,
                paged.mm.coalesces_64k,
                paged.mm.coalesces_2m,
            );
        }
        row.push(faults.0.to_string());
        row.push(faults.1.to_string());
        row.push(faults.2.to_string());
        row.extend(overheads);
        table.row(row);
    }

    let mut avg = vec![
        "geomean".into(),
        "all".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ];
    let mut avg_irr = vec![
        "geomean".into(),
        "irregular".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ];
    for i in 0..systems.len() {
        avg.push(fmt_x(geomean(&per_system[i])));
        avg_irr.push(fmt_x(geomean(&per_system_irr[i])));
    }
    table.row(avg);
    table.row(avg_irr);

    println!("Extension — demand paging (first-touch fill) vs the prebuilt page table");
    println!("(overhead = prebuilt-relative speedup; < 1.00x means demand paging cost cycles)\n");
    table.print(h.csv);
}
