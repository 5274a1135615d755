//! Extension experiment: dead-entry-aware TLB replacement and
//! translation prefetch across Table 4.
//!
//! The paper's SoftWalker keeps the baseline LRU TLBs and leaves the
//! PW-Warp threads idle whenever the walk queue drains. This harness
//! sweeps every Table 4 benchmark over the two translation-policy knobs
//! the extension adds:
//!
//! * **replacement** — baseline LRU vs the dead-on-arrival sampling
//!   predictor (`ReplPolicy::DeadBlock`) on both TLB levels;
//! * **prefetch** — off vs the distributor peeking ahead in each warp's
//!   instruction stream and issuing translation prefetches into idle
//!   PW-Warp threads.
//!
//! Reported per benchmark: L2 TLB MPKI and IPC for the LRU baseline, the
//! MPKI under DeadBlock, and the speedup of each variant over the LRU /
//! no-prefetch SoftWalker, plus the prefetch ledger (issued / useful) of
//! the prefetching run. Irregular benchmarks — the paper's focus — have
//! the thrashing reuse pattern dead-entry prediction targets; regular
//! ones are the guardrail (the predictor must not wreck them).

use swgpu_bench::report::fmt_x;
use swgpu_bench::{parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_sim::{GpuConfig, PrefetchConfig};
use swgpu_tlb::ReplPolicy;
use swgpu_workloads::table4;

/// The four policy corners of the sweep, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    Lru,
    Dead,
    LruPf,
    DeadPf,
}

const VARIANTS: [Variant; 4] = [Variant::Lru, Variant::Dead, Variant::LruPf, Variant::DeadPf];

impl Variant {
    fn apply(self, mut cfg: GpuConfig) -> GpuConfig {
        if matches!(self, Variant::Dead | Variant::DeadPf) {
            cfg.l1_tlb.repl = ReplPolicy::DeadBlock;
            cfg.l2_tlb.repl = ReplPolicy::DeadBlock;
        }
        if matches!(self, Variant::LruPf | Variant::DeadPf) {
            cfg.prefetch = PrefetchConfig::enabled();
        }
        cfg
    }
}

fn main() {
    let h = parse_args();
    let configs = VARIANTS.map(|v| v.apply(SystemConfig::SoftWalker.build(h.scale)));
    let grid = Grid::run(&Runner::from_harness(&h), table4(), &configs);

    let mut table = Table::new(vec![
        "bench".into(),
        "class".into(),
        "MPKI (LRU)".into(),
        "MPKI (Dead)".into(),
        "IPC (LRU)".into(),
        "Dead".into(),
        "LRU+pf".into(),
        "Dead+pf".into(),
        "pf issued".into(),
        "pf useful".into(),
    ]);

    // Speedups are over column 0, the LRU / no-prefetch corner.
    for (spec, row) in grid.rows() {
        let (base, dead, pf) = (&row[0], &row[1], &row[3]);
        let mut cells = vec![
            spec.abbr.to_string(),
            format!("{:?}", spec.class),
            format!("{:.2}", base.l2_tlb_mpki()),
            format!("{:.2}", dead.l2_tlb_mpki()),
            format!("{:.3}", base.ipc()),
        ];
        for stats in row {
            assert_eq!(
                stats.instructions, base.instructions,
                "{}: policy changed the retired work",
                spec.abbr
            );
        }
        cells.extend(row[1..].iter().map(|s| fmt_x(s.speedup_over(base))));
        cells.push(pf.prefetch_issued.to_string());
        cells.push(pf.prefetch_useful.to_string());
        table.row(cells);
    }
    for (label, irregular_only) in [("all", false), ("irregular", true)] {
        let mut cells = vec![
            "geomean".into(),
            label.into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ];
        let geo = grid.geomean_speedups(irregular_only);
        cells.extend(geo[1..].iter().map(|&x| fmt_x(x)));
        cells.push("-".into());
        cells.push("-".into());
        table.row(cells);
    }

    println!("Extension — dead-entry replacement + translation prefetch (SoftWalker, Table 4)");
    println!("(speedups relative to the LRU / no-prefetch SoftWalker on the same benchmark)\n");
    table.print(h.csv);
}
