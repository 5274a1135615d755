//! Figure 22: SoftWalker's sensitivity to the L2 TLB access latency
//! (which also prices the SM↔L2TLB communication its walks pay twice).
//!
//! Paper headline: speedup over the baseline falls gently from 2.31x at
//! 40 cycles to 2.07x at 200 cycles — still close to the 2.58x ideal,
//! because queueing (not communication) dominates baseline walk latency.

use swgpu_bench::{parse_args, Grid, Runner, SystemConfig};
use swgpu_workloads::table4;

fn main() {
    let h = parse_args();
    let latencies = [40u64, 80, 120, 160, 200];
    // Baseline keeps the default 80-cycle L2 TLB.
    let mut configs = vec![SystemConfig::Baseline.build(h.scale)];
    configs.extend(latencies.map(|lat| {
        let mut cfg = SystemConfig::SoftWalker.build(h.scale);
        cfg.l2_tlb_latency = lat;
        cfg
    }));
    let grid = Grid::run(&Runner::from_harness(&h), table4(), &configs);

    let labels: Vec<String> = latencies.iter().map(|l| format!("{l}cyc")).collect();
    println!("Figure 22 — SoftWalker speedup vs L2 TLB access latency");
    println!("(paper: 2.31x @40cyc → 2.24x @80 → 2.07x @200; ideal 2.58x)\n");
    grid.speedup_table(&labels, false).print(h.csv);
}
