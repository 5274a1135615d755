//! Figure 21: SoftWalker vs an iso-area hardware baseline (128 PTWs),
//! each with and without the In-TLB MSHR, normalized to 32 PTWs.
//!
//! Paper headlines: SoftWalker beats 128 PTWs by ~18.5% on irregular
//! workloads; bolting In-TLB MSHRs onto under-provisioned walker pools
//! does not help (and hurts gc/xsb/bfs/sy2k) because pending translations
//! pollute the L2 TLB while walkers, not MSHRs, are the bottleneck.

use swgpu_bench::{parse_args, Grid, Runner, SystemConfig};
use swgpu_workloads::irregular;

fn main() {
    let h = parse_args();
    let systems = [
        SystemConfig::Baseline,
        SystemConfig::HwWithInTlb { walkers: 32 },
        SystemConfig::ScaledPtw {
            walkers: 128,
            scale_mshrs: false,
        },
        SystemConfig::HwWithInTlb { walkers: 128 },
        SystemConfig::SwNoInTlb,
        SystemConfig::SoftWalker,
    ];
    let configs = systems.map(|s| s.build(h.scale));
    let grid = Grid::run(&Runner::from_harness(&h), irregular(), &configs);

    let labels: Vec<String> = systems[1..].iter().map(|s| s.label()).collect();
    println!("Figure 21 — iso-area comparison (irregular set, vs 32 PTWs)");
    println!("(paper: SoftWalker ≈ 128PTW x 1.185; In-TLB on small pools does not help)\n");
    grid.speedup_table(&labels, false).print(h.csv);
}
