//! Figure 5: speedup when scaling hardware PTWs (with proportionally
//! larger L2 TLB MSHRs and PWB) from 32 to 1024, plus the ideal case.
//!
//! Paper headline: ideal averages 2.58x over the 32-PTW baseline (4.84x
//! for irregular apps); regular apps are satisfied by 32 PTWs while
//! irregular apps need 256–1024.

use swgpu_bench::{parse_args, Grid, Runner, SystemConfig};
use swgpu_workloads::table4;

fn main() {
    let h = parse_args();
    let ptw_counts = [64usize, 128, 256, 512, 1024];
    let mut systems = vec![SystemConfig::Baseline];
    systems.extend(ptw_counts.map(|walkers| SystemConfig::ScaledPtw {
        walkers,
        scale_mshrs: true,
    }));
    systems.push(SystemConfig::Ideal);
    let configs: Vec<_> = systems.iter().map(|s| s.build(h.scale)).collect();
    let grid = Grid::run(&Runner::from_harness(&h), table4(), &configs);

    let mut labels: Vec<String> = ptw_counts.iter().map(|n| format!("{n}PTW")).collect();
    labels.push("Ideal".into());
    println!("Figure 5 — speedup scaling PTWs (MSHRs/PWB scaled along), vs 32 PTWs");
    println!("(paper: ideal avg 2.58x, irregular 4.84x; regular flat at 1.0x)\n");
    grid.speedup_table(&labels, true).print(h.csv);
}
