//! Figure 24: SoftWalker speedup as the maximum number of In-TLB MSHR
//! entries grows from 0 (disabled) to 1024.
//!
//! Paper headline: average speedups of 1.63x / 1.88x / 2.04x / 2.12x /
//! 2.24x at 0/128/256/512/1024 entries. sy2k loses some L2 TLB hit rate
//! to pending-entry pollution; spmv stops improving past 128 because its
//! misses contend within a few sets.

use swgpu_bench::{parse_args, Grid, Runner, SystemConfig};
use swgpu_workloads::table4;

fn main() {
    let h = parse_args();
    let capacities = [0usize, 128, 256, 512, 1024];
    let mut configs = vec![SystemConfig::Baseline.build(h.scale)];
    configs.extend(
        capacities.map(|in_tlb_max| SystemConfig::SwWithCapacity { in_tlb_max }.build(h.scale)),
    );
    let grid = Grid::run(&Runner::from_harness(&h), table4(), &configs);

    let labels: Vec<String> = capacities.iter().map(|c| format!("InTLB={c}")).collect();
    println!("Figure 24 — SoftWalker speedup vs In-TLB MSHR capacity");
    println!("(paper: 1.63x/1.88x/2.04x/2.12x/2.24x at 0/128/256/512/1024)\n");
    grid.speedup_table(&labels, false).print(h.csv);
}
