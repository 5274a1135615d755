//! Extension: the page-walk-scheduling baseline (Shin et al. \[85\],
//! Table 1 in the paper) — warp-aware PWB dequeue order versus FIFO, and
//! versus SoftWalker.
//!
//! The paper argues (Table 1) that scheduling reduces warp divergence
//! stalls but "cannot resolve the fundamental cause of page table walk
//! contentions" — walk *throughput* is unchanged. This harness verifies
//! exactly that: warp-shortest-first scheduling moves single-digit
//! percentages while SoftWalker moves multiples.

use swgpu_bench::{parse_args, Grid, Runner, SystemConfig};
use swgpu_ptw::PwbPolicy;
use swgpu_workloads::irregular;

fn main() {
    let h = parse_args();
    let mut sched_cfg = SystemConfig::Baseline.build(h.scale);
    sched_cfg.ptw.pwb_policy = PwbPolicy::WarpShortestFirst;
    let configs = [
        SystemConfig::Baseline.build(h.scale),
        sched_cfg,
        SystemConfig::SoftWalker.build(h.scale),
    ];
    let grid = Grid::run(&Runner::from_harness(&h), irregular(), &configs);

    println!("Extension — page-walk scheduling [85] vs SoftWalker (irregular set, vs baseline)");
    println!("(Table 1's claim: scheduling leaves walk throughput unchanged, so its gains are marginal)\n");
    let labels = ["PW-sched [85]".to_string(), "SoftWalker".to_string()];
    grid.speedup_table(&labels, false).print(h.csv);
}
