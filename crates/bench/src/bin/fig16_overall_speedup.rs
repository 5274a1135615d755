//! Figure 16: overall speedup of NHA, FS-HPT, SW w/o In-TLB MSHR,
//! SoftWalker, SW Hybrid and Ideal over the 32-PTW baseline, for all 20
//! benchmarks.
//!
//! Paper headline: NHA 1.22x, FS-HPT 1.13x, SW w/o In-TLB 1.63x,
//! SoftWalker 2.24x (3.94x irregular), Ideal 2.58x.

use swgpu_bench::{parse_args, Grid, Runner, SystemConfig};
use swgpu_workloads::table4;

fn main() {
    let h = parse_args();
    let systems = [
        SystemConfig::Baseline,
        SystemConfig::Nha,
        SystemConfig::FsHpt,
        SystemConfig::SwNoInTlb,
        SystemConfig::SoftWalker,
        SystemConfig::Hybrid,
        SystemConfig::Ideal,
    ];
    let configs = systems.map(|s| s.build(h.scale));
    let grid = Grid::run(&Runner::from_harness(&h), table4(), &configs);

    let labels: Vec<String> = systems[1..].iter().map(|s| s.label()).collect();
    println!("Figure 16 — overall speedup over the 32-PTW baseline");
    println!(
        "(paper: NHA 1.22x | FS-HPT 1.13x | SW w/o In-TLB 1.63x | SoftWalker 2.24x, 3.94x irregular | Ideal 2.58x)\n"
    );
    grid.speedup_table(&labels, true).print(h.csv);
}
