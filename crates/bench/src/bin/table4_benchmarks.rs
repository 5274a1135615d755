//! Table 4: the benchmark suite — footprints, measured L2 TLB MPKI and
//! the irregular/regular classification.
//!
//! Our MPKI comes from the synthetic generators, so the check is the
//! *regime*, not the digits: irregular apps land orders of magnitude
//! above regular ones, matching the paper's classification boundary
//! (required PTWs > 32).

use swgpu_bench::{parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::table4;

fn main() {
    let h = parse_args();
    let configs = [SystemConfig::Baseline.build(h.scale)];
    let grid = Grid::run(&Runner::from_harness(&h), table4(), &configs);
    let mut table = Table::new(vec![
        "name".into(),
        "abbr".into(),
        "class".into(),
        "footprint (MB)".into(),
        "paper MPKI".into(),
        "measured MPKI".into(),
        "paper req. PTWs".into(),
        "L1 TLB hit".into(),
        "L2 TLB hit".into(),
    ]);

    for (spec, row) in grid.rows() {
        let s = &row[0];
        table.row(vec![
            spec.name.to_string(),
            spec.abbr.to_string(),
            format!("{:?}", spec.class),
            spec.footprint_mb.to_string(),
            format!("{:.2}", spec.paper_mpki),
            format!("{:.2}", s.l2_tlb_mpki()),
            spec.paper_required_ptws.to_string(),
            format!("{:.1}%", s.l1_tlb.hit_rate() * 100.0),
            format!("{:.1}%", s.l2_tlb.hit_rate() * 100.0),
        ]);
    }

    println!("Table 4 — benchmarks (paper values vs this reproduction's synthetic streams)");
    println!("(check: irregular MPKI >> regular MPKI; regular apps hit the TLBs)\n");
    table.print(h.csv);
}
