//! Figure 26: Request Distributor policy comparison — random, stall-aware
//! and round-robin dispatch of software walks.
//!
//! Paper headline: the policies are indistinguishable because irregular
//! apps stall so much that every SM has idle issue slots; the paper
//! therefore adopts the cheapest (round-robin).

use softwalker::DistributorPolicy;
use swgpu_bench::{parse_args, Grid, Runner, SystemConfig};
use swgpu_workloads::irregular;

fn main() {
    let h = parse_args();
    let policies = [
        ("RoundRobin", DistributorPolicy::RoundRobin),
        ("Random", DistributorPolicy::Random),
        ("StallAware", DistributorPolicy::StallAware),
    ];
    let mut configs = vec![SystemConfig::Baseline.build(h.scale)];
    configs.extend(policies.map(|(_, policy)| {
        let mut cfg = SystemConfig::SoftWalker.build(h.scale);
        cfg.distributor_policy = policy;
        cfg
    }));
    let grid = Grid::run(&Runner::from_harness(&h), irregular(), &configs);

    let labels: Vec<String> = policies.iter().map(|(n, _)| n.to_string()).collect();
    println!("Figure 26 — distributor policy sensitivity (irregular set)");
    println!("(paper: no significant differences; round-robin adopted)\n");
    grid.speedup_table(&labels, false).print(h.csv);
}
