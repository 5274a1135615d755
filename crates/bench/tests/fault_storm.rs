//! The walkers' recovery pipeline under a full fault storm, end to end.
//!
//! One `gups` cell per walker configuration (Baseline hardware PTWs,
//! hardware PTWs over the FS-HPT hashed table, SoftWalker PW Warps,
//! Hybrid) at quick scale with a 20 % footprint,
//! under every injection kind at once: invalidating and silent PTE
//! corruption, dropped and delayed page-table reads, and stuck PW
//! threads. Each run must retire, and its fault ledger must balance:
//!
//! * something was injected, silent corruption included;
//! * the ledgers balance ([`swgpu_sim::SimStats::check_ledgers`]): no
//!   injection is lost, and the parity check catches every silent
//!   corruption, so no walk consumes a wrong translation;
//! * nothing leaks to the UVM far-fault path (no unrecoverable fault,
//!   no page fault);
//! * every escalation is replayed by the driver exactly once.
//!
//! `ci/check.sh` reruns this test in the optimised build.

use swgpu_bench::{Cell, Scale, SystemConfig};
use swgpu_types::FaultPlan;
use swgpu_workloads::by_abbr;

fn storm() -> FaultPlan {
    FaultPlan {
        seed: 0xf00d,
        pte_corrupt_rate: 0.05,
        pte_silent_corrupt_rate: 0.05,
        mem_drop_rate: 0.05,
        mem_delay_rate: 0.05,
        stuck_thread_rate: 0.02,
        ..FaultPlan::default()
    }
}

#[test]
fn every_walker_recovers_from_a_full_fault_storm() {
    let spec = by_abbr("gups").expect("known benchmark");
    for system in [
        SystemConfig::Baseline,
        SystemConfig::FsHpt,
        SystemConfig::SoftWalker,
        SystemConfig::Hybrid,
    ] {
        let label = system.label();
        let mut cfg = system.build(Scale::Quick);
        cfg.fault_plan = storm();
        let stats = Cell::bench_scaled(&spec, cfg, 20).simulate();
        assert!(!stats.timed_out, "{label}: run timed out under injection");
        let f = &stats.fault;
        assert!(f.injected_total() > 0, "{label}: storm injected nothing");
        assert!(
            f.injected_silent_corruptions > 0,
            "{label}: silent-corruption storm injected nothing"
        );
        assert_eq!(stats.check_ledgers(), Ok(()), "{label}");
        assert_eq!(
            (f.unrecoverable_faults, stats.faults),
            (0, 0),
            "{label}: injected faults leaked to the UVM path"
        );
        assert_eq!(
            f.fault_replays, f.fault_escalations,
            "{label}: escalations and driver replays disagree"
        );
    }
}
