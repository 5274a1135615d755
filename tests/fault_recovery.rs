//! End-to-end properties of the deterministic fault-injection pipeline:
//!
//! * a zero-rate [`FaultPlan`] is a byte-level no-op (the seed alone must
//!   not perturb a run or add stats keys);
//! * an armed plan is reproducible — same seed, same schedule, same
//!   stats;
//! * **conservation** — every injected fault is either recovered in
//!   place (watchdog + retry) or escalated through the fault-buffer /
//!   driver-replay path; none leak to the UVM far-fault path and none
//!   are simply lost;
//! * **data-path conservation** — the same contract for the demand-paging
//!   fill pipeline: every dropped / duplicated / corrupted fill, lost
//!   shootdown and stalled driver request is recovered, escalated, or
//!   resolved by retiring the failing frame — and every corrupted fill
//!   payload is caught by the end-to-end checksum before any consumer
//!   trusts the frame.
//!
//! The conservation laws themselves are the ledgers of
//! [`SimStats::check_ledgers`]; these tests arm the storms that load them.

use proptest::prelude::*;
use softwalker_repro::{
    by_abbr, FaultPlan, GpuConfig, GpuSimulator, MmConfig, SimStats, TranslationMode,
    WorkloadParams,
};

fn run_once(mode: TranslationMode, plan: FaultPlan) -> SimStats {
    let cfg = GpuConfig {
        sms: 4,
        max_warps: 8,
        mode,
        fault_plan: plan,
        ..GpuConfig::default()
    };
    let spec = by_abbr("gups").unwrap();
    let wl = spec.build(WorkloadParams {
        sms: cfg.sms,
        warps_per_sm: cfg.max_warps,
        mem_instrs_per_warp: 3,
        footprint_percent: 20,
        page_size: cfg.page_size,
    });
    GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
}

/// Every walker kind. The radix ones come first: `HashedPtw` cannot
/// demand page, so the fill storm draws from `RADIX_MODES` of them.
const MODES: [TranslationMode; 4] = [
    TranslationMode::HardwarePtw,
    TranslationMode::SoftWalker { in_tlb_mshr: true },
    TranslationMode::Hybrid { in_tlb_mshr: true },
    TranslationMode::HashedPtw,
];
const RADIX_MODES: usize = 3;

#[test]
fn silent_corruption_storm_is_always_detected() {
    // A valid-but-wrong PTE (PFN bits flipped, valid bit intact) cannot
    // fail a walk on its own — only the parity nibble check at leaf
    // decode can catch it. Under a pure ValidButWrong storm every
    // injection must be detected; a shortfall means some walk consumed a
    // wrong translation silently.
    let plan = FaultPlan {
        seed: 0xbad,
        pte_silent_corrupt_rate: 0.10,
        ..FaultPlan::default()
    };
    for mode in MODES {
        let s = run_once(mode, plan.clone());
        assert!(!s.timed_out, "{mode:?}: storm run timed out");
        let f = &s.fault;
        assert!(
            f.injected_silent_corruptions > 0,
            "{mode:?}: storm injected nothing"
        );
        assert_eq!(s.check_ledgers(), Ok(()), "{mode:?}");
        assert_eq!(s.faults, 0, "{mode:?}: corruption leaked to UVM");
    }
}

#[test]
fn zero_rate_plan_is_a_byte_level_no_op() {
    for mode in MODES {
        let baseline = run_once(mode, FaultPlan::default());
        let seeded = run_once(
            mode,
            FaultPlan {
                seed: 0x5eed,
                ..FaultPlan::default()
            },
        );
        assert_eq!(
            baseline.to_json(),
            seeded.to_json(),
            "{mode:?}: a disarmed plan's seed leaked into the simulation"
        );
        assert!(
            !seeded.to_json().contains("fault_"),
            "{mode:?}: inert runs must not emit fault keys"
        );
    }
}

#[test]
fn armed_runs_reproduce_bit_identically() {
    let plan = FaultPlan {
        seed: 0xf00d,
        pte_corrupt_rate: 0.05,
        pte_silent_corrupt_rate: 0.05,
        mem_drop_rate: 0.05,
        mem_delay_rate: 0.05,
        stuck_thread_rate: 0.02,
        ..FaultPlan::default()
    };
    for mode in MODES {
        let a = run_once(mode, plan.clone());
        let b = run_once(mode, plan.clone());
        assert_eq!(a.to_json(), b.to_json(), "{mode:?}: same seed diverged");
        assert!(
            a.fault.injected_total() > 0,
            "{mode:?}: storm injected nothing"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For arbitrary (bounded) rates and seeds, on every walker
    /// configuration: the run drains, every injected fault is recovered
    /// or escalated, and no injected fault surfaces as a page fault.
    #[test]
    fn every_injected_fault_is_recovered_or_escalated(
        seed in 0u64..1_000_000,
        // Two independent per-mille rates packed into one draw (the
        // vendored proptest caps strategy tuples at six entries).
        corrupt_both_pm in 0u32..3600,
        drop_pm in 0u32..60,
        delay_pm in 0u32..60,
        stuck_pm in 0u32..25,
        mode_idx in 0usize..MODES.len(),
    ) {
        let (corrupt_pm, silent_pm) = (corrupt_both_pm / 60, corrupt_both_pm % 60);
        let plan = FaultPlan {
            seed,
            pte_corrupt_rate: f64::from(corrupt_pm) / 1000.0,
            pte_silent_corrupt_rate: f64::from(silent_pm) / 1000.0,
            mem_drop_rate: f64::from(drop_pm) / 1000.0,
            mem_delay_rate: f64::from(delay_pm) / 1000.0,
            stuck_thread_rate: f64::from(stuck_pm) / 1000.0,
            ..FaultPlan::default()
        };
        let stats = run_once(MODES[mode_idx], plan);
        prop_assert!(!stats.timed_out, "run under injection timed out");
        prop_assert_eq!(stats.check_ledgers(), Ok(()));
        let f = &stats.fault;
        prop_assert_eq!(f.unrecoverable_faults, 0, "driver replay failed: {:?}", f);
        prop_assert_eq!(stats.faults, 0, "injected fault leaked to UVM: {:?}", f);
        prop_assert_eq!(
            f.fault_replays, f.fault_escalations,
            "escalation without replay: {:?}", f
        );
    }

    /// Demand-paging storm: for arbitrary armed fill-pipeline sites,
    /// rates, seeds, budgets and walker kinds, the run drains, the
    /// data-path ledger balances (injected = recovered + escalated +
    /// retired), every corrupted payload is detected by the checksum,
    /// and the whole thing reproduces bit-identically.
    #[test]
    fn every_injected_fill_fault_is_recovered_escalated_or_retired(
        seed in 0u64..1_000_000,
        // Bits 0..5 arm drop / delay / duplicate / corrupt / shootdown /
        // driver-stall, all at the same per-mille rate (the vendored
        // proptest caps strategy tuples at six entries).
        sites in 1u8..64,
        rate_pm in 5u32..120,
        budget in prop::sample::select(vec![0u64, 64]),
        mode_idx in 0usize..RADIX_MODES,
    ) {
        let rate = f64::from(rate_pm) / 1000.0;
        let on = |bit: u8| if sites & bit != 0 { rate } else { 0.0 };
        let plan = FaultPlan {
            seed,
            fill_drop_rate: on(1),
            fill_delay_rate: on(2),
            fill_duplicate_rate: on(4),
            fill_corrupt_rate: on(8),
            shootdown_drop_rate: on(16),
            driver_stuck_rate: on(32),
            ..FaultPlan::default()
        };
        let run = || {
            let mut cfg = GpuConfig::quick_test();
            cfg.mode = MODES[mode_idx];
            cfg.fault_plan = plan.clone();
            cfg.mm = MmConfig {
                resident_page_budget: budget,
                ..MmConfig::demand_paged()
            };
            let spec = by_abbr("gups").unwrap();
            let wl = spec.build(WorkloadParams {
                sms: cfg.sms,
                warps_per_sm: cfg.max_warps,
                mem_instrs_per_warp: 3,
                footprint_percent: 20,
                page_size: cfg.page_size,
            });
            GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
        };
        let stats = run();
        prop_assert!(!stats.timed_out, "fill storm timed out");
        prop_assert_eq!(stats.check_ledgers(), Ok(()));
        let f = &stats.mm_fault;
        prop_assert_eq!(stats.faults, 0, "fill fault leaked to UVM: {:?}", f);
        prop_assert_eq!(
            stats.sm.xlat_faults, 0,
            "fill fault surfaced as a translation fault: {:?}", f
        );
        prop_assert_eq!(stats.to_json(), run().to_json(), "same fill storm diverged");
    }
}
