//! The simulator must be fully deterministic: identical configurations
//! and workloads produce bit-identical statistics.

use softwalker_repro::{
    by_abbr, GpuConfig, GpuSimulator, SimStats, TranslationMode, WorkloadParams,
};

fn run_once(mode: TranslationMode) -> SimStats {
    let cfg = GpuConfig {
        sms: 6,
        max_warps: 8,
        mode,
        ..GpuConfig::default()
    };
    let spec = by_abbr("bfs").unwrap();
    let wl = spec.build(WorkloadParams {
        sms: cfg.sms,
        warps_per_sm: cfg.max_warps,
        mem_instrs_per_warp: 3,
        footprint_percent: 50,
        page_size: cfg.page_size,
    });
    GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
}

fn assert_identical(a: &SimStats, b: &SimStats) {
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.instructions, b.instructions);
    assert_eq!(a.walk.translations, b.walk.translations);
    assert_eq!(a.walk.queue_cycles, b.walk.queue_cycles);
    assert_eq!(a.walk.access_cycles, b.walk.access_cycles);
    assert_eq!(a.l2_mshr_failure_events, b.l2_mshr_failure_events);
    assert_eq!(a.fresh_l2_misses, b.fresh_l2_misses);
    assert_eq!(a.sm, b.sm);
    assert_eq!(a.l2_tlb, b.l2_tlb);
    assert_eq!(a.l2d, b.l2d);
    assert_eq!(a.dram, b.dram);
}

#[test]
fn baseline_is_deterministic() {
    let a = run_once(TranslationMode::HardwarePtw);
    let b = run_once(TranslationMode::HardwarePtw);
    assert_identical(&a, &b);
}

#[test]
fn softwalker_is_deterministic() {
    let a = run_once(TranslationMode::SoftWalker { in_tlb_mshr: true });
    let b = run_once(TranslationMode::SoftWalker { in_tlb_mshr: true });
    assert_identical(&a, &b);
}

#[test]
fn hybrid_is_deterministic() {
    let a = run_once(TranslationMode::Hybrid { in_tlb_mshr: true });
    let b = run_once(TranslationMode::Hybrid { in_tlb_mshr: true });
    assert_identical(&a, &b);
}
