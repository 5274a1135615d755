//! Cross-crate end-to-end tests: the paper's qualitative results must
//! hold on small configurations.

use softwalker_repro::{
    by_abbr, GpuConfig, GpuSimulator, SimStats, TranslationMode, WorkloadParams,
};

fn run(abbr: &str, mode: TranslationMode, tweak: impl FnOnce(&mut GpuConfig)) -> SimStats {
    let mut cfg = GpuConfig {
        sms: 12,
        max_warps: 12,
        mode,
        max_cycles: 5_000_000,
        ..GpuConfig::default()
    };
    tweak(&mut cfg);
    let spec = by_abbr(abbr).expect("registry benchmark");
    let wl = spec.build(WorkloadParams {
        sms: cfg.sms,
        warps_per_sm: cfg.max_warps,
        mem_instrs_per_warp: 3,
        footprint_percent: 100,
        page_size: cfg.page_size,
    });
    let s = GpuSimulator::build(cfg, Box::new(wl)).unwrap().run();
    assert!(!s.timed_out, "{abbr} run hit the cycle cap");
    s
}

#[test]
fn same_work_across_all_modes() {
    let modes = [
        TranslationMode::HardwarePtw,
        TranslationMode::HashedPtw,
        TranslationMode::IdealPtw,
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        TranslationMode::SoftWalker { in_tlb_mshr: false },
        TranslationMode::Hybrid { in_tlb_mshr: true },
    ];
    let mut instr_counts = Vec::new();
    for m in modes {
        let s = run("xsb", m, |_| {});
        assert_eq!(s.faults, 0, "{m:?} faulted on a fully mapped workload");
        assert_eq!(s.sm.xlat_faults, 0);
        instr_counts.push(s.instructions);
    }
    assert!(
        instr_counts.windows(2).all(|w| w[0] == w[1]),
        "all modes must execute identical work: {instr_counts:?}"
    );
}

#[test]
fn queueing_dominates_baseline_walks_for_irregular() {
    let s = run("gups", TranslationMode::HardwarePtw, |_| {});
    assert!(
        s.walk.queue_fraction() > 0.8,
        "queue fraction {:.2} should dominate at 32 PTWs",
        s.walk.queue_fraction()
    );
}

#[test]
fn softwalker_ordering_matches_figure_16() {
    let base = run("gups", TranslationMode::HardwarePtw, |_| {});
    let sw_no = run(
        "gups",
        TranslationMode::SoftWalker { in_tlb_mshr: false },
        |_| {},
    );
    let sw = run(
        "gups",
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        |_| {},
    );
    let ideal = run("gups", TranslationMode::IdealPtw, |_| {});
    let x_no = sw_no.speedup_over(&base);
    let x_sw = sw.speedup_over(&base);
    let x_ideal = ideal.speedup_over(&base);
    assert!(x_no > 1.2, "SW w/o In-TLB should already win: {x_no:.2}");
    assert!(
        x_sw > x_no,
        "In-TLB MSHR must add speedup: {x_sw:.2} vs {x_no:.2}"
    );
    assert!(
        x_ideal >= x_sw * 0.9,
        "ideal ({x_ideal:.2}) should be at least near SoftWalker ({x_sw:.2})"
    );
}

#[test]
fn softwalker_reduces_walk_latency_sharply() {
    let base = run("nw", TranslationMode::HardwarePtw, |_| {});
    let sw = run(
        "nw",
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        |_| {},
    );
    let reduction = 1.0 - sw.walk.avg_total() / base.walk.avg_total();
    assert!(
        reduction > 0.5,
        "walk latency should drop sharply (paper: 72.8%), got {:.0}%",
        reduction * 100.0
    );
}

#[test]
fn softwalker_reduces_stalls_on_irregular() {
    let base = run("sssp", TranslationMode::HardwarePtw, |_| {});
    let sw = run(
        "sssp",
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        |_| {},
    );
    assert!(
        sw.stall_reduction_vs(&base) > 0.3,
        "stall reduction {:.2}",
        sw.stall_reduction_vs(&base)
    );
}

#[test]
fn regular_apps_barely_affected_by_softwalker() {
    let base = run("2dc", TranslationMode::HardwarePtw, |_| {});
    let sw = run(
        "2dc",
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        |_| {},
    );
    let slowdown = base.speedup_over(&sw); // >1 means SW is slower
    assert!(
        slowdown < 1.25,
        "regular-app slowdown should stay modest (paper ≤ ~11%), got {slowdown:.2}x"
    );
    // And hybrid mode must stay close to the baseline (the paper's §5.4
    // claim): hardware walkers absorb the common case, software only the
    // bursts.
    let hy = run("2dc", TranslationMode::Hybrid { in_tlb_mshr: true }, |_| {});
    assert!(hy.hw_walks > 0, "hybrid must use hardware walkers");
    let hybrid_slowdown = base.speedup_over(&hy);
    assert!(
        hybrid_slowdown < 1.15,
        "hybrid should track the baseline for regular apps, got {hybrid_slowdown:.2}x"
    );
}

#[test]
fn larger_l2_tlb_latency_degrades_gently() {
    let base = run("xsb", TranslationMode::HardwarePtw, |_| {});
    let fast = run(
        "xsb",
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        |c| {
            c.l2_tlb_latency = 40;
        },
    );
    let slow = run(
        "xsb",
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        |c| {
            c.l2_tlb_latency = 200;
        },
    );
    let x_fast = fast.speedup_over(&base);
    let x_slow = slow.speedup_over(&base);
    assert!(x_fast >= x_slow, "{x_fast:.2} vs {x_slow:.2}");
    // At this reduced scale the queues are shallower than the paper's
    // 46-SM machine, so communication latency weighs relatively more
    // (the paper's full-scale ratio is 2.07/2.31 ≈ 0.90); the invariant
    // is a gentle decline with a still-substantial win at 200 cycles.
    assert!(
        x_slow > x_fast * 0.4 && x_slow > 1.5,
        "even at 200 cycles the win must persist: fast {x_fast:.2}x slow {x_slow:.2}x"
    );
}

#[test]
fn large_pages_reduce_walk_pressure() {
    let small = run("gups", TranslationMode::HardwarePtw, |_| {});
    let large = run("gups", TranslationMode::HardwarePtw, |c| {
        *c = std::mem::take(c).with_large_pages();
        c.sms = 12;
        c.max_warps = 12;
    });
    assert!(
        large.walk.translations < small.walk.translations,
        "2MB pages must cut walk count: {} vs {}",
        large.walk.translations,
        small.walk.translations
    );
}

#[test]
fn mpki_separates_irregular_from_regular() {
    let irr = run("gups", TranslationMode::HardwarePtw, |_| {});
    let reg = run("gemm", TranslationMode::HardwarePtw, |_| {});
    assert!(
        irr.l2_tlb_mpki() > 20.0 * reg.l2_tlb_mpki().max(0.01),
        "irregular MPKI {:.1} vs regular {:.3}",
        irr.l2_tlb_mpki(),
        reg.l2_tlb_mpki()
    );
}
