//! Runner-input fuzzing: random cells over every axis a configuration
//! can vary — geometry, walker, demand paging, fault plan, translation
//! policy and tenants. Whatever [`GpuConfig::validate`] accepts must run
//! to its end (drained, or stopped at the cycle cap) without panicking
//! and balance every conservation ledger that applies
//! ([`swgpu_sim::SimStats::check_ledgers`]).
//!
//! Cases are tiny (at most 4 SMs of 4 warps) and run one after another
//! on the test thread. A configuration that once failed stays below as a
//! fixed regression input.

use proptest::prelude::{any, Strategy};
use proptest::prop::sample::select;
use rand::rngs::StdRng;
use softwalker_repro::{
    table4, DistributorPolicy, FaultPlan, MmConfig, MmEvictPolicy, PageSize, SharingPolicy,
    TenantConfig, TenantsConfig, TranslationMode,
};
use swgpu_bench::{Cell, Scale, SystemConfig};
use swgpu_sim::PrefetchConfig;
use swgpu_tlb::ReplPolicy;

/// Random cases drawn per run.
const CASES: u32 = 64;

const MODES: [TranslationMode; 7] = [
    TranslationMode::HardwarePtw,
    TranslationMode::HashedPtw,
    TranslationMode::IdealPtw,
    TranslationMode::SoftWalker { in_tlb_mshr: true },
    TranslationMode::SoftWalker { in_tlb_mshr: false },
    TranslationMode::Hybrid { in_tlb_mshr: true },
    TranslationMode::Hybrid { in_tlb_mshr: false },
];

fn pick<T: Clone>(rng: &mut StdRng, options: &[T]) -> T {
    select(options.to_vec()).new_value(rng)
}

fn rng_bool(rng: &mut StdRng) -> bool {
    any::<bool>().new_value(rng)
}

/// A fault rate: mostly off, sometimes a storm of at most `storm`.
fn rate(rng: &mut StdRng, storm: f64) -> f64 {
    pick(rng, &[0.0, 0.0, 0.0, 0.02, storm])
}

/// One random cell: a quick-scale system with every axis redrawn.
fn draw_cell(rng: &mut StdRng) -> Cell {
    let mut cfg = SystemConfig::SoftWalker.build(Scale::Quick);
    cfg.sms = (1..=4usize).new_value(rng);
    cfg.max_warps = (1..=4usize).new_value(rng);
    // Caps low enough that runs which never drain stop quickly.
    cfg.max_cycles = pick(rng, &[20_000, 200_000]);
    cfg.page_size = pick(
        rng,
        &[PageSize::Size4K, PageSize::Size64K, PageSize::Size2M],
    );
    cfg.l1_tlb.assoc = pick(rng, &[1, 4, 32]);
    cfg.l1_tlb.entries = cfg.l1_tlb.assoc * pick(rng, &[1, 2, 8]);
    cfg.l2_tlb.assoc = pick(rng, &[1, 2, 4, 16]);
    cfg.l2_tlb.entries = cfg.l2_tlb.assoc * pick(rng, &[1, 4, 64]);
    cfg.l1_mshr.entries = pick(rng, &[1, 32]);
    cfg.l2_mshr.entries = pick(rng, &[1, 4, 128]);
    cfg.l2_mshr.max_merges = pick(rng, &[1, 46]);
    cfg.in_tlb_max = pick(rng, &[0, 1, 16, 1024]);
    cfg.pwc_entries = pick(rng, &[1, 32]);

    cfg.mode = pick(rng, &MODES);
    cfg.force_in_tlb = rng_bool(rng);
    cfg.ptw.walkers = pick(rng, &[1, 2, 32]);
    cfg.ptw.pwb_entries = pick(rng, &[1, 8, 128]);
    cfg.pw_warp.threads = pick(rng, &[1, 4, 32]);
    cfg.pw_warp.softpwb_entries = pick(rng, &[1, 4, 32]);
    cfg.pw_warp.fault_buffer_entries = pick(rng, &[1, 64]);
    cfg.distributor_policy = pick(
        rng,
        &[
            DistributorPolicy::RoundRobin,
            DistributorPolicy::Random,
            DistributorPolicy::StallAware,
        ],
    );

    if rng_bool(rng) {
        cfg.mm = MmConfig {
            resident_page_budget: pick(rng, &[0, 1, 8, 64]),
            coalesce: rng_bool(rng),
            evict: pick(rng, &[MmEvictPolicy::Fifo, MmEvictPolicy::Lru]),
            ..MmConfig::demand_paged()
        };
    }
    // One case in four may fire a site on every event: such runs never
    // drain, so they check the ledgers that close at the cycle cap.
    let storm = pick(rng, &[0.1, 0.1, 0.1, 1.0]);
    cfg.fault_plan = FaultPlan {
        seed: (0..1_000_000u64).new_value(rng),
        pte_corrupt_rate: rate(rng, storm),
        pte_silent_corrupt_rate: rate(rng, storm),
        mem_drop_rate: rate(rng, storm),
        mem_delay_rate: rate(rng, storm),
        stuck_thread_rate: rate(rng, storm),
        max_retries: pick(rng, &[0, 1, 4]),
        ..FaultPlan::default()
    };
    if cfg.mm.enabled {
        let plan = &mut cfg.fault_plan;
        plan.fill_drop_rate = rate(rng, storm);
        plan.fill_delay_rate = rate(rng, storm);
        plan.fill_duplicate_rate = rate(rng, storm);
        plan.fill_corrupt_rate = rate(rng, storm);
        plan.shootdown_drop_rate = rate(rng, storm);
        plan.driver_stuck_rate = rate(rng, storm);
        plan.frame_retire_threshold = pick(rng, &[1, 3]);
    }

    let repl = [ReplPolicy::Lru, ReplPolicy::DeadBlock];
    cfg.l1_tlb.repl = pick(rng, &repl);
    cfg.l2_tlb.repl = pick(rng, &repl);
    if rng_bool(rng) {
        cfg.prefetch = PrefetchConfig {
            lookahead: pick(rng, &[1, 4]),
            degree: pick(rng, &[1, 2]),
            ..PrefetchConfig::enabled()
        };
    }

    let abbrs: Vec<&str> = table4().iter().map(|s| s.abbr).collect();
    let footprint_percent = pick(rng, &[1, 10, 20]);
    let tenants = pick(rng, &[1, 1, 2, 3, 4]);
    if tenants > 1 && cfg.sms >= tenants {
        let per = cfg.sms / tenants;
        cfg.tenants = Some(TenantsConfig {
            tenants: (0..tenants)
                .map(|i| TenantConfig {
                    workload: pick(rng, &abbrs).to_string(),
                    sms: if i == 0 {
                        cfg.sms - per * (tenants - 1)
                    } else {
                        per
                    },
                })
                .collect(),
            policy: pick(
                rng,
                &[
                    SharingPolicy::Partitioned,
                    SharingPolicy::Shared {
                        max_inflight_walks: 1,
                    },
                    SharingPolicy::Shared {
                        max_inflight_walks: 8,
                    },
                ],
            ),
            sub_entry_sharing: rng_bool(rng),
        });
        return Cell::tenant_mix(cfg, footprint_percent);
    }
    let spec = swgpu_workloads::by_abbr(pick(rng, &abbrs)).expect("table 4 benchmark");
    Cell::bench_scaled(&spec, cfg, footprint_percent)
}

/// Runs an accepted cell, checks the ledgers that apply to it and
/// returns whether the run drained (so the drain-only laws were checked
/// too).
fn assert_balanced(case: &str, cell: &Cell) -> bool {
    let stats = cell.simulate();
    assert_eq!(
        stats.check_ledgers(),
        Ok(()),
        "{case}: {} broke its ledgers (timed out: {})",
        cell.key(),
        stats.timed_out
    );
    !stats.timed_out
}

#[test]
fn joined_prefetch_is_counted() {
    // Under sub-entry sharing, a prefetched walk result that joined the
    // other tenant's resident entry installed no tagged way and was
    // never counted: the prefetch ledger came up one short.
    let mut cfg = SystemConfig::SoftWalker.build(Scale::Quick);
    cfg.sms = 3;
    cfg.max_warps = 3;
    cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: false };
    cfg.l2_mshr.max_merges = 1;
    cfg.prefetch = PrefetchConfig {
        lookahead: 1,
        degree: 2,
        ..PrefetchConfig::enabled()
    };
    let mut layout = TenantsConfig::pair("red", "cc", cfg.sms);
    layout.tenants[0].sms = 2;
    layout.tenants[1].sms = 1;
    layout.policy = SharingPolicy::Shared {
        max_inflight_walks: 8,
    };
    layout.sub_entry_sharing = true;
    cfg.tenants = Some(layout);
    let cell = Cell::tenant_mix(cfg, 1);
    assert_eq!(
        cell.cfg.validate(),
        Ok(()),
        "regression cell is no longer valid"
    );
    assert!(assert_balanced("joined prefetch", &cell), "timed out");
}

#[test]
fn every_valid_config_runs_and_balances_its_ledgers() {
    let (mut ran, mut drained) = (0, 0);
    for case in 0..CASES {
        let mut rng = proptest::case_rng("every_valid_config_runs_and_balances_its_ledgers", case);
        let cell = draw_cell(&mut rng);
        if cell.cfg.validate().is_err() {
            continue;
        }
        // Printed before the run so a panicking case names its input.
        eprintln!("case {case}: {:?} on {:?}", cell.workload, cell.cfg);
        drained += u32::from(assert_balanced(&format!("case {case}"), &cell));
        ran += 1;
    }
    eprintln!("{ran} of {CASES} drawn configs accepted, {drained} drained");
    assert!(
        ran >= CASES / 4,
        "validate accepted only {ran} of {CASES} drawn configs"
    );
    // The walk recovery, data path, fill corruption and paging laws
    // close only on drained runs: enough cases must drain for them to
    // be exercised, not skipped behind the cycle cap.
    assert!(
        drained >= ran / 4,
        "only {drained} of {ran} accepted configs drained"
    );
}
