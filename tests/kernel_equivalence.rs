//! Event-kernel ⇔ dense-loop equivalence.
//!
//! The simulator's event-scheduled kernel ([`GpuSimulator::run`]) jumps
//! the clock across quiescent stretches; the dense reference mode
//! ([`GpuSimulator::run_dense`]) executes every cycle. The two must
//! produce **byte-identical** statistics JSON on every benchmark × mode —
//! any divergence means a component advertised its next event too late
//! (missed work) or mutated state on a cycle the schedule skipped.
//!
//! Two layers:
//! * a fixed sweep over all Table 4 benchmarks × all translation modes;
//! * a property test over random (workload, mode, scale, fault plan)
//!   cells, including armed fault injection — the watchdog / backoff /
//!   driver-replay machinery is the hardest thing to schedule correctly.
//!
//! Alongside byte identity, the quick-scale harness cells here hold the
//! features' own floors: the event kernel skips at least a quarter of
//! the cycles of drain-heavy cells, DeadBlock replacement beats LRU's
//! L2 TLB MPKI, and a two-tenant mix stays fair.

use proptest::prelude::*;
use softwalker_repro::{
    by_abbr, table4, FaultPlan, GpuConfig, GpuSimulator, InstrSource, MmConfig, SharingPolicy,
    SimInput, SimStats, TenantsConfig, TranslationMode, WorkloadParams,
};
use swgpu_bench::{Scale, SystemConfig};
use swgpu_sim::PrefetchConfig;
use swgpu_tlb::ReplPolicy;

const ALL_MODES: [TranslationMode; 7] = [
    TranslationMode::HardwarePtw,
    TranslationMode::HashedPtw,
    TranslationMode::IdealPtw,
    TranslationMode::SoftWalker { in_tlb_mshr: true },
    TranslationMode::SoftWalker { in_tlb_mshr: false },
    TranslationMode::Hybrid { in_tlb_mshr: true },
    TranslationMode::Hybrid { in_tlb_mshr: false },
];

struct Cell {
    abbr: &'static str,
    mode: TranslationMode,
    sms: usize,
    warps: usize,
    instrs: u32,
    footprint_percent: u64,
    plan: FaultPlan,
}

fn build(cell: &Cell) -> GpuSimulator {
    let mut cfg = GpuConfig::quick_test();
    cfg.sms = cell.sms;
    cfg.max_warps = cell.warps;
    cfg.mode = cell.mode;
    cfg.fault_plan = cell.plan.clone();
    let spec = by_abbr(cell.abbr).expect("known benchmark");
    let wl = spec.build(WorkloadParams {
        sms: cfg.sms,
        warps_per_sm: cfg.max_warps,
        mem_instrs_per_warp: cell.instrs,
        footprint_percent: cell.footprint_percent,
        page_size: cfg.page_size,
    });
    GpuSimulator::build(cfg, Box::new(wl)).unwrap()
}

/// Runs the cell on both kernels and checks byte equality plus the
/// conservation ledgers (schedule tiling among them). Returns the
/// event-kernel stats.
fn assert_equivalent(cell: &Cell) -> SimStats {
    let event = build(cell).run();
    let dense = build(cell).run_dense();
    assert_eq!(
        event.to_json(),
        dense.to_json(),
        "{} / {:?}: event kernel diverged from dense reference",
        cell.abbr,
        cell.mode
    );
    assert!(
        !event.timed_out,
        "{} / {:?}: equivalence cell must drain",
        cell.abbr, cell.mode
    );
    assert_eq!(
        event.check_ledgers(),
        Ok(()),
        "{} / {:?}",
        cell.abbr,
        cell.mode
    );
    event
}

#[test]
fn every_benchmark_and_mode_is_byte_identical() {
    let mut total_skipped = 0u64;
    for spec in table4() {
        for mode in ALL_MODES {
            let s = assert_equivalent(&Cell {
                abbr: spec.abbr,
                mode,
                sms: 2,
                warps: 4,
                instrs: 2,
                footprint_percent: 10,
                plan: FaultPlan::default(),
            });
            total_skipped += s.kernel_cycles_skipped;
        }
    }
    // The sweep as a whole must actually exercise cycle-skipping: the
    // 80-cycle L2 TLB hops and 160-cycle DRAM waits leave wide gaps.
    assert!(
        total_skipped > 0,
        "event kernel never skipped a cycle across the whole sweep"
    );
}

/// Minimum fraction of its cycles the event kernel must skip on the
/// drain-heavy harness cells below. One SM with two warps cannot cover
/// the 80-cycle L2 TLB hops and DRAM round-trips, so most of each run is
/// quiescent waiting (observed fractions sit between 0.60 and 0.79). A
/// kernel degraded to per-cycle ticking keeps byte identity but fails
/// this floor.
const MIN_SKIPPED_FRACTION: f64 = 0.25;

#[test]
fn drain_heavy_cells_skip_a_quarter_of_their_cycles() {
    // Injected delays and stuck threads leave recovery timers as the
    // only pending events for long stretches.
    let delays = FaultPlan {
        seed: 0xd31a,
        mem_delay_rate: 0.10,
        stuck_thread_rate: 0.02,
        ..FaultPlan::default()
    };
    let mut cells = Vec::new();
    for abbr in ["gups", "bfs"] {
        for system in [
            SystemConfig::Baseline,
            SystemConfig::SoftWalker,
            SystemConfig::Hybrid,
        ] {
            cells.push((abbr, system, FaultPlan::default()));
        }
    }
    for system in [SystemConfig::Baseline, SystemConfig::SoftWalker] {
        cells.push(("gups", system, delays.clone()));
    }
    for (abbr, system, plan) in cells {
        let label = format!("{abbr}/{} (faults: {})", system.label(), plan.enabled());
        let mut cfg = system.build(Scale::Quick);
        cfg.sms = 1;
        cfg.max_warps = 2;
        cfg.fault_plan = plan;
        let spec = by_abbr(abbr).expect("known benchmark");
        let cell = swgpu_bench::Cell::bench_scaled(&spec, cfg, 20);
        let event = cell.simulate();
        assert_eq!(
            event.to_json(),
            cell.simulate_dense().to_json(),
            "{label}: event kernel diverged from dense reference"
        );
        assert!(!event.timed_out, "{label}: must drain");
        assert_eq!(event.check_ledgers(), Ok(()), "{label}");
        let fraction = event.kernel_cycles_skipped as f64 / (event.cycles + 1) as f64;
        assert!(
            fraction >= MIN_SKIPPED_FRACTION,
            "{label}: skipped fraction {fraction:.3} below the {MIN_SKIPPED_FRACTION} floor"
        );
    }
}

#[test]
fn fault_recovery_cells_are_byte_identical() {
    // Armed watchdogs, backoff retries and driver replays schedule the
    // sparsest wakes in the system; sweep them on every walker kind.
    let plan = FaultPlan {
        seed: 0xe7e7,
        pte_corrupt_rate: 0.05,
        mem_drop_rate: 0.05,
        mem_delay_rate: 0.05,
        stuck_thread_rate: 0.02,
        ..FaultPlan::default()
    };
    for mode in [
        TranslationMode::HardwarePtw,
        TranslationMode::HashedPtw,
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        TranslationMode::Hybrid { in_tlb_mshr: true },
    ] {
        let s = assert_equivalent(&Cell {
            abbr: "gups",
            mode,
            sms: 4,
            warps: 8,
            instrs: 3,
            footprint_percent: 20,
            plan: plan.clone(),
        });
        assert!(
            s.fault.injected_total() > 0,
            "{mode:?}: storm cell must actually inject faults"
        );
    }
}

#[test]
fn demand_paged_cells_are_byte_identical() {
    // Demand paging schedules the sparsest wakes of all: a cold page
    // table means every first touch detours through the driver queue
    // (fill latency, then a replayed walk), and a tight budget adds
    // eviction + re-fault cycles on top. Swept on every walker kind the
    // manager supports (HashedPtw is rejected by validate(): the FS-HPT
    // table has no incremental map path).
    for budget in [0u64, 64] {
        for mode in [
            TranslationMode::HardwarePtw,
            TranslationMode::IdealPtw,
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            TranslationMode::SoftWalker { in_tlb_mshr: false },
            TranslationMode::Hybrid { in_tlb_mshr: true },
        ] {
            let make = || {
                let mut cfg = GpuConfig::quick_test();
                cfg.mode = mode;
                cfg.mm = MmConfig {
                    resident_page_budget: budget,
                    ..MmConfig::demand_paged()
                };
                let spec = by_abbr("gups").expect("known benchmark");
                let wl = spec.build(WorkloadParams {
                    sms: cfg.sms,
                    warps_per_sm: cfg.max_warps,
                    mem_instrs_per_warp: 3,
                    footprint_percent: 20,
                    page_size: cfg.page_size,
                });
                GpuSimulator::build(cfg, Box::new(wl)).unwrap()
            };
            let event = make().run();
            let dense = make().run_dense();
            assert_eq!(
                event.to_json(),
                dense.to_json(),
                "{mode:?} budget {budget}: demand-paged event kernel diverged"
            );
            assert!(!event.timed_out, "{mode:?} budget {budget}: must drain");
            assert!(
                event.mm.major_faults > 0,
                "{mode:?} budget {budget}: cold page table must fault"
            );
            assert_eq!(event.check_ledgers(), Ok(()), "{mode:?} budget {budget}");
            if budget > 0 {
                assert!(
                    event.mm.evictions > 0,
                    "{mode:?}: budget {budget} must force eviction"
                );
            }
        }
    }
}

#[test]
fn faulted_demand_paged_cells_are_byte_identical() {
    // The data-path fault machinery schedules everything the kernel can
    // get wrong at once: fill watchdogs at exponential-backoff deadlines,
    // delayed fill replays, re-queued (stalled) driver requests, and
    // refills after checksum-triggered quarantines. All of it is
    // port-driven, so the event kernel must reproduce the dense
    // reference bit for bit under a full storm.
    let plan = FaultPlan {
        seed: 0xfee1_dead,
        fill_drop_rate: 0.10,
        fill_delay_rate: 0.05,
        fill_duplicate_rate: 0.05,
        fill_corrupt_rate: 0.05,
        shootdown_drop_rate: 0.10,
        driver_stuck_rate: 0.05,
        ..FaultPlan::default()
    };
    for mode in [
        TranslationMode::HardwarePtw,
        TranslationMode::SoftWalker { in_tlb_mshr: true },
        TranslationMode::Hybrid { in_tlb_mshr: true },
    ] {
        let make = || {
            let mut cfg = GpuConfig::quick_test();
            cfg.mode = mode;
            cfg.fault_plan = plan.clone();
            cfg.mm = MmConfig {
                resident_page_budget: 64,
                ..MmConfig::demand_paged()
            };
            let spec = by_abbr("gups").expect("known benchmark");
            let wl = spec.build(WorkloadParams {
                sms: cfg.sms,
                warps_per_sm: cfg.max_warps,
                mem_instrs_per_warp: 3,
                footprint_percent: 20,
                page_size: cfg.page_size,
            });
            GpuSimulator::build(cfg, Box::new(wl)).unwrap()
        };
        let event = make().run();
        let dense = make().run_dense();
        assert_eq!(
            event.to_json(),
            dense.to_json(),
            "{mode:?}: fill-storm event kernel diverged from dense reference"
        );
        assert!(!event.timed_out, "{mode:?}: fill-storm cell must drain");
        assert!(
            event.mm_fault.injected_conserved() > 0,
            "{mode:?}: fill-storm cell must actually inject"
        );
    }
}

#[test]
fn observability_cells_are_byte_identical() {
    // Obs-on runs wake at sample boundaries between events; those extra
    // steps must stay no-ops for simulation state.
    for mode in [
        TranslationMode::HardwarePtw,
        TranslationMode::SoftWalker { in_tlb_mshr: true },
    ] {
        let make = || {
            let mut cfg = GpuConfig::quick_test();
            cfg.mode = mode;
            cfg.obs = swgpu_obs::ObsConfig {
                sample_interval: 64,
                ..swgpu_obs::ObsConfig::enabled()
            };
            let spec = by_abbr("gups").expect("known benchmark");
            let wl = spec.build(WorkloadParams {
                sms: cfg.sms,
                warps_per_sm: cfg.max_warps,
                mem_instrs_per_warp: 3,
                footprint_percent: 20,
                page_size: cfg.page_size,
            });
            GpuSimulator::build(cfg, Box::new(wl)).unwrap()
        };
        let event = make().run();
        let dense = make().run_dense();
        assert_eq!(
            event.to_json(),
            dense.to_json(),
            "{mode:?}: obs-armed event kernel diverged"
        );
        let occ = |s: &SimStats| {
            s.obs
                .as_deref()
                .expect("obs armed")
                .time_series("softpwb_occupancy")
                .expect("series")
                .total_pushed()
        };
        assert_eq!(
            occ(&event),
            occ(&dense),
            "{mode:?}: gap-aware sampling changed the sample count"
        );
    }
}

/// Runs a quick-scale `abbr` cell under `mode`, with `tweak` applied to
/// the configuration, on both kernels; asserts byte identity and returns
/// the event-kernel stats.
fn assert_policy_cell_equivalent(
    abbr: &str,
    mode: TranslationMode,
    tweak: fn(&mut GpuConfig),
) -> SimStats {
    let make = || {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = mode;
        tweak(&mut cfg);
        let spec = by_abbr(abbr).expect("known benchmark");
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 3,
            footprint_percent: 20,
            page_size: cfg.page_size,
        });
        GpuSimulator::build(cfg, Box::new(wl)).unwrap()
    };
    let event = make().run();
    let dense = make().run_dense();
    assert_eq!(
        event.to_json(),
        dense.to_json(),
        "{abbr} / {mode:?}: policy cell diverged from dense reference"
    );
    assert!(!event.timed_out, "{abbr} / {mode:?}: must drain");
    assert_eq!(event.check_ledgers(), Ok(()), "{abbr} / {mode:?}");
    event
}

#[test]
fn prefetch_cells_are_byte_identical() {
    // Prefetch walks borrow idle PW Warp threads — the units the event
    // kernel skips while they have no due work.
    for abbr in ["gups", "sssp"] {
        for mode in [
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            TranslationMode::Hybrid { in_tlb_mshr: true },
        ] {
            let s = assert_policy_cell_equivalent(abbr, mode, |cfg| {
                cfg.prefetch = PrefetchConfig::enabled();
            });
            assert!(
                s.prefetch_issued > 0,
                "{abbr} / {mode:?}: no prefetch issued"
            );
        }
    }
    // The quick-scale harness cell: byte-identical across kernels and
    // across reruns, with a nonzero (and balanced) prefetch ledger.
    let mut cfg = SystemConfig::SoftWalker.build(Scale::Quick);
    cfg.prefetch = PrefetchConfig::enabled();
    let cell = swgpu_bench::Cell::bench(&by_abbr("gups").expect("known benchmark"), cfg);
    let event = cell.simulate();
    assert_eq!(event.to_json(), cell.simulate_dense().to_json());
    assert_eq!(event.to_json(), cell.simulate().to_json(), "rerun diverged");
    assert_eq!(event.check_ledgers(), Ok(()));
    assert!(event.prefetch_issued > 0, "quick cell issued no prefetch");
}

#[test]
fn dead_block_cells_are_byte_identical() {
    for abbr in ["gups", "sssp"] {
        for mode in [
            TranslationMode::HardwarePtw,
            TranslationMode::SoftWalker { in_tlb_mshr: true },
        ] {
            let s = assert_policy_cell_equivalent(abbr, mode, |cfg| {
                cfg.l1_tlb.repl = ReplPolicy::DeadBlock;
                cfg.l2_tlb.repl = ReplPolicy::DeadBlock;
            });
            assert!(
                s.tlb_dead_fills > 0,
                "{abbr} / {mode:?}: no fill predicted dead"
            );
        }
    }
    // The quick-scale harness cell: sssp thrashes the L2 TLB hard enough
    // that the sampling predictor must earn its keep — at least 1% under
    // LRU's MPKI (about 5% when the policy landed), same work retired.
    let spec = by_abbr("sssp").expect("known benchmark");
    let lru_cfg = SystemConfig::SoftWalker.build(Scale::Quick);
    let mut dead_cfg = lru_cfg.clone();
    dead_cfg.l1_tlb.repl = ReplPolicy::DeadBlock;
    dead_cfg.l2_tlb.repl = ReplPolicy::DeadBlock;
    let lru = swgpu_bench::Cell::bench(&spec, lru_cfg).simulate();
    let cell = swgpu_bench::Cell::bench(&spec, dead_cfg);
    let dead = cell.simulate();
    assert_eq!(dead.to_json(), cell.simulate_dense().to_json());
    assert_eq!(
        dead.instructions, lru.instructions,
        "policy changed the work"
    );
    assert!(dead.tlb_dead_fills > 0, "quick cell predicted no fill dead");
    let (l, d) = (lru.l2_tlb_mpki(), dead.l2_tlb_mpki());
    assert!(
        d <= l * 0.99,
        "dead-entry floor missed: {d:.2} MPKI under DeadBlock vs {l:.2} under LRU"
    );
}

/// Builds a two-tenant simulator over the given sharing policy and
/// memory manager; the tenant mix (one irregular, one regular, per
/// Table 4) splits the SMs evenly.
fn two_tenant_sim(policy: SharingPolicy, mm: MmConfig) -> GpuSimulator {
    let mut cfg = GpuConfig::quick_test();
    cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
    cfg.mm = mm;
    let mut layout = TenantsConfig::pair("gups", "2dc", cfg.sms);
    layout.policy = policy;
    cfg.tenants = Some(layout.clone());
    let pairs: Vec<(Box<dyn InstrSource>, u64)> = layout
        .tenants
        .iter()
        .map(|t| {
            let spec = by_abbr(&t.workload).expect("known benchmark");
            let wl = spec.build(WorkloadParams {
                sms: t.sms,
                warps_per_sm: cfg.max_warps,
                mem_instrs_per_warp: 2,
                footprint_percent: 10,
                page_size: cfg.page_size,
            });
            let fp = wl.footprint_bytes();
            (Box::new(wl) as Box<dyn InstrSource>, fp)
        })
        .collect();
    GpuSimulator::build(cfg, SimInput::Tenants(pairs)).unwrap()
}

#[test]
fn single_tenant_stats_remain_byte_transparent() {
    // `tenants: None` must be invisible end to end: no tenant keys in
    // the stats JSON, no tenant block in the Display rendering, and the
    // usual dense ⇔ event byte identity. (The config side is pinned
    // separately by the golden fingerprint test.)
    let cell = Cell {
        abbr: "gups",
        mode: TranslationMode::SoftWalker { in_tlb_mshr: true },
        sms: 2,
        warps: 4,
        instrs: 2,
        footprint_percent: 10,
        plan: FaultPlan::default(),
    };
    let s = assert_equivalent(&cell);
    let json = s.to_json();
    assert!(
        !json.contains("tenant"),
        "single-tenant JSON must carry no tenant keys"
    );
    assert!(!format!("{s}").contains("tenant"));
    assert!(s.tenants.is_empty());

    // The quick-scale harness cell with the default policy knobs spelled
    // out: the same cache key, and no tenant or policy keys emitted.
    let base = SystemConfig::SoftWalker.build(Scale::Quick);
    let mut named = base.clone();
    named.l1_tlb.repl = ReplPolicy::Lru;
    named.l2_tlb.repl = ReplPolicy::Lru;
    named.prefetch = PrefetchConfig::default();
    named.tenants = None;
    assert_eq!(named.fingerprint(), base.fingerprint());
    let s = swgpu_bench::Cell::bench(&by_abbr("gups").expect("known benchmark"), named).simulate();
    let json = s.to_json();
    for key in ["tenant", "fairness", "tlb_dead_fills", "prefetch_"] {
        assert!(!json.contains(key), "default knobs emitted {key} keys");
    }
    assert!(!format!("{s}").contains("tenant"));
}

#[test]
fn two_tenant_cells_are_byte_identical_and_deterministic() {
    for policy in [
        SharingPolicy::Partitioned,
        SharingPolicy::Shared {
            max_inflight_walks: 8,
        },
    ] {
        // The small mix, and the quick-scale harness cell of the same
        // gups + 2dc mix.
        let mut cfg = SystemConfig::SoftWalker.build(Scale::Quick);
        let mut layout = TenantsConfig::pair("gups", "2dc", cfg.sms);
        layout.policy = policy;
        cfg.tenants = Some(layout);
        let quick = swgpu_bench::Cell::tenant_mix(cfg, 10);
        let small = || two_tenant_sim(policy, MmConfig::default());
        let makers: [&dyn Fn() -> GpuSimulator; 2] = [&small, &|| quick.build_simulator().unwrap()];
        for (i, make) in makers.into_iter().enumerate() {
            let label = format!("{policy:?} mix {i}");
            let event = make().run();
            assert_eq!(
                event.to_json(),
                make().run_dense().to_json(),
                "{label}: two-tenant event kernel diverged from dense reference"
            );
            // Re-running the identical construction must be bit-for-bit
            // reproducible — the multi-tenant machinery draws from the
            // same seeded streams regardless of host conditions.
            assert_eq!(
                event.to_json(),
                make().run().to_json(),
                "{label}: run not deterministic"
            );
            assert!(!event.timed_out, "{label}: must drain");
            assert_eq!(event.check_ledgers(), Ok(()), "{label}");
            assert_eq!(event.tenants.len(), 2);
            for (t, tenant) in event.tenants.iter().enumerate() {
                assert!(tenant.instructions > 0, "{label}: tenant {t} starved");
            }
            // Jain's index over two active tenants lies in [1/2, 1].
            let f = event.fairness_index();
            assert!((0.5..=1.0).contains(&f), "{label}: fairness {f:.3}");
            // The tenant block survives a JSON round trip.
            let parsed = SimStats::from_json(&event.to_json()).expect("round trip");
            assert_eq!(parsed.tenants, event.tenants);
        }
    }
}

#[test]
fn demand_paged_shootdown_directory_cells_are_byte_identical() {
    // L1 TLB shootdowns visit only the SMs the holder directory marks
    // (debug builds check every skipped SM against its TLB). Two layouts
    // stress the directory's keying: two tenants whose per-tenant
    // managers evict pages under the same VPNs, and more than 64 SMs,
    // where SM `i` and SM `i + 64` share a directory bit.
    let budget = MmConfig {
        resident_page_budget: 32,
        ..MmConfig::demand_paged()
    };
    let event = two_tenant_sim(SharingPolicy::Partitioned, budget).run();
    let dense = two_tenant_sim(SharingPolicy::Partitioned, budget).run_dense();
    assert_eq!(
        event.to_json(),
        dense.to_json(),
        "two-tenant demand-paged event kernel diverged"
    );
    assert!(!event.timed_out, "two-tenant demand-paged cell must drain");
    assert!(
        event.mm.evictions > 0,
        "two-tenant budget must force eviction"
    );

    for mode in [
        TranslationMode::HardwarePtw,
        TranslationMode::SoftWalker { in_tlb_mshr: true },
    ] {
        let make = || {
            let mut cfg = GpuConfig::quick_test();
            cfg.sms = 72;
            cfg.max_warps = 2;
            cfg.mode = mode;
            cfg.mm = budget;
            let spec = by_abbr("gups").expect("known benchmark");
            let wl = spec.build(WorkloadParams {
                sms: cfg.sms,
                warps_per_sm: cfg.max_warps,
                mem_instrs_per_warp: 2,
                footprint_percent: 1,
                page_size: cfg.page_size,
            });
            GpuSimulator::build(cfg, Box::new(wl)).unwrap()
        };
        let event = make().run();
        let dense = make().run_dense();
        assert_eq!(
            event.to_json(),
            dense.to_json(),
            "{mode:?}: 72-SM demand-paged event kernel diverged"
        );
        assert!(!event.timed_out, "{mode:?}: 72-SM cell must drain");
        assert!(event.mm.evictions > 0, "{mode:?}: 72-SM budget must evict");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn random_cells_are_byte_identical(
        bench in prop::sample::select(vec!["gups", "bfs", "spmv", "gemm", "2dc", "xsb"]),
        mode_idx in 0usize..ALL_MODES.len(),
        instrs in 2u32..4,
        footprint_percent in prop::sample::select(vec![10u64, 20, 50]),
        faulty in any::<bool>(),
        seed in 1u64..1_000_000,
    ) {
        let plan = if faulty {
            FaultPlan {
                seed,
                pte_corrupt_rate: 0.03,
                mem_drop_rate: 0.03,
                mem_delay_rate: 0.03,
                stuck_thread_rate: 0.01,
                ..FaultPlan::default()
            }
        } else {
            FaultPlan::default()
        };
        assert_equivalent(&Cell {
            abbr: bench,
            mode: ALL_MODES[mode_idx],
            sms: 2,
            warps: 6,
            instrs,
            footprint_percent,
            plan,
        });
    }
}
