//! Golden `SimStats` digests.
//!
//! A host-side refactor (containers, hashing, scheduling shortcuts) must
//! leave every simulated result byte-identical. This test pins an FNV-1a
//! digest of `SimStats::to_json()` for one small cell per translation
//! path, so a change that moves any counter — or the JSON layout — fails
//! here instead of needing a manual diff against an older build:
//!
//! * `sssp` under SoftWalker with the In-TLB MSHR (PW Warps);
//! * `2dc` under Hybrid (hardware PTWs plus PW Warps);
//! * `sssp` under hardware PTWs, demand-paged below its footprint
//!   (faults, eviction and shootdowns);
//! * the same demand-paged cell under SoftWalker with lost shootdowns
//!   and corrupted fills injected (the eviction branch that may drop the
//!   L2 TLB shootdown, and the checksum-triggered re-shootdown of a
//!   page whose frame went bad).
//!
//! Three more cells pin the stats blocks the four above leave out, so a
//! key reordered or dropped in any emitted block fails here too:
//!
//! * `gups` under hardware PTWs with PTE corruption and memory drops
//!   injected (the `fault_*` block);
//! * `sssp` under SoftWalker with DeadBlock L1/L2 TLBs and translation
//!   prefetch (`tlb_dead_fills` and the `prefetch_*` block);
//! * two identically-mapped `gups` tenants sharing the L2 TLB with
//!   sub-entry sharing (`tenant*`, `fairness_index` and
//!   `l2_tlb_shared_joins`).
//!
//! Four more pin the walkers' recovery and hashed paths:
//!
//! * `gups` under SoftWalker and under Hybrid with the full fault storm
//!   (PTE corruption, silent corruption, memory drops and delays, stuck
//!   PW threads): the PW Warp's watchdog, backoff-retry and escalation
//!   paths, and on Hybrid both walkers' at once;
//! * `sssp` under `HashedPtw`: the hardware walker's bucket probes,
//!   unarmed and with both kinds of PTE corruption injected into the
//!   slot decodes.
//!
//! Two more pin the UVM driver's state and the per-tenant managers:
//!
//! * the demand-paged `sssp` SoftWalker cell with every data-path site
//!   armed: dropped fills and their watchdogs, duplicated and delayed
//!   fills and driver-queue stalls;
//! * a demand-paged `sssp`+`gups` mix under the `Partitioned` policy:
//!   one memory manager per tenant, the L2 TLB way partition, the
//!   per-tenant dispatch masks and the summed `mm_resident_peak`.
//!
//! A second test pins the streamed SWTB bytes of one obs-armed
//! SoftWalker cell and one obs-armed hardware-PTW cell on each page
//! table, so the per-level `PteRead` span stream of both walkers cannot
//! move either.
//!
//! A deliberate change to simulated behaviour or to the stats schema
//! re-records the digests; the failure message prints the new values.

use softwalker_repro::{
    by_abbr, FaultPlan, GpuConfig, GpuSimulator, InstrSource, MmConfig, SharingPolicy, SimInput,
    SimStats, TenantsConfig, TranslationMode, WorkloadParams,
};
use swgpu_sim::{ObsConfig, PrefetchConfig};
use swgpu_tlb::ReplPolicy;

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The demand-paged configuration: a resident budget of 64 pages, far
/// below the cells' footprint.
fn paged(cfg: &mut GpuConfig) {
    cfg.mm = MmConfig {
        resident_page_budget: 64,
        ..MmConfig::demand_paged()
    };
}

/// Every injection kind the walkers recover from, at storm rates.
fn storm(cfg: &mut GpuConfig) {
    cfg.fault_plan = FaultPlan {
        seed: 0xf00d,
        pte_corrupt_rate: 0.05,
        pte_silent_corrupt_rate: 0.05,
        mem_drop_rate: 0.05,
        mem_delay_rate: 0.05,
        stuck_thread_rate: 0.02,
        ..FaultPlan::default()
    };
}

fn simulator(abbr: &str, mode: TranslationMode, tweak: fn(&mut GpuConfig)) -> GpuSimulator {
    let mut cfg = GpuConfig::quick_test();
    cfg.mode = mode;
    tweak(&mut cfg);
    let spec = by_abbr(abbr).expect("known benchmark");
    let wl = spec.build(WorkloadParams {
        sms: cfg.sms,
        warps_per_sm: cfg.max_warps,
        mem_instrs_per_warp: 8,
        footprint_percent: 20,
        page_size: cfg.page_size,
    });
    GpuSimulator::build(cfg, Box::new(wl)).unwrap()
}

fn run(abbr: &str, mode: TranslationMode, tweak: fn(&mut GpuConfig)) -> SimStats {
    let stats = simulator(abbr, mode, tweak).run();
    assert!(!stats.timed_out, "{abbr} / {mode:?}: timed out");
    stats
}

/// Every demand-paging data-path site armed: fill drops, duplicates,
/// delays and corruption, lost shootdowns and driver stalls (the recipe
/// `tests/mm_demand.rs` runs on every walker).
fn data_storm(cfg: &mut GpuConfig) {
    paged(cfg);
    cfg.fault_plan = FaultPlan {
        seed: 0xfee1_dead,
        fill_drop_rate: 0.10,
        fill_delay_rate: 0.05,
        fill_duplicate_rate: 0.05,
        fill_corrupt_rate: 0.05,
        shootdown_drop_rate: 0.10,
        driver_stuck_rate: 0.05,
        ..FaultPlan::default()
    };
}

/// Runs the two-tenant `a`+`b` mix under SoftWalker with the In-TLB
/// MSHR, `policy` and `sub_entry_sharing`, after `tweak`.
fn run_tenants(
    (a, b): (&str, &str),
    policy: SharingPolicy,
    sub_entry_sharing: bool,
    tweak: fn(&mut GpuConfig),
) -> SimStats {
    let mut cfg = GpuConfig::quick_test();
    cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
    tweak(&mut cfg);
    let mut layout = TenantsConfig::pair(a, b, cfg.sms);
    layout.policy = policy;
    layout.sub_entry_sharing = sub_entry_sharing;
    cfg.tenants = Some(layout.clone());
    let sources: Vec<(Box<dyn InstrSource>, u64)> = layout
        .tenants
        .iter()
        .map(|t| {
            let wl = by_abbr(&t.workload)
                .expect("known benchmark")
                .build(WorkloadParams {
                    sms: t.sms,
                    warps_per_sm: cfg.max_warps,
                    mem_instrs_per_warp: 8,
                    footprint_percent: 20,
                    page_size: cfg.page_size,
                });
            let fp = wl.footprint_bytes();
            (Box::new(wl) as Box<dyn InstrSource>, fp)
        })
        .collect();
    let stats = GpuSimulator::build(cfg, SimInput::Tenants(sources))
        .unwrap()
        .run();
    assert!(!stats.timed_out, "{a}+{b} / {policy:?}: timed out");
    stats
}

#[test]
fn stats_json_matches_golden_digests() {
    let cells: [(&str, SimStats, u64); 13] = [
        (
            "sssp/softwalker+in-tlb",
            run(
                "sssp",
                TranslationMode::SoftWalker { in_tlb_mshr: true },
                |_| {},
            ),
            0x1935_22a4_6cb6_ee3a,
        ),
        (
            "2dc/hybrid+in-tlb",
            run("2dc", TranslationMode::Hybrid { in_tlb_mshr: true }, |_| {}),
            0x811b_9f66_e05d_31de,
        ),
        (
            "sssp/hw-ptw demand-paged",
            run("sssp", TranslationMode::HardwarePtw, paged),
            0xc4b5_6ecb_bd6f_5729,
        ),
        (
            "sssp/softwalker+in-tlb demand-paged, shootdown drops + fill corruption",
            run(
                "sssp",
                TranslationMode::SoftWalker { in_tlb_mshr: true },
                |cfg| {
                    paged(cfg);
                    cfg.fault_plan = FaultPlan {
                        seed: 0x5eed_d0c5,
                        shootdown_drop_rate: 0.2,
                        fill_corrupt_rate: 0.1,
                        ..FaultPlan::default()
                    };
                },
            ),
            0xedb2_360c_c89f_7884,
        ),
        (
            "gups/hw-ptw, PTE corruption + memory drops",
            run("gups", TranslationMode::HardwarePtw, |cfg| {
                cfg.fault_plan = FaultPlan {
                    seed: 0xfa17,
                    pte_corrupt_rate: 0.05,
                    mem_drop_rate: 0.05,
                    ..FaultPlan::default()
                };
            }),
            0xd37d_4ac9_b532_98b2,
        ),
        (
            "sssp/softwalker+in-tlb, DeadBlock TLBs + prefetch",
            run(
                "sssp",
                TranslationMode::SoftWalker { in_tlb_mshr: true },
                |cfg| {
                    cfg.l1_tlb.repl = ReplPolicy::DeadBlock;
                    cfg.l2_tlb.repl = ReplPolicy::DeadBlock;
                    cfg.prefetch = PrefetchConfig::enabled();
                },
            ),
            0xf480_e589_0104_2ad0,
        ),
        (
            "gups+gups/softwalker+in-tlb shared, sub-entry sharing",
            run_tenants(
                ("gups", "gups"),
                SharingPolicy::Shared {
                    max_inflight_walks: 16,
                },
                true,
                |_| {},
            ),
            0xf0fa_5110_10c6_29f6,
        ),
        (
            "gups/softwalker+in-tlb, full fault storm",
            run(
                "gups",
                TranslationMode::SoftWalker { in_tlb_mshr: true },
                storm,
            ),
            0x3936_9c84_a647_84ca,
        ),
        (
            "gups/hybrid+in-tlb, full fault storm",
            run("gups", TranslationMode::Hybrid { in_tlb_mshr: true }, storm),
            0x2b6a_3247_413e_2759,
        ),
        (
            "sssp/hashed-ptw",
            run("sssp", TranslationMode::HashedPtw, |_| {}),
            0xc99f_8e9b_34ee_c9a7,
        ),
        (
            "sssp/softwalker+in-tlb demand-paged, data-path storm",
            run(
                "sssp",
                TranslationMode::SoftWalker { in_tlb_mshr: true },
                data_storm,
            ),
            0x852f_604f_bc05_dfcf,
        ),
        (
            "sssp+gups/softwalker+in-tlb partitioned, demand-paged",
            run_tenants(("sssp", "gups"), SharingPolicy::Partitioned, false, paged),
            0x4a65_05bc_7d07_eb7d,
        ),
        (
            "sssp/hashed-ptw, PTE corruption",
            run("sssp", TranslationMode::HashedPtw, |cfg| {
                cfg.fault_plan = FaultPlan {
                    seed: 0x4a54,
                    pte_corrupt_rate: 0.05,
                    pte_silent_corrupt_rate: 0.05,
                    ..FaultPlan::default()
                };
            }),
            0x4537_95bd_5c10_4564,
        ),
    ];
    let mut mismatches = Vec::new();
    for (name, stats, golden) in &cells {
        let digest = fnv1a(stats.to_json().as_bytes());
        if digest != *golden {
            mismatches.push(format!("{name}: got {digest:#018x}, pinned {golden:#018x}"));
        }
    }
    // The demand-paged cell must really page, or it pins nothing of the
    // fault/eviction path.
    assert!(
        cells[2].1.mm.evictions > 0,
        "demand-paged cell never evicted"
    );
    // The faulted cell must reach both shootdown branches it pins.
    let faulted = &cells[3].1;
    assert!(
        faulted.mm_fault.injected_shootdown_drops > 0,
        "faulted cell dropped no shootdown"
    );
    assert!(
        faulted.mm_fault.detected_corruptions > 0,
        "faulted cell caught no corrupted fill"
    );
    // Each of the last three cells must emit the block it pins.
    assert_ne!(
        cells[4].1.fault,
        Default::default(),
        "fault cell injected nothing"
    );
    let policy = &cells[5].1;
    assert!(
        policy.tlb_dead_fills > 0,
        "policy cell predicted no dead fill"
    );
    assert!(policy.prefetch_issued > 0, "policy cell issued no prefetch");
    assert!(
        cells[6].1.l2_tlb.shared_joins > 0,
        "tenant cell never joined a shared entry"
    );
    // The storm cells must reach the PW Warp's recovery paths (stuck
    // threads, watchdog re-issues, backoff retries, escalations), and the
    // Hybrid one must inject on both walkers.
    for storm in &cells[7..9] {
        let f = &storm.1.fault;
        assert!(f.injected_stuck_threads > 0, "storm wedged no PW thread");
        assert!(
            f.injected_silent_corruptions > 0,
            "storm injected no silent corruption"
        );
        assert!(f.injected_mem_drops > 0, "storm dropped no read");
        assert!(f.injected_mem_delays > 0, "storm delayed no read");
        assert!(f.watchdog_timeouts > 0 && f.walk_retries > 0 && f.fault_escalations > 0);
    }
    assert!(
        cells[8].1.hw_walks > 0 && cells[8].1.sw_walks > 0,
        "hybrid cell used one walker"
    );
    assert!(cells[9].1.hw_walks > 0, "hashed cell walked nothing");
    // The data-path storm must reach every fill-pipeline branch it pins.
    let m = &cells[10].1.mm_fault;
    assert!(m.injected_fill_drops > 0, "storm dropped no fill");
    assert!(m.injected_fill_duplicates > 0, "storm duplicated no fill");
    assert!(m.injected_fill_delays > 0, "storm delayed no fill");
    assert!(
        m.injected_driver_stalls > 0,
        "storm stalled no driver request"
    );
    assert!(m.fill_watchdog_timeouts > 0, "no fill watchdog fired");
    // The partitioned paged mix must evict, and both tenants must retire
    // work through their own partition and memory manager.
    let mix = &cells[11].1;
    assert!(mix.mm.evictions > 0, "paged tenant mix never evicted");
    assert!(
        mix.tenants.len() == 2 && mix.tenants.iter().all(|t| t.instructions > 0),
        "a tenant retired nothing"
    );
    // The corrupted hashed cell must decode its bucket slots through the
    // injector and recover.
    let hashed = &cells[12].1.fault;
    assert!(
        hashed.injected_pte_corruptions > 0 && hashed.walk_retries > 0,
        "hashed cell corrupted or retried nothing: {hashed:?}"
    );
    assert!(
        mismatches.is_empty(),
        "SimStats JSON changed:\n  {}",
        mismatches.join("\n  ")
    );
}

/// Streams an obs-armed `gups` cell through a small staging buffer into
/// an in-memory SWTB sink and returns the bytes.
fn streamed_swtb(mode: TranslationMode) -> Vec<u8> {
    /// A byte sink the caller keeps a handle on after the simulator
    /// consumes the `Box<dyn Write>`.
    #[derive(Clone, Default)]
    struct SharedBuf(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    let buf = SharedBuf::default();
    let mut sim = simulator("gups", mode, |cfg| {
        cfg.obs = ObsConfig {
            sample_interval: 64,
            span_capacity: 256,
            ..ObsConfig::enabled()
        };
    });
    assert!(sim.attach_trace_sink(Box::new(buf.clone())));
    let stats = sim.run();
    assert!(!stats.timed_out, "{mode:?}: timed out");
    let obs = stats.obs.as_deref().expect("obs armed");
    assert!(obs.spans_flushed > 0, "{mode:?}: nothing streamed");
    let pte_reads = obs
        .counters
        .iter()
        .find(|(name, _)| name == "pte_reads")
        .map_or(0, |(_, n)| *n);
    assert!(pte_reads > 0, "{mode:?}: no PTE read observed");
    let bytes = buf.0.borrow().clone();
    bytes
}

#[test]
fn streamed_swtb_bytes_match_golden_digests() {
    let cells = [
        (
            "gups/softwalker+in-tlb, obs armed",
            streamed_swtb(TranslationMode::SoftWalker { in_tlb_mshr: true }),
            0x8e14_95b5_0c1c_0561,
        ),
        (
            "gups/hw-ptw, obs armed",
            streamed_swtb(TranslationMode::HardwarePtw),
            0xf65e_573d_5638_f2c7,
        ),
        (
            "gups/hashed-ptw, obs armed",
            streamed_swtb(TranslationMode::HashedPtw),
            0x5e55_3446_39bd_4936,
        ),
    ];
    let mismatches: Vec<String> = cells
        .iter()
        .filter_map(|(name, bytes, golden)| {
            let digest = fnv1a(bytes);
            (digest != *golden)
                .then(|| format!("{name}: got {digest:#018x}, pinned {golden:#018x}"))
        })
        .collect();
    assert!(
        mismatches.is_empty(),
        "SWTB stream changed:\n  {}",
        mismatches.join("\n  ")
    );
}
