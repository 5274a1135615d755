//! End-to-end properties of the demand-paged memory manager:
//!
//! * **first-touch accounting** — with no eviction pressure, the major
//!   fault count equals the number of distinct pages the workload
//!   touches (each page faults exactly once), and that count is a
//!   property of the workload, not of the walker configuration;
//! * **transparent coalescing** — promotion is pure bookkeeping: a run
//!   with coalescing on retires the same instructions in the same
//!   cycles as one with it off, differing only in the `mm_coalesces_*`
//!   counters;
//! * **eviction round-trips** — an oversubscribed run still drains and
//!   retires the same work, paying for it with re-faults;
//! * **determinism** — same cell, same stats bytes, across page sizes,
//!   budgets, fault seeds and frame scrambling (proptest), and across
//!   runner worker-pool widths (`--jobs 1` vs `--jobs 4`), fill-pipeline
//!   storms, zero-rate plans and frame retirement included;
//! * **cache transparency** — with the manager off, a rerun of prebuilt
//!   cells is served from disk without simulating.

use proptest::prelude::*;
use softwalker_repro::{
    by_abbr, FaultPlan, GpuConfig, GpuSimulator, MmConfig, MmEvictPolicy, PageSize, SimStats,
    TranslationMode, WorkloadParams,
};
use swgpu_bench::{Cell, Runner, Scale, SystemConfig};

struct MmCell {
    abbr: &'static str,
    mode: TranslationMode,
    page_size: PageSize,
    footprint_percent: u64,
    budget: u64,
    coalesce: bool,
    scrambled: bool,
    evict: MmEvictPolicy,
    plan: FaultPlan,
}

impl MmCell {
    fn new(abbr: &'static str, mode: TranslationMode) -> Self {
        Self {
            abbr,
            mode,
            page_size: GpuConfig::default().page_size,
            footprint_percent: 20,
            budget: 0,
            coalesce: true,
            scrambled: false,
            evict: MmEvictPolicy::default(),
            plan: FaultPlan::default(),
        }
    }

    fn run(&self) -> SimStats {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = self.mode;
        cfg.page_size = self.page_size;
        cfg.scrambled_frames = self.scrambled;
        cfg.fault_plan = self.plan.clone();
        cfg.mm = MmConfig {
            resident_page_budget: self.budget,
            coalesce: self.coalesce,
            evict: self.evict,
            ..MmConfig::demand_paged()
        };
        let spec = by_abbr(self.abbr).expect("known benchmark");
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 3,
            footprint_percent: self.footprint_percent,
            page_size: cfg.page_size,
        });
        let stats = GpuSimulator::build(cfg, Box::new(wl)).unwrap().run();
        assert!(
            !stats.timed_out,
            "{} / {:?}: timed out",
            self.abbr, self.mode
        );
        assert_eq!(
            stats.check_ledgers(),
            Ok(()),
            "{} / {:?}",
            self.abbr,
            self.mode
        );
        stats
    }
}

#[test]
fn first_touch_faults_equal_touched_pages() {
    for abbr in ["gups", "bfs", "spmv", "gemm", "2dc"] {
        // With an unbounded budget nothing is ever evicted, so the peak
        // resident count IS the distinct-page count of the workload —
        // and (with every fault replayed, as `run` checks) each of those
        // pages faulted exactly once.
        let hw = MmCell::new(abbr, TranslationMode::HardwarePtw).run();
        assert!(hw.mm.major_faults > 0, "{abbr}: nothing faulted");
        assert_eq!(
            hw.mm.major_faults, hw.mm.resident_peak,
            "{abbr}: a touched page faulted more than once (or never)"
        );
        assert_eq!(hw.mm.evictions, 0, "{abbr}: unbounded budget evicted");
        assert_eq!(hw.faults, 0, "{abbr}: major fault leaked to UVM");
        // The touched-page set is a workload property: software walkers
        // must fault the exact same pages.
        let sw = MmCell::new(abbr, TranslationMode::SoftWalker { in_tlb_mshr: true }).run();
        assert_eq!(
            hw.mm.major_faults, sw.mm.major_faults,
            "{abbr}: fault count depends on the walker kind"
        );
        assert!(
            sw.mm.sw_fill_replays > 0,
            "{abbr}: software fills must run on PW Warps"
        );
    }
}

/// The coalescing recipe on `base`: one SM touching a streaming
/// footprint of 4 KB pages in ascending order, so frames are handed out
/// contiguously.
fn coalescing_cell(base: &GpuConfig, coalesce: bool) -> SimStats {
    let mut cfg = base.clone();
    cfg.sms = 1;
    cfg.max_warps = 8;
    cfg.page_size = PageSize::Size4K;
    cfg.scrambled_frames = false;
    cfg.mm = MmConfig {
        coalesce,
        ..MmConfig::demand_paged()
    };
    let spec = by_abbr("2dc").expect("known benchmark");
    let wl = spec.build(WorkloadParams {
        sms: cfg.sms,
        warps_per_sm: cfg.max_warps,
        mem_instrs_per_warp: 96,
        footprint_percent: 100,
        page_size: cfg.page_size,
    });
    GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
}

#[test]
fn coalescing_is_pure_bookkeeping() {
    for base in [GpuConfig::quick_test(), GpuConfig::default()] {
        let on = coalescing_cell(&base, true);
        let off = coalescing_cell(&base, false);
        assert!(on.mm.coalesces_64k > 0, "recipe must coalesce");
        assert_eq!(off.mm.coalesces_64k + off.mm.coalesces_2m, 0);
        // Promotion never moves data or rewrites PTEs, so everything the
        // simulation can observe — timing, translations, fault
        // behaviour — is identical with the knob on or off.
        assert_eq!(on.cycles, off.cycles, "coalescing changed timing");
        assert_eq!(on.instructions, off.instructions);
        assert_eq!(on.walk.translations, off.walk.translations);
        assert_eq!(on.mm.major_faults, off.mm.major_faults);
        assert_eq!(on.mm.evictions, off.mm.evictions);
        assert_eq!((on.faults, off.faults), (0, 0));
        assert!(!on.timed_out, "coalescing recipe must drain");
        assert_eq!(on.check_ledgers(), Ok(()));
    }
}

#[test]
fn oversubscribed_run_retires_the_same_work() {
    let unbounded = MmCell::new("gups", TranslationMode::SoftWalker { in_tlb_mshr: true }).run();
    let mut oversub = MmCell::new("gups", TranslationMode::SoftWalker { in_tlb_mshr: true });
    oversub.budget = 64;
    let oversub = oversub.run();
    // Eviction costs re-faults, never correctness: the same instructions
    // retire, and every extra fault is a round-trip through the driver.
    assert_eq!(unbounded.instructions, oversub.instructions);
    assert!(oversub.mm.evictions > 0, "budget 64 must evict");
    assert!(oversub.mm.resident_peak <= 64);
    assert!(
        oversub.mm.major_faults > unbounded.mm.major_faults,
        "re-touched evicted pages must re-fault"
    );
    assert_eq!(oversub.faults, 0);
}

#[test]
fn shootdown_invalidates_every_matching_way_exactly_once() {
    use swgpu_tlb::{L2MissOutcome, L2TlbComplex, ReplPolicy, Tlb, TlbConfig, TlbMshrConfig};
    use swgpu_types::{Asid, Pfn, Vpn};
    // The eviction shootdown path trusts `invalidate` to report how many
    // Valid ways it dropped. With the duplicate-tag fill hazard fixed,
    // set uniqueness caps that at one: a resident translation is
    // invalidated exactly once, a second shootdown finds nothing, and a
    // never-cached page reports zero.
    let mut l2: L2TlbComplex<u32> = L2TlbComplex::new(
        TlbConfig {
            name: "shootdown".into(),
            entries: 64,
            assoc: 4,
            repl: ReplPolicy::Lru,
        },
        TlbMshrConfig {
            entries: 4,
            max_merges: 4,
        },
        8,
    );
    for v in 0..16u64 {
        assert!(matches!(
            l2.access(Asid::ZERO, Vpn::new(v), 0),
            L2MissOutcome::MissNewWalk
        ));
        let _ = l2.complete_walk(Asid::ZERO, Vpn::new(v), Pfn::new(v + 100));
    }
    for v in 0..16u64 {
        assert_eq!(
            l2.invalidate(Asid::ZERO, Vpn::new(v)),
            1,
            "vpn {v}: resident page"
        );
        assert_eq!(
            l2.invalidate(Asid::ZERO, Vpn::new(v)),
            0,
            "vpn {v}: stale second way"
        );
    }
    assert_eq!(
        l2.invalidate(Asid::ZERO, Vpn::new(999)),
        0,
        "never-cached page"
    );
    // Re-filling an already-valid VPN (the hazard's other face) must
    // reuse the way in place rather than install a twin — so the
    // shootdown count stays exactly one afterwards.
    let mut tlb = Tlb::new(TlbConfig {
        name: "refill".into(),
        entries: 8,
        assoc: 4,
        repl: ReplPolicy::Lru,
    });
    tlb.fill(Asid::ZERO, Vpn::new(3), Pfn::new(7));
    tlb.fill(Asid::ZERO, Vpn::new(3), Pfn::new(8));
    assert_eq!(
        tlb.invalidate(Asid::ZERO, Vpn::new(3)),
        1,
        "refill installed a twin way"
    );
}

#[test]
fn explicit_fifo_eviction_is_the_default_cycle_for_cycle() {
    // FIFO is the default policy: spelling it out must not perturb a
    // single stats byte, and must not move the config fingerprint (the
    // prebuilt sweep cache stays valid). LRU is a genuinely different
    // machine and must re-key the cache.
    let mut dflt = MmCell::new("gups", TranslationMode::SoftWalker { in_tlb_mshr: true });
    dflt.budget = 64;
    let mut fifo = MmCell::new("gups", TranslationMode::SoftWalker { in_tlb_mshr: true });
    fifo.budget = 64;
    fifo.evict = MmEvictPolicy::Fifo;
    assert_eq!(
        dflt.run().to_json(),
        fifo.run().to_json(),
        "explicit FIFO diverged from the default policy"
    );
    let mut base = GpuConfig::quick_test();
    base.mm = MmConfig::demand_paged();
    let mut named_fifo = base.clone();
    named_fifo.mm.evict = MmEvictPolicy::Fifo;
    assert_eq!(
        base.fingerprint(),
        named_fifo.fingerprint(),
        "naming the default eviction policy re-keyed the cache"
    );
    let mut lru = base.clone();
    lru.mm.evict = MmEvictPolicy::Lru;
    assert_ne!(
        base.fingerprint(),
        lru.fingerprint(),
        "LRU eviction must participate in the fingerprint"
    );
}

#[test]
fn lru_eviction_drains_and_conserves() {
    let make = || {
        let mut cell = MmCell::new("gups", TranslationMode::SoftWalker { in_tlb_mshr: true });
        cell.budget = 64;
        cell.evict = MmEvictPolicy::Lru;
        cell
    };
    let lru = make().run();
    // The clock hand changes *which* page goes, never the paging
    // contract: the budget holds, every fault is replayed, nothing
    // leaks to the UVM path, and the same instructions retire.
    assert!(lru.mm.evictions > 0, "budget 64 must evict under LRU");
    assert!(lru.mm.resident_peak <= 64);
    assert_eq!(lru.faults, 0);
    let mut fifo = MmCell::new("gups", TranslationMode::SoftWalker { in_tlb_mshr: true });
    fifo.budget = 64;
    assert_eq!(
        lru.instructions,
        fifo.run().instructions,
        "eviction policy changed the retired work"
    );
    assert_eq!(
        lru.to_json(),
        make().run().to_json(),
        "LRU run is not deterministic"
    );
}

/// The data-path fault recipe shared by the `--jobs` width and
/// dense ⇔ event equivalence tests: every fill-pipeline site armed.
fn data_storm_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xfee1_dead,
        fill_drop_rate: 0.10,
        fill_delay_rate: 0.05,
        fill_duplicate_rate: 0.05,
        fill_corrupt_rate: 0.05,
        shootdown_drop_rate: 0.10,
        driver_stuck_rate: 0.05,
        ..FaultPlan::default()
    }
}

/// A quick-scale demand-paged `gups` harness cell (20 % footprint)
/// under `plan`, with `budget` resident pages.
fn quick_paged_cell(system: SystemConfig, budget: u64, plan: FaultPlan) -> Cell {
    let mut cfg = system.build(Scale::Quick);
    cfg.mm = MmConfig {
        resident_page_budget: budget,
        ..MmConfig::demand_paged()
    };
    cfg.fault_plan = plan;
    Cell::bench_scaled(&by_abbr("gups").expect("known benchmark"), cfg, 20)
}

const SYSTEMS: [SystemConfig; 3] = [
    SystemConfig::Baseline,
    SystemConfig::SoftWalker,
    SystemConfig::Hybrid,
];

/// Resolves `cells` on a one-worker and a four-worker runner (each of
/// which checks every fresh result's ledgers) and returns the serial
/// results after checking the two agree byte for byte.
fn same_on_any_pool_width(cells: &[Cell]) -> Vec<SimStats> {
    let serial = Runner::new(1, None, false).run_cells(cells);
    let parallel = Runner::new(4, None, false).run_cells(cells);
    for ((a, b), cell) in serial.iter().zip(&parallel).zip(cells) {
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "worker-pool width changed the result of {}",
            cell.key()
        );
        assert!(!a.timed_out, "{}: timed out", cell.key());
        assert!(a.mm.major_faults > 0, "{}: nothing faulted", cell.key());
    }
    serial
}

#[test]
fn runner_jobs_width_does_not_change_faulted_results() {
    // Fault-storm cells under demand paging are the most
    // schedule-sensitive thing the runner executes (watchdogs, backoff
    // retries, delayed replays): a worker-pool race would show here
    // first. Beside the storm on every walker: an armed-but-zero plan,
    // and a corruption-heavy recipe that retires frames.
    let mut cells: Vec<Cell> = SYSTEMS
        .into_iter()
        .map(|sys| quick_paged_cell(sys, 64, data_storm_plan()))
        .collect();
    let sw = SystemConfig::SoftWalker;
    cells.push(quick_paged_cell(sw, 64, FaultPlan::default()));
    let zero = FaultPlan {
        seed: 0x5eed,
        ..FaultPlan::default()
    };
    cells.push(quick_paged_cell(sw, 64, zero));
    let retire = FaultPlan {
        seed: 0xbad_f111,
        fill_corrupt_rate: 0.25,
        frame_retire_threshold: 1,
        ..FaultPlan::default()
    };
    cells.push(quick_paged_cell(sw, 64, retire));
    let stats = same_on_any_pool_width(&cells);
    for s in &stats[..3] {
        let f = &s.mm_fault;
        assert!(f.injected_conserved() > 0, "storm cell injected nothing");
        assert!(
            f.injected_fill_drops > 0 && f.fill_watchdog_timeouts > 0,
            "dropped fills must trip the watchdog: {f:?}"
        );
        assert_eq!(s.faults, 0, "fill faults leaked to the UVM path");
    }
    // An armed-but-zero plan is a byte-level no-op on a paged cell.
    let (unarmed, armed) = (stats[3].to_json(), stats[4].to_json());
    assert_eq!(unarmed, armed, "a zero-rate plan's seed perturbed the run");
    assert!(!armed.contains("mm_fault_") && !armed.contains("data_"));
    // Frames that fail their checksum at threshold 1 are retired, and
    // the corrupted fills they held never leak to the UVM path.
    let f = &stats[5].mm_fault;
    assert!(f.frames_retired > 0, "no frame retired: {f:?}");
    assert_eq!(stats[5].faults, 0, "retired fills leaked to the UVM path");
}

#[test]
fn runner_jobs_width_does_not_change_results() {
    // Budget 256, then the unbounded budget on every walker, then a
    // tight budget that must evict.
    let mut cells: Vec<Cell> = SYSTEMS
        .into_iter()
        .map(|sys| quick_paged_cell(sys, 256, FaultPlan::default()))
        .collect();
    cells.extend(SYSTEMS.map(|sys| quick_paged_cell(sys, 0, FaultPlan::default())));
    cells.push(quick_paged_cell(
        SystemConfig::SoftWalker,
        64,
        FaultPlan::default(),
    ));
    let stats = same_on_any_pool_width(&cells);
    for (s, cell) in stats.iter().zip(&cells).skip(3) {
        assert_eq!(s.faults, 0, "{}: a major fault leaked to UVM", cell.key());
        if cell.cfg.mode.uses_software_walkers() {
            assert!(
                s.mm.sw_fill_replays > 0,
                "{}: software fills must run on PW Warps",
                cell.key()
            );
        }
    }
    let oversub = &stats[6].mm;
    assert!(oversub.evictions > 0, "budget 64 must evict");
    assert!(oversub.resident_peak <= 64, "{oversub:?}");
}

#[test]
fn prebuilt_cells_rerun_from_the_disk_cache() {
    // With the manager off (the default), a cold runner serves a rerun
    // entirely from disk: demand paging must not perturb prebuilt-mode
    // cache keys.
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("prebuilt-rerun-{}", std::process::id()));
    let spec = by_abbr("gemm").expect("known benchmark");
    let cells: Vec<Cell> = SYSTEMS
        .iter()
        .map(|s| Cell::bench(&spec, s.build(Scale::Quick)))
        .collect();
    Runner::new(2, Some(dir.clone()), false).run_cells(&cells);
    let rerun = Runner::new(2, Some(dir.clone()), false);
    rerun.run_cells(&cells);
    let c = rerun.counters();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!((c.simulated, c.disk_hits), (0, cells.len() as u64));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Same cell twice — across page sizes, budgets, frame scrambling
    /// and fault seeds — must produce byte-identical stats JSON.
    #[test]
    fn demand_paged_runs_are_deterministic(
        abbr in prop::sample::select(vec!["gups", "gemm", "2dc"]),
        // Bit 0: 4 KB pages, bit 1: scrambled frames, bit 2: coalescing.
        knobs in 0u8..8,
        budget in prop::sample::select(vec![0u64, 32, 128]),
        seed in 1u64..1_000_000,
        faulty in any::<bool>(),
    ) {
        let (page_4k, scrambled, coalesce) =
            (knobs & 1 != 0, knobs & 2 != 0, knobs & 4 != 0);
        let mut cell = MmCell::new(abbr, TranslationMode::SoftWalker { in_tlb_mshr: true });
        // 4 KB pages multiply the page count 16x; shrink the footprint
        // so the proptest stays fast.
        if page_4k {
            cell.page_size = PageSize::Size4K;
            cell.footprint_percent = 10;
        }
        cell.budget = budget;
        cell.scrambled = scrambled;
        cell.coalesce = coalesce;
        if faulty {
            cell.plan = FaultPlan {
                seed,
                pte_corrupt_rate: 0.02,
                pte_silent_corrupt_rate: 0.02,
                mem_drop_rate: 0.02,
                ..FaultPlan::default()
            };
        }
        let a = cell.run();
        let b = cell.run();
        prop_assert_eq!(a.to_json(), b.to_json(), "same cell diverged");
        prop_assert!(a.mm.major_faults > 0);
    }
}
