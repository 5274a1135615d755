//! Heap-allocation budget of `GpuSimulator::run`.
//!
//! The memory and translation hot path (MSHR files, request routing, the
//! coalescer) must not touch the heap per request. A counting global
//! allocator counts the allocations made inside `run()`, and the bytes
//! they hold, on the test's own thread (other test threads run
//! unobserved) for five quick cells:
//!
//! * `sssp` on 16 SMs × 16 warps under SoftWalker with the In-TLB MSHR;
//! * `sssp` on 16 × 16 under hardware PTWs, demand-paged below its
//!   footprint;
//! * `sssp` on 16 × 16 under SoftWalker with translation prefetch armed;
//! * `sssp` on 16 × 16 under the hashed page table's hardware walkers;
//! * `sssp` on 16 × 16 under SoftWalker with stall-aware dispatch.
//!
//! The first budget is a fraction of the count measured before MSHR slabs
//! and request routes replaced the per-miss `Vec`s and request-owner
//! maps. The second is the count measured once the fault path also lost
//! its ordered maps and its per-fault and per-walk `Vec`s, plus 10 %.
//! The third is below the count measured while the prefetch scan
//! collected a fresh idle list every cycle. The last two are the counts
//! measured once hashed walks stopped collecting their probe addresses
//! and stall-aware dispatch stopped collecting the SMs' stall flags,
//! plus 10 %; each is below the count measured before.
//!
//! The heap budget bounds the peak growth of live bytes inside `run()`
//! for the first two cells at the peak measured once queued translation
//! lookups became handles into their warp's sector list, plus 10 %;
//! before, each held a copy of its page's sectors, and the peaks were
//! about twice as high.
//!
//! A freshly built L1D or L2D may hold at most 16 bytes per cache way (a
//! tag and a sector mask) plus 1 KiB. While each way also kept an LRU
//! stamp, before the sets were held in recency order, it took 24 bytes.

use softwalker_repro::{
    by_abbr, DistributorPolicy, GpuConfig, GpuSimulator, MmConfig, TranslationMode, WorkloadParams,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swgpu_mem::{Cache, CacheConfig};
use swgpu_sim::PrefetchConfig;

/// Counts allocations and live bytes on threads that opted in;
/// delegates to `System`.
struct Counting;

/// What one thread's heap did while counting.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Allocations, `realloc`s included.
    allocs: u64,
    /// Bytes allocated minus bytes freed since counting began (negative
    /// once more is freed than allocated).
    live: i64,
    /// The highest `live` reached: the peak heap growth.
    peak: i64,
}

thread_local! {
    /// This thread's tally while counting, `None` when off.
    static TALLY: Cell<Option<Tally>> = const { Cell::new(None) };
}

/// Records one heap call that changed the live bytes by `grow`.
fn record(allocs: u64, grow: i64) {
    // `try_with`: the allocator may run while a thread's locals are torn
    // down; those calls are never counted.
    let _ = TALLY.try_with(|c| {
        if let Some(mut t) = c.get() {
            t.allocs += allocs;
            t.live += grow;
            t.peak = t.peak.max(t.live);
            c.set(Some(t));
        }
    });
}

/// `bytes` as a signed byte count.
fn signed(bytes: usize) -> i64 {
    i64::try_from(bytes).expect("allocation size fits i64")
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// tally is a thread-local `Cell` whose access never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(1, signed(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(1, signed(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(1, signed(new_size) - signed(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(0, -signed(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The 16 × 16 machine every budget runs `sssp` on.
fn machine(mode: TranslationMode) -> GpuConfig {
    GpuConfig {
        sms: 16,
        max_warps: 16,
        mode,
        ..GpuConfig::default()
    }
}

/// What `run()` does to the heap for `sssp` on `cfg`.
fn run_tally(cfg: GpuConfig) -> Tally {
    let wl = by_abbr("sssp")
        .expect("known benchmark")
        .build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 2,
            footprint_percent: 10,
            page_size: cfg.page_size,
        });
    let mode = cfg.mode;
    let sim = GpuSimulator::build(cfg, Box::new(wl)).unwrap();
    TALLY.with(|c| c.set(Some(Tally::default())));
    let stats = sim.run();
    let tally = TALLY.with(|c| c.replace(None)).expect("counting was on");
    assert!(!stats.timed_out, "{mode:?}: timed out");
    tally
}

/// The demand-paged hardware-PTW machine, paged below its footprint.
fn paged_ptw() -> GpuConfig {
    let mut cfg = machine(TranslationMode::HardwarePtw);
    cfg.mm = MmConfig {
        resident_page_budget: 256,
        ..MmConfig::demand_paged()
    };
    cfg
}

#[test]
fn softwalker_run_allocates_a_tenth_of_the_per_miss_design() {
    const PARENT: u64 = 76_860;
    let n = run_tally(machine(TranslationMode::SoftWalker { in_tlb_mshr: true })).allocs;
    eprintln!("sssp/softwalker+in-tlb: {n} allocations in run()");
    assert!(n <= PARENT / 10, "{n} allocations, budget {}", PARENT / 10);
}

#[test]
fn paged_ptw_run_allocates_half_of_the_per_miss_design() {
    // 118,990 with per-miss `Vec`s, 48,367 with the fault path's ordered
    // maps and per-eviction and per-walk result `Vec`s, 4,750 without.
    const MEASURED: u64 = 4_750;
    const BUDGET: u64 = MEASURED + MEASURED / 10;
    let n = run_tally(paged_ptw()).allocs;
    eprintln!("sssp/hw-ptw demand-paged: {n} allocations in run()");
    assert!(n <= BUDGET, "{n} allocations, budget {BUDGET}");
}

#[test]
fn prefetch_scan_reuses_its_idle_list() {
    // Counted with the scan collecting a fresh idle list every cycle it
    // ran; the peeked page lists still allocate once per scanned stream.
    const PARENT: u64 = 50_969;
    let mut cfg = machine(TranslationMode::SoftWalker { in_tlb_mshr: true });
    cfg.prefetch = PrefetchConfig::enabled();
    let n = run_tally(cfg).allocs;
    eprintln!("sssp/softwalker+prefetch: {n} allocations in run()");
    assert!(n < PARENT, "{n} allocations, parent {PARENT}");
}

#[test]
fn hashed_walks_compute_their_probe_addresses() {
    // 10,644 while each hashed walk collected its probe addresses into a
    // fresh `Vec`, 4,598 with the addresses computed per probe.
    const MEASURED: u64 = 4_598;
    const BUDGET: u64 = MEASURED + MEASURED / 10;
    let n = run_tally(machine(TranslationMode::HashedPtw)).allocs;
    eprintln!("sssp/hashed-ptw: {n} allocations in run()");
    assert!(n <= BUDGET, "{n} allocations, budget {BUDGET}");
}

#[test]
fn stall_aware_dispatch_reads_stalls_in_place() {
    // 9,434 while stall-aware dispatch collected every SM's stall flag
    // into a fresh `Vec` each cycle it ran, 4,987 with the flags read in
    // place.
    const MEASURED: u64 = 4_987;
    const BUDGET: u64 = MEASURED + MEASURED / 10;
    let mut cfg = machine(TranslationMode::SoftWalker { in_tlb_mshr: true });
    cfg.distributor_policy = DistributorPolicy::StallAware;
    let n = run_tally(cfg).allocs;
    eprintln!("sssp/softwalker+in-tlb stall-aware: {n} allocations in run()");
    assert!(n <= BUDGET, "{n} allocations, budget {BUDGET}");
}

#[test]
fn queued_lookups_leave_their_sectors_in_the_warp() {
    // Peak heap growth inside `run()`: 1,956,432 and 1,917,960 bytes
    // while every queued translation lookup and L1 TLB MSHR waiter
    // carried its own copy of its page's sector list, 987,488 and 956,104
    // with each warp's load kept once, in the warp.
    const MEASURED: [(&str, i64); 2] = [
        ("softwalker+in-tlb", 987_488),
        ("hw-ptw demand-paged", 956_104),
    ];
    let cfgs = [
        machine(TranslationMode::SoftWalker { in_tlb_mshr: true }),
        paged_ptw(),
    ];
    for ((cell, measured), cfg) in MEASURED.into_iter().zip(cfgs) {
        let budget = measured + measured / 10;
        let peak = run_tally(cfg).peak;
        eprintln!("sssp/{cell}: peak heap growth {peak} bytes in run()");
        assert!(peak <= budget, "sssp/{cell}: {peak} bytes, budget {budget}");
    }
}

#[test]
fn cache_tag_stores_hold_sixteen_bytes_a_way() {
    // 786,432 and 24,576 bytes of tag store with an LRU stamp per way.
    for cfg in [CacheConfig::l2d(), CacheConfig::l1d()] {
        let name = cfg.name.clone();
        let budget = signed(16 * (cfg.size_bytes / cfg.line_bytes) as usize + 1024);
        TALLY.with(|c| c.set(Some(Tally::default())));
        let _cache = Cache::new(cfg);
        let held = TALLY
            .with(|c| c.replace(None))
            .expect("counting was on")
            .live;
        eprintln!("{name}: {held} bytes held after Cache::new");
        assert!(held <= budget, "{name}: {held} bytes, budget {budget}");
    }
}
