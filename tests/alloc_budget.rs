//! Heap-allocation budget of `GpuSimulator::run`.
//!
//! The memory and translation hot path (MSHR files, request routing, the
//! coalescer) must not touch the heap per request. A counting global
//! allocator counts the allocations made inside `run()` on the test's
//! own thread (other test threads run unobserved) for five quick cells:
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

use softwalker_repro::{
    by_abbr, DistributorPolicy, GpuConfig, GpuSimulator, MmConfig, TranslationMode, WorkloadParams,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use swgpu_sim::PrefetchConfig;

/// Counts allocations on threads that opted in; delegates to `System`.
struct Counting;

thread_local! {
    /// Allocations made on this thread while counting, `None` when off.
    static COUNT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn bump() {
    // `try_with`: the allocator may run while a thread's locals are torn
    // down; those allocations are never counted.
    let _ = COUNT.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is a thread-local `Cell` whose access never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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

/// Allocations `run()` makes for `sssp` on `cfg`.
fn run_allocations(cfg: GpuConfig) -> u64 {
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
    COUNT.with(|c| c.set(Some(0)));
    let stats = sim.run();
    let n = COUNT.with(|c| c.replace(None)).expect("counting was on");
    assert!(!stats.timed_out, "{mode:?}: timed out");
    n
}

#[test]
fn softwalker_run_allocates_a_tenth_of_the_per_miss_design() {
    const PARENT: u64 = 76_860;
    let n = run_allocations(machine(TranslationMode::SoftWalker { in_tlb_mshr: true }));
    eprintln!("sssp/softwalker+in-tlb: {n} allocations in run()");
    assert!(n <= PARENT / 10, "{n} allocations, budget {}", PARENT / 10);
}

#[test]
fn paged_ptw_run_allocates_half_of_the_per_miss_design() {
    // 118,990 with per-miss `Vec`s, 48,367 with the fault path's ordered
    // maps and per-eviction and per-walk result `Vec`s, 4,750 without.
    const MEASURED: u64 = 4_750;
    const BUDGET: u64 = MEASURED + MEASURED / 10;
    let mut cfg = machine(TranslationMode::HardwarePtw);
    cfg.mm = MmConfig {
        resident_page_budget: 256,
        ..MmConfig::demand_paged()
    };
    let n = run_allocations(cfg);
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
    let n = run_allocations(cfg);
    eprintln!("sssp/softwalker+prefetch: {n} allocations in run()");
    assert!(n < PARENT, "{n} allocations, parent {PARENT}");
}

#[test]
fn hashed_walks_compute_their_probe_addresses() {
    // 10,644 while each hashed walk collected its probe addresses into a
    // fresh `Vec`, 4,598 with the addresses computed per probe.
    const MEASURED: u64 = 4_598;
    const BUDGET: u64 = MEASURED + MEASURED / 10;
    let n = run_allocations(machine(TranslationMode::HashedPtw));
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
    let n = run_allocations(cfg);
    eprintln!("sssp/softwalker+in-tlb stall-aware: {n} allocations in run()");
    assert!(n <= BUDGET, "{n} allocations, budget {BUDGET}");
}
