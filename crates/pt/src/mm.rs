//! The simulated driver/OS memory manager: demand paging, Mosaic-style
//! transparent coalescing, and LRU-ish eviction under a device-memory
//! budget.
//!
//! The manager owns the *policy* side of demand paging; the simulator's
//! fault path owns the timing. When a translation misses the page table
//! (a **major fault**), the driver-replay machinery calls
//! [`MemoryManager::service_fault`] after the configured fill latency:
//! the manager populates the page (recycling an evicted frame when one is
//! free), updates its coalescing bookkeeping, and reports which resident
//! pages it had to evict so the caller can shoot down their TLB entries.
//!
//! Coalescing follows Mosaic's transparent scheme: when every base page
//! of a 64 KiB or 2 MiB aligned run is populated *and* the backing frames
//! happen to be physically contiguous and aligned, the run is promoted to
//! a single large mapping — no data moves and no PTE changes, so every
//! translation is identical before and after; only the bookkeeping (and
//! the `mm_coalesces_*` counters) change. Evicting any constituent page
//! *splinters* the large mapping back into base pages first.
//!
//! Eviction victim selection is an [`MmEvictPolicy`] axis: fill-order
//! FIFO (the historical default — the page faulted in longest ago goes
//! first, no per-access bookkeeping) or a clock second-chance LRU
//! approximation (each translation delivery sets a reference bit; the
//! evictor skips and clears referenced pages until it finds an
//! unreferenced victim).
//!
//! When the simulator arms data-path fault injection, the manager also
//! owns the *integrity* side: every fresh fill stamps the frame's base
//! word with a deterministic checksum ([`swgpu_types::data_checksum`]
//! keyed by VPN and a per-fill generation), verified when an SM consumes
//! the page. A frame that repeatedly fails verification is retired to the
//! allocator's bad-frame list (hardware page retirement) and the page
//! re-filled elsewhere.

use crate::space::AddressSpace;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use swgpu_mem::PhysMem;
use swgpu_types::{
    data_checksum, FastMap, FastSet, MmConfig, MmEvictPolicy, MmFaultStats, MmStats, PageSize, Pfn,
    Vpn,
};

/// Result of servicing one major fault: the frame the page landed in.
/// The pages evicted to make room go to the caller's buffer (see
/// [`MemoryManager::service_fault`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Frame now backing the faulted page.
    pub pfn: Pfn,
    /// Checksum generation stamped into the frame (0 when data-path fault
    /// checking is off, or when the page was already resident).
    pub generation: u64,
}

/// Verdict of an end-to-end data check when a translation delivers a
/// frame to a consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameCheck {
    /// Checksum matches the stamp (or checking is disabled).
    Ok,
    /// The frame is no longer backing this page — a stale translation
    /// survived a (dropped) TLB shootdown.
    Stale,
    /// The frame backs this page but its payload checksum is wrong:
    /// silent data-path corruption, now detected.
    Corrupt,
}

/// What a fresh fill stamped into a frame, kept so later verification
/// can recompute the expected checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct FrameStamp {
    vpn: Vpn,
    generation: u64,
}

/// Tracks population of aligned base-page runs of one large-page span.
#[derive(Debug, Clone, Default)]
struct GroupTracker {
    /// Base pages per group; 0 disables the tracker (base page size is
    /// already at or above the large-page size).
    span: u64,
    /// Populated-page count per group id (`vpn / span`).
    populated: FastMap<u64, u64>,
    /// Groups currently promoted to a large mapping.
    coalesced: FastSet<u64>,
}

impl GroupTracker {
    fn new(large_bytes: u64, base: PageSize) -> Self {
        let span = if base.bytes() < large_bytes {
            large_bytes / base.bytes()
        } else {
            0
        };
        Self {
            span,
            ..Self::default()
        }
    }

    /// Records a populated page; returns the group id if the group just
    /// became fully populated.
    fn note_populated(&mut self, vpn: Vpn) -> Option<u64> {
        if self.span == 0 {
            return None;
        }
        let g = vpn.value() / self.span;
        let count = self.populated.entry(g).or_insert(0);
        *count += 1;
        (*count == self.span).then_some(g)
    }

    /// Records an eviction; returns true if the page's group had been
    /// coalesced (the caller counts the splinter).
    fn note_evicted(&mut self, vpn: Vpn) -> bool {
        if self.span == 0 {
            return false;
        }
        let g = vpn.value() / self.span;
        if let Some(count) = self.populated.get_mut(&g) {
            *count -= 1;
            if *count == 0 {
                self.populated.remove(&g);
            }
        }
        self.coalesced.remove(&g)
    }

    /// Whether the group's frames form a contiguous, span-aligned run —
    /// the physical precondition for a transparent (no-copy) promotion.
    fn contiguous_aligned(&self, g: u64, space: &AddressSpace) -> bool {
        let base_vpn = g * self.span;
        let Some(base_pfn) = space.pfn_of(Vpn::new(base_vpn)) else {
            return false;
        };
        if base_pfn.value() % self.span != 0 {
            return false;
        }
        (1..self.span)
            .all(|i| space.pfn_of(Vpn::new(base_vpn + i)) == Some(Pfn::new(base_pfn.value() + i)))
    }
}

/// The demand-paging memory manager. See the module docs for the model.
///
/// # Example
///
/// ```
/// use swgpu_mem::PhysMem;
/// use swgpu_pt::{AddressSpace, MemoryManager};
/// use swgpu_types::{MmConfig, PageSize, Vpn};
///
/// let mut mem = PhysMem::new();
/// let mut space = AddressSpace::new(PageSize::Size64K, &mut mem);
/// let mut mm = MemoryManager::new(MmConfig::demand_paged(), space.page_size());
/// let mut evicted = Vec::new();
/// let out = mm.service_fault(Vpn::new(7), &mut space, &mut mem, &mut evicted);
/// assert!(evicted.is_empty());
/// assert_eq!(space.pfn_of(Vpn::new(7)), Some(out.pfn));
/// assert_eq!(mm.stats().major_faults, 1);
/// ```
#[derive(Debug, Clone)]
pub struct MemoryManager {
    cfg: MmConfig,
    base: PageSize,
    /// Resident pages in fill order (front = oldest = next victim).
    resident: VecDeque<Vpn>,
    /// Frames freed by eviction, a min-heap so they are recycled
    /// lowest-first — the one order on the fault path that feeds a
    /// decision (which frame a page lands in). Every other container
    /// here is only looked up, or counted.
    free_frames: BinaryHeap<Reverse<u64>>,
    group_64k: GroupTracker,
    group_2m: GroupTracker,
    stats: MmStats,
    /// Clock reference bits (LRU policy only; untouched under FIFO so
    /// FIFO-configured runs stay cycle-identical to earlier builds).
    ref_bits: FastSet<Vpn>,
    /// Checksum stamps by frame number. Empty unless data-path fault
    /// checking is armed.
    stamps: FastMap<u64, FrameStamp>,
    /// Verification failures per frame; at `verify_threshold` the frame
    /// is retired.
    fail_counts: FastMap<u64, u32>,
    /// `Some(threshold)` arms checksum stamping/verification.
    verify_threshold: Option<u32>,
    /// Monotonic fill-generation counter (advances only while armed).
    generation: u64,
    fault_stats: MmFaultStats,
}

impl MemoryManager {
    /// Creates a manager for an address space using `base` pages.
    pub fn new(cfg: MmConfig, base: PageSize) -> Self {
        Self {
            cfg,
            base,
            resident: VecDeque::new(),
            free_frames: BinaryHeap::new(),
            group_64k: GroupTracker::new(64 * 1024, base),
            group_2m: GroupTracker::new(2 * 1024 * 1024, base),
            stats: MmStats::default(),
            ref_bits: FastSet::default(),
            stamps: FastMap::default(),
            fail_counts: FastMap::default(),
            verify_threshold: None,
            generation: 0,
            fault_stats: MmFaultStats::default(),
        }
    }

    /// Arms end-to-end data checking: fills stamp a checksum, deliveries
    /// verify it, and a frame failing `threshold` times is retired.
    pub fn set_data_fault_checking(&mut self, threshold: u32) {
        self.verify_threshold = Some(threshold.max(1));
    }

    /// Accumulated counters.
    pub fn stats(&self) -> MmStats {
        self.stats
    }

    /// Data-path fault counters accumulated inside the manager (scrub
    /// detections, retirements); the simulator merges these into the
    /// run-level `mm_fault_*` stats at finalize.
    pub fn fault_stats(&self) -> MmFaultStats {
        self.fault_stats
    }

    /// Mutable counters — the simulator credits `major_replays` here when
    /// a replayed fill translation completes end to end.
    pub fn stats_mut(&mut self) -> &mut MmStats {
        &mut self.stats
    }

    /// Pages currently resident.
    pub fn resident_pages(&self) -> u64 {
        self.resident.len() as u64
    }

    /// Currently-coalesced (64 KiB, 2 MiB) group counts.
    pub fn coalesced_groups(&self) -> (usize, usize) {
        (
            self.group_64k.coalesced.len(),
            self.group_2m.coalesced.len(),
        )
    }

    /// Services a major fault for `vpn`: evicts past the device-memory
    /// budget if needed, populates the page (recycled frame first), and
    /// updates coalescing state. Every page evicted to make room is
    /// appended to `evicted`, in eviction order: the caller shoots down
    /// their stale TLB entries, and owns (and reuses) the buffer.
    /// Idempotent — a page that is already resident (e.g. filled while
    /// this fault was queued) is returned as-is without counting a
    /// second major fault.
    ///
    /// # Panics
    ///
    /// Panics if the frame region is exhausted while nothing is resident
    /// to evict (an impossible configuration: the region holds 1 TiB).
    pub fn service_fault(
        &mut self,
        vpn: Vpn,
        space: &mut AddressSpace,
        mem: &mut PhysMem,
        evicted: &mut Vec<Vpn>,
    ) -> FillOutcome {
        if let Some(pfn) = space.pfn_of(vpn) {
            let generation = self
                .stamps
                .get(&pfn.value())
                .map_or(0, |stamp| stamp.generation);
            return FillOutcome { pfn, generation };
        }

        if self.cfg.resident_page_budget > 0 {
            while self.resident.len() as u64 >= self.cfg.resident_page_budget {
                match self.evict_one(space, mem) {
                    Some(v) => evicted.push(v),
                    None => break,
                }
            }
        }

        let pfn = loop {
            if let Some(Reverse(raw)) = self.free_frames.pop() {
                let pfn = Pfn::new(raw);
                space.map_page_to(vpn, pfn, mem);
                break pfn;
            }
            if let Some(pfn) = space.try_map_page(vpn, mem) {
                break pfn;
            }
            // Region exhausted: free a frame by evicting the oldest page.
            let victim = self
                .evict_one(space, mem)
                .expect("frame region exhausted with no resident pages");
            evicted.push(victim);
        };

        self.resident.push_back(vpn);
        self.stats.major_faults += 1;
        self.stats.resident_peak = self.stats.resident_peak.max(self.resident.len() as u64);

        if let Some(g) = self.group_64k.note_populated(vpn) {
            if self.cfg.coalesce && self.group_64k.contiguous_aligned(g, space) {
                self.group_64k.coalesced.insert(g);
                self.stats.coalesces_64k += 1;
            }
        }
        if let Some(g) = self.group_2m.note_populated(vpn) {
            if self.cfg.coalesce && self.group_2m.contiguous_aligned(g, space) {
                self.group_2m.coalesced.insert(g);
                self.stats.coalesces_2m += 1;
            }
        }

        let mut generation = 0;
        if self.verify_threshold.is_some() {
            self.generation += 1;
            generation = self.generation;
            mem.write_u64(
                self.base.base_of_pfn(pfn),
                data_checksum(vpn.value(), generation),
            );
            self.stamps
                .insert(pfn.value(), FrameStamp { vpn, generation });
        }

        FillOutcome { pfn, generation }
    }

    /// Records a translation delivery for `vpn` — sets the clock
    /// reference bit under the LRU policy; a no-op under FIFO.
    pub fn touch(&mut self, vpn: Vpn) {
        if self.cfg.evict == MmEvictPolicy::Lru {
            self.ref_bits.insert(vpn);
        }
    }

    /// End-to-end data check when a translation delivers `(vpn, pfn)` to
    /// a consumer. Always [`FrameCheck::Ok`] while checking is unarmed.
    pub fn verify(&self, vpn: Vpn, pfn: Pfn, mem: &PhysMem) -> FrameCheck {
        if self.verify_threshold.is_none() {
            return FrameCheck::Ok;
        }
        let Some(stamp) = self.stamps.get(&pfn.value()) else {
            return FrameCheck::Stale;
        };
        if stamp.vpn != vpn {
            return FrameCheck::Stale;
        }
        if mem.read_u64(self.base.base_of_pfn(pfn)) != data_checksum(vpn.value(), stamp.generation)
        {
            return FrameCheck::Corrupt;
        }
        FrameCheck::Ok
    }

    /// Garbles the payload of a frame in place — the injector's corrupt-
    /// fill primitive. The mask is forced odd so at least one bit flips.
    pub fn corrupt_frame(&self, pfn: Pfn, garble: u64, mem: &mut PhysMem) {
        mem.xor_u64(self.base.base_of_pfn(pfn), garble | 1);
    }

    /// Pulls a corrupt page out of service: unmaps it, splinters its
    /// coalesced groups, and disposes of the frame — retired to the
    /// allocator's bad-frame list once it has failed
    /// `verify_threshold` checks (returns `true`), otherwise recycled
    /// through the free list (returns `false`). The caller owns TLB
    /// shootdown and the re-fill.
    pub fn quarantine_page(
        &mut self,
        vpn: Vpn,
        space: &mut AddressSpace,
        mem: &mut PhysMem,
    ) -> bool {
        let Some(pfn) = space.unmap_page(vpn, mem) else {
            return false;
        };
        self.resident.retain(|&v| v != vpn);
        self.ref_bits.remove(&vpn);
        if self.group_64k.note_evicted(vpn) {
            self.stats.splinters += 1;
        }
        if self.group_2m.note_evicted(vpn) {
            self.stats.splinters += 1;
        }
        self.stamps.remove(&pfn.value());
        self.dispose_failed_frame(pfn, space)
    }

    /// Bumps a frame's failure count and either retires it (at the
    /// threshold; returns `true`) or recycles it through the free list.
    fn dispose_failed_frame(&mut self, pfn: Pfn, space: &mut AddressSpace) -> bool {
        let count = self.fail_counts.entry(pfn.value()).or_insert(0);
        *count += 1;
        let threshold = self.verify_threshold.unwrap_or(u32::MAX);
        if *count >= threshold {
            space.retire_frame(pfn);
            self.fault_stats.frames_retired += 1;
            true
        } else {
            self.free_frame(pfn);
            false
        }
    }

    /// Puts an unmapped frame on the free list.
    fn free_frame(&mut self, pfn: Pfn) {
        let raw = pfn.value();
        debug_assert!(
            self.free_frames.iter().all(|&Reverse(f)| f != raw),
            "frame {raw:#x} freed twice"
        );
        self.free_frames.push(Reverse(raw));
    }

    /// Evicts one resident page per the configured policy: splinters its
    /// coalesced groups, zeroes its leaf PTE and recycles its frame.
    /// Returns the evicted VPN (the caller owns TLB shootdown), or
    /// `None` if nothing is resident.
    fn evict_one(&mut self, space: &mut AddressSpace, mem: &mut PhysMem) -> Option<Vpn> {
        let vpn = match self.cfg.evict {
            MmEvictPolicy::Fifo => self.resident.pop_front()?,
            MmEvictPolicy::Lru => {
                // Clock second-chance, bounded by one full lap so an
                // all-referenced set still yields a victim (the oldest).
                let mut lap = self.resident.len();
                loop {
                    let v = self.resident.pop_front()?;
                    if lap > 0 && self.ref_bits.remove(&v) {
                        self.resident.push_back(v);
                        lap -= 1;
                    } else {
                        self.ref_bits.remove(&v);
                        break v;
                    }
                }
            }
        };
        let pfn = space
            .unmap_page(vpn, mem)
            .expect("resident page missing from the address space");
        self.stats.evictions += 1;
        if self.group_64k.note_evicted(vpn) {
            self.stats.splinters += 1;
        }
        if self.group_2m.note_evicted(vpn) {
            self.stats.splinters += 1;
        }
        // Eviction scrub: a corrupt fill that was never consumed still
        // has to be *detected* (corruptions injected == detected), and a
        // flaky frame still accrues toward retirement.
        if self.verify_threshold.is_some() {
            let verdict = self.verify(vpn, pfn, mem);
            self.stamps.remove(&pfn.value());
            if verdict == FrameCheck::Corrupt {
                self.fault_stats.detected_corruptions += 1;
                if self.dispose_failed_frame(pfn, space) {
                    self.fault_stats.retired_fills += 1;
                } else {
                    self.fault_stats.recovered_fills += 1;
                }
                return Some(vpn);
            }
        }
        self.free_frame(pfn);
        Some(vpn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One serviced fault: its outcome and the pages it evicted.
    struct Filled {
        pfn: Pfn,
        evicted: Vec<Vpn>,
        generation: u64,
    }

    fn fill(
        mm: &mut MemoryManager,
        vpn: Vpn,
        space: &mut AddressSpace,
        mem: &mut PhysMem,
    ) -> Filled {
        let mut evicted = Vec::new();
        let out = mm.service_fault(vpn, space, mem, &mut evicted);
        Filled {
            pfn: out.pfn,
            evicted,
            generation: out.generation,
        }
    }

    fn setup(cfg: MmConfig, base: PageSize) -> (MemoryManager, AddressSpace, PhysMem) {
        let mut mem = PhysMem::new();
        let space = AddressSpace::new(base, &mut mem);
        let mm = MemoryManager::new(cfg, base);
        (mm, space, mem)
    }

    #[test]
    fn first_touch_counts_one_major_fault_per_page() {
        let (mut mm, mut space, mut mem) = setup(MmConfig::demand_paged(), PageSize::Size4K);
        for v in 0..10u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
            // A second fault on the same page is absorbed.
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        assert_eq!(mm.stats().major_faults, 10);
        assert_eq!(mm.resident_pages(), 10);
        assert_eq!(space.mapped_pages(), 10);
        assert_eq!(mm.stats().resident_peak, 10);
    }

    #[test]
    fn sequential_4k_run_coalesces_to_64k_and_2m() {
        let (mut mm, mut space, mut mem) = setup(MmConfig::demand_paged(), PageSize::Size4K);
        // 512 sequential 4K pages = one 2M group = 32 64K groups.
        for v in 0..512u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        assert_eq!(mm.stats().coalesces_64k, 32);
        assert_eq!(mm.stats().coalesces_2m, 1);
        assert_eq!(mm.coalesced_groups(), (32, 1));
    }

    #[test]
    fn coalescing_never_changes_translations() {
        let (mut mm, mut space, mut mem) = setup(MmConfig::demand_paged(), PageSize::Size4K);
        for v in 0..15u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        let before: Vec<_> = (0..15u64)
            .map(|v| space.pfn_of(Vpn::new(v)).unwrap())
            .collect();
        // Page 15 completes the first 64K group.
        fill(&mut mm, Vpn::new(15), &mut space, &mut mem);
        assert_eq!(mm.stats().coalesces_64k, 1);
        let after: Vec<_> = (0..15u64)
            .map(|v| space.pfn_of(Vpn::new(v)).unwrap())
            .collect();
        assert_eq!(before, after, "promotion moved data");
    }

    #[test]
    fn scattered_frames_do_not_coalesce() {
        let mut mem = PhysMem::new();
        let mut space = AddressSpace::new_scrambled(PageSize::Size4K, &mut mem);
        let mut mm = MemoryManager::new(MmConfig::demand_paged(), PageSize::Size4K);
        for v in 0..512u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        assert_eq!(
            mm.stats().coalesces_64k + mm.stats().coalesces_2m,
            0,
            "scrambled frames are not contiguous"
        );
    }

    #[test]
    fn budget_evicts_fifo_and_recycles_frames() {
        let cfg = MmConfig {
            resident_page_budget: 4,
            ..MmConfig::demand_paged()
        };
        let (mut mm, mut space, mut mem) = setup(cfg, PageSize::Size64K);
        for v in 0..4u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        let frame0 = space.pfn_of(Vpn::new(0)).unwrap();
        let out = fill(&mut mm, Vpn::new(4), &mut space, &mut mem);
        assert_eq!(out.evicted, vec![Vpn::new(0)], "oldest page evicted");
        assert_eq!(out.pfn, frame0, "freed frame recycled");
        assert_eq!(space.pfn_of(Vpn::new(0)), None);
        assert_eq!(mm.resident_pages(), 4);
        assert_eq!(mm.stats().evictions, 1);
    }

    #[test]
    fn eviction_splinters_coalesced_group() {
        let cfg = MmConfig {
            resident_page_budget: 16,
            ..MmConfig::demand_paged()
        };
        let (mut mm, mut space, mut mem) = setup(cfg, PageSize::Size4K);
        for v in 0..16u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        assert_eq!(mm.coalesced_groups(), (1, 0));
        // Page 16 exceeds the budget: page 0 is evicted, splintering the
        // coalesced 64K group.
        let out = fill(&mut mm, Vpn::new(16), &mut space, &mut mem);
        assert_eq!(out.evicted, vec![Vpn::new(0)]);
        assert_eq!(mm.stats().splinters, 1);
        assert_eq!(mm.coalesced_groups(), (0, 0));
    }

    #[test]
    fn evicted_page_round_trips_on_retouch() {
        let cfg = MmConfig {
            resident_page_budget: 2,
            ..MmConfig::demand_paged()
        };
        let (mut mm, mut space, mut mem) = setup(cfg, PageSize::Size64K);
        fill(&mut mm, Vpn::new(0), &mut space, &mut mem);
        fill(&mut mm, Vpn::new(1), &mut space, &mut mem);
        fill(&mut mm, Vpn::new(2), &mut space, &mut mem); // evicts 0
        assert_eq!(space.pfn_of(Vpn::new(0)), None);
        let out = fill(&mut mm, Vpn::new(0), &mut space, &mut mem); // evicts 1
        assert_eq!(out.evicted, vec![Vpn::new(1)]);
        assert!(space.pfn_of(Vpn::new(0)).is_some());
        assert_eq!(mm.stats().major_faults, 4, "re-touch is a new fault");
    }

    #[test]
    fn base_2m_disables_coalescing() {
        let (mut mm, mut space, mut mem) = setup(MmConfig::demand_paged(), PageSize::Size2M);
        for v in 0..64u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        assert_eq!(mm.stats().coalesces_64k + mm.stats().coalesces_2m, 0);
    }

    #[test]
    fn coalesce_knob_off_counts_nothing() {
        let cfg = MmConfig {
            coalesce: false,
            ..MmConfig::demand_paged()
        };
        let (mut mm, mut space, mut mem) = setup(cfg, PageSize::Size4K);
        for v in 0..512u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        assert_eq!(mm.stats().coalesces_64k + mm.stats().coalesces_2m, 0);
    }

    #[test]
    fn lru_clock_gives_referenced_pages_a_second_chance() {
        let cfg = MmConfig {
            resident_page_budget: 4,
            evict: MmEvictPolicy::Lru,
            ..MmConfig::demand_paged()
        };
        let (mut mm, mut space, mut mem) = setup(cfg, PageSize::Size64K);
        for v in 0..4u64 {
            fill(&mut mm, Vpn::new(v), &mut space, &mut mem);
        }
        mm.touch(Vpn::new(0));
        // Clock skips referenced page 0 (clearing its bit), evicts 1.
        let out = fill(&mut mm, Vpn::new(4), &mut space, &mut mem);
        assert_eq!(out.evicted, vec![Vpn::new(1)]);
        assert!(space.pfn_of(Vpn::new(0)).is_some());
        // Bit was cleared by the skip: 0 (now oldest unreferenced after 2)
        // is next once 2 goes. Without a fresh touch, 2 leads the queue.
        let out = fill(&mut mm, Vpn::new(5), &mut space, &mut mem);
        assert_eq!(out.evicted, vec![Vpn::new(2)]);
    }

    #[test]
    fn lru_with_all_pages_referenced_still_evicts_the_oldest() {
        let cfg = MmConfig {
            resident_page_budget: 2,
            evict: MmEvictPolicy::Lru,
            ..MmConfig::demand_paged()
        };
        let (mut mm, mut space, mut mem) = setup(cfg, PageSize::Size64K);
        fill(&mut mm, Vpn::new(0), &mut space, &mut mem);
        fill(&mut mm, Vpn::new(1), &mut space, &mut mem);
        mm.touch(Vpn::new(0));
        mm.touch(Vpn::new(1));
        let out = fill(&mut mm, Vpn::new(2), &mut space, &mut mem);
        assert_eq!(
            out.evicted,
            vec![Vpn::new(0)],
            "full lap falls back to FIFO"
        );
    }

    #[test]
    fn lru_without_touches_matches_fifo_order() {
        for evict in [MmEvictPolicy::Fifo, MmEvictPolicy::Lru] {
            let cfg = MmConfig {
                resident_page_budget: 3,
                evict,
                ..MmConfig::demand_paged()
            };
            let (mut mm, mut space, mut mem) = setup(cfg, PageSize::Size64K);
            let mut evicted = Vec::new();
            for v in 0..8u64 {
                evicted.extend(fill(&mut mm, Vpn::new(v), &mut space, &mut mem).evicted);
            }
            let expect: Vec<_> = (0..5u64).map(Vpn::new).collect();
            assert_eq!(evicted, expect, "policy {evict:?} diverged without touches");
        }
    }

    #[test]
    fn checksum_stamped_verified_and_corruption_detected() {
        let (mut mm, mut space, mut mem) = setup(MmConfig::demand_paged(), PageSize::Size64K);
        mm.set_data_fault_checking(2);
        let out = fill(&mut mm, Vpn::new(7), &mut space, &mut mem);
        assert_eq!(out.generation, 1);
        assert_eq!(mm.verify(Vpn::new(7), out.pfn, &mem), FrameCheck::Ok);
        // Idempotent re-fault reports the original generation.
        let again = fill(&mut mm, Vpn::new(7), &mut space, &mut mem);
        assert_eq!(again.generation, 1);
        // A frame this page never mapped reads as stale.
        assert_eq!(
            mm.verify(Vpn::new(8), out.pfn, &mem),
            FrameCheck::Stale,
            "wrong vpn must not verify"
        );
        mm.corrupt_frame(out.pfn, 0xdead, &mut mem);
        assert_eq!(mm.verify(Vpn::new(7), out.pfn, &mem), FrameCheck::Corrupt);
    }

    #[test]
    fn repeatedly_failing_frame_is_retired_and_refilled_elsewhere() {
        let (mut mm, mut space, mut mem) = setup(MmConfig::demand_paged(), PageSize::Size64K);
        mm.set_data_fault_checking(2);
        let first = fill(&mut mm, Vpn::new(3), &mut space, &mut mem);
        mm.corrupt_frame(first.pfn, 1, &mut mem);
        // First failure: frame recycled, not yet retired.
        assert!(!mm.quarantine_page(Vpn::new(3), &mut space, &mut mem));
        assert_eq!(space.retired_frames(), 0);
        // Re-fill lands on the recycled (lowest free) frame — same pfn.
        let second = fill(&mut mm, Vpn::new(3), &mut space, &mut mem);
        assert_eq!(second.pfn, first.pfn);
        assert_eq!(mm.verify(Vpn::new(3), second.pfn, &mem), FrameCheck::Ok);
        mm.corrupt_frame(second.pfn, 2, &mut mem);
        // Second failure hits the threshold: retired for good.
        assert!(mm.quarantine_page(Vpn::new(3), &mut space, &mut mem));
        assert_eq!(space.retired_frames(), 1);
        assert_eq!(mm.fault_stats().frames_retired, 1);
        let third = fill(&mut mm, Vpn::new(3), &mut space, &mut mem);
        assert_ne!(third.pfn, first.pfn, "retired frame reissued");
    }

    #[test]
    fn eviction_scrub_detects_unconsumed_corruption() {
        let cfg = MmConfig {
            resident_page_budget: 1,
            ..MmConfig::demand_paged()
        };
        let (mut mm, mut space, mut mem) = setup(cfg, PageSize::Size64K);
        mm.set_data_fault_checking(8);
        let out = fill(&mut mm, Vpn::new(0), &mut space, &mut mem);
        mm.corrupt_frame(out.pfn, 0xff00, &mut mem);
        // Budget forces eviction of page 0; the scrub catches the
        // corruption nobody consumed.
        fill(&mut mm, Vpn::new(1), &mut space, &mut mem);
        assert_eq!(mm.fault_stats().detected_corruptions, 1);
        assert_eq!(mm.fault_stats().recovered_fills, 1);
        assert_eq!(mm.fault_stats().retired_fills, 0);
    }

    #[test]
    fn unarmed_manager_never_touches_payload_memory() {
        let (mut mm, mut space, mut mem) = setup(MmConfig::demand_paged(), PageSize::Size64K);
        let out = fill(&mut mm, Vpn::new(5), &mut space, &mut mem);
        assert_eq!(out.generation, 0);
        assert_eq!(
            mem.read_u64(PageSize::Size64K.base_of_pfn(out.pfn)),
            0,
            "unarmed fill must not stamp data frames"
        );
        assert_eq!(mm.verify(Vpn::new(5), out.pfn, &mem), FrameCheck::Ok);
    }
}
