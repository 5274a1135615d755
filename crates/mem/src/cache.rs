//! A sectored, set-associative, non-blocking cache with a bounded MSHR file.
//!
//! Models the paper's L1D (128 KB, 40 cyc) and L2D (4 MB, 180 cyc) caches:
//! 128-byte lines split into 32-byte sectors, LRU replacement, and a miss
//! status holding register (MSHR) file that merges requests to the same
//! in-flight sector and *rejects* new misses when full (an "MSHR failure",
//! which the paper measures for the L2 in Figure 20).

use crate::req::{AccessKind, MemReq};
use std::collections::VecDeque;
use swgpu_types::{ensure, ConfigError};
use swgpu_types::{Cycle, DelayQueue, FaultInjectionStats, FaultInjector, MshrOutcome, MshrSlab};

/// Static geometry and timing of one cache.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Human-readable name used in stats dumps ("L1D", "L2D").
    pub name: String,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Set associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (128 in Table 3).
    pub line_bytes: u64,
    /// Sector size in bytes (32 in Table 3); fills happen per sector.
    pub sector_bytes: u64,
    /// Lookup/hit latency in cycles.
    pub hit_latency: u64,
    /// Number of MSHR entries (distinct in-flight sectors).
    pub mshr_entries: usize,
    /// Maximum requests merged into one MSHR entry (including the first).
    pub mshr_max_merges: usize,
}

impl CacheConfig {
    /// The paper's per-SM L1 data cache (Table 3): 128 KB, 40 cycles,
    /// 128 B lines with 32 B sectors.
    pub fn l1d() -> Self {
        Self {
            name: "L1D".into(),
            size_bytes: 128 * 1024,
            assoc: 8,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 40,
            mshr_entries: 64,
            mshr_max_merges: 32,
        }
    }

    /// The paper's shared L2 data cache (Table 3): 4 MB, 180 cycles,
    /// 128 B lines with 32 B sectors.
    pub fn l2d() -> Self {
        Self {
            name: "L2D".into(),
            size_bytes: 4 * 1024 * 1024,
            assoc: 16,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 180,
            mshr_entries: 512,
            mshr_max_merges: 32,
        }
    }

    fn num_sets(&self) -> usize {
        (self.size_bytes / (self.line_bytes * self.assoc as u64)) as usize
    }

    /// Number of sectors per line.
    pub fn sectors_per_line(&self) -> usize {
        (self.line_bytes / self.sector_bytes) as usize
    }

    /// Checks the geometry [`Cache::new`] relies on.
    ///
    /// # Errors
    ///
    /// Rejects a line or sector size that is not a power of two, more
    /// than 64 sectors per line, zero associativity, a set count that is
    /// not a power of two, or an empty MSHR file.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // Tags are line-aligned addresses that keep their valid flag in
        // bit 0, so a line spans at least two bytes.
        ensure!(
            self.line_bytes.is_power_of_two() && self.line_bytes >= 2,
            "line size must be 2^n and at least 2 bytes"
        );
        ensure!(
            self.sector_bytes.is_power_of_two() && self.sector_bytes <= self.line_bytes,
            "sector size must be 2^n and <= line size"
        );
        ensure!(
            self.sectors_per_line() <= 64,
            "a line holds at most 64 sectors (the valid-sector mask is a u64)"
        );
        ensure!(self.assoc > 0, "associativity must be positive");
        ensure!(
            self.num_sets() > 0 && self.num_sets().is_power_of_two(),
            "cache must have a power-of-two number of sets"
        );
        ensure!(self.mshr_entries > 0, "need at least one MSHR");
        ensure!(self.mshr_max_merges > 0, "merge limit must be positive");
        Ok(())
    }
}

/// Result of presenting a request to [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Sector present; a response is scheduled after the hit latency.
    Hit,
    /// Sector absent; an MSHR was allocated and a fill request will be
    /// emitted to the lower level.
    Miss,
    /// Sector already in flight; the request was merged into the existing
    /// MSHR entry and will complete with it.
    Merged,
    /// The MSHR file (entries or merge slots) is exhausted; the caller must
    /// retry later. Counted as an MSHR failure.
    MshrFull,
}

impl AccessOutcome {
    /// Whether the request was accepted by the cache (anything but
    /// [`AccessOutcome::MshrFull`]).
    pub fn accepted(self) -> bool {
        !matches!(self, AccessOutcome::MshrFull)
    }
}

swgpu_types::counters! {
    /// Hit/miss/MSHR counters for one cache.
    pub struct CacheStats {
        /// Total requests presented (including rejected ones).
        pub accesses: u64,
        /// Requests that hit a resident sector.
        pub hits: u64,
        /// Requests that allocated a new MSHR (true sector misses).
        pub misses: u64,
        /// Requests merged into an in-flight MSHR.
        pub merges: u64,
        /// Requests rejected because the MSHR file was saturated.
        pub mshr_failures: u64,
        /// Lines evicted to make room for fills.
        pub evictions: u64,
    }
}

impl CacheStats {
    /// Miss rate over accepted requests, counting merges as misses (they
    /// did not find data in the array). Returns 0 for an idle cache.
    pub fn miss_rate(&self) -> f64 {
        let missed = self.misses.saturating_add(self.merges);
        let accepted = self.hits.saturating_add(missed);
        if accepted == 0 {
            0.0
        } else {
            missed as f64 / accepted as f64
        }
    }
}

/// Valid flag of a tag-store entry: line addresses are aligned to at
/// least two bytes, so bit 0 is free to carry it.
const VALID: u64 = 1;

/// One way: the line address with [`VALID`] set (0 when empty) and the
/// resident-sector mask.
#[derive(Debug, Clone, Copy, Default)]
struct Way {
    tag: u64,
    sectors: u64,
}

const _: () = assert!(std::mem::size_of::<Way>() == 16);

/// Moves the resident line `line_addr` to the front of `set` and returns it.
fn touch(set: &mut [Way], line_addr: u64) -> Option<&mut Way> {
    let tag = line_addr | VALID;
    let w = set.iter().position(|way| way.tag == tag)?;
    set[..=w].rotate_right(1);
    Some(&mut set[0])
}

/// A sectored set-associative non-blocking cache.
///
/// Interaction protocol, driven once per simulated cycle by the owner:
///
/// 1. [`Cache::access`] for each new request (check the outcome!).
/// 2. [`Cache::pop_fill_request`] and forward to the lower level.
/// 3. When the lower level completes a fill, [`Cache::complete_fill`].
/// 4. [`Cache::pop_response`] to collect finished requests.
///
/// # Example
///
/// ```
/// use swgpu_mem::{AccessKind, AccessOutcome, Cache, CacheConfig, MemReq};
/// use swgpu_types::{Cycle, MemReqId, PhysAddr};
///
/// let mut c = Cache::new(CacheConfig::l2d());
/// let req = MemReq::new(MemReqId(1), PhysAddr::new(0x100), AccessKind::Data);
/// assert_eq!(c.access(Cycle::ZERO, req), AccessOutcome::Miss);
/// let fill = c.pop_fill_request(Cycle::new(180)).unwrap();
/// c.complete_fill(Cycle::new(400), fill);
/// assert_eq!(c.pop_response(Cycle::new(400)).unwrap().id, MemReqId(1));
/// // The sector is now resident:
/// let again = MemReq::new(MemReqId(2), PhysAddr::new(0x110), AccessKind::Data);
/// assert_eq!(c.access(Cycle::new(401), again), AccessOutcome::Hit);
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    /// Tag store, one set after another, each most recently used first.
    /// No way is invalidated, so the last is empty or else the LRU line.
    ways: Vec<Way>,
    set_mask: usize,
    /// `log2(line_bytes)` and `log2(sector_bytes)`: `validate` proves
    /// both sizes are powers of two, so indexing needs no division.
    line_shift: u32,
    sector_shift: u32,
    /// In-flight sectors, keyed by sector address.
    mshrs: MshrSlab<u64, MemReq>,
    hit_queue: DelayQueue<MemReq>,
    fill_queue: DelayQueue<MemReq>,
    /// Filled misses' MSHR slots in fill order, and how many waiters of
    /// the front one have been popped.
    filled: VecDeque<u32>,
    served: usize,
    stats: CacheStats,
    /// Fault injection: when set, completed page-table responses are
    /// dropped with the given rate (the requester's watchdog re-issues).
    fault: Option<(FaultInjector, f64)>,
    dropped: VecDeque<MemReq>,
}

impl Cache {
    /// Builds a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is inconsistent (non-power-of-two
    /// sizes, zero ways, etc.).
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            ways: vec![Way::default(); cfg.num_sets() * cfg.assoc],
            set_mask: cfg.num_sets() - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            sector_shift: cfg.sector_bytes.trailing_zeros(),
            mshrs: MshrSlab::new(cfg.mshr_entries, cfg.mshr_max_merges),
            cfg,
            hit_queue: DelayQueue::new(),
            fill_queue: DelayQueue::new(),
            filled: VecDeque::new(),
            served: 0,
            stats: CacheStats::default(),
            fault: None,
            dropped: VecDeque::new(),
        }
    }

    /// Arms response-drop fault injection: completed [`AccessKind::PageTable`]
    /// responses are discarded with probability `rate`. Dropped requests are
    /// retrievable via [`Cache::pop_dropped`] so the owner can attribute the
    /// loss; data traffic is never dropped (SMs have no watchdog).
    pub fn set_fault_injector(&mut self, inj: FaultInjector, rate: f64) {
        self.fault = Some((inj, rate));
    }

    /// Counters for faults injected at this cache.
    pub fn fault_stats(&self) -> FaultInjectionStats {
        self.fault
            .as_ref()
            .map(|(inj, _)| inj.stats)
            .unwrap_or_default()
    }

    /// Pops a response that was dropped by fault injection (the request is
    /// complete from the cache's point of view — fill done, MSHR released —
    /// but the requester never hears back).
    pub fn pop_dropped(&mut self) -> Option<MemReq> {
        self.dropped.pop_front()
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of MSHR entries currently in flight.
    pub fn mshrs_in_flight(&self) -> usize {
        self.mshrs.len()
    }

    /// The ways of the set holding `line_addr`, most recent first.
    fn set(&mut self, line_addr: u64) -> &mut [Way] {
        let base = ((line_addr >> self.line_shift) as usize & self.set_mask) * self.cfg.assoc;
        &mut self.ways[base..base + self.cfg.assoc]
    }

    fn sector_bit(&self, addr: u64) -> u64 {
        let off = (addr & ((1 << self.line_shift) - 1)) >> self.sector_shift;
        1u64 << off
    }

    /// Presents a read request. See [`AccessOutcome`] for the possible
    /// results; on [`AccessOutcome::MshrFull`] the caller must retry on a
    /// later cycle.
    pub fn access(&mut self, now: Cycle, req: MemReq) -> AccessOutcome {
        self.stats.accesses += 1;
        let addr = req.addr.value();
        let line_addr = addr >> self.line_shift << self.line_shift;
        let sector_addr = addr >> self.sector_shift << self.sector_shift;
        let bit = self.sector_bit(addr);

        // A resident line is touched even when the sector is missing
        // (still a sector miss).
        if let Some(way) = touch(self.set(line_addr), line_addr) {
            if way.sectors & bit != 0 {
                self.stats.hits += 1;
                self.hit_queue.push_after(now, self.cfg.hit_latency, req);
                return AccessOutcome::Hit;
            }
        }

        match self.mshrs.allocate(sector_addr, req) {
            MshrOutcome::Merged => {
                self.stats.merges += 1;
                AccessOutcome::Merged
            }
            MshrOutcome::Full(_) => {
                self.stats.mshr_failures += 1;
                AccessOutcome::MshrFull
            }
            MshrOutcome::Allocated => {
                self.stats.misses += 1;
                // The fill request targets the sector base and carries the
                // first waiter's id and route, so the lower level's
                // completion finds its way back here.
                let fill = MemReq {
                    addr: swgpu_types::PhysAddr::new(sector_addr),
                    ..req
                };
                self.fill_queue.push_after(now, self.cfg.hit_latency, fill);
                AccessOutcome::Miss
            }
        }
    }

    /// Pops the next fill request destined for the lower memory level, if
    /// one is ready at `now`.
    pub fn pop_fill_request(&mut self, now: Cycle) -> Option<MemReq> {
        self.fill_queue.pop_ready(now)
    }

    /// Completes a fill previously emitted by [`Cache::pop_fill_request`]:
    /// installs the sector and frees its MSHR entry, whose slot keeps the
    /// merged waiters for [`Cache::pop_response`].
    ///
    /// # Panics
    ///
    /// Panics if `fill` does not correspond to an outstanding MSHR entry
    /// (that would mean the memory system duplicated or invented a fill).
    pub fn complete_fill(&mut self, _now: Cycle, fill: MemReq) {
        let sector_addr = fill.addr.value() >> self.sector_shift << self.sector_shift;
        let slot = self
            .mshrs
            .close(&sector_addr)
            .expect("fill completion without a matching MSHR entry");
        self.filled.push_back(slot);

        let line_addr = sector_addr >> self.line_shift << self.line_shift;
        let bit = self.sector_bit(sector_addr);
        let set = self.set(line_addr);
        if let Some(way) = touch(set, line_addr) {
            way.sectors |= bit;
            return;
        }
        // Not resident: the last way, empty or the LRU line, takes it.
        set.rotate_right(1);
        let evicted = set[0].tag & VALID != 0;
        set[0] = Way {
            tag: line_addr | VALID,
            sectors: bit,
        };
        self.stats.evictions += u64::from(evicted);
    }

    /// The next waiter of the oldest filled slot, which is freed once its
    /// last waiter is out.
    fn pop_filled(&mut self) -> Option<MemReq> {
        let slot = *self.filled.front()?;
        let waiters = self.mshrs.waiters(slot);
        let req = waiters[self.served];
        self.served += 1;
        if self.served == waiters.len() {
            self.mshrs.free_slot(slot);
            self.filled.pop_front();
            self.served = 0;
        }
        Some(req)
    }

    /// Pops the next completed request (hit or filled miss) ready at `now`.
    /// Page-table responses may be discarded here by fault injection; see
    /// [`Cache::set_fault_injector`].
    pub fn pop_response(&mut self, now: Cycle) -> Option<MemReq> {
        loop {
            let req = match self.hit_queue.pop_ready(now) {
                Some(req) => req,
                None => self.pop_filled()?,
            };
            if req.kind == AccessKind::PageTable {
                if let Some((inj, rate)) = self.fault.as_mut() {
                    if inj.fire(*rate) {
                        inj.stats.injected_mem_drops += 1;
                        self.dropped.push_back(req);
                        continue;
                    }
                }
            }
            return Some(req);
        }
    }

    /// Whether the cache has any work in flight (hits in the pipe, fills
    /// pending, or responses or drops waiting to be drained).
    pub fn is_idle(&self) -> bool {
        self.hit_queue.is_empty()
            && self.fill_queue.is_empty()
            && self.mshrs.is_empty()
            && self.filled.is_empty()
            && self.dropped.is_empty()
    }
}

impl swgpu_types::Component for Cache {
    /// The earliest of the hit pipeline and the fill-issue pipeline, or
    /// "immediately" while completed responses (or fault-dropped ones)
    /// wait to be drained. MSHR entries whose fill request has already
    /// been handed to the lower level carry no event of their own — the
    /// lower level's completion is the event.
    fn next_event(&self) -> Option<Cycle> {
        if !self.filled.is_empty() || !self.dropped.is_empty() {
            return Some(Cycle::ZERO);
        }
        match (self.hit_queue.next_ready(), self.fill_queue.next_ready()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    fn is_idle(&self) -> bool {
        Cache::is_idle(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::AccessKind;
    use swgpu_types::{MemReqId, PhysAddr};

    fn tiny_cache() -> Cache {
        Cache::new(CacheConfig {
            name: "tiny".into(),
            size_bytes: 2 * 128 * 2, // 2 sets x 2 ways x 128B
            assoc: 2,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 4,
            mshr_entries: 2,
            mshr_max_merges: 2,
        })
    }

    fn req(id: u64, addr: u64) -> MemReq {
        MemReq::new(MemReqId(id), PhysAddr::new(addr), AccessKind::Data)
    }

    fn fill_round_trip(c: &mut Cache, now: Cycle) -> usize {
        let mut n = 0;
        let t = now + 1000;
        while let Some(f) = c.pop_fill_request(t) {
            c.complete_fill(t, f);
            n += 1;
        }
        n
    }

    #[test]
    fn miss_then_hit_same_sector() {
        let mut c = tiny_cache();
        assert_eq!(c.access(Cycle::ZERO, req(1, 0x100)), AccessOutcome::Miss);
        fill_round_trip(&mut c, Cycle::ZERO);
        assert_eq!(c.pop_response(Cycle::new(2000)).unwrap().id, MemReqId(1));
        assert_eq!(
            c.access(Cycle::new(2000), req(2, 0x104)),
            AccessOutcome::Hit
        );
        // Hit latency is respected.
        assert!(c.pop_response(Cycle::new(2003)).is_none());
        assert_eq!(c.pop_response(Cycle::new(2004)).unwrap().id, MemReqId(2));
    }

    #[test]
    fn sectored_line_misses_on_other_sector() {
        let mut c = tiny_cache();
        assert_eq!(c.access(Cycle::ZERO, req(1, 0x100)), AccessOutcome::Miss);
        fill_round_trip(&mut c, Cycle::ZERO);
        c.pop_response(Cycle::new(2000));
        // Same 128B line, different 32B sector: must miss again.
        assert_eq!(
            c.access(Cycle::new(2000), req(2, 0x120)),
            AccessOutcome::Miss
        );
    }

    #[test]
    fn merges_requests_to_inflight_sector() {
        let mut c = tiny_cache();
        assert_eq!(c.access(Cycle::ZERO, req(1, 0x100)), AccessOutcome::Miss);
        assert_eq!(c.access(Cycle::ZERO, req(2, 0x108)), AccessOutcome::Merged);
        // Merge limit (2) reached:
        assert_eq!(
            c.access(Cycle::ZERO, req(3, 0x110)),
            AccessOutcome::MshrFull
        );
        fill_round_trip(&mut c, Cycle::ZERO);
        let a = c.pop_response(Cycle::new(2000)).unwrap();
        let b = c.pop_response(Cycle::new(2000)).unwrap();
        assert_eq!((a.id, b.id), (MemReqId(1), MemReqId(2)));
        assert_eq!(c.stats().merges, 1);
        assert_eq!(c.stats().mshr_failures, 1);
    }

    #[test]
    fn merged_waiters_keep_their_routes_and_the_fill_takes_the_first() {
        use crate::req::{Issuer, Route};
        let mut c = tiny_cache();
        let first = Route::new(Issuer::PwWarp, 3, 17);
        let second = Route::new(Issuer::Ptw, 0, 5);
        assert_eq!(
            c.access(Cycle::ZERO, req(1, 0x100).with_route(first)),
            AccessOutcome::Miss
        );
        assert_eq!(
            c.access(Cycle::ZERO, req(2, 0x108).with_route(second)),
            AccessOutcome::Merged
        );
        let fill = c.pop_fill_request(Cycle::new(1000)).expect("one fill");
        assert_eq!((fill.id, fill.route), (MemReqId(1), first));
        assert_eq!(fill.addr, PhysAddr::new(0x100));
        c.complete_fill(Cycle::new(1000), fill);
        let a = c.pop_response(Cycle::new(1000)).unwrap();
        let b = c.pop_response(Cycle::new(1000)).unwrap();
        assert_eq!((a.id, a.route), (MemReqId(1), first));
        assert_eq!((b.id, b.route), (MemReqId(2), second));
    }

    #[test]
    fn mshr_entry_exhaustion_rejects() {
        let mut c = tiny_cache();
        assert_eq!(c.access(Cycle::ZERO, req(1, 0x000)), AccessOutcome::Miss);
        assert_eq!(c.access(Cycle::ZERO, req(2, 0x200)), AccessOutcome::Miss);
        assert_eq!(
            c.access(Cycle::ZERO, req(3, 0x400)),
            AccessOutcome::MshrFull
        );
        assert_eq!(c.mshrs_in_flight(), 2);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c = tiny_cache();
        // Lines 0x000, 0x100, 0x200 all map to set 0 (set = (addr/128) & 1).
        // Fill both ways of set 0.
        for (id, addr) in [(1, 0x000u64), (2, 0x100)] {
            assert_eq!(c.access(Cycle::ZERO, req(id, addr)), AccessOutcome::Miss);
            fill_round_trip(&mut c, Cycle::ZERO);
            c.pop_response(Cycle::new(5000));
        }
        assert_eq!(c.stats().evictions, 0);
        // Touch 0x100 so 0x000 becomes the LRU line.
        assert_eq!(
            c.access(Cycle::new(5000), req(3, 0x100)),
            AccessOutcome::Hit
        );
        c.pop_response(Cycle::new(9000));
        // A third line in the set evicts the LRU (0x000).
        assert_eq!(
            c.access(Cycle::new(9001), req(4, 0x200)),
            AccessOutcome::Miss
        );
        fill_round_trip(&mut c, Cycle::new(9001));
        c.pop_response(Cycle::new(12000));
        assert_eq!(c.stats().evictions, 1);
        // 0x100 was recently used, so it survives; 0x000 was evicted.
        assert_eq!(
            c.access(Cycle::new(12000), req(5, 0x100)),
            AccessOutcome::Hit
        );
        assert_eq!(
            c.access(Cycle::new(12001), req(6, 0x000)),
            AccessOutcome::Miss
        );
    }

    #[test]
    fn miss_rate_counts_merges_as_misses() {
        let mut c = tiny_cache();
        c.access(Cycle::ZERO, req(1, 0x100));
        c.access(Cycle::ZERO, req(2, 0x108));
        fill_round_trip(&mut c, Cycle::ZERO);
        c.pop_response(Cycle::new(2000));
        c.pop_response(Cycle::new(2000));
        c.access(Cycle::new(2000), req(3, 0x100));
        let s = c.stats();
        assert_eq!(s.hits, 1);
        assert!((s.miss_rate() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn idle_after_drain() {
        let mut c = tiny_cache();
        assert!(c.is_idle());
        c.access(Cycle::ZERO, req(1, 0x100));
        assert!(!c.is_idle());
        fill_round_trip(&mut c, Cycle::ZERO);
        c.pop_response(Cycle::new(2000));
        assert!(c.is_idle());
    }

    #[test]
    #[should_panic(expected = "at most 64 sectors")]
    fn rejects_lines_with_more_sectors_than_the_mask_holds() {
        // 4096 B lines of 32 B sectors: 128 sectors, and a u64 mask would
        // alias sector 65 onto sector 1 (a false hit after one fill).
        Cache::new(CacheConfig {
            name: "wide".into(),
            size_bytes: 2 * 4096,
            assoc: 2,
            line_bytes: 4096,
            sector_bytes: 32,
            hit_latency: 4,
            mshr_entries: 4,
            mshr_max_merges: 2,
        });
    }

    #[test]
    fn sixty_four_sectors_per_line_stay_distinct() {
        let mut c = Cache::new(CacheConfig {
            name: "wide".into(),
            size_bytes: 2 * 2048,
            assoc: 2,
            line_bytes: 2048,
            sector_bytes: 32,
            hit_latency: 4,
            mshr_entries: 4,
            mshr_max_merges: 2,
        });
        assert_eq!(c.access(Cycle::ZERO, req(1, 32)), AccessOutcome::Miss);
        fill_round_trip(&mut c, Cycle::ZERO);
        c.pop_response(Cycle::new(2000));
        // Last sector of the line: a different mask bit, so still a miss.
        assert_eq!(
            c.access(Cycle::new(2000), req(2, 63 * 32)),
            AccessOutcome::Miss
        );
        assert_eq!(c.access(Cycle::new(2000), req(3, 40)), AccessOutcome::Hit);
    }

    /// A cache with `entries` MSHRs of up to four waiters each.
    fn merging_cache(entries: usize) -> Cache {
        Cache::new(CacheConfig {
            mshr_entries: entries,
            mshr_max_merges: 4,
            ..tiny_cache().cfg
        })
    }

    fn pt_req(id: u64, addr: u64) -> MemReq {
        MemReq::new(MemReqId(id), PhysAddr::new(addr), AccessKind::PageTable)
    }

    fn drain(c: &mut Cache, now: Cycle) -> Vec<u64> {
        std::iter::from_fn(|| c.pop_response(now).map(|r| r.id.0)).collect()
    }

    #[test]
    fn hits_come_first_then_filled_slots_in_fill_order() {
        let mut c = merging_cache(2);
        assert_eq!(c.access(Cycle::ZERO, req(1, 0x000)), AccessOutcome::Miss);
        fill_round_trip(&mut c, Cycle::ZERO);
        assert_eq!(drain(&mut c, Cycle::new(1000)), [1]);
        // Two misses with a merged waiter each, and a hit, all ready at
        // cycle 2004.
        let now = Cycle::new(2000);
        for (id, addr, outcome) in [
            (2, 0x080, AccessOutcome::Miss),
            (3, 0x088, AccessOutcome::Merged),
            (4, 0x1a0, AccessOutcome::Miss),
            (5, 0x1a8, AccessOutcome::Merged),
            (6, 0x004, AccessOutcome::Hit),
        ] {
            assert_eq!(c.access(now, req(id, addr)), outcome);
        }
        let ready = now + 4;
        let first = c.pop_fill_request(ready).unwrap();
        let second = c.pop_fill_request(ready).unwrap();
        // The later miss fills first, so its slot is served first.
        c.complete_fill(ready, second);
        c.complete_fill(ready, first);
        assert_eq!(c.mshrs_in_flight(), 0);
        assert_eq!(drain(&mut c, ready), [6, 4, 5, 2, 3]);
        assert!(c.is_idle());
    }

    #[test]
    fn a_dropped_waiter_leaves_its_neighbours_in_order() {
        use swgpu_types::fault::site;
        let mut c = merging_cache(1);
        c.set_fault_injector(FaultInjector::new(3, site::L2D_DROP), 1.0);
        assert_eq!(c.access(Cycle::ZERO, req(1, 0x100)), AccessOutcome::Miss);
        assert_eq!(
            c.access(Cycle::ZERO, pt_req(2, 0x104)),
            AccessOutcome::Merged
        );
        assert_eq!(c.access(Cycle::ZERO, req(3, 0x108)), AccessOutcome::Merged);
        fill_round_trip(&mut c, Cycle::ZERO);
        assert_eq!(drain(&mut c, Cycle::new(2000)), [1, 3]);
        assert_eq!(c.pop_dropped().map(|r| r.id), Some(MemReqId(2)));
        assert!(c.is_idle());
    }

    #[test]
    fn a_new_miss_takes_the_freed_entry_before_its_slot_drains() {
        let mut c = merging_cache(1);
        assert_eq!(c.access(Cycle::ZERO, req(1, 0x000)), AccessOutcome::Miss);
        assert_eq!(c.access(Cycle::ZERO, req(2, 0x008)), AccessOutcome::Merged);
        fill_round_trip(&mut c, Cycle::ZERO);
        assert_eq!(c.mshrs_in_flight(), 0);
        assert_eq!(
            c.access(Cycle::new(1000), req(3, 0x080)),
            AccessOutcome::Miss
        );
        assert_eq!(c.pop_response(Cycle::new(1000)).unwrap().id, MemReqId(1));
        fill_round_trip(&mut c, Cycle::new(1000));
        assert_eq!(drain(&mut c, Cycle::new(3000)), [2, 3]);
        assert!(c.is_idle());
    }

    #[test]
    fn a_dropped_response_keeps_the_cache_busy_until_taken() {
        use swgpu_types::fault::site;
        use swgpu_types::Component;
        let mut c = tiny_cache();
        c.set_fault_injector(FaultInjector::new(3, site::L2D_DROP), 1.0);
        assert_eq!(c.access(Cycle::ZERO, pt_req(1, 0x100)), AccessOutcome::Miss);
        fill_round_trip(&mut c, Cycle::ZERO);
        assert!(c.pop_response(Cycle::new(2000)).is_none());
        // `next_event` asks for a step to drain the drop, so the cache
        // must not report idle either.
        assert_eq!(c.next_event(), Some(Cycle::ZERO));
        assert!(!c.is_idle());
        assert_eq!(c.pop_dropped().map(|r| r.id), Some(MemReqId(1)));
        assert_eq!(c.next_event(), None);
        assert!(c.is_idle());
    }

    #[test]
    #[should_panic(expected = "matching MSHR")]
    fn spurious_fill_panics() {
        let mut c = tiny_cache();
        c.complete_fill(Cycle::ZERO, req(9, 0x100));
    }

    #[test]
    fn drop_injection_discards_page_table_responses_only() {
        use swgpu_types::fault::site;
        let mut c = tiny_cache();
        c.set_fault_injector(FaultInjector::new(3, site::L2D_DROP), 1.0);
        let pt = MemReq::new(MemReqId(1), PhysAddr::new(0x100), AccessKind::PageTable);
        let data = MemReq::new(MemReqId(2), PhysAddr::new(0x200), AccessKind::Data);
        assert_eq!(c.access(Cycle::ZERO, pt), AccessOutcome::Miss);
        assert_eq!(c.access(Cycle::ZERO, data), AccessOutcome::Miss);
        fill_round_trip(&mut c, Cycle::ZERO);
        // The page-table response vanishes; the data response survives.
        let got = c.pop_response(Cycle::new(2000)).expect("data response");
        assert_eq!(got.id, MemReqId(2));
        assert!(c.pop_response(Cycle::new(2000)).is_none());
        assert_eq!(c.fault_stats().injected_mem_drops, 1);
        assert_eq!(c.pop_dropped().expect("dropped req").id, MemReqId(1));
        assert!(c.pop_dropped().is_none());
        // The cache itself is clean: the sector filled and the MSHR freed.
        assert!(c.is_idle());
    }
}
