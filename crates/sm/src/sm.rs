//! The SM state machine: warps, scheduler, L1 TLB, L1D cache.

use crate::instr::{coalesce_sectors, page_groups, page_run, InstrSource, WarpInstr};
use std::collections::VecDeque;
use swgpu_mem::{AccessKind, AccessOutcome, Cache, CacheConfig, CacheStats, Issuer, MemReq, Route};
use swgpu_tlb::{MshrOutcome, Tlb, TlbConfig, TlbMshr, TlbMshrConfig, TlbStats};
use swgpu_types::{
    Asid, Cycle, DelayQueue, IdGen, PageSize, Pfn, SmId, VirtAddr, Vpn, WarpId, LANES_PER_WARP,
};

/// Static configuration of one SM (Table 3 defaults via [`SmConfig::new`]).
#[derive(Debug, Clone)]
pub struct SmConfig {
    /// This SM's index.
    pub id: SmId,
    /// Address space this SM's warps execute in. SMs are statically bound
    /// to one tenant (MIG-style), so every L1 TLB tag carries this ASID.
    pub asid: Asid,
    /// Resident warp contexts (48 in Table 3).
    pub max_warps: usize,
    /// L1 TLB geometry (32 entries, fully associative).
    pub l1_tlb: TlbConfig,
    /// L1 TLB MSHR file (32 entries x 192 merges).
    pub l1_mshr: TlbMshrConfig,
    /// L1 TLB lookup latency in cycles (10).
    pub l1_tlb_latency: u64,
    /// Private L1 data cache.
    pub l1d: CacheConfig,
    /// Translation granularity.
    pub page_size: PageSize,
}

impl SmConfig {
    /// Table 3 configuration for SM `id`.
    pub fn new(id: SmId) -> Self {
        Self {
            id,
            asid: Asid::ZERO,
            max_warps: 48,
            l1_tlb: TlbConfig::l1(),
            l1_mshr: TlbMshrConfig::l1(),
            l1_tlb_latency: 10,
            l1d: CacheConfig::l1d(),
            page_size: PageSize::Size64K,
        }
    }
}

swgpu_types::counters! {
    /// Per-SM cycle and event counters. The cycle taxonomy (issued / memory
    /// stall / scoreboard stall / idle) is the decomposition Figure 8 plots.
    pub struct SmStats {
        /// Cycles in which a user warp issued an instruction.
        pub issued_cycles: u64,
        /// Cycles in which the issue port was consumed by a PW Warp.
        pub pw_issue_cycles: u64,
        /// Cycles with no eligible warp because at least one warp was waiting
        /// on memory (the dominant category for irregular workloads).
        pub mem_stall_cycles: u64,
        /// Cycles with no eligible warp, none waiting on memory, but some
        /// scoreboard-blocked on compute dependencies.
        pub scoreboard_stall_cycles: u64,
        /// Cycles with nothing to do at all (kernel drained).
        pub idle_cycles: u64,
        /// Warp instructions issued.
        pub instructions: u64,
        /// Memory (load) instructions issued.
        pub loads: u64,
        /// Translation lookups that had to retry because the L1 TLB MSHR file
        /// was saturated.
        pub l1_mshr_failures: u64,
        /// Translations that returned a fault (should not happen for fully
        /// mapped workloads; the lane accesses are dropped).
        pub xlat_faults: u64,
    }
}

impl SmStats {
    /// Total accounted scheduler cycles.
    pub fn total_cycles(&self) -> u64 {
        self.issued_cycles
            + self.pw_issue_cycles
            + self.mem_stall_cycles
            + self.scoreboard_stall_cycles
            + self.idle_cycles
    }

    /// Total stalled cycles (memory + scoreboard) — the per-SM quantity
    /// the observability layer histograms across cores.
    pub fn stall_cycles(&self) -> u64 {
        self.mem_stall_cycles + self.scoreboard_stall_cycles
    }

    /// Fraction of cycles stalled (memory + scoreboard) — Figure 8's
    /// headline (~90% for irregular apps).
    pub fn stall_fraction(&self) -> f64 {
        let t = self.total_cycles();
        if t == 0 {
            0.0
        } else {
            (self.mem_stall_cycles + self.scoreboard_stall_cycles) as f64 / t as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarpState {
    Ready,
    Compute(Cycle),
    Mem,
    Finished,
}

#[derive(Debug)]
struct Warp {
    state: WarpState,
    pending_xlat: usize,
    pending_data: usize,
    /// Sorted distinct sector addresses of the warp's one in-flight load
    /// (it stays `Mem` until both counts reach 0): each page group is a
    /// run of one VPN, named in the SM's queues by its first index. The
    /// buffer is reused by every load of the warp, and grows on its first.
    sectors: Vec<VirtAddr>,
}

/// A page group's translation lookup: the group is `warp`'s sectors from
/// index `first` to the end of that page's run.
#[derive(Debug, Clone, Copy)]
struct TlbLookup {
    warp: WarpId,
    first: u8,
    /// Whether this lookup already failed once on MSHR saturation. A
    /// retried lookup that *hits* (the translation arrived meanwhile)
    /// refunds its retry-budget token — otherwise the remaining backlog
    /// could starve with no completions left to mint budget.
    retried: bool,
}

/// A page group waiting in the L1 TLB MSHR file (see [`TlbLookup`]).
#[derive(Debug, Clone, Copy)]
struct L1Waiter {
    warp: WarpId,
    first: u8,
}

// Hundreds of lookups per SM can wait on a saturated L1 TLB MSHR file,
// so their queue entries are handles, never sector lists.
const _: () = assert!(std::mem::size_of::<TlbLookup>() <= 4);
const _: () = assert!(std::mem::size_of::<L1Waiter>() <= 4);
// A group's first sector index fits the handle's `u8`.
const _: () = assert!(LANES_PER_WARP <= u8::MAX as usize);

#[derive(Debug, Clone, Copy)]
struct DataAccess {
    warp: WarpId,
    pa: swgpu_types::PhysAddr,
    /// See `TlbLookup::retried` — same budget-refund rule on L1D hits.
    retried: bool,
}

/// One streaming multiprocessor.
///
/// Driven by the simulator:
///
/// ```text
/// sm.tick(now, &mut source, &mut ids, issue_slot_free);
/// while let Some(vpn) = sm.pop_l2_tlb_request() { /* → shared L2 TLB */ }
/// while let Some(req) = sm.pop_mem_request()    { /* → shared L2D   */ }
/// // and asynchronously:
/// sm.on_translation(now, vpn, Some(pfn));
/// sm.on_mem_response(now, mem_req);
/// ```
///
/// The caller may skip any cycle before the SM's
/// [`next_event`](swgpu_types::Component::next_event): the scheduler slot
/// of every cycle not ticked is charged lazily by [`Sm::catch_up`], which
/// every tick and delivery runs first. A skipped cycle in which a PW Warp
/// takes the issue port is charged by [`Sm::charge_pw_issue`] instead.
#[derive(Debug)]
pub struct Sm {
    cfg: SmConfig,
    warps: Vec<Warp>,
    sched_ptr: usize,
    // State census kept incrementally so a fully-stalled cycle costs O(1):
    ready_count: usize,
    mem_count: usize,
    compute_count: usize,
    finished_count: usize,
    compute_wake_q: DelayQueue<usize>,
    l1_tlb: Tlb,
    l1_mshr: TlbMshr<L1Waiter>,
    /// Waiters a resolved L1 miss released, reused across resolves.
    l1_released: Vec<L1Waiter>,
    l1d: Cache,
    tlb_lookup_q: DelayQueue<TlbLookup>,
    tlb_retry_q: VecDeque<TlbLookup>,
    // Lookups rejected on L1-MSHR saturation are re-attempted only as
    // capacity frees (2 per resolved VPN), keeping saturated cycles O(1).
    tlb_retry_budget: usize,
    data_issue_q: DelayQueue<DataAccess>,
    data_retry_q: VecDeque<DataAccess>,
    data_retry_budget: usize,
    l2_tlb_out: VecDeque<(Vpn, WarpId)>,
    mem_out: VecDeque<MemReq>,
    /// Data accesses the L1D accepted and has not yet answered; each
    /// response returns to the warp named by its route's slot.
    data_in_flight: usize,
    stats: SmStats,
    /// First cycle whose scheduler slot is not yet in `stats`: every
    /// earlier cycle was ticked or charged by [`Sm::catch_up`].
    accounted: Cycle,
    /// Cycle of the most recent user-instruction issue — per-tenant
    /// runtime is the max of this over the tenant's SMs. Updated only at
    /// issue points, so dense and event-scheduled kernels agree exactly.
    last_issue_cycle: Cycle,
}

impl Sm {
    /// Builds an SM from its configuration.
    pub fn new(cfg: SmConfig) -> Self {
        let warps: Vec<Warp> = (0..cfg.max_warps)
            .map(|_| Warp {
                state: WarpState::Ready,
                pending_xlat: 0,
                pending_data: 0,
                sectors: Vec::new(),
            })
            .collect();
        Self {
            l1_tlb: Tlb::new(cfg.l1_tlb.clone()),
            l1_mshr: TlbMshr::new(cfg.l1_mshr),
            l1_released: Vec::new(),
            l1d: Cache::new(cfg.l1d.clone()),
            ready_count: warps.len(),
            mem_count: 0,
            compute_count: 0,
            finished_count: 0,
            compute_wake_q: DelayQueue::new(),
            warps,
            sched_ptr: 0,
            tlb_lookup_q: DelayQueue::new(),
            tlb_retry_q: VecDeque::new(),
            tlb_retry_budget: 0,
            data_issue_q: DelayQueue::new(),
            data_retry_q: VecDeque::new(),
            data_retry_budget: 0,
            l2_tlb_out: VecDeque::new(),
            mem_out: VecDeque::new(),
            data_in_flight: 0,
            stats: SmStats::default(),
            accounted: Cycle::ZERO,
            last_issue_cycle: Cycle::ZERO,
            cfg,
        }
    }

    /// This SM's id.
    pub fn id(&self) -> SmId {
        self.cfg.id
    }

    /// The address space this SM is bound to.
    pub fn asid(&self) -> Asid {
        self.cfg.asid
    }

    /// Cycle of the most recent user-instruction issue (zero if nothing
    /// issued yet).
    pub fn last_issue_cycle(&self) -> Cycle {
        self.last_issue_cycle
    }

    /// Scheduler/issue statistics.
    pub fn stats(&self) -> SmStats {
        self.stats
    }

    /// L1 TLB statistics.
    pub fn l1_tlb_stats(&self) -> TlbStats {
        self.l1_tlb.stats()
    }

    /// L1 data cache statistics.
    pub fn l1d_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// Whether every warp has retired and all in-flight work has drained.
    pub fn is_done(&self) -> bool {
        self.finished_count == self.warps.len()
            && self.tlb_lookup_q.is_empty()
            && self.tlb_retry_q.is_empty()
            && self.data_issue_q.is_empty()
            && self.data_retry_q.is_empty()
            && self.data_in_flight == 0
    }

    /// Advances the SM one cycle. `issue_slot_free == false` means a PW
    /// Warp (highest priority) consumed this cycle's issue slot.
    pub fn tick(
        &mut self,
        now: Cycle,
        source: &mut dyn InstrSource,
        ids: &mut IdGen,
        issue_slot_free: bool,
    ) {
        self.catch_up(now);
        self.accounted = now + 1;
        self.wake_compute_warps(now);
        self.pump_tlb_lookups(now);
        self.pump_l1d(now, ids);
        self.issue(now, source, issue_slot_free);
        // Export L1D fills that became ready this cycle.
        while let Some(fill) = self.l1d.pop_fill_request(now) {
            self.mem_out.push_back(fill);
        }
    }

    fn wake_compute_warps(&mut self, now: Cycle) {
        while let Some(idx) = self.compute_wake_q.pop_ready(now) {
            debug_assert!(matches!(self.warps[idx].state, WarpState::Compute(_)));
            self.warps[idx].state = WarpState::Ready;
            self.compute_count -= 1;
            self.ready_count += 1;
        }
    }

    fn pump_tlb_lookups(&mut self, now: Cycle) {
        // Budgeted retries first (they have been waiting longest), then
        // new lookups. A retry that fails again re-queues behind the `n`
        // taken from the front, so it is not retried twice this cycle.
        let n = self.tlb_retry_budget.min(self.tlb_retry_q.len());
        self.tlb_retry_budget -= n;
        for _ in 0..n {
            let lk = self.tlb_retry_q.pop_front().expect("n <= len");
            self.process_lookup(now, lk);
        }
        while let Some(lk) = self.tlb_lookup_q.pop_ready(now) {
            self.process_lookup(now, lk);
        }
    }

    /// The sectors of `warp`'s page group that starts at index `first`.
    fn group(&self, warp: WarpId, first: u8) -> &[VirtAddr] {
        let sectors = &self.warps[warp.index()].sectors[usize::from(first)..];
        page_run(sectors, self.cfg.page_size)
    }

    /// The page of `warp`'s page group that starts at index `first`.
    fn group_vpn(&self, warp: WarpId, first: u8) -> Vpn {
        let va = self.warps[warp.index()].sectors[usize::from(first)];
        self.cfg.page_size.vpn_of(va)
    }

    fn process_lookup(&mut self, now: Cycle, lk: TlbLookup) {
        let TlbLookup { warp, first, .. } = lk;
        let vpn = self.group_vpn(warp, first);
        if let Some(pfn) = self.l1_tlb.lookup(self.cfg.asid, vpn) {
            if lk.retried {
                // The hit consumed no MSHR capacity: refund the token.
                self.tlb_retry_budget += 1;
            }
            self.complete_translation(now, warp, first, pfn);
            return;
        }
        match self
            .l1_mshr
            .allocate(self.cfg.asid, vpn, L1Waiter { warp, first })
        {
            MshrOutcome::Allocated => self.l2_tlb_out.push_back((vpn, warp)),
            MshrOutcome::Merged => {}
            MshrOutcome::Full(_) => {
                self.stats.l1_mshr_failures += 1;
                self.tlb_retry_q.push_back(TlbLookup {
                    retried: true,
                    ..lk
                });
            }
        }
    }

    fn complete_translation(&mut self, now: Cycle, warp: WarpId, first: u8, pfn: Pfn) {
        let page = self.cfg.page_size;
        let w = &mut self.warps[warp.index()];
        w.pending_xlat -= 1;
        let group = page_run(&w.sectors[usize::from(first)..], page);
        for (i, &va) in group.iter().enumerate() {
            let pa = page.translate(va, pfn);
            // One data access issues per cycle (LSU port serialization).
            self.data_issue_q.push(
                now + 1 + i as u64,
                DataAccess {
                    warp,
                    pa,
                    retried: false,
                },
            );
        }
    }

    fn pump_l1d(&mut self, now: Cycle, ids: &mut IdGen) {
        // Complete data accesses.
        while let Some(resp) = self.l1d.pop_response(now) {
            debug_assert_eq!(resp.route.issuer, Issuer::SmData);
            self.data_in_flight -= 1;
            let warp = WarpId::new(resp.route.slot);
            let w = &mut self.warps[warp.index()];
            w.pending_data -= 1;
            self.maybe_unblock(warp);
        }
        // Issue new / retried accesses. Retries are budgeted by completed
        // fills (each frees an L1D MSHR), keeping saturated cycles O(1);
        // a retry rejected again re-queues behind the `n` taken.
        let n = self.data_retry_budget.min(self.data_retry_q.len());
        self.data_retry_budget -= n;
        for _ in 0..n {
            let da = self.data_retry_q.pop_front().expect("n <= len");
            self.issue_data_access(now, ids, da);
        }
        while let Some(da) = self.data_issue_q.pop_ready(now) {
            self.issue_data_access(now, ids, da);
        }
    }

    fn issue_data_access(&mut self, now: Cycle, ids: &mut IdGen, da: DataAccess) {
        let route = Route::new(Issuer::SmData, self.cfg.id.value(), da.warp.value());
        let req = MemReq::new(ids.next_mem(), da.pa, AccessKind::Data).with_route(route);
        match self.l1d.access(now, req) {
            AccessOutcome::MshrFull => self.data_retry_q.push_back(DataAccess {
                retried: true,
                ..da
            }),
            outcome => {
                if da.retried && outcome == AccessOutcome::Hit {
                    // Hit consumed no MSHR: refund the retry token.
                    self.data_retry_budget += 1;
                }
                self.data_in_flight += 1;
            }
        }
    }

    fn maybe_unblock(&mut self, warp: WarpId) {
        let w = &mut self.warps[warp.index()];
        if w.state == WarpState::Mem && w.pending_xlat == 0 && w.pending_data == 0 {
            w.state = WarpState::Ready;
            self.mem_count -= 1;
            self.ready_count += 1;
        }
    }

    fn issue(&mut self, now: Cycle, source: &mut dyn InstrSource, issue_slot_free: bool) {
        if !issue_slot_free {
            self.stats.pw_issue_cycles += 1;
            return;
        }
        let n = self.warps.len();
        if self.ready_count > 0 {
            for step in 0..n {
                let idx = (self.sched_ptr + step) % n;
                if self.warps[idx].state != WarpState::Ready {
                    continue;
                }
                match source.next_instr(self.cfg.id, WarpId::new(idx as u16)) {
                    None => {
                        self.warps[idx].state = WarpState::Finished;
                        self.ready_count -= 1;
                        self.finished_count += 1;
                        continue;
                    }
                    Some(WarpInstr::Compute { cycles }) => {
                        let until = now + u64::from(cycles.max(1));
                        self.warps[idx].state = WarpState::Compute(until);
                        self.compute_wake_q.push(until, idx);
                        self.ready_count -= 1;
                        self.compute_count += 1;
                        self.stats.issued_cycles += 1;
                        self.stats.instructions += 1;
                        self.last_issue_cycle = now;
                        self.sched_ptr = (idx + 1) % n;
                        return;
                    }
                    Some(WarpInstr::Load { addrs }) => {
                        assert!(!addrs.is_empty(), "load instruction with no lanes");
                        assert!(
                            addrs.len() <= LANES_PER_WARP,
                            "load instruction with {} lanes, more than {LANES_PER_WARP}",
                            addrs.len()
                        );
                        let w = &mut self.warps[idx];
                        coalesce_sectors(&addrs, self.cfg.l1d.sector_bytes, &mut w.sectors);
                        w.state = WarpState::Mem;
                        w.pending_data = w.sectors.len();
                        self.ready_count -= 1;
                        self.mem_count += 1;
                        w.pending_xlat = 0;
                        for (first, _) in page_groups(&w.sectors, self.cfg.page_size) {
                            // One TLB port: lookups for divergent pages
                            // serialize.
                            self.tlb_lookup_q.push(
                                now + self.cfg.l1_tlb_latency + w.pending_xlat as u64,
                                TlbLookup {
                                    warp: WarpId::new(idx as u16),
                                    first: first as u8,
                                    retried: false,
                                },
                            );
                            w.pending_xlat += 1;
                        }
                        self.stats.issued_cycles += 1;
                        self.stats.instructions += 1;
                        self.stats.loads += 1;
                        self.last_issue_cycle = now;
                        self.sched_ptr = (idx + 1) % n;
                        return;
                    }
                }
            }
        }
        // No instruction issued: classify the stall in O(1).
        self.charge_stall(1);
    }

    /// Charges `n` cycles in which no warp issued to the class the warp
    /// census picks: memory stall, else scoreboard stall, else idle.
    fn charge_stall(&mut self, n: u64) {
        if self.mem_count > 0 {
            self.stats.mem_stall_cycles += n;
        } else if self.compute_count > 0 {
            self.stats.scoreboard_stall_cycles += n;
        } else {
            self.stats.idle_cycles += n;
        }
    }

    /// Next L1-TLB-missed VPN destined for the shared L2 TLB (with the
    /// warp whose lookup allocated the miss — the owner hint consumed by
    /// warp-aware PWB scheduling). Each popped entry represents exactly
    /// one in-flight L1 MSHR entry.
    pub fn pop_l2_tlb_request(&mut self) -> Option<(Vpn, WarpId)> {
        self.l2_tlb_out.pop_front()
    }

    /// Next L1D fill request destined for the shared L2 data cache.
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.mem_out.pop_front()
    }

    /// Delivers a translation from the shared L2 TLB / page walk system.
    /// `pfn == None` is a fault: the waiting lane accesses are dropped and
    /// counted in [`SmStats::xlat_faults`].
    pub fn on_translation(&mut self, now: Cycle, vpn: Vpn, pfn: Option<Pfn>) {
        self.catch_up(now);
        self.tlb_retry_budget = self.tlb_retry_budget.saturating_add(2);
        let mut waiters = std::mem::take(&mut self.l1_released);
        waiters.extend(self.l1_mshr.resolve(self.cfg.asid, vpn));
        match pfn {
            Some(pfn) => {
                self.l1_tlb.fill(self.cfg.asid, vpn, pfn);
                for wtr in waiters.drain(..) {
                    debug_assert_eq!(self.group_vpn(wtr.warp, wtr.first), vpn);
                    self.complete_translation(now, wtr.warp, wtr.first, pfn);
                }
            }
            None => {
                for wtr in waiters.drain(..) {
                    self.stats.xlat_faults += 1;
                    let dropped = self.group(wtr.warp, wtr.first).len();
                    let w = &mut self.warps[wtr.warp.index()];
                    w.pending_xlat -= 1;
                    w.pending_data -= dropped;
                    self.maybe_unblock(wtr.warp);
                }
            }
        }
        self.l1_released = waiters;
    }

    /// Single-page TLB shootdown from the memory manager: drops the L1
    /// TLB's cached translation for an evicted page. In-flight L1-MSHR
    /// misses are untouched — their walk completes against the updated
    /// page table.
    pub fn invalidate_translation(&mut self, vpn: Vpn) -> usize {
        self.l1_tlb.invalidate(self.cfg.asid, vpn)
    }

    /// Whether the L1 TLB holds a valid translation for `vpn` — exactly
    /// when [`Sm::invalidate_translation`] would drop one. A probe: no
    /// LRU state or counter moves.
    pub fn holds_translation(&self, vpn: Vpn) -> bool {
        self.l1_tlb.probe(self.cfg.asid, vpn).is_some()
    }

    /// Delivers a completed L2D fill for an L1D miss this SM issued.
    pub fn on_mem_response(&mut self, now: Cycle, req: MemReq) {
        self.catch_up(now);
        self.l1d.complete_fill(now, req);
        self.data_retry_budget = self.data_retry_budget.saturating_add(2);
    }

    /// Whether the SM currently cannot issue any user instruction (all
    /// live warps blocked) — the stall hint consumed by the stall-aware
    /// Request Distributor policy.
    pub fn is_stalled(&self) -> bool {
        self.ready_count == 0 && self.finished_count < self.warps.len()
    }

    /// Charges cycle `now`, whose issue port a PW Warp took, on an SM
    /// with nothing due at `now` — what `tick(now, .., false)` would do
    /// there, without running the pipeline stages: each would find its
    /// queue empty or not yet ready, and the PW Warp's claim leaves the
    /// user warps unissued.
    pub fn charge_pw_issue(&mut self, now: Cycle) {
        debug_assert!(
            swgpu_types::Component::next_event(self).is_none_or(|e| e > now),
            "SM {} charged a PW-issue cycle with work due at {now:?}",
            self.cfg.id
        );
        self.catch_up(now);
        self.accounted = now + 1;
        self.stats.pw_issue_cycles += 1;
    }

    /// Charges every cycle before `now` that was not ticked. An untouched
    /// cycle provably issued nothing (`ready_count == 0`, else the SM would
    /// have been due) and left the warp census frozen (it changes only in
    /// a tick or a delivery, both of which catch up first), so a tick in
    /// each of them would have charged exactly the class
    /// `charge_stall` picks now — including `idle_cycles` on a
    /// fully retired SM. Idempotent; the simulator also calls it once at
    /// the end of a run so the totals cover every simulated cycle.
    pub fn catch_up(&mut self, now: Cycle) {
        let n = now.since(self.accounted);
        if n == 0 {
            return;
        }
        debug_assert_eq!(self.ready_count, 0, "skipped over an issueable SM");
        self.charge_stall(n);
        self.accounted = now;
    }
}

impl swgpu_types::Component for Sm {
    /// Immediate work — an issueable warp, a budgeted retry, or an
    /// un-drained outbound request — demands the very next cycle (a ready
    /// warp also covers retirement scans: warps retire on their first
    /// issue attempt). Otherwise the SM sleeps until its earliest timed
    /// wake: a compute completion, a serialized TLB lookup or LSU data
    /// access becoming ready, or L1D hit/fill timing. Warps parked on the
    /// L2 TLB or L2D (`l1_mshr` / `data_in_flight`) are revived by those
    /// components' events.
    fn next_event(&self) -> Option<Cycle> {
        if self.ready_count > 0
            || (!self.tlb_retry_q.is_empty() && self.tlb_retry_budget > 0)
            || (!self.data_retry_q.is_empty() && self.data_retry_budget > 0)
            || !self.l2_tlb_out.is_empty()
            || !self.mem_out.is_empty()
        {
            return Some(Cycle::ZERO);
        }
        let mut next: Option<Cycle> = None;
        for cand in [
            self.compute_wake_q.next_ready(),
            self.tlb_lookup_q.next_ready(),
            self.data_issue_q.next_ready(),
            swgpu_types::Component::next_event(&self.l1d),
        ] {
            next = match (next, cand) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            };
        }
        next
    }

    fn is_idle(&self) -> bool {
        self.is_done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::SliceSource;

    fn small_sm() -> Sm {
        let mut cfg = SmConfig::new(SmId::new(0));
        cfg.max_warps = 2;
        Sm::new(cfg)
    }

    /// Runs the SM standalone, answering every outbound request after a
    /// fixed latency with an identity-ish translation (pfn = vpn + 1000)
    /// and instant memory.
    fn run_standalone(sm: &mut Sm, src: &mut SliceSource, max_cycles: u64) -> u64 {
        run_answering(sm, src, max_cycles, None).0
    }

    /// The translation [`run_standalone`] answers for `vpn`.
    fn standalone_pfn(vpn: Vpn) -> Pfn {
        Pfn::new(vpn.value() + 1000)
    }

    /// [`run_standalone`], answering the translation of `fault` with a
    /// fault. Returns the cycle the SM finished in and the address of
    /// every L1D fill it sent, in order.
    fn run_answering(
        sm: &mut Sm,
        src: &mut SliceSource,
        max_cycles: u64,
        fault: Option<Vpn>,
    ) -> (u64, Vec<swgpu_types::PhysAddr>) {
        let mut ids = IdGen::new();
        let mut xlat_q: DelayQueue<Vpn> = DelayQueue::new();
        let mut mem_q: DelayQueue<MemReq> = DelayQueue::new();
        let mut fills = Vec::new();
        for c in 0..max_cycles {
            let now = Cycle::new(c);
            sm.tick(now, src, &mut ids, true);
            while let Some((vpn, _warp)) = sm.pop_l2_tlb_request() {
                xlat_q.push(now + 80, vpn);
            }
            while let Some(req) = sm.pop_mem_request() {
                fills.push(req.addr);
                mem_q.push(now + 100, req);
            }
            while let Some(vpn) = xlat_q.pop_ready(now) {
                let pfn = (Some(vpn) != fault).then(|| standalone_pfn(vpn));
                sm.on_translation(now, vpn, pfn);
            }
            while let Some(req) = mem_q.pop_ready(now) {
                sm.on_mem_response(now, req);
            }
            if sm.is_done() {
                return (c, fills);
            }
        }
        panic!("SM did not finish in {max_cycles} cycles");
    }

    /// Two warps behind a one-entry L1 TLB MSHR file.
    fn one_mshr_sm() -> Sm {
        let mut cfg = SmConfig::new(SmId::new(0));
        cfg.max_warps = 2;
        cfg.l1_mshr.entries = 1;
        Sm::new(cfg)
    }

    /// The sector fills `lanes` need once translated by `run_standalone`,
    /// in ascending order.
    fn fills_for(lanes: &[VirtAddr]) -> Vec<swgpu_types::PhysAddr> {
        let page = PageSize::Size64K;
        let mut fills: Vec<_> = lanes
            .iter()
            .map(|&va| page.translate(va.align_down(32), standalone_pfn(page.vpn_of(va))))
            .collect();
        fills.sort_unstable();
        fills.dedup();
        fills
    }

    #[test]
    fn refused_and_merged_lookups_resolve_to_their_own_sectors() {
        // Two warps gather from the same 32 pages, a line apart: behind
        // one MSHR entry, most lookups are refused and retried, and the
        // second warp's lookups merge onto the first warp's misses.
        let mut sm = one_mshr_sm();
        let mut src = SliceSource::new();
        let lanes = |w: u64| -> Vec<VirtAddr> {
            (0..32u64)
                .map(|i| VirtAddr::new(i * 0x1_0000 + w * 0x80))
                .collect()
        };
        for w in 0..2u16 {
            let addrs = lanes(u64::from(w));
            src.assign(
                SmId::new(0),
                WarpId::new(w),
                vec![WarpInstr::Load { addrs }],
            );
        }
        let (_, mut fills) = run_answering(&mut sm, &mut src, 20_000, None);
        assert!(sm.stats().l1_mshr_failures > 0, "lookups were refused");
        fills.sort_unstable();
        let all: Vec<_> = (0..2).flat_map(lanes).collect();
        assert_eq!(fills, fills_for(&all), "each lane read its own page");
        assert_eq!(sm.l1d_stats().misses, 64);
    }

    #[test]
    fn a_faulted_group_releases_each_of_its_sectors() {
        // Pages 1, 2 and 3 hold 2, 3 and 1 sectors of the load; page 2,
        // the middle group, faults.
        let mut sm = one_mshr_sm();
        let mut src = SliceSource::new();
        let on = |page: u64, sectors: u64| (0..sectors).map(move |s| page * 0x1_0000 + s * 32);
        let addrs: Vec<_> = on(1, 2)
            .chain(on(2, 3))
            .chain(on(3, 1))
            .map(VirtAddr::new)
            .collect();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![
                WarpInstr::Load {
                    addrs: addrs.clone(),
                },
                WarpInstr::Compute { cycles: 1 },
            ],
        );
        let (_, mut fills) = run_answering(&mut sm, &mut src, 5_000, Some(Vpn::new(2)));
        fills.sort_unstable();
        let s = sm.stats();
        assert_eq!(s.xlat_faults, 1);
        assert_eq!(s.instructions, 2, "the warp went on past its load");
        let kept: Vec<_> = addrs
            .into_iter()
            .filter(|&va| PageSize::Size64K.vpn_of(va) != Vpn::new(2))
            .collect();
        assert_eq!(fills, fills_for(&kept), "only pages 1 and 3 were read");
    }

    #[test]
    #[should_panic(expected = "load instruction with 33 lanes")]
    fn a_load_wider_than_a_warp_is_refused() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        let addrs = (0..33u64).map(|i| VirtAddr::new(i * 4)).collect();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![WarpInstr::Load { addrs }],
        );
        sm.tick(Cycle::ZERO, &mut src, &mut IdGen::new(), true);
    }

    #[test]
    fn compute_only_warp_finishes() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![
                WarpInstr::Compute { cycles: 5 },
                WarpInstr::Compute { cycles: 5 },
            ],
        );
        let cycles = run_standalone(&mut sm, &mut src, 1000);
        assert!(cycles >= 10, "two dependent 5-cycle instructions");
        assert_eq!(sm.stats().instructions, 2);
        assert_eq!(sm.stats().loads, 0);
    }

    #[test]
    fn load_round_trips_through_tlb_and_cache() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![WarpInstr::coalesced_load(VirtAddr::new(0x2_0000))],
        );
        run_standalone(&mut sm, &mut src, 5000);
        let tlb = sm.l1_tlb_stats();
        assert_eq!(tlb.misses, 1, "cold TLB miss");
        // 32 lanes x 4B span one 128B line = four 32B sectors, each a
        // distinct sector miss in the cold L1D.
        assert_eq!(sm.l1d_stats().misses, 4);
    }

    #[test]
    fn second_load_hits_l1_tlb() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![
                WarpInstr::coalesced_load(VirtAddr::new(0x2_0000)),
                WarpInstr::coalesced_load(VirtAddr::new(0x2_0100)),
            ],
        );
        run_standalone(&mut sm, &mut src, 5000);
        let tlb = sm.l1_tlb_stats();
        assert_eq!(tlb.misses, 1);
        assert_eq!(tlb.hits, 1);
    }

    #[test]
    fn divergent_load_generates_many_l2_requests() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        let addrs: Vec<_> = (0..32u64).map(|i| VirtAddr::new(i * 0x1_0000)).collect();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![WarpInstr::Load { addrs }],
        );
        run_standalone(&mut sm, &mut src, 10_000);
        assert_eq!(sm.l1_tlb_stats().misses, 32);
    }

    #[test]
    fn stall_classification_counts_memory_waits() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![WarpInstr::coalesced_load(VirtAddr::new(0))],
        );
        run_standalone(&mut sm, &mut src, 5000);
        let s = sm.stats();
        assert!(s.mem_stall_cycles > 0, "waited on the load");
        assert!(s.issued_cycles >= 1);
    }

    #[test]
    fn pw_warp_slot_preempts_user_issue() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![WarpInstr::Compute { cycles: 1 }],
        );
        let mut ids = IdGen::new();
        sm.tick(Cycle::ZERO, &mut src, &mut ids, false);
        assert_eq!(sm.stats().pw_issue_cycles, 1);
        assert_eq!(sm.stats().instructions, 0, "user warp was preempted");
        sm.tick(Cycle::new(1), &mut src, &mut ids, true);
        assert_eq!(sm.stats().instructions, 1);
    }

    #[test]
    fn translation_fault_drops_accesses_but_unblocks() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![
                WarpInstr::Load {
                    addrs: vec![VirtAddr::new(0x9_0000)],
                },
                WarpInstr::Compute { cycles: 1 },
            ],
        );
        let mut ids = IdGen::new();
        let mut done = false;
        for c in 0..200u64 {
            let now = Cycle::new(c);
            sm.tick(now, &mut src, &mut ids, true);
            while let Some((vpn, _warp)) = sm.pop_l2_tlb_request() {
                sm.on_translation(now, vpn, None); // fault
            }
            if sm.is_done() {
                done = true;
                break;
            }
        }
        assert!(done, "faulting warp must not deadlock");
        assert_eq!(sm.stats().xlat_faults, 1);
        assert_eq!(sm.stats().instructions, 2, "warp continued after fault");
    }

    #[test]
    fn two_warps_interleave() {
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        for w in 0..2u16 {
            src.assign(
                SmId::new(0),
                WarpId::new(w),
                vec![WarpInstr::Compute { cycles: 50 }; 2],
            );
        }
        let cycles = run_standalone(&mut sm, &mut src, 1000);
        // With interleaving, 2 warps x 2 x 50-cycle instructions overlap:
        // well under the serial 200 cycles.
        assert!(cycles < 150, "took {cycles}");
    }

    /// Drives one SM through a fixed script of translation and memory
    /// deliveries for `cycles` cycles. Dense mode ticks every cycle; lazy
    /// mode ticks only when the SM is due (its `next_event` has come, or
    /// a delivery landed), charges a PW-issue cycle of a not-due SM with
    /// `charge_pw_issue`, and the rest with `catch_up` — the event
    /// kernel's contract. Returns the stats and how many PW-issue cycles
    /// took the `charge_pw_issue` path.
    fn drive_scripted(lazy: bool, cycles: u64) -> (SmStats, usize) {
        use swgpu_types::Component;
        // Cycle 1 falls while warps are issuable (a full tick); the others
        // fall in stretches where the SM waits on memory or sits retired.
        const PW_ISSUE_CYCLES: [u64; 5] = [1, 50, 51, 250, 580];
        let fault_vpn = PageSize::Size64K.vpn_of(VirtAddr::new(0x9_0000));
        let mut sm = small_sm();
        let mut src = SliceSource::new();
        src.assign(
            SmId::new(0),
            WarpId::new(0),
            vec![
                WarpInstr::coalesced_load(VirtAddr::new(0x2_0000)),
                WarpInstr::Compute { cycles: 3 },
            ],
        );
        src.assign(
            SmId::new(0),
            WarpId::new(1),
            vec![
                WarpInstr::Load {
                    addrs: vec![VirtAddr::new(0x9_0000)],
                },
                WarpInstr::Compute { cycles: 1 },
            ],
        );
        let mut ids = IdGen::new();
        let mut xlat_q: DelayQueue<Vpn> = DelayQueue::new();
        let mut mem_q: DelayQueue<MemReq> = DelayQueue::new();
        let mut wake = 0u64;
        let mut charged = 0;
        for c in 0..cycles {
            let now = Cycle::new(c);
            // Deliveries first, as in the simulator's step. The faulting
            // page answers late, after warp 0 has retired, so the SM sits
            // in a memory-stall gap with nothing due; the fault unblocks
            // warp 1 mid-gap, and the gap must be charged as memory stall
            // (the census before the delivery), not idle.
            while let Some(vpn) = xlat_q.pop_ready(now) {
                let pfn = (vpn != fault_vpn).then(|| Pfn::new(vpn.value() + 1000));
                sm.on_translation(now, vpn, pfn);
                wake = 0;
            }
            while let Some(req) = mem_q.pop_ready(now) {
                sm.on_mem_response(now, req);
                wake = 0;
            }
            let pw_issue = PW_ISSUE_CYCLES.contains(&c);
            if lazy && wake > c {
                assert!(sm.next_event().is_none_or(|e| e.value() > c));
                if pw_issue {
                    sm.charge_pw_issue(now);
                    charged += 1;
                }
                continue;
            }
            sm.tick(now, &mut src, &mut ids, !pw_issue);
            while let Some((vpn, _warp)) = sm.pop_l2_tlb_request() {
                let latency = if vpn == fault_vpn { 300 } else { 80 };
                xlat_q.push(now + latency, vpn);
            }
            while let Some(req) = sm.pop_mem_request() {
                mem_q.push(now + 100, req);
            }
            wake = sm.next_event().map_or(u64::MAX, Cycle::value);
        }
        assert!(sm.is_done(), "script must drain within {cycles} cycles");
        sm.catch_up(Cycle::new(cycles));
        (sm.stats(), charged)
    }

    #[test]
    fn lazy_stall_accounting_matches_per_cycle_ticking() {
        let (dense, _) = drive_scripted(false, 600);
        let (lazy, charged) = drive_scripted(true, 600);
        assert_eq!(lazy, dense);
        assert_eq!(charged, 4, "PW-issue cycles charged without a tick");
        assert_eq!(dense.total_cycles(), 600);
        assert_eq!(dense.pw_issue_cycles, 5);
        assert_eq!(dense.xlat_faults, 1);
        assert_eq!(dense.instructions, 4);
        assert!(dense.mem_stall_cycles > 0 && dense.idle_cycles > 0);
    }

    #[test]
    fn is_done_initially_false_until_retired() {
        let mut sm = small_sm();
        assert!(!sm.is_done(), "warps not yet retired");
        let mut src = SliceSource::new(); // empty: warps retire on first issue
        let mut ids = IdGen::new();
        sm.tick(Cycle::ZERO, &mut src, &mut ids, true);
        assert!(sm.is_done());
        assert_eq!(sm.stats().idle_cycles, 1);
    }
}
