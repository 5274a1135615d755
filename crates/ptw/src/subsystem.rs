//! The PWB + PTW pool state machine.

use crate::request::{TableRef, WalkCompletion, WalkContext, WalkRequest, WalkResult};
use std::collections::VecDeque;
use swgpu_mem::{AccessKind, Issuer, MemReq, Route};
use swgpu_pt::{PteReader, RadixCursor, Recovery, RecoveryLedger, Step, WalkCursor};
use swgpu_types::fault::site;
use swgpu_types::{
    ensure, ConfigError, Cycle, DelayQueue, FastMap, FaultInjectionStats, FaultInjector, FaultPlan,
    IdGen, Pte, PteReadEvent,
};

/// How pending walks are picked from the PWB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PwbPolicy {
    /// First-come first-served (the conventional baseline).
    Fifo,
    /// The page-walk-scheduling baseline of Shin et al. \[85\] (Table 1):
    /// prefer the pending walk whose originating warp has the *fewest*
    /// walks still outstanding in the subsystem. Finishing nearly-done
    /// warps first shrinks the gap between a warp's first and last
    /// completed walk, releasing stalled warps sooner. Requests without
    /// an owner fall back to FIFO order.
    WarpShortestFirst,
}

/// How a walker's per-level reads are timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkTiming {
    /// Each level is a real memory read through the L2D/DRAM hierarchy
    /// (the paper's default: latency is "dynamically measured by the
    /// memory system model").
    Memory,
    /// Each level costs a fixed number of cycles — the knob behind the
    /// Figure 23 sensitivity study (50–400 cycles per level).
    FixedPerLevel(u64),
}

/// Configuration of the hardware walk subsystem.
#[derive(Debug, Clone)]
pub struct PtwConfig {
    /// Concurrent walks the pool supports (32 in the baseline; use
    /// [`usize::MAX`] for the ideal configuration).
    pub walkers: usize,
    /// Page Walk Buffer capacity. The paper scales this alongside the
    /// walker count; the baseline matches the 128 L2 TLB MSHRs.
    pub pwb_entries: usize,
    /// Walks that can be dequeued from the PWB per cycle (PWB ports,
    /// the x-axis annotation of Figure 15).
    pub pwb_ports: usize,
    /// Enable Neighborhood-Aware coalescing \[86\]: requests whose leaf
    /// PTEs share one page-table sector ride a single walk.
    pub nha: bool,
    /// Sector granularity for NHA merging (32 B = 4 PTEs, matching the
    /// paper's "32B sector" evaluation of NHA).
    pub sector_bytes: u64,
    /// Per-level timing model.
    pub timing: WalkTiming,
    /// PWB dequeue policy.
    pub pwb_policy: PwbPolicy,
}

impl Default for PtwConfig {
    fn default() -> Self {
        Self {
            walkers: 32,
            pwb_entries: 128,
            pwb_ports: 1,
            nha: false,
            sector_bytes: 32,
            timing: WalkTiming::Memory,
            pwb_policy: PwbPolicy::Fifo,
        }
    }
}

impl PtwConfig {
    /// The unbounded "ideal PTWs" configuration of Figures 5/16.
    pub fn ideal() -> Self {
        Self {
            walkers: usize::MAX,
            pwb_entries: usize::MAX,
            pwb_ports: usize::MAX,
            ..Self::default()
        }
    }

    /// Checks the configuration [`PtwSubsystem::new`] relies on.
    ///
    /// # Errors
    ///
    /// Rejects zero walkers, PWB entries or ports, or a sector size that
    /// is not a power of two holding at least one PTE.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure!(self.walkers > 0, "need at least one walker");
        ensure!(self.pwb_entries > 0, "PWB needs at least one entry");
        ensure!(self.pwb_ports > 0, "PWB needs at least one port");
        ensure!(
            self.sector_bytes.is_power_of_two() && self.sector_bytes >= Pte::SIZE_BYTES,
            "sector must be a power of two holding at least one PTE"
        );
        Ok(())
    }
}

/// Cumulative walk statistics — the raw material for Figures 7 and 18.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkStats {
    /// Walks completed (one per walker occupancy).
    pub walks_completed: u64,
    /// Translations delivered (> walks when NHA coalesces).
    pub translations_completed: u64,
    /// Translations that faulted (invalid PTE).
    pub faults: u64,
    /// Σ (walk start − request issue) over all translations: queueing.
    pub total_queue_cycles: u64,
    /// Σ (walk completion − walk start) over all translations: page table
    /// access latency.
    pub total_access_cycles: u64,
    /// Requests rejected because the PWB was full.
    pub pwb_rejections: u64,
    /// Requests absorbed into an existing walk by NHA.
    pub nha_merges: u64,
    /// Memory reads issued on behalf of walks.
    pub memory_reads: u64,
    /// High-water mark of concurrently active walks.
    pub max_active: u64,
}

impl WalkStats {
    /// Mean queueing delay per translation.
    pub fn avg_queue_delay(&self) -> f64 {
        if self.translations_completed == 0 {
            0.0
        } else {
            self.total_queue_cycles as f64 / self.translations_completed as f64
        }
    }

    /// Mean page-table access latency per translation.
    pub fn avg_access_latency(&self) -> f64 {
        if self.translations_completed == 0 {
            0.0
        } else {
            self.total_access_cycles as f64 / self.translations_completed as f64
        }
    }
}

#[derive(Debug)]
struct PendingWalk {
    reqs: Vec<WalkRequest>,
}

#[derive(Debug)]
struct ActiveWalk {
    reqs: Vec<WalkRequest>,
    started_at: Cycle,
    cursor: WalkCursor,
}

/// The hardware page-walk subsystem: a PWB feeding a pool of walkers.
///
/// Driven by the owner once per cycle:
///
/// 1. [`PtwSubsystem::enqueue`] new walk requests (checking for rejection).
/// 2. [`PtwSubsystem::tick`] to start walks on idle walkers.
/// 3. [`PtwSubsystem::pop_mem_request`] → route to the L2D cache.
/// 4. On each memory completion, [`PtwSubsystem::on_mem_response`].
/// 5. [`PtwSubsystem::pop_completion`] → resolve L2 TLB MSHRs.
#[derive(Debug)]
pub struct PtwSubsystem {
    cfg: PtwConfig,
    pwb: VecDeque<PendingWalk>,
    // Outstanding walks per originating warp (pending + active), for the
    // warp-aware scheduling policy.
    owner_counts: FastMap<(swgpu_types::SmId, swgpu_types::WarpId), usize>,
    /// Walks in flight by walker slot; the slot is the `slot` of their
    /// memory reads' routes. Every slot not in `free_slots` runs a walk.
    slots: Vec<Option<ActiveWalk>>,
    free_slots: Vec<usize>,
    mem_out: VecDeque<MemReq>,
    fixed_wake: DelayQueue<usize>,
    completions: VecDeque<WalkCompletion>,
    stats: WalkStats,
    reader: PteReader,
    ledger: RecoveryLedger,
    // Emptied request and result buffers of finished walks, reused so a
    // walk allocates nothing once the pools have warmed up.
    spare_reqs: Vec<Vec<WalkRequest>>,
    spare_results: Vec<Vec<WalkResult>>,
}

impl PtwSubsystem {
    /// Builds the subsystem.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration (zero walkers/entries/ports).
    pub fn new(cfg: PtwConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            cfg,
            pwb: VecDeque::new(),
            owner_counts: FastMap::default(),
            slots: Vec::new(),
            free_slots: Vec::new(),
            mem_out: VecDeque::new(),
            fixed_wake: DelayQueue::new(),
            completions: VecDeque::new(),
            stats: WalkStats::default(),
            reader: PteReader::default(),
            ledger: RecoveryLedger::default(),
            spare_reqs: Vec::new(),
            spare_results: Vec::new(),
        }
    }

    /// Arms or disarms per-level PTE-read observation. Observation is
    /// pure bookkeeping: it never changes walk timing or results.
    pub fn set_observed(&mut self, on: bool) {
        self.reader.set_observed(on);
    }

    /// Drains the buffered [`PteReadEvent`]s (empty unless observed).
    pub fn drain_obs_events(&mut self) -> Vec<PteReadEvent> {
        self.reader.drain_events()
    }

    /// Arms fault injection + recovery per `plan`. A disabled plan (all
    /// rates zero) leaves the subsystem in its inert baseline state.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan) {
        if plan.enabled() {
            self.reader
                .inject(FaultInjector::new(plan.seed, site::PTW_PTE), plan);
            self.ledger.arm(plan);
        }
    }

    /// Counters for faults injected at / recovered by this subsystem.
    pub fn fault_stats(&self) -> FaultInjectionStats {
        let mut s = self.ledger.stats();
        s.merge(&self.reader.stats());
        s
    }

    /// The subsystem's configuration.
    pub fn config(&self) -> &PtwConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> WalkStats {
        self.stats
    }

    /// Walks currently buffered in the PWB.
    pub fn pwb_depth(&self) -> usize {
        self.pwb.len()
    }

    /// Walks currently executing on walkers.
    pub fn active_walks(&self) -> usize {
        self.slots.len() - self.free_slots.len()
    }

    /// Walkers not currently occupied and not already spoken for by PWB
    /// backlog — the quantity the hybrid Request Distributor checks before
    /// preferring hardware.
    pub fn free_walkers(&self) -> usize {
        self.cfg
            .walkers
            .saturating_sub(self.active_walks())
            .saturating_sub(self.pwb.len())
    }

    /// Whether nothing is queued, active or awaiting drain.
    pub fn is_idle(&self) -> bool {
        self.pwb.is_empty()
            && self.active_walks() == 0
            && self.mem_out.is_empty()
            && self.completions.is_empty()
    }

    /// Presents a walk request. Returns `false` (and counts a rejection)
    /// if the PWB is full; the caller must retry later.
    ///
    /// With NHA enabled, a request whose leaf PTE shares a page-table
    /// sector with a pending or active walk is absorbed into that walk
    /// for free.
    pub fn enqueue(&mut self, req: WalkRequest) -> bool {
        if self.cfg.nha {
            let ptes_per_sector = self.cfg.sector_bytes / Pte::SIZE_BYTES;
            let group = req.vpn.value() / ptes_per_sector;
            // NHA is gated on the ASID: neighbouring VPNs of *different*
            // tenants live in different page tables, so their leaf PTEs
            // never share a sector. At most one walk per tenant and
            // leaf-PTE sector is ever pending or in flight (a second
            // request merges), so search order cannot change which walk
            // absorbs this one.
            let pending = self.pwb.iter_mut().map(|p| &mut p.reqs);
            let active = self.slots.iter_mut().flatten().map(|w| &mut w.reqs);
            if let Some(reqs) = pending.chain(active).find(|reqs| {
                reqs[0].asid == req.asid && reqs[0].vpn.value() / ptes_per_sector == group
            }) {
                reqs.push(req);
                self.stats.nha_merges += 1;
                Self::track_owner(&mut self.owner_counts, &req);
                return true;
            }
        }
        if self.pwb.len() >= self.cfg.pwb_entries {
            self.stats.pwb_rejections += 1;
            return false;
        }
        Self::track_owner(&mut self.owner_counts, &req);
        let mut reqs = self.spare_reqs.pop().unwrap_or_default();
        reqs.push(req);
        self.pwb.push_back(PendingWalk { reqs });
        true
    }

    fn track_owner(
        counts: &mut FastMap<(swgpu_types::SmId, swgpu_types::WarpId), usize>,
        req: &WalkRequest,
    ) {
        if let Some(owner) = req.owner {
            *counts.entry(owner).or_insert(0) += 1;
        }
    }

    fn release_owners(&mut self, reqs: &[WalkRequest]) {
        for r in reqs {
            if let Some(owner) = r.owner {
                if let Some(c) = self.owner_counts.get_mut(&owner) {
                    *c -= 1;
                    if *c == 0 {
                        self.owner_counts.remove(&owner);
                    }
                }
            }
        }
    }

    /// Picks the next pending walk according to the PWB policy.
    fn dequeue_pending(&mut self) -> Option<PendingWalk> {
        match self.cfg.pwb_policy {
            PwbPolicy::Fifo => self.pwb.pop_front(),
            PwbPolicy::WarpShortestFirst => {
                let pos = self
                    .pwb
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, p)| {
                        let count = p.reqs[0]
                            .owner
                            .map(|o| self.owner_counts.get(&o).copied().unwrap_or(0))
                            .unwrap_or(usize::MAX);
                        (count, *i)
                    })
                    .map(|(i, _)| i)?;
                self.pwb.remove(pos)
            }
        }
    }

    /// Advances the subsystem one cycle: fires watchdogs and pending
    /// retries, wakes fixed-latency walks and starts new walks on idle
    /// walkers (bounded by PWB ports).
    pub fn tick(&mut self, now: Cycle, ctx: &mut WalkContext<'_>, ids: &mut IdGen) {
        while let Some((slot, recovery)) = self.ledger.next_due(now) {
            match recovery {
                Recovery::RetryNow => self.issue_read(slot, now, ids),
                _ => self.fail(slot, now),
            }
        }
        while let Some(slot) = self.fixed_wake.pop_ready(now) {
            self.advance(slot, now, ctx, ids);
        }
        let mut started = 0usize;
        while started < self.cfg.pwb_ports
            && self.active_walks() < self.cfg.walkers
            && !self.pwb.is_empty()
        {
            let pending = self.dequeue_pending().expect("checked non-empty");
            self.start_walk(pending, now, ctx, ids);
            started += 1;
        }
    }

    fn start_walk(
        &mut self,
        pending: PendingWalk,
        now: Cycle,
        ctx: &mut WalkContext<'_>,
        ids: &mut IdGen,
    ) {
        let vpn = pending.reqs[0].vpn;
        let asid = pending.reqs[0].asid;
        let cursor = match ctx.table {
            // The PWC's per-ASID roots select the tenant's table on a total
            // miss; hits already carry the right node base because PWC tags
            // include the ASID.
            TableRef::Radix => WalkCursor::Radix(RadixCursor::start(ctx.pwc, asid, vpn)),
            // FS-HPT buckets hold unrelated VPNs: NHA never coalesces them.
            TableRef::Hashed(hpt) => {
                debug_assert!(!self.cfg.nha, "NHA over the hashed table");
                WalkCursor::Hashed(hpt.cursor(vpn))
            }
        };
        let slot = self.free_slots.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(ActiveWalk {
            reqs: pending.reqs,
            started_at: now,
            cursor,
        });
        self.ledger.begin(slot);
        self.stats.max_active = self.stats.max_active.max(self.active_walks() as u64);
        self.issue_read(slot, now, ids);
    }

    /// Ends the walk in `slot` with one result per VPN it served, frees
    /// the slot and releases its owners.
    fn retire(&mut self, slot: usize, now: Cycle, results: Vec<WalkResult>) {
        let mut walk = self.slots[slot].take().expect("retiring an empty slot");
        self.ledger.finish(slot);
        self.free_slots.push(slot);
        self.release_owners(&walk.reqs);
        walk.reqs.clear();
        self.spare_reqs.push(walk.reqs);
        self.stats.walks_completed += 1;
        for r in &results {
            self.stats.translations_completed += 1;
            if r.pfn.is_none() {
                self.stats.faults += 1;
            }
            self.stats.total_queue_cycles += walk.started_at.since(r.issued_at);
            self.stats.total_access_cycles += now.since(walk.started_at);
        }
        self.completions.push_back(WalkCompletion {
            results,
            started_at: walk.started_at,
            completed_at: now,
        });
    }

    /// Ends the walk in `slot` without a translation for any of its VPNs:
    /// a directory-level fault every coalesced VPN shares, or an
    /// escalation once the retry budget is spent. The owner (the full
    /// simulator) routes these fault results through the UVM driver for
    /// repair + replay.
    fn fail(&mut self, slot: usize, now: Cycle) {
        let walk = self.slots[slot].as_ref().expect("failing an empty slot");
        let mut results = self.spare_results.pop().unwrap_or_default();
        results.extend(walk.reqs.iter().map(|r| r.result(None)));
        self.retire(slot, now, results);
    }

    /// Issues the read the walk in `slot` needs next.
    fn issue_read(&mut self, slot: usize, now: Cycle, ids: &mut IdGen) {
        self.stats.memory_reads += 1;
        match self.cfg.timing {
            WalkTiming::Memory => {
                let walk = self.slots[slot]
                    .as_ref()
                    .expect("issuing for an empty slot");
                let addr = walk.cursor.entry_addr(walk.reqs[0].vpn);
                let id = ids.next_mem();
                let route_slot =
                    u16::try_from(slot).expect("at most 65536 hardware walks in flight");
                let route = Route::new(Issuer::Ptw, 0, route_slot);
                self.mem_out
                    .push_back(MemReq::new(id, addr, AccessKind::PageTable).with_route(route));
                self.ledger.issued(slot, id, now);
            }
            WalkTiming::FixedPerLevel(lat) => {
                self.fixed_wake.push(now + lat, slot);
            }
        }
    }

    /// Notifies the subsystem that a memory read it issued was dropped by
    /// fault injection (it will never get a response). Returns whether
    /// the routed walk was waiting on exactly this read. Recovery happens
    /// via the already-armed watchdog deadline.
    pub fn on_mem_dropped(&mut self, req: MemReq) -> bool {
        self.ledger.dropped(&req)
    }

    /// Next memory read destined for the L2 data cache, if any.
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.mem_out.pop_front()
    }

    /// Notifies the subsystem that a memory read it issued has completed.
    /// Returns `false`, changing nothing, unless the walk the response is
    /// routed to is waiting on exactly this read.
    pub fn on_mem_response(
        &mut self,
        resp: MemReq,
        now: Cycle,
        ctx: &mut WalkContext<'_>,
        ids: &mut IdGen,
    ) -> bool {
        match self.ledger.awaiting(&resp) {
            Some(slot) => {
                self.advance(slot, now, ctx, ids);
                true
            }
            None => false,
        }
    }

    /// A read's data is available: decode it and descend, complete or
    /// recover.
    fn advance(&mut self, slot: usize, now: Cycle, ctx: &mut WalkContext<'_>, ids: &mut IdGen) {
        self.ledger.resolved(slot);
        let walk = self.slots[slot]
            .as_mut()
            .expect("advance() on an empty slot");
        let cur = &mut walk.cursor;
        // A leaf sector holds every coalesced VPN's entry, and each is
        // decoded (corrupted or not); any other read serves the first VPN.
        let leaf = cur.reads_leaf_sector();
        let served = if leaf { walk.reqs.len() } else { 1 };
        // Only a decoded leaf takes a result buffer.
        let mut results = None;
        let mut corrupted = 0u64;
        for r in &walk.reqs[..served] {
            match cur.advance(&mut self.reader, ctx.mem, ctx.pwc, r.asid, r.vpn, now) {
                Some(Step::Leaf(pfn)) => results
                    .get_or_insert_with(|| self.spare_results.pop().unwrap_or_default())
                    .push(r.result(pfn)),
                None => corrupted += 1,
                Some(Step::Descend) => return self.issue_read(slot, now, ids),
                Some(Step::Fault(_)) => return self.fail(slot, now),
            }
        }
        match results {
            Some(results) if corrupted == 0 => self.retire(slot, now, results),
            partial => {
                self.spare_results.extend(partial.map(|mut r| {
                    r.clear();
                    r
                }));
                self.recover(slot, corrupted, now);
            }
        }
    }

    /// The walk in `slot` decoded `injected` corrupted entries: retry it
    /// after backoff, or escalate it.
    fn recover(&mut self, slot: usize, injected: u64, now: Cycle) {
        if self.ledger.corrupted(slot, injected, now) == Recovery::Escalate {
            self.fail(slot, now);
        }
    }

    /// Next finished walk, if any. Hand it back with
    /// [`PtwSubsystem::recycle`] once its results are consumed, so the
    /// next walk reuses its buffer instead of allocating one.
    pub fn pop_completion(&mut self) -> Option<WalkCompletion> {
        self.completions.pop_front()
    }

    /// Takes back a popped completion's result buffer for reuse.
    pub fn recycle(&mut self, mut done: WalkCompletion) {
        done.results.clear();
        self.spare_results.push(done.results);
    }
}

impl swgpu_types::Component for PtwSubsystem {
    /// Immediate work — a startable PWB entry, an un-routed memory
    /// request or an un-drained completion — demands the very next cycle.
    /// Otherwise the subsystem sleeps until its earliest timed wake: a
    /// fixed-latency walk step, a fault watchdog deadline or a delayed
    /// retry. Walks waiting on a memory read need no event of their own; the
    /// DRAM/L2D completion that revives them is the memory side's event.
    fn next_event(&self) -> Option<Cycle> {
        if (!self.pwb.is_empty() && self.active_walks() < self.cfg.walkers)
            || !self.mem_out.is_empty()
            || !self.completions.is_empty()
        {
            return Some(Cycle::ZERO);
        }
        let fixed = self.fixed_wake.next_ready();
        fixed.into_iter().chain(self.ledger.next_deadline()).min()
    }

    fn is_idle(&self) -> bool {
        PtwSubsystem::is_idle(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_mem::PhysMem;
    use swgpu_pt::{AddressSpace, HashedPageTable, PageWalkCache};
    use swgpu_types::{PageSize, Vpn};

    struct Rig {
        mem: PhysMem,
        space: AddressSpace,
        pwc: PageWalkCache,
        ids: IdGen,
        /// Walks start in this FS-HPT table when set, else in the radix one.
        hashed: Option<HashedPageTable>,
    }

    impl Rig {
        fn new(pages: u64) -> Self {
            let mut mem = PhysMem::new();
            let mut space = AddressSpace::new(PageSize::Size64K, &mut mem);
            space.map_region(swgpu_types::VirtAddr::new(0), pages * 64 * 1024, &mut mem);
            let mut pwc = PageWalkCache::new(32);
            pwc.set_root(swgpu_types::Asid::ZERO, space.radix().root());
            Self {
                mem,
                space,
                pwc,
                ids: IdGen::new(),
                hashed: None,
            }
        }

        /// A rig whose walks probe an FS-HPT table of the same mappings.
        fn hashed(pages: u64) -> Self {
            let mut rig = Self::new(pages);
            rig.hashed = Some(rig.space.build_hashed(&mut rig.mem));
            rig
        }

        /// Splits the rig into a walk context plus the id generator so both
        /// can be borrowed simultaneously.
        fn parts(&mut self) -> (WalkContext<'_>, &mut IdGen) {
            let ctx = WalkContext {
                mem: &self.mem,
                pwc: &mut self.pwc,
                table: self
                    .hashed
                    .as_ref()
                    .map_or(TableRef::Radix, TableRef::Hashed),
            };
            (ctx, &mut self.ids)
        }
    }

    /// Runs the subsystem to completion, answering every memory read after
    /// `mem_lat` cycles, and returns all completions.
    fn run_to_idle(
        sub: &mut PtwSubsystem,
        rig: &mut Rig,
        mut now: Cycle,
        mem_lat: u64,
    ) -> (Vec<WalkCompletion>, Cycle) {
        let mut done = Vec::new();
        let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
        for _ in 0..1_000_000u64 {
            {
                let (mut ctx, ids) = rig.parts();
                sub.tick(now, &mut ctx, ids);
            }
            while let Some(req) = sub.pop_mem_request() {
                inflight.push(now + mem_lat, req);
            }
            while let Some(resp) = inflight.pop_ready(now) {
                let (mut ctx, ids) = rig.parts();
                sub.on_mem_response(resp, now, &mut ctx, ids);
            }
            while let Some(c) = sub.pop_completion() {
                done.push(c);
            }
            if sub.is_idle() && inflight.is_empty() {
                return (done, now);
            }
            now = now.next();
        }
        panic!("subsystem did not drain");
    }

    #[test]
    fn single_walk_translates_correctly() {
        let mut rig = Rig::new(8);
        let mut sub = PtwSubsystem::new(PtwConfig::default());
        assert!(sub.enqueue(WalkRequest::new(Vpn::new(3), Cycle::ZERO)));
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 100);
        assert_eq!(done.len(), 1);
        let r = done[0].results[0];
        let expect = rig.space.mappings().nth(3).unwrap().1;
        assert_eq!(r.pfn, Some(expect));
        // Cold walk: 4 levels x 100 cycles (+ per-cycle loop granularity).
        let access = done[0].completed_at.since(done[0].started_at);
        assert!((400..=408).contains(&access), "access={access}");
    }

    #[test]
    fn unmapped_vpn_faults() {
        let mut rig = Rig::new(2);
        let mut sub = PtwSubsystem::new(PtwConfig::default());
        sub.enqueue(WalkRequest::new(Vpn::new(0x7_0000), Cycle::ZERO));
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 10);
        assert_eq!(done[0].results[0].pfn, None);
        assert_eq!(sub.stats().faults, 1);
    }

    #[test]
    fn pwc_warm_walk_skips_levels() {
        let mut rig = Rig::new(8);
        let mut sub = PtwSubsystem::new(PtwConfig::default());
        sub.enqueue(WalkRequest::new(Vpn::new(1), Cycle::ZERO));
        let (done, end) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 100);
        let cold = done[0].completed_at.since(done[0].started_at);
        // Second walk to a neighbouring VPN hits the PWC at the deepest
        // level: 1 read instead of 4.
        sub.enqueue(WalkRequest::new(Vpn::new(2), end));
        let (done2, _) = run_to_idle(&mut sub, &mut rig, end, 100);
        let warm = done2[0].completed_at.since(done2[0].started_at);
        assert!(warm < cold / 3, "warm={warm} cold={cold}");
    }

    #[test]
    fn limited_walkers_cause_queueing() {
        let mut rig = Rig::new(64);
        let mut sub = PtwSubsystem::new(PtwConfig {
            walkers: 1,
            pwb_ports: 1,
            ..PtwConfig::default()
        });
        for i in 0..8u64 {
            // Spread across leaf sectors so NHA-free walks stay distinct.
            assert!(sub.enqueue(WalkRequest::new(Vpn::new(i * 8), Cycle::ZERO)));
        }
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 50);
        assert_eq!(done.len(), 8);
        let s = sub.stats();
        assert!(
            s.avg_queue_delay() > s.avg_access_latency(),
            "with one walker, queueing ({:.0}) should dominate access ({:.0})",
            s.avg_queue_delay(),
            s.avg_access_latency()
        );
    }

    #[test]
    fn ample_walkers_eliminate_queueing() {
        let mut rig = Rig::new(64);
        let mut sub = PtwSubsystem::new(PtwConfig {
            walkers: 64,
            pwb_ports: 64,
            ..PtwConfig::default()
        });
        for i in 0..8u64 {
            sub.enqueue(WalkRequest::new(Vpn::new(i * 8), Cycle::ZERO));
        }
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 50);
        assert_eq!(done.len(), 8);
        assert_eq!(sub.stats().total_queue_cycles, 0);
    }

    #[test]
    fn pwb_capacity_rejects() {
        let mut sub = PtwSubsystem::new(PtwConfig {
            pwb_entries: 2,
            ..PtwConfig::default()
        });
        assert!(sub.enqueue(WalkRequest::new(Vpn::new(0), Cycle::ZERO)));
        assert!(sub.enqueue(WalkRequest::new(Vpn::new(8), Cycle::ZERO)));
        assert!(!sub.enqueue(WalkRequest::new(Vpn::new(16), Cycle::ZERO)));
        assert_eq!(sub.stats().pwb_rejections, 1);
    }

    #[test]
    fn nha_coalesces_same_sector() {
        let mut rig = Rig::new(8);
        let mut sub = PtwSubsystem::new(PtwConfig {
            nha: true,
            ..PtwConfig::default()
        });
        // VPNs 0..4 share one 32B leaf sector (4 PTEs).
        for i in 0..4u64 {
            assert!(sub.enqueue(WalkRequest::new(Vpn::new(i), Cycle::ZERO)));
        }
        assert_eq!(sub.pwb_depth(), 1, "three requests merged");
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 50);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].results.len(), 4);
        assert_eq!(sub.stats().nha_merges, 3);
        // Every coalesced VPN translated correctly.
        let mappings: Vec<_> = rig.space.mappings().collect();
        for r in &done[0].results {
            assert_eq!(r.pfn, Some(mappings[r.vpn.value() as usize].1));
        }
    }

    #[test]
    fn nha_does_not_merge_distinct_sectors() {
        let mut sub = PtwSubsystem::new(PtwConfig {
            nha: true,
            ..PtwConfig::default()
        });
        sub.enqueue(WalkRequest::new(Vpn::new(0), Cycle::ZERO));
        sub.enqueue(WalkRequest::new(Vpn::new(4), Cycle::ZERO));
        assert_eq!(sub.pwb_depth(), 2);
        assert_eq!(sub.stats().nha_merges, 0);
    }

    #[test]
    fn nha_does_not_merge_across_tenants() {
        let mut sub = PtwSubsystem::new(PtwConfig {
            nha: true,
            ..PtwConfig::default()
        });
        // Same leaf sector (VPNs 0 and 1), but different address spaces:
        // their PTEs live in different page tables, so a shared sector
        // read would be wrong.
        sub.enqueue(WalkRequest::new(Vpn::new(0), Cycle::ZERO));
        sub.enqueue(WalkRequest::new(Vpn::new(1), Cycle::ZERO).for_asid(swgpu_types::Asid::new(1)));
        assert_eq!(sub.pwb_depth(), 2, "cross-tenant requests stay separate");
        assert_eq!(sub.stats().nha_merges, 0);
        // Same tenant still merges.
        sub.enqueue(WalkRequest::new(Vpn::new(2), Cycle::ZERO).for_asid(swgpu_types::Asid::new(1)));
        assert_eq!(sub.pwb_depth(), 2);
        assert_eq!(sub.stats().nha_merges, 1);
    }

    #[test]
    fn fixed_per_level_timing() {
        let mut rig = Rig::new(8);
        let mut sub = PtwSubsystem::new(PtwConfig {
            timing: WalkTiming::FixedPerLevel(100),
            ..PtwConfig::default()
        });
        sub.enqueue(WalkRequest::new(Vpn::new(1), Cycle::ZERO));
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 0);
        let access = done[0].completed_at.since(done[0].started_at);
        assert_eq!(access, 400, "4 levels x 100 fixed cycles");
        assert_eq!(sub.stats().memory_reads, 4);
    }

    #[test]
    fn hashed_walk_single_access() {
        let mut rig = Rig::hashed(32);
        let mut sub = PtwSubsystem::new(PtwConfig::default());
        sub.enqueue(WalkRequest::new(Vpn::new(5), Cycle::ZERO));
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 80);
        let expect = rig.space.mappings().nth(5).unwrap().1;
        assert_eq!(done[0].results[0].pfn, Some(expect));
        let access = done[0].completed_at.since(done[0].started_at);
        assert!(
            access <= 2 * 81,
            "hashed walk should take ~1 probe, took {access}"
        );
        assert_eq!(
            rig.pwc.stats(),
            Default::default(),
            "hashed walks skip the PWC"
        );
    }

    #[test]
    fn warp_shortest_first_prioritizes_nearly_done_warps() {
        use crate::request::WalkOwner;
        use swgpu_types::{SmId, WarpId};
        let mut rig = Rig::new(512);
        let mut sub = PtwSubsystem::new(PtwConfig {
            walkers: 1,
            pwb_ports: 1,
            pwb_entries: 64,
            pwb_policy: PwbPolicy::WarpShortestFirst,
            ..PtwConfig::default()
        });
        let warp_a: WalkOwner = Some((SmId::new(0), WarpId::new(0))); // 4 walks
        let warp_b: WalkOwner = Some((SmId::new(0), WarpId::new(1))); // 1 walk
        for i in 0..4u64 {
            assert!(sub.enqueue(WalkRequest::with_owner(
                Vpn::new(i * 8),
                Cycle::ZERO,
                warp_a
            )));
        }
        assert!(sub.enqueue(WalkRequest::with_owner(Vpn::new(100), Cycle::ZERO, warp_b)));
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 50);
        assert_eq!(done.len(), 5);
        // Warp B's single walk (enqueued last) must complete before warp
        // A's backlog drains: with one walker, FIFO would finish it last;
        // shortest-first schedules it after at most one A-walk.
        let b_pos = done
            .iter()
            .position(|c| c.results[0].vpn == Vpn::new(100))
            .expect("warp B completed");
        assert!(b_pos <= 1, "warp B finished at position {b_pos}");
    }

    #[test]
    fn fifo_policy_preserves_arrival_order() {
        let mut rig = Rig::new(512);
        let mut sub = PtwSubsystem::new(PtwConfig {
            walkers: 1,
            pwb_ports: 1,
            ..PtwConfig::default()
        });
        for i in 0..4u64 {
            assert!(sub.enqueue(WalkRequest::new(Vpn::new(i * 8), Cycle::ZERO)));
        }
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 50);
        let order: Vec<u64> = done.iter().map(|c| c.results[0].vpn.value()).collect();
        assert_eq!(order, vec![0, 8, 16, 24]);
    }

    #[test]
    fn zero_rate_fault_plan_is_inert() {
        let mut rig = Rig::new(8);
        let mut sub = PtwSubsystem::new(PtwConfig::default());
        sub.set_fault_plan(&FaultPlan::default());
        assert!(!sub.ledger.is_armed(), "zero-rate plan must not arm");
        sub.enqueue(WalkRequest::new(Vpn::new(3), Cycle::ZERO));
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 100);
        assert_eq!(done.len(), 1);
        assert_eq!(sub.fault_stats(), FaultInjectionStats::default());
    }

    #[test]
    fn corruption_is_retried_and_conserved() {
        for mut rig in [Rig::new(64), Rig::hashed(64)] {
            let table = if rig.hashed.is_some() {
                "hashed"
            } else {
                "radix"
            };
            let mut sub = PtwSubsystem::new(PtwConfig::default());
            sub.set_fault_plan(&FaultPlan {
                seed: 11,
                pte_corrupt_rate: 0.25,
                watchdog_cycles: 2_000,
                ..FaultPlan::default()
            });
            for i in 0..16u64 {
                assert!(sub.enqueue(WalkRequest::new(Vpn::new(i * 8), Cycle::ZERO)));
            }
            let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 50);
            let delivered: usize = done.iter().map(|c| c.results.len()).sum();
            assert_eq!(delivered, 16, "{table}: every translation must complete");
            let fs = sub.fault_stats();
            assert!(
                fs.injected_pte_corruptions > 0,
                "{table}: rate 0.25 never fired"
            );
            assert!(
                fs.walk_retries > 0,
                "{table}: no corrupted read was retried"
            );
            assert_eq!(
                fs.injected_total(),
                fs.recovered_injections + fs.escalated_injections,
                "{table}: injected faults leaked: {fs:?}"
            );
        }
    }

    #[test]
    fn permanent_corruption_escalates_after_bounded_retries() {
        let mut rig = Rig::new(8);
        let mut sub = PtwSubsystem::new(PtwConfig::default());
        sub.set_fault_plan(&FaultPlan {
            seed: 1,
            pte_corrupt_rate: 1.0,
            max_retries: 2,
            watchdog_cycles: 1_000,
            ..FaultPlan::default()
        });
        sub.enqueue(WalkRequest::new(Vpn::new(3), Cycle::ZERO));
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 50);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].results[0].pfn, None, "escalations fault-complete");
        let fs = sub.fault_stats();
        assert_eq!(fs.fault_escalations, 1);
        assert_eq!(fs.walk_retries, 2, "retry budget fully consumed");
        assert_eq!(fs.injected_total(), fs.escalated_injections);
        assert_eq!(fs.recovered_injections, 0);
    }

    #[test]
    fn dropped_response_recovers_via_watchdog() {
        let mut rig = Rig::new(8);
        let mut sub = PtwSubsystem::new(PtwConfig::default());
        sub.set_fault_plan(&FaultPlan {
            seed: 0,
            // Drops are injected by the cache, not the PTW; arm the plan
            // via a rate that never fires here so the watchdog is live.
            mem_drop_rate: 1.0,
            watchdog_cycles: 500,
            ..FaultPlan::default()
        });
        sub.enqueue(WalkRequest::new(Vpn::new(3), Cycle::ZERO));
        let mut now = Cycle::ZERO;
        let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
        let mut dropped_first = false;
        let mut done = Vec::new();
        for _ in 0..1_000_000u64 {
            {
                let (mut ctx, ids) = rig.parts();
                sub.tick(now, &mut ctx, ids);
            }
            while let Some(req) = sub.pop_mem_request() {
                if !dropped_first {
                    dropped_first = true;
                    assert!(sub.on_mem_dropped(req), "drop must be attributed");
                } else {
                    inflight.push(now + 50, req);
                }
            }
            while let Some(resp) = inflight.pop_ready(now) {
                let (mut ctx, ids) = rig.parts();
                sub.on_mem_response(resp, now, &mut ctx, ids);
            }
            while let Some(c) = sub.pop_completion() {
                done.push(c);
            }
            if sub.is_idle() && inflight.is_empty() {
                break;
            }
            now = now.next();
        }
        assert_eq!(done.len(), 1, "walk never completed after drop");
        let expect = rig.space.mappings().nth(3).unwrap().1;
        assert_eq!(done[0].results[0].pfn, Some(expect));
        let fs = sub.fault_stats();
        assert_eq!(fs.watchdog_timeouts, 1);
        assert_eq!(fs.walk_retries, 1);
        assert_eq!(fs.recovered_injections, 1, "the drop resolved in place");
    }

    /// A subsystem with an armed fault plan (watchdog after 100 cycles)
    /// and one walk, ticked until it has issued `n` reads, none of which
    /// is answered. Returns the subsystem, the reads and the last cycle.
    fn withheld_reads(rig: &mut Rig, n: usize) -> (PtwSubsystem, Vec<MemReq>, Cycle) {
        let mut sub = PtwSubsystem::new(PtwConfig::default());
        sub.set_fault_plan(&FaultPlan {
            mem_drop_rate: 1.0, // arms the plan; nothing is dropped here
            watchdog_cycles: 100,
            ..FaultPlan::default()
        });
        sub.enqueue(WalkRequest::new(Vpn::new(3), Cycle::ZERO));
        let mut reads = Vec::new();
        let mut now = Cycle::ZERO;
        while reads.len() < n {
            assert!(now.value() < 100_000, "watchdog never re-issued");
            now = now.next();
            let (mut ctx, ids) = rig.parts();
            sub.tick(now, &mut ctx, ids);
            reads.extend(std::iter::from_fn(|| sub.pop_mem_request()));
        }
        (sub, reads, now)
    }

    #[test]
    fn response_after_a_watchdog_reissue_is_ignored() {
        let mut rig = Rig::new(8);
        let (mut sub, reads, now) = withheld_reads(&mut rig, 2);
        let (late, reissued) = (reads[0], reads[1]);
        assert_eq!(late.route, Route::new(Issuer::Ptw, 0, 0));
        assert_eq!(
            late.route, reissued.route,
            "the re-issue waits in the same slot"
        );
        let before = sub.stats().memory_reads;
        let (mut ctx, ids) = rig.parts();
        assert!(!sub.on_mem_response(late, now, &mut ctx, ids));
        assert_eq!(sub.stats().memory_reads, before, "the walk did not advance");
        assert!(sub.pop_mem_request().is_none());
        assert!(sub.on_mem_response(reissued, now, &mut ctx, ids));
        assert_eq!(sub.stats().memory_reads, before + 1, "next level issued");
        let (done, _) = run_to_idle(&mut sub, &mut rig, now.next(), 10);
        assert_eq!(done.len(), 1);
        let expect = rig.space.mappings().nth(3).unwrap().1;
        assert_eq!(done[0].results[0].pfn, Some(expect));
    }

    #[test]
    fn response_routed_to_an_idle_slot_is_ignored() {
        let mut rig = Rig::new(8);
        let (mut sub, reads, now) = withheld_reads(&mut rig, 1);
        let stray = MemReq {
            route: Route::new(Issuer::Ptw, 0, 1),
            ..reads[0]
        };
        let (mut ctx, ids) = rig.parts();
        assert!(!sub.on_mem_response(stray, now, &mut ctx, ids));
        assert!(!sub.on_mem_dropped(stray));
        assert!(sub.pop_mem_request().is_none(), "no walk advanced");
        assert!(sub.on_mem_response(reads[0], now, &mut ctx, ids));
    }

    #[test]
    fn drops_are_attributed_only_to_the_outstanding_read() {
        let mut rig = Rig::new(8);
        let (mut sub, reads, now) = withheld_reads(&mut rig, 2);
        assert!(!sub.on_mem_dropped(reads[0]), "cancelled by the watchdog");
        assert!(sub.on_mem_dropped(reads[1]));
        let (done, _) = run_to_idle(&mut sub, &mut rig, now.next(), 10);
        assert_eq!(done.len(), 1);
        let fs = sub.fault_stats();
        assert_eq!(fs.watchdog_timeouts, 2);
        assert_eq!(fs.recovered_injections, 1, "one drop, attributed once");
    }

    #[test]
    fn a_finished_walks_deadlines_never_match_the_next_walk_in_its_slot() {
        let mut rig = Rig::new(8);
        let mut sub = PtwSubsystem::new(PtwConfig {
            walkers: 1,
            ..PtwConfig::default()
        });
        sub.set_fault_plan(&FaultPlan {
            mem_drop_rate: 1.0, // arms the plan; nothing is dropped here
            watchdog_cycles: 100,
            ..FaultPlan::default()
        });
        sub.enqueue(WalkRequest::new(Vpn::new(3), Cycle::ZERO));
        sub.enqueue(WalkRequest::new(Vpn::new(5), Cycle::ZERO));
        // The first walk's reads are answered a cycle later, so it ends
        // long before its first deadline; the second walk reuses slot 0
        // and waits on a read that is never answered.
        let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
        let mut second_read = None;
        for t in 1..=104 {
            let now = Cycle::new(t);
            let (mut ctx, ids) = rig.parts();
            sub.tick(now, &mut ctx, ids);
            while let Some(resp) = inflight.pop_ready(now) {
                assert!(sub.on_mem_response(resp, now, &mut ctx, ids));
            }
            while let Some(req) = sub.pop_mem_request() {
                if sub.stats().walks_completed == 0 {
                    inflight.push(now + 1, req);
                } else {
                    second_read.get_or_insert((now, req));
                }
            }
        }
        let (issued, read) = second_read.expect("the second walk issued a read");
        assert_eq!(read.route.slot, 0);
        assert!(
            issued.value() + 100 > 104,
            "its own deadline is still ahead"
        );
        assert_eq!(
            sub.fault_stats().watchdog_timeouts,
            0,
            "the first walk's deadlines fired on the second walk"
        );
    }

    #[test]
    fn multi_owner_fault_completion_releases_owner_once() {
        // Regression: the directory-fault path used to call
        // release_owners three times, corrupting owner_counts for warps
        // with several outstanding walks.
        use crate::request::WalkOwner;
        use swgpu_types::{SmId, WarpId};
        let mut rig = Rig::new(2);
        let mut sub = PtwSubsystem::new(PtwConfig {
            pwb_policy: PwbPolicy::WarpShortestFirst,
            ..PtwConfig::default()
        });
        let warp: WalkOwner = Some((SmId::new(0), WarpId::new(0)));
        // One unmapped VPN (directory fault) and two mapped, same owner.
        assert!(sub.enqueue(WalkRequest::with_owner(
            Vpn::new(0x7_0000),
            Cycle::ZERO,
            warp
        )));
        assert!(sub.enqueue(WalkRequest::with_owner(Vpn::new(0), Cycle::ZERO, warp)));
        assert!(sub.enqueue(WalkRequest::with_owner(Vpn::new(1), Cycle::ZERO, warp)));
        let (done, _) = run_to_idle(&mut sub, &mut rig, Cycle::ZERO, 10);
        assert_eq!(done.iter().map(|c| c.results.len()).sum::<usize>(), 3);
        assert!(
            sub.owner_counts.is_empty(),
            "owner accounting leaked: {:?}",
            sub.owner_counts
        );
    }

    #[test]
    fn free_walkers_accounts_backlog() {
        let mut sub = PtwSubsystem::new(PtwConfig {
            walkers: 4,
            ..PtwConfig::default()
        });
        assert_eq!(sub.free_walkers(), 4);
        sub.enqueue(WalkRequest::new(Vpn::new(0), Cycle::ZERO));
        sub.enqueue(WalkRequest::new(Vpn::new(8), Cycle::ZERO));
        assert_eq!(sub.free_walkers(), 2);
    }
}
