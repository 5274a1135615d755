//! The Page Walk Warp execution model.
//!
//! One PW Warp per SM: 32 threads, each able to walk one page-table
//! request from the SoftPWB. The warp is *structurally isolated* from user
//! warps (its own instruction-buffer/scoreboard/SIMT-stack slots — §4.2),
//! has the highest scheduling priority, and shares the SM's single
//! instruction issue port: at most one PW instruction issues per cycle
//! across all 32 threads. `LDPT` loads go to the L2 data cache (PTEs are
//! not cached in L1D), so a software walk costs a handful of issue cycles
//! plus the same memory reads a hardware walker would make — the "slightly
//! longer per-walk latency" of Figure 9 that massive parallelism repays.

use crate::fault::{FaultBuffer, FaultRecord};
use crate::softpwb::SoftPwb;
use std::collections::VecDeque;
use swgpu_mem::{AccessKind, Issuer, MemReq, PhysMem, Route};
use swgpu_pt::{PageWalkCache, PteReader, RadixCursor, Recovery, RecoveryLedger, Step};
use swgpu_types::fault::site;
use swgpu_types::{
    ensure, Asid, ConfigError, Cycle, FaultInjectionStats, FaultInjector, FaultPlan, IdGen, Pfn,
    PhysAddr, PteReadEvent, SmId, Vpn,
};

/// A walk request as dispatched to an SM by the Request Distributor.
///
/// The distributor consults the PWC before dispatch, so the request
/// carries the starting level and node base (the paper's 96-bit SoftPWB
/// entry: VPN + page-table base PFN + level).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwWalkRequest {
    /// Address space the walk translates for — selects the tenant's page
    /// table and tags the PWC fills and the resulting L2 TLB fill.
    pub asid: Asid,
    /// VPN to translate.
    pub vpn: Vpn,
    /// When the L2 TLB miss allocated the walk (queueing measured from
    /// here by the caller).
    pub issued_at: Cycle,
    /// When the Request Distributor won a core and sent the request.
    pub dispatched_at: Cycle,
    /// First radix level to read (from the PWC lookup at dispatch).
    pub start_level: u8,
    /// Node base address serving `start_level`.
    pub node_base: PhysAddr,
    /// Whether this walk replays a page the driver just populated on a
    /// major fault — the memory-manager fill requests PW Warps service in
    /// demand-paged mode (counted as `mm_sw_fill_replays`).
    pub fill_replay: bool,
    /// Whether this walk was issued speculatively by the translation
    /// prefetcher rather than by a demand miss (its fill installs with
    /// the prefetch tag in the L2 TLB).
    pub prefetch: bool,
}

impl SwWalkRequest {
    /// Creates a dispatch-ready request.
    pub fn new(
        vpn: Vpn,
        issued_at: Cycle,
        dispatched_at: Cycle,
        start_level: u8,
        node_base: PhysAddr,
    ) -> Self {
        Self {
            asid: Asid::ZERO,
            vpn,
            issued_at,
            dispatched_at,
            start_level,
            node_base,
            fill_replay: false,
            prefetch: false,
        }
    }

    /// Rebinds the request to a tenant's address space.
    pub fn for_asid(mut self, asid: Asid) -> Self {
        self.asid = asid;
        self
    }

    /// Marks the request as the replay of a driver page fill.
    pub fn as_fill_replay(mut self) -> Self {
        self.fill_replay = true;
        self
    }

    /// Marks the request as a speculative translation prefetch.
    pub fn as_prefetch(mut self) -> Self {
        self.prefetch = true;
        self
    }
}

/// A finished software walk, as reported by the `FL2T` instruction. The
/// simulator adds the SM→L2TLB return latency before resolving the L2
/// MSHRs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwCompletion {
    /// Address space the translation belongs to.
    pub asid: Asid,
    /// Translated VPN.
    pub vpn: Vpn,
    /// Resulting frame; `None` means the walk hit an invalid PTE and an
    /// [`FaultRecord`] was written via `FFB`.
    pub pfn: Option<Pfn>,
    /// Original L2-miss time.
    pub issued_at: Cycle,
    /// Distributor dispatch time.
    pub dispatched_at: Cycle,
    /// Arrival at the SoftPWB.
    pub arrived_at: Cycle,
    /// PW thread start (end of SoftPWB queueing).
    pub started_at: Cycle,
    /// FL2T issue time at the SM.
    pub finished_at: Cycle,
}

impl SwCompletion {
    /// Cycles the request waited for a PW thread inside the SoftPWB — the
    /// software-side queueing component.
    pub fn softpwb_wait(&self) -> u64 {
        self.started_at.since(self.arrived_at)
    }

    /// Instruction-execution plus memory time on the PW thread.
    pub fn execution_time(&self) -> u64 {
        self.finished_at.since(self.started_at)
    }
}

/// Timing/shape parameters of the PW Warp routine (Figure 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PwWarpConfig {
    /// Walk threads per warp (32).
    pub threads: usize,
    /// SoftPWB entries (32 — one per thread in Table 3).
    pub softpwb_entries: usize,
    /// Instructions before the first `LDPT`: load the SoftPWB entry,
    /// decode VPN/base/level, compute the first offset (Figure 14 lines
    /// 1-10).
    pub setup_instrs: u32,
    /// Non-memory instructions between levels: fault check, `FPWC`, next
    /// offset computation (lines 8-23 minus the `LDPT`).
    pub per_level_instrs: u32,
    /// Instructions to finish: the `FL2T` fill (line 26).
    pub finish_instrs: u32,
    /// Fault-buffer capacity: records beyond this evict the oldest
    /// (counted via [`FaultBuffer::overflow_dropped`]).
    pub fault_buffer_entries: usize,
}

impl Default for PwWarpConfig {
    fn default() -> Self {
        Self {
            threads: 32,
            softpwb_entries: 32,
            setup_instrs: 6,
            per_level_instrs: 3,
            finish_instrs: 1,
            fault_buffer_entries: FaultBuffer::DEFAULT_CAPACITY,
        }
    }
}

impl PwWarpConfig {
    /// Checks the configuration [`PwWarpUnit::new`] relies on.
    ///
    /// # Errors
    ///
    /// Rejects zero threads, SoftPWB or fault-buffer entries, a free
    /// `FL2T`, or more threads than a `u16` route slot can name.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure!(self.threads > 0, "PW warp needs at least one thread");
        ensure!(
            self.threads <= usize::from(u16::MAX) + 1,
            "at most {} PW threads (a memory route names the thread in a u16)",
            usize::from(u16::MAX) + 1
        );
        ensure!(self.softpwb_entries > 0, "SoftPWB needs entries");
        ensure!(self.finish_instrs > 0, "FL2T costs at least one issue");
        ensure!(self.fault_buffer_entries > 0, "fault buffer needs entries");
        Ok(())
    }
}

swgpu_types::counters! {
    /// Cumulative PW Warp statistics for one SM.
    pub struct PwWarpStats {
        /// Walks completed (including faults).
        pub walks_completed: u64,
        /// Walks that ended in `FFB`.
        pub faults: u64,
        /// PW instructions issued (cycles the warp consumed the issue port).
        pub instructions_issued: u64,
        /// `LDPT` memory reads issued.
        pub ldpt_reads: u64,
        /// Σ SoftPWB wait cycles over completed walks.
        pub total_softpwb_wait: u64,
        /// Σ execution cycles over completed walks.
        pub total_execution: u64,
        /// Successfully completed walks that replayed a driver page fill
        /// (demand-paged mode only; surfaced as `mm_sw_fill_replays`).
        pub fill_replays: u64,
        /// Successfully completed walks that were speculative translation
        /// prefetches.
        pub prefetch_walks: u64,
    }
}

#[derive(Debug, Clone, Copy)]
enum Action {
    Ldpt,
    Fl2t(Pfn),
    /// Log a fault record at the walk's current level and end it.
    Ffb,
}

#[derive(Debug, Clone, Copy)]
enum ThreadState {
    Idle,
    NeedIssue {
        remaining: u32,
        action: Action,
    },
    WaitMem,
    /// Fault injection wedged the thread; only the watchdog frees it.
    Stuck,
    /// Backoff wait before re-executing the `LDPT` whose decode was
    /// corrupted.
    WaitRetry,
}

#[derive(Debug, Clone, Copy)]
struct ThreadWalk {
    slot: usize,
    asid: Asid,
    vpn: Vpn,
    issued_at: Cycle,
    dispatched_at: Cycle,
    arrived_at: Cycle,
    started_at: Cycle,
    cursor: RadixCursor,
    /// Whether this walk replays a driver page fill.
    fill_replay: bool,
    /// Whether this walk is a speculative translation prefetch.
    prefetch: bool,
}

#[derive(Debug)]
struct Thread {
    state: ThreadState,
    walk: Option<ThreadWalk>,
}

/// The per-SM PW Warp plus its SoftPWB and controller.
///
/// Driven by the simulator once per cycle:
///
/// 1. [`PwWarpUnit::accept`] requests forwarded by the Request Distributor
///    (after the L2TLB→SM communication latency).
/// 2. [`PwWarpUnit::tick`] — returns `true` when the warp consumed the
///    SM's issue port this cycle (the SM is then ticked with
///    `issue_slot_free == false`).
/// 3. [`PwWarpUnit::pop_mem_request`] → the shared L2 data cache.
/// 4. [`PwWarpUnit::on_mem_response`] for each completed `LDPT`.
/// 5. [`PwWarpUnit::pop_completion`] → back to the L2 TLB (add the return
///    communication latency).
#[derive(Debug)]
pub struct PwWarpUnit {
    cfg: PwWarpConfig,
    /// The SM this unit runs on: the unit index of its `LDPT` routes.
    sm: SmId,
    pwb: SoftPwb,
    threads: Vec<Thread>,
    // O(1)-per-cycle scheduling state: idle threads are a stack, threads
    // awaiting the issue port an FIFO queue (round-robin-equivalent
    // fairness).
    idle_threads: Vec<usize>,
    issue_queue: VecDeque<usize>,
    active_walks: usize,
    mem_out: VecDeque<MemReq>,
    completions: VecDeque<SwCompletion>,
    faults: FaultBuffer,
    stats: PwWarpStats,
    /// `LDPT` decodes (PTE corruption and observation).
    reader: PteReader,
    /// Per-thread recovery tickets; a thread's index is its slot.
    ledger: RecoveryLedger,
    /// Stuck-thread stream and rate, drawn once per walk assignment;
    /// present only under an armed plan.
    stuck: Option<(FaultInjector, f64)>,
}

impl PwWarpUnit {
    /// Builds a PW Warp unit.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero threads/entries).
    pub fn new(cfg: PwWarpConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            sm: SmId::new(0),
            pwb: SoftPwb::new(cfg.softpwb_entries),
            threads: (0..cfg.threads)
                .map(|_| Thread {
                    state: ThreadState::Idle,
                    walk: None,
                })
                .collect(),
            idle_threads: (0..cfg.threads).rev().collect(),
            issue_queue: VecDeque::new(),
            active_walks: 0,
            mem_out: VecDeque::new(),
            completions: VecDeque::new(),
            faults: FaultBuffer::with_capacity(cfg.fault_buffer_entries),
            stats: PwWarpStats::default(),
            reader: PteReader::default(),
            ledger: RecoveryLedger::default(),
            stuck: None,
            cfg,
        }
    }

    /// Places the unit on SM `sm` (SM 0 by default), whose index its
    /// `LDPT` reads carry in their routes.
    pub fn on_sm(mut self, sm: SmId) -> Self {
        self.sm = sm;
        self
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

    /// Walks currently executing on threads of this PW Warp.
    pub fn active_walks(&self) -> usize {
        self.active_walks
    }

    /// SoftPWB slots currently holding requests (capacity − free).
    pub fn pwb_occupancy(&self) -> usize {
        self.pwb.capacity() - self.pwb.free_slots()
    }

    /// Arms fault injection + recovery per `plan` for the PW Warp on SM
    /// `sm_index` (each SM draws an independent, reproducible stream). A
    /// disabled plan leaves the unit in its inert baseline state.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, sm_index: u64) {
        if plan.enabled() {
            let inj = |salt| FaultInjector::new_instance(plan.seed, salt, sm_index);
            self.reader.inject(inj(site::PW_WARP_PTE), plan);
            self.ledger.arm(plan);
            self.stuck = Some((inj(site::STUCK_THREAD), plan.stuck_thread_rate));
        }
    }

    /// Counters for faults injected at / recovered by this unit,
    /// including fault-buffer overflow drops.
    pub fn fault_stats(&self) -> FaultInjectionStats {
        let mut s = self.ledger.stats();
        s.merge(&self.reader.stats());
        if let Some((stuck, _)) = &self.stuck {
            s.merge(&stuck.stats);
        }
        s.fault_buffer_overflow_drops += self.faults.overflow_dropped();
        s
    }

    /// The unit's configuration.
    pub fn config(&self) -> PwWarpConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> PwWarpStats {
        self.stats
    }

    /// SoftPWB slots currently accepting requests — the value the Request
    /// Distributor's per-core counter tracks.
    pub fn free_slots(&self) -> usize {
        self.pwb.free_slots()
    }

    /// Read access to the fault buffer.
    pub fn fault_buffer(&self) -> &FaultBuffer {
        &self.faults
    }

    /// Drains the fault buffer (the UVM driver's read-and-clear).
    pub fn drain_faults(&mut self) -> Vec<FaultRecord> {
        self.faults.drain()
    }

    /// Number of walker threads currently idle — spare walk capacity the
    /// translation prefetcher may borrow without delaying demand walks.
    pub fn idle_thread_slots(&self) -> usize {
        self.idle_threads.len()
    }

    /// Whether no walk is queued or executing.
    pub fn is_idle(&self) -> bool {
        self.pwb.free_slots() == self.pwb.capacity()
            && self.active_walks == 0
            && self.mem_out.is_empty()
            && self.completions.is_empty()
    }

    /// Accepts a dispatched request into the SoftPWB. Returns `false` when
    /// the buffer is full (the distributor's counter should prevent this).
    pub fn accept(&mut self, now: Cycle, req: SwWalkRequest) -> bool {
        self.pwb.insert(req, now).is_some()
    }

    /// Advances one cycle: fires watchdogs and pending retries, assigns
    /// valid SoftPWB entries to idle threads and issues at most one PW
    /// instruction. Returns `true` if the issue port was consumed.
    pub fn tick(&mut self, now: Cycle, ids: &mut IdGen) -> bool {
        while let Some((idx, recovery)) = self.ledger.next_due(now) {
            // An escalated walk logs an `FFB` record and completes with
            // `pfn: None`, so the simulator hands the translation to the
            // UVM driver. Otherwise a stuck thread restarts the walk
            // routine from scratch; a lost or corrupted LDPT is simply
            // re-executed.
            let remaining = match (recovery, self.threads[idx].state) {
                (Recovery::Escalate, _) => {
                    self.ffb(idx, now);
                    continue;
                }
                (_, ThreadState::Stuck) => self.cfg.setup_instrs.max(1),
                (_, ThreadState::WaitMem | ThreadState::WaitRetry) => 1,
                _ => unreachable!("retrying a thread that is not waiting"),
            };
            self.queue(idx, remaining, Action::Ldpt);
        }
        self.assign_threads(now);
        self.issue_one(now, ids)
    }

    /// Queues thread `idx` for the issue port: `remaining` issue cycles,
    /// the last of which performs `action`.
    fn queue(&mut self, idx: usize, remaining: u32, action: Action) {
        self.threads[idx].state = ThreadState::NeedIssue { remaining, action };
        self.issue_queue.push_back(idx);
    }

    fn assign_threads(&mut self, now: Cycle) {
        while self.pwb.valid_count() > 0 {
            let Some(idx) = self.idle_threads.pop() else {
                break;
            };
            let (slot, req) = self.pwb.take_valid().expect("valid_count checked");
            let arrived_at = self.pwb.arrival_of(slot);
            let t = &mut self.threads[idx];
            debug_assert!(matches!(t.state, ThreadState::Idle));
            t.walk = Some(ThreadWalk {
                slot,
                asid: req.asid,
                vpn: req.vpn,
                issued_at: req.issued_at,
                dispatched_at: req.dispatched_at,
                arrived_at,
                started_at: now,
                cursor: RadixCursor::new(req.start_level, req.node_base),
                fill_replay: req.fill_replay,
                prefetch: req.prefetch,
            });
            self.ledger.begin(idx);
            self.active_walks += 1;
            if let Some((stuck, rate)) = self.stuck.as_mut() {
                if stuck.fire(*rate) {
                    // The thread wedges before executing; the watchdog
                    // restarts (or ultimately escalates) the walk.
                    stuck.stats.injected_stuck_threads += 1;
                    t.state = ThreadState::Stuck;
                    self.ledger.wedged(idx, now);
                    continue;
                }
            }
            self.queue(idx, self.cfg.setup_instrs.max(1), Action::Ldpt);
        }
    }

    fn issue_one(&mut self, now: Cycle, ids: &mut IdGen) -> bool {
        let Some(idx) = self.issue_queue.pop_front() else {
            return false;
        };
        let ThreadState::NeedIssue { remaining, action } = self.threads[idx].state else {
            unreachable!("issue queue holds only NeedIssue threads");
        };
        self.stats.instructions_issued += 1;
        if remaining > 1 {
            self.queue(idx, remaining - 1, action);
        } else {
            self.perform(idx, action, now, ids);
        }
        true
    }

    fn perform(&mut self, idx: usize, action: Action, now: Cycle, ids: &mut IdGen) {
        match action {
            Action::Ldpt => {
                let t = &mut self.threads[idx];
                let walk = t.walk.as_ref().expect("LDPT without a walk");
                let addr = walk.cursor.entry_addr(walk.vpn);
                let id = ids.next_mem();
                // `validate` bounds the thread count by the u16 slot.
                let route = Route::new(Issuer::PwWarp, self.sm.value(), idx as u16);
                self.mem_out
                    .push_back(MemReq::new(id, addr, AccessKind::PageTable).with_route(route));
                self.stats.ldpt_reads += 1;
                t.state = ThreadState::WaitMem;
                self.ledger.issued(idx, id, now);
            }
            Action::Fl2t(pfn) => self.finish(idx, Some(pfn), now),
            Action::Ffb => self.ffb(idx, now),
        }
    }

    /// Ends the walk on thread `idx` with an `FFB` record of a fault at
    /// the level it is reading.
    fn ffb(&mut self, idx: usize, now: Cycle) {
        let walk = self.threads[idx].walk.as_ref().expect("FFB without a walk");
        self.faults.record(FaultRecord {
            asid: walk.asid,
            vpn: walk.vpn,
            level: walk.cursor.level(),
            at: now,
        });
        self.finish(idx, None, now);
    }

    fn finish(&mut self, idx: usize, pfn: Option<Pfn>, now: Cycle) {
        let walk = self.threads[idx].walk.take().expect("finish without walk");
        self.ledger.finish(idx);
        self.pwb.complete(walk.slot);
        self.threads[idx].state = ThreadState::Idle;
        self.idle_threads.push(idx);
        self.active_walks -= 1;
        self.stats.walks_completed += 1;
        if pfn.is_none() {
            self.stats.faults += 1;
        }
        if walk.fill_replay && pfn.is_some() {
            self.stats.fill_replays += 1;
        }
        if walk.prefetch && pfn.is_some() {
            self.stats.prefetch_walks += 1;
        }
        self.stats.total_softpwb_wait += walk.started_at.since(walk.arrived_at);
        self.stats.total_execution += now.since(walk.started_at);
        self.completions.push_back(SwCompletion {
            asid: walk.asid,
            vpn: walk.vpn,
            pfn,
            issued_at: walk.issued_at,
            dispatched_at: walk.dispatched_at,
            arrived_at: walk.arrived_at,
            started_at: walk.started_at,
            finished_at: now,
        });
    }

    /// Next `LDPT` read destined for the L2 data cache.
    pub fn pop_mem_request(&mut self) -> Option<MemReq> {
        self.mem_out.pop_front()
    }

    /// Delivers a completed `LDPT` read, routed to its thread. Returns
    /// `false`, changing nothing, unless that thread is waiting on exactly
    /// this read.
    pub fn on_mem_response(
        &mut self,
        resp: MemReq,
        now: Cycle,
        mem: &PhysMem,
        pwc: &mut PageWalkCache,
    ) -> bool {
        let Some(idx) = self.ledger.awaiting(&resp) else {
            return false;
        };
        self.ledger.resolved(idx);
        let t = &mut self.threads[idx];
        let walk = t.walk.as_mut().expect("walk in flight");
        let step = walk
            .cursor
            .advance(&mut self.reader, mem, pwc, walk.asid, walk.vpn, now);
        // Every continuation but a backoff wait competes for the issue
        // port.
        match step {
            None => match self.ledger.corrupted(idx, 1, now) {
                Recovery::Escalate => self.ffb(idx, now),
                _ => t.state = ThreadState::WaitRetry,
            },
            Some(Step::Descend) => self.queue(idx, self.cfg.per_level_instrs.max(1), Action::Ldpt),
            Some(Step::Leaf(Some(pfn))) => {
                self.queue(idx, self.cfg.finish_instrs, Action::Fl2t(pfn))
            }
            Some(Step::Leaf(None)) => self.queue(idx, self.cfg.finish_instrs, Action::Ffb),
            Some(Step::Fault(_)) => self.queue(idx, 1, Action::Ffb),
        }
        true
    }

    /// Notifies the unit that an `LDPT` it issued was dropped by fault
    /// injection (no response will arrive). Returns whether the routed
    /// thread was waiting on exactly this read. Recovery happens via the
    /// already-armed watchdog deadline.
    pub fn on_mem_dropped(&mut self, req: MemReq) -> bool {
        self.ledger.dropped(&req)
    }

    /// Next finished walk (FL2T or fault), if any.
    pub fn pop_completion(&mut self) -> Option<SwCompletion> {
        self.completions.pop_front()
    }
}

impl swgpu_types::Component for PwWarpUnit {
    /// Immediate work — a thread awaiting the issue port, a valid SoftPWB
    /// entry with an idle thread to take it, an un-routed `LDPT` or an
    /// un-drained completion — demands the very next cycle. Otherwise the
    /// only self-scheduled wakes are the fault watchdog and backoff-retry
    /// deadlines (a stuck thread leaves `issue_queue` entirely; only its
    /// watchdog revives it). Threads waiting on an `LDPT` are revived by
    /// the memory side's completion event.
    fn next_event(&self) -> Option<Cycle> {
        if !self.issue_queue.is_empty()
            || (self.pwb.valid_count() > 0 && !self.idle_threads.is_empty())
            || !self.mem_out.is_empty()
            || !self.completions.is_empty()
        {
            return Some(Cycle::ZERO);
        }
        self.ledger.next_deadline()
    }

    fn is_idle(&self) -> bool {
        PwWarpUnit::is_idle(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_pt::{AddressSpace, LEAF_LEVEL};
    use swgpu_types::{DelayQueue, PageSize, VirtAddr};

    struct Rig {
        mem: PhysMem,
        space: AddressSpace,
        pwc: PageWalkCache,
        ids: IdGen,
    }

    impl Rig {
        fn new(pages: u64) -> Self {
            let mut mem = PhysMem::new();
            let mut space = AddressSpace::new(PageSize::Size64K, &mut mem);
            space.map_region(VirtAddr::new(0), pages * 64 * 1024, &mut mem);
            let mut pwc = PageWalkCache::new(32);
            pwc.set_root(Asid::ZERO, space.radix().root());
            Self {
                mem,
                space,
                pwc,
                ids: IdGen::new(),
            }
        }

        fn request(&mut self, vpn: u64, at: Cycle) -> SwWalkRequest {
            let start = self.pwc.lookup(Asid::ZERO, Vpn::new(vpn));
            SwWalkRequest::new(Vpn::new(vpn), at, at, start.level, start.node_base)
        }
    }

    /// Runs the unit until idle with a fixed memory latency; returns the
    /// completions and the final cycle.
    fn run(unit: &mut PwWarpUnit, rig: &mut Rig, mem_lat: u64) -> (Vec<SwCompletion>, Cycle) {
        run_from(unit, rig, Cycle::ZERO, mem_lat)
    }

    /// [`run`] starting at cycle `now`.
    fn run_from(
        unit: &mut PwWarpUnit,
        rig: &mut Rig,
        mut now: Cycle,
        mem_lat: u64,
    ) -> (Vec<SwCompletion>, Cycle) {
        let mut inflight: swgpu_types::DelayQueue<MemReq> = swgpu_types::DelayQueue::new();
        let mut done = Vec::new();
        for _ in 0..1_000_000 {
            unit.tick(now, &mut rig.ids);
            while let Some(req) = unit.pop_mem_request() {
                inflight.push(now + mem_lat, req);
            }
            while let Some(resp) = inflight.pop_ready(now) {
                unit.on_mem_response(resp, now, &rig.mem, &mut rig.pwc);
            }
            while let Some(c) = unit.pop_completion() {
                done.push(c);
            }
            if unit.is_idle() && inflight.is_empty() {
                return (done, now);
            }
            now = now.next();
        }
        panic!("PW warp did not drain");
    }

    #[test]
    fn walks_and_translates() {
        let mut rig = Rig::new(16);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        let req = rig.request(3, Cycle::ZERO);
        assert!(unit.accept(Cycle::ZERO, req));
        let (done, _) = run(&mut unit, &mut rig, 100);
        assert_eq!(done.len(), 1);
        let expect = rig.space.mappings().nth(3).unwrap().1;
        assert_eq!(done[0].pfn, Some(expect));
        assert_eq!(unit.stats().ldpt_reads, 4, "cold walk reads 4 levels");
    }

    #[test]
    fn software_walk_costs_more_than_raw_memory() {
        let mut rig = Rig::new(16);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        let req = rig.request(3, Cycle::ZERO);
        unit.accept(Cycle::ZERO, req);
        let (done, _) = run(&mut unit, &mut rig, 100);
        let exec = done[0].execution_time();
        // 4 memory reads (400) + instruction overheads (> 6 setup + 3x3
        // per-level + 1 finish).
        assert!(exec > 400, "exec={exec}");
        assert!(exec < 400 + 64, "instruction overhead should be small");
    }

    #[test]
    fn thirty_two_concurrent_walks_overlap() {
        let mut rig = Rig::new(512);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        for i in 0..32u64 {
            let req = rig.request(i * 16, Cycle::ZERO);
            assert!(unit.accept(Cycle::ZERO, req));
        }
        let (done, end) = run(&mut unit, &mut rig, 100);
        assert_eq!(done.len(), 32);
        // Serial execution would be ≥ 32 x 400 = 12800; overlapped walks
        // share the memory latency.
        assert!(end.value() < 3000, "end={end}");
    }

    #[test]
    fn softpwb_overflow_rejected() {
        let mut rig = Rig::new(64);
        let mut unit = PwWarpUnit::new(PwWarpConfig {
            softpwb_entries: 2,
            ..PwWarpConfig::default()
        });
        let r1 = rig.request(1, Cycle::ZERO);
        let r2 = rig.request(2, Cycle::ZERO);
        let r3 = rig.request(3, Cycle::ZERO);
        assert!(unit.accept(Cycle::ZERO, r1));
        assert!(unit.accept(Cycle::ZERO, r2));
        assert!(!unit.accept(Cycle::ZERO, r3));
    }

    #[test]
    fn invalid_pte_goes_to_fault_buffer() {
        let mut rig = Rig::new(2);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        let req = rig.request(0x5_0000, Cycle::ZERO); // unmapped
        unit.accept(Cycle::ZERO, req);
        let (done, _) = run(&mut unit, &mut rig, 10);
        assert_eq!(done[0].pfn, None);
        assert_eq!(unit.stats().faults, 1);
        let faults = unit.drain_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].vpn, Vpn::new(0x5_0000));
        assert!(unit.fault_buffer().is_empty());
    }

    #[test]
    fn pwc_fills_during_walk_shorten_neighbours() {
        let mut rig = Rig::new(16);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        let r = rig.request(1, Cycle::ZERO);
        unit.accept(Cycle::ZERO, r);
        run(&mut unit, &mut rig, 100);
        // The walk filled the PWC down to the leaf node; a neighbour now
        // starts at level 1.
        let start = rig.pwc.lookup(Asid::ZERO, Vpn::new(2));
        assert!(start.hit);
        assert_eq!(start.level, LEAF_LEVEL);
    }

    #[test]
    fn issue_port_is_exclusive() {
        let mut rig = Rig::new(64);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        for i in 0..4u64 {
            let r = rig.request(i * 8, Cycle::ZERO);
            unit.accept(Cycle::ZERO, r);
        }
        // First tick: exactly one instruction issues even with 4 runnable
        // threads.
        assert!(unit.tick(Cycle::ZERO, &mut rig.ids));
        assert_eq!(unit.stats().instructions_issued, 1);
        // Idle unit does not consume the port.
        let mut idle_unit = PwWarpUnit::new(PwWarpConfig::default());
        assert!(!idle_unit.tick(Cycle::ZERO, &mut rig.ids));
    }

    #[test]
    fn zero_rate_fault_plan_is_inert() {
        let mut rig = Rig::new(16);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        unit.set_fault_plan(&FaultPlan::default(), 0);
        assert!(!unit.ledger.is_armed(), "zero-rate plan must not arm");
        let req = rig.request(3, Cycle::ZERO);
        unit.accept(Cycle::ZERO, req);
        let (done, _) = run(&mut unit, &mut rig, 100);
        assert_eq!(done.len(), 1);
        assert_eq!(unit.fault_stats(), FaultInjectionStats::default());
    }

    #[test]
    fn stuck_thread_recovers_via_watchdog_restart() {
        let mut rig = Rig::new(16);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        unit.set_fault_plan(
            &FaultPlan {
                seed: 5,
                stuck_thread_rate: 1.0,
                watchdog_cycles: 300,
                ..FaultPlan::default()
            },
            0,
        );
        let req = rig.request(3, Cycle::ZERO);
        unit.accept(Cycle::ZERO, req);
        let (done, end) = run(&mut unit, &mut rig, 50);
        assert_eq!(done.len(), 1);
        let expect = rig.space.mappings().nth(3).unwrap().1;
        assert_eq!(done[0].pfn, Some(expect), "walk completed after restart");
        assert!(end.value() >= 300, "watchdog delay must be visible");
        let fs = unit.fault_stats();
        assert_eq!(fs.injected_stuck_threads, 1);
        assert_eq!(fs.watchdog_timeouts, 1);
        assert_eq!(fs.recovered_injections, 1);
        assert_eq!(fs.injected_total(), fs.recovered_injections);
    }

    #[test]
    fn corruption_conserved_across_many_walks() {
        let mut rig = Rig::new(512);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        unit.set_fault_plan(
            &FaultPlan {
                seed: 9,
                pte_corrupt_rate: 0.3,
                watchdog_cycles: 1_000,
                ..FaultPlan::default()
            },
            0,
        );
        for i in 0..32u64 {
            let req = rig.request(i * 16, Cycle::ZERO);
            assert!(unit.accept(Cycle::ZERO, req));
        }
        let (done, _) = run(&mut unit, &mut rig, 50);
        assert_eq!(done.len(), 32, "every walk must conclude");
        let fs = unit.fault_stats();
        assert!(fs.injected_pte_corruptions > 0);
        assert_eq!(
            fs.injected_total(),
            fs.recovered_injections + fs.escalated_injections,
            "injected faults leaked: {fs:?}"
        );
        // Escalated walks surfaced as faults (pfn None) for the driver.
        let escalated_pfn_none = done.iter().filter(|c| c.pfn.is_none()).count() as u64;
        assert_eq!(escalated_pfn_none, fs.fault_escalations);
    }

    #[test]
    fn dropped_ldpt_recovers_via_watchdog() {
        let mut rig = Rig::new(16);
        let mut unit = PwWarpUnit::new(PwWarpConfig::default());
        unit.set_fault_plan(
            &FaultPlan {
                seed: 0,
                mem_drop_rate: 1.0, // arms the plan; drops injected manually
                watchdog_cycles: 400,
                ..FaultPlan::default()
            },
            0,
        );
        let req = rig.request(3, Cycle::ZERO);
        unit.accept(Cycle::ZERO, req);
        let mut now = Cycle::ZERO;
        let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
        let mut dropped_first = false;
        let mut done = Vec::new();
        for _ in 0..1_000_000 {
            unit.tick(now, &mut rig.ids);
            while let Some(req) = unit.pop_mem_request() {
                if !dropped_first {
                    dropped_first = true;
                    assert!(unit.on_mem_dropped(req));
                } else {
                    inflight.push(now + 50, req);
                }
            }
            while let Some(resp) = inflight.pop_ready(now) {
                unit.on_mem_response(resp, now, &rig.mem, &mut rig.pwc);
            }
            while let Some(c) = unit.pop_completion() {
                done.push(c);
            }
            if unit.is_idle() && inflight.is_empty() {
                break;
            }
            now = now.next();
        }
        assert_eq!(done.len(), 1, "walk never completed after drop");
        let expect = rig.space.mappings().nth(3).unwrap().1;
        assert_eq!(done[0].pfn, Some(expect));
        let fs = unit.fault_stats();
        assert_eq!(fs.watchdog_timeouts, 1);
        assert_eq!(fs.recovered_injections, 1);
    }

    /// A unit with an armed fault plan (watchdog after 100 cycles) and
    /// one walk, ticked until it has issued `n` `LDPT`s, none of which is
    /// answered. Returns the unit, the reads and the cycle of the last.
    fn withheld_reads(rig: &mut Rig, n: usize) -> (PwWarpUnit, Vec<MemReq>, Cycle) {
        let mut unit = PwWarpUnit::new(PwWarpConfig::default()).on_sm(SmId::new(3));
        unit.set_fault_plan(
            &FaultPlan {
                mem_drop_rate: 1.0, // arms the plan; nothing is dropped here
                watchdog_cycles: 100,
                ..FaultPlan::default()
            },
            3,
        );
        unit.accept(Cycle::ZERO, rig.request(3, Cycle::ZERO));
        let mut reads = Vec::new();
        let mut now = Cycle::ZERO;
        while reads.len() < n {
            assert!(now.value() < 100_000, "watchdog never re-issued");
            now = now.next();
            unit.tick(now, &mut rig.ids);
            reads.extend(std::iter::from_fn(|| unit.pop_mem_request()));
        }
        (unit, reads, now)
    }

    #[test]
    fn ldpt_routes_name_the_sm_and_thread() {
        let mut rig = Rig::new(16);
        let (_, reads, _) = withheld_reads(&mut rig, 1);
        assert_eq!(reads[0].route, Route::new(Issuer::PwWarp, 3, 0));
    }

    #[test]
    fn response_after_a_watchdog_reissue_is_ignored() {
        let mut rig = Rig::new(16);
        let (mut unit, reads, now) = withheld_reads(&mut rig, 2);
        let (late, reissued) = (reads[0], reads[1]);
        assert_eq!(
            late.route, reissued.route,
            "the re-issue waits on the same thread"
        );
        assert_ne!(late.id, reissued.id);
        assert!(!unit.on_mem_response(late, now, &rig.mem, &mut rig.pwc));
        // The walk did not advance: nothing awaits the issue port.
        assert!(!unit.tick(now.next(), &mut rig.ids));
        assert!(unit.on_mem_response(reissued, now.next(), &rig.mem, &mut rig.pwc));
        let (done, _) = run_from(&mut unit, &mut rig, now.next(), 50);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].pfn, Some(rig.space.mappings().nth(3).unwrap().1));
        assert_eq!(unit.fault_stats().watchdog_timeouts, 1);
    }

    #[test]
    fn response_routed_to_an_idle_thread_is_ignored() {
        let mut rig = Rig::new(16);
        let (mut unit, reads, now) = withheld_reads(&mut rig, 1);
        for slot in [1, 31, 4000] {
            let stray = MemReq {
                route: Route::new(Issuer::PwWarp, 3, slot),
                ..reads[0]
            };
            assert!(!unit.on_mem_response(stray, now, &rig.mem, &mut rig.pwc));
            assert!(!unit.on_mem_dropped(stray));
        }
        assert!(!unit.tick(now.next(), &mut rig.ids), "no thread advanced");
        assert!(unit.on_mem_response(reads[0], now.next(), &rig.mem, &mut rig.pwc));
    }

    #[test]
    fn drops_are_attributed_only_to_the_outstanding_read() {
        let mut rig = Rig::new(16);
        let (mut unit, reads, now) = withheld_reads(&mut rig, 2);
        assert!(!unit.on_mem_dropped(reads[0]), "cancelled by the watchdog");
        assert!(unit.on_mem_dropped(reads[1]));
        let (done, _) = run_from(&mut unit, &mut rig, now.next(), 50);
        assert_eq!(done.len(), 1);
        let fs = unit.fault_stats();
        assert_eq!(fs.watchdog_timeouts, 2);
        assert_eq!(fs.recovered_injections, 1, "one drop, attributed once");
    }

    #[test]
    fn fault_buffer_cap_bounds_memory_under_fault_storm() {
        let mut rig = Rig::new(2);
        let mut unit = PwWarpUnit::new(PwWarpConfig {
            fault_buffer_entries: 4,
            ..PwWarpConfig::default()
        });
        // 16 genuinely-unmapped walks, capacity 4: the buffer drops the
        // oldest 12 records but every walk still completes (faulting).
        for i in 0..16u64 {
            let req = rig.request(0x5_0000 + i * 16, Cycle::ZERO);
            assert!(unit.accept(Cycle::ZERO, req));
        }
        let (done, _) = run(&mut unit, &mut rig, 10);
        assert_eq!(done.len(), 16);
        assert!(done.iter().all(|c| c.pfn.is_none()));
        assert_eq!(unit.fault_buffer().len(), 4);
        assert_eq!(unit.fault_buffer().overflow_dropped(), 12);
        assert_eq!(unit.fault_stats().fault_buffer_overflow_drops, 12);
    }

    #[test]
    fn queue_wait_accounted_when_threads_busy() {
        let mut rig = Rig::new(512);
        let mut unit = PwWarpUnit::new(PwWarpConfig {
            threads: 1,
            softpwb_entries: 4,
            ..PwWarpConfig::default()
        });
        for i in 0..3u64 {
            let r = rig.request(i * 8, Cycle::ZERO);
            unit.accept(Cycle::ZERO, r);
        }
        let (done, _) = run(&mut unit, &mut rig, 50);
        assert_eq!(done.len(), 3);
        // With one thread the later walks waited in the SoftPWB.
        let waits: Vec<u64> = done.iter().map(|c| c.softpwb_wait()).collect();
        assert!(waits.iter().any(|&w| w > 0), "waits={waits:?}");
        assert!(unit.stats().total_softpwb_wait > 0);
    }
}
