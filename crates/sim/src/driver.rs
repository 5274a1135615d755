//! The simulated UVM driver. Faulted walks leave the walkers through the
//! fault buffer and are served here after the driver latency: a page the
//! driver finds mapped (the fault was injected) is replayed, a genuinely
//! unmapped one is filled by the tenant's memory manager under demand
//! paging (evicting and shooting down past its budget) or fails.

use crate::config::GpuConfig;
use crate::memory::Memory;
use crate::obs::ObsState;
use crate::stats::SimStats;
use softwalker::{FaultBuffer, FaultRecord};
use swgpu_mem::PhysMem;
use swgpu_obs::SpanKind;
use swgpu_pt::{FrameCheck, MemoryManager};
use swgpu_sm::Sm;
use swgpu_tlb::L2TlbComplex;
use swgpu_types::{
    fault::site, Asid, Component, Cycle, FastMap, FaultInjectionStats, FaultInjector, FaultPlan,
    MmFaultStats, Pfn, Port, SmId, Vpn,
};

/// One request in the driver's service queue: the owning tenant, the
/// faulted VPN, the cycle the walk was originally issued, how many
/// injected service stalls this request has already absorbed, and
/// whether it is a re-fill of a page quarantined by checksum
/// verification.
#[derive(Debug, Clone, Copy)]
struct DriverReq {
    asid: Asid,
    vpn: Vpn,
    issued_at: Cycle,
    stalls: u32,
    refill: bool,
}

/// Per-VPN state of an in-flight demand-paging fill replay. The
/// generation ties watchdogs to one specific fill (a watchdog armed for
/// an earlier fill of the same page must not fire into a later one);
/// `drop_pending` counts injected completion drops not yet resolved.
#[derive(Debug, Clone, Copy, Default)]
struct FillTracker {
    generation: u64,
    retries: u32,
    drop_pending: u64,
}

/// Timed self-messages of the demand-paging fault machinery: fill
/// watchdogs and artificially delayed replay deliveries.
#[derive(Debug, Clone, Copy)]
enum MmEvent {
    FillWatchdog {
        asid: Asid,
        vpn: Vpn,
        generation: u64,
    },
    DelayedReplay {
        asid: Asid,
        vpn: Vpn,
        issued_at: Cycle,
    },
}

/// Injectors for the four demand-paging data-path fault sites. Present
/// only when the plan arms a data-path rate *and* the memory manager is
/// on; `None` keeps the unfaulted path free of RNG draws entirely.
struct DataFaultState {
    fill_complete: FaultInjector,
    fill_payload: FaultInjector,
    shootdown: FaultInjector,
    driver_queue: FaultInjector,
}

/// The GPU state a driver service reaches into: the memory it fills and
/// checks, and the TLBs it shoots pages out of.
pub(crate) struct Uvm<'a> {
    pub(crate) mem: &'a mut Memory,
    pub(crate) l2: &'a mut L2TlbComplex<SmId>,
    pub(crate) sms: &'a mut [Sm],
    pub(crate) obs: Option<&'a mut ObsState>,
}

/// What the GPU does with a driver message once it is served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Action {
    /// Launch `walks` walks of the page through the normal machinery (a
    /// duplicated fill completion launches a second, racing one).
    Replay {
        asid: Asid,
        vpn: Vpn,
        issued_at: Cycle,
        walks: u32,
    },
    /// The fault is real: fail the translation after `queue` cycles.
    Fail { asid: Asid, vpn: Vpn, queue: u64 },
}

impl Action {
    fn replay(asid: Asid, vpn: Vpn, issued_at: Cycle, walks: u32) -> Option<Self> {
        Some(Self::Replay {
            asid,
            vpn,
            issued_at,
            walks,
        })
    }
}

/// The driver: its service queue and timers, one memory manager per
/// tenant (none in the default prebuilt mode), the fill protocol's
/// bookkeeping and the data-path fault sites.
#[derive(Default)]
pub(crate) struct Driver {
    plan: FaultPlan,
    fill_latency: u64,
    driver_q: Port<DriverReq>,
    mm_events: Port<MmEvent>,
    mms: Vec<MemoryManager>,
    // Pages whose fill replay is still in flight: their replayed walks
    // are tagged so the PW Warps can count software fill replays.
    pending_fills: FastMap<(Asid, Vpn), FillTracker>,
    // Duplicated completions not yet absorbed, and victims whose TLB
    // shootdown was dropped. Like `pending_fills`, only looked up and
    // summed, never iterated in an order that matters.
    dup_fills: FastMap<(Asid, Vpn), u64>,
    stale_shootdowns: FastMap<(Asid, Vpn), u64>,
    // The pages the last major fault evicted, reused across faults.
    evicted: Vec<Vpn>,
    // L1 TLB shootdown directory: per page, a mask of the SMs (bit
    // `sm % 64`) whose L1 TLB may cache its translation. A superset of
    // the real holders: a bit is set at the only L1 fill path (a
    // delivered translation) and cleared only by a shootdown of the
    // page. Kept only under demand paging, the one mode that shoots
    // pages down.
    l1_holders: FastMap<(Asid, Vpn), u64>,
    data_faults: Option<DataFaultState>,
    // Hardware-walk fault records (the PW Warps log into their own
    // per-SM buffers) and the driver-side counters.
    hw_faults: FaultBuffer,
    fault_counters: FaultInjectionStats,
    mm_fault: MmFaultStats,
}

impl Component for Driver {
    fn next_event(&self) -> Option<Cycle> {
        let due = self.driver_q.next_event().into_iter();
        due.chain(self.mm_events.next_event()).min()
    }

    fn is_idle(&self) -> bool {
        self.driver_q.is_empty() && self.mm_events.is_empty()
    }
}

impl Driver {
    /// One memory manager per tenant under demand paging; data-path
    /// injectors only when the plan arms a data-path rate as well.
    pub(crate) fn new(cfg: &GpuConfig) -> Self {
        let plan = cfg.fault_plan.clone();
        let tenants = cfg.tenants.as_ref().map_or(1, |t| t.len());
        let managed = if cfg.mm.enabled { tenants } else { 0 };
        let mut mms: Vec<MemoryManager> = (0..managed)
            .map(|_| MemoryManager::new(cfg.mm, cfg.page_size))
            .collect();
        let data_faults = (plan.data_path_enabled() && !mms.is_empty()).then(|| {
            for mm in &mut mms {
                mm.set_data_fault_checking(plan.frame_retire_threshold);
            }
            DataFaultState {
                fill_complete: FaultInjector::new(plan.seed, site::FILL_COMPLETE),
                fill_payload: FaultInjector::new(plan.seed, site::FILL_PAYLOAD),
                shootdown: FaultInjector::new(plan.seed, site::SHOOTDOWN),
                driver_queue: FaultInjector::new(plan.seed, site::DRIVER_QUEUE),
            }
        });
        Self {
            fill_latency: cfg.mm.fill_latency,
            mms,
            data_faults,
            hw_faults: FaultBuffer::with_capacity(cfg.pw_warp.fault_buffer_entries),
            plan,
            ..Self::default()
        }
    }

    /// Whether `vpn`'s fill replay is still in flight.
    pub(crate) fn is_filling(&self, asid: Asid, vpn: Vpn) -> bool {
        self.pending_fills.contains_key(&(asid, vpn))
    }

    /// Hands a translation to the service queue: a faulted walk, or
    /// (`refill`) a page whose frame failed its checksum. A genuinely
    /// unmapped page under demand paging is a major fault and costs the
    /// page-fill latency; anything else is the injected-fault repair path.
    pub(crate) fn escalate(
        &mut self,
        now: Cycle,
        asid: Asid,
        vpn: Vpn,
        issued_at: Cycle,
        refill: bool,
        mem: &Memory,
    ) {
        let delay = if !self.mms.is_empty() && !mem.is_mapped(asid, vpn) {
            self.fill_latency
        } else {
            self.plan.driver_latency
        };
        let req = DriverReq {
            asid,
            vpn,
            issued_at,
            stalls: 0,
            refill,
        };
        self.driver_q.send(now + delay, req);
    }

    /// Takes a faulted walk into the service queue under an armed plan
    /// or demand paging (`false`: the translation fails outright).
    /// Hardware walks have no FFB instruction; the walker reports the
    /// fault directly (level 0 = escalation, the walk level is not
    /// preserved). Genuine major faults (demand paging) bypass the bounded
    /// injection fault buffer — they are not injections and must not
    /// consume its capacity.
    pub(crate) fn take_fault(
        &mut self,
        now: Cycle,
        asid: Asid,
        vpn: Vpn,
        issued_at: Cycle,
        hardware: bool,
        mem: &Memory,
    ) -> bool {
        let armed = self.plan.enabled();
        if !armed && self.mms.is_empty() {
            return false;
        }
        let injected = armed && (self.mms.is_empty() || mem.is_mapped(asid, vpn));
        if hardware && injected {
            self.hw_faults.record(FaultRecord {
                asid,
                vpn,
                level: 0,
                at: now,
            });
        }
        self.escalate(now, asid, vpn, issued_at, false, mem);
        true
    }

    /// An injected read drop no walker was waiting for (its watchdog had
    /// already re-issued the read): recovered by construction.
    pub(crate) fn note_orphan_drop(&mut self) {
        self.fault_counters.recovered_injections += 1;
    }

    /// A translation of `vpn` reached SM `sm`'s L1 TLB.
    pub(crate) fn note_l1_fill(&mut self, asid: Asid, vpn: Vpn, sm: usize) {
        if !self.mms.is_empty() {
            *self.l1_holders.entry((asid, vpn)).or_insert(0) |= 1 << (sm % 64);
        }
    }

    /// Serves the messages due at `now`, service requests before timers,
    /// up to the first that leaves work for the GPU; `None` once no more
    /// are due.
    pub(crate) fn next(&mut self, now: Cycle, uvm: &mut Uvm<'_>) -> Option<Action> {
        loop {
            let action = if let Some(req) = self.driver_q.recv(now) {
                self.serve(now, req, uvm)
            } else {
                match self.mm_events.recv(now)? {
                    MmEvent::FillWatchdog {
                        asid,
                        vpn,
                        generation,
                    } => self.on_fill_watchdog(now, asid, vpn, generation, uvm),
                    MmEvent::DelayedReplay {
                        asid,
                        vpn,
                        issued_at,
                    } => Action::replay(asid, vpn, issued_at, 1),
                }
            };
            if action.is_some() {
                return action;
            }
        }
    }

    /// Serves one escalated translation. If the page is genuinely mapped
    /// (the escalation came from injected faults), the driver has
    /// "repaired" the PTE and replays the walk; otherwise the fault is
    /// real, and is filled under demand paging or fails.
    fn serve(&mut self, now: Cycle, req: DriverReq, uvm: &mut Uvm<'_>) -> Option<Action> {
        let (asid, vpn, issued_at) = (req.asid, req.vpn, req.issued_at);
        if let Some(o) = uvm.obs.as_deref_mut() {
            o.instant(SpanKind::Fault, 0, now.value(), vpn.value(), 0);
        }
        // Injected driver-queue stall: service is deferred by one more
        // driver latency, bounded by the walk retry budget so a high rate
        // cannot park a request forever.
        if let Some(df) = self.data_faults.as_mut() {
            let p = &self.plan;
            if req.stalls < p.max_retries && df.driver_queue.fire(p.driver_stuck_rate) {
                self.mm_fault.injected_driver_stalls += 1;
                let stalled = DriverReq {
                    stalls: req.stalls + 1,
                    ..req
                };
                self.driver_q.send(now + p.driver_latency.max(1), stalled);
                return None;
            }
        }
        // Reaching service resolves every stall this request absorbed.
        self.mm_fault.recovered_fills += u64::from(req.stalls);
        let mapped = uvm.mem.is_mapped(asid, vpn);
        if mapped && req.refill {
            // Raced re-fill: another fault on this page already refilled
            // it, and that replayed walk (still in flight) will release
            // the waiters.
            return None;
        }
        if !mapped && self.mms.is_empty() {
            self.fault_counters.unrecoverable_faults += 1;
            let queue = now.since(issued_at);
            return Some(Action::Fail { asid, vpn, queue });
        }
        if let Some(o) = uvm.obs.as_deref_mut() {
            o.reg.inc(o.ids.driver_replays, 1);
        }
        if mapped {
            self.fault_counters.fault_replays += 1;
            return Action::replay(asid, vpn, issued_at, 1);
        }
        // Major fault: the tenant's manager populates the page (possibly
        // evicting past the budget), shoots the victims out of the
        // tenant's TLB entries, and replays the walk.
        let mm = &mut self.mms[asid.index()];
        let space = &mut uvm.mem.spaces[asid.index()];
        let mut evicted = std::mem::take(&mut self.evicted);
        evicted.clear();
        let outcome = mm.service_fault(vpn, space, &mut uvm.mem.phys, &mut evicted);
        mm.stats_mut().major_replays += 1;
        // Shootdown site: an armed plan may drop the message, leaving the
        // stale translation in the shared L2 TLB (the per-SM L1s are shot
        // down on a separate, reliable path).
        let rate = self.plan.shootdown_drop_rate;
        for &victim in &evicted {
            if self
                .data_faults
                .as_mut()
                .is_some_and(|df| df.shootdown.fire(rate))
            {
                self.mm_fault.injected_shootdown_drops += 1;
                *self.stale_shootdowns.entry((asid, victim)).or_insert(0) += 1;
            } else {
                // Post-condition of the duplicate-tag fill fix: set
                // uniqueness means a shootdown can never find more than
                // one valid way per array.
                let dropped = uvm.l2.invalidate(asid, victim);
                debug_assert!(dropped <= 1, "duplicate L2 TLB ways for {victim:?}");
            }
            self.shoot_down_l1(asid, victim, uvm.sms);
        }
        self.evicted = evicted;
        self.pending_fills
            .entry((asid, vpn))
            .or_default()
            .generation = outcome.generation;
        if let Some(df) = self.data_faults.as_mut() {
            // Payload site: garble the filled frame's stamped word; the
            // end-to-end checksum catches it when a consumer's
            // translation delivers the frame.
            if df.fill_payload.fire(self.plan.fill_corrupt_rate) {
                self.mm_fault.injected_fill_corruptions += 1;
                let garble = df.fill_payload.draw_u64();
                self.mms[asid.index()].corrupt_frame(outcome.pfn, garble, &mut uvm.mem.phys);
            }
        }
        self.deliver_fill(now, asid, vpn, issued_at)
    }

    /// Hands a completed fill to the walk machinery through the
    /// fill-completion fault site: the completion may additionally be
    /// duplicated (an extra replayed walk races the real one), dropped
    /// (a generation-counted watchdog recovers it), or delayed. Unarmed
    /// runs replay the walk with no RNG draws.
    fn deliver_fill(
        &mut self,
        now: Cycle,
        asid: Asid,
        vpn: Vpn,
        issued_at: Cycle,
    ) -> Option<Action> {
        let (dup, drop, delay) = match self.data_faults.as_mut() {
            None => (false, false, false),
            Some(df) => {
                let p = &self.plan;
                (
                    df.fill_complete.fire(p.fill_duplicate_rate),
                    df.fill_complete.fire(p.fill_drop_rate),
                    df.fill_complete.fire(p.fill_delay_rate),
                )
            }
        };
        let mut walks = 0;
        if dup {
            self.mm_fault.injected_fill_duplicates += 1;
            *self.dup_fills.entry((asid, vpn)).or_insert(0) += 1;
            walks += 1;
        }
        if drop {
            self.drop_fill(now, asid, vpn);
        } else if delay {
            self.mm_fault.injected_fill_delays += 1;
            let replay = MmEvent::DelayedReplay {
                asid,
                vpn,
                issued_at,
            };
            self.mm_events
                .send(now + self.plan.fill_delay_cycles.max(1), replay);
        } else {
            walks += 1;
        }
        if walks == 0 {
            return None;
        }
        Action::replay(asid, vpn, issued_at, walks)
    }

    /// A fill watchdog fired. If the fill it guarded is still outstanding
    /// (same generation, a drop still pending), re-issue the completion
    /// with exponential backoff; once the retry budget is spent, escalate
    /// into the fault buffer and hand the page back to the driver replay
    /// path (which is guaranteed — no further injection on that leg).
    fn on_fill_watchdog(
        &mut self,
        now: Cycle,
        asid: Asid,
        vpn: Vpn,
        generation: u64,
        uvm: &mut Uvm<'_>,
    ) -> Option<Action> {
        let tracker = self.pending_fills.get_mut(&(asid, vpn))?; // Fill already consumed.
        if tracker.generation != generation || tracker.drop_pending == 0 {
            return None; // Stale watchdog: the page was refilled since.
        }
        self.mm_fault.fill_watchdog_timeouts += 1;
        tracker.retries += 1;
        if tracker.retries > self.plan.max_retries {
            self.mm_fault.escalated_fills += std::mem::take(&mut tracker.drop_pending);
            tracker.retries = 0;
            self.hw_faults.record(FaultRecord {
                asid,
                vpn,
                level: 0,
                at: now,
            });
            let replay = MmEvent::DelayedReplay {
                asid,
                vpn,
                issued_at: now,
            };
            self.mm_events
                .send(now + self.plan.driver_latency.max(1), replay);
            return None;
        }
        self.mm_fault.fill_retries += 1;
        if let Some(o) = uvm.obs.as_deref_mut() {
            let retries = u64::from(tracker.retries);
            o.instant(SpanKind::FillRetry, 0, now.value(), vpn.value(), retries);
        }
        let df = self
            .data_faults
            .as_mut()
            .expect("watchdog without armed data faults");
        if !df.fill_complete.fire(self.plan.fill_drop_rate) {
            return Action::replay(asid, vpn, now, 1);
        }
        self.drop_fill(now, asid, vpn);
        None
    }

    /// An injected drop of `vpn`'s fill completion: a watchdog armed for
    /// the fill's generation recovers it after a backoff.
    fn drop_fill(&mut self, now: Cycle, asid: Asid, vpn: Vpn) {
        self.mm_fault.injected_fill_drops += 1;
        let tracker = self.pending_fills.entry((asid, vpn)).or_default();
        tracker.drop_pending += 1;
        let generation = tracker.generation;
        let wake = now + self.plan.backoff_cycles(tracker.retries);
        let watchdog = MmEvent::FillWatchdog {
            asid,
            vpn,
            generation,
        };
        self.mm_events.send(wake, watchdog);
    }

    /// Screens an L2 TLB hit. A hit on an entry a dropped shootdown left
    /// stale fails its checksum at consumption: the entry is purged and
    /// `false` returned, so the caller re-processes the request, which
    /// then misses and walks the real mapping.
    pub(crate) fn accept_hit(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        pfn: Pfn,
        phys: &PhysMem,
        l2: &mut L2TlbComplex<SmId>,
    ) -> bool {
        if self.data_faults.is_some()
            && self.mms[asid.index()].verify(vpn, pfn, phys) != FrameCheck::Ok
        {
            self.stale_hit(asid, vpn);
            l2.invalidate(asid, vpn);
            return false;
        }
        self.touch(asid, vpn);
        true
    }

    /// Screens a finished walk's translation before it reaches its
    /// waiters and settles the page's fill. `false` keeps it from them:
    /// its frame failed the end-to-end checksum (the page is quarantined,
    /// retiring repeat-offender frames, and re-filled; the MSHR waiters
    /// stay parked until the re-filled walk completes), or it is the
    /// phantom of a duplicated completion the real one already delivered.
    pub(crate) fn screen(
        &mut self,
        now: Cycle,
        asid: Asid,
        vpn: Vpn,
        pfn: Option<Pfn>,
        uvm: &mut Uvm<'_>,
    ) -> bool {
        let check = match pfn {
            Some(p) if self.data_faults.is_some() => {
                self.mms[asid.index()].verify(vpn, p, &uvm.mem.phys)
            }
            _ => FrameCheck::Ok,
        };
        match check {
            FrameCheck::Ok => {}
            FrameCheck::Stale => self.stale_hit(asid, vpn),
            FrameCheck::Corrupt => {
                self.mm_fault.detected_corruptions += 1;
                let space = &mut uvm.mem.spaces[asid.index()];
                let mm = &mut self.mms[asid.index()];
                if mm.quarantine_page(vpn, space, &mut uvm.mem.phys) {
                    self.mm_fault.retired_fills += 1;
                } else {
                    self.mm_fault.recovered_fills += 1;
                }
            }
        }
        let pending = self.pending_fills.remove(&(asid, vpn));
        if let Some(t) = pending {
            self.mm_fault.recovered_fills += t.drop_pending;
        }
        if check != FrameCheck::Ok {
            uvm.l2.invalidate(asid, vpn);
            self.shoot_down_l1(asid, vpn, uvm.sms);
            self.escalate(now, asid, vpn, now, true, uvm.mem);
            return false;
        }
        if let (None, Some(_)) = (pending, pfn) {
            if let Some(n) = self.dup_fills.get_mut(&(asid, vpn)) {
                // Phantom duplicated completion: the real one already
                // finished this fill and released the waiters, so this
                // racing walk is absorbed.
                self.mm_fault.recovered_fills += 1;
                *n -= 1;
                if *n == 0 {
                    self.dup_fills.remove(&(asid, vpn));
                }
                return false;
            }
        }
        if pfn.is_some() {
            // A fresh walk re-established the mapping a dropped shootdown
            // left dangling: the hazard is gone.
            self.clear_stale(asid, vpn);
            self.touch(asid, vpn);
        }
        true
    }

    /// A checksum caught a translation a dropped shootdown left stale.
    fn stale_hit(&mut self, asid: Asid, vpn: Vpn) {
        self.mm_fault.detected_stale_hits += 1;
        self.clear_stale(asid, vpn);
    }

    fn clear_stale(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(n) = self.stale_shootdowns.remove(&(asid, vpn)) {
            self.mm_fault.recovered_fills += n;
        }
    }

    fn touch(&mut self, asid: Asid, vpn: Vpn) {
        if let Some(mm) = self.mms.get_mut(asid.index()) {
            mm.touch(vpn);
        }
    }

    /// Shoots `vpn` out of the L1 TLB of every SM of `asid` that may
    /// cache it, as marked in the holder directory, and clears its entry.
    /// An unmarked SM has not received the translation since the page's
    /// last shootdown, so an `invalidate` there would find no tag and
    /// touch nothing (no tick, LRU state or counter).
    fn shoot_down_l1(&mut self, asid: Asid, vpn: Vpn, sms: &mut [Sm]) {
        let mut bits = self.l1_holders.remove(&(asid, vpn)).unwrap_or(0);
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            for sm in sms.iter_mut().skip(bit).step_by(64) {
                if sm.asid() == asid {
                    let dropped = sm.invalidate_translation(vpn);
                    debug_assert!(dropped <= 1, "duplicate L1 TLB ways for {vpn:?}");
                }
            }
        }
        for (i, sm) in sms.iter().enumerate() {
            debug_assert!(
                sm.asid() != asid || !sm.holds_translation(vpn),
                "SM {i} still holds {vpn:?} after its shootdown"
            );
        }
    }

    /// Folds the driver's counters into `stats`: the managers' paging
    /// counters, and injection credits that never resolved in-run.
    /// Duplicated completions whose phantom walk was coalesced away and
    /// dangling dropped-shootdown entries are harmless by construction
    /// (recovered); drops whose watchdog never got to fire count as
    /// escalated, mirroring their in-run terminal state. A run stopped at
    /// the cycle cap can still hold injections with no terminal state (a
    /// corrupted frame nobody consumed yet), so the data-path ledger
    /// closes on drained runs only.
    pub(crate) fn fold(mut self, stats: &mut SimStats) {
        for mm in &self.mms {
            stats.mm.merge(&mm.stats());
            // Corruptions caught by the eviction scrub (and the frames it
            // retired) are counted inside the manager.
            self.mm_fault.merge(&mm.fault_stats());
        }
        if !self.mms.is_empty() {
            stats.mm.sw_fill_replays = stats.pw_warp.fill_replays;
        }
        self.mm_fault.recovered_fills += self.dup_fills.values().sum::<u64>();
        self.mm_fault.recovered_fills += self.stale_shootdowns.values().sum::<u64>();
        let pending = self.pending_fills.values().map(|t| t.drop_pending);
        self.mm_fault.escalated_fills += pending.sum::<u64>();
        stats.mm_fault = self.mm_fault;
        stats.fault.merge(&self.fault_counters);
        stats.fault.fault_buffer_overflow_drops += self.hw_faults.overflow_dropped();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_pt::AddressSpace;
    use swgpu_types::MmConfig;

    const P: Vpn = Vpn::new(7);
    const Q: Vpn = Vpn::new(9);

    /// A demand-paged single-tenant driver (10-cycle fills, `budget`
    /// resident pages) under `plan`, with the memory and L2 TLB it serves.
    fn rig(budget: u64, plan: FaultPlan) -> (Driver, Memory, L2TlbComplex<SmId>) {
        let mut cfg = GpuConfig::quick_test();
        cfg.mm = MmConfig {
            resident_page_budget: budget,
            fill_latency: 10,
            ..MmConfig::demand_paged()
        };
        cfg.fault_plan = plan;
        let mut phys = PhysMem::new();
        let space = AddressSpace::new(cfg.page_size, &mut phys);
        let mem = Memory::new(phys, vec![space], None, cfg.pwc_entries);
        let l2 = L2TlbComplex::new(cfg.l2_tlb.clone(), cfg.l2_mshr, 0);
        (Driver::new(&cfg), mem, l2)
    }

    /// Serves every message due in `from..=to`, cycle by cycle, and
    /// returns the actions with the cycle each was handed out.
    fn serve(
        d: &mut Driver,
        mem: &mut Memory,
        l2: &mut L2TlbComplex<SmId>,
        from: u64,
        to: u64,
    ) -> Vec<(u64, Action)> {
        let mut out = Vec::new();
        for t in from..=to {
            let mut uvm = Uvm {
                mem: &mut *mem,
                l2: &mut *l2,
                sms: &mut [],
                obs: None,
            };
            while let Some(a) = d.next(Cycle::new(t), &mut uvm) {
                out.push((t, a));
            }
        }
        out
    }

    fn fault(d: &mut Driver, mem: &Memory, at: u64, vpn: Vpn) {
        let at = Cycle::new(at);
        d.escalate(at, Asid::ZERO, vpn, at, false, mem);
    }

    #[test]
    fn watchdog_of_an_earlier_fill_generation_does_nothing() {
        let (mut d, mut mem, mut l2) = rig(
            1,
            FaultPlan {
                fill_drop_rate: 1.0,
                watchdog_cycles: 5_000,
                ..FaultPlan::default()
            },
        );
        // P is filled at 10 (its completion dropped, watchdog due at
        // 5010), evicted by Q's fill at 30, and refilled at 50 under a
        // later generation (dropped again, watchdog due at 5050).
        fault(&mut d, &mem, 0, P);
        assert!(serve(&mut d, &mut mem, &mut l2, 0, 19).is_empty());
        fault(&mut d, &mem, 20, Q);
        assert!(serve(&mut d, &mut mem, &mut l2, 20, 39).is_empty());
        fault(&mut d, &mem, 40, P);
        assert!(serve(&mut d, &mut mem, &mut l2, 40, 5_010).is_empty());
        assert_eq!(d.mm_fault.injected_fill_drops, 3);
        assert_eq!(
            d.mm_fault.fill_watchdog_timeouts, 0,
            "the first fill's watchdog fired into the refill"
        );
        serve(&mut d, &mut mem, &mut l2, 5_011, 5_050);
        assert_eq!(d.mm_fault.fill_watchdog_timeouts, 2, "Q's and P's refill");
    }

    #[test]
    fn redropped_fill_escalates_once_past_max_retries() {
        let (mut d, mut mem, mut l2) = rig(
            0,
            FaultPlan {
                fill_drop_rate: 1.0,
                watchdog_cycles: 100,
                max_retries: 2,
                ..FaultPlan::default()
            },
        );
        // Watchdogs at 110, 310 and 710 (backoff doubling); the third
        // exceeds the two retries and escalates with a delayed replay.
        fault(&mut d, &mem, 0, P);
        let actions = serve(&mut d, &mut mem, &mut l2, 0, 20_000);
        let replay = Action::Replay {
            asid: Asid::ZERO,
            vpn: P,
            issued_at: Cycle::new(710),
            walks: 1,
        };
        assert_eq!(actions, vec![(2_710, replay)]);
        assert_eq!(d.hw_faults.len(), 1, "one fault-buffer record");
        let m = &d.mm_fault;
        assert_eq!((m.fill_watchdog_timeouts, m.fill_retries), (3, 2));
        assert_eq!((m.injected_fill_drops, m.escalated_fills), (3, 3));
        assert!(d.is_idle());
    }

    #[test]
    fn duplicated_completion_is_absorbed_exactly_once() {
        let (mut d, mut mem, mut l2) = rig(
            0,
            FaultPlan {
                fill_duplicate_rate: 1.0,
                ..FaultPlan::default()
            },
        );
        fault(&mut d, &mem, 0, P);
        let actions = serve(&mut d, &mut mem, &mut l2, 0, 10);
        assert!(matches!(
            actions[..],
            [(10, Action::Replay { walks: 2, .. })]
        ));
        let pfn = mem.spaces[0].radix().translate(P, &mem.phys);
        assert!(pfn.is_some());
        let mut uvm = Uvm {
            mem: &mut mem,
            l2: &mut l2,
            sms: &mut [],
            obs: None,
        };
        let now = Cycle::new(20);
        let delivered: Vec<bool> = (0..3)
            .map(|_| d.screen(now, Asid::ZERO, P, pfn, &mut uvm))
            .collect();
        // The real completion delivers, its phantom twin is absorbed, and
        // a later walk of the page delivers again.
        assert_eq!(delivered, [true, false, true]);
        assert_eq!(d.mm_fault.injected_fill_duplicates, 1);
        assert_eq!(d.mm_fault.recovered_fills, 1);
        assert!(d.dup_fills.is_empty());
    }
}
