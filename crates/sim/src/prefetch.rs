//! WaSP-style translation prefetch into idle PW Warp threads.

use crate::config::PrefetchConfig;
use crate::driver::Driver;
use crate::memory::Memory;
use crate::stats::SimStats;
use crate::tenants::TenantTable;
use softwalker::{PwWarpUnit, RequestDistributor};
use std::collections::VecDeque;
use swgpu_sm::InstrSource;
use swgpu_tlb::{L2MissOutcome, L2TlbComplex};
use swgpu_types::{Asid, FastSet, SmId, Vpn, WarpId};

/// The L2 MSHR meta a translation prefetch registers as its "waiter".
/// No SM has this id; walk completion filters it from the waiter list
/// instead of delivering a translation to it.
pub(crate) const PREFETCH_REQUESTER: SmId = SmId::new(u16::MAX);

/// What a prefetch scan reads of the machine, and the L2 TLB MSHRs,
/// walk counts and PW Warp slots it claims.
pub(crate) struct Scan<'a> {
    pub(crate) pw_warps: &'a [PwWarpUnit],
    pub(crate) source: &'a dyn InstrSource,
    pub(crate) l2: &'a mut L2TlbComplex<SmId>,
    pub(crate) tenants: &'a mut TenantTable,
    pub(crate) driver: &'a Driver,
    pub(crate) mem: &'a Memory,
    pub(crate) distributor: &'a mut RequestDistributor,
}

/// The prefetcher (inert unless `cfg.enabled`).
#[derive(Default)]
pub(crate) struct Prefetcher {
    cfg: PrefetchConfig,
    max_warps: usize,
    // Pages whose prefetch walk is still in flight, and the rotation
    // cursor over (sm, warp) streams.
    live: FastSet<(Asid, Vpn)>,
    cursor: usize,
    // The counters the TLB cannot see: issues, demand merges onto live
    // prefetch walks, failed prefetch walks.
    issued: u64,
    late: u64,
    failed: u64,
    // The walks the last scan started: (core, page).
    started: VecDeque<(SmId, Asid, Vpn)>,
    // Which cores' PW Warps have an idle thread, refilled by each scan.
    idle: Vec<bool>,
}

impl Prefetcher {
    pub(crate) fn new(cfg: PrefetchConfig, max_warps: usize) -> Self {
        Self {
            cfg,
            max_warps,
            ..Self::default()
        }
    }

    /// Whether the kernel must run a scan this cycle: an armed prefetcher
    /// scans every cycle some PW Warp has an idle thread, because each
    /// scan advances the rotation cursor even when it issues nothing.
    pub(crate) fn polls(&self, pw_warps: &[PwWarpUnit]) -> bool {
        self.cfg.enabled && pw_warps.iter().any(|p| p.idle_thread_slots() > 0)
    }

    /// Peeks the next loads of a rotating window of warp streams, and for
    /// pages that are neither translated nor being walked, claims an L2
    /// TLB MSHR with [`PREFETCH_REQUESTER`] as its waiter and a core whose
    /// PW Warp has idle threads. The walks to send are then popped with
    /// [`Prefetcher::pop_started`]. Prefetch walks install tagged fills,
    /// so a demand miss arriving first merges normally (counted late) and
    /// an unused fill is preferentially evicted. One branch when disabled.
    pub(crate) fn scan(&mut self, s: &mut Scan<'_>) {
        let pf = self.cfg;
        if !pf.enabled || s.pw_warps.is_empty() {
            return;
        }
        self.idle.clear();
        self.idle
            .extend(s.pw_warps.iter().map(|p| p.idle_thread_slots() > 0));
        if !self.idle.contains(&true) {
            return;
        }
        let streams = s.pw_warps.len() * self.max_warps;
        let mut issued = 0;
        // Bounding the scan keeps the per-cycle cost proportional to the
        // configured degree, not to the SM x warp product.
        let scan_cap = (pf.degree as usize * 4).min(streams);
        'streams: for _ in 0..scan_cap {
            if issued >= pf.degree {
                break;
            }
            let stream = self.cursor % streams;
            self.cursor = (stream + 1) % streams;
            let sm = SmId::new((stream / self.max_warps) as u16);
            let warp = WarpId::new((stream % self.max_warps) as u16);
            let asid = s.tenants.asid_of(sm);
            if s.tenants.at_walk_cap(asid) {
                // QoS: the issuing tenant is at its walk cap — demand
                // walks must not compete with its speculation either.
                continue 'streams;
            }
            for vpn in s.source.peek_load_vpns(sm, warp, pf.lookahead) {
                if issued >= pf.degree {
                    break 'streams;
                }
                let (valid, pending) = s.l2.tlb().tag_population(asid, vpn);
                if valid > 0
                    || pending > 0
                    || s.l2.is_walk_in_flight(asid, vpn)
                    || self.live.contains(&(asid, vpn))
                    || s.driver.is_filling(asid, vpn)
                    || !s.mem.is_mapped(asid, vpn)
                {
                    continue;
                }
                // Partitioned: a tenant's prefetch walks may only occupy PW
                // Warp threads inside that tenant's own SM partition.
                let mask = s.tenants.sms_of(asid);
                let Some(target) = s.distributor.select_idle_core(&self.idle, mask) else {
                    break 'streams;
                };
                match s.l2.access(asid, vpn, PREFETCH_REQUESTER) {
                    L2MissOutcome::MissNewWalk => {
                        self.live.insert((asid, vpn));
                        self.issued += 1;
                        s.tenants.walk_started(asid);
                        issued += 1;
                        self.started.push_back((target, asid, vpn));
                    }
                    // No MSHR capacity (or a same-cycle race filled the
                    // entry): release the charged slot and stop — the
                    // condition will not clear within this cycle.
                    _ => {
                        s.distributor.on_fill(target);
                        break 'streams;
                    }
                }
            }
        }
    }

    /// The next prefetch walk the last scan started: its core and page.
    pub(crate) fn pop_started(&mut self) -> Option<(SmId, Asid, Vpn)> {
        self.started.pop_front()
    }

    /// A demand miss merged onto the walk of `vpn`: a live prefetch walk
    /// was correct but late, and now has a real waiter, so its fills
    /// install untagged.
    pub(crate) fn merged(&mut self, asid: Asid, vpn: Vpn) {
        if self.live.remove(&(asid, vpn)) {
            self.late += 1;
        }
    }

    /// The walk of `vpn` finished: whether it is still a pure prefetch (no
    /// demand miss merged onto it), whose fills install tagged so the TLB
    /// can track whether it ever pays off. A failed prefetch walk is
    /// accounted as evicted — it produced nothing.
    pub(crate) fn finished(&mut self, asid: Asid, vpn: Vpn, failed: bool) -> bool {
        let pure = self.live.remove(&(asid, vpn));
        if pure && failed {
            self.failed += 1;
        }
        pure
    }

    /// The prefetch ledger. It closes at any stopping point: every issued
    /// prefetch is useful (first demand hit on its fill), late (demand
    /// merged onto its walk), evicted (fill discarded untouched, or the
    /// walk failed), or still in flight (walk live, or fill resident and
    /// untouched).
    pub(crate) fn fold(&self, l2: &L2TlbComplex<SmId>, stats: &mut SimStats) {
        let tlb = l2.tlb_stats();
        stats.prefetch_issued = self.issued;
        stats.prefetch_useful = tlb.prefetch_hits;
        stats.prefetch_late = self.late;
        stats.prefetch_evicted = tlb.prefetch_evictions + self.failed;
        stats.prefetch_in_flight = self.live.len() as u64 + l2.tlb().prefetched_resident() as u64;
    }
}
