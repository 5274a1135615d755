//! The shared L2 TLB complex: TLB array + dedicated MSHRs + In-TLB MSHR.
//!
//! This is where the paper's In-TLB MSHR mechanism (Section 4.5, Figure 13)
//! lives. On a miss:
//!
//! 1. If the VPN is already tracked by a dedicated MSHR, merge (up to the
//!    46-waiter limit).
//! 2. Else if a dedicated MSHR entry is free, allocate one and launch a
//!    walk.
//! 3. Else — dedicated MSHRs saturated — repurpose a victim L2 TLB entry in
//!    the VPN's set as a *pending* entry holding the miss metadata. Each
//!    merged waiter reserves its own same-tag way, exactly as the paper
//!    describes ("we allow the In-TLB MSHR to reserve the same tag in a set
//!    index to support the MSHR merge").
//! 4. If the set has no reservable way (all ways pending) or the In-TLB
//!    budget is exhausted, the miss is rejected: an **MSHR failure**, the
//!    quantity Figure 17 reports.
//!
//! Being the *shared* level, every tag here — array, dedicated MSHR, and
//! In-TLB reservation alike — is the full `(Asid, Vpn)` pair: concurrent
//! tenants missing on the same VPN run independent walks, and shootdowns
//! are scoped to one tenant. The opt-in sub-entry sharing and way
//! partitioning modes of the underlying [`Tlb`] are exposed through
//! [`L2TlbComplex::set_sub_entry_sharing`] and
//! [`L2TlbComplex::set_way_partition`].

use crate::mshr::{TlbMshr, TlbMshrConfig};
use crate::tlb::{TagLookup, Tlb, TlbConfig, TlbStats};
use std::iter::Chain;
use swgpu_types::{Asid, MshrOutcome, MshrSlab, Pfn, Released, Vpn};

/// Waiters a resolved walk releases: the dedicated MSHR's, then the
/// In-TLB overflow's, each in arrival order.
pub type Waiters<'a, M> = Chain<Released<'a, M>, Released<'a, M>>;

/// Outcome of presenting a request to [`L2TlbComplex::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L2MissOutcome {
    /// Valid translation found.
    Hit(Pfn),
    /// Miss tracked (dedicated or In-TLB); the caller must launch a page
    /// walk for this VPN.
    MissNewWalk,
    /// Miss merged into an in-flight walk; no new walk needed.
    MissMerged,
    /// Miss rejected — both the dedicated MSHRs and the In-TLB overflow
    /// are unavailable. The requester must retry.
    MshrFailure,
}

/// Statistics specific to the In-TLB MSHR path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InTlbStats {
    /// Misses tracked by repurposed TLB entries (new walks).
    pub in_tlb_allocations: u64,
    /// Waiters merged via additional same-tag pending ways.
    pub in_tlb_merges: u64,
    /// Misses rejected with the dedicated file full (before considering
    /// the In-TLB path) — the baseline failure count.
    pub dedicated_rejections: u64,
    /// Misses rejected outright (MSHR failures after both paths).
    pub total_failures: u64,
}

/// The shared L2 TLB with its MSHR file and optional In-TLB MSHR overflow.
///
/// Generic over the waiter metadata `M` (the simulator parks the
/// requesting SM / translation id here).
///
/// # Example
///
/// ```
/// use swgpu_tlb::{L2MissOutcome, L2TlbComplex, TlbConfig, TlbMshrConfig};
/// use swgpu_types::{Asid, Pfn, Vpn};
///
/// let mut l2: L2TlbComplex<u32> = L2TlbComplex::new(
///     TlbConfig::l2(),
///     TlbMshrConfig { entries: 1, max_merges: 1 },
///     1024,
/// );
/// let t = Asid::ZERO;
/// assert_eq!(l2.access(t, Vpn::new(1), 100), L2MissOutcome::MissNewWalk);
/// // Dedicated MSHR now full; the next miss overflows into the TLB array.
/// assert_eq!(l2.access(t, Vpn::new(2), 200), L2MissOutcome::MissNewWalk);
/// assert_eq!(l2.pending_in_tlb(), 1);
/// let waiters = l2.complete_walk(t, Vpn::new(2), Pfn::new(7));
/// assert!(waiters.eq([200]));
/// assert_eq!(l2.access(t, Vpn::new(2), 201), L2MissOutcome::Hit(Pfn::new(7)));
/// ```
#[derive(Debug)]
pub struct L2TlbComplex<M> {
    tlb: Tlb,
    mshr: TlbMshr<M>,
    in_tlb_max: usize,
    overflow_waiters: MshrSlab<(Asid, Vpn), M>,
    stats: InTlbStats,
}

impl<M> L2TlbComplex<M> {
    /// Creates the complex. `in_tlb_max` is the maximum number of TLB
    /// entries that may simultaneously serve as MSHRs (0 disables the
    /// mechanism — the baseline configuration).
    pub fn new(tlb_cfg: TlbConfig, mshr_cfg: TlbMshrConfig, in_tlb_max: usize) -> Self {
        Self {
            tlb: Tlb::new(tlb_cfg),
            mshr: TlbMshr::new(mshr_cfg),
            in_tlb_max,
            // Each waiter holds one pending way, so `in_tlb_max` bounds
            // the overflow already.
            overflow_waiters: MshrSlab::new(usize::MAX, usize::MAX),
            stats: InTlbStats::default(),
        }
    }

    /// TLB-array statistics (hits, misses, fills, evictions).
    pub fn tlb_stats(&self) -> TlbStats {
        self.tlb.stats()
    }

    /// Dedicated-MSHR statistics.
    pub fn mshr_stats(&self) -> crate::mshr::TlbMshrStats {
        self.mshr.stats()
    }

    /// In-TLB MSHR statistics.
    pub fn in_tlb_stats(&self) -> InTlbStats {
        self.stats
    }

    /// Entries currently repurposed as In-TLB MSHRs.
    pub fn pending_in_tlb(&self) -> usize {
        self.tlb.pending_entries()
    }

    /// Distinct VPNs tracked by the dedicated MSHR file.
    pub fn dedicated_in_flight(&self) -> usize {
        self.mshr.in_flight()
    }

    /// Distinct `(asid, vpn)` tags with in-flight walks across both
    /// tracking paths.
    pub fn walks_in_flight(&self) -> usize {
        self.mshr.in_flight() + self.overflow_waiters.len()
    }

    /// Requesters parked in the overflow wait list because every MSHR
    /// (dedicated and In-TLB alike) was occupied — a gauge the
    /// observability layer samples to expose MSHR pressure over time.
    pub fn overflow_waiting(&self) -> usize {
        self.overflow_waiters.len()
    }

    /// Direct read-only access to the TLB array.
    pub fn tlb(&self) -> &Tlb {
        &self.tlb
    }

    /// MIG-style static way partitioning of the underlying array:
    /// `partition[asid] = (first_way, ways)` confines each tenant's fills
    /// and In-TLB reservations to its window. See
    /// [`Tlb::set_way_partition`].
    pub fn set_way_partition(&mut self, partition: Vec<(usize, usize)>) {
        self.tlb.set_way_partition(partition);
    }

    /// Enables sub-entry sharing in the underlying array: identically
    /// mapped `(vpn, pfn)` pairs across tenants collapse onto one way.
    /// See [`Tlb::set_sub_entry_sharing`].
    pub fn set_sub_entry_sharing(&mut self, on: bool) {
        self.tlb.set_sub_entry_sharing(on);
    }

    /// Presents a translation request for `(asid, vpn)`, parking `meta`
    /// on a miss.
    pub fn access(&mut self, asid: Asid, vpn: Vpn, meta: M) -> L2MissOutcome {
        // One pass over the set answers both "cached?" and "already
        // tracked in the array?".
        let pending = match self.tlb.lookup_or_pending(asid, vpn) {
            TagLookup::Hit(pfn) => return L2MissOutcome::Hit(pfn),
            TagLookup::Pending => true,
            TagLookup::Miss => false,
        };

        // Already tracked by a dedicated MSHR? Merge there.
        let meta = match self.mshr.merge(asid, vpn, meta) {
            Ok(MshrOutcome::Merged) => return L2MissOutcome::MissMerged,
            Ok(MshrOutcome::Full(_)) => {
                self.stats.total_failures += 1;
                return L2MissOutcome::MshrFailure;
            }
            Ok(MshrOutcome::Allocated) => unreachable!("a merge allocates nothing"),
            Err(meta) => meta,
        };

        // Already tracked by the In-TLB path? Merge by reserving another
        // same-tag way.
        if pending {
            return self.try_in_tlb(asid, vpn, meta, /* merge: */ true);
        }

        // New miss: prefer a dedicated MSHR entry.
        if !self.mshr.is_full() {
            match self.mshr.allocate(asid, vpn, meta) {
                MshrOutcome::Allocated => return L2MissOutcome::MissNewWalk,
                _ => unreachable!("is_full() checked and tag untracked"),
            }
        }

        // Dedicated file saturated — Figure 13 step 1.
        self.stats.dedicated_rejections += 1;
        self.try_in_tlb(asid, vpn, meta, /* merge: */ false)
    }

    fn try_in_tlb(&mut self, asid: Asid, vpn: Vpn, meta: M, merge: bool) -> L2MissOutcome {
        if self.in_tlb_max == 0 || self.tlb.pending_entries() >= self.in_tlb_max {
            self.stats.total_failures += 1;
            return L2MissOutcome::MshrFailure;
        }
        if !self.tlb.reserve_pending(asid, vpn) {
            // Every way in the set is already pending — the per-set
            // bottleneck (spmv in Figure 24).
            self.stats.total_failures += 1;
            return L2MissOutcome::MshrFailure;
        }
        let parked = self.overflow_waiters.allocate((asid, vpn), meta);
        debug_assert!(
            !matches!(parked, MshrOutcome::Full(_)),
            "overflow is unbounded"
        );
        if merge {
            self.stats.in_tlb_merges += 1;
            L2MissOutcome::MissMerged
        } else {
            self.stats.in_tlb_allocations += 1;
            L2MissOutcome::MissNewWalk
        }
    }

    /// Single-page shootdown scoped to one tenant: drops the cached
    /// translation for `(asid, vpn)` without disturbing other tenants'
    /// entries for the same VPN or in-flight MSHR walks (their waiters
    /// are still released when the walk completes; the walk itself
    /// re-reads the updated page table). Returns the number of entries
    /// dropped.
    pub fn invalidate(&mut self, asid: Asid, vpn: Vpn) -> usize {
        self.tlb.invalidate(asid, vpn)
    }

    /// Tenant-teardown flush: drops every cached claim `asid` holds in
    /// the array — valid entries, sub-entry shares, and its In-TLB
    /// reservations (their overflow waiters are dropped too; teardown
    /// implies the tenant's requesters are gone). Dedicated-MSHR walks
    /// are left to complete and install harmlessly into the now-unused
    /// tag space. Returns the number of valid entries dropped.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        self.overflow_waiters.retain(|&(a, _)| a != asid);
        self.tlb.flush_asid(asid)
    }

    /// Whether a walk for `(asid, vpn)` is currently in flight (either
    /// path).
    pub fn is_walk_in_flight(&self, asid: Asid, vpn: Vpn) -> bool {
        self.mshr.contains(asid, vpn) || self.overflow_waiters.contains(&(asid, vpn))
    }

    /// Completes the walk for `(asid, vpn)`: installs the translation and
    /// returns every parked waiter (dedicated first, then In-TLB, each in
    /// arrival order).
    pub fn complete_walk(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn) -> Waiters<'_, M> {
        let overflow = self.overflow_waiters.remove(&(asid, vpn));
        if overflow.tracked() {
            self.tlb.clear_pending_and_fill(asid, vpn, pfn);
        } else {
            self.tlb.fill(asid, vpn, pfn);
        }
        self.mshr.resolve(asid, vpn).chain(overflow)
    }

    /// [`L2TlbComplex::complete_walk`] for a prefetch-initiated walk: the
    /// installed translation carries the prefetch tag so an unused
    /// prefetch is preferentially evicted and its fate is counted. The
    /// ASID is the issuing tenant's — a prefetch completes into its own
    /// tag space only.
    pub fn complete_walk_prefetched(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn) -> Waiters<'_, M> {
        let overflow = self.overflow_waiters.remove(&(asid, vpn));
        if overflow.tracked() {
            self.tlb.clear_pending_and_fill_prefetched(asid, vpn, pfn);
        } else {
            self.tlb.fill_prefetched(asid, vpn, pfn);
        }
        self.mshr.resolve(asid, vpn).chain(overflow)
    }

    /// Aborts the walk for `(asid, vpn)` without installing a translation
    /// (page fault): waiters are still released so they can observe the
    /// fault.
    pub fn fail_walk(&mut self, asid: Asid, vpn: Vpn) -> Waiters<'_, M> {
        let overflow = self.overflow_waiters.remove(&(asid, vpn));
        if overflow.tracked() {
            self.tlb.clear_pending(asid, vpn);
        }
        self.mshr.resolve(asid, vpn).chain(overflow)
    }

    /// Baseline-comparable MSHR failure count: with In-TLB disabled this
    /// equals total failures; with it enabled, the failures that remain.
    pub fn mshr_failures(&self) -> u64 {
        self.stats.total_failures
    }
}

impl<M> swgpu_types::Component for L2TlbComplex<M> {
    /// The complex is combinational — every state change happens inside a
    /// caller-driven `access`/`complete_walk`/`fail_walk`, so it never
    /// schedules an event of its own. Each in-flight walk it tracks is
    /// owned by a live walker (or a queued request) elsewhere, whose
    /// events drive completion; if that ever stops being true, the walk
    /// leaked and the kernel surfaces it as a visible timeout instead of
    /// silently dropping the waiters.
    fn next_event(&self) -> Option<swgpu_types::Cycle> {
        None
    }

    fn is_idle(&self) -> bool {
        self.walks_in_flight() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Asid = Asid::ZERO;
    const B: Asid = Asid(1);

    fn complex(mshr_entries: usize, in_tlb_max: usize) -> L2TlbComplex<u32> {
        L2TlbComplex::new(
            TlbConfig {
                name: "L2".into(),
                entries: 8,
                assoc: 4,
                repl: crate::ReplPolicy::Lru,
            },
            TlbMshrConfig {
                entries: mshr_entries,
                max_merges: 2,
            },
            in_tlb_max,
        )
    }

    #[test]
    fn hit_path() {
        let mut l2 = complex(4, 0);
        assert_eq!(l2.access(A, Vpn::new(1), 0), L2MissOutcome::MissNewWalk);
        assert!(l2.complete_walk(A, Vpn::new(1), Pfn::new(9)).eq([0]));
        assert_eq!(
            l2.access(A, Vpn::new(1), 1),
            L2MissOutcome::Hit(Pfn::new(9))
        );
    }

    #[test]
    fn dedicated_merge() {
        let mut l2 = complex(4, 0);
        assert_eq!(l2.access(A, Vpn::new(1), 0), L2MissOutcome::MissNewWalk);
        assert_eq!(l2.access(A, Vpn::new(1), 1), L2MissOutcome::MissMerged);
        // Merge limit is 2.
        assert_eq!(l2.access(A, Vpn::new(1), 2), L2MissOutcome::MshrFailure);
        assert!(l2.complete_walk(A, Vpn::new(1), Pfn::new(5)).eq([0, 1]));
    }

    #[test]
    fn baseline_fails_without_in_tlb() {
        let mut l2 = complex(1, 0);
        assert_eq!(l2.access(A, Vpn::new(1), 0), L2MissOutcome::MissNewWalk);
        assert_eq!(l2.access(A, Vpn::new(2), 1), L2MissOutcome::MshrFailure);
        assert_eq!(l2.mshr_failures(), 1);
        assert_eq!(l2.in_tlb_stats().dedicated_rejections, 1);
    }

    #[test]
    fn in_tlb_overflow_tracks_new_walks() {
        let mut l2 = complex(1, 8);
        assert_eq!(l2.access(A, Vpn::new(1), 0), L2MissOutcome::MissNewWalk);
        assert_eq!(l2.access(A, Vpn::new(2), 1), L2MissOutcome::MissNewWalk);
        assert_eq!(l2.pending_in_tlb(), 1);
        assert_eq!(l2.walks_in_flight(), 2);
        assert_eq!(l2.mshr_failures(), 0);
        // Completion resolves the overflow-tracked miss and installs it.
        assert!(l2.complete_walk(A, Vpn::new(2), Pfn::new(7)).eq([1]));
        assert_eq!(l2.pending_in_tlb(), 0);
        assert_eq!(
            l2.access(A, Vpn::new(2), 2),
            L2MissOutcome::Hit(Pfn::new(7))
        );
    }

    #[test]
    fn in_tlb_merge_reserves_same_tag_way() {
        let mut l2 = complex(1, 8);
        l2.access(A, Vpn::new(1), 0); // dedicated
        assert_eq!(l2.access(A, Vpn::new(2), 1), L2MissOutcome::MissNewWalk);
        assert_eq!(l2.access(A, Vpn::new(2), 2), L2MissOutcome::MissMerged);
        assert_eq!(l2.pending_in_tlb(), 2, "merge reserved a second way");
        assert_eq!(l2.in_tlb_stats().in_tlb_merges, 1);
        assert!(l2.complete_walk(A, Vpn::new(2), Pfn::new(7)).eq([1, 2]));
        assert_eq!(l2.pending_in_tlb(), 0);
    }

    #[test]
    fn in_tlb_budget_is_enforced() {
        let mut l2 = complex(1, 1);
        l2.access(A, Vpn::new(1), 0); // dedicated
        assert_eq!(l2.access(A, Vpn::new(2), 1), L2MissOutcome::MissNewWalk);
        assert_eq!(l2.access(A, Vpn::new(3), 2), L2MissOutcome::MshrFailure);
        assert_eq!(l2.mshr_failures(), 1);
    }

    #[test]
    fn per_set_exhaustion_fails() {
        // TLB: 2 sets x 4 ways. VPNs 0,2,4,6,8 all map to set 0.
        let mut l2 = complex(1, 64);
        l2.access(A, Vpn::new(1), 0); // dedicated (set 1)
        for (i, v) in [0u64, 2, 4, 6].iter().enumerate() {
            assert_eq!(
                l2.access(A, Vpn::new(*v), 10 + i as u32),
                L2MissOutcome::MissNewWalk
            );
        }
        // Set 0 fully pending; a fifth set-0 miss fails even though the
        // In-TLB budget (64) is not exhausted.
        assert_eq!(l2.access(A, Vpn::new(8), 99), L2MissOutcome::MshrFailure);
    }

    #[test]
    fn dedicated_preferred_when_free_again() {
        let mut l2 = complex(1, 8);
        l2.access(A, Vpn::new(1), 0);
        let _ = l2.complete_walk(A, Vpn::new(1), Pfn::new(1));
        assert_eq!(l2.access(A, Vpn::new(2), 1), L2MissOutcome::MissNewWalk);
        assert_eq!(l2.pending_in_tlb(), 0, "went to the freed dedicated MSHR");
    }

    #[test]
    fn fail_walk_releases_without_filling() {
        let mut l2 = complex(1, 8);
        l2.access(A, Vpn::new(1), 0); // dedicated
        l2.access(A, Vpn::new(2), 1); // in-TLB
        assert!(l2.fail_walk(A, Vpn::new(1)).eq([0]));
        assert!(l2.fail_walk(A, Vpn::new(2)).eq([1]));
        assert_eq!(l2.pending_in_tlb(), 0);
        // Neither VPN was installed.
        assert!(matches!(
            l2.access(A, Vpn::new(1), 9),
            L2MissOutcome::MissNewWalk
        ));
        assert!(matches!(
            l2.access(A, Vpn::new(2), 9),
            L2MissOutcome::MissNewWalk
        ));
    }

    #[test]
    fn invalidate_drops_translation_but_not_walks() {
        let mut l2 = complex(4, 0);
        l2.access(A, Vpn::new(1), 0);
        let _ = l2.complete_walk(A, Vpn::new(1), Pfn::new(9));
        l2.access(A, Vpn::new(2), 1); // walk in flight
        assert_eq!(l2.invalidate(A, Vpn::new(1)), 1);
        assert_eq!(l2.invalidate(A, Vpn::new(2)), 0, "no cached entry to drop");
        assert!(l2.is_walk_in_flight(A, Vpn::new(2)), "walk untouched");
        assert!(matches!(
            l2.access(A, Vpn::new(1), 2),
            L2MissOutcome::MissNewWalk
        ));
        assert!(l2.complete_walk(A, Vpn::new(2), Pfn::new(7)).eq([1]));
    }

    #[test]
    fn is_walk_in_flight_covers_both_paths() {
        let mut l2 = complex(1, 8);
        l2.access(A, Vpn::new(1), 0);
        l2.access(A, Vpn::new(2), 1);
        assert!(l2.is_walk_in_flight(A, Vpn::new(1)));
        assert!(l2.is_walk_in_flight(A, Vpn::new(2)));
        assert!(!l2.is_walk_in_flight(A, Vpn::new(3)));
    }

    #[test]
    fn tenants_walk_the_same_vpn_independently() {
        let mut l2 = complex(4, 0);
        assert_eq!(l2.access(A, Vpn::new(1), 0), L2MissOutcome::MissNewWalk);
        assert_eq!(
            l2.access(B, Vpn::new(1), 1),
            L2MissOutcome::MissNewWalk,
            "no cross-tenant merge"
        );
        assert!(l2.complete_walk(A, Vpn::new(1), Pfn::new(10)).eq([0]));
        assert!(l2.complete_walk(B, Vpn::new(1), Pfn::new(20)).eq([1]));
        assert_eq!(
            l2.access(A, Vpn::new(1), 2),
            L2MissOutcome::Hit(Pfn::new(10))
        );
        assert_eq!(
            l2.access(B, Vpn::new(1), 3),
            L2MissOutcome::Hit(Pfn::new(20))
        );
    }

    #[test]
    fn invalidate_is_tenant_scoped() {
        let mut l2 = complex(4, 0);
        l2.access(A, Vpn::new(1), 0);
        let _ = l2.complete_walk(A, Vpn::new(1), Pfn::new(10));
        l2.access(B, Vpn::new(1), 1);
        let _ = l2.complete_walk(B, Vpn::new(1), Pfn::new(20));
        assert_eq!(l2.invalidate(A, Vpn::new(1)), 1);
        assert_eq!(
            l2.access(B, Vpn::new(1), 2),
            L2MissOutcome::Hit(Pfn::new(20)),
            "B's entry survives A's shootdown"
        );
    }

    #[test]
    fn flush_asid_tears_down_one_tenant() {
        let mut l2 = complex(1, 8);
        l2.access(A, Vpn::new(1), 0); // dedicated walk
        let _ = l2.complete_walk(A, Vpn::new(1), Pfn::new(10));
        l2.access(B, Vpn::new(3), 1); // dedicated walk in flight for B
        l2.access(A, Vpn::new(2), 2); // A's in-TLB reservation
        assert_eq!(l2.flush_asid(A), 1);
        assert_eq!(l2.pending_in_tlb(), 0, "A's reservation torn down");
        assert!(!l2.is_walk_in_flight(A, Vpn::new(2)));
        assert!(l2.is_walk_in_flight(B, Vpn::new(3)), "B's walk survives");
        assert!(matches!(
            l2.access(A, Vpn::new(1), 9),
            L2MissOutcome::MissNewWalk
        ));
    }
}
