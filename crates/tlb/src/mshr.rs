//! TLB miss status holding registers.

use swgpu_types::{ensure, Asid, ConfigError, MshrOutcome, MshrSlab, Released, Vpn};

/// Sizing of one MSHR file. Table 3: the L1 TLB has 32 entries with 192
/// merges per entry; the L2 TLB has 128 entries with 46 merges per entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TlbMshrConfig {
    /// Distinct in-flight VPNs that can be tracked.
    pub entries: usize,
    /// Maximum waiters merged per entry (including the first).
    pub max_merges: usize,
}

impl TlbMshrConfig {
    /// Checks the sizing [`TlbMshr::new`] relies on.
    ///
    /// # Errors
    ///
    /// Rejects zero entries or a zero merge limit.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure!(self.entries > 0, "MSHR file needs at least one entry");
        ensure!(self.max_merges > 0, "merge limit must be positive");
        Ok(())
    }

    /// Table 3 L1 TLB MSHR file.
    pub fn l1() -> Self {
        Self {
            entries: 32,
            max_merges: 192,
        }
    }

    /// Table 3 L2 TLB MSHR file.
    pub fn l2() -> Self {
        Self {
            entries: 128,
            max_merges: 46,
        }
    }
}

/// Statistics for one MSHR file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TlbMshrStats {
    /// New entries allocated.
    pub allocations: u64,
    /// Waiters merged into existing entries.
    pub merges: u64,
    /// Rejected misses (MSHR failures).
    pub failures: u64,
}

/// A bounded MSHR file, generic over the waiter metadata `M` it parks
/// (which SM/warp/instruction is waiting on each VPN). Entries are keyed
/// by the full `(Asid, Vpn)` tag: two tenants missing on the same VPN
/// track two independent walks and never merge into each other.
///
/// # Example
///
/// ```
/// use swgpu_tlb::{MshrOutcome, TlbMshr, TlbMshrConfig};
/// use swgpu_types::{Asid, Vpn};
///
/// let mut m: TlbMshr<&str> = TlbMshr::new(TlbMshrConfig { entries: 1, max_merges: 2 });
/// assert_eq!(m.allocate(Asid::ZERO, Vpn::new(1), "a"), MshrOutcome::Allocated);
/// assert_eq!(m.allocate(Asid::ZERO, Vpn::new(1), "b"), MshrOutcome::Merged);
/// assert_eq!(m.allocate(Asid::ZERO, Vpn::new(1), "c"), MshrOutcome::Full("c"));
/// assert_eq!(m.allocate(Asid::ZERO, Vpn::new(2), "d"), MshrOutcome::Full("d"));
/// assert!(m.resolve(Asid::ZERO, Vpn::new(1)).eq(["a", "b"]));
/// ```
#[derive(Debug)]
pub struct TlbMshr<M> {
    cfg: TlbMshrConfig,
    inflight: MshrSlab<(Asid, Vpn), M>,
    stats: TlbMshrStats,
}

impl<M> TlbMshr<M> {
    /// Creates an empty MSHR file.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero entries or a zero merge limit.
    pub fn new(cfg: TlbMshrConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            cfg,
            inflight: MshrSlab::new(cfg.entries, cfg.max_merges),
            stats: TlbMshrStats::default(),
        }
    }

    /// The file's configuration.
    pub fn config(&self) -> TlbMshrConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbMshrStats {
        self.stats
    }

    /// Presents a miss for `(asid, vpn)` with waiter metadata `meta`.
    pub fn allocate(&mut self, asid: Asid, vpn: Vpn, meta: M) -> MshrOutcome<M> {
        let outcome = self.inflight.allocate((asid, vpn), meta);
        match outcome {
            MshrOutcome::Allocated => self.stats.allocations += 1,
            MshrOutcome::Merged => self.stats.merges += 1,
            MshrOutcome::Full(_) => self.stats.failures += 1,
        }
        outcome
    }

    /// Merges a miss into the tracked walk for `(asid, vpn)` with one
    /// lookup, counted like [`TlbMshr::allocate`]'s merges and failures.
    /// `Err(meta)` hands the waiter back when the tag is not tracked.
    pub fn merge(&mut self, asid: Asid, vpn: Vpn, meta: M) -> Result<MshrOutcome<M>, M> {
        let outcome = self.inflight.merge(&(asid, vpn), meta)?;
        match outcome {
            MshrOutcome::Merged => self.stats.merges += 1,
            MshrOutcome::Full(_) => self.stats.failures += 1,
            MshrOutcome::Allocated => unreachable!("a merge allocates nothing"),
        }
        Ok(outcome)
    }

    /// Whether `(asid, vpn)` is currently tracked.
    pub fn contains(&self, asid: Asid, vpn: Vpn) -> bool {
        self.inflight.contains(&(asid, vpn))
    }

    /// Completes a miss, releasing every merged waiter in arrival order.
    /// Releases nothing if the tag was not tracked (already resolved, or
    /// tracked by the In-TLB overflow path instead).
    pub fn resolve(&mut self, asid: Asid, vpn: Vpn) -> Released<'_, M> {
        self.inflight.remove(&(asid, vpn))
    }

    /// Number of distinct `(asid, vpn)` tags in flight.
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Whether the file has no free entries.
    pub fn is_full(&self) -> bool {
        self.inflight.is_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Asid = Asid::ZERO;
    const B: Asid = Asid(1);

    #[test]
    fn allocate_merge_full_lifecycle() {
        let mut m: TlbMshr<u32> = TlbMshr::new(TlbMshrConfig {
            entries: 2,
            max_merges: 2,
        });
        assert_eq!(m.allocate(A, Vpn::new(1), 10), MshrOutcome::Allocated);
        assert_eq!(m.allocate(A, Vpn::new(1), 11), MshrOutcome::Merged);
        assert_eq!(m.allocate(A, Vpn::new(1), 12), MshrOutcome::Full(12));
        assert_eq!(m.allocate(A, Vpn::new(2), 20), MshrOutcome::Allocated);
        assert!(m.is_full());
        assert_eq!(m.allocate(A, Vpn::new(3), 30), MshrOutcome::Full(30));
        let s = m.stats();
        assert_eq!((s.allocations, s.merges, s.failures), (2, 1, 2));
    }

    #[test]
    fn resolve_releases_in_arrival_order() {
        let mut m: TlbMshr<u32> = TlbMshr::new(TlbMshrConfig {
            entries: 4,
            max_merges: 8,
        });
        m.allocate(A, Vpn::new(5), 1);
        m.allocate(A, Vpn::new(5), 2);
        m.allocate(A, Vpn::new(5), 3);
        assert!(m.resolve(A, Vpn::new(5)).eq([1, 2, 3]));
        assert!(!m.contains(A, Vpn::new(5)));
        assert_eq!(m.resolve(A, Vpn::new(5)).count(), 0);
    }

    #[test]
    fn merge_counts_like_allocate() {
        let mut m: TlbMshr<u32> = TlbMshr::new(TlbMshrConfig {
            entries: 2,
            max_merges: 2,
        });
        assert_eq!(m.merge(A, Vpn::new(1), 9), Err(9), "untracked");
        m.allocate(A, Vpn::new(1), 10);
        assert_eq!(m.merge(A, Vpn::new(1), 11), Ok(MshrOutcome::Merged));
        assert_eq!(m.merge(A, Vpn::new(1), 12), Ok(MshrOutcome::Full(12)));
        assert_eq!(m.merge(B, Vpn::new(1), 13), Err(13), "other tenant's tag");
        let s = m.stats();
        assert_eq!((s.allocations, s.merges, s.failures), (1, 1, 1));
    }

    #[test]
    fn freed_entry_is_reusable() {
        let mut m: TlbMshr<()> = TlbMshr::new(TlbMshrConfig {
            entries: 1,
            max_merges: 1,
        });
        assert_eq!(m.allocate(A, Vpn::new(1), ()), MshrOutcome::Allocated);
        m.resolve(A, Vpn::new(1));
        assert_eq!(m.allocate(A, Vpn::new(2), ()), MshrOutcome::Allocated);
    }

    #[test]
    fn same_vpn_different_asids_never_merge() {
        let mut m: TlbMshr<u32> = TlbMshr::new(TlbMshrConfig {
            entries: 4,
            max_merges: 8,
        });
        assert_eq!(m.allocate(A, Vpn::new(7), 1), MshrOutcome::Allocated);
        assert_eq!(
            m.allocate(B, Vpn::new(7), 2),
            MshrOutcome::Allocated,
            "distinct tag, distinct walk"
        );
        assert_eq!(m.in_flight(), 2);
        assert!(m.resolve(A, Vpn::new(7)).eq([1]));
        assert!(m.contains(B, Vpn::new(7)), "B's walk survives A's resolve");
        assert!(m.resolve(B, Vpn::new(7)).eq([2]));
    }
}
