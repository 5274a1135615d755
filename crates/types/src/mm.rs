//! Configuration and counters for the simulated driver/OS memory manager.
//!
//! With [`MmConfig::enabled`] false (the default) the manager does not
//! exist: the page table is fully prebuilt before cycle 0 and every
//! counter stays zero, so stats JSON is byte-identical to a build without
//! the subsystem. Enabled, pages are populated on *first touch*: a
//! translation that misses the page table becomes a **major fault**,
//! serviced by the simulated driver after [`MmConfig::fill_latency`]
//! cycles and then replayed through the normal walk machinery. On top of
//! that sit Mosaic-style transparent coalescing of fully-populated
//! contiguous base-page runs into 64 KiB / 2 MiB mappings (splintered
//! again when a constituent page is evicted) and an LRU-ish eviction
//! policy once the resident footprint exceeds a device-memory budget
//! (oversubscription).

/// Which resident page the manager evicts when the device-memory budget
/// is exceeded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MmEvictPolicy {
    /// Fill order: the page resident longest is evicted first,
    /// regardless of use. The historical (and default) policy — runs
    /// configured with it are cycle-identical to builds that predate the
    /// policy axis.
    #[default]
    Fifo,
    /// Clock (second-chance) LRU approximation: each translation
    /// delivery sets the page's reference bit; the evictor skips (and
    /// clears) referenced pages until it finds an unreferenced victim.
    Lru,
}

/// Knobs of the demand-paging memory manager. Carried by `GpuConfig`, so
/// an enabled manager participates in the config fingerprint (and a
/// disabled one contributes nothing — run-cache keys are unchanged).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MmConfig {
    /// Master switch. Off = legacy prebuilt page table.
    pub enabled: bool,
    /// Maximum pages resident at once; 0 means unbounded (no eviction).
    /// Models the device-memory budget that oversubscription exceeds.
    pub resident_page_budget: u64,
    /// Cycles the simulated driver takes to populate a page on a major
    /// fault (allocate a frame, install the PTE) before the translation
    /// is replayed.
    pub fill_latency: u64,
    /// Whether fully-populated, physically contiguous base-page runs are
    /// transparently coalesced into 64 KiB / 2 MiB mappings.
    pub coalesce: bool,
    /// Eviction victim selection under budget pressure.
    pub evict: MmEvictPolicy,
}

impl Default for MmConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            resident_page_budget: 0,
            fill_latency: 2_000,
            coalesce: true,
            evict: MmEvictPolicy::Fifo,
        }
    }
}

impl MmConfig {
    /// A demand-paged configuration with default service latency, no
    /// budget (no eviction) and coalescing on.
    pub fn demand_paged() -> Self {
        Self {
            enabled: true,
            ..Self::default()
        }
    }
}

crate::counters! {
    /// Counters kept by the memory manager and surfaced through `SimStats`.
    ///
    /// The conservation law `major_faults == major_replays` holds once a run
    /// drains (checked by `SimStats::check_ledgers` on every run): every
    /// first-touch fault the driver services is replayed and completes —
    /// none leak or stall.
    pub struct MmStats {
        /// First-touch faults serviced by the driver (page populated).
        pub major_faults: u64,
        /// Serviced faults whose replayed translation completed.
        pub major_replays: u64,
        /// Replays of driver fills executed by PW Warps (software modes) —
        /// the paper's handlers servicing fill requests, not just walks.
        pub sw_fill_replays: u64,
        /// Resident pages evicted to stay within the device-memory budget.
        pub evictions: u64,
        /// Base-page runs coalesced into a 64 KiB mapping.
        pub coalesces_64k: u64,
        /// Runs (or 64 KiB groups) coalesced into a 2 MiB mapping.
        pub coalesces_2m: u64,
        /// Coalesced mappings splintered back to base pages by a partial
        /// unmap (eviction of a constituent page).
        pub splinters: u64,
        /// Peak number of simultaneously resident pages. Peaks add under
        /// `merge` too: each tenant's manager has its own budget, and the
        /// merged peak is the sum of theirs (an upper bound on the pages
        /// resident at once).
        pub resident_peak: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_silent() {
        assert!(!MmConfig::default().enabled);
    }

    #[test]
    fn demand_paged_enables_with_defaults() {
        let cfg = MmConfig::demand_paged();
        assert!(cfg.enabled);
        assert_eq!(cfg.resident_page_budget, 0);
        assert!(cfg.coalesce);
        assert_eq!(cfg.evict, MmEvictPolicy::Fifo);
    }

    #[test]
    fn merge_sums_counts_and_peaks() {
        let mut a = MmStats {
            major_faults: 2,
            resident_peak: 5,
            ..MmStats::default()
        };
        let b = MmStats {
            major_faults: 3,
            sw_fill_replays: 1,
            resident_peak: 4,
            ..MmStats::default()
        };
        a.merge(&b);
        assert_eq!(a.major_faults, 5);
        assert_eq!(a.sw_fill_replays, 1);
        assert_eq!(a.resident_peak, 9);
        assert_ne!(a, MmStats::default());
    }
}
