//! Fixed-Size Hashed Page Table (FS-HPT) — the paper's HPT baseline \[32\].
//!
//! FS-HPT replaces the radix walk's level-by-level pointer chase with a
//! single hash-indexed bucket read: most translations cost one memory
//! access, collisions cost one extra access per probed bucket. The paper's
//! point (Table 1, Figure 16) is that this reduces *per-walk* memory
//! accesses but does nothing for *walk throughput* — the walker count still
//! bounds concurrency — so FS-HPT only reaches a 1.13× average speedup.

use crate::{FrameAllocator, PteReader, Step, LEAF_LEVEL};
use swgpu_mem::PhysMem;
use swgpu_types::{Cycle, Pfn, PhysAddr, Pte, Vpn};

/// Slots per bucket. A bucket is one 64-byte region (half a cache line),
/// read with a single memory access.
pub const SLOTS_PER_BUCKET: usize = 4;

/// Bytes per bucket: 4 slots x (8-byte tag + 8-byte PTE).
pub const BUCKET_BYTES: u64 = (SLOTS_PER_BUCKET as u64) * 16;

const OCCUPIED_BIT: u64 = 1 << 63;

/// An FS-HPT walk's position: the VPN's home bucket, the buckets probed
/// past it and the probe limit. It steps like a [`crate::RadixCursor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashedCursor {
    base: PhysAddr,
    num_buckets: u64,
    home: u64,
    probe: u64,
    limit: u64,
}

impl HashedCursor {
    /// Physical address of the bucket read next.
    #[inline]
    pub fn entry_addr(&self) -> PhysAddr {
        self.base + ((self.home + self.probe) % self.num_buckets) * BUCKET_BYTES
    }

    /// One probe: decodes the PTE of the slot tagged `vpn` in the bucket at
    /// the cursor through `reader` at [`LEAF_LEVEL`] (the leaf). Else the
    /// cursor moves to the next bucket ([`Step::Descend`]); an empty bucket
    /// (an insert would have used it) or the probe limit ends the walk
    /// unmapped. `None`, with the cursor unmoved, is an injected corruption.
    #[inline]
    pub fn advance(
        &mut self,
        reader: &mut PteReader,
        mem: &PhysMem,
        vpn: Vpn,
        now: Cycle,
    ) -> Option<Step> {
        let bucket = self.entry_addr();
        let mut empty = true;
        for slot in 0..SLOTS_PER_BUCKET as u64 {
            let tag = mem.read_u64(bucket + slot * 16);
            if tag == OCCUPIED_BIT | vpn.value() {
                let pte = reader.read(mem, bucket + slot * 16 + 8, vpn, LEAF_LEVEL, now)?;
                return Some(Step::Leaf(pte.is_valid().then(|| pte.pfn())));
            }
            empty &= tag & OCCUPIED_BIT == 0;
        }
        if empty || self.probe + 1 == self.limit {
            return Some(Step::Leaf(None));
        }
        self.probe += 1;
        Some(Step::Descend)
    }
}

/// Statistics for hashed-table construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HashedStats {
    /// Mappings inserted.
    pub inserted: u64,
    /// Insertions that had to probe past their home bucket.
    pub collisions: u64,
}

/// An open-addressed hashed page table in simulated physical memory.
///
/// The PTW pool and [`HashedPageTable::lookup`] both step a
/// [`HashedCursor`] over it; PTEs decode through [`PteReader`].
///
/// # Example
///
/// ```
/// use swgpu_mem::PhysMem;
/// use swgpu_pt::{FrameAllocator, HashedPageTable};
/// use swgpu_types::{PageSize, Pfn, Vpn};
///
/// let mut mem = PhysMem::new();
/// let mut alloc = FrameAllocator::new(PageSize::Size64K);
/// let mut hpt = HashedPageTable::new(&mut alloc, 1024);
/// hpt.insert(Vpn::new(77), Pfn::new(5), &mut mem).unwrap();
/// let (pfn, probes) = hpt.lookup(Vpn::new(77), &mem);
/// assert_eq!(pfn, Some(Pfn::new(5)));
/// assert_eq!(probes, 1);
/// ```
#[derive(Debug)]
pub struct HashedPageTable {
    base: PhysAddr,
    num_buckets: u64,
    probe_limit: u64,
    stats: HashedStats,
}

/// Error returned when an insertion exhausts the probe limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HptFullError {
    /// The VPN that could not be inserted.
    pub vpn: Vpn,
}

impl std::fmt::Display for HptFullError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "hashed page table full while inserting vpn {}", self.vpn)
    }
}

impl std::error::Error for HptFullError {}

impl HashedPageTable {
    /// Allocates a table with `num_buckets` buckets (rounded up to a power
    /// of two). Sized at 2x the expected page count, the GPU's low-entropy
    /// VPN streams keep the collision rate small — the insight FS-HPT
    /// builds on.
    ///
    /// # Panics
    ///
    /// Panics if `num_buckets` is zero.
    pub fn new(alloc: &mut FrameAllocator, num_buckets: u64) -> Self {
        assert!(num_buckets > 0, "need at least one bucket");
        let num_buckets = num_buckets.next_power_of_two();
        let base = alloc.alloc_table_region(num_buckets * BUCKET_BYTES);
        Self {
            base,
            num_buckets,
            probe_limit: num_buckets.min(64),
            stats: HashedStats::default(),
        }
    }

    /// Construction statistics.
    pub fn stats(&self) -> HashedStats {
        self.stats
    }

    /// Number of buckets.
    pub fn num_buckets(&self) -> u64 {
        self.num_buckets
    }

    fn hash(&self, vpn: Vpn) -> u64 {
        // SplitMix64 finalizer: cheap, well-mixed, deterministic.
        let mut x = vpn.value().wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) & (self.num_buckets - 1)
    }

    /// Physical address of bucket `i`.
    pub fn bucket_addr(&self, i: u64) -> PhysAddr {
        self.base + (i % self.num_buckets) * BUCKET_BYTES
    }

    /// Where a walk of `vpn` starts: its home bucket.
    pub fn cursor(&self, vpn: Vpn) -> HashedCursor {
        HashedCursor {
            base: self.base,
            num_buckets: self.num_buckets,
            home: self.hash(vpn),
            probe: 0,
            limit: self.probe_limit,
        }
    }

    /// Inserts a mapping with linear probing.
    ///
    /// # Errors
    ///
    /// Returns [`HptFullError`] if no free slot is found within the probe
    /// limit (the fixed-size table is over-full).
    pub fn insert(&mut self, vpn: Vpn, pfn: Pfn, mem: &mut PhysMem) -> Result<(), HptFullError> {
        let home = self.hash(vpn);
        for probe in 0..self.probe_limit {
            let bucket = self.bucket_addr(home + probe);
            for slot in 0..SLOTS_PER_BUCKET as u64 {
                let tag_addr = bucket + slot * 16;
                let tag = mem.read_u64(tag_addr);
                if tag & OCCUPIED_BIT == 0 || tag == OCCUPIED_BIT | vpn.value() {
                    mem.write_u64(tag_addr, OCCUPIED_BIT | vpn.value());
                    mem.write_u64(tag_addr + 8, Pte::valid(pfn).raw());
                    self.stats.inserted += 1;
                    if probe > 0 {
                        self.stats.collisions += 1;
                    }
                    return Ok(());
                }
            }
        }
        Err(HptFullError { vpn })
    }

    /// Functional (untimed) lookup stepping a [`HashedCursor`]. Returns the
    /// mapping and the buckets probed (= a timed walk's memory accesses).
    pub fn lookup(&self, vpn: Vpn, mem: &PhysMem) -> (Option<Pfn>, u32) {
        let (mut cur, mut reader) = (self.cursor(vpn), PteReader::default());
        // Unarmed, the reader never corrupts: each probe descends or ends.
        loop {
            if let Some(Step::Leaf(pfn)) = cur.advance(&mut reader, mem, vpn, Cycle::ZERO) {
                return (pfn, cur.probe as u32 + 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_types::PageSize;

    fn setup(buckets: u64) -> (HashedPageTable, PhysMem) {
        let mut alloc = FrameAllocator::new(PageSize::Size64K);
        let hpt = HashedPageTable::new(&mut alloc, buckets);
        (hpt, PhysMem::new())
    }

    #[test]
    fn insert_then_lookup() {
        let (mut hpt, mut mem) = setup(256);
        hpt.insert(Vpn::new(1), Pfn::new(100), &mut mem).unwrap();
        hpt.insert(Vpn::new(2), Pfn::new(200), &mut mem).unwrap();
        assert_eq!(hpt.lookup(Vpn::new(1), &mem).0, Some(Pfn::new(100)));
        assert_eq!(hpt.lookup(Vpn::new(2), &mem).0, Some(Pfn::new(200)));
    }

    #[test]
    fn missing_vpn_is_none() {
        let (hpt, mem) = setup(256);
        let (pfn, probes) = hpt.lookup(Vpn::new(42), &mem);
        assert_eq!(pfn, None);
        assert_eq!(probes, 1, "empty home bucket terminates immediately");
    }

    #[test]
    fn reinsert_updates() {
        let (mut hpt, mut mem) = setup(256);
        hpt.insert(Vpn::new(9), Pfn::new(1), &mut mem).unwrap();
        hpt.insert(Vpn::new(9), Pfn::new(2), &mut mem).unwrap();
        assert_eq!(hpt.lookup(Vpn::new(9), &mem).0, Some(Pfn::new(2)));
        assert_eq!(hpt.stats().inserted, 2);
    }

    #[test]
    fn handles_many_mappings_with_low_collisions() {
        let (mut hpt, mut mem) = setup(4096);
        for i in 0..8192u64 {
            hpt.insert(Vpn::new(i), Pfn::new(i + 1), &mut mem).unwrap();
        }
        for i in 0..8192u64 {
            let (pfn, probes) = hpt.lookup(Vpn::new(i), &mem);
            assert_eq!(pfn, Some(Pfn::new(i + 1)));
            assert!(probes <= 8, "probe chain unexpectedly long: {probes}");
        }
        // Half-full table (8192 entries / 16384 slots): collisions exist
        // but stay a small fraction.
        let s = hpt.stats();
        assert!(s.collisions < s.inserted / 2);
    }

    #[test]
    fn walk_addresses_are_in_table_region() {
        // 8 buckets x 4 slots, all occupied: no bucket ends the chain.
        let (mut hpt, mut mem) = setup(8);
        for i in 0..32u64 {
            hpt.insert(Vpn::new(i), Pfn::new(i + 1), &mut mem).unwrap();
        }
        let vpn = Vpn::new(1000);
        let mut cur = hpt.cursor(vpn);
        let mut seen = vec![cur.entry_addr().value()];
        let mut reader = PteReader::default();
        while cur.advance(&mut reader, &mem, vpn, Cycle::ZERO) == Some(Step::Descend) {
            seen.push(cur.entry_addr().value());
        }
        assert!(seen.iter().all(|&a| a >= FrameAllocator::TABLE_REGION_BASE));
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 8, "the schedule wraps over every bucket");
        assert_eq!(hpt.lookup(vpn, &mem), (None, 8));
    }

    #[test]
    fn walk_schedule_finds_what_insert_placed() {
        let (mut hpt, mut mem) = setup(8);
        for i in 0..24u64 {
            hpt.insert(Vpn::new(i), Pfn::new(i + 1), &mut mem).unwrap();
        }
        let mut reader = PteReader::default();
        for i in 0..24u64 {
            let vpn = Vpn::new(i);
            let mut cur = hpt.cursor(vpn);
            let hit = loop {
                match cur.advance(&mut reader, &mem, vpn, Cycle::ZERO) {
                    Some(Step::Descend) => {}
                    end => break end,
                }
            };
            assert_eq!(hit, Some(Step::Leaf(Some(Pfn::new(i + 1)))));
        }
    }

    #[test]
    fn only_a_tag_match_decodes_through_the_reader() {
        use swgpu_types::fault::site;
        use swgpu_types::{FaultInjector, FaultPlan};
        let (mut hpt, mut mem) = setup(1);
        hpt.insert(Vpn::new(7), Pfn::new(70), &mut mem).unwrap();
        let plan = FaultPlan {
            pte_corrupt_rate: 1.0,
            ..FaultPlan::default()
        };
        let mut reader = PteReader::default();
        reader.inject(FaultInjector::new(1, site::PTW_PTE), &plan);
        reader.set_observed(true);
        // A miss decodes nothing, so nothing is corrupted or observed.
        let miss = Vpn::new(8);
        let step = hpt
            .cursor(miss)
            .advance(&mut reader, &mem, miss, Cycle::ZERO);
        assert_eq!(step, Some(Step::Leaf(None)));
        assert!(reader.drain_events().is_empty());
        // A corrupted match leaves the cursor on its bucket for the retry.
        let vpn = Vpn::new(7);
        let mut cur = hpt.cursor(vpn);
        assert_eq!(cur.advance(&mut reader, &mem, vpn, Cycle::new(3)), None);
        assert_eq!(cur, hpt.cursor(vpn));
        assert_eq!(reader.stats().injected_pte_corruptions, 1);
        let event = swgpu_types::PteReadEvent {
            vpn,
            level: LEAF_LEVEL,
            at: Cycle::new(3),
        };
        assert_eq!(reader.drain_events(), vec![event]);
        let retry = cur.advance(&mut PteReader::default(), &mem, vpn, Cycle::ZERO);
        assert_eq!(retry, Some(Step::Leaf(Some(Pfn::new(70)))));
    }

    #[test]
    fn overfull_table_errors() {
        // 1 bucket = 4 slots; probe limit 1 (min(num_buckets,64) = 1).
        let (mut hpt, mut mem) = setup(1);
        for i in 0..4u64 {
            hpt.insert(Vpn::new(i), Pfn::new(i), &mut mem).unwrap();
        }
        let err = hpt.insert(Vpn::new(99), Pfn::new(9), &mut mem);
        assert!(err.is_err());
        assert!(err.unwrap_err().to_string().contains("full"));
    }
}
