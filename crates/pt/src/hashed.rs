//! Fixed-Size Hashed Page Table (FS-HPT) — the paper's HPT baseline \[32\].
//!
//! FS-HPT replaces the radix walk's level-by-level pointer chase with a
//! single hash-indexed bucket read: most translations cost one memory
//! access, collisions cost one extra access per probed bucket. The paper's
//! point (Table 1, Figure 16) is that this reduces *per-walk* memory
//! accesses but does nothing for *walk throughput* — the walker count still
//! bounds concurrency — so FS-HPT only reaches a 1.13× average speedup.

use crate::alloc::FrameAllocator;
use swgpu_mem::PhysMem;
use swgpu_types::{Pfn, PhysAddr, Pte, Vpn};

/// Slots per bucket. A bucket is one 64-byte region (half a cache line),
/// read with a single memory access.
pub const SLOTS_PER_BUCKET: usize = 4;

/// Bytes per bucket: 4 slots x (8-byte tag + 8-byte PTE).
pub const BUCKET_BYTES: u64 = (SLOTS_PER_BUCKET as u64) * 16;

const OCCUPIED_BIT: u64 = 1 << 63;

/// The probe schedule for one lookup: the sequence of bucket addresses a
/// walker must read, in order, until a tag matches. It holds the home
/// bucket and the probe limit, and computes each address when it is
/// read, so starting a walk allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct HashedWalk {
    base: PhysAddr,
    num_buckets: u64,
    home: u64,
    limit: usize,
}

impl HashedWalk {
    /// Most buckets the schedule probes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Address of the `i`-th bucket to probe (`i < limit()`).
    pub fn addr(&self, i: usize) -> PhysAddr {
        debug_assert!(i < self.limit, "probe {i} past limit {}", self.limit);
        self.base + ((self.home + i as u64) % self.num_buckets) * BUCKET_BYTES
    }

    /// Bucket addresses in probe order.
    pub fn addrs(&self) -> impl Iterator<Item = PhysAddr> + '_ {
        (0..self.limit).map(|i| self.addr(i))
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

    /// The probe schedule a walker must follow for `vpn` — it reads each
    /// bucket in order through the timed memory hierarchy and stops at the
    /// first tag match.
    pub fn walk(&self, vpn: Vpn) -> HashedWalk {
        HashedWalk {
            base: self.base,
            num_buckets: self.num_buckets,
            home: self.hash(vpn),
            limit: self.probe_limit as usize,
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
                let occupied = tag & OCCUPIED_BIT != 0;
                let matches = occupied && (tag & !OCCUPIED_BIT) == vpn.value();
                if !occupied || matches {
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

    /// Checks one already-read bucket for `vpn`. Used by the timed walkers
    /// after their bucket read completes.
    pub fn match_in_bucket(&self, vpn: Vpn, bucket: PhysAddr, mem: &PhysMem) -> Option<Pte> {
        for slot in 0..SLOTS_PER_BUCKET as u64 {
            let tag = mem.read_u64(bucket + slot * 16);
            if tag & OCCUPIED_BIT != 0 && (tag & !OCCUPIED_BIT) == vpn.value() {
                return Some(Pte::from_raw(mem.read_u64(bucket + slot * 16 + 8)));
            }
        }
        None
    }

    /// Functional (untimed) lookup. Returns the mapping and the number of
    /// buckets probed (= memory accesses a timed walk would perform).
    pub fn lookup(&self, vpn: Vpn, mem: &PhysMem) -> (Option<Pfn>, u32) {
        let walk = self.walk(vpn);
        for (i, bucket) in walk.addrs().enumerate() {
            if let Some(pte) = self.match_in_bucket(vpn, bucket, mem) {
                return (Some(pte.pfn()), i as u32 + 1);
            }
            // An entirely-empty bucket terminates the probe chain: the
            // insert path would have used it.
            let empty = (0..SLOTS_PER_BUCKET as u64)
                .all(|s| mem.read_u64(bucket + s * 16) & OCCUPIED_BIT == 0);
            if empty {
                return (None, i as u32 + 1);
            }
        }
        (None, walk.limit() as u32)
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
        let (hpt, _mem) = setup(64);
        let w = hpt.walk(Vpn::new(123));
        assert!(w.limit() > 0);
        for a in w.addrs() {
            assert!(a.value() >= FrameAllocator::TABLE_REGION_BASE);
        }
        // The schedule visits every bucket once, wrapping at the end.
        let mut seen: Vec<u64> = w.addrs().map(|a| a.value()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), w.limit());
    }

    #[test]
    fn walk_schedule_finds_what_insert_placed() {
        let (mut hpt, mut mem) = setup(8);
        for i in 0..24u64 {
            hpt.insert(Vpn::new(i), Pfn::new(i + 1), &mut mem).unwrap();
        }
        for i in 0..24u64 {
            let w = hpt.walk(Vpn::new(i));
            let hit = w
                .addrs()
                .find_map(|b| hpt.match_in_bucket(Vpn::new(i), b, &mem));
            assert_eq!(hit.map(|pte| pte.pfn()), Some(Pfn::new(i + 1)));
        }
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
