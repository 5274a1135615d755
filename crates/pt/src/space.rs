//! A GPU address space: page size + frame allocator + radix page table.

use crate::alloc::FrameAllocator;
use crate::hashed::HashedPageTable;
use crate::radix::{LeafCursor, RadixPageTable};
use std::collections::hash_map::Entry;
use swgpu_mem::PhysMem;
use swgpu_types::{FastMap, PageSize, Pfn, PhysAddr, VirtAddr, Vpn};

/// One process's GPU address space.
///
/// Owns the frame allocator and the radix page table, tracks the installed
/// mappings in a hashed mirror (so [`AddressSpace::pfn_of`] costs one
/// lookup, not a four-read walk), and can derive an equivalent
/// [`HashedPageTable`] for FS-HPT experiments so that both translation
/// structures describe the *same* address space.
///
/// # Example
///
/// ```
/// use swgpu_mem::PhysMem;
/// use swgpu_pt::AddressSpace;
/// use swgpu_types::{PageSize, VirtAddr};
///
/// let mut mem = PhysMem::new();
/// let mut space = AddressSpace::new(PageSize::Size64K, &mut mem);
/// space.map_region(VirtAddr::new(0x10_0000), 256 * 1024, &mut mem);
/// assert_eq!(space.mapped_pages(), 4);
/// assert!(space.translate(VirtAddr::new(0x10_1234), &mem).is_some());
/// assert!(space.translate(VirtAddr::new(0x90_0000), &mem).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct AddressSpace {
    page_size: PageSize,
    alloc: FrameAllocator,
    radix: RadixPageTable,
    mappings: FastMap<Vpn, Pfn>,
}

impl AddressSpace {
    /// Creates an empty address space with sequential frame allocation.
    pub fn new(page_size: PageSize, mem: &mut PhysMem) -> Self {
        let mut alloc = FrameAllocator::new(page_size);
        let radix = RadixPageTable::new(&mut alloc, mem);
        Self {
            page_size,
            alloc,
            radix,
            mappings: FastMap::default(),
        }
    }

    /// Creates an address space whose data frames are handed out in a
    /// scrambled (but deterministic) order, like a real free-list
    /// allocator.
    pub fn new_scrambled(page_size: PageSize, mem: &mut PhysMem) -> Self {
        let mut alloc = FrameAllocator::new_scrambled(page_size);
        let radix = RadixPageTable::new(&mut alloc, mem);
        Self {
            page_size,
            alloc,
            radix,
            mappings: FastMap::default(),
        }
    }

    /// Creates tenant `tenant`-of-`tenants`'s address space: its frame
    /// allocator is confined to that tenant's disjoint slice of the table
    /// and data regions (see [`FrameAllocator::tenant_slice`]), so
    /// concurrent tenants build non-overlapping page tables and can never
    /// share a data frame by accident. `new_tenant(ps, 0, 1, scrambled, m)`
    /// is byte-identical to the single-tenant constructors.
    pub fn new_tenant(
        page_size: PageSize,
        tenant: usize,
        tenants: usize,
        scrambled: bool,
        mem: &mut PhysMem,
    ) -> Self {
        let base = if scrambled {
            FrameAllocator::new_scrambled(page_size)
        } else {
            FrameAllocator::new(page_size)
        };
        let mut alloc = base.tenant_slice(tenant, tenants);
        let radix = RadixPageTable::new(&mut alloc, mem);
        Self {
            page_size,
            alloc,
            radix,
            mappings: FastMap::default(),
        }
    }

    /// Translation granularity of this space.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// The radix page table (for walkers that need the root address).
    pub fn radix(&self) -> &RadixPageTable {
        &self.radix
    }

    /// Number of pages currently mapped.
    pub fn mapped_pages(&self) -> usize {
        self.mappings.len()
    }

    /// Total mapped bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.mappings.len() as u64 * self.page_size.bytes()
    }

    /// Maps the page containing `vpn` to a fresh frame (idempotent: an
    /// existing mapping is returned unchanged).
    pub fn map_page(&mut self, vpn: Vpn, mem: &mut PhysMem) -> Pfn {
        if let Some(&pfn) = self.mappings.get(&vpn) {
            return pfn;
        }
        let pfn = self.alloc.alloc_data_frame();
        self.radix.map(vpn, pfn, &mut self.alloc, mem);
        self.mappings.insert(vpn, pfn);
        pfn
    }

    /// Like [`AddressSpace::map_page`] but returns `None` (instead of
    /// panicking) when the frame region is exhausted, so a demand-paging
    /// caller can evict and retry with a recycled frame.
    pub fn try_map_page(&mut self, vpn: Vpn, mem: &mut PhysMem) -> Option<Pfn> {
        if let Some(&pfn) = self.mappings.get(&vpn) {
            return Some(pfn);
        }
        let pfn = self.alloc.try_alloc_data_frame()?;
        self.radix.map(vpn, pfn, &mut self.alloc, mem);
        self.mappings.insert(vpn, pfn);
        Some(pfn)
    }

    /// Maps `vpn` to a specific (recycled) frame — the memory manager's
    /// path for reusing a frame freed by eviction.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is already mapped: silently remapping would leak
    /// the old frame.
    pub fn map_page_to(&mut self, vpn: Vpn, pfn: Pfn, mem: &mut PhysMem) {
        assert!(
            !self.mappings.contains_key(&vpn),
            "map_page_to over an existing mapping"
        );
        self.radix.map(vpn, pfn, &mut self.alloc, mem);
        self.mappings.insert(vpn, pfn);
    }

    /// Removes the mapping for `vpn`, returning the freed frame (`None`
    /// if the page was not mapped). Only the leaf PTE is zeroed;
    /// intermediate nodes survive for remapping.
    pub fn unmap_page(&mut self, vpn: Vpn, mem: &mut PhysMem) -> Option<Pfn> {
        let pfn = self.mappings.remove(&vpn)?;
        let was_mapped = self.radix.unmap(vpn, mem);
        debug_assert!(was_mapped, "mappings and radix table out of sync");
        Some(pfn)
    }

    /// The frame backing `vpn`, if mapped (no memory traffic).
    pub fn pfn_of(&self, vpn: Vpn) -> Option<Pfn> {
        self.mappings.get(&vpn).copied()
    }

    /// Maps every page overlapping `[va_start, va_start + bytes)`, each to
    /// a fresh frame (pages already mapped keep theirs).
    ///
    /// The run goes through one [`LeafCursor`]: the table is walked from
    /// the root only when the next page leaves the current leaf node, so
    /// the nodes allocated, their order and every PTE byte are exactly
    /// those of calling [`AddressSpace::map_page`] page by page.
    pub fn map_region(&mut self, va_start: VirtAddr, bytes: u64, mem: &mut PhysMem) {
        if bytes == 0 {
            return;
        }
        let first = self.page_size.vpn_of(va_start).value();
        let last = self
            .page_size
            .vpn_of(VirtAddr::new(va_start.value() + bytes - 1))
            .value();
        let pages = usize::try_from(last - first + 1).expect("region page count fits in usize");
        self.mappings.reserve(pages);
        let mut cursor = LeafCursor::default();
        for v in first..=last {
            let vpn = Vpn::new(v);
            if let Entry::Vacant(slot) = self.mappings.entry(vpn) {
                let pfn = self.alloc.alloc_data_frame();
                self.radix
                    .map_at(&mut cursor, vpn, pfn, &mut self.alloc, mem);
                slot.insert(pfn);
            }
        }
    }

    /// Functional translation of a full virtual address.
    pub fn translate(&self, va: VirtAddr, mem: &PhysMem) -> Option<PhysAddr> {
        let vpn = self.page_size.vpn_of(va);
        self.radix
            .translate(vpn, mem)
            .map(|pfn| self.page_size.translate(va, pfn))
    }

    /// The installed mappings, in VPN order (sorted on each call; the
    /// mirror itself is unordered).
    pub fn mappings(&self) -> impl Iterator<Item = (Vpn, Pfn)> + '_ {
        let mut sorted: Vec<(Vpn, Pfn)> = self.mappings.iter().map(|(&v, &p)| (v, p)).collect();
        sorted.sort_unstable_by_key(|&(v, _)| v);
        sorted.into_iter()
    }

    /// Builds a hashed page table describing the same mappings, sized at
    /// roughly 2x occupancy as FS-HPT prescribes. Mappings are inserted
    /// in VPN order, which fixes where each one lands on a collision.
    ///
    /// # Panics
    ///
    /// Panics if insertion fails, which cannot happen at 2x sizing.
    pub fn build_hashed(&mut self, mem: &mut PhysMem) -> HashedPageTable {
        let buckets = ((self.mappings.len() as u64 * 2)
            .div_ceil(crate::hashed::SLOTS_PER_BUCKET as u64))
        .max(16);
        let mut hpt = HashedPageTable::new(&mut self.alloc, buckets);
        for (vpn, pfn) in self.mappings() {
            hpt.insert(vpn, pfn, mem)
                .expect("2x-sized hashed table cannot fill up");
        }
        hpt
    }

    /// Number of 4 KiB page-table nodes backing the radix table — the
    /// simulated page-table footprint.
    pub fn table_nodes(&self) -> u64 {
        self.alloc.tables_allocated()
    }

    /// Retires a frame to the allocator's bad-frame list so it is never
    /// handed out again — the memory manager's page-retirement path for
    /// frames that repeatedly fail the data checksum.
    pub fn retire_frame(&mut self, pfn: Pfn) {
        self.alloc.retire_frame(pfn);
    }

    /// Number of frames on the allocator's bad-frame list.
    pub fn retired_frames(&self) -> u64 {
        self.alloc.retired_frames()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_page_is_idempotent() {
        let mut mem = PhysMem::new();
        let mut s = AddressSpace::new(PageSize::Size64K, &mut mem);
        let a = s.map_page(Vpn::new(7), &mut mem);
        let b = s.map_page(Vpn::new(7), &mut mem);
        assert_eq!(a, b);
        assert_eq!(s.mapped_pages(), 1);
    }

    #[test]
    fn region_mapping_covers_partial_pages() {
        let mut mem = PhysMem::new();
        let mut s = AddressSpace::new(PageSize::Size64K, &mut mem);
        // 1 byte in page 0 + crossing into page 1.
        s.map_region(VirtAddr::new(0xFFFF), 2, &mut mem);
        assert_eq!(s.mapped_pages(), 2);
        s.map_region(VirtAddr::new(0), 0, &mut mem);
        assert_eq!(s.mapped_pages(), 2, "zero-byte region maps nothing");
    }

    #[test]
    fn translate_round_trips_offsets() {
        let mut mem = PhysMem::new();
        let mut s = AddressSpace::new(PageSize::Size64K, &mut mem);
        s.map_region(VirtAddr::new(0x20_0000), 64 * 1024, &mut mem);
        let va = VirtAddr::new(0x20_1234);
        let pa = s.translate(va, &mem).unwrap();
        assert_eq!(pa.value() & 0xFFFF, 0x1234, "page offset preserved");
    }

    #[test]
    fn unmap_frees_and_remap_recycles() {
        let mut mem = PhysMem::new();
        let mut s = AddressSpace::new(PageSize::Size64K, &mut mem);
        let pfn = s.map_page(Vpn::new(3), &mut mem);
        assert_eq!(s.pfn_of(Vpn::new(3)), Some(pfn));
        assert_eq!(s.unmap_page(Vpn::new(3), &mut mem), Some(pfn));
        assert_eq!(s.pfn_of(Vpn::new(3)), None);
        assert_eq!(s.mapped_pages(), 0);
        assert_eq!(s.unmap_page(Vpn::new(3), &mut mem), None);
        // Recycle the freed frame explicitly.
        s.map_page_to(Vpn::new(7), pfn, &mut mem);
        assert_eq!(s.pfn_of(Vpn::new(7)), Some(pfn));
        assert!(s.translate(VirtAddr::new(7 * 64 * 1024), &mem).is_some());
    }

    #[test]
    fn hashed_table_matches_radix() {
        let mut mem = PhysMem::new();
        let mut s = AddressSpace::new_scrambled(PageSize::Size64K, &mut mem);
        s.map_region(VirtAddr::new(0), 4 * 1024 * 1024, &mut mem);
        let hpt = s.build_hashed(&mut mem);
        for (vpn, pfn) in s.mappings() {
            assert_eq!(hpt.lookup(vpn, &mem).0, Some(pfn));
        }
    }

    #[test]
    fn footprint_accounts_page_size() {
        let mut mem = PhysMem::new();
        let mut s = AddressSpace::new(PageSize::Size2M, &mut mem);
        s.map_region(VirtAddr::new(0), 5 * 1024 * 1024, &mut mem);
        assert_eq!(s.mapped_pages(), 3);
        assert_eq!(s.footprint_bytes(), 6 * 1024 * 1024);
    }
}
