//! Physical frame allocation for page tables and mapped data.

use swgpu_types::{FastSet, PageSize, Pfn, PhysAddr};

/// Size of one radix page-table node: 512 entries x 8 bytes.
pub(crate) const TABLE_BYTES: u64 = 4096;

/// A bump allocator over the simulated physical address space.
///
/// Two regions grow from a base address: page-table nodes (4 KiB each) and
/// data frames (one page each). Data frames can optionally be handed out in
/// a scrambled order so that virtually-contiguous pages land on physically
/// scattered frames, defeating any accidental physical locality — GPUs
/// allocate frames from free lists, not contiguously.
///
/// # Example
///
/// ```
/// use swgpu_pt::FrameAllocator;
/// use swgpu_types::PageSize;
///
/// let mut alloc = FrameAllocator::new(PageSize::Size64K);
/// let t0 = alloc.alloc_table();
/// let t1 = alloc.alloc_table();
/// assert_ne!(t0, t1);
/// let f = alloc.alloc_data_frame();
/// assert!(alloc.frame_base(f).value() >= FrameAllocator::DATA_REGION_BASE);
/// ```
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    page_size: PageSize,
    /// Base of this allocator's table-region slice (the whole region for a
    /// single-tenant allocator).
    table_base: u64,
    next_table: u64,
    /// First data-frame index of this allocator's slice.
    data_index_base: u64,
    next_data_index: u64,
    scramble: bool,
    data_frames_capacity: u64,
    retired: FastSet<u64>,
}

impl FrameAllocator {
    /// Physical base of the page-table-node region.
    pub const TABLE_REGION_BASE: u64 = 0x0000_1000_0000; // 256 MiB in

    /// Physical base of the data-frame region.
    pub const DATA_REGION_BASE: u64 = 0x0010_0000_0000; // 64 GiB in

    /// Capacity of the data region in bytes (1 TiB — far more than any
    /// benchmark footprint; the region is sparse anyway).
    pub const DATA_REGION_BYTES: u64 = 1 << 40;

    /// Creates an allocator for the given data-page granularity with
    /// sequential frame assignment.
    pub fn new(page_size: PageSize) -> Self {
        Self {
            page_size,
            table_base: Self::TABLE_REGION_BASE,
            next_table: 0,
            data_index_base: 0,
            next_data_index: 0,
            scramble: false,
            data_frames_capacity: Self::DATA_REGION_BYTES / page_size.bytes(),
            retired: FastSet::default(),
        }
    }

    /// Creates an allocator that scrambles data-frame order (a fixed
    /// bijective permutation, so allocation stays deterministic).
    pub fn new_scrambled(page_size: PageSize) -> Self {
        Self {
            scramble: true,
            ..Self::new(page_size)
        }
    }

    /// Restricts this allocator to tenant `tenant`'s slice of the physical
    /// regions: both the table region and the data region are divided into
    /// `tenants` equal, disjoint slices, so concurrent address spaces can
    /// never hand out overlapping frames. `tenant_slice(0, 1)` is the
    /// identity — a single-tenant allocator is byte-for-byte the plain
    /// [`FrameAllocator::new`] one.
    ///
    /// # Panics
    ///
    /// Panics if `tenant >= tenants` or `tenants == 0`.
    pub fn tenant_slice(mut self, tenant: usize, tenants: usize) -> Self {
        assert!(tenants > 0, "at least one tenant");
        assert!(tenant < tenants, "tenant index out of range");
        let table_span = (Self::DATA_REGION_BASE - Self::TABLE_REGION_BASE) / tenants as u64;
        let table_span = table_span - table_span % TABLE_BYTES;
        self.table_base = Self::TABLE_REGION_BASE + tenant as u64 * table_span;
        let frames = Self::DATA_REGION_BYTES / self.page_size.bytes();
        let per_tenant = frames / tenants as u64;
        self.data_index_base = tenant as u64 * per_tenant;
        self.data_frames_capacity = per_tenant;
        self
    }

    /// The data-page granularity this allocator serves.
    pub fn page_size(&self) -> PageSize {
        self.page_size
    }

    /// Allocates a zeroed 4 KiB page-table node, returning its base
    /// physical address.
    pub fn alloc_table(&mut self) -> PhysAddr {
        let addr = self.table_base + self.next_table * TABLE_BYTES;
        self.next_table += 1;
        PhysAddr::new(addr)
    }

    /// Number of page-table nodes allocated so far.
    pub fn tables_allocated(&self) -> u64 {
        self.next_table
    }

    /// Allocates a physically contiguous region of `bytes` bytes (rounded
    /// up to whole 4 KiB nodes) in the table region — used by the hashed
    /// page table, whose buckets are indexed by address arithmetic.
    pub fn alloc_table_region(&mut self, bytes: u64) -> PhysAddr {
        let nodes = bytes.div_ceil(TABLE_BYTES).max(1);
        let base = self.table_base + self.next_table * TABLE_BYTES;
        self.next_table += nodes;
        PhysAddr::new(base)
    }

    /// Allocates one data frame, or `None` if the region is exhausted —
    /// the signal the demand-paging memory manager turns into an eviction
    /// instead of a crash mid-run.
    pub fn try_alloc_data_frame(&mut self) -> Option<Pfn> {
        loop {
            if self.next_data_index >= self.data_frames_capacity {
                return None;
            }
            let idx = if self.scramble {
                self.permute(self.next_data_index)
            } else {
                self.next_data_index
            };
            self.next_data_index += 1;
            let base_pfn = Self::DATA_REGION_BASE >> self.page_size.offset_bits();
            let pfn = Pfn::new(base_pfn + self.data_index_base + idx);
            if !self.retired.contains(&pfn.value()) {
                return Some(pfn);
            }
            // Bad frame: skip it and keep walking the region.
        }
    }

    /// Marks a frame as bad: it will never be handed out again, even if
    /// freed back by the memory manager. Models hardware page retirement
    /// after repeated data-path failures.
    pub fn retire_frame(&mut self, pfn: Pfn) {
        self.retired.insert(pfn.value());
    }

    /// Whether a frame has been retired to the bad-frame list.
    pub fn is_retired(&self, pfn: Pfn) -> bool {
        self.retired.contains(&pfn.value())
    }

    /// Number of frames on the bad-frame list.
    pub fn retired_frames(&self) -> u64 {
        self.retired.len() as u64
    }

    /// Allocates one data frame (legacy prebuilt path).
    ///
    /// # Panics
    ///
    /// Panics if the data region is exhausted (practically unreachable
    /// when prebuilding: benchmark footprints are far below 1 TiB).
    pub fn alloc_data_frame(&mut self) -> Pfn {
        self.try_alloc_data_frame()
            .expect("data frame region exhausted")
    }

    /// Number of data frames allocated so far.
    pub fn data_frames_allocated(&self) -> u64 {
        self.next_data_index
    }

    /// Base physical address of an allocated frame.
    pub fn frame_base(&self, pfn: Pfn) -> PhysAddr {
        self.page_size.base_of_pfn(pfn)
    }

    /// A fixed bijective permutation of the frame index space (multiply by
    /// an odd constant modulo a power of two is invertible).
    fn permute(&self, idx: u64) -> u64 {
        let modulus = self.data_frames_capacity.next_power_of_two();
        let mut x = idx;
        // A couple of rounds of multiply-xor keeps neighbours apart.
        loop {
            x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) & (modulus - 1);
            x ^= x >> 7;
            x &= modulus - 1;
            if x < self.data_frames_capacity {
                return x;
            }
            // Cycle-walk until we land inside the capacity.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_are_4k_apart() {
        let mut a = FrameAllocator::new(PageSize::Size64K);
        let t0 = a.alloc_table();
        let t1 = a.alloc_table();
        assert_eq!(t1.value() - t0.value(), TABLE_BYTES);
        assert_eq!(a.tables_allocated(), 2);
    }

    #[test]
    fn sequential_data_frames_are_contiguous() {
        let mut a = FrameAllocator::new(PageSize::Size64K);
        let f0 = a.alloc_data_frame();
        let f1 = a.alloc_data_frame();
        assert_eq!(f1.value(), f0.value() + 1);
    }

    #[test]
    fn scrambled_frames_are_unique_and_in_region() {
        let mut a = FrameAllocator::new(PageSize::Size64K);
        let mut s = FrameAllocator::new_scrambled(PageSize::Size64K);
        let mut seen = swgpu_types::FastSet::default();
        let mut differs = false;
        for _ in 0..1000 {
            let seq = a.alloc_data_frame();
            let scr = s.alloc_data_frame();
            assert!(seen.insert(scr), "scrambled allocator reused a frame");
            if seq != scr {
                differs = true;
            }
            let base = s.frame_base(scr).value();
            assert!(base >= FrameAllocator::DATA_REGION_BASE);
            assert!(base < FrameAllocator::DATA_REGION_BASE + (1 << 41));
        }
        assert!(differs, "scrambling had no effect");
    }

    #[test]
    fn try_alloc_returns_none_on_exhaustion() {
        let mut a = FrameAllocator::new(PageSize::Size2M);
        let capacity = FrameAllocator::DATA_REGION_BYTES / PageSize::Size2M.bytes();
        for _ in 0..capacity {
            assert!(a.try_alloc_data_frame().is_some());
        }
        assert!(a.try_alloc_data_frame().is_none());
        assert_eq!(a.data_frames_allocated(), capacity);
    }

    #[test]
    fn retired_frames_are_never_reissued() {
        let mut a = FrameAllocator::new(PageSize::Size64K);
        let f0 = a.alloc_data_frame();
        let mut b = FrameAllocator::new(PageSize::Size64K);
        b.retire_frame(f0);
        assert!(b.is_retired(f0));
        assert_eq!(b.retired_frames(), 1);
        let got = b.alloc_data_frame();
        assert_ne!(got, f0, "allocator reissued a retired frame");
        // The very next sequential frame is handed out instead.
        assert_eq!(got.value(), f0.value() + 1);
    }

    #[test]
    fn tenant_slices_are_disjoint_and_identity_for_single_tenant() {
        // Identity: tenant 0 of 1 behaves exactly like a plain allocator.
        let mut plain = FrameAllocator::new(PageSize::Size64K);
        let mut sliced = FrameAllocator::new(PageSize::Size64K).tenant_slice(0, 1);
        for _ in 0..16 {
            assert_eq!(plain.alloc_table(), sliced.alloc_table());
            assert_eq!(plain.alloc_data_frame(), sliced.alloc_data_frame());
        }
        // Disjointness: two tenants of four never hand out the same frame
        // or table node.
        let mut t0 = FrameAllocator::new_scrambled(PageSize::Size64K).tenant_slice(0, 4);
        let mut t1 = FrameAllocator::new_scrambled(PageSize::Size64K).tenant_slice(1, 4);
        let mut seen = swgpu_types::FastSet::default();
        for _ in 0..1000 {
            assert!(seen.insert(t0.alloc_data_frame()), "t0 frame reuse");
            assert!(seen.insert(t1.alloc_data_frame()), "cross-tenant frame");
            assert!(
                seen.insert(Pfn::new(t0.alloc_table().value())),
                "t0 table reuse"
            );
            assert!(
                seen.insert(Pfn::new(t1.alloc_table().value())),
                "cross-tenant table"
            );
        }
    }

    #[test]
    fn regions_do_not_overlap() {
        let mut a = FrameAllocator::new(PageSize::Size2M);
        let table_top = a.alloc_table().value() + TABLE_BYTES * 1_000_000;
        assert!(table_top < FrameAllocator::DATA_REGION_BASE);
    }
}
