//! Simulated physical memory and the translation tables it holds.

use swgpu_mem::PhysMem;
use swgpu_pt::{AddressSpace, HashedPageTable, PageWalkCache};
use swgpu_ptw::{TableRef, WalkContext};
use swgpu_types::{Asid, PageSize, VirtAddr, Vpn};

/// A physical memory image with the workload footprint already mapped.
///
/// Building one is deterministic in `(page_size, scrambled, footprint
/// bytes)`: the frame allocator and radix table insertions depend on
/// nothing else. The experiment runner exploits this by building the
/// image once per distinct footprint and handing each cell a clone as a
/// [`crate::SimInput::Prebuilt`].
#[derive(Debug, Clone)]
pub struct PrebuiltMemory {
    pub(crate) page_size: PageSize,
    pub(crate) scrambled: bool,
    pub(crate) phys: PhysMem,
    pub(crate) space: AddressSpace,
}

impl PrebuiltMemory {
    /// Maps `footprint_bytes` of virtual address space starting at 0 into
    /// a fresh physical memory, exactly as [`crate::GpuSimulator::build`]
    /// does for a [`crate::SimInput::Mapped`].
    pub fn build(page_size: PageSize, scrambled: bool, footprint_bytes: u64) -> Self {
        let mut phys = PhysMem::new();
        // Tenant 0 of 1 owns the whole table and data regions.
        let mut space = AddressSpace::new_tenant(page_size, 0, 1, scrambled, &mut phys);
        space.map_region(VirtAddr::new(0), footprint_bytes, &mut phys);
        Self {
            page_size,
            scrambled,
            phys,
            space,
        }
    }

    /// Number of pages the image has mapped.
    pub fn mapped_pages(&self) -> usize {
        self.space.mapped_pages()
    }
}

/// The machine's memory: physical memory, the per-tenant address spaces
/// (indexed by ASID) and hashed table mapped in it, and the page walk
/// cache in front of them, with one walk root per tenant.
pub(crate) struct Memory {
    pub(crate) phys: PhysMem,
    // Single-tenant runs hold exactly one space; sub-entry-sharing mode
    // clones one shared space into every slot so indexing stays uniform.
    pub(crate) spaces: Vec<AddressSpace>,
    pub(crate) hashed: Option<HashedPageTable>,
    pub(crate) pwc: PageWalkCache,
}

impl Memory {
    pub(crate) fn new(
        phys: PhysMem,
        spaces: Vec<AddressSpace>,
        hashed: Option<HashedPageTable>,
        pwc_entries: usize,
    ) -> Self {
        let mut pwc = PageWalkCache::new(pwc_entries);
        for (i, sp) in spaces.iter().enumerate() {
            pwc.set_root(Asid::new(i as u16), sp.radix().root());
        }
        Self {
            phys,
            spaces,
            hashed,
            pwc,
        }
    }

    /// Whether `vpn` is mapped in `asid`'s radix table right now. Reads
    /// the address space's mapping mirror; the radix table is written
    /// only through the same space, so the two agree (checked in debug
    /// builds).
    pub(crate) fn is_mapped(&self, asid: Asid, vpn: Vpn) -> bool {
        let space = &self.spaces[asid.index()];
        let pfn = space.pfn_of(vpn);
        debug_assert_eq!(
            space.radix().translate(vpn, &self.phys),
            pfn,
            "mapping mirror disagrees with the radix table at {vpn:?}"
        );
        pfn.is_some()
    }

    /// What the hardware walkers need from memory: the PWC's per-ASID
    /// roots pick the radix table, so only a hashed table is named.
    pub(crate) fn walk_context(&mut self) -> WalkContext<'_> {
        WalkContext {
            mem: &self.phys,
            pwc: &mut self.pwc,
            table: self
                .hashed
                .as_ref()
                .map_or(TableRef::Radix, TableRef::Hashed),
        }
    }
}
