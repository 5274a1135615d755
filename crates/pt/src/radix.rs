//! Four-level radix page table.

use crate::alloc::FrameAllocator;
use crate::walk::{RadixCursor, Step};
use swgpu_mem::PhysMem;
use swgpu_types::{Pfn, PhysAddr, Pte, Vpn};

/// Index bits consumed per radix level (512-entry nodes).
pub const LEVEL_BITS: u32 = 9;

/// The root level of the walk. Walks proceed from [`ROOT_LEVEL`] down to
/// [`LEAF_LEVEL`], reading one entry per level.
pub const ROOT_LEVEL: u8 = 4;

/// The leaf level; the entry read here is the final PTE.
pub const LEAF_LEVEL: u8 = 1;

/// The leaf node a run of [`RadixPageTable::map_at`] calls last reached:
/// its VPN group (`vpn >> LEVEL_BITS`) and base address. Starts empty.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeafCursor {
    leaf: Option<(u64, PhysAddr)>,
}

/// A four-level radix page table stored in simulated physical memory.
///
/// Level numbering follows the walk direction used in the paper's Figure 14
/// routine: the *root* node is level 4 and the *leaf* PTE level is 1. The
/// index for level `L` is bits `[(L-1)*9, L*9)` of the VPN, so a 33-bit VPN
/// (49-bit VA, 64 KB pages) fits comfortably in 4 levels.
///
/// Both the hardware PTW model and the PW-Warp `LDPT` instruction walk
/// it with a [`RadixCursor`]: the cursor names the physical address of
/// the next entry, the walker reads it through the timed memory
/// hierarchy, and the bytes come from [`PhysMem`]. The functional walks
/// below step the same cursor.
///
/// # Example
///
/// ```
/// use swgpu_mem::PhysMem;
/// use swgpu_pt::{FrameAllocator, RadixPageTable};
/// use swgpu_types::{PageSize, Pfn, Vpn};
///
/// let mut mem = PhysMem::new();
/// let mut alloc = FrameAllocator::new(PageSize::Size64K);
/// let mut pt = RadixPageTable::new(&mut alloc, &mut mem);
/// pt.map(Vpn::new(0x42), Pfn::new(0x99), &mut alloc, &mut mem);
/// assert_eq!(pt.translate(Vpn::new(0x42), &mem), Some(Pfn::new(0x99)));
/// assert_eq!(pt.translate(Vpn::new(0x43), &mem), None);
/// ```
#[derive(Debug, Clone)]
pub struct RadixPageTable {
    root: PhysAddr,
}

impl RadixPageTable {
    /// Allocates an empty table (just the root node).
    pub fn new(alloc: &mut FrameAllocator, _mem: &mut PhysMem) -> Self {
        Self {
            root: alloc.alloc_table(),
        }
    }

    /// Physical address of the root (level-4) node.
    pub fn root(&self) -> PhysAddr {
        self.root
    }

    /// The 9-bit node index used at `level` for `vpn`.
    ///
    /// # Panics
    ///
    /// Panics if `level` is outside `LEAF_LEVEL..=ROOT_LEVEL`.
    pub fn index_of(level: u8, vpn: Vpn) -> u64 {
        assert!(
            (LEAF_LEVEL..=ROOT_LEVEL).contains(&level),
            "radix level out of range"
        );
        (vpn.value() >> ((level - 1) as u32 * LEVEL_BITS)) & ((1 << LEVEL_BITS) - 1)
    }

    /// Physical address of the entry consulted at `level` of a walk for
    /// `vpn`, given the base address of the node serving that level.
    pub fn entry_addr(level: u8, node_base: PhysAddr, vpn: Vpn) -> PhysAddr {
        node_base + Self::index_of(level, vpn) * Pte::SIZE_BYTES
    }

    /// Installs a translation, allocating intermediate nodes on demand.
    ///
    /// Remapping an already-mapped VPN overwrites the leaf entry.
    pub fn map(&mut self, vpn: Vpn, pfn: Pfn, alloc: &mut FrameAllocator, mem: &mut PhysMem) {
        self.map_at(&mut LeafCursor::default(), vpn, pfn, alloc, mem);
    }

    /// [`RadixPageTable::map`] through a [`LeafCursor`]: the walk from the
    /// root (and any node allocation) happens only when `vpn` lies outside
    /// the leaf node the cursor last reached, which then moves there. A
    /// run of maps through one cursor therefore writes the same bytes and
    /// allocates the same nodes, in the same order, as the same maps one
    /// by one. A cursor belongs to one table: nodes are never freed, so
    /// the leaf it remembers stays valid for that table's lifetime.
    pub fn map_at(
        &mut self,
        cursor: &mut LeafCursor,
        vpn: Vpn,
        pfn: Pfn,
        alloc: &mut FrameAllocator,
        mem: &mut PhysMem,
    ) {
        let group = vpn.value() >> LEVEL_BITS;
        let leaf = match cursor.leaf {
            Some((g, node)) if g == group => node,
            _ => {
                let node = self.leaf_node(vpn, alloc, mem);
                cursor.leaf = Some((group, node));
                node
            }
        };
        let entry_addr = Self::entry_addr(LEAF_LEVEL, leaf, vpn);
        mem.write_u64(entry_addr, Pte::valid(pfn).raw());
    }

    /// Walks from the root to the leaf node serving `vpn`, allocating any
    /// missing directory node on the way, and returns the leaf's base.
    fn leaf_node(&mut self, vpn: Vpn, alloc: &mut FrameAllocator, mem: &mut PhysMem) -> PhysAddr {
        let mut node = self.root;
        for level in (LEAF_LEVEL + 1..=ROOT_LEVEL).rev() {
            let entry_addr = Self::entry_addr(level, node, vpn);
            let mut pde = Pte::from_raw(mem.read_u64(entry_addr));
            if !pde.is_valid() {
                // Directory entries store the child node's *address* in the
                // frame field (table nodes are 4 KiB, below page granularity,
                // so we carry the raw address rather than a page-size PFN).
                pde = Pte::valid(Pfn::new(alloc.alloc_table().value()));
                mem.write_u64(entry_addr, pde.raw());
            }
            node = PhysAddr::new(pde.pfn().value());
        }
        node
    }

    /// Removes a translation by zeroing the leaf entry. Intermediate
    /// nodes are deliberately kept: in-flight walks (and the page walk
    /// cache, which only holds upper-level entries) stay valid and simply
    /// observe an invalid leaf — a page fault — instead of a dangling
    /// directory pointer. Returns whether a mapping was present.
    pub fn unmap(&mut self, vpn: Vpn, mem: &mut PhysMem) -> bool {
        let mut cur = RadixCursor::new(ROOT_LEVEL, self.root);
        loop {
            let entry_addr = cur.entry_addr(vpn);
            match cur.step(Pte::from_raw(mem.read_u64(entry_addr))) {
                Step::Descend => {}
                Step::Leaf(Some(_)) => {
                    mem.write_u64(entry_addr, Pte::INVALID.raw());
                    return true;
                }
                Step::Leaf(None) | Step::Fault(_) => return false,
            }
        }
    }

    /// Functional (untimed) walk used by tests and by fault checking.
    /// Returns the mapped frame, or `None` if any level is invalid.
    pub fn translate(&self, vpn: Vpn, mem: &PhysMem) -> Option<Pfn> {
        let mut cur = RadixCursor::new(ROOT_LEVEL, self.root);
        loop {
            match cur.step(Pte::from_raw(mem.read_u64(cur.entry_addr(vpn)))) {
                Step::Descend => {}
                Step::Leaf(pfn) => return pfn,
                Step::Fault(_) => return None,
            }
        }
    }

    /// The node base for the next (lower) level given the directory entry
    /// just read at the current level. Returns `None` for invalid entries
    /// (a page fault at that level).
    pub fn next_node(pde: Pte) -> Option<PhysAddr> {
        pde.is_valid().then(|| PhysAddr::new(pde.pfn().value()))
    }

    /// Number of memory reads a full (PWC-cold) walk performs.
    pub const fn full_walk_accesses() -> u32 {
        (ROOT_LEVEL - LEAF_LEVEL + 1) as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_types::PageSize;

    fn setup() -> (RadixPageTable, FrameAllocator, PhysMem) {
        let mut mem = PhysMem::new();
        let mut alloc = FrameAllocator::new(PageSize::Size64K);
        let pt = RadixPageTable::new(&mut alloc, &mut mem);
        (pt, alloc, mem)
    }

    #[test]
    fn map_and_translate() {
        let (mut pt, mut alloc, mut mem) = setup();
        pt.map(Vpn::new(0x1_2345), Pfn::new(0xabc), &mut alloc, &mut mem);
        assert_eq!(
            pt.translate(Vpn::new(0x1_2345), &mem),
            Some(Pfn::new(0xabc))
        );
    }

    #[test]
    fn unmapped_is_none_at_any_level() {
        let (mut pt, mut alloc, mut mem) = setup();
        pt.map(Vpn::new(0), Pfn::new(1), &mut alloc, &mut mem);
        // Same leaf node, different index: leaf-level fault.
        assert_eq!(pt.translate(Vpn::new(1), &mem), None);
        // Entirely different top-level subtree: root-level fault.
        assert_eq!(pt.translate(Vpn::new(1 << 27), &mem), None);
    }

    #[test]
    fn sibling_mappings_share_intermediate_nodes() {
        let (mut pt, mut alloc, mut mem) = setup();
        let before = alloc.tables_allocated();
        pt.map(Vpn::new(0x10), Pfn::new(1), &mut alloc, &mut mem);
        let after_first = alloc.tables_allocated();
        pt.map(Vpn::new(0x11), Pfn::new(2), &mut alloc, &mut mem);
        let after_second = alloc.tables_allocated();
        assert_eq!(after_first - before, 3, "first map allocates 3 inner nodes");
        assert_eq!(after_second, after_first, "sibling reuses the whole path");
        assert_eq!(pt.translate(Vpn::new(0x10), &mem), Some(Pfn::new(1)));
        assert_eq!(pt.translate(Vpn::new(0x11), &mem), Some(Pfn::new(2)));
    }

    #[test]
    fn unmap_clears_leaf_and_keeps_intermediates() {
        let (mut pt, mut alloc, mut mem) = setup();
        pt.map(Vpn::new(0x10), Pfn::new(1), &mut alloc, &mut mem);
        pt.map(Vpn::new(0x11), Pfn::new(2), &mut alloc, &mut mem);
        let nodes = alloc.tables_allocated();
        assert!(pt.unmap(Vpn::new(0x10), &mut mem));
        assert_eq!(pt.translate(Vpn::new(0x10), &mem), None);
        assert_eq!(pt.translate(Vpn::new(0x11), &mem), Some(Pfn::new(2)));
        // Remapping reuses the intact intermediate path.
        pt.map(Vpn::new(0x10), Pfn::new(3), &mut alloc, &mut mem);
        assert_eq!(alloc.tables_allocated(), nodes, "no new nodes needed");
        assert_eq!(pt.translate(Vpn::new(0x10), &mem), Some(Pfn::new(3)));
    }

    #[test]
    fn unmap_of_unmapped_is_false() {
        let (mut pt, mut alloc, mut mem) = setup();
        assert!(!pt.unmap(Vpn::new(9), &mut mem));
        pt.map(Vpn::new(9), Pfn::new(1), &mut alloc, &mut mem);
        assert!(pt.unmap(Vpn::new(9), &mut mem));
        assert!(!pt.unmap(Vpn::new(9), &mut mem), "second unmap is a no-op");
    }

    #[test]
    fn remap_overwrites() {
        let (mut pt, mut alloc, mut mem) = setup();
        pt.map(Vpn::new(5), Pfn::new(1), &mut alloc, &mut mem);
        pt.map(Vpn::new(5), Pfn::new(2), &mut alloc, &mut mem);
        assert_eq!(pt.translate(Vpn::new(5), &mem), Some(Pfn::new(2)));
    }

    #[test]
    fn index_extraction_matches_figure_14() {
        // offset = (vpn >> ((pt_level-1)*9)) & 0x1FF
        let vpn = Vpn::new(0b101_000000001_000000010_000000011);
        assert_eq!(RadixPageTable::index_of(1, vpn), 0b000000011);
        assert_eq!(RadixPageTable::index_of(2, vpn), 0b000000010);
        assert_eq!(RadixPageTable::index_of(3, vpn), 0b000000001);
        assert_eq!(RadixPageTable::index_of(4, vpn), 0b101);
    }

    #[test]
    fn entry_addr_is_index_scaled() {
        let base = PhysAddr::new(0x1000);
        let vpn = Vpn::new(3);
        assert_eq!(
            RadixPageTable::entry_addr(1, base, vpn).value(),
            0x1000 + 3 * 8
        );
    }

    #[test]
    fn full_walk_is_four_accesses() {
        assert_eq!(RadixPageTable::full_walk_accesses(), 4);
    }

    #[test]
    #[should_panic(expected = "level out of range")]
    fn index_of_rejects_level_zero() {
        RadixPageTable::index_of(0, Vpn::new(0));
    }

    #[test]
    fn dense_region_translates_fully() {
        let (mut pt, mut alloc, mut mem) = setup();
        for i in 0..2048u64 {
            pt.map(Vpn::new(i), Pfn::new(1000 + i), &mut alloc, &mut mem);
        }
        for i in 0..2048u64 {
            assert_eq!(pt.translate(Vpn::new(i), &mem), Some(Pfn::new(1000 + i)));
        }
        // 2048 VPNs span 4 leaf nodes sharing upper levels.
        assert_eq!(alloc.tables_allocated(), 1 + 2 + 4);
    }
}
