//! Property tests of the page-table state the demand-paging path keeps:
//! the hashed mapping mirror against the radix table it shadows, the
//! memory manager's lowest-first frame recycling, and the leaf-cursor
//! region build against page-by-page mapping.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use swgpu_mem::PhysMem;
use swgpu_pt::{AddressSpace, MemoryManager};
use swgpu_types::{MmConfig, MmEvictPolicy, PageSize, Pfn, PhysAddr, VirtAddr, Vpn};

/// VPNs the fault sequences touch: three 64 KiB groups of 4 KiB pages.
const PAGES: u64 = 48;

/// The mirror answers exactly as a walk of the radix table does, matches
/// the test's own model of the mapped pages, and iterates in strictly
/// ascending VPN order.
fn assert_mirror(space: &AddressSpace, mem: &PhysMem, model: &BTreeMap<Vpn, Pfn>) {
    for v in 0..PAGES {
        let vpn = Vpn::new(v);
        let pfn = space.pfn_of(vpn);
        assert_eq!(pfn, space.radix().translate(vpn, mem), "{vpn:?}");
        assert_eq!(pfn, model.get(&vpn).copied(), "{vpn:?}");
    }
    let listed: Vec<(Vpn, Pfn)> = space.mappings().collect();
    assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "{listed:?}");
    assert_eq!(
        listed,
        model.iter().map(|(&v, &p)| (v, p)).collect::<Vec<_>>()
    );
}

/// Every word of every page-table node, root first: with the node count,
/// the whole of what a table build leaves in memory.
fn table_words(space: &AddressSpace, mem: &PhysMem) -> Vec<u64> {
    let root = space.radix().root().value();
    (0..space.table_nodes() * 512)
        .map(|i| mem.read_u64(PhysAddr::new(root + i * 8)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random faults (evicting past a budget), quarantines, corruptions
    /// and touches. After every step the mirror agrees with the radix
    /// table, and every fault that recycles a frame takes the lowest one
    /// free.
    #[test]
    fn fault_evict_quarantine_keep_the_mirror_and_recycle_lowest_first(
        budget in prop::sample::select(vec![0u64, 1, 3, 8, 20]),
        lru in any::<bool>(),
        coalesce in any::<bool>(),
        scrambled in any::<bool>(),
        threshold in 0u32..4,
        ops in prop::collection::vec((0u8..10, 0..PAGES, any::<u64>()), 1..160),
    ) {
        let cfg = MmConfig {
            resident_page_budget: budget,
            coalesce,
            evict: if lru { MmEvictPolicy::Lru } else { MmEvictPolicy::Fifo },
            ..MmConfig::demand_paged()
        };
        let mut mem = PhysMem::new();
        let mut space = if scrambled {
            AddressSpace::new_scrambled(PageSize::Size4K, &mut mem)
        } else {
            AddressSpace::new(PageSize::Size4K, &mut mem)
        };
        let mut mm = MemoryManager::new(cfg, PageSize::Size4K);
        if threshold > 0 {
            mm.set_data_fault_checking(threshold);
        }
        let mut model: BTreeMap<Vpn, Pfn> = BTreeMap::new();
        let mut free: BTreeSet<Pfn> = BTreeSet::new();
        let mut evicted = Vec::new();
        for (op, v, garble) in ops {
            let vpn = Vpn::new(v);
            match op {
                0..=5 => {
                    let retired = space.retired_frames();
                    evicted.clear();
                    let out = mm.service_fault(vpn, &mut space, &mut mem, &mut evicted);
                    prop_assert!(evicted.len() <= 1, "one victim per fault: {evicted:?}");
                    for victim in &evicted {
                        let frame = model.remove(victim).expect("victim was resident");
                        if space.retired_frames() == retired {
                            free.insert(frame);
                        }
                    }
                    if let Some(&pfn) = model.get(&vpn) {
                        prop_assert_eq!(out.pfn, pfn, "a resident page keeps its frame");
                    } else {
                        match free.pop_first() {
                            Some(lowest) => prop_assert_eq!(out.pfn, lowest),
                            None => prop_assert!(
                                !model.values().any(|&p| p == out.pfn),
                                "fresh frame {:?} already mapped", out.pfn
                            ),
                        }
                        model.insert(vpn, out.pfn);
                    }
                }
                6 => {
                    if let Some(frame) = model.remove(&vpn) {
                        if !mm.quarantine_page(vpn, &mut space, &mut mem) {
                            free.insert(frame);
                        }
                    } else {
                        prop_assert!(!mm.quarantine_page(vpn, &mut space, &mut mem));
                    }
                }
                7 => {
                    if let Some(&frame) = model.get(&vpn) {
                        mm.corrupt_frame(frame, garble, &mut mem);
                    }
                }
                _ => mm.touch(vpn),
            }
            prop_assert_eq!(mm.resident_pages(), model.len() as u64);
            assert_mirror(&space, &mem, &model);
        }
    }

    /// Region builds through the leaf cursor, overlapping and interleaved
    /// with single-page maps, leave the node count, every table byte and
    /// the mappings exactly as mapping each page with `map_page` does.
    #[test]
    fn region_build_matches_page_by_page_mapping(
        page in prop::sample::select(vec![PageSize::Size4K, PageSize::Size64K, PageSize::Size2M]),
        scrambled in any::<bool>(),
        regions in prop::collection::vec((0u64..3000, 0u64..1200, any::<bool>()), 1..6),
    ) {
        let new_space = |mem: &mut PhysMem| {
            if scrambled {
                AddressSpace::new_scrambled(page, mem)
            } else {
                AddressSpace::new(page, mem)
            }
        };
        let (mut fast_mem, mut slow_mem) = (PhysMem::new(), PhysMem::new());
        let mut fast = new_space(&mut fast_mem);
        let mut slow = new_space(&mut slow_mem);
        for (first, pages, single) in regions {
            // Starting regions on odd pages crosses leaf nodes mid-region.
            let first = first * 257;
            if single {
                fast.map_page(Vpn::new(first), &mut fast_mem);
                slow.map_page(Vpn::new(first), &mut slow_mem);
            }
            let start = VirtAddr::new(first * page.bytes());
            fast.map_region(start, pages * page.bytes(), &mut fast_mem);
            for v in first..first + pages {
                slow.map_page(Vpn::new(v), &mut slow_mem);
            }
        }
        prop_assert_eq!(fast.table_nodes(), slow.table_nodes());
        prop_assert_eq!(fast_mem.backed_granules(), slow_mem.backed_granules());
        prop_assert_eq!(fast.mappings().collect::<Vec<_>>(), slow.mappings().collect::<Vec<_>>());
        prop_assert!(table_words(&fast, &fast_mem) == table_words(&slow, &slow_mem));
    }
}
