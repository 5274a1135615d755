//! Property tests: every translation mechanism in the repository — the
//! functional radix walk, the hashed page table, the timed hardware
//! walker and the software PW Warp — must agree on every mapping.

use proptest::prelude::*;
use softwalker::{PwWarpConfig, PwWarpUnit, SwWalkRequest};
use swgpu_mem::{MemReq, PhysMem};
use swgpu_pt::{AddressSpace, PageWalkCache, PwcStats};
use swgpu_ptw::{PtwConfig, PtwSubsystem, TableRef, WalkContext, WalkRequest};
use swgpu_types::{Asid, Cycle, DelayQueue, IdGen, PageSize, Pfn, PteReadEvent, Vpn};

/// What one cold walk left behind besides its result: the `(vpn, level)`
/// of every PTE read it decoded, in order, and the PWC's statistics.
type Footprint = (Vec<(Vpn, u8)>, PwcStats);

fn footprint(events: Vec<PteReadEvent>, pwc: &PageWalkCache) -> Footprint {
    let reads = events.into_iter().map(|e| (e.vpn, e.level)).collect();
    (reads, pwc.stats())
}

/// Builds an address space with `n` pages mapped at scattered VPNs.
fn build_space(vpns: &[u64]) -> (PhysMem, AddressSpace, Vec<(Vpn, Pfn)>) {
    let mut mem = PhysMem::new();
    let mut space = AddressSpace::new_scrambled(PageSize::Size64K, &mut mem);
    let mut pairs = Vec::new();
    for &v in vpns {
        let vpn = Vpn::new(v);
        let pfn = space.map_page(vpn, &mut mem);
        pairs.push((vpn, pfn));
    }
    (mem, space, pairs)
}

/// Walks `vpn` through the timed hardware subsystem, returning its result.
fn hw_walk(space: &AddressSpace, mem: &PhysMem, vpn: Vpn) -> Option<Pfn> {
    hw_walk_observed(space, mem, vpn).0
}

/// [`hw_walk`] with PTE-read observation armed.
fn hw_walk_observed(space: &AddressSpace, mem: &PhysMem, vpn: Vpn) -> (Option<Pfn>, Footprint) {
    let mut sub = PtwSubsystem::new(PtwConfig::default());
    sub.set_observed(true);
    let mut pwc = PageWalkCache::new(32);
    pwc.set_root(Asid::ZERO, space.radix().root());
    let mut ids = IdGen::new();
    sub.enqueue(WalkRequest::new(vpn, Cycle::ZERO));
    let mut now = Cycle::ZERO;
    let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
    for _ in 0..100_000 {
        {
            let mut ctx = WalkContext {
                mem,
                pwc: &mut pwc,
                table: TableRef::Radix,
            };
            sub.tick(now, &mut ctx, &mut ids);
            while let Some(resp) = inflight.pop_ready(now) {
                sub.on_mem_response(resp, now, &mut ctx, &mut ids);
            }
        }
        while let Some(req) = sub.pop_mem_request() {
            inflight.push(now + 20, req);
        }
        if let Some(c) = sub.pop_completion() {
            return (c.results[0].pfn, footprint(sub.drain_obs_events(), &pwc));
        }
        now = now.next();
    }
    panic!("hardware walk did not complete");
}

/// Walks `vpn` on a PW Warp, returning its result.
fn sw_walk(space: &AddressSpace, mem: &PhysMem, vpn: Vpn) -> Option<Pfn> {
    sw_walk_observed(space, mem, vpn).0
}

/// [`sw_walk`] with PTE-read observation armed.
fn sw_walk_observed(space: &AddressSpace, mem: &PhysMem, vpn: Vpn) -> (Option<Pfn>, Footprint) {
    let mut unit = PwWarpUnit::new(PwWarpConfig::default());
    unit.set_observed(true);
    let mut pwc = PageWalkCache::new(32);
    pwc.set_root(Asid::ZERO, space.radix().root());
    let mut ids = IdGen::new();
    let start = pwc.lookup(Asid::ZERO, vpn);
    unit.accept(
        Cycle::ZERO,
        SwWalkRequest::new(vpn, Cycle::ZERO, Cycle::ZERO, start.level, start.node_base),
    );
    let mut now = Cycle::ZERO;
    let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
    for _ in 0..100_000 {
        unit.tick(now, &mut ids);
        while let Some(req) = unit.pop_mem_request() {
            inflight.push(now + 20, req);
        }
        while let Some(resp) = inflight.pop_ready(now) {
            unit.on_mem_response(resp, now, mem, &mut pwc);
        }
        if let Some(c) = unit.pop_completion() {
            return (c.pfn, footprint(unit.drain_obs_events(), &pwc));
        }
        now = now.next();
    }
    panic!("software walk did not complete");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_walkers_agree_on_mapped_pages(
        vpns in prop::collection::btree_set(0u64..(1 << 20), 1..24)
    ) {
        let vpns: Vec<u64> = vpns.into_iter().collect();
        let (mut mem, mut space, pairs) = build_space(&vpns);
        let hashed = space.build_hashed(&mut mem);
        for (vpn, pfn) in pairs {
            prop_assert_eq!(space.radix().translate(vpn, &mem), Some(pfn));
            prop_assert_eq!(hashed.lookup(vpn, &mem).0, Some(pfn));
            prop_assert_eq!(hw_walk(&space, &mem, vpn), Some(pfn));
            prop_assert_eq!(sw_walk(&space, &mem, vpn), Some(pfn));
            // Both walkers run one walk engine: a cold walk decodes the
            // same levels of the same VPN and leaves the same PWC stats.
            let hw = hw_walk_observed(&space, &mem, vpn).1;
            prop_assert_eq!(hw.0.len(), 4, "a cold walk reads every level");
            prop_assert_eq!(hw, sw_walk_observed(&space, &mem, vpn).1);
        }
    }

    #[test]
    fn all_walkers_agree_on_unmapped_pages(
        vpns in prop::collection::btree_set(0u64..(1 << 20), 1..12),
        probe in (1u64 << 20)..(1 << 24)
    ) {
        let vpns: Vec<u64> = vpns.into_iter().collect();
        let (mut mem, mut space, _) = build_space(&vpns);
        let hashed = space.build_hashed(&mut mem);
        let vpn = Vpn::new(probe);
        prop_assert_eq!(space.radix().translate(vpn, &mem), None);
        prop_assert_eq!(hashed.lookup(vpn, &mem).0, None);
        prop_assert_eq!(hw_walk(&space, &mem, vpn), None);
        prop_assert_eq!(sw_walk(&space, &mem, vpn), None);
    }

    #[test]
    fn page_offsets_survive_translation(
        vpn in 0u64..(1 << 20),
        offset in 0u64..(64 * 1024)
    ) {
        let (mem, space, _) = build_space(&[vpn]);
        let page = PageSize::Size64K;
        let va = swgpu_types::VirtAddr::new(vpn * page.bytes() + offset);
        let pa = space.translate(va, &mem).expect("mapped");
        prop_assert_eq!(pa.value() % page.bytes(), offset);
    }
}
