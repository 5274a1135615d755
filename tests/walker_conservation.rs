//! Property tests: the walk engines conserve requests — every request
//! enqueued on the hardware subsystem or a PW Warp completes exactly
//! once, with the correct translation, under arbitrary memory-latency
//! interleavings.

use proptest::prelude::*;
use softwalker::{PwWarpConfig, PwWarpUnit, SwWalkRequest};
use std::collections::BTreeMap;
use swgpu_mem::{MemReq, PhysMem};
use swgpu_pt::{AddressSpace, PageWalkCache};
use swgpu_ptw::{PtwConfig, PtwSubsystem, TableRef, WalkContext, WalkRequest};
use swgpu_types::{Asid, Cycle, DelayQueue, IdGen, PageSize, Pfn, Vpn};

fn build_space(pages: u64) -> (PhysMem, AddressSpace) {
    let mut mem = PhysMem::new();
    let mut space = AddressSpace::new(PageSize::Size64K, &mut mem);
    space.map_region(swgpu_types::VirtAddr::new(0), pages * 64 * 1024, &mut mem);
    (mem, space)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Hardware subsystem: N requests with pseudo-random per-read
    /// latencies all complete exactly once with correct results, for any
    /// walker-pool size.
    #[test]
    fn ptw_subsystem_conserves_requests(
        vpns in prop::collection::vec(0u64..512, 1..40),
        walkers in 1usize..8,
        nha in any::<bool>(),
        lat_seed in 0u64..1000,
    ) {
        let (mem, space) = build_space(512);
        let expected: BTreeMap<u64, Pfn> = space.mappings().map(|(v, p)| (v.value(), p)).collect();
        let mut sub = PtwSubsystem::new(PtwConfig {
            walkers,
            pwb_entries: 4096,
            ..PtwConfig { nha, ..PtwConfig::default() }
        });
        let mut pwc = PageWalkCache::new(32);
        pwc.set_root(Asid::ZERO, space.radix().root());
        let mut ids = IdGen::new();
        for &v in &vpns {
            prop_assert!(sub.enqueue(WalkRequest::new(Vpn::new(v), Cycle::ZERO)));
        }
        let mut now = Cycle::ZERO;
        let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
        let mut results: Vec<(u64, Option<Pfn>)> = Vec::new();
        for i in 0..2_000_000u64 {
            {
                let mut ctx = WalkContext {
                    mem: &mem,
                    pwc: &mut pwc,
                    table: TableRef::Radix,
                };
                sub.tick(now, &mut ctx, &mut ids);
                while let Some(resp) = inflight.pop_ready(now) {
                    sub.on_mem_response(resp, now, &mut ctx, &mut ids);
                }
            }
            while let Some(req) = sub.pop_mem_request() {
                let lat = 1 + (lat_seed.wrapping_mul(i + 7) % 97);
                inflight.push(now + lat, req);
            }
            while let Some(c) = sub.pop_completion() {
                for r in c.results {
                    results.push((r.vpn.value(), r.pfn));
                }
            }
            if sub.is_idle() && inflight.is_empty() {
                break;
            }
            now = now.next();
        }
        prop_assert_eq!(results.len(), vpns.len(), "every request completes once");
        for (v, pfn) in results {
            prop_assert_eq!(pfn, expected.get(&v).copied(), "vpn {}", v);
        }
    }

    /// PW Warp unit: same conservation property for the software walker.
    #[test]
    fn pw_warp_conserves_requests(
        vpns in prop::collection::vec(0u64..512, 1..32),
        threads in 1usize..8,
        lat_seed in 0u64..1000,
    ) {
        let (mem, space) = build_space(512);
        let expected: BTreeMap<u64, Pfn> = space.mappings().map(|(v, p)| (v.value(), p)).collect();
        let mut unit = PwWarpUnit::new(PwWarpConfig {
            threads,
            softpwb_entries: vpns.len().max(1),
            ..PwWarpConfig::default()
        });
        let mut pwc = PageWalkCache::new(32);
        pwc.set_root(Asid::ZERO, space.radix().root());
        let mut ids = IdGen::new();
        for &v in &vpns {
            let start = pwc.lookup(Asid::ZERO, Vpn::new(v));
            prop_assert!(unit.accept(
                Cycle::ZERO,
                SwWalkRequest::new(Vpn::new(v), Cycle::ZERO, Cycle::ZERO, start.level, start.node_base),
            ));
        }
        let mut now = Cycle::ZERO;
        let mut inflight: DelayQueue<MemReq> = DelayQueue::new();
        let mut results: Vec<(u64, Option<Pfn>)> = Vec::new();
        for i in 0..2_000_000u64 {
            unit.tick(now, &mut ids);
            while let Some(req) = unit.pop_mem_request() {
                let lat = 1 + (lat_seed.wrapping_mul(i + 13) % 97);
                inflight.push(now + lat, req);
            }
            while let Some(resp) = inflight.pop_ready(now) {
                unit.on_mem_response(resp, now, &mem, &mut pwc);
            }
            while let Some(c) = unit.pop_completion() {
                results.push((c.vpn.value(), c.pfn));
            }
            if unit.is_idle() && inflight.is_empty() {
                break;
            }
            now = now.next();
        }
        prop_assert_eq!(results.len(), vpns.len());
        for (v, pfn) in results {
            prop_assert_eq!(pfn, expected.get(&v).copied(), "vpn {}", v);
        }
        prop_assert_eq!(unit.stats().walks_completed as usize, vpns.len());
    }
}
