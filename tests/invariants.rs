//! Property tests on structural invariants: the MSHR paths never lose or
//! duplicate a waiter, the In-TLB MSHR respects its budgets, and the
//! cache/DRAM pipeline conserves requests.

use proptest::prelude::*;
use swgpu_mem::{AccessKind, Cache, CacheConfig, Dram, DramConfig, MemReq};
use swgpu_tlb::{L2MissOutcome, L2TlbComplex, ReplPolicy, TlbConfig, TlbMshrConfig};
use swgpu_types::{Asid, Cycle, MemReqId, Pfn, PhysAddr, Vpn};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every accepted miss is released exactly once, no matter how
    /// requests interleave between the dedicated MSHRs and the In-TLB
    /// overflow.
    #[test]
    fn l2_complex_conserves_waiters(
        vpns in prop::collection::vec(0u64..64, 1..200),
        mshr_entries in 1usize..8,
        in_tlb_max in prop::sample::select(vec![0usize, 4, 16, 64]),
    ) {
        let mut l2: L2TlbComplex<u64> = L2TlbComplex::new(
            TlbConfig { name: "t".into(), entries: 64, assoc: 4, repl: ReplPolicy::Lru },
            TlbMshrConfig { entries: mshr_entries, max_merges: 4 },
            in_tlb_max,
        );
        let mut accepted = swgpu_types::FastMap::<u64, Vec<u64>>::default();
        let mut next_walks = Vec::new();
        for (tag, &v) in vpns.iter().enumerate() {
            match l2.access(Asid::ZERO, Vpn::new(v), tag as u64) {
                L2MissOutcome::Hit(_) => {}
                L2MissOutcome::MissNewWalk => {
                    accepted.entry(v).or_default().push(tag as u64);
                    next_walks.push(v);
                }
                L2MissOutcome::MissMerged => {
                    accepted.entry(v).or_default().push(tag as u64);
                }
                L2MissOutcome::MshrFailure => {}
            }
        }
        // Complete every launched walk; collect released waiters.
        let mut released = swgpu_types::FastMap::<u64, Vec<u64>>::default();
        for v in next_walks {
            let waiters = l2.complete_walk(Asid::ZERO, Vpn::new(v), Pfn::new(v + 1000));
            released.entry(v).or_default().extend(waiters);
        }
        prop_assert_eq!(accepted, released);
        prop_assert_eq!(l2.pending_in_tlb(), 0);
        prop_assert_eq!(l2.walks_in_flight(), 0);
    }

    /// The In-TLB overflow never exceeds its configured budget or the
    /// per-set capacity.
    #[test]
    fn in_tlb_budget_is_never_exceeded(
        vpns in prop::collection::vec(0u64..256, 1..300),
        in_tlb_max in prop::sample::select(vec![1usize, 3, 7, 32]),
    ) {
        let mut l2: L2TlbComplex<u32> = L2TlbComplex::new(
            TlbConfig { name: "t".into(), entries: 64, assoc: 4, repl: ReplPolicy::Lru },
            TlbMshrConfig { entries: 2, max_merges: 2 },
            in_tlb_max,
        );
        for (i, &v) in vpns.iter().enumerate() {
            let _ = l2.access(Asid::ZERO, Vpn::new(v), i as u32);
            prop_assert!(l2.pending_in_tlb() <= in_tlb_max);
        }
    }

    /// The cache answers exactly the requests it accepted — hits plus
    /// filled misses plus merges — and every fill it emits matches an
    /// outstanding MSHR.
    #[test]
    fn cache_conserves_requests(addrs in prop::collection::vec(0u64..4096, 1..300)) {
        let mut cache = Cache::new(CacheConfig {
            name: "t".into(),
            size_bytes: 4 * 128 * 2,
            assoc: 2,
            line_bytes: 128,
            sector_bytes: 32,
            hit_latency: 2,
            mshr_entries: 8,
            mshr_max_merges: 4,
        });
        let mut accepted = 0u64;
        let mut now = Cycle::ZERO;
        let mut responses = 0u64;
        for (i, &a) in addrs.iter().enumerate() {
            let req = MemReq::new(MemReqId(i as u64), PhysAddr::new(a & !3), AccessKind::Data);
            if cache.access(now, req).accepted() {
                accepted += 1;
            }
            // Service fills and drain responses aggressively.
            now += 3;
            while let Some(fill) = cache.pop_fill_request(now) {
                cache.complete_fill(now, fill);
            }
            while cache.pop_response(now).is_some() {
                responses += 1;
            }
        }
        // Final drain.
        now += 10;
        while let Some(fill) = cache.pop_fill_request(now) {
            cache.complete_fill(now, fill);
        }
        while cache.pop_response(now).is_some() {
            responses += 1;
        }
        prop_assert_eq!(accepted, responses);
        prop_assert!(cache.is_idle());
    }

    /// DRAM completes every request exactly once, in bounded time.
    #[test]
    fn dram_completes_everything(addrs in prop::collection::vec(0u64..65536, 1..200)) {
        let mut dram = Dram::new(DramConfig::default());
        let mut last_done = Cycle::ZERO;
        for (i, &a) in addrs.iter().enumerate() {
            let done = dram.access(
                Cycle::ZERO,
                MemReq::new(MemReqId(i as u64), PhysAddr::new(a), AccessKind::Data),
            );
            last_done = last_done.max(done);
        }
        let mut completed = 0;
        for c in 0..=last_done.value() {
            while dram.pop_complete(Cycle::new(c)).is_some() {
                completed += 1;
            }
        }
        prop_assert_eq!(completed, addrs.len());
        prop_assert!(dram.is_idle());
    }
}
