//! Property tests on the TLB array: LRU behaviour, pending-state
//! isolation, ASID tag isolation, and agreement with a reference model.

use proptest::prelude::*;
use swgpu_tlb::{ReplPolicy, Tlb, TlbConfig};
use swgpu_types::{Asid, FastMap, Pfn, Vpn};

/// A reference "infinite TLB": a plain map. The real TLB may evict, so
/// the invariant is one-sided — every real hit must agree with the map,
/// and a real hit can never occur for an uninserted VPN.
#[derive(Default)]
struct RefTlb {
    map: FastMap<(u16, u64), u64>,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn hits_always_agree_with_reference(
        ops in prop::collection::vec((0u64..64, any::<bool>(), any::<bool>()), 1..200),
        assoc in prop::sample::select(vec![1usize, 2, 4, 8]),
    ) {
        // assoc ∈ {1,2,4,8} all divide 16, giving a power-of-two set count.
        let mut tlb = Tlb::new(TlbConfig {
            name: "prop".into(),
            entries: 16,
            assoc,
            repl: ReplPolicy::Lru,
        });
        let mut reference = RefTlb::default();
        for (vpn, second_asid, is_fill) in ops {
            // Two tenants fill colliding VPN ranges: a hit must agree
            // with the *issuing* tenant's mapping, never the other's.
            let asid = Asid::new(u16::from(second_asid));
            if is_fill {
                let pfn = vpn + 1000 + u64::from(second_asid) * 500_000;
                tlb.fill(asid, Vpn::new(vpn), Pfn::new(pfn));
                reference.map.insert((asid.value(), vpn), pfn);
            } else if let Some(pfn) = tlb.lookup(asid, Vpn::new(vpn)) {
                // A hit must agree with the reference and must have been
                // inserted at some point.
                prop_assert_eq!(Some(&pfn.value()), reference.map.get(&(asid.value(), vpn)));
            }
        }
    }

    #[test]
    fn valid_entries_never_exceed_capacity(
        vpns in prop::collection::vec(0u64..256, 1..300),
    ) {
        let mut tlb = Tlb::new(TlbConfig {
            name: "cap".into(),
            entries: 32,
            assoc: 4,
            repl: ReplPolicy::Lru,
        });
        for v in vpns {
            tlb.fill(Asid::ZERO, Vpn::new(v), Pfn::new(v));
            prop_assert!(tlb.valid_entries() <= 32);
        }
    }

    #[test]
    fn pending_and_valid_counts_are_consistent(
        ops in prop::collection::vec((0u64..32, 0u8..3), 1..200),
    ) {
        let mut tlb = Tlb::new(TlbConfig {
            name: "mix".into(),
            entries: 16,
            assoc: 4,
            repl: ReplPolicy::Lru,
        });
        let mut outstanding: Vec<u64> = Vec::new();
        for (vpn, op) in ops {
            match op {
                0 => {
                    tlb.fill(Asid::ZERO, Vpn::new(vpn), Pfn::new(vpn));
                }
                1 => {
                    if tlb.reserve_pending(Asid::ZERO, Vpn::new(vpn)) {
                        outstanding.push(vpn);
                    }
                }
                _ => {
                    if let Some(pos) = outstanding.iter().position(|&v| v == vpn) {
                        let cleared =
                            tlb.clear_pending_and_fill(Asid::ZERO, Vpn::new(vpn), Pfn::new(vpn));
                        prop_assert!(cleared >= 1);
                        // Remove every occurrence — clear resolves all
                        // tag-matching ways.
                        outstanding.retain(|&v| v != vpn);
                        let _ = pos;
                    }
                }
            }
            prop_assert_eq!(tlb.pending_entries(), outstanding.len());
            prop_assert!(tlb.valid_entries() + tlb.pending_entries() <= 16);
        }
    }

    #[test]
    fn recently_used_entries_survive_thrash(
        victims in prop::collection::vec(0u64..1024, 16..64),
    ) {
        // Fully-associative 32-entry TLB: an entry touched every iteration
        // must never be evicted by LRU.
        let mut tlb = Tlb::new(TlbConfig {
            name: "lru".into(),
            entries: 32,
            assoc: 32,
            repl: ReplPolicy::Lru,
        });
        let hot = Vpn::new(1 << 40);
        tlb.fill(Asid::ZERO, hot, Pfn::new(7));
        for v in victims {
            prop_assert_eq!(tlb.lookup(Asid::ZERO, hot), Some(Pfn::new(7)), "hot entry evicted");
            tlb.fill(Asid::ZERO, Vpn::new(v), Pfn::new(v));
        }
        prop_assert_eq!(tlb.lookup(Asid::ZERO, hot), Some(Pfn::new(7)));
    }

    /// Set uniqueness under arbitrary interleavings of every mutating
    /// operation, on both replacement policies, with TWO tenants whose
    /// VPN ranges fully collide: a (ASID, VPN) pair never has more than
    /// one Valid way, and a Valid way never coexists with a Pending way
    /// of the same tag (the duplicate-tag fill hazard). Multiple Pending
    /// ways for one tag are legal — that is the In-TLB merge path. A
    /// per-ASID flush must never disturb the other tenant's invariants.
    /// Under sub-entry sharing the rule holds per (ASID, VPN) too, with
    /// fills that remap a VPN to another PFN.
    #[test]
    fn set_uniqueness_under_arbitrary_interleavings(
        ops in prop::collection::vec((0u64..16, any::<bool>(), 0u8..7, any::<bool>()), 1..300),
        dead_block in any::<bool>(),
        sharing in any::<bool>(),
    ) {
        let mut tlb = Tlb::new(TlbConfig {
            name: "uniq".into(),
            entries: 16,
            assoc: 4,
            repl: if dead_block { ReplPolicy::DeadBlock } else { ReplPolicy::Lru },
        });
        tlb.set_sub_entry_sharing(sharing);
        for (vpn, second_asid, op, remap) in ops {
            let v = Vpn::new(vpn);
            let asid = Asid::new(u16::from(second_asid));
            let pfn = Pfn::new(vpn + if remap { 100 } else { 0 });
            match op {
                0 => {
                    tlb.fill(asid, v, pfn);
                }
                1 => {
                    tlb.fill_prefetched(asid, v, pfn);
                }
                2 => {
                    tlb.reserve_pending(asid, v);
                }
                3 => {
                    tlb.clear_pending_and_fill(asid, v, pfn);
                }
                4 => {
                    tlb.invalidate(asid, v);
                }
                5 => {
                    tlb.flush_asid(asid);
                }
                _ => tlb.flush(),
            }
            for a in 0..2u16 {
                for u in 0..32u64 {
                    let (valid, pending) = tlb.tag_population(Asid::new(a), Vpn::new(u));
                    prop_assert!(valid <= 1, "asid {a} vpn {u}: {valid} valid ways");
                    prop_assert!(
                        valid == 0 || pending == 0,
                        "asid {a} vpn {u}: valid and pending ways coexist ({valid}/{pending})"
                    );
                }
            }
        }
    }

    /// Cross-ASID isolation: operations issued under one ASID must never
    /// hit, clear, or invalidate the other ASID's colliding-VPN entries.
    #[test]
    fn asid_tags_isolate_colliding_vpns(
        vpns in prop::collection::vec(0u64..16, 1..64),
    ) {
        let a0 = Asid::ZERO;
        let a1 = Asid::new(1);
        let mut tlb = Tlb::new(TlbConfig {
            name: "iso".into(),
            entries: 64,
            assoc: 4,
            repl: ReplPolicy::Lru,
        });
        for &v in &vpns {
            tlb.fill(a0, Vpn::new(v), Pfn::new(v + 100));
        }
        // Same VPNs under the other ASID miss, and invalidating them
        // under the other ASID removes nothing.
        for &v in &vpns {
            prop_assert_eq!(tlb.lookup(a1, Vpn::new(v)), None);
            prop_assert_eq!(tlb.invalidate(a1, Vpn::new(v)), 0);
            prop_assert_eq!(tlb.lookup(a0, Vpn::new(v)), Some(Pfn::new(v + 100)));
        }
        // A full flush of the second tenant leaves the first intact.
        tlb.flush_asid(a1);
        for &v in &vpns {
            prop_assert_eq!(tlb.lookup(a0, Vpn::new(v)), Some(Pfn::new(v + 100)));
        }
        tlb.flush_asid(a0);
        for &v in &vpns {
            prop_assert_eq!(tlb.lookup(a0, Vpn::new(v)), None);
        }
    }
}

/// Regression: a *prefetched* fill issued on behalf of one tenant must
/// install under that tenant's tag only — the other tenant's colliding
/// VPN keeps missing, and invalidating under the other tenant's ASID
/// touches nothing.
#[test]
fn prefetched_fills_are_tenant_private() {
    let a0 = Asid::ZERO;
    let a1 = Asid::new(1);
    let mut tlb = Tlb::new(TlbConfig {
        name: "pf-priv".into(),
        entries: 16,
        assoc: 4,
        repl: ReplPolicy::Lru,
    });
    for v in 0..8u64 {
        tlb.fill_prefetched(a1, Vpn::new(v), Pfn::new(v + 500));
    }
    for v in 0..8u64 {
        assert_eq!(
            tlb.lookup(a0, Vpn::new(v)),
            None,
            "vpn {v}: tenant 0 hit tenant 1's prefetched fill"
        );
        assert_eq!(tlb.invalidate(a0, Vpn::new(v)), 0);
        assert_eq!(tlb.lookup(a1, Vpn::new(v)), Some(Pfn::new(v + 500)));
    }
}
