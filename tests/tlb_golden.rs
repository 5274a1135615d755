//! Golden digests of the TLB array's observable behaviour.
//!
//! `tlb_properties` checks one-sided laws (capacity, isolation, agreement
//! with an unbounded reference); a change of victim choice, of a counter
//! or of which way a shared entry's heir lands in passes all of them.
//! This test drives a seeded random sequence of every public [`Tlb`]
//! operation and folds each return value, and the full [`TlbStats`] after
//! each operation, into an FNV-1a digest, one per cell:
//!
//! * replacement: `Lru` and `DeadBlock`;
//! * with and without a two-tenant way partition (a third tenant falls
//!   back to the whole set);
//! * with and without sub-entry sharing;
//! * the 32-way fully associative L1 geometry and a 16-way, 8-set one.
//!
//! Tenant 16 aliases tenant 0's sharer bit, so the sharing cells also
//! reach the aliased handoff paths. A deliberate change to TLB behaviour
//! re-records the digests; the failure message prints the new values.

use swgpu_tlb::{ReplPolicy, Tlb, TlbConfig, TlbStats};
use swgpu_types::{Asid, Pfn, Vpn};

/// Operations per cell.
const OPS: usize = 20_000;

/// 64-bit FNV-1a, fed one little-endian `u64` at a time.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn stats(&mut self, s: TlbStats) {
        for v in [
            s.hits,
            s.misses,
            s.fills,
            s.evictions,
            s.dead_fills,
            s.prefetch_hits,
            s.prefetch_evictions,
            s.shared_joins,
        ] {
            self.word(v);
        }
    }
}

/// SplitMix64: a self-contained stream, so the digests depend on nothing
/// outside this file.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One cell of the matrix.
#[derive(Debug, Clone, Copy)]
struct Cell {
    entries: usize,
    assoc: usize,
    repl: ReplPolicy,
    partitioned: bool,
    sharing: bool,
}

const TENANTS: [Asid; 4] = [Asid(0), Asid(1), Asid(2), Asid(16)];

/// Runs the cell's operation sequence; returns its digest and the final
/// statistics.
fn run(cell: Cell, seed: u64) -> (u64, TlbStats) {
    let mut tlb = Tlb::new(TlbConfig {
        name: "golden".into(),
        entries: cell.entries,
        assoc: cell.assoc,
        repl: cell.repl,
    });
    if cell.partitioned {
        let half = cell.assoc / 2;
        tlb.set_way_partition(vec![(0, half), (half, cell.assoc - half)]);
    }
    tlb.set_sub_entry_sharing(cell.sharing);
    // Three times the capacity in distinct VPNs keeps every set churning.
    let vpns = (cell.entries * 3) as u64;
    let mut rng = Stream(seed);
    let mut h = Fnv::new();
    // Tags reserved and not yet resolved, so completions mostly find
    // their pending ways (and sometimes find them gone).
    let mut reserved: Vec<(Asid, Vpn)> = Vec::new();
    for _ in 0..OPS {
        let asid = TENANTS[rng.below(TENANTS.len() as u64) as usize];
        let vpn = Vpn::new(rng.below(vpns));
        // Mostly one mapping per VPN across tenants (so sharing can
        // join), sometimes a private remap.
        let pfn = if rng.below(8) == 0 {
            Pfn::new(vpn.value() + 10_000 * (1 + u64::from(asid.value())))
        } else {
            Pfn::new(vpn.value() + 7)
        };
        let op = rng.below(100);
        h.word(op);
        match op {
            0..=29 => h.word(tlb.lookup(asid, vpn).map_or(u64::MAX, Pfn::value)),
            30..=34 => h.word(tlb.probe(asid, vpn).map_or(u64::MAX, Pfn::value)),
            35..=51 => h.word(u64::from(tlb.fill(asid, vpn, pfn))),
            52..=56 => h.word(u64::from(tlb.fill_prefetched(asid, vpn, pfn))),
            57..=66 => {
                let ok = tlb.reserve_pending(asid, vpn);
                if ok {
                    reserved.push((asid, vpn));
                }
                h.word(u64::from(ok));
            }
            67..=70 => h.word(u64::from(tlb.has_pending(asid, vpn))),
            71..=84 => {
                let (a, v) = if reserved.is_empty() || rng.below(5) == 0 {
                    (asid, vpn)
                } else {
                    let i = rng.below(reserved.len() as u64) as usize;
                    reserved.swap_remove(i)
                };
                let p = Pfn::new(v.value() + 7);
                let n = match rng.below(3) {
                    0 => tlb.clear_pending(a, v),
                    1 => tlb.clear_pending_and_fill_prefetched(a, v, p),
                    _ => tlb.clear_pending_and_fill(a, v, p),
                };
                reserved.retain(|&t| t != (a, v));
                h.word(n as u64);
            }
            85..=92 => h.word(tlb.invalidate(asid, vpn) as u64),
            93..=95 => {
                let (valid, pending) = tlb.tag_population(asid, vpn);
                h.word(valid as u64);
                h.word(pending as u64);
            }
            96 => {
                h.word(tlb.valid_entries() as u64);
                h.word(tlb.prefetched_resident() as u64);
            }
            97 | 98 => {
                if rng.below(20) == 0 {
                    h.word(tlb.flush_asid(asid) as u64);
                    reserved.retain(|&(a, _)| a != asid);
                }
            }
            _ => {
                if rng.below(50) == 0 {
                    tlb.flush();
                    reserved.clear();
                }
            }
        }
        h.word(tlb.pending_entries() as u64);
        h.stats(tlb.stats());
    }
    h.word(tlb.valid_entries() as u64);
    h.word(tlb.prefetched_resident() as u64);
    (h.0, tlb.stats())
}

#[test]
fn tlb_operation_sequences_match_golden_digests() {
    // (entries, assoc, repl, partitioned, sharing, pinned digest)
    let pinned: [(usize, usize, ReplPolicy, bool, bool, u64); 16] = [
        (32, 32, ReplPolicy::Lru, false, false, 0xf99a_2a94_e5ff_aada),
        (32, 32, ReplPolicy::Lru, false, true, 0x01ca_3c61_ec2c_c62b),
        (32, 32, ReplPolicy::Lru, true, false, 0x0cdb_df5e_92bd_b8df),
        (32, 32, ReplPolicy::Lru, true, true, 0x1354_3a49_86d4_43f4),
        (
            32,
            32,
            ReplPolicy::DeadBlock,
            false,
            false,
            0xac8f_9b39_461c_3c19,
        ),
        (
            32,
            32,
            ReplPolicy::DeadBlock,
            false,
            true,
            0xb2a1_e385_474b_4b58,
        ),
        (
            32,
            32,
            ReplPolicy::DeadBlock,
            true,
            false,
            0x72b3_f3c0_3fa6_d10a,
        ),
        (
            32,
            32,
            ReplPolicy::DeadBlock,
            true,
            true,
            0xf14a_bbf2_6fd9_208e,
        ),
        (
            128,
            16,
            ReplPolicy::Lru,
            false,
            false,
            0x3312_8040_6b5e_13a3,
        ),
        (128, 16, ReplPolicy::Lru, false, true, 0x2325_ce7d_d823_d8ac),
        (128, 16, ReplPolicy::Lru, true, false, 0xb6cd_4004_6628_0288),
        (128, 16, ReplPolicy::Lru, true, true, 0x556b_4864_d904_da44),
        (
            128,
            16,
            ReplPolicy::DeadBlock,
            false,
            false,
            0x046f_0697_7eed_c35d,
        ),
        (
            128,
            16,
            ReplPolicy::DeadBlock,
            false,
            true,
            0xdd12_d60c_0a01_3128,
        ),
        (
            128,
            16,
            ReplPolicy::DeadBlock,
            true,
            false,
            0xd593_d590_a03c_10ac,
        ),
        (
            128,
            16,
            ReplPolicy::DeadBlock,
            true,
            true,
            0x768e_79e4_ae89_b076,
        ),
    ];
    let mut mismatches = Vec::new();
    for (seed, &(entries, assoc, repl, partitioned, sharing, golden)) in pinned.iter().enumerate() {
        let cell = Cell {
            entries,
            assoc,
            repl,
            partitioned,
            sharing,
        };
        let (got, _) = run(cell, 0x5eed_0000 + seed as u64);
        if got != golden {
            mismatches.push(format!("{cell:?}: got {got:#018x}, pinned {golden:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "TLB behaviour changed:\n  {}",
        mismatches.join("\n  ")
    );
}

#[test]
fn the_sequences_reach_every_counter() {
    // A digest pins only what its sequence exercises: every counter must
    // move in a cell that can move it.
    let (_, s) = run(
        Cell {
            entries: 128,
            assoc: 16,
            repl: ReplPolicy::DeadBlock,
            partitioned: false,
            sharing: true,
        },
        0x5eed_000d,
    );
    assert!(s.hits > 0 && s.misses > 0 && s.fills > 0 && s.evictions > 0);
    assert!(s.dead_fills > 0, "DeadBlock never predicted a dead fill");
    assert!(s.prefetch_hits > 0 && s.prefetch_evictions > 0);
    assert!(s.shared_joins > 0, "sharing never joined an entry");
}
