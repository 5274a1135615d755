//! The cache against a reference model of its tag store and response
//! path.
//!
//! The model keeps an LRU stamp per way and evicts the first way with the
//! least stamp (empty ways hold stamp 0), and it copies a filled entry's
//! waiters into a response queue at the fill. The cache keeps each set in
//! recency order and serves merged waiters from their MSHR slot. Random
//! sequences of accesses, fill issues, out-of-order fill completions and
//! response pops run on both, over every geometry with 1, 2, 4 or 16 ways
//! and 1, 4 or 64 sectors per line, and every outcome, popped response,
//! dropped response and counter must agree after every step.

use proptest::prelude::*;
use std::collections::VecDeque;
use swgpu_mem::{AccessKind, AccessOutcome, Cache, CacheConfig, CacheStats, MemReq};
use swgpu_types::fault::site;
use swgpu_types::{Cycle, FaultInjector, MemReqId, PhysAddr};

const SECTOR_BYTES: u64 = 32;
const SETS: u64 = 4;
const HIT_LATENCY: u64 = 3;

/// The stamp-and-argmin cache the recency-ordered one must reproduce.
struct Model {
    assoc: usize,
    line_bytes: u64,
    tags: Vec<u64>,
    sectors: Vec<u64>,
    last_used: Vec<u64>,
    use_tick: u64,
    mshr_entries: usize,
    mshr_max_merges: usize,
    /// In-flight sectors and their waiters, in allocation order.
    mshrs: Vec<(u64, Vec<MemReq>)>,
    hits: VecDeque<(Cycle, MemReq)>,
    fills: VecDeque<(Cycle, MemReq)>,
    responses: VecDeque<MemReq>,
    fault: FaultInjector,
    drop_rate: f64,
    dropped: VecDeque<MemReq>,
    stats: CacheStats,
}

impl Model {
    fn new(cfg: &CacheConfig, fault: FaultInjector, drop_rate: f64) -> Self {
        let ways = (cfg.size_bytes / cfg.line_bytes) as usize;
        Self {
            assoc: cfg.assoc,
            line_bytes: cfg.line_bytes,
            tags: vec![0; ways],
            sectors: vec![0; ways],
            last_used: vec![0; ways],
            use_tick: 0,
            mshr_entries: cfg.mshr_entries,
            mshr_max_merges: cfg.mshr_max_merges,
            mshrs: Vec::new(),
            hits: VecDeque::new(),
            fills: VecDeque::new(),
            responses: VecDeque::new(),
            fault,
            drop_rate,
            dropped: VecDeque::new(),
            stats: CacheStats::default(),
        }
    }

    /// The set's first way index, the line's tag (address + 1) and the
    /// sector's bit.
    fn locate(&self, addr: u64) -> (usize, u64, u64) {
        let line = addr / self.line_bytes;
        let base = (line % SETS) as usize * self.assoc;
        let bit = 1u64 << ((addr % self.line_bytes) / SECTOR_BYTES);
        (base, line * self.line_bytes + 1, bit)
    }

    fn find(&self, base: usize, tag: u64) -> Option<usize> {
        (base..base + self.assoc).find(|&i| self.tags[i] == tag)
    }

    fn access(&mut self, now: Cycle, req: MemReq) -> AccessOutcome {
        self.stats.accesses += 1;
        self.use_tick += 1;
        let addr = req.addr.value();
        let (base, tag, bit) = self.locate(addr);
        if let Some(i) = self.find(base, tag) {
            self.last_used[i] = self.use_tick;
            if self.sectors[i] & bit != 0 {
                self.stats.hits += 1;
                self.hits.push_back((now + HIT_LATENCY, req));
                return AccessOutcome::Hit;
            }
        }
        let sector = addr / SECTOR_BYTES * SECTOR_BYTES;
        if let Some((_, waiters)) = self.mshrs.iter_mut().find(|(s, _)| *s == sector) {
            if waiters.len() < self.mshr_max_merges {
                waiters.push(req);
                self.stats.merges += 1;
                return AccessOutcome::Merged;
            }
            self.stats.mshr_failures += 1;
            return AccessOutcome::MshrFull;
        }
        if self.mshrs.len() >= self.mshr_entries {
            self.stats.mshr_failures += 1;
            return AccessOutcome::MshrFull;
        }
        self.mshrs.push((sector, vec![req]));
        self.stats.misses += 1;
        let fill = MemReq {
            addr: PhysAddr::new(sector),
            ..req
        };
        self.fills.push_back((now + HIT_LATENCY, fill));
        AccessOutcome::Miss
    }

    fn pop_fill_request(&mut self, now: Cycle) -> Option<MemReq> {
        pop_ready(&mut self.fills, now)
    }

    fn complete_fill(&mut self, fill: MemReq) {
        let sector = fill.addr.value();
        let at = self.mshrs.iter().position(|(s, _)| *s == sector).unwrap();
        self.responses.extend(self.mshrs.remove(at).1);
        self.use_tick += 1;
        let (base, tag, bit) = self.locate(sector);
        if let Some(i) = self.find(base, tag) {
            self.sectors[i] |= bit;
            self.last_used[i] = self.use_tick;
            return;
        }
        let mut victim = base;
        for i in base..base + self.assoc {
            if self.last_used[i] < self.last_used[victim] {
                victim = i;
            }
        }
        if self.tags[victim] != 0 {
            self.stats.evictions += 1;
        }
        self.tags[victim] = tag;
        self.sectors[victim] = bit;
        self.last_used[victim] = self.use_tick;
    }

    fn pop_response(&mut self, now: Cycle) -> Option<MemReq> {
        loop {
            let req = match pop_ready(&mut self.hits, now) {
                Some(req) => req,
                None => self.responses.pop_front()?,
            };
            if req.kind == AccessKind::PageTable && self.fault.fire(self.drop_rate) {
                self.dropped.push_back(req);
                continue;
            }
            return Some(req);
        }
    }
}

fn pop_ready(q: &mut VecDeque<(Cycle, MemReq)>, now: Cycle) -> Option<MemReq> {
    if q.front()?.0 > now {
        return None;
    }
    q.pop_front().map(|(_, req)| req)
}

/// One step of a random sequence: `(op, line, sector, page_table)`.
type Step = (u8, u64, u64, bool);

/// Runs `steps` on one geometry and checks the cache against the model
/// after every step.
fn check(assoc: usize, sectors: u64, mshr: (usize, usize), drop_rate: f64, steps: &[Step]) {
    let line_bytes = sectors * SECTOR_BYTES;
    let cfg = CacheConfig {
        name: "model".into(),
        size_bytes: SETS * assoc as u64 * line_bytes,
        assoc,
        line_bytes,
        sector_bytes: SECTOR_BYTES,
        hit_latency: HIT_LATENCY,
        mshr_entries: mshr.0,
        mshr_max_merges: mshr.1,
    };
    let fault = FaultInjector::new(7, site::L2D_DROP);
    let mut model = Model::new(&cfg, fault.clone(), drop_rate);
    let mut cache = Cache::new(cfg);
    cache.set_fault_injector(fault, drop_rate);
    let geometry = format!("{assoc} ways, {sectors} sectors, MSHRs {mshr:?}");
    // Fills handed to the lower level, completed in any order.
    let mut pending: Vec<MemReq> = Vec::new();
    let mut now = Cycle::ZERO;
    for (id, &(op, line, sector, page_table)) in steps.iter().enumerate() {
        match op {
            // Accesses: a handful of sectors over two more lines than
            // each set holds, so hits, merges and evictions all happen.
            0..=3 => {
                let line = line % (SETS * (assoc as u64 + 2));
                let kind = if page_table {
                    AccessKind::PageTable
                } else {
                    AccessKind::Data
                };
                let addr = line * line_bytes + (sector * 7 % sectors) * SECTOR_BYTES + 4;
                let req = MemReq::new(MemReqId(id as u64), PhysAddr::new(addr), kind);
                let got = cache.access(now, req);
                assert_eq!(got, model.access(now, req), "{geometry}, step {id}");
            }
            4 => {
                while let Some(fill) = cache.pop_fill_request(now) {
                    assert_eq!(Some(fill), model.pop_fill_request(now), "{geometry}");
                    pending.push(fill);
                }
                assert_eq!(model.pop_fill_request(now), None, "{geometry}");
            }
            5 | 6 if !pending.is_empty() => {
                let fill = pending.swap_remove(sector as usize % pending.len());
                cache.complete_fill(now, fill);
                model.complete_fill(fill);
            }
            7 | 8 => {
                let got = cache.pop_response(now).map(|r| r.id);
                assert_eq!(got, model.pop_response(now).map(|r| r.id), "{geometry}");
                let dropped = cache.pop_dropped().map(|r| r.id);
                assert_eq!(dropped, model.dropped.pop_front().map(|r| r.id));
            }
            _ => now += line % 4,
        }
        assert_eq!(cache.stats(), model.stats, "{geometry}, step {id}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every geometry and MSHR shape answers as the model does.
    #[test]
    fn recency_ordered_sets_match_the_stamp_model(
        steps in prop::collection::vec((0u8..10, 0u64..1024, 0u64..6, any::<bool>()), 1..400),
        mshr in (prop::sample::select(vec![1usize, 2, 8]), prop::sample::select(vec![1usize, 2, 4])),
        drop_rate in prop::sample::select(vec![0.0, 0.5]),
    ) {
        for assoc in [1, 2, 4, 16] {
            for sectors in [1, 4, 64] {
                check(assoc, sectors, mshr, drop_rate, &steps);
            }
        }
    }
}
