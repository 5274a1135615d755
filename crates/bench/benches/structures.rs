//! Criterion microbenchmarks for the core translation data structures:
//! TLB arrays, MSHR files, the In-TLB MSHR path, SoftPWB and the Request
//! Distributor. These guard the simulator's per-cycle costs.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use softwalker::{DistributorPolicy, RequestDistributor, SoftPwb, SwWalkRequest};
use swgpu_tlb::{L2TlbComplex, Tlb, TlbConfig, TlbMshr, TlbMshrConfig};
use swgpu_types::{Asid, Cycle, DelayQueue, Pfn, PhysAddr, Vpn};

fn bench_tlb(c: &mut Criterion) {
    let mut g = c.benchmark_group("tlb");
    g.bench_function("lookup_hit", |b| {
        let mut tlb = Tlb::new(TlbConfig::l2());
        for i in 0..1024u64 {
            tlb.fill(Asid::ZERO, Vpn::new(i), Pfn::new(i));
        }
        let mut i = 0u64;
        b.iter(|| {
            i = (i + 7) % 1024;
            black_box(tlb.lookup(Asid::ZERO, Vpn::new(i)))
        });
    });
    g.bench_function("lookup_miss", |b| {
        let mut tlb = Tlb::new(TlbConfig::l2());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tlb.lookup(Asid::ZERO, Vpn::new(i)))
        });
    });
    g.bench_function("fill_evict", |b| {
        let mut tlb = Tlb::new(TlbConfig::l2());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(tlb.fill(Asid::ZERO, Vpn::new(i), Pfn::new(i)))
        });
    });
    g.finish();
}

fn bench_mshr(c: &mut Criterion) {
    let mut g = c.benchmark_group("mshr");
    g.bench_function("allocate_resolve", |b| {
        let mut m: TlbMshr<u32> = TlbMshr::new(TlbMshrConfig::l2());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            m.allocate(Asid::ZERO, Vpn::new(i), 0);
            black_box(m.resolve(Asid::ZERO, Vpn::new(i)).count())
        });
    });
    g.bench_function("in_tlb_overflow_cycle", |b| {
        let mut l2: L2TlbComplex<u32> = L2TlbComplex::new(
            TlbConfig::l2(),
            TlbMshrConfig {
                entries: 1,
                max_merges: 1,
            },
            1024,
        );
        l2.access(Asid::ZERO, Vpn::new(u64::MAX), 0); // pin the single dedicated MSHR
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            l2.access(Asid::ZERO, Vpn::new(i), 1);
            black_box(
                l2.complete_walk(Asid::ZERO, Vpn::new(i), Pfn::new(i))
                    .count(),
            )
        });
    });
    g.finish();
}

fn bench_softpwb(c: &mut Criterion) {
    c.bench_function("softpwb_insert_take_complete", |b| {
        let mut pwb = SoftPwb::new(32);
        let req = SwWalkRequest::new(Vpn::new(1), Cycle::ZERO, Cycle::ZERO, 4, PhysAddr::new(0));
        b.iter(|| {
            let slot = pwb.insert(req, Cycle::ZERO).unwrap();
            let taken = pwb.take_valid().unwrap();
            pwb.complete(taken.0);
            black_box(slot)
        });
    });
}

fn bench_distributor(c: &mut Criterion) {
    c.bench_function("distributor_select_fill", |b| {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 46, 32);
        b.iter(|| {
            let sm = d.select_core(&[]).unwrap();
            d.on_fill(sm);
            black_box(sm)
        });
    });
}

fn bench_delay_queue(c: &mut Criterion) {
    c.bench_function("delay_queue_push_pop", |b| {
        let mut q: DelayQueue<u64> = DelayQueue::new();
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            q.push(Cycle::new(t), t);
            black_box(q.pop_ready(Cycle::new(t)))
        });
    });
}

criterion_group!(
    benches,
    bench_tlb,
    bench_mshr,
    bench_softpwb,
    bench_distributor,
    bench_delay_queue
);
criterion_main!(benches);
