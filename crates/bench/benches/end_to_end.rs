//! Criterion end-to-end benchmark: the full GPU under the baseline and
//! SoftWalker modes on a small contended workload.
//!
//! The throughput cases simulate every iteration ([`Cell::simulate`]
//! bypasses the runner and both of its cache levels), so they time the
//! simulator itself. A trace-capped SoftWalker variant adds the walk-trace
//! recording path.
//!
//! One case, `cache_resolution_xsb_small`, deliberately goes through the
//! experiment runner's two-level cache (memo + disk artifacts) the way
//! the figure binaries resolve their cells: after the first iteration it
//! times memo hits, i.e. the cache's resolution overhead. The counters
//! report printed at the end shows the split.

use std::sync::OnceLock;

use criterion::{criterion_group, criterion_main, Criterion};
use swgpu_bench::runner::default_cache_dir;
use swgpu_bench::{Cell, Runner, Scale, SystemConfig};
use swgpu_sim::GpuConfig;
use swgpu_workloads::by_abbr;

/// One process-wide runner backed by the shared disk cache, so repeat
/// `cargo bench` invocations disk-hit instead of re-simulating.
fn runner() -> &'static Runner {
    static RUNNER: OnceLock<Runner> = OnceLock::new();
    RUNNER.get_or_init(|| Runner::new(1, Some(default_cache_dir()), false))
}

fn small_cell(sys: SystemConfig, trace_cap: usize) -> Cell {
    let spec = by_abbr("xsb").expect("known benchmark");
    let cfg = GpuConfig {
        sms: 4,
        max_warps: 8,
        walk_trace_cap: trace_cap,
        ..sys.build(Scale::Quick)
    };
    Cell::bench(&spec, cfg)
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("end_to_end");
    g.sample_size(10);
    g.bench_function("baseline_xsb_small", |b| {
        let cell = small_cell(SystemConfig::Baseline, 0);
        b.iter(|| cell.simulate().cycles)
    });
    g.bench_function("softwalker_xsb_small", |b| {
        let cell = small_cell(SystemConfig::SoftWalker, 0);
        b.iter(|| cell.simulate().cycles)
    });
    g.bench_function("softwalker_xsb_traced", |b| {
        let cell = small_cell(SystemConfig::SoftWalker, 256);
        b.iter(|| cell.simulate().walk_trace.records().len())
    });
    g.bench_function("cache_resolution_xsb_small", |b| {
        let cell = small_cell(SystemConfig::SoftWalker, 0);
        b.iter(|| runner().get(&cell).cycles)
    });
    g.finish();
    let counters = runner().counters();
    eprintln!(
        "[end_to_end] cache split: {} simulated, {} memo hits, {} disk hits",
        counters.simulated, counters.memo_hits, counters.disk_hits
    );
}

criterion_group!(benches, bench_end_to_end);
criterion_main!(benches);
