//! Quickstart: run one irregular benchmark (GUPS) on the baseline GPU and
//! on SoftWalker, and print the headline comparison.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use softwalker_repro::{by_abbr, GpuConfig, GpuSimulator, TranslationMode, WorkloadParams};

fn main() {
    // A reduced GPU (16 SMs) so the example finishes in seconds; drop the
    // overrides for the full Table 3 machine.
    let base_cfg = GpuConfig {
        sms: 16,
        max_warps: 16,
        ..GpuConfig::default()
    };

    let spec = by_abbr("gups").expect("gups is in the Table 4 registry");
    println!(
        "benchmark: {} ({} MB footprint, paper MPKI {:.0})\n",
        spec.name, spec.footprint_mb, spec.paper_mpki
    );

    let mut results = Vec::new();
    for (label, mode) in [
        ("baseline (32 hardware PTWs)", TranslationMode::HardwarePtw),
        (
            "SoftWalker (PW Warps + In-TLB MSHR)",
            TranslationMode::SoftWalker { in_tlb_mshr: true },
        ),
    ] {
        let cfg = GpuConfig {
            mode,
            ..base_cfg.clone()
        };
        let workload = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 4,
            footprint_percent: 100,
            page_size: cfg.page_size,
        });
        let stats = GpuSimulator::build(cfg, Box::new(workload))
            .expect("a valid config")
            .run();
        println!("{label}:\n{stats}\n");
        results.push(stats);
    }

    let speedup = results[1].speedup_over(&results[0]);
    println!("SoftWalker speedup over baseline: {speedup:.2}x");
    println!(
        "(the paper reports 2.24x on average across all 20 benchmarks, 3.94x for irregular ones)"
    );
}
