//! Figure 8: warp-scheduler cycle breakdown at the baseline — issued vs
//! memory-stall vs scoreboard-stall vs idle cycles.
//!
//! Paper headline: for irregular applications nearly 90% of scheduler
//! cycles are memory or scoreboard stalls.
//!
//! A second, observability-backed section ties the stalls to the walk
//! machinery: sampled PTW queue depth and L2-TLB MSHR occupancy
//! time-series plus the per-SM stall histogram, from the obs payloads in
//! the schema-v3 run artifacts.

use swgpu_bench::report::fmt_pct;
use swgpu_bench::{mean, parse_args, Cell, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::{by_abbr, table4, WorkloadClass};

/// Benchmarks for the obs-backed section: two irregular, two regular.
const OBS_BENCHES: [&str; 4] = ["gups", "bfs", "gemm", "fft"];

/// Mean of a sampled time-series window (0 when empty).
fn series_mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

fn main() {
    let h = parse_args();
    let baseline = SystemConfig::Baseline.build(h.scale);
    let observed = OBS_BENCHES
        .iter()
        .map(|a| {
            let spec = by_abbr(a).expect("known benchmark");
            Cell::bench(&spec, SystemConfig::Baseline.build_observed(h.scale))
        })
        .collect();
    let (grid, observed) = Grid::run_with(
        &Runner::from_harness(&h),
        table4(),
        1,
        |spec, _| Cell::bench(spec, baseline.clone()),
        observed,
    );
    let mut table = Table::new(vec![
        "bench".into(),
        "class".into(),
        "issued".into(),
        "mem stall".into(),
        "scoreboard".into(),
        "idle".into(),
        "stalled total".into(),
    ]);

    let mut irr_stall = Vec::new();
    let mut reg_stall = Vec::new();

    for (spec, row) in grid.rows() {
        let s = &row[0];
        let t = s.sm.total_cycles().max(1) as f64;
        let stalled = s.sm.stall_fraction();
        table.row(vec![
            spec.abbr.to_string(),
            format!("{:?}", spec.class),
            fmt_pct(s.sm.issued_cycles as f64 / t),
            fmt_pct(s.sm.mem_stall_cycles as f64 / t),
            fmt_pct(s.sm.scoreboard_stall_cycles as f64 / t),
            fmt_pct(s.sm.idle_cycles as f64 / t),
            fmt_pct(stalled),
        ]);
        match spec.class {
            WorkloadClass::Irregular => irr_stall.push(stalled),
            WorkloadClass::Regular => reg_stall.push(stalled),
        }
    }

    println!("Figure 8 — warp scheduler cycle breakdown (baseline)");
    println!("(paper: ~90% of cycles are memory/scoreboard stalls for irregular apps)\n");
    table.print(h.csv);
    println!(
        "mean stalled fraction: irregular {} | regular {}",
        fmt_pct(mean(&irr_stall)),
        fmt_pct(mean(&reg_stall))
    );

    // Tie the stalls to the walk machinery: irregular apps keep the HW
    // PTW queue and L2-TLB MSHRs saturated while regular apps barely
    // touch them. Occupancies are means over the obs sampled windows;
    // per-SM stall p50/max come from the obs histogram.
    println!("\nWalk-machinery pressure at the baseline (obs time-series + histograms)");
    let mut obs_table = Table::new(vec![
        "bench".into(),
        "mean PTW queue depth".into(),
        "mean MSHR in-flight".into(),
        "SM stall p50 (cyc)".into(),
        "SM stall max (cyc)".into(),
    ]);
    for (abbr, s) in OBS_BENCHES.iter().zip(&observed) {
        let report = s.obs.as_deref().expect("obs armed");
        let pwb = report.time_series("hw_pwb_depth").expect("pwb series");
        let mshr = report
            .time_series("l2_mshr_dedicated")
            .expect("mshr series");
        let stall = report.histogram("sm_stall_cycles").expect("stall hist");
        obs_table.row(vec![
            abbr.to_string(),
            format!("{:.1}", series_mean(&pwb.samples())),
            format!("{:.1}", series_mean(&mshr.samples())),
            stall.percentile(0.50).to_string(),
            stall.max().to_string(),
        ]);
    }
    obs_table.print(h.csv);
}
