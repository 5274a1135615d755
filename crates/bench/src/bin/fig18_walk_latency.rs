//! Figure 18: normalized page-walk latency (queueing + access) of NHA,
//! FS-HPT and SoftWalker relative to the baseline.
//!
//! Paper headline: SoftWalker cuts total walk latency by 72.8% on average
//! (NHA −20%, FS-HPT −16%); regular apps see up to +18% from the added
//! SM↔L2TLB communication.
//!
//! Beyond the mean, an observability-backed tail-latency section reports
//! per-walk p50/p95/p99 for a few representative irregular benchmarks
//! under the baseline and SoftWalker, derived from the log2 latency
//! histograms the obs layer embeds in the run artifacts — every walk is
//! counted and repeat runs serve the histograms from the disk cache.

use swgpu_bench::report::fmt_pct;
use swgpu_bench::{mean, parse_args, Cell, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::{by_abbr, table4, WorkloadClass};

/// Benchmarks sampled for the tail-latency section: the highest-MPKI
/// irregular gathers plus bfs (frontier locality) and spmv (set skew).
const TAIL_BENCHES: [&str; 4] = ["gups", "xsb", "bfs", "spmv"];

fn main() {
    let h = parse_args();
    let systems = [
        SystemConfig::Baseline,
        SystemConfig::Nha,
        SystemConfig::FsHpt,
        SystemConfig::SoftWalker,
    ];

    // Observability-armed tail cells: the `walk_total_cycles` histogram
    // covers *every* walk.
    let tail_points: Vec<(&str, SystemConfig)> = TAIL_BENCHES
        .iter()
        .flat_map(|&abbr| [SystemConfig::Baseline, SystemConfig::SoftWalker].map(|sys| (abbr, sys)))
        .collect();
    let tail_cells = tail_points
        .iter()
        .map(|&(abbr, sys)| {
            let spec = by_abbr(abbr).expect("known benchmark");
            Cell::bench(&spec, sys.build_observed(h.scale))
        })
        .collect();
    let (grid, tails) = Grid::run_with(
        &Runner::from_harness(&h),
        table4(),
        systems.len(),
        |spec, col| Cell::bench(spec, systems[col].build(h.scale)),
        tail_cells,
    );

    let mut headers = vec![
        "bench".to_string(),
        "class".to_string(),
        "base walk (cyc)".into(),
    ];
    for s in &systems[1..] {
        headers.push(format!("{} norm", s.label()));
        headers.push(format!("{} queue-share", s.label()));
    }
    let mut table = Table::new(headers);

    let mut norm_sum = vec![Vec::new(); systems.len() - 1];
    let mut norm_irr = vec![Vec::new(); systems.len() - 1];

    for (spec, row) in grid.rows() {
        let base_lat = row[0].walk.avg_total();
        let mut cells = vec![
            spec.abbr.to_string(),
            format!("{:?}", spec.class),
            format!("{base_lat:.0}"),
        ];
        for (i, s) in row[1..].iter().enumerate() {
            let norm = if base_lat > 0.0 {
                s.walk.avg_total() / base_lat
            } else {
                1.0
            };
            norm_sum[i].push(norm);
            if spec.class == WorkloadClass::Irregular {
                norm_irr[i].push(norm);
            }
            cells.push(format!("{norm:.2}"));
            cells.push(fmt_pct(s.walk.queue_fraction()));
        }
        table.row(cells);
    }

    println!("Figure 18 — normalized page-walk latency (1.0 = baseline)");
    println!("(paper: SoftWalker 0.27 avg [−72.8%], NHA 0.80, FS-HPT 0.84; regular up to 1.18)\n");
    table.print(h.csv);
    for (i, sys) in systems[1..].iter().enumerate() {
        println!(
            "{}: mean normalized latency all={:.2} irregular={:.2}",
            sys.label(),
            mean(&norm_sum[i]),
            mean(&norm_irr[i]),
        );
    }

    // Tail latency from the obs latency histograms: queueing behind the
    // 32-PTW pool shows up as a fat tail the mean under-reports.
    // Percentiles are log2-bucket upper bounds (the obs histogram trades
    // exactness for O(1) memory over millions of walks).
    println!("\nWalk tail latency, per-walk cycles (obs histograms; all walks counted)");
    let mut tail = Table::new(vec![
        "bench".into(),
        "system".into(),
        "walks".into(),
        "p50".into(),
        "p95".into(),
        "p99".into(),
        "max".into(),
    ]);
    for (&(abbr, sys), s) in tail_points.iter().zip(&tails) {
        let report = s.obs.as_deref().expect("obs armed on tail cells");
        let hist = report
            .histogram("walk_total_cycles")
            .expect("walk latency histogram present");
        tail.row(vec![
            abbr.to_string(),
            sys.label(),
            hist.count().to_string(),
            hist.percentile(0.50).to_string(),
            hist.percentile(0.95).to_string(),
            hist.percentile(0.99).to_string(),
            hist.max().to_string(),
        ]);
    }
    tail.print(h.csv);
}
