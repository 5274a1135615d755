//! Figure 7: page-walk latency breakdown (queueing vs page-table access)
//! as the number of PTWs grows.
//!
//! Paper headline: at the 32-PTW baseline, queueing delay is 95% of total
//! walk latency for irregular applications.
//!
//! A second, observability-backed section breaks the same story down by
//! *distribution*: per-walk queue vs access p50/p95/p99 at the baseline,
//! from the log2 histograms the obs layer embeds in schema-v3 artifacts.

use swgpu_bench::report::fmt_pct;
use swgpu_bench::{parse_args, Grid, Runner, SystemConfig, Table};
use swgpu_workloads::irregular;

fn main() {
    let h = parse_args();
    let configs = [
        ("32PTW", SystemConfig::Baseline),
        (
            "128PTW",
            SystemConfig::ScaledPtw {
                walkers: 128,
                scale_mshrs: true,
            },
        ),
        (
            "512PTW",
            SystemConfig::ScaledPtw {
                walkers: 512,
                scale_mshrs: true,
            },
        ),
        ("Ideal", SystemConfig::Ideal),
    ];
    // The last column is the baseline with the observability layer
    // armed, so its artifact carries per-walk queue/access histograms.
    let mut columns: Vec<_> = configs.iter().map(|(_, sys)| sys.build(h.scale)).collect();
    columns.push(SystemConfig::Baseline.build_observed(h.scale));
    let grid = Grid::run(&Runner::from_harness(&h), irregular(), &columns);

    let mut table = Table::new(vec![
        "bench".into(),
        "config".into(),
        "avg queue (cyc)".into(),
        "avg access (cyc)".into(),
        "queue share".into(),
    ]);
    let mut q_tot = vec![0u64; configs.len()];
    let mut a_tot = vec![0u64; configs.len()];
    for (spec, row) in grid.rows() {
        for (i, ((label, _), s)) in configs.iter().zip(row).enumerate() {
            table.row(vec![
                spec.abbr.to_string(),
                (*label).to_string(),
                format!("{:.0}", s.walk.avg_queue()),
                format!("{:.0}", s.walk.avg_access()),
                fmt_pct(s.walk.queue_fraction()),
            ]);
            q_tot[i] += s.walk.queue_cycles;
            a_tot[i] += s.walk.access_cycles;
        }
    }
    for (i, (label, _)) in configs.iter().enumerate() {
        let frac = q_tot[i] as f64 / (q_tot[i] + a_tot[i]).max(1) as f64;
        table.row(vec![
            "ALL-IRREGULAR".into(),
            (*label).to_string(),
            String::new(),
            String::new(),
            fmt_pct(frac),
        ]);
    }

    println!("Figure 7 — walk latency breakdown vs #PTWs (irregular set)");
    println!("(paper: queueing is 95% of walk latency at 32 PTWs and shrinks as PTWs scale)\n");
    table.print(h.csv);

    // Distribution view at the 32-PTW baseline: queueing dominates at
    // every percentile, not just on average. Values are log2-bucket
    // upper bounds from the obs histograms in the run artifacts.
    println!("\nPer-walk latency distribution at 32 PTWs (obs histograms, log2 buckets)");
    let mut dist = Table::new(vec![
        "bench".into(),
        "queue p50".into(),
        "queue p95".into(),
        "queue p99".into(),
        "access p50".into(),
        "access p95".into(),
        "access p99".into(),
    ]);
    for (spec, row) in grid.rows() {
        let report = row[configs.len()].obs.as_deref().expect("obs armed");
        let queue = report.histogram("walk_queue_cycles").expect("queue hist");
        let access = report.histogram("walk_access_cycles").expect("access hist");
        dist.row(vec![
            spec.abbr.to_string(),
            queue.percentile(0.50).to_string(),
            queue.percentile(0.95).to_string(),
            queue.percentile(0.99).to_string(),
            access.percentile(0.50).to_string(),
            access.percentile(0.95).to_string(),
            access.percentile(0.99).to_string(),
        ]);
    }
    dist.print(h.csv);
}
