//! Figure 9: the paper's conceptual page-walk timeline, measured.
//!
//! The paper sketches three scenarios for a burst of concurrent walks —
//! ideal hardware (enough PTWs: latency = table access only), the real
//! baseline (32 PTWs: queueing dominates), and SoftWalker (no queueing,
//! slightly longer per-walk processing from instruction execution and
//! SM↔L2TLB communication — the "green boxes"). This harness runs the
//! same walk burst through all three configurations with lifecycle
//! tracing enabled and renders the measured timelines. The traces are
//! persisted in the schema-v3 run artifacts, so a repeat invocation
//! serves every cell from the disk cache and re-simulates nothing.
//!
//! With `--trace-out <dir>`, the cells additionally arm the
//! observability layer ([`swgpu_sim::ObsConfig`]) and each scenario's
//! span/counter report is exported as a Chrome trace-event JSON file
//! (`fig09-<scenario>.json`) loadable in <https://ui.perfetto.dev>.

use std::path::Path;

use swgpu_bench::runner::{fig09_cells, fig09_cells_observed};
use swgpu_bench::{parse_args, Cell, Runner, Table};

/// Lowercases a scenario label into a filename slug (`Hardware PTW` →
/// `hardware-ptw`).
fn slugify(label: &str) -> String {
    let mut slug = String::with_capacity(label.len());
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            slug.push(ch.to_ascii_lowercase());
        } else if !slug.ends_with('-') {
            slug.push('-');
        }
    }
    slug.trim_matches('-').to_string()
}

/// Exports one scenario's obs report as a validated Chrome trace JSON.
fn export_trace(dir: &Path, label: &str, stats: &swgpu_sim::SimStats) {
    let Some(report) = stats.obs.as_deref() else {
        eprintln!("warning: no obs report for {label}; trace skipped");
        return;
    };
    if report.spans_dropped > 0 {
        let breakdown: Vec<String> = report
            .dropped_by_kind()
            .map(|(kind, n)| format!("{} {}", n, kind.name()))
            .collect();
        eprintln!(
            "warning: span recorder for {label} overflowed ({} spans dropped: {}); \
             the exported trace is truncated — raise ObsConfig::max_spans or \
             stream with --trace-out to capture the full run",
            report.spans_dropped,
            breakdown.join(", ")
        );
    }
    let trace = swgpu_obs::to_chrome_trace(report);
    swgpu_obs::validate_json(&trace)
        .unwrap_or_else(|e| panic!("exported trace for {label} is not valid JSON: {e}"));
    let path = dir.join(format!("fig09-{}.json", slugify(label)));
    std::fs::write(&path, &trace).expect("write trace file");
    println!(
        "trace OK: {} ({} bytes, {} spans, {} histograms)",
        path.display(),
        trace.len(),
        report.spans.len(),
        report.histograms.len()
    );
}

/// Renders one walk as `....QQQQAAAA` (queueing then access), scaled.
fn lane(rec: &swgpu_sim::WalkRecord, origin: u64, scale: u64) -> String {
    let pre = (rec.issued_at.value() - origin) / scale;
    let q = rec.queue_cycles() / scale;
    let a = (rec.access_cycles() / scale).max(1);
    format!(
        "{}{}{}",
        " ".repeat(pre as usize),
        "#".repeat(q as usize),
        "=".repeat(a as usize)
    )
}

fn main() {
    let h = parse_args();
    let scenarios = if h.trace_out.is_some() {
        fig09_cells_observed(h.scale)
    } else {
        fig09_cells(h.scale)
    };
    let cells: Vec<Cell> = scenarios.iter().map(|(c, _)| c.clone()).collect();
    let stats = Runner::from_harness(&h).run_cells(&cells);
    let runs: Vec<(&str, swgpu_sim::SimStats)> = scenarios
        .iter()
        .map(|(_, label)| *label)
        .zip(stats)
        .collect();

    let mut summary = Table::new(vec![
        "scenario".into(),
        "walks".into(),
        "avg queue (cyc)".into(),
        "avg access (cyc)".into(),
        "last completion (cyc)".into(),
    ]);

    println!("Figure 9 — measured walk timelines ('#' = queueing, '=' = walk processing)");
    println!("(paper: ideal = access only; baseline = queueing dominates; SoftWalker =");
    println!(" no queueing, slightly longer processing from instructions + communication)\n");

    for (label, s) in &runs {
        let recs = s.walk_trace.records();
        let origin = recs.iter().map(|r| r.issued_at.value()).min().unwrap_or(0);
        let horizon = recs
            .iter()
            .map(|r| r.completed_at.value())
            .max()
            .unwrap_or(1)
            .saturating_sub(origin)
            .max(1);
        let scale = (horizon / 72).max(1);
        println!("--- {label} (1 char ≈ {scale} cycles) ---");
        // Sample walks evenly across the whole burst (completion order
        // would show only the lucky, un-queued ones).
        let mut all: Vec<_> = recs.iter().collect();
        all.sort_by_key(|r| r.issued_at);
        let stride = (all.len() / 12).max(1);
        for r in all.iter().step_by(stride).take(12) {
            println!("  {}", lane(r, origin, scale));
        }
        let last = recs
            .iter()
            .map(|r| r.completed_at.value())
            .max()
            .unwrap_or(0)
            .saturating_sub(origin);
        summary.row(vec![
            label.to_string(),
            s.walk.translations.to_string(),
            format!("{:.0}", s.walk.avg_queue()),
            format!("{:.0}", s.walk.avg_access()),
            last.to_string(),
        ]);
        println!();
    }

    summary.print(h.csv);

    if let Some(dir) = &h.trace_out {
        std::fs::create_dir_all(dir).expect("create trace output dir");
        println!();
        for (label, s) in &runs {
            export_trace(dir, label, s);
        }
    }
}
