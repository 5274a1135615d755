//! Figure 9: the paper's conceptual page-walk timeline, measured.
//!
//! The paper sketches three scenarios for a burst of concurrent walks —
//! ideal hardware (enough PTWs: latency = table access only), the real
//! baseline (32 PTWs: queueing dominates), and SoftWalker (no queueing,
//! slightly longer per-walk processing from instruction execution and
//! SM↔L2TLB communication — the "green boxes"). This harness runs the
//! same walk burst through all three configurations with the
//! observability layer armed ([`swgpu_sim::ObsConfig`]) and draws each
//! walk's lane from the run's spans ([`fig09_lanes`]). The obs reports
//! are persisted in the run artifacts, so a repeat invocation serves
//! every cell from the disk cache and re-simulates nothing. A report
//! missing spans (dropped, or streamed out mid-run) is refused: the
//! harness exits nonzero and draws no partial timeline.
//!
//! With `--trace-out <dir>`, each scenario's span/counter report is also
//! exported as a Chrome trace-event JSON file (`fig09-<scenario>.json`)
//! loadable in <https://ui.perfetto.dev>, beside the runner's SWTB files.

use std::path::Path;

use swgpu_bench::runner::{fig09_cells, fig09_lanes, WalkLane};
use swgpu_bench::{parse_args, Cell, Runner, Table};
use swgpu_sim::{ObsReport, SimStats};

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

/// Exports one scenario's complete obs report as a validated Chrome
/// trace JSON.
fn export_trace(dir: &Path, label: &str, report: &ObsReport) {
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
fn lane(walk: &WalkLane, origin: u64, scale: u64) -> String {
    let pre = (walk.issued - origin) / scale;
    let q = walk.queue_cycles() / scale;
    let a = (walk.access_cycles() / scale).max(1);
    format!(
        "{}{}{}",
        " ".repeat(pre as usize),
        "#".repeat(q as usize),
        "=".repeat(a as usize)
    )
}

fn main() {
    let h = parse_args();
    let scenarios = fig09_cells(h.scale);
    let cells: Vec<Cell> = scenarios.iter().map(|(c, _)| c.clone()).collect();
    let stats = Runner::from_harness(&h).run_cells(&cells);
    // Every scenario's lanes are rebuilt before any is drawn, so a
    // partial span set draws nothing.
    let runs: Vec<(&str, SimStats, Vec<WalkLane>)> = scenarios
        .iter()
        .zip(stats)
        .map(|((cell, label), s)| {
            let lanes = s
                .obs
                .as_deref()
                .ok_or_else(|| "the run carries no obs report".to_string())
                .and_then(|report| fig09_lanes(&cell.cfg, report))
                .unwrap_or_else(|e| {
                    eprintln!("fig09_timeline: {label}: {e}; no timeline drawn");
                    std::process::exit(1)
                });
            (*label, s, lanes)
        })
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

    for (label, s, lanes) in &runs {
        let origin = lanes.iter().map(|w| w.issued).min().unwrap_or(0);
        let horizon = lanes
            .iter()
            .map(|w| w.completed)
            .max()
            .unwrap_or(1)
            .saturating_sub(origin)
            .max(1);
        let scale = (horizon / 72).max(1);
        println!("--- {label} (1 char ≈ {scale} cycles) ---");
        // Sample walks evenly across the whole burst (completion order
        // would show only the lucky, un-queued ones).
        let mut all: Vec<_> = lanes.iter().collect();
        all.sort_by_key(|w| w.issued);
        let stride = (all.len() / 12).max(1);
        for w in all.iter().step_by(stride).take(12) {
            println!("  {}", lane(w, origin, scale));
        }
        let last = lanes
            .iter()
            .map(|w| w.completed)
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
        for (label, s, _) in &runs {
            export_trace(dir, label, s.obs.as_deref().expect("checked above"));
        }
    }
}
