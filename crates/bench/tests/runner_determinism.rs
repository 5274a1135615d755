//! Regression tests for the experiment runner's headline guarantees:
//!
//! 1. **Determinism under parallelism** — running the same cell matrix on
//!    one worker and on four workers yields byte-identical per-cell
//!    `SimStats::to_json` output.
//! 2. **Cache behaviour** — a second invocation over the same matrix
//!    resolves 100% from cache (in-process memo within a runner, on-disk
//!    artifacts across runners), with zero re-simulation.

use std::path::PathBuf;

use swgpu_bench::runner::{fig09_cells, fig09_lanes, WalkLane};
use swgpu_bench::{Cell, Runner, Scale, SystemConfig};
use swgpu_sim::ObsConfig;
use swgpu_workloads::by_abbr;

/// A fresh per-test scratch directory inside the workspace `target/`.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-artifacts")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Two benchmarks x two translation modes at quick scale — the smallest
/// matrix the acceptance criteria call for.
fn matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for abbr in ["bfs", "gemm"] {
        let spec = by_abbr(abbr).expect("known benchmark");
        for sys in [SystemConfig::Baseline, SystemConfig::SoftWalker] {
            cells.push(Cell::bench(&spec, sys.build(Scale::Quick)));
        }
    }
    cells
}

#[test]
fn results_are_byte_identical_across_jobs_1_and_4() {
    let cells = matrix();
    let serial = Runner::new(1, None, false).run_cells(&cells);
    let parallel = Runner::new(4, None, false).run_cells(&cells);
    assert_eq!(serial.len(), parallel.len());
    for ((s, p), cell) in serial.iter().zip(&parallel).zip(&cells) {
        assert_eq!(
            s.to_json(),
            p.to_json(),
            "cell {} diverged between --jobs 1 and --jobs 4",
            cell.key()
        );
    }
}

#[test]
fn second_invocation_is_all_memo_hits() {
    let cells = matrix();
    let runner = Runner::new(4, None, false);
    let first = runner.run_cells(&cells);
    assert_eq!(runner.counters().simulated as usize, cells.len());
    let second = runner.run_cells(&cells);
    let c = runner.counters();
    assert_eq!(c.simulated as usize, cells.len(), "nothing re-simulated");
    assert_eq!(c.memo_hits as usize, cells.len(), "100% memo hits");
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.to_json(), b.to_json());
    }
}

#[test]
fn disk_cache_round_trips_across_runners() {
    let dir = scratch("runner-disk");
    let cells = matrix();

    // First "binary": everything simulates and is persisted.
    let writer = Runner::new(4, Some(dir.clone()), false);
    let written = writer.run_cells(&cells);
    assert_eq!(writer.counters().simulated as usize, cells.len());

    // Second "binary" (fresh runner, same cache): 100% disk hits and
    // byte-identical stats — the fig16-then-fig18 baseline-reuse path.
    let reader = Runner::new(4, Some(dir.clone()), false);
    let reread = reader.run_cells(&cells);
    let c = reader.counters();
    assert_eq!(c.simulated, 0, "a cached cell must never re-simulate");
    assert_eq!(c.disk_hits as usize, cells.len(), "100% disk-cache hits");
    for (a, b) in written.iter().zip(&reread) {
        assert_eq!(a.to_json(), b.to_json(), "disk round-trip changed stats");
    }

    // --refresh ignores the cache and re-simulates.
    let refresher = Runner::new(4, Some(dir.clone()), true);
    refresher.run_cells(&cells);
    assert_eq!(refresher.counters().simulated as usize, cells.len());
    assert_eq!(refresher.counters().disk_hits, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_cells_disk_hit_with_reports_restored() {
    let dir = scratch("runner-obs");
    let spec = by_abbr("bfs").expect("known benchmark");
    let mut cfg = SystemConfig::Baseline.build(Scale::Quick);
    cfg.obs = ObsConfig::enabled();
    let cell = Cell::bench(&spec, cfg.clone());

    let first = Runner::new(2, Some(dir.clone()), false);
    let stats = first.run_cells(std::slice::from_ref(&cell));
    let report = stats[0].obs.as_deref().expect("obs report");
    assert!(!report.spans.is_empty(), "an armed run records spans");

    // A fresh runner serves the artifact from disk — the artifact
    // persists the obs payload — with zero re-simulation and the exact
    // report restored.
    let second = Runner::new(2, Some(dir.clone()), false);
    let again = second.run_cells(std::slice::from_ref(&cell));
    assert_eq!(second.counters().simulated, 0, "0 simulated on re-run");
    assert_eq!(second.counters().disk_hits, 1);
    assert_eq!(again[0].obs, stats[0].obs, "restored report must match");
    assert_eq!(again[0].to_json(), stats[0].to_json());

    // The cached artifact only serves the span capacity it was recorded
    // with: a different capacity is a different config fingerprint
    // (hence key), so it simulates fresh rather than serving other spans.
    let mut other = cfg.clone();
    other.obs.span_capacity = 32;
    let other_cell = Cell::bench(&spec, other);
    let third = Runner::new(2, Some(dir.clone()), false);
    let other_stats = third.run_cells(std::slice::from_ref(&other_cell));
    assert_eq!(third.counters().simulated, 1);
    assert!(other_stats[0].obs.as_deref().unwrap().spans.len() <= 32);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig09_cells_are_deterministic_across_job_counts() {
    let cells: Vec<Cell> = fig09_cells(Scale::Quick)
        .into_iter()
        .map(|(c, _)| c)
        .collect();
    let serial = Runner::new(1, None, false).run_cells(&cells);
    let parallel = Runner::new(4, None, false).run_cells(&cells);
    for ((s, p), cell) in serial.iter().zip(&parallel).zip(&cells) {
        assert_eq!(
            s.to_json(),
            p.to_json(),
            "cell {} diverged between --jobs 1 and --jobs 4",
            cell.key()
        );
        assert_eq!(
            s.obs,
            p.obs,
            "cell {} obs reports diverged across job counts",
            cell.key()
        );
    }
}

#[test]
fn fig09_lanes_agree_with_the_walk_counters() {
    // Each quick Figure 9 cell, served fresh and then from the disk
    // cache: one lane per completed walk, the lanes' latencies sum to
    // the walk counters, and on hardware cells (whose lanes start when a
    // walker picks the walk up) the queueing sums agree too.
    let dir = scratch("runner-fig09-lanes");
    let scenarios = fig09_cells(Scale::Quick);
    let cells: Vec<Cell> = scenarios.iter().map(|(c, _)| c.clone()).collect();
    for (pass, simulated) in [("fresh", cells.len() as u64), ("cached", 0)] {
        let runner = Runner::new(2, Some(dir.clone()), false);
        let stats = runner.run_cells(&cells);
        assert_eq!(runner.counters().simulated, simulated, "{pass}");
        for (cell, s) in cells.iter().zip(&stats) {
            let report = s.obs.as_deref().expect("fig09 cells arm obs");
            let lanes = fig09_lanes(&cell.cfg, report).expect("complete span set");
            let key = cell.key();
            assert_eq!(lanes.len() as u64, s.walk.translations, "{pass} {key}");
            let total: u64 = lanes.iter().map(|w| w.completed - w.issued).sum();
            assert_eq!(
                total,
                s.walk.queue_cycles + s.walk.access_cycles,
                "{pass} {key}"
            );
            if !cell.cfg.mode.uses_software_walkers() {
                let queued: u64 = lanes.iter().map(WalkLane::queue_cycles).sum();
                assert_eq!(queued, s.walk.queue_cycles, "{pass} {key}");
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fig09_lanes_refuse_a_partial_span_set() {
    let (cell, _) = fig09_cells(Scale::Quick).swap_remove(1);
    let stats = Runner::new(1, None, false).get(&cell);
    let mut report = stats.obs.expect("fig09 cells arm obs");
    assert!(fig09_lanes(&cell.cfg, &report).is_ok());
    report.spans_flushed = 1;
    let err = fig09_lanes(&cell.cfg, &report).unwrap_err();
    assert!(err.contains("span_capacity"), "{err}");
    report.spans_flushed = 0;
    report.spans_dropped = 1;
    assert!(fig09_lanes(&cell.cfg, &report).is_err());
}
