//! Crash-safety and fault-injection regression tests for the experiment
//! runner (the acceptance scenario of the robustness PR):
//!
//! 1. A batch containing a panicking cell **and** a corrupted disk-cache
//!    artifact still completes, reporting per-cell failures instead of
//!    aborting the whole run.
//! 2. Determinism survives fault injection: `--jobs 1` and `--jobs 4`
//!    produce byte-identical per-cell stats when every cell runs under an
//!    armed [`FaultPlan`], and every injected fault is accounted for.

use std::path::PathBuf;

use swgpu_bench::{Cell, CellWorkload, RunArtifact, Runner, Scale, SystemConfig};
use swgpu_types::FaultPlan;
use swgpu_workloads::by_abbr;

/// A fresh per-test scratch directory inside the workspace `target/`.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-artifacts")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn storm() -> FaultPlan {
    FaultPlan {
        seed: 0xdead_beef,
        pte_corrupt_rate: 0.05,
        mem_drop_rate: 0.05,
        mem_delay_rate: 0.05,
        stuck_thread_rate: 0.02,
        ..FaultPlan::default()
    }
}

/// Two benchmarks x two translation modes, every cell under the same
/// armed fault plan.
fn injected_matrix() -> Vec<Cell> {
    let mut cells = Vec::new();
    for abbr in ["bfs", "gemm"] {
        let spec = by_abbr(abbr).expect("known benchmark");
        for sys in [SystemConfig::Baseline, SystemConfig::SoftWalker] {
            let mut cfg = sys.build(Scale::Quick);
            cfg.fault_plan = storm();
            cells.push(Cell::bench_scaled(&spec, cfg, 20));
        }
    }
    cells
}

#[test]
fn batch_with_panic_and_corrupt_artifact_completes() {
    let dir = scratch("crash-batch");

    // Seed the disk cache with one good cell, then corrupt its artifact
    // in place (simulating a crash before atomic writes existed).
    let spec = by_abbr("gups").expect("known benchmark");
    let corrupted = Cell::bench_scaled(&spec, SystemConfig::Baseline.build(Scale::Quick), 20);
    Runner::new(1, Some(dir.clone()), false).run_cells(std::slice::from_ref(&corrupted));
    let path = RunArtifact::path_in(&dir, &corrupted.key());
    let full = std::fs::read_to_string(&path).expect("seeded artifact");
    std::fs::write(&path, &full[..full.len() / 2]).expect("truncate");

    // A cell whose workload cannot be rebuilt panics inside simulate().
    let poisoned = Cell {
        cfg: SystemConfig::Baseline.build(Scale::Quick),
        workload: CellWorkload::Bench {
            abbr: "no-such-benchmark".into(),
            footprint_percent: 20,
        },
    };
    let healthy = Cell::bench_scaled(&spec, SystemConfig::SoftWalker.build(Scale::Quick), 20);

    let batch = [corrupted.clone(), poisoned.clone(), healthy.clone()];
    let runner = Runner::new(2, Some(dir.clone()), false);
    let results = runner.run_cells_checked(&batch);

    assert_eq!(results.len(), 3, "every cell must get a verdict");
    assert!(results[0].is_ok(), "quarantined cell must re-simulate");
    let err = results[1].as_ref().expect_err("poisoned cell must fail");
    assert_eq!(err.key, poisoned.key());
    assert!(
        err.message.contains("no-such-benchmark"),
        "failure must carry the panic message, got {:?}",
        err.message
    );
    assert!(results[2].is_ok(), "a failure must not sink later cells");

    let c = runner.counters();
    assert_eq!(c.failed, 1, "exactly the poisoned cell failed");
    assert_eq!(c.quarantined, 1, "exactly the torn artifact quarantined");
    assert!(
        path.with_extension("json.corrupt").exists(),
        "corrupt artifact must be preserved for post-mortem"
    );

    // The quarantined cell was re-simulated and re-persisted: a fresh
    // runner serves it straight from disk.
    let reread = Runner::new(1, Some(dir.clone()), false);
    reread.run_cells(std::slice::from_ref(&corrupted));
    assert_eq!(reread.counters().disk_hits, 1);
    assert_eq!(reread.counters().simulated, 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_injection_is_deterministic_across_jobs_1_and_4() {
    let cells = injected_matrix();
    let serial = Runner::new(1, None, false).run_cells(&cells);
    let parallel = Runner::new(4, None, false).run_cells(&cells);
    assert_eq!(serial.len(), parallel.len());
    for ((s, p), cell) in serial.iter().zip(&parallel).zip(&cells) {
        assert_eq!(
            s.to_json(),
            p.to_json(),
            "cell {} diverged between --jobs 1 and --jobs 4 under injection",
            cell.key()
        );
        // The storm actually fired and nothing leaked (the runner has
        // already checked the ledgers).
        let f = &s.fault;
        assert!(
            f.injected_total() > 0,
            "cell {} injected nothing",
            cell.key()
        );
        assert_eq!(f.unrecoverable_faults, 0);
        assert!(!s.timed_out);
    }
}
