//! Artifact schema-migration regression tests: old-schema, truncated,
//! obs-stripped and ledger-breaking artifacts must all be *re-simulated*
//! — never surfaced as hard errors — and the schema-v8 obs payloads must
//! make a repeat of the Figure 9 cell set fully cache-served.

use std::path::PathBuf;

use swgpu_bench::runner::fig09_cells;
use swgpu_bench::{Cell, LoadOutcome, RunArtifact, Runner, Scale, SystemConfig};
use swgpu_workloads::by_abbr;

/// A fresh per-test scratch directory inside the workspace `target/`.
fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/test-artifacts")
        .join(format!("{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sample_cell() -> Cell {
    let spec = by_abbr("gemm").expect("known benchmark");
    Cell::bench(&spec, SystemConfig::Baseline.build(Scale::Quick))
}

#[test]
fn old_schema_artifacts_are_resimulated_not_errors() {
    // Every prior generation: v7 (a walk-trace payload beside the obs
    // report), v6 (pre-multi-tenant), v5 (pre-streaming-trace), v4
    // (pre-demand-paging), v3 (pre-kernel-counters), v2
    // (pre-observability) and v1 (pre-trace).
    for old in (1..=7).rev() {
        let dir = scratch(&format!("migrate-v{old}"));
        let cell = sample_cell();
        let key = cell.key();

        // Seed a valid v8 artifact, then rewrite it as an old-schema file.
        let writer = Runner::new(1, Some(dir.clone()), false);
        let stats = writer.get(&cell);
        let path = RunArtifact::path_in(&dir, &key);
        let current = std::fs::read_to_string(&path).unwrap();
        // The stale probe reads only the fixed `{"schema":N,` prefix, so
        // the digit is all a rewrite needs.
        let stale = current.replacen("\"schema\":8", &format!("\"schema\":{old}"), 1);
        assert_ne!(stale, current, "downgrade must take effect (v{old})");
        std::fs::write(&path, stale).unwrap();
        assert!(
            matches!(RunArtifact::probe(&dir, &key), LoadOutcome::Stale(_)),
            "v{old}"
        );

        let reader = Runner::new(1, Some(dir.clone()), false);
        let again = reader.get(&cell);
        let c = reader.counters();
        assert_eq!(c.simulated, 1, "stale schema re-simulates (v{old})");
        assert_eq!(c.stale, 1, "v{old}");
        assert_eq!(c.quarantined, 0, "old schemas are not corruption (v{old})");
        assert_eq!(c.disk_hits, 0, "v{old}");
        assert_eq!(again.to_json(), stats.to_json());
        // The entry was silently upgraded in place: no *.corrupt files,
        // and the next runner disk-hits on the fresh v8 artifact.
        assert!(!path.with_extension("json.corrupt").exists());
        let upgraded = Runner::new(1, Some(dir.clone()), false);
        upgraded.get(&cell);
        assert_eq!(upgraded.counters().disk_hits, 1, "v{old}");

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn artifact_that_breaks_a_ledger_is_resimulated_not_served() {
    // An artifact written by a simulator that miscounted (here: one
    // kernel step too many, so the tiling law fails) parses fine and
    // carries the current schema, but must not answer for the cell.
    let dir = scratch("migrate-unbalanced");
    let cell = sample_cell();
    let key = cell.key();
    let stats = Runner::new(1, Some(dir.clone()), false).get(&cell);
    let LoadOutcome::Loaded(mut artifact) = RunArtifact::probe(&dir, &key) else {
        panic!("seeded artifact must load");
    };
    artifact.stats.kernel_steps += 1;
    assert!(artifact.stats.check_ledgers().is_err());
    artifact.write_to(&dir).unwrap();

    let reader = Runner::new(1, Some(dir.clone()), false);
    let again = reader.get(&cell);
    let c = reader.counters();
    assert_eq!((c.simulated, c.stale, c.disk_hits), (1, 1, 0));
    assert_eq!(c.quarantined, 0, "a miscounted artifact is not corruption");
    assert_eq!(again.to_json(), stats.to_json());
    // The re-simulated result replaced the unbalanced one on disk.
    let upgraded = Runner::new(1, Some(dir.clone()), false);
    upgraded.get(&cell);
    assert_eq!(upgraded.counters().disk_hits, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_artifact_is_quarantined_and_resimulated() {
    let dir = scratch("migrate-truncated");
    // Use an obs-armed cell so the truncation can land inside the obs
    // payload as well as the stats object.
    let (cell, _) = fig09_cells(Scale::Quick).swap_remove(0);
    let key = cell.key();

    let writer = Runner::new(1, Some(dir.clone()), false);
    let stats = writer.get(&cell);
    let path = RunArtifact::path_in(&dir, &key);
    let full = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, &full[..full.len() - full.len() / 4]).unwrap();

    let reader = Runner::new(1, Some(dir.clone()), false);
    let again = reader.get(&cell);
    let c = reader.counters();
    assert_eq!(c.simulated, 1);
    assert_eq!(c.quarantined, 1, "torn files are quarantined");
    assert_eq!(c.stale, 0);
    assert_eq!(again.to_json(), stats.to_json());
    assert!(path.with_extension("json.corrupt").exists());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_artifact_keeps_its_schema_class() {
    // The probe reads the version from the artifact's fixed prefix, so a
    // torn old-schema file is still a migration (re-simulated), while a
    // torn current-schema file is corruption (quarantined).
    let dir = scratch("migrate-torn-class");
    let cell = sample_cell();
    let key = cell.key();
    Runner::new(1, Some(dir.clone()), false).get(&cell);
    let path = RunArtifact::path_in(&dir, &key);
    let full = std::fs::read_to_string(&path).unwrap();
    let torn = &full[..full.len() / 2];

    std::fs::write(&path, torn.replacen("\"schema\":8", "\"schema\":7", 1)).unwrap();
    assert!(matches!(
        RunArtifact::probe(&dir, &key),
        LoadOutcome::Stale(_)
    ));
    std::fs::write(&path, torn).unwrap();
    assert!(matches!(
        RunArtifact::probe(&dir, &key),
        LoadOutcome::Corrupt(_)
    ));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_stripped_artifact_for_observed_cell_is_resimulated() {
    let dir = scratch("migrate-obs-stripped");
    let (cell, _) = fig09_cells(Scale::Quick).swap_remove(0);
    assert!(cell.cfg.obs.enabled, "fig09 cells arm obs");
    let key = cell.key();

    let writer = Runner::new(1, Some(dir.clone()), false);
    let stats = writer.get(&cell);
    assert!(stats.obs.is_some(), "observed run carries a report");
    let path = RunArtifact::path_in(&dir, &key);
    // Excise the obs payload: the file stays a parseable v8 artifact
    // (obs is optional) but no longer answers this observed cell.
    let json = std::fs::read_to_string(&path).unwrap();
    let start = json.find(",\"obs\":").expect("obs payload present");
    let stripped = format!("{}}}", &json[..start]);
    std::fs::write(&path, stripped).unwrap();

    let reader = Runner::new(1, Some(dir.clone()), false);
    let again = reader.get(&cell);
    let c = reader.counters();
    assert_eq!(c.simulated, 1, "missing obs payload re-simulates");
    assert_eq!(c.stale, 1);
    assert_eq!(c.quarantined, 0, "a stripped payload is not corruption");
    assert_eq!(again.to_json(), stats.to_json());
    assert_eq!(again.obs, stats.obs, "re-simulated report matches");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn second_run_of_fig09_cells_simulates_nothing() {
    let dir = scratch("migrate-fig09-rerun");
    let cells: Vec<Cell> = fig09_cells(Scale::Quick)
        .into_iter()
        .map(|(c, _)| c)
        .collect();

    let first = Runner::new(2, Some(dir.clone()), false);
    let a = first.run_cells(&cells);
    assert_eq!(first.counters().simulated as usize, cells.len());

    // A second invocation (fresh runner, same cache — i.e. re-running
    // the fig09_timeline binary) simulates zero cells: every obs report,
    // hence every lane, round-trips through the disk cache.
    let second = Runner::new(2, Some(dir.clone()), false);
    let b = second.run_cells(&cells);
    let c = second.counters();
    assert_eq!(c.simulated, 0, "0 simulated cells on the second run");
    assert_eq!(c.disk_hits as usize, cells.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_json(), y.to_json());
        assert!(y.obs.is_some());
        assert_eq!(x.obs, y.obs, "obs report survives the disk round-trip");
    }

    std::fs::remove_dir_all(&dir).ok();
}
