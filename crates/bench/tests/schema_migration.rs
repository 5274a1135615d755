//! Artifact schema-migration regression tests: old-schema, truncated,
//! trace-cap-mismatched and ledger-breaking artifacts must all be
//! *re-simulated* — never surfaced as hard errors — and the schema-v7
//! trace/obs payloads must make a repeat of the Figure 9 cell set
//! (plain and observed) fully cache-served.

use std::path::PathBuf;

use swgpu_bench::runner::{fig09_cells, fig09_cells_observed};
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
    // Rewrites cover every prior generation: v6 (schema digit only —
    // the layout differs just by the multi-tenant stats keys), v5
    // (digit only — streaming-trace obs keys), v4 (digit only —
    // demand-paging / silent-corruption stats keys), v3 (digit only —
    // kernel counters), v2 (digit only, from before obs) and v1 (no
    // trace_cap / walk_trace fields either).
    for (tag, downgrade) in [
        ("migrate-v6", {
            fn v6(s: &str) -> String {
                s.replacen("\"schema\":7", "\"schema\":6", 1)
            }
            v6 as fn(&str) -> String
        }),
        ("migrate-v5", {
            fn v5(s: &str) -> String {
                s.replacen("\"schema\":7", "\"schema\":5", 1)
            }
            v5 as fn(&str) -> String
        }),
        ("migrate-v4", {
            fn v4(s: &str) -> String {
                s.replacen("\"schema\":7", "\"schema\":4", 1)
            }
            v4 as fn(&str) -> String
        }),
        ("migrate-v3", {
            fn v3(s: &str) -> String {
                s.replacen("\"schema\":7", "\"schema\":3", 1)
            }
            v3 as fn(&str) -> String
        }),
        ("migrate-v2", {
            fn v2(s: &str) -> String {
                s.replacen("\"schema\":7", "\"schema\":2", 1)
            }
            v2 as fn(&str) -> String
        }),
        ("migrate-v1", {
            fn v1(s: &str) -> String {
                s.replacen("\"schema\":7", "\"schema\":1", 1)
                    .replacen("\"trace_cap\":0,", "", 1)
            }
            v1 as fn(&str) -> String
        }),
    ] {
        let dir = scratch(tag);
        let cell = sample_cell();
        let key = cell.key();

        // Seed a valid v7 artifact, then rewrite it as an old-schema file.
        let writer = Runner::new(1, Some(dir.clone()), false);
        let stats = writer.get(&cell);
        let path = RunArtifact::path_in(&dir, &key);
        let current = std::fs::read_to_string(&path).unwrap();
        let old = downgrade(&current);
        assert_ne!(old, current, "downgrade must take effect ({tag})");
        std::fs::write(&path, old).unwrap();

        let reader = Runner::new(1, Some(dir.clone()), false);
        let again = reader.get(&cell);
        let c = reader.counters();
        assert_eq!(c.simulated, 1, "stale schema re-simulates ({tag})");
        assert_eq!(c.stale, 1, "{tag}");
        assert_eq!(c.quarantined, 0, "old schemas are not corruption ({tag})");
        assert_eq!(c.disk_hits, 0, "{tag}");
        assert_eq!(again.to_json(), stats.to_json());
        // The entry was silently upgraded in place: no *.corrupt files,
        // and the next runner disk-hits on the fresh v7 artifact.
        assert!(!path.with_extension("json.corrupt").exists());
        let upgraded = Runner::new(1, Some(dir.clone()), false);
        upgraded.get(&cell);
        assert_eq!(upgraded.counters().disk_hits, 1, "{tag}");

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
    let mut artifact = RunArtifact::load_from(&dir, &key).expect("seeded");
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
    // Use a trace-capped cell so the truncation can land inside the
    // walk-trace payload as well as the stats object.
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

    std::fs::write(&path, torn.replacen("\"schema\":7", "\"schema\":6", 1)).unwrap();
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
fn trace_cap_mismatched_artifact_is_resimulated() {
    let dir = scratch("migrate-capmismatch");
    let (cell, _) = fig09_cells(Scale::Quick).swap_remove(2);
    let cap = cell.cfg.walk_trace_cap;
    assert!(cap > 0, "fig09 cells are trace-capped");
    let key = cell.key();

    let writer = Runner::new(1, Some(dir.clone()), false);
    let stats = writer.get(&cell);
    let path = RunArtifact::path_in(&dir, &key);
    // Rewrite the stored cap: the file stays a perfectly parseable v7
    // artifact, but it no longer answers this cell's trace request.
    let json = std::fs::read_to_string(&path).unwrap();
    let mismatched = json.replacen(
        &format!("\"trace_cap\":{cap}"),
        &format!("\"trace_cap\":{}", cap / 2),
        1,
    );
    assert_ne!(json, mismatched, "cap rewrite must take effect");
    std::fs::write(&path, mismatched).unwrap();

    let reader = Runner::new(1, Some(dir.clone()), false);
    let again = reader.get(&cell);
    let c = reader.counters();
    assert_eq!(c.simulated, 1, "cap mismatch re-simulates");
    assert_eq!(c.stale, 1);
    assert_eq!(c.quarantined, 0, "a cap mismatch is not corruption");
    assert_eq!(again.to_json(), stats.to_json());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn obs_stripped_artifact_for_observed_cell_is_resimulated() {
    let dir = scratch("migrate-obs-stripped");
    let (cell, _) = fig09_cells_observed(Scale::Quick).swap_remove(0);
    assert!(cell.cfg.obs.enabled, "observed fig09 cells arm obs");
    let key = cell.key();

    let writer = Runner::new(1, Some(dir.clone()), false);
    let stats = writer.get(&cell);
    assert!(stats.obs.is_some(), "observed run carries a report");
    let path = RunArtifact::path_in(&dir, &key);
    // Excise the obs payload: the file stays a parseable v7 artifact
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
fn second_run_of_observed_fig09_cells_simulates_nothing() {
    let dir = scratch("migrate-fig09-obs-rerun");
    let cells: Vec<Cell> = fig09_cells_observed(Scale::Quick)
        .into_iter()
        .map(|(c, _)| c)
        .collect();

    let first = Runner::new(2, Some(dir.clone()), false);
    let a = first.run_cells(&cells);
    assert_eq!(first.counters().simulated as usize, cells.len());

    // Re-running fig09_timeline --trace-out must serve every observed
    // cell from disk, round-tripping the full obs report.
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

    // The acceptance criterion: a second invocation (fresh runner, same
    // cache — i.e. re-running the fig09_timeline binary) simulates zero
    // cells even though every cell requests walk traces.
    let second = Runner::new(2, Some(dir.clone()), false);
    let b = second.run_cells(&cells);
    let c = second.counters();
    assert_eq!(c.simulated, 0, "0 simulated cells on the second run");
    assert_eq!(c.disk_hits as usize, cells.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.to_json(), y.to_json());
        assert_eq!(x.walk_trace.records(), y.walk_trace.records());
    }

    std::fs::remove_dir_all(&dir).ok();
}
