//! Zero-overhead guarantee of the observability layer:
//!
//! 1. **Obs off** (the default) — `SimStats::to_json` is byte-identical
//!    whether the binary was built with the obs crate linked or not (it
//!    always is; the guarantee is that the disabled path records nothing
//!    and perturbs nothing), across both translation modes and multiple
//!    benchmarks.
//! 2. **Obs on** — arming the layer changes *only* the attached report:
//!    `cycles` and every other simulation counter stay exactly the same,
//!    so a trace-enabled rerun of a figure is still the same experiment.

use swgpu_bench::{Cell, Runner, Scale, SystemConfig};
use swgpu_sim::ObsConfig;
use swgpu_workloads::by_abbr;

/// Two benchmarks x two translation modes at quick scale.
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

/// The same matrix with the observability layer armed on every cell.
fn observed_matrix() -> Vec<Cell> {
    matrix()
        .into_iter()
        .map(|mut c| {
            c.cfg.obs = ObsConfig::enabled();
            c
        })
        .collect()
}

#[test]
fn disabled_obs_attaches_nothing_and_stats_are_stable() {
    let cells = matrix();
    let a = Runner::new(1, None, false).run_cells(&cells);
    let b = Runner::new(2, None, false).run_cells(&cells);
    for ((x, y), cell) in a.iter().zip(&b).zip(&cells) {
        assert!(x.obs.is_none(), "obs-off run must not attach a report");
        assert_eq!(
            x.to_json(),
            y.to_json(),
            "obs-off stats diverged for cell {}",
            cell.key()
        );
    }
}

#[test]
fn enabling_obs_does_not_perturb_simulation_outcomes() {
    let plain = Runner::new(2, None, false).run_cells(&matrix());
    let observed = Runner::new(2, None, false).run_cells(&observed_matrix());
    for ((p, o), cell) in plain.iter().zip(&observed).zip(&matrix()) {
        assert_eq!(
            p.cycles,
            o.cycles,
            "observing changed cycle count for cell {}",
            cell.key()
        );
        // to_json excludes the obs payload by design, so byte-equality
        // here proves *every* serialized counter is untouched.
        assert_eq!(
            p.to_json(),
            o.to_json(),
            "observing changed simulation counters for cell {}",
            cell.key()
        );
        assert!(p.obs.is_none());
        let report = o.obs.as_deref().expect("observed run attaches a report");
        assert!(
            report.histogram("walk_total_cycles").is_some(),
            "report carries the walk latency histogram"
        );
        // The event kernel executes extra steps at obs sample boundaries
        // (so the gap-aware time series sees every interval), but the
        // schedule counters are derived from the event schedule alone —
        // arming obs must not move them.
        assert_eq!(
            p.kernel_steps,
            o.kernel_steps,
            "observing changed the executed-step count for cell {}",
            cell.key()
        );
        assert_eq!(
            p.kernel_cycles_skipped,
            o.kernel_cycles_skipped,
            "observing changed the skipped-cycle count for cell {}",
            cell.key()
        );
    }
}

#[test]
fn event_kernel_skips_cycles_on_every_matrix_cell() {
    // Not a tautology of the equality test above: these cells go through
    // the bench Runner (prebuilt memory images, artifact plumbing) and
    // still must exercise real cycle-skipping — 80-cycle L2 TLB hops and
    // DRAM round-trips dominate the quick-scale cells.
    let stats = Runner::new(2, None, false).run_cells(&matrix());
    for (s, cell) in stats.iter().zip(&matrix()) {
        assert!(
            s.kernel_cycles_skipped > 0,
            "event kernel never skipped on cell {}",
            cell.key()
        );
    }
}
