//! Workspace-level helpers shared by the integration tests and examples
//! of the SoftWalker reproduction.
//!
//! The real functionality lives in the `swgpu-*` substrate crates and the
//! `softwalker` core crate; see the README for the crate map. This crate
//! only re-exports the pieces examples need and provides a compact
//! human-readable run summary.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use softwalker::{DistributorPolicy, PwWarpConfig, PwWarpUnit, SwWalkRequest};
pub use swgpu_sim::{
    GpuConfig, GpuSimulator, SharingPolicy, SimInput, SimStats, TenantConfig, TenantStats,
    TenantsConfig, TranslationMode,
};
pub use swgpu_sm::InstrSource;
pub use swgpu_types::{Asid, FaultPlan, MmConfig, MmEvictPolicy, PageSize};
pub use swgpu_workloads::{by_abbr, irregular, regular, table4, Workload, WorkloadParams};

/// Formats the run metrics examples care about as a short multi-line
/// block.
///
/// # Example
///
/// ```
/// use softwalker_repro::{summary, SimStats};
/// let text = summary("demo", &SimStats::default());
/// assert!(text.contains("demo"));
/// ```
pub fn summary(label: &str, s: &SimStats) -> String {
    format!(
        "{label}:\n  cycles            {}\n  instructions      {} (IPC {:.3})\n  L2 TLB MPKI       {:.1}\n  page walks        {} (avg queue {:.0} cyc, avg access {:.0} cyc, queue share {:.0}%)\n  MSHR failures     {}\n  stall cycles      {} ({:.0}% of scheduler cycles)\n  DRAM utilization  {:.1}%",
        s.cycles,
        s.instructions,
        s.ipc(),
        s.l2_tlb_mpki(),
        s.walk.translations,
        s.walk.avg_queue(),
        s.walk.avg_access(),
        s.walk.queue_fraction() * 100.0,
        s.l2_mshr_failure_events,
        s.stall_cycles(),
        s.sm.stall_fraction() * 100.0,
        s.dram_utilization * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_contains_key_metrics() {
        let s = SimStats::default();
        let text = summary("x", &s);
        for needle in ["cycles", "MPKI", "page walks", "DRAM"] {
            assert!(text.contains(needle), "missing {needle}");
        }
    }
}
