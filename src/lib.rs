//! Workspace-level re-exports shared by the integration tests and examples
//! of the SoftWalker reproduction.
//!
//! The real functionality lives in the `swgpu-*` substrate crates and the
//! `softwalker` core crate; see the README for the crate map. This crate
//! only re-exports the pieces examples need; a run's counters print
//! through `SimStats`'s `Display`, one `key value` line each.

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
