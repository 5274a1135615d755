//! The top-level cycle-driven GPU simulator: Table 3 configuration,
//! translation-mode selection and full-system statistics.
//!
//! [`GpuSimulator`] wires together every substrate crate — SMs with their
//! L1 TLBs and L1D caches (`swgpu-sm`), the shared L2 TLB complex with
//! In-TLB MSHRs (`swgpu-tlb`), the page walk cache and the radix / hashed
//! page tables (`swgpu-pt`), the hardware PTW pool (`swgpu-ptw`), the
//! SoftWalker PW Warps and Request Distributor (`softwalker`), and the
//! shared L2 data cache + GDDR6 DRAM (`swgpu-mem`) — and steps the whole
//! machine one core cycle at a time until the workload retires.
//!
//! [`TranslationMode`] selects which translation machinery serves L2 TLB
//! misses, covering every configuration the paper evaluates: the
//! 32-PTW baseline, scaled PTW pools, NHA coalescing, FS-HPT, the ideal
//! (unbounded) walker, SoftWalker with and without In-TLB MSHRs, and the
//! hardware/software hybrid.
//!
//! # Example
//!
//! ```
//! use swgpu_sim::{GpuConfig, GpuSimulator, TranslationMode};
//! use swgpu_workloads::{by_abbr, WorkloadParams};
//!
//! let mut cfg = GpuConfig::quick_test();
//! cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
//! let spec = by_abbr("gups").unwrap();
//! let wl = spec.build(WorkloadParams {
//!     sms: cfg.sms,
//!     warps_per_sm: cfg.max_warps,
//!     mem_instrs_per_warp: 2,
//!     footprint_percent: 5,
//!     page_size: cfg.page_size,
//! });
//! let stats = GpuSimulator::build(cfg, Box::new(wl)).unwrap().run();
//! assert!(!stats.timed_out);
//! assert!(stats.instructions > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod driver;
mod gpu;
mod memory;
mod obs;
mod prefetch;
mod sched;
mod stats;
mod tenants;

pub use config::{
    GpuConfig, PrefetchConfig, SharingPolicy, TenantConfig, TenantsConfig, TranslationMode,
};
pub use gpu::{GpuSimulator, RunProgress, SimInput};
pub use memory::PrebuiltMemory;
pub use stats::{SimStats, TenantStats, WalkLatencyStats};
pub use swgpu_obs::{ObsConfig, ObsReport};
pub use tenants::TenantMuxSource;
