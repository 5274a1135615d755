//! The workload generator: an [`InstrSource`] built from a benchmark spec.

use crate::pattern::mix;
use crate::spec::BenchmarkSpec;
use swgpu_sm::{InstrSource, WarpInstr};
use swgpu_types::{FastMap, PageSize, SmId, VirtAddr, Vpn, WarpId};

/// Sizing parameters for one simulation run.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadParams {
    /// SMs in the GPU (46 in Table 3).
    pub sms: usize,
    /// Warps resident per SM (48 in Table 3).
    pub warps_per_sm: usize,
    /// Memory instructions each warp executes before retiring; each is
    /// preceded by one compute instruction (unless the benchmark's
    /// `compute_cycles` is zero). Controls run length.
    pub mem_instrs_per_warp: u32,
    /// Footprint multiplier in percent (100 = the Table 4 footprint;
    /// Figures 6/25 scale footprints up, quick tests scale down).
    pub footprint_percent: u64,
    /// Translation granularity (needed by set-skewed generation).
    pub page_size: PageSize,
}

impl Default for WorkloadParams {
    fn default() -> Self {
        Self {
            sms: 46,
            warps_per_sm: 48,
            mem_instrs_per_warp: 8,
            footprint_percent: 100,
            page_size: PageSize::Size64K,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct WarpCursor {
    iter: u64,
    next_is_load: bool,
}

/// A deterministic synthetic workload: each warp alternates compute and
/// load instructions whose addresses follow the benchmark's
/// [`crate::Pattern`].
///
/// # Example
///
/// ```
/// use swgpu_sm::{InstrSource, WarpInstr};
/// use swgpu_types::{SmId, WarpId};
/// use swgpu_workloads::{by_abbr, WorkloadParams};
///
/// let spec = by_abbr("gups").unwrap();
/// let mut w = spec.build(WorkloadParams {
///     mem_instrs_per_warp: 2,
///     ..WorkloadParams::default()
/// });
/// let first = w.next_instr(SmId::new(0), WarpId::new(0)).unwrap();
/// assert!(matches!(first, WarpInstr::Compute { .. }));
/// let second = w.next_instr(SmId::new(0), WarpId::new(0)).unwrap();
/// assert!(matches!(second, WarpInstr::Load { .. }));
/// ```
#[derive(Debug)]
pub struct Workload {
    spec: BenchmarkSpec,
    params: WorkloadParams,
    footprint: u64,
    cursors: FastMap<(SmId, WarpId), WarpCursor>,
}

impl Workload {
    /// Builds the generator. See [`BenchmarkSpec::build`].
    pub fn new(spec: BenchmarkSpec, params: WorkloadParams) -> Self {
        let footprint = spec.footprint_bytes(params.footprint_percent, params.page_size);
        Self {
            spec,
            params,
            footprint,
            cursors: FastMap::default(),
        }
    }

    /// The benchmark this workload instantiates.
    pub fn spec(&self) -> &BenchmarkSpec {
        &self.spec
    }

    /// Mapped bytes the simulator must install before the run (a single
    /// region starting at virtual address 0).
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    /// Sizing parameters.
    pub fn params(&self) -> WorkloadParams {
        self.params
    }

    fn warp_global(&self, sm: SmId, warp: WarpId) -> u64 {
        sm.index() as u64 * self.params.warps_per_sm as u64 + warp.index() as u64
    }

    fn warp_seed(&self, sm: SmId, warp: WarpId) -> u64 {
        mix(self.warp_global(sm, warp)
            ^ mix(self.spec.abbr.len() as u64 ^ (self.spec.footprint_mb << 20)))
    }

    /// Lane addresses of the `step`-th load of a warp — exposed for the
    /// Figure 3 access-pattern harness, which plots page indices over
    /// (logical) time without running the full simulator.
    pub fn lane_addrs(&self, sm: SmId, warp: WarpId, step: u64) -> Vec<VirtAddr> {
        self.spec.pattern.lane_addrs(
            self.footprint,
            self.warp_seed(sm, warp),
            self.warp_global(sm, warp),
            self.params.warps_per_sm as u64,
            step,
            self.params.page_size.bytes(),
        )
    }
}

impl InstrSource for Workload {
    fn next_instr(&mut self, sm: SmId, warp: WarpId) -> Option<WarpInstr> {
        if sm.index() >= self.params.sms || warp.index() >= self.params.warps_per_sm {
            return None;
        }
        let zero_compute = self.spec.compute_cycles == 0;
        let step = {
            let cursor = self.cursors.entry((sm, warp)).or_insert(WarpCursor {
                iter: 0,
                next_is_load: zero_compute,
            });
            if cursor.iter >= u64::from(self.params.mem_instrs_per_warp) {
                return None;
            }
            if cursor.next_is_load {
                let step = cursor.iter;
                cursor.iter += 1;
                cursor.next_is_load = zero_compute;
                Some(step)
            } else {
                cursor.next_is_load = true;
                None
            }
        };
        match step {
            Some(step) => Some(WarpInstr::Load {
                addrs: self.lane_addrs(sm, warp, step),
            }),
            None => Some(WarpInstr::Compute {
                cycles: self.spec.compute_cycles,
            }),
        }
    }

    /// The generator is a pure function of `(warp, step)`, so the warp's
    /// future loads are known exactly without consuming the stream: the
    /// cursor gives the next unissued step, and `lane_addrs` reproduces
    /// what `next_instr` will emit for it.
    fn peek_load_vpns(&self, sm: SmId, warp: WarpId, lookahead: u32) -> Vec<Vpn> {
        if sm.index() >= self.params.sms || warp.index() >= self.params.warps_per_sm {
            return Vec::new();
        }
        let next = self.cursors.get(&(sm, warp)).map_or(0, |c| c.iter);
        let last = u64::from(self.params.mem_instrs_per_warp).min(next + u64::from(lookahead));
        let mut vpns = Vec::new();
        for step in next..last {
            for addr in self.lane_addrs(sm, warp, step) {
                let vpn = self.params.page_size.vpn_of(addr);
                if !vpns.contains(&vpn) {
                    vpns.push(vpn);
                }
            }
        }
        vpns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_abbr;

    fn params(n: u32) -> WorkloadParams {
        WorkloadParams {
            sms: 2,
            warps_per_sm: 2,
            mem_instrs_per_warp: n,
            footprint_percent: 10,
            page_size: PageSize::Size64K,
        }
    }

    #[test]
    fn alternates_compute_and_load_then_retires() {
        let mut w = by_abbr("bfs").unwrap().build(params(2));
        let sm = SmId::new(0);
        let wp = WarpId::new(0);
        let seq: Vec<_> = std::iter::from_fn(|| w.next_instr(sm, wp)).collect();
        assert_eq!(seq.len(), 4, "2 iterations x (compute + load)");
        assert!(matches!(seq[0], WarpInstr::Compute { .. }));
        assert!(seq[1].is_load());
        assert!(matches!(seq[2], WarpInstr::Compute { .. }));
        assert!(seq[3].is_load());
    }

    #[test]
    fn zero_compute_benchmarks_emit_only_loads() {
        let mut spec = by_abbr("gups").unwrap();
        spec.compute_cycles = 0;
        let mut w = spec.build(params(3));
        let seq: Vec<_> =
            std::iter::from_fn(|| w.next_instr(SmId::new(0), WarpId::new(0))).collect();
        assert_eq!(seq.len(), 3);
        assert!(seq.iter().all(WarpInstr::is_load));
    }

    #[test]
    fn out_of_range_warps_retire_immediately() {
        let mut w = by_abbr("gups").unwrap().build(params(5));
        assert!(w.next_instr(SmId::new(5), WarpId::new(0)).is_none());
        assert!(w.next_instr(SmId::new(0), WarpId::new(7)).is_none());
    }

    #[test]
    fn footprint_scales() {
        let full = by_abbr("gups").unwrap().build(WorkloadParams::default());
        let tenth = by_abbr("gups").unwrap().build(params(1));
        assert_eq!(full.footprint_bytes(), 308 * 1024 * 1024);
        assert_eq!(tenth.footprint_bytes(), 308 * 1024 * 1024 / 10);
    }

    #[test]
    fn addresses_within_footprint_for_all_benchmarks() {
        for spec in crate::spec::table4() {
            let mut w = spec.build(params(3));
            for smi in 0..2 {
                for wpi in 0..2 {
                    while let Some(instr) = w.next_instr(SmId::new(smi), WarpId::new(wpi)) {
                        if let WarpInstr::Load { addrs } = instr {
                            for a in addrs {
                                assert!(
                                    a.value() < w.footprint_bytes(),
                                    "{}: {a} outside footprint",
                                    spec.abbr
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn distinct_warps_use_distinct_seeds() {
        let w = by_abbr("gups").unwrap().build(params(1));
        let a = w.lane_addrs(SmId::new(0), WarpId::new(0), 0);
        let b = w.lane_addrs(SmId::new(0), WarpId::new(1), 0);
        assert_ne!(a, b);
    }

    #[test]
    fn generation_is_reproducible() {
        let w1 = by_abbr("sssp").unwrap().build(params(1));
        let w2 = by_abbr("sssp").unwrap().build(params(1));
        assert_eq!(
            w1.lane_addrs(SmId::new(1), WarpId::new(1), 5),
            w2.lane_addrs(SmId::new(1), WarpId::new(1), 5)
        );
    }
}
