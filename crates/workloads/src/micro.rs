//! The Figure 4 concurrency microbenchmark.
//!
//! The paper probes page-walk contention on a real NVIDIA A2000 with a
//! microbenchmark that "generates a variable number of concurrent page
//! walks by issuing memory accesses from warps with one active thread,
//! each accessing a distinct cache line". We reproduce it exactly: `n`
//! warps, one lane each, every access touching a *fresh page* so each load
//! forces a page walk; average load latency versus `n` is the plotted
//! curve.

use crate::pattern::mix;
use crate::spec::{BenchmarkSpec, WorkloadClass};
use crate::Pattern;
use swgpu_sm::{InstrSource, WarpInstr};
use swgpu_types::{FastMap, PageSize, SmId, VirtAddr, WarpId};

/// One-active-lane workload generating `concurrent` simultaneous page
/// walks.
#[derive(Debug)]
pub struct Microbench {
    concurrent: usize,
    warps_per_sm: usize,
    accesses_per_warp: u32,
    footprint: u64,
    page: PageSize,
    cursors: FastMap<(SmId, WarpId), u32>,
}

/// Builds the Figure 4 microbenchmark: `concurrent` single-lane warps
/// (spread `warps_per_sm` per SM), each issuing `accesses_per_warp`
/// loads to distinct pages of a `footprint_bytes` region.
pub fn microbench(
    concurrent: usize,
    warps_per_sm: usize,
    accesses_per_warp: u32,
    footprint_bytes: u64,
    page: PageSize,
) -> Microbench {
    Microbench {
        concurrent,
        warps_per_sm: warps_per_sm.max(1),
        accesses_per_warp,
        footprint: footprint_bytes.max(page.bytes() * concurrent as u64),
        page,
        cursors: FastMap::default(),
    }
}

impl Microbench {
    /// Total single-lane warps in flight.
    pub fn concurrent(&self) -> usize {
        self.concurrent
    }

    /// Mapped bytes the simulator must install.
    pub fn footprint_bytes(&self) -> u64 {
        self.footprint
    }

    /// A pseudo-spec so the harness can reuse benchmark plumbing.
    pub fn spec(&self) -> BenchmarkSpec {
        BenchmarkSpec {
            name: "fig4 microbenchmark",
            abbr: "ubench",
            class: WorkloadClass::Irregular,
            footprint_mb: self.footprint / (1024 * 1024),
            paper_mpki: f64::NAN,
            paper_required_ptws: 0,
            scalable: false,
            pattern: Pattern::Gather {
                hot_permille: 0,
                hot_divisor: 1,
            },
            compute_cycles: 0,
        }
    }

    fn global_index(&self, sm: SmId, warp: WarpId) -> usize {
        sm.index() * self.warps_per_sm + warp.index()
    }
}

impl InstrSource for Microbench {
    fn next_instr(&mut self, sm: SmId, warp: WarpId) -> Option<WarpInstr> {
        if warp.index() >= self.warps_per_sm {
            return None;
        }
        let g = self.global_index(sm, warp);
        if g >= self.concurrent {
            return None;
        }
        let step = *self.cursors.get(&(sm, warp)).unwrap_or(&0);
        if step >= self.accesses_per_warp {
            return None;
        }
        self.cursors.insert((sm, warp), step + 1);
        // One active lane, fresh page every access, distinct across warps.
        let pages = self.footprint / self.page.bytes();
        let page_idx = mix((g as u64) << 32 | u64::from(step)) % pages;
        let addr = page_idx * self.page.bytes() + (u64::from(step) * 32) % self.page.bytes();
        Some(WarpInstr::Load {
            addrs: vec![VirtAddr::new(addr)],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_lane_per_access() {
        let mut m = microbench(4, 2, 3, 64 * 1024 * 1024, PageSize::Size64K);
        let instr = m.next_instr(SmId::new(0), WarpId::new(0)).unwrap();
        let WarpInstr::Load { addrs } = instr else {
            panic!("expected load")
        };
        assert_eq!(addrs.len(), 1);
    }

    #[test]
    fn concurrency_limits_active_warps() {
        let mut m = microbench(3, 2, 1, 64 * 1024 * 1024, PageSize::Size64K);
        // Global warp indices 0..3 are active; index 3 (sm1,warp1) is not.
        assert!(m.next_instr(SmId::new(0), WarpId::new(0)).is_some());
        assert!(m.next_instr(SmId::new(0), WarpId::new(1)).is_some());
        assert!(m.next_instr(SmId::new(1), WarpId::new(0)).is_some());
        assert!(m.next_instr(SmId::new(1), WarpId::new(1)).is_none());
    }

    #[test]
    fn each_access_is_a_fresh_page() {
        let mut m = microbench(1, 1, 16, 256 * 1024 * 1024, PageSize::Size64K);
        let mut pages = std::collections::BTreeSet::new();
        while let Some(WarpInstr::Load { addrs }) = m.next_instr(SmId::new(0), WarpId::new(0)) {
            pages.insert(addrs[0].value() / 65536);
        }
        assert!(pages.len() >= 15, "pages visited: {}", pages.len());
    }

    #[test]
    fn retires_after_quota() {
        let mut m = microbench(1, 1, 2, 64 * 1024 * 1024, PageSize::Size64K);
        assert!(m.next_instr(SmId::new(0), WarpId::new(0)).is_some());
        assert!(m.next_instr(SmId::new(0), WarpId::new(0)).is_some());
        assert!(m.next_instr(SmId::new(0), WarpId::new(0)).is_none());
    }
}
