//! Full-system simulation statistics.

use softwalker::{DistributorStats, PwWarpStats};
use swgpu_mem::{CacheStats, DramStats};
use swgpu_sm::SmStats;
use swgpu_tlb::InTlbStats;
use swgpu_types::{Cycle, FaultInjectionStats, MmFaultStats, MmStats};

/// Page-walk latency decomposition aggregated over every completed
/// translation — the raw material of Figures 7, 18 and 23.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalkLatencyStats {
    /// Translations completed by a page walk.
    pub translations: u64,
    /// Σ queueing cycles (waiting for a walker / PW thread).
    pub queue_cycles: u64,
    /// Σ access cycles (page-table reads, plus — for SoftWalker —
    /// communication and instruction execution).
    pub access_cycles: u64,
}

impl WalkLatencyStats {
    /// Records one completed translation.
    pub fn record(&mut self, queue: u64, access: u64) {
        self.translations += 1;
        self.queue_cycles += queue;
        self.access_cycles += access;
    }

    /// Mean queueing delay.
    pub fn avg_queue(&self) -> f64 {
        if self.translations == 0 {
            0.0
        } else {
            self.queue_cycles as f64 / self.translations as f64
        }
    }

    /// Mean page-table access latency.
    pub fn avg_access(&self) -> f64 {
        if self.translations == 0 {
            0.0
        } else {
            self.access_cycles as f64 / self.translations as f64
        }
    }

    /// Mean total walk latency (queue + access).
    pub fn avg_total(&self) -> f64 {
        self.avg_queue() + self.avg_access()
    }

    /// Queueing share of total walk latency — ~0.95 for irregular apps at
    /// the 32-PTW baseline (Figure 7).
    pub fn queue_fraction(&self) -> f64 {
        let total = self.queue_cycles + self.access_cycles;
        if total == 0 {
            0.0
        } else {
            self.queue_cycles as f64 / total as f64
        }
    }
}

/// One tenant's slice of a multi-tenant run. Recorded only when the
/// configuration carries a [`crate::TenantsConfig`]; single-tenant runs
/// leave [`SimStats::tenants`] empty so their JSON stays byte-identical
/// to artifacts written before multi-tenancy existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Warp instructions issued by the tenant's SMs.
    pub instructions: u64,
    /// Memory (load) instructions issued by the tenant's SMs.
    pub loads: u64,
    /// Cycle at which the tenant's last instruction issued — its
    /// private notion of runtime for the per-tenant IPC.
    pub cycles: u64,
    /// L2 TLB misses charged to the tenant, counted once per request.
    pub fresh_l2_misses: u64,
    /// Page walks completed on the tenant's behalf (hardware + software).
    pub walks: u64,
}

impl TenantStats {
    /// Instructions per cycle over the tenant's active window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 TLB misses per kilo-instruction for this tenant alone.
    pub fn l2_tlb_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.fresh_l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }
}

/// Everything a figure harness needs from one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Total simulated cycles until the kernel drained.
    pub cycles: u64,
    /// Whether the run hit the safety cycle limit instead of finishing.
    pub timed_out: bool,
    /// Cycles the event-scheduled kernel actually executed (`step` calls).
    /// Identical between the event kernel and the dense reference mode:
    /// both count only cycles the event schedule demanded.
    pub kernel_steps: u64,
    /// Cycles the event-scheduled kernel jumped over because no component
    /// had a pending event. `kernel_steps + kernel_cycles_skipped ==
    /// cycles + 1` on drained runs (cycle 0 is always executed).
    pub kernel_cycles_skipped: u64,
    /// Warp instructions issued across all SMs.
    pub instructions: u64,
    /// Memory (load) instructions issued.
    pub loads: u64,
    /// Aggregated SM scheduler statistics (summed over SMs).
    pub sm: SmStats,
    /// Aggregated L1 TLB statistics (summed over SMs).
    pub l1_tlb: swgpu_tlb::TlbStats,
    /// Shared L2 TLB array statistics.
    pub l2_tlb: swgpu_tlb::TlbStats,
    /// L2 TLB dedicated-MSHR statistics.
    pub l2_mshr: swgpu_tlb::TlbMshrStats,
    /// In-TLB MSHR statistics.
    pub in_tlb: InTlbStats,
    /// Distinct L2 misses that were rejected at least once because no
    /// MSHR capacity existed — the Figure 17 "MSHR failure" count.
    pub l2_mshr_failure_events: u64,
    /// L2 TLB misses counted once per request (retries after MSHR
    /// failures excluded) — the MPKI numerator.
    pub fresh_l2_misses: u64,
    /// Page-walk latency decomposition.
    pub walk: WalkLatencyStats,
    /// Walks completed by hardware PTWs.
    pub hw_walks: u64,
    /// Walks completed by PW Warps.
    pub sw_walks: u64,
    /// Aggregated L1D statistics (summed over SMs).
    pub l1d: CacheStats,
    /// Shared L2 data cache statistics.
    pub l2d: CacheStats,
    /// DRAM statistics.
    pub dram: DramStats,
    /// DRAM bandwidth utilization over the run.
    pub dram_utilization: f64,
    /// Page walk cache statistics.
    pub pwc_hits: u64,
    /// Page walk cache misses.
    pub pwc_misses: u64,
    /// Aggregated PW Warp statistics (summed over SMs).
    pub pw_warp: PwWarpStats,
    /// Request Distributor statistics.
    pub distributor: DistributorStats,
    /// Page faults observed (UVM path).
    pub faults: u64,
    /// Fault-injection and recovery counters, summed over every
    /// injection site (all zero — and omitted from the JSON — unless the
    /// run armed a [`swgpu_types::FaultPlan`]).
    pub fault: FaultInjectionStats,
    /// Demand-paged memory-manager counters (major faults, coalescing,
    /// eviction). All zero — and omitted from the JSON — unless the run
    /// enabled [`swgpu_types::MmConfig`]; prebuilt-mode stats stay
    /// byte-identical to artifacts written before the manager existed.
    pub mm: MmStats,
    /// Demand-paging data-path fault counters (dropped/duplicated/
    /// corrupted fills, shootdown drops, watchdog recovery, frame
    /// retirement). All zero — and omitted from the JSON — unless the
    /// run armed the data-path sites of a [`swgpu_types::FaultPlan`].
    pub mm_fault: MmFaultStats,
    /// TLB fills installed with a dead-on-arrival prediction, summed over
    /// the L1s and the shared L2. Zero — and omitted from the JSON —
    /// unless a TLB runs [`swgpu_tlb::ReplPolicy::DeadBlock`].
    pub tlb_dead_fills: u64,
    /// Translation prefetches issued into idle PW-Warp threads. Zero —
    /// and, with the other prefetch counters, omitted from the JSON —
    /// unless the run enabled [`crate::PrefetchConfig`].
    pub prefetch_issued: u64,
    /// Prefetched translations that later served a demand access.
    pub prefetch_useful: u64,
    /// Demand misses that arrived while the prefetch walk was still in
    /// flight and merged onto it (the prefetch was correct but late).
    pub prefetch_late: u64,
    /// Prefetched translations discarded before any demand use: evicted,
    /// invalidated, flushed, dropped at install, or failed walks.
    pub prefetch_evicted: u64,
    /// Prefetches still unresolved when the run drained: walks in flight
    /// plus resident entries never touched. Closes the conservation
    /// ledger `issued == useful + late + evicted + in_flight`.
    pub prefetch_in_flight: u64,
    /// Per-tenant metric slices, indexed by ASID. Empty — and omitted
    /// from the JSON — on single-tenant runs, preserving the byte-
    /// identity contract for existing artifacts.
    pub tenants: Vec<TenantStats>,
    /// Lifecycle records of the first walks, when tracing was enabled.
    pub walk_trace: crate::WalkTrace,
    /// Observability report (spans, histograms, time-series), present
    /// only when the run armed [`swgpu_obs::ObsConfig`]. Deliberately
    /// *not* serialized by [`SimStats::to_json`] — the flat-JSON stats
    /// object stays byte-identical whether or not observability ran;
    /// the experiment-artifact layer persists the report separately.
    pub obs: Option<Box<swgpu_obs::ObsReport>>,
}

impl SimStats {
    /// Instructions per cycle across the whole GPU.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }

    /// L2 TLB misses per kilo-instruction — the Table 4 MPKI metric
    /// (each missed request counted once, even if it had to retry).
    pub fn l2_tlb_mpki(&self) -> f64 {
        if self.instructions == 0 {
            0.0
        } else {
            self.fresh_l2_misses as f64 * 1000.0 / self.instructions as f64
        }
    }

    /// Speedup of this run relative to a baseline run of the *same*
    /// workload (same instruction count): inverse cycle ratio.
    pub fn speedup_over(&self, baseline: &SimStats) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            baseline.cycles as f64 / self.cycles as f64
        }
    }

    /// Stall cycles (memory + scoreboard) summed over SMs.
    pub fn stall_cycles(&self) -> u64 {
        self.sm.mem_stall_cycles + self.sm.scoreboard_stall_cycles
    }

    /// Whether any translation-policy counter is live (dead-block fills
    /// or prefetch activity) — gates the JSON/Display policy block.
    pub fn policy_any(&self) -> bool {
        self.tlb_dead_fills != 0
            || self.prefetch_issued != 0
            || self.prefetch_useful != 0
            || self.prefetch_late != 0
            || self.prefetch_evicted != 0
            || self.prefetch_in_flight != 0
    }

    /// Jain's fairness index over the per-tenant IPCs, in (0, 1]: 1.0
    /// when every tenant progresses at the same rate, approaching `1/n`
    /// when a single tenant monopolizes the machine. Returns 1.0 for
    /// single-tenant runs (no contention to be unfair about).
    pub fn fairness_index(&self) -> f64 {
        let n = self.tenants.len();
        if n == 0 {
            return 1.0;
        }
        let sum: f64 = self.tenants.iter().map(TenantStats::ipc).sum();
        let sum_sq: f64 = self.tenants.iter().map(|t| t.ipc() * t.ipc()).sum();
        if sum_sq == 0.0 {
            1.0
        } else {
            (sum * sum) / (n as f64 * sum_sq)
        }
    }

    /// Stall reduction versus a baseline run (Figure 19), in [0, 1].
    pub fn stall_reduction_vs(&self, baseline: &SimStats) -> f64 {
        let b = baseline.stall_cycles();
        if b == 0 {
            0.0
        } else {
            1.0 - self.stall_cycles() as f64 / b as f64
        }
    }

    /// Sets the elapsed time fields from the final cycle.
    pub(crate) fn finish(&mut self, end: Cycle, channels: usize) {
        self.cycles = end.value();
        self.dram_utilization = self
            .dram
            .bandwidth_utilization(channels, self.cycles.max(1));
    }
}

impl std::fmt::Display for SimStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cycles {} | instr {} (IPC {:.3}) | MPKI {:.1}",
            self.cycles,
            self.instructions,
            self.ipc(),
            self.l2_tlb_mpki()
        )?;
        writeln!(
            f,
            "walks {} (hw {} / sw {}): queue {:.0} + access {:.0} cyc ({:.0}% queueing)",
            self.walk.translations,
            self.hw_walks,
            self.sw_walks,
            self.walk.avg_queue(),
            self.walk.avg_access(),
            self.walk.queue_fraction() * 100.0
        )?;
        write!(
            f,
            "MSHR failures {} | stalls {} ({:.0}%) | L2D miss {:.1}% | DRAM {:.1}%",
            self.l2_mshr_failure_events,
            self.stall_cycles(),
            self.sm.stall_fraction() * 100.0,
            self.l2d.miss_rate() * 100.0,
            self.dram_utilization * 100.0
        )?;
        if self.fault.any() {
            write!(
                f,
                "\nfault injection: {} injected ({} recovered / {} escalated) | {} replayed | {} unrecoverable | {} buffer drops",
                self.fault.injected_total(),
                self.fault.recovered_injections,
                self.fault.escalated_injections,
                self.fault.fault_replays,
                self.fault.unrecoverable_faults,
                self.fault.fault_buffer_overflow_drops
            )?;
        }
        if self.mm.any() {
            write!(
                f,
                "\ndemand paging: {} major faults ({} replayed) | {} evictions | {} + {} coalesces (64K/2M) | {} splinters | {} resident peak",
                self.mm.major_faults,
                self.mm.major_replays,
                self.mm.evictions,
                self.mm.coalesces_64k,
                self.mm.coalesces_2m,
                self.mm.splinters,
                self.mm.resident_peak
            )?;
        }
        if self.policy_any() {
            write!(
                f,
                "\npolicy: {} dead fills | prefetch {} issued ({} useful / {} late / {} evicted / {} in flight)",
                self.tlb_dead_fills,
                self.prefetch_issued,
                self.prefetch_useful,
                self.prefetch_late,
                self.prefetch_evicted,
                self.prefetch_in_flight
            )?;
        }
        if !self.tenants.is_empty() {
            write!(
                f,
                "\ntenants: {} | fairness {:.3} | {} shared joins",
                self.tenants.len(),
                self.fairness_index(),
                self.l2_tlb.shared_joins
            )?;
            for (i, t) in self.tenants.iter().enumerate() {
                write!(
                    f,
                    "\n  tenant {i}: instr {} (IPC {:.3}) | MPKI {:.1} | walks {}",
                    t.instructions,
                    t.ipc(),
                    t.l2_tlb_mpki(),
                    t.walks
                )?;
            }
        }
        if self.mm_fault.any() {
            write!(
                f,
                "\nmm faults: {} injected ({} recovered / {} escalated / {} retired) | {} corruptions detected | {} stale hits | {} frames retired",
                self.mm_fault.injected_conserved(),
                self.mm_fault.recovered_fills,
                self.mm_fault.escalated_fills,
                self.mm_fault.retired_fills,
                self.mm_fault.detected_corruptions,
                self.mm_fault.detected_stale_hits,
                self.mm_fault.frames_retired
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_single_summary_block() {
        let s = SimStats {
            cycles: 100,
            instructions: 50,
            ..SimStats::default()
        };
        let text = s.to_string();
        // Every metric family must be present; the exact layout (line
        // count, ordering) is free to evolve.
        for needle in ["cycles 100", "IPC 0.500", "walks", "MSHR failures", "DRAM"] {
            assert!(text.contains(needle), "missing {needle:?} in {text:?}");
        }
        assert!(!text.ends_with('\n'), "Display must not trail a newline");
    }

    #[test]
    fn walk_latency_decomposition() {
        let mut w = WalkLatencyStats::default();
        w.record(95, 5);
        w.record(85, 15);
        assert_eq!(w.translations, 2);
        assert!((w.avg_queue() - 90.0).abs() < 1e-9);
        assert!((w.avg_access() - 10.0).abs() < 1e-9);
        assert!((w.queue_fraction() - 0.9).abs() < 1e-9);
        assert!((w.avg_total() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let base = SimStats {
            cycles: 1000,
            ..SimStats::default()
        };
        let fast = SimStats {
            cycles: 250,
            ..SimStats::default()
        };
        assert!((fast.speedup_over(&base) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mpki_per_kiloinstruction() {
        let s = SimStats {
            instructions: 4000,
            fresh_l2_misses: 120,
            ..SimStats::default()
        };
        assert!((s.l2_tlb_mpki() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn stall_reduction() {
        let mut base = SimStats::default();
        base.sm.mem_stall_cycles = 900;
        base.sm.scoreboard_stall_cycles = 100;
        let mut sw = SimStats::default();
        sw.sm.mem_stall_cycles = 250;
        sw.sm.scoreboard_stall_cycles = 50;
        assert!((sw.stall_reduction_vs(&base) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = SimStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.l2_tlb_mpki(), 0.0);
        assert_eq!(s.walk.avg_total(), 0.0);
    }
}

impl SimStats {
    /// Serializes the run's key metrics as a flat JSON object (hand-rolled
    /// so the workspace needs no serialization dependency). Intended for
    /// harnesses that post-process results with external tooling, and for
    /// the experiment runner's on-disk run cache.
    ///
    /// The object carries both derived metrics (rates, averages) and the
    /// raw counters they derive from, so [`SimStats::from_json`] can
    /// reconstruct a value whose `to_json` output is byte-identical.
    ///
    /// # Example
    ///
    /// ```
    /// use swgpu_sim::SimStats;
    /// let json = SimStats::default().to_json();
    /// assert!(json.starts_with('{') && json.ends_with('}'));
    /// assert!(json.contains("\"cycles\":0"));
    /// ```
    pub fn to_json(&self) -> String {
        let mut fields: Vec<String> = Vec::new();
        let mut num = |k: &str, v: f64| {
            if v.is_finite() {
                fields.push(format!("\"{k}\":{v}"));
            } else {
                fields.push(format!("\"{k}\":null"));
            }
        };
        num("cycles", self.cycles as f64);
        num("timed_out", u8::from(self.timed_out) as f64);
        num("instructions", self.instructions as f64);
        num("loads", self.loads as f64);
        num("ipc", self.ipc());
        num("l2_tlb_mpki", self.l2_tlb_mpki());
        num("fresh_l2_misses", self.fresh_l2_misses as f64);
        num("walks", self.walk.translations as f64);
        num("hw_walks", self.hw_walks as f64);
        num("sw_walks", self.sw_walks as f64);
        num("avg_walk_queue_cycles", self.walk.avg_queue());
        num("avg_walk_access_cycles", self.walk.avg_access());
        num("walk_queue_fraction", self.walk.queue_fraction());
        num("l2_mshr_failures", self.l2_mshr_failure_events as f64);
        num("in_tlb_allocations", self.in_tlb.in_tlb_allocations as f64);
        num("stall_cycles", self.stall_cycles() as f64);
        num("issued_cycles", self.sm.issued_cycles as f64);
        num("pw_issue_cycles", self.sm.pw_issue_cycles as f64);
        num("mem_stall_cycles", self.sm.mem_stall_cycles as f64);
        num(
            "scoreboard_stall_cycles",
            self.sm.scoreboard_stall_cycles as f64,
        );
        num("idle_cycles", self.sm.idle_cycles as f64);
        num("l1_tlb_hit_rate", self.l1_tlb.hit_rate());
        num("l2_tlb_hit_rate", self.l2_tlb.hit_rate());
        num("l1d_miss_rate", self.l1d.miss_rate());
        num("l2d_miss_rate", self.l2d.miss_rate());
        num("dram_utilization", self.dram_utilization);
        num("pwc_hits", self.pwc_hits as f64);
        num("pwc_misses", self.pwc_misses as f64);
        num("faults", self.faults as f64);
        // Raw counters behind the derived metrics above — these make the
        // object self-contained for from_json round-tripping.
        num("walk_queue_cycles", self.walk.queue_cycles as f64);
        num("walk_access_cycles", self.walk.access_cycles as f64);
        num("l1_tlb_hits", self.l1_tlb.hits as f64);
        num("l1_tlb_misses", self.l1_tlb.misses as f64);
        num("l1_tlb_fills", self.l1_tlb.fills as f64);
        num("l1_tlb_evictions", self.l1_tlb.evictions as f64);
        num("l2_tlb_hits", self.l2_tlb.hits as f64);
        num("l2_tlb_misses", self.l2_tlb.misses as f64);
        num("l2_tlb_fills", self.l2_tlb.fills as f64);
        num("l2_tlb_evictions", self.l2_tlb.evictions as f64);
        num("l1d_accesses", self.l1d.accesses as f64);
        num("l1d_hits", self.l1d.hits as f64);
        num("l1d_misses", self.l1d.misses as f64);
        num("l1d_merges", self.l1d.merges as f64);
        num("l1d_mshr_failures", self.l1d.mshr_failures as f64);
        num("l1d_evictions", self.l1d.evictions as f64);
        num("l2d_accesses", self.l2d.accesses as f64);
        num("l2d_hits", self.l2d.hits as f64);
        num("l2d_misses", self.l2d.misses as f64);
        num("l2d_merges", self.l2d.merges as f64);
        num("l2d_mshr_failures", self.l2d.mshr_failures as f64);
        num("l2d_evictions", self.l2d.evictions as f64);
        num("dram_requests", self.dram.requests as f64);
        num("dram_busy_cycles", self.dram.busy_cycles as f64);
        num("sm_l1_mshr_failures", self.sm.l1_mshr_failures as f64);
        num("sm_xlat_faults", self.sm.xlat_faults as f64);
        num("in_tlb_merges", self.in_tlb.in_tlb_merges as f64);
        num(
            "in_tlb_dedicated_rejections",
            self.in_tlb.dedicated_rejections as f64,
        );
        num("in_tlb_total_failures", self.in_tlb.total_failures as f64);
        num("kernel_steps", self.kernel_steps as f64);
        num("kernel_cycles_skipped", self.kernel_cycles_skipped as f64);
        // The fault block is emitted only when fault injection actually
        // happened: a zero-rate run stays byte-identical to artifacts
        // written before the fault layer existed.
        if self.fault.any() {
            num(
                "fault_injected_pte_corruptions",
                self.fault.injected_pte_corruptions as f64,
            );
            num(
                "fault_injected_mem_drops",
                self.fault.injected_mem_drops as f64,
            );
            num(
                "fault_injected_mem_delays",
                self.fault.injected_mem_delays as f64,
            );
            num(
                "fault_injected_stuck_threads",
                self.fault.injected_stuck_threads as f64,
            );
            num(
                "fault_recovered_injections",
                self.fault.recovered_injections as f64,
            );
            num(
                "fault_escalated_injections",
                self.fault.escalated_injections as f64,
            );
            num(
                "fault_watchdog_timeouts",
                self.fault.watchdog_timeouts as f64,
            );
            num("fault_walk_retries", self.fault.walk_retries as f64);
            num("fault_escalations", self.fault.fault_escalations as f64);
            num("fault_replays", self.fault.fault_replays as f64);
            num(
                "fault_unrecoverable",
                self.fault.unrecoverable_faults as f64,
            );
            num(
                "fault_buffer_overflow_drops",
                self.fault.fault_buffer_overflow_drops as f64,
            );
            num(
                "fault_silent_corruptions_injected",
                self.fault.injected_silent_corruptions as f64,
            );
            num(
                "fault_silent_corruptions_detected",
                self.fault.detected_silent_corruptions as f64,
            );
        }
        // Same contract for the memory-manager block: only demand-paged
        // runs carry mm keys.
        if self.mm.any() {
            num("fault_major_faults", self.mm.major_faults as f64);
            num("fault_major_replays", self.mm.major_replays as f64);
            num("mm_sw_fill_replays", self.mm.sw_fill_replays as f64);
            num("mm_evictions", self.mm.evictions as f64);
            num("mm_coalesces_64k", self.mm.coalesces_64k as f64);
            num("mm_coalesces_2m", self.mm.coalesces_2m as f64);
            num("mm_splinters", self.mm.splinters as f64);
            num("mm_resident_peak", self.mm.resident_peak as f64);
        }
        // And for the translation-policy block: runs on the default LRU
        // policy with prefetch off carry no policy keys, so existing
        // artifacts (and the byte-identity contract) are untouched.
        if self.policy_any() {
            num("tlb_dead_fills", self.tlb_dead_fills as f64);
            num("prefetch_issued", self.prefetch_issued as f64);
            num("prefetch_useful", self.prefetch_useful as f64);
            num("prefetch_late", self.prefetch_late as f64);
            num("prefetch_evicted", self.prefetch_evicted as f64);
            num("prefetch_in_flight", self.prefetch_in_flight as f64);
        }
        // And for the data-path fault block: only runs that armed the
        // demand-paging fault sites carry mm_fault/data keys.
        if self.mm_fault.any() {
            num(
                "mm_fault_injected_fill_drops",
                self.mm_fault.injected_fill_drops as f64,
            );
            num(
                "mm_fault_injected_fill_delays",
                self.mm_fault.injected_fill_delays as f64,
            );
            num(
                "mm_fault_injected_fill_duplicates",
                self.mm_fault.injected_fill_duplicates as f64,
            );
            num(
                "mm_fault_injected_fill_corruptions",
                self.mm_fault.injected_fill_corruptions as f64,
            );
            num(
                "mm_fault_injected_shootdown_drops",
                self.mm_fault.injected_shootdown_drops as f64,
            );
            num(
                "mm_fault_injected_driver_stalls",
                self.mm_fault.injected_driver_stalls as f64,
            );
            num(
                "data_corruptions_detected",
                self.mm_fault.detected_corruptions as f64,
            );
            num(
                "data_stale_hits_detected",
                self.mm_fault.detected_stale_hits as f64,
            );
            num(
                "mm_fault_recovered_fills",
                self.mm_fault.recovered_fills as f64,
            );
            num(
                "mm_fault_escalated_fills",
                self.mm_fault.escalated_fills as f64,
            );
            num("mm_fault_retired_fills", self.mm_fault.retired_fills as f64);
            num(
                "mm_fault_frames_retired",
                self.mm_fault.frames_retired as f64,
            );
            num(
                "mm_fault_fill_watchdog_timeouts",
                self.mm_fault.fill_watchdog_timeouts as f64,
            );
            num("mm_fault_fill_retries", self.mm_fault.fill_retries as f64);
        }
        // And for the tenant block: single-tenant runs carry no tenant
        // keys, so pre-multi-tenant artifacts stay byte-identical.
        if !self.tenants.is_empty() {
            num("tenant_count", self.tenants.len() as f64);
            num("fairness_index", self.fairness_index());
            num("l2_tlb_shared_joins", self.l2_tlb.shared_joins as f64);
            for (i, t) in self.tenants.iter().enumerate() {
                num(&format!("tenant{i}_instructions"), t.instructions as f64);
                num(&format!("tenant{i}_loads"), t.loads as f64);
                num(&format!("tenant{i}_cycles"), t.cycles as f64);
                num(
                    &format!("tenant{i}_fresh_l2_misses"),
                    t.fresh_l2_misses as f64,
                );
                num(&format!("tenant{i}_walks"), t.walks as f64);
            }
        }
        format!("{{{}}}", fields.join(","))
    }

    /// Parses a flat JSON object produced by [`SimStats::to_json`] back
    /// into a `SimStats`.
    ///
    /// Derived metrics (`ipc`, hit rates, averages) are ignored on input
    /// and recomputed from the raw counters, so the round trip
    /// `SimStats::from_json(&s.to_json())?.to_json() == s.to_json()`
    /// holds exactly. Fields that are not serialized (per-structure
    /// sub-statistics like the PW Warp breakdown, and the walk trace)
    /// come back as their defaults.
    ///
    /// Unknown keys are ignored so older artifacts stay readable after
    /// the schema gains fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed token if `json` is
    /// not a flat `{"key":number-or-null, ...}` object.
    pub fn from_json(json: &str) -> Result<Self, String> {
        let body = json
            .trim()
            .strip_prefix('{')
            .and_then(|rest| rest.strip_suffix('}'))
            .ok_or_else(|| "not a JSON object".to_string())?;
        let mut map = swgpu_types::FastMap::default();
        for field in body.split(',').filter(|f| !f.trim().is_empty()) {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| format!("malformed field {field:?}"))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted key in {field:?}"))?;
            let value = value.trim();
            let value = if value == "null" {
                f64::NAN
            } else {
                value
                    .parse::<f64>()
                    .map_err(|e| format!("bad number for {key:?}: {e}"))?
            };
            map.insert(key.to_string(), value);
        }
        let get = |k: &str| map.get(k).copied().unwrap_or(0.0);
        let int = |k: &str| get(k) as u64;
        let mut s = SimStats {
            cycles: int("cycles"),
            timed_out: int("timed_out") != 0,
            instructions: int("instructions"),
            loads: int("loads"),
            fresh_l2_misses: int("fresh_l2_misses"),
            l2_mshr_failure_events: int("l2_mshr_failures"),
            hw_walks: int("hw_walks"),
            sw_walks: int("sw_walks"),
            dram_utilization: get("dram_utilization"),
            pwc_hits: int("pwc_hits"),
            pwc_misses: int("pwc_misses"),
            faults: int("faults"),
            ..SimStats::default()
        };
        s.walk.translations = int("walks");
        s.walk.queue_cycles = int("walk_queue_cycles");
        s.walk.access_cycles = int("walk_access_cycles");
        s.sm.issued_cycles = int("issued_cycles");
        s.sm.pw_issue_cycles = int("pw_issue_cycles");
        s.sm.mem_stall_cycles = int("mem_stall_cycles");
        s.sm.scoreboard_stall_cycles = int("scoreboard_stall_cycles");
        s.sm.idle_cycles = int("idle_cycles");
        s.sm.l1_mshr_failures = int("sm_l1_mshr_failures");
        s.sm.xlat_faults = int("sm_xlat_faults");
        s.l1_tlb.hits = int("l1_tlb_hits");
        s.l1_tlb.misses = int("l1_tlb_misses");
        s.l1_tlb.fills = int("l1_tlb_fills");
        s.l1_tlb.evictions = int("l1_tlb_evictions");
        s.l2_tlb.hits = int("l2_tlb_hits");
        s.l2_tlb.misses = int("l2_tlb_misses");
        s.l2_tlb.fills = int("l2_tlb_fills");
        s.l2_tlb.evictions = int("l2_tlb_evictions");
        s.l1d.accesses = int("l1d_accesses");
        s.l1d.hits = int("l1d_hits");
        s.l1d.misses = int("l1d_misses");
        s.l1d.merges = int("l1d_merges");
        s.l1d.mshr_failures = int("l1d_mshr_failures");
        s.l1d.evictions = int("l1d_evictions");
        s.l2d.accesses = int("l2d_accesses");
        s.l2d.hits = int("l2d_hits");
        s.l2d.misses = int("l2d_misses");
        s.l2d.merges = int("l2d_merges");
        s.l2d.mshr_failures = int("l2d_mshr_failures");
        s.l2d.evictions = int("l2d_evictions");
        s.dram.requests = int("dram_requests");
        s.dram.busy_cycles = int("dram_busy_cycles");
        s.in_tlb.in_tlb_allocations = int("in_tlb_allocations");
        s.in_tlb.in_tlb_merges = int("in_tlb_merges");
        s.in_tlb.dedicated_rejections = int("in_tlb_dedicated_rejections");
        s.in_tlb.total_failures = int("in_tlb_total_failures");
        s.kernel_steps = int("kernel_steps");
        s.kernel_cycles_skipped = int("kernel_cycles_skipped");
        // Absent fault keys (artifacts from runs without injection, or
        // written before the fault layer existed) parse as zero.
        s.fault.injected_pte_corruptions = int("fault_injected_pte_corruptions");
        s.fault.injected_mem_drops = int("fault_injected_mem_drops");
        s.fault.injected_mem_delays = int("fault_injected_mem_delays");
        s.fault.injected_stuck_threads = int("fault_injected_stuck_threads");
        s.fault.recovered_injections = int("fault_recovered_injections");
        s.fault.escalated_injections = int("fault_escalated_injections");
        s.fault.watchdog_timeouts = int("fault_watchdog_timeouts");
        s.fault.walk_retries = int("fault_walk_retries");
        s.fault.fault_escalations = int("fault_escalations");
        s.fault.fault_replays = int("fault_replays");
        s.fault.unrecoverable_faults = int("fault_unrecoverable");
        s.fault.fault_buffer_overflow_drops = int("fault_buffer_overflow_drops");
        s.fault.injected_silent_corruptions = int("fault_silent_corruptions_injected");
        s.fault.detected_silent_corruptions = int("fault_silent_corruptions_detected");
        s.mm.major_faults = int("fault_major_faults");
        s.mm.major_replays = int("fault_major_replays");
        s.mm.sw_fill_replays = int("mm_sw_fill_replays");
        s.mm.evictions = int("mm_evictions");
        s.mm.coalesces_64k = int("mm_coalesces_64k");
        s.mm.coalesces_2m = int("mm_coalesces_2m");
        s.mm.splinters = int("mm_splinters");
        s.mm.resident_peak = int("mm_resident_peak");
        s.tlb_dead_fills = int("tlb_dead_fills");
        s.prefetch_issued = int("prefetch_issued");
        s.prefetch_useful = int("prefetch_useful");
        s.prefetch_late = int("prefetch_late");
        s.prefetch_evicted = int("prefetch_evicted");
        s.prefetch_in_flight = int("prefetch_in_flight");
        s.mm_fault.injected_fill_drops = int("mm_fault_injected_fill_drops");
        s.mm_fault.injected_fill_delays = int("mm_fault_injected_fill_delays");
        s.mm_fault.injected_fill_duplicates = int("mm_fault_injected_fill_duplicates");
        s.mm_fault.injected_fill_corruptions = int("mm_fault_injected_fill_corruptions");
        s.mm_fault.injected_shootdown_drops = int("mm_fault_injected_shootdown_drops");
        s.mm_fault.injected_driver_stalls = int("mm_fault_injected_driver_stalls");
        s.mm_fault.detected_corruptions = int("data_corruptions_detected");
        s.mm_fault.detected_stale_hits = int("data_stale_hits_detected");
        s.mm_fault.recovered_fills = int("mm_fault_recovered_fills");
        s.mm_fault.escalated_fills = int("mm_fault_escalated_fills");
        s.mm_fault.retired_fills = int("mm_fault_retired_fills");
        s.mm_fault.frames_retired = int("mm_fault_frames_retired");
        s.mm_fault.fill_watchdog_timeouts = int("mm_fault_fill_watchdog_timeouts");
        s.mm_fault.fill_retries = int("mm_fault_fill_retries");
        // Absent tenant keys (single-tenant artifacts) parse as an empty
        // tenant vector; fairness_index is derived and never trusted.
        s.l2_tlb.shared_joins = int("l2_tlb_shared_joins");
        for i in 0..int("tenant_count") as usize {
            s.tenants.push(TenantStats {
                instructions: int(&format!("tenant{i}_instructions")),
                loads: int(&format!("tenant{i}_loads")),
                cycles: int(&format!("tenant{i}_cycles")),
                fresh_l2_misses: int(&format!("tenant{i}_fresh_l2_misses")),
                walks: int(&format!("tenant{i}_walks")),
            });
        }
        Ok(s)
    }
}

#[cfg(test)]
mod json_tests {
    use super::*;

    #[test]
    fn json_is_well_formed_and_complete() {
        let mut s = SimStats {
            cycles: 12345,
            instructions: 678,
            ..SimStats::default()
        };
        s.walk.record(10, 20);
        let j = s.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"cycles\":12345"));
        assert!(j.contains("\"walks\":1"));
        // No NaNs leak (empty rates must serialize as numbers or null).
        assert!(!j.contains("NaN"));
        // Every key unique (the flat format has no nested objects or
        // string values, so splitting on ',' and ':' is exact).
        let keys: Vec<&str> = j[1..j.len() - 1]
            .split(',')
            .map(|field| field.split(':').next().unwrap().trim_matches('"'))
            .collect();
        let unique: swgpu_types::FastSet<&&str> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "duplicate JSON keys in {j}");
        assert!(keys.len() >= 25);
    }

    #[test]
    fn json_handles_empty_stats() {
        let j = SimStats::default().to_json();
        assert!(j.contains("\"ipc\":0"));
        assert!(!j.contains("NaN"));
    }

    #[test]
    fn json_round_trips_byte_identically() {
        let mut s = SimStats {
            cycles: 987_654,
            instructions: 123_456,
            loads: 45_678,
            timed_out: false,
            fresh_l2_misses: 777,
            l2_mshr_failure_events: 33,
            hw_walks: 210,
            sw_walks: 543,
            ..SimStats::default()
        };
        s.walk.record(95, 5);
        s.walk.record(85, 17);
        s.sm.issued_cycles = 1000;
        s.sm.mem_stall_cycles = 2000;
        s.sm.scoreboard_stall_cycles = 300;
        s.sm.idle_cycles = 40;
        s.sm.pw_issue_cycles = 5;
        s.l1_tlb.hits = 9000;
        s.l1_tlb.misses = 1000;
        s.l2_tlb.hits = 800;
        s.l2_tlb.misses = 200;
        s.l1d.accesses = 500;
        s.l1d.hits = 400;
        s.l1d.misses = 80;
        s.l1d.merges = 20;
        s.l2d.accesses = 100;
        s.l2d.hits = 61;
        s.l2d.misses = 39;
        s.dram.requests = 39;
        s.dram.busy_cycles = 78;
        s.dram_utilization = 0.061_234_567_891;
        s.in_tlb.in_tlb_allocations = 12;
        s.pwc_hits = 3;
        s.pwc_misses = 4;
        let j = s.to_json();
        let parsed = SimStats::from_json(&j).expect("parse");
        assert_eq!(parsed.to_json(), j, "round trip must be byte-identical");
        assert_eq!(parsed.cycles, s.cycles);
        assert_eq!(parsed.walk.queue_cycles, s.walk.queue_cycles);
        assert!((parsed.ipc() - s.ipc()).abs() < 1e-15);
    }

    #[test]
    fn fault_block_omitted_when_inert() {
        let s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        let j = s.to_json();
        assert!(
            !j.contains("fault_"),
            "zero-rate runs must serialize without fault keys: {j}"
        );
        // Display stays on the legacy layout too.
        assert!(!s.to_string().contains("fault injection"));
    }

    #[test]
    fn fault_block_round_trips() {
        let mut s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        s.fault.injected_pte_corruptions = 5;
        s.fault.injected_mem_drops = 2;
        s.fault.recovered_injections = 6;
        s.fault.escalated_injections = 1;
        s.fault.watchdog_timeouts = 2;
        s.fault.walk_retries = 7;
        s.fault.fault_escalations = 1;
        s.fault.fault_replays = 1;
        s.fault.fault_buffer_overflow_drops = 3;
        let j = s.to_json();
        assert!(j.contains("\"fault_injected_pte_corruptions\":5"));
        let parsed = SimStats::from_json(&j).expect("parse");
        assert_eq!(parsed.fault, s.fault);
        assert_eq!(parsed.to_json(), j, "round trip must be byte-identical");
        assert!(s.to_string().contains("fault injection: 7 injected"));
    }

    #[test]
    fn mm_block_omitted_when_inert() {
        let s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        let j = s.to_json();
        assert!(
            !j.contains("mm_") && !j.contains("fault_major"),
            "prebuilt-mode runs must serialize without mm keys: {j}"
        );
        assert!(!s.to_string().contains("demand paging"));
    }

    #[test]
    fn mm_block_round_trips() {
        let mut s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        s.mm.major_faults = 40;
        s.mm.major_replays = 40;
        s.mm.sw_fill_replays = 12;
        s.mm.evictions = 8;
        s.mm.coalesces_64k = 2;
        s.mm.coalesces_2m = 1;
        s.mm.splinters = 3;
        s.mm.resident_peak = 32;
        let j = s.to_json();
        assert!(j.contains("\"fault_major_faults\":40"));
        assert!(j.contains("\"mm_resident_peak\":32"));
        let parsed = SimStats::from_json(&j).expect("parse");
        assert_eq!(parsed.mm, s.mm);
        assert_eq!(parsed.to_json(), j, "round trip must be byte-identical");
        assert!(s.to_string().contains("demand paging: 40 major faults"));
    }

    #[test]
    fn mm_fault_block_omitted_when_inert() {
        let mut s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        // Even with the demand-paging block live, zero data-path
        // counters keep the mm_fault/data keys out of the JSON.
        s.mm.major_faults = 4;
        s.mm.major_replays = 4;
        let j = s.to_json();
        assert!(
            !j.contains("mm_fault_") && !j.contains("data_"),
            "runs without armed data-path sites must not carry mm_fault keys: {j}"
        );
        assert!(!s.to_string().contains("mm faults"));
    }

    #[test]
    fn mm_fault_block_round_trips() {
        let mut s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        s.mm_fault.injected_fill_drops = 6;
        s.mm_fault.injected_fill_delays = 2;
        s.mm_fault.injected_fill_duplicates = 3;
        s.mm_fault.injected_fill_corruptions = 4;
        s.mm_fault.injected_shootdown_drops = 1;
        s.mm_fault.injected_driver_stalls = 5;
        s.mm_fault.detected_corruptions = 4;
        s.mm_fault.detected_stale_hits = 1;
        s.mm_fault.recovered_fills = 17;
        s.mm_fault.escalated_fills = 1;
        s.mm_fault.retired_fills = 1;
        s.mm_fault.frames_retired = 1;
        s.mm_fault.fill_watchdog_timeouts = 7;
        s.mm_fault.fill_retries = 6;
        let j = s.to_json();
        assert!(j.contains("\"mm_fault_injected_fill_drops\":6"));
        assert!(j.contains("\"data_corruptions_detected\":4"));
        assert!(j.contains("\"mm_fault_frames_retired\":1"));
        let parsed = SimStats::from_json(&j).expect("parse");
        assert_eq!(parsed.mm_fault, s.mm_fault);
        assert_eq!(parsed.to_json(), j, "round trip must be byte-identical");
        assert!(s.to_string().contains("mm faults: 19 injected"));
    }

    #[test]
    fn policy_block_omitted_when_inert() {
        let s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        let j = s.to_json();
        assert!(
            !j.contains("prefetch_") && !j.contains("tlb_dead_fills"),
            "default-policy runs must serialize without policy keys: {j}"
        );
        assert!(!s.to_string().contains("policy:"));
    }

    #[test]
    fn policy_block_round_trips() {
        let mut s = SimStats {
            cycles: 10,
            tlb_dead_fills: 14,
            prefetch_issued: 9,
            prefetch_useful: 4,
            prefetch_late: 2,
            prefetch_evicted: 2,
            prefetch_in_flight: 1,
            ..SimStats::default()
        };
        s.walk.record(1, 1);
        let j = s.to_json();
        assert!(j.contains("\"tlb_dead_fills\":14"));
        assert!(j.contains("\"prefetch_issued\":9"));
        let parsed = SimStats::from_json(&j).expect("parse");
        assert_eq!(parsed.prefetch_issued, 9);
        assert_eq!(parsed.tlb_dead_fills, 14);
        assert_eq!(parsed.to_json(), j, "round trip must be byte-identical");
        assert!(s
            .to_string()
            .contains("policy: 14 dead fills | prefetch 9 issued"));
    }

    #[test]
    fn tenant_block_omitted_when_inert() {
        let s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        let j = s.to_json();
        assert!(
            !j.contains("tenant") && !j.contains("fairness"),
            "single-tenant runs must serialize without tenant keys: {j}"
        );
        assert!(!s.to_string().contains("tenants:"));
        assert!((s.fairness_index() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tenant_block_round_trips() {
        let mut s = SimStats {
            cycles: 1000,
            instructions: 900,
            ..SimStats::default()
        };
        s.l2_tlb.shared_joins = 7;
        s.tenants.push(TenantStats {
            instructions: 600,
            loads: 120,
            cycles: 1000,
            fresh_l2_misses: 30,
            walks: 25,
        });
        s.tenants.push(TenantStats {
            instructions: 300,
            loads: 60,
            cycles: 900,
            fresh_l2_misses: 90,
            walks: 70,
        });
        let j = s.to_json();
        assert!(j.contains("\"tenant_count\":2"));
        assert!(j.contains("\"tenant0_instructions\":600"));
        assert!(j.contains("\"tenant1_walks\":70"));
        assert!(j.contains("\"l2_tlb_shared_joins\":7"));
        let parsed = SimStats::from_json(&j).expect("parse");
        assert_eq!(parsed.tenants, s.tenants);
        assert_eq!(parsed.l2_tlb.shared_joins, 7);
        assert_eq!(parsed.to_json(), j, "round trip must be byte-identical");
        let text = s.to_string();
        assert!(text.contains("tenants: 2"));
        assert!(text.contains("tenant 0: instr 600"));
    }

    #[test]
    fn fairness_index_is_jain() {
        let mut s = SimStats::default();
        // Two tenants at identical IPC: perfectly fair.
        for _ in 0..2 {
            s.tenants.push(TenantStats {
                instructions: 500,
                cycles: 1000,
                ..TenantStats::default()
            });
        }
        assert!((s.fairness_index() - 1.0).abs() < 1e-12);
        // One tenant starved entirely: Jain's index for (x, 0) is 1/2.
        s.tenants[1].instructions = 0;
        assert!((s.fairness_index() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn silent_corruption_keys_round_trip() {
        let mut s = SimStats {
            cycles: 10,
            ..SimStats::default()
        };
        s.fault.injected_silent_corruptions = 9;
        s.fault.detected_silent_corruptions = 9;
        s.fault.recovered_injections = 9;
        let j = s.to_json();
        assert!(j.contains("\"fault_silent_corruptions_injected\":9"));
        assert!(j.contains("\"fault_silent_corruptions_detected\":9"));
        let parsed = SimStats::from_json(&j).expect("parse");
        assert_eq!(parsed.fault, s.fault);
        assert_eq!(parsed.to_json(), j);
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(SimStats::from_json("").is_err());
        assert!(SimStats::from_json("[1,2]").is_err());
        assert!(SimStats::from_json("{\"cycles\":abc}").is_err());
        assert!(SimStats::from_json("{cycles:1}").is_err());
    }

    #[test]
    fn from_json_ignores_unknown_and_derived_keys() {
        let s = SimStats::from_json(
            "{\"cycles\":10,\"instructions\":20,\"ipc\":99.0,\"future_field\":7}",
        )
        .expect("parse");
        assert_eq!(s.cycles, 10);
        assert_eq!(s.instructions, 20);
        // ipc is derived, never trusted from input.
        assert!((s.ipc() - 2.0).abs() < 1e-12);
    }
}
