//! Full-system simulation statistics.

use softwalker::{DistributorStats, PwWarpStats};
use std::fmt::{self, Write as _};
use swgpu_mem::{CacheStats, DramStats};
use swgpu_obs::json::{self, Value};
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
        let total = self.queue_cycles.saturating_add(self.access_cycles);
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
    /// cycles + 1` (cycle 0 is always executed): the "kernel tiling" law
    /// of [`SimStats::check_ledgers`].
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
    /// plus resident entries never touched. Closes the "prefetch" law
    /// `issued == useful + late + evicted + in_flight` of
    /// [`SimStats::check_ledgers`].
    pub prefetch_in_flight: u64,
    /// Per-tenant metric slices, indexed by ASID. Empty — and omitted
    /// from the JSON — on single-tenant runs, preserving the byte-
    /// identity contract for existing artifacts.
    pub tenants: Vec<TenantStats>,
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
        self.sm
            .mem_stall_cycles
            .saturating_add(self.sm.scoreboard_stall_cycles)
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

/// One `key value` line for each key [`SimStats::to_json`] writes, in
/// the same order and with the same value token (`null` for a
/// non-finite float), without a trailing newline: two runs compare line
/// by line with `diff`.
impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        self.each_key(|key, value| {
            if !std::mem::take(&mut first) {
                f.write_char('\n')?;
            }
            write!(f, "{key} {value}")
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The text view is the JSON object one member a line: `k v` for
    /// `"k":v`, in the same order, with nothing missing.
    #[test]
    fn display_lines_are_the_json_members() {
        // Every gated block live, two tenants, and a `null` float.
        let mut live = super::ledger_tests::balanced();
        live.dram_utilization = f64::NAN;
        for s in [SimStats::default(), live] {
            let (text, j) = (s.to_string(), s.to_json());
            assert!(!text.ends_with('\n'), "Display must not trail a newline");
            let members: Vec<String> = text
                .lines()
                .map(|line| {
                    let (k, v) = line.split_once(' ').expect("a `key value` line");
                    format!("\"{k}\":{v}")
                })
                .collect();
            assert_eq!(format!("{{{}}}", members.join(",")), j);
            let keys = json::parse(&j).unwrap().as_obj().unwrap().len();
            assert_eq!(members.len(), keys);
        }
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

/// Which block of the stats object a row belongs to. Every block but
/// `Always` is written only while its gate is live, so runs that never
/// arm a feature serialize byte-identically to artifacts written before
/// the feature existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    Always,
    Fault,
    Mm,
    Policy,
    MmFault,
    Tenant,
}

impl Block {
    /// Whether the block's keys are written for `s`: any of its stored
    /// counters is nonzero. The tenant block is gated by its sub-table
    /// alone (shared joins only occur between tenants).
    fn live(self, s: &SimStats) -> bool {
        match self {
            Block::Always => true,
            Block::Tenant => !s.tenants.is_empty(),
            _ => ROWS.iter().any(|row| {
                row.block == self && matches!(row.kind, Kind::Int(get, Some(_)) if get(s) != 0)
            }),
        }
    }
}

/// How a row's value is written and read back. A row without a setter
/// is derived from the stored counters: written, ignored on input.
enum Kind {
    /// An integer, written straight from `u64`; a stored one reads back
    /// only from a JSON unsigned integer.
    Int(fn(&SimStats) -> u64, Option<fn(&mut SimStats, u64)>),
    /// A float in shortest round-trip form, `null` when not finite; a
    /// stored one reads `null` back as NaN.
    Float(fn(&SimStats) -> f64, Option<fn(&mut SimStats, f64)>),
    /// The tenant count: sizes the per-tenant sub-table ([`TENANT_ROWS`])
    /// whose `tenant{i}_*` keys close the tenant block.
    Tenants,
}

/// One serialized key of the stats object.
struct Row {
    key: &'static str,
    block: Block,
    kind: Kind,
}

/// A stored counter at a field path.
macro_rules! int {
    ($($f:ident).+) => {
        Kind::Int(|s| s.$($f).+, Some(|s, v| s.$($f).+ = v))
    };
}

/// A stored `bool`, written as 0/1.
macro_rules! flag {
    ($f:ident) => {
        Kind::Int(|s| u64::from(s.$f), Some(|s, v| s.$f = v != 0))
    };
}

/// The one stored float.
macro_rules! float {
    ($f:ident) => {
        Kind::Float(|s| s.$f, Some(|s, v| s.$f = v))
    };
}

/// A derived integer (a sum of counters).
macro_rules! total {
    ($($t:tt)+) => {
        Kind::Int(|s| s.$($t)+, None)
    };
}

/// A derived rate or average.
macro_rules! rate {
    ($($t:tt)+) => {
        Kind::Float(|s| s.$($t)+, None)
    };
}

/// The tenant count.
macro_rules! tenants {
    ($($t:tt)+) => {
        Kind::Tenants
    };
}

/// Declares [`ROWS`] block by block, in serialization order: each row
/// is a key, a kind, and the `SimStats` field path (or method) its value
/// comes from.
macro_rules! counter_table {
    ($($block:ident { $($key:literal => $kind:ident($($path:tt)+),)* })*) => {
        static ROWS: &[Row] = &[$($(Row {
            key: $key,
            block: Block::$block,
            kind: $kind!($($path)+),
        },)*)*];
    };
}

// The stats object's keys, in order. Adding a counter means adding one
// row here: both directions of the JSON and the text view follow from it.
counter_table! {
    Always {
        "cycles" => int(cycles),
        "timed_out" => flag(timed_out),
        "instructions" => int(instructions),
        "loads" => int(loads),
        "ipc" => rate(ipc()),
        "l2_tlb_mpki" => rate(l2_tlb_mpki()),
        "fresh_l2_misses" => int(fresh_l2_misses),
        "walks" => int(walk.translations),
        "hw_walks" => int(hw_walks),
        "sw_walks" => int(sw_walks),
        "avg_walk_queue_cycles" => rate(walk.avg_queue()),
        "avg_walk_access_cycles" => rate(walk.avg_access()),
        "walk_queue_fraction" => rate(walk.queue_fraction()),
        "l2_mshr_failures" => int(l2_mshr_failure_events),
        "in_tlb_allocations" => int(in_tlb.in_tlb_allocations),
        "stall_cycles" => total(stall_cycles()),
        "issued_cycles" => int(sm.issued_cycles),
        "pw_issue_cycles" => int(sm.pw_issue_cycles),
        "mem_stall_cycles" => int(sm.mem_stall_cycles),
        "scoreboard_stall_cycles" => int(sm.scoreboard_stall_cycles),
        "idle_cycles" => int(sm.idle_cycles),
        "l1_tlb_hit_rate" => rate(l1_tlb.hit_rate()),
        "l2_tlb_hit_rate" => rate(l2_tlb.hit_rate()),
        "l1d_miss_rate" => rate(l1d.miss_rate()),
        "l2d_miss_rate" => rate(l2d.miss_rate()),
        "dram_utilization" => float(dram_utilization),
        "pwc_hits" => int(pwc_hits),
        "pwc_misses" => int(pwc_misses),
        "faults" => int(faults),
        "walk_queue_cycles" => int(walk.queue_cycles),
        "walk_access_cycles" => int(walk.access_cycles),
        "l1_tlb_hits" => int(l1_tlb.hits),
        "l1_tlb_misses" => int(l1_tlb.misses),
        "l1_tlb_fills" => int(l1_tlb.fills),
        "l1_tlb_evictions" => int(l1_tlb.evictions),
        "l2_tlb_hits" => int(l2_tlb.hits),
        "l2_tlb_misses" => int(l2_tlb.misses),
        "l2_tlb_fills" => int(l2_tlb.fills),
        "l2_tlb_evictions" => int(l2_tlb.evictions),
        "l1d_accesses" => int(l1d.accesses),
        "l1d_hits" => int(l1d.hits),
        "l1d_misses" => int(l1d.misses),
        "l1d_merges" => int(l1d.merges),
        "l1d_mshr_failures" => int(l1d.mshr_failures),
        "l1d_evictions" => int(l1d.evictions),
        "l2d_accesses" => int(l2d.accesses),
        "l2d_hits" => int(l2d.hits),
        "l2d_misses" => int(l2d.misses),
        "l2d_merges" => int(l2d.merges),
        "l2d_mshr_failures" => int(l2d.mshr_failures),
        "l2d_evictions" => int(l2d.evictions),
        "dram_requests" => int(dram.requests),
        "dram_busy_cycles" => int(dram.busy_cycles),
        "sm_l1_mshr_failures" => int(sm.l1_mshr_failures),
        "sm_xlat_faults" => int(sm.xlat_faults),
        "in_tlb_merges" => int(in_tlb.in_tlb_merges),
        "in_tlb_dedicated_rejections" => int(in_tlb.dedicated_rejections),
        "in_tlb_total_failures" => int(in_tlb.total_failures),
        "kernel_steps" => int(kernel_steps),
        "kernel_cycles_skipped" => int(kernel_cycles_skipped),
    }
    Fault {
        "fault_injected_pte_corruptions" => int(fault.injected_pte_corruptions),
        "fault_injected_mem_drops" => int(fault.injected_mem_drops),
        "fault_injected_mem_delays" => int(fault.injected_mem_delays),
        "fault_injected_stuck_threads" => int(fault.injected_stuck_threads),
        "fault_recovered_injections" => int(fault.recovered_injections),
        "fault_escalated_injections" => int(fault.escalated_injections),
        "fault_watchdog_timeouts" => int(fault.watchdog_timeouts),
        "fault_walk_retries" => int(fault.walk_retries),
        "fault_escalations" => int(fault.fault_escalations),
        "fault_replays" => int(fault.fault_replays),
        "fault_unrecoverable" => int(fault.unrecoverable_faults),
        "fault_buffer_overflow_drops" => int(fault.fault_buffer_overflow_drops),
        "fault_silent_corruptions_injected" => int(fault.injected_silent_corruptions),
        "fault_silent_corruptions_detected" => int(fault.detected_silent_corruptions),
    }
    Mm {
        "fault_major_faults" => int(mm.major_faults),
        "fault_major_replays" => int(mm.major_replays),
        "mm_sw_fill_replays" => int(mm.sw_fill_replays),
        "mm_evictions" => int(mm.evictions),
        "mm_coalesces_64k" => int(mm.coalesces_64k),
        "mm_coalesces_2m" => int(mm.coalesces_2m),
        "mm_splinters" => int(mm.splinters),
        "mm_resident_peak" => int(mm.resident_peak),
    }
    Policy {
        "tlb_dead_fills" => int(tlb_dead_fills),
        "prefetch_issued" => int(prefetch_issued),
        "prefetch_useful" => int(prefetch_useful),
        "prefetch_late" => int(prefetch_late),
        "prefetch_evicted" => int(prefetch_evicted),
        "prefetch_in_flight" => int(prefetch_in_flight),
    }
    MmFault {
        "mm_fault_injected_fill_drops" => int(mm_fault.injected_fill_drops),
        "mm_fault_injected_fill_delays" => int(mm_fault.injected_fill_delays),
        "mm_fault_injected_fill_duplicates" => int(mm_fault.injected_fill_duplicates),
        "mm_fault_injected_fill_corruptions" => int(mm_fault.injected_fill_corruptions),
        "mm_fault_injected_shootdown_drops" => int(mm_fault.injected_shootdown_drops),
        "mm_fault_injected_driver_stalls" => int(mm_fault.injected_driver_stalls),
        "data_corruptions_detected" => int(mm_fault.detected_corruptions),
        "data_stale_hits_detected" => int(mm_fault.detected_stale_hits),
        "mm_fault_recovered_fills" => int(mm_fault.recovered_fills),
        "mm_fault_escalated_fills" => int(mm_fault.escalated_fills),
        "mm_fault_retired_fills" => int(mm_fault.retired_fills),
        "mm_fault_frames_retired" => int(mm_fault.frames_retired),
        "mm_fault_fill_watchdog_timeouts" => int(mm_fault.fill_watchdog_timeouts),
        "mm_fault_fill_retries" => int(mm_fault.fill_retries),
    }
    Tenant {
        "tenant_count" => tenants(tenants.len()),
        "fairness_index" => rate(fairness_index()),
        "l2_tlb_shared_joins" => int(l2_tlb.shared_joins),
    }
}

/// A per-tenant counter: key suffix of `tenant{i}_<suffix>`, and its
/// [`TenantStats`] field.
type TenantRow = (
    &'static str,
    fn(&TenantStats) -> u64,
    fn(&mut TenantStats, u64),
);

/// Per-tenant rows from [`TenantStats`] field names, which double as
/// the key suffixes.
macro_rules! tenant_rows {
    ($($f:ident),*) => {
        &[$((stringify!($f), |t| t.$f, |t, v| t.$f = v)),*]
    };
}

/// The per-tenant sub-table, written for each tenant in ASID order.
static TENANT_ROWS: &[TenantRow] =
    tenant_rows!(instructions, loads, cycles, fresh_l2_misses, walks);

/// When a [`Ledger`] must balance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Closes {
    /// At any stopping point, a timed-out run included: both sides move
    /// at the same event.
    Anytime,
    /// Only on a drained run (`timed_out == false`): work still in
    /// flight at the cycle cap sits on one side alone.
    Drained,
}

/// A conservation law over the stored counters: its two sides are equal.
/// A feature that is off leaves both sides at zero, so the law holds
/// trivially and needs no gate.
struct Ledger {
    name: &'static str,
    closes: Closes,
    sides: fn(&SimStats) -> (u64, u64),
}

// The simulator's conservation laws, each written once. Checked by
// `SimStats::check_ledgers` at the end of every simulation (debug
// builds) and before the experiment runner persists a result.
static LEDGERS: &[Ledger] = &[
    Ledger {
        // Every cycle is executed or skipped; cycle 0 always executes.
        name: "kernel tiling",
        closes: Closes::Anytime,
        sides: |s| (s.kernel_steps + s.kernel_cycles_skipped, s.cycles + 1),
    },
    Ledger {
        // Every injected walk fault is recovered in place or escalated.
        name: "walk recovery",
        closes: Closes::Drained,
        sides: |s| {
            let f = &s.fault;
            (
                f.injected_total(),
                f.recovered_injections + f.escalated_injections,
            )
        },
    },
    Ledger {
        // The parity check catches every valid-but-wrong PTE at decode.
        name: "silent corruption",
        closes: Closes::Anytime,
        sides: |s| {
            let f = &s.fault;
            (f.injected_silent_corruptions, f.detected_silent_corruptions)
        },
    },
    Ledger {
        // Every data-path injection is recovered, escalated or resolved
        // by retiring its frame.
        name: "data path",
        closes: Closes::Drained,
        sides: |s| {
            let f = &s.mm_fault;
            let resolved = f.recovered_fills + f.escalated_fills + f.retired_fills;
            (f.injected_conserved(), resolved)
        },
    },
    Ledger {
        // The end-to-end checksum catches every corrupted fill payload.
        name: "fill corruption",
        closes: Closes::Drained,
        sides: |s| {
            let f = &s.mm_fault;
            (f.injected_fill_corruptions, f.detected_corruptions)
        },
    },
    Ledger {
        // Every serviced first-touch fault is replayed.
        name: "paging",
        closes: Closes::Drained,
        sides: |s| (s.mm.major_faults, s.mm.major_replays),
    },
    Ledger {
        // Every issued prefetch is useful, late, evicted or in flight.
        name: "prefetch",
        closes: Closes::Anytime,
        sides: |s| {
            let fate = s.prefetch_useful + s.prefetch_late + s.prefetch_evicted;
            (s.prefetch_issued, fate + s.prefetch_in_flight)
        },
    },
    Ledger {
        // Every completed walk is charged to exactly one tenant.
        // Single-tenant runs keep no slices, so both sides read 0.
        name: "tenant walks",
        closes: Closes::Anytime,
        sides: |s| {
            let charged = s.tenants.iter().map(|t| t.walks).sum();
            let walks = if s.tenants.is_empty() {
                0
            } else {
                s.walk.translations
            };
            (charged, walks)
        },
    },
];

impl Row {
    /// Hands `with` the row's value token for `s`: the integer, or the
    /// float in shortest round-trip form (`null` when not finite).
    fn with_value<R>(&self, s: &SimStats, with: impl FnOnce(&dyn fmt::Display) -> R) -> R {
        match self.kind {
            Kind::Int(get, _) => with(&get(s)),
            Kind::Tenants => with(&s.tenants.len()),
            Kind::Float(get, _) => match get(s) {
                v if v.is_finite() => with(&v),
                _ => with(&"null"),
            },
        }
    }
}

/// Error for an input value that cannot be stored under `key`.
fn reject(key: &str, expected: &str, v: &Value) -> String {
    format!("stats key {key:?}: expected {expected}, got {v:?}")
}

/// Reads the unsigned integer stored under `key`.
fn uint(key: &str, v: &Value) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| reject(key, "an unsigned integer", v))
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
    /// Counters are written exactly, at any magnitude.
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
        let mut out = String::with_capacity(4096);
        out.push('{');
        let _ = self.each_key(|key, value| {
            if out.len() > 1 {
                out.push(',');
            }
            write!(out, "\"{key}\":{value}")
        });
        out.push('}');
        out
    }

    /// Calls `emit` with each key of the stats object and its value, in
    /// order: the rows of every live block, then the per-tenant
    /// sub-table ([`TENANT_ROWS`]) of each tenant as `tenant{i}_<suffix>`.
    /// The JSON and the text view are both written from this walk.
    fn each_key(
        &self,
        mut emit: impl FnMut(&dyn fmt::Display, &dyn fmt::Display) -> fmt::Result,
    ) -> fmt::Result {
        let (mut block, mut live) = (Block::Always, true);
        for row in ROWS {
            if row.block != block {
                (block, live) = (row.block, row.block.live(self));
            }
            if live {
                row.with_value(self, |value| emit(&row.key, value))?;
            }
        }
        // The per-tenant sub-table closes the tenant block, the last one.
        for (i, t) in self.tenants.iter().enumerate() {
            for (suffix, get, _) in TENANT_ROWS {
                emit(&format_args!("tenant{i}_{suffix}"), &get(t))?;
            }
        }
        Ok(())
    }

    /// Parses a flat JSON object produced by [`SimStats::to_json`] back
    /// into a `SimStats`.
    ///
    /// Derived metrics (`ipc`, hit rates, averages) are ignored on input
    /// and recomputed from the raw counters, so the round trip
    /// `SimStats::from_json(&s.to_json())?.to_json() == s.to_json()`
    /// holds exactly. Fields that are not serialized (per-structure
    /// sub-statistics like the PW Warp breakdown, and the obs report)
    /// come back as their defaults, as do the keys of blocks that were
    /// not written.
    ///
    /// Unknown keys are ignored so older artifacts stay readable after
    /// the schema gains fields.
    ///
    /// # Errors
    ///
    /// Returns a description of the problem if `json` is not a JSON
    /// object, or if a stored counter's value is anything but an unsigned
    /// integer that fits in `u64` (the message names the key).
    pub fn from_json(json: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(json).map_err(|e| e.to_string())?)
    }

    /// [`SimStats::from_json`] over an already-parsed value, e.g. the
    /// `stats` member of a run artifact.
    ///
    /// # Errors
    ///
    /// As for [`SimStats::from_json`].
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let fields = value
            .as_obj()
            .ok_or_else(|| "stats is not a JSON object".to_string())?;
        let map: swgpu_types::FastMap<&str, &Value> =
            fields.iter().map(|(k, v)| (k.as_str(), v)).collect();
        let mut s = SimStats::default();
        for row in ROWS {
            let Some(&v) = map.get(row.key) else { continue };
            match row.kind {
                Kind::Int(_, Some(set)) => set(&mut s, uint(row.key, v)?),
                Kind::Float(_, Some(set)) => {
                    let x = match v {
                        Value::Null => f64::NAN,
                        _ => v.as_f64().ok_or_else(|| reject(row.key, "a number", v))?,
                    };
                    set(&mut s, x);
                }
                Kind::Tenants => {
                    // Each tenant writes its own keys, so a count beyond
                    // the object's size is corrupt (and never allocated).
                    let n = uint(row.key, v)?;
                    if n > fields.len() as u64 {
                        return Err(reject(row.key, "no more tenants than keys", v));
                    }
                    s.tenants = vec![TenantStats::default(); n as usize];
                }
                Kind::Int(_, None) | Kind::Float(_, None) => {}
            }
        }
        for (i, t) in s.tenants.iter_mut().enumerate() {
            for (suffix, _, set) in TENANT_ROWS {
                let key = format!("tenant{i}_{suffix}");
                if let Some(v) = map.get(key.as_str()) {
                    set(t, uint(&key, v)?);
                }
            }
        }
        Ok(s)
    }

    /// Checks the conservation laws of the `LEDGERS` table (kernel
    /// tiling, walk recovery, silent corruption, data path, fill
    /// corruption, paging, prefetch, tenant walks): every law on a
    /// drained run, the ones that close at any stopping point on a
    /// timed-out one.
    ///
    /// # Errors
    ///
    /// One line per broken law: its name and its two sides.
    ///
    /// # Example
    ///
    /// ```
    /// use swgpu_sim::SimStats;
    /// let mut s = SimStats::default();
    /// s.kernel_steps = 1;
    /// assert_eq!(s.check_ledgers(), Ok(()));
    /// s.mm.major_faults = 1;
    /// assert_eq!(s.check_ledgers(), Err(vec!["paging: 1 != 0".to_string()]));
    /// ```
    pub fn check_ledgers(&self) -> Result<(), Vec<String>> {
        let broken: Vec<String> = LEDGERS
            .iter()
            .filter(|l| l.closes == Closes::Anytime || !self.timed_out)
            .filter_map(|l| {
                let (lhs, rhs) = (l.sides)(self);
                (lhs != rhs).then(|| format!("{}: {lhs} != {rhs}", l.name))
            })
            .collect();
        if broken.is_empty() {
            Ok(())
        } else {
            Err(broken)
        }
    }
}

#[cfg(test)]
mod ledger_tests {
    use super::*;

    /// A drained run on which every law balances with both sides nonzero.
    pub(super) fn balanced() -> SimStats {
        let mut s = SimStats {
            cycles: 99,
            kernel_steps: 40,
            kernel_cycles_skipped: 60,
            prefetch_issued: 10,
            prefetch_useful: 4,
            prefetch_late: 3,
            prefetch_evicted: 2,
            prefetch_in_flight: 1,
            ..SimStats::default()
        };
        s.fault.injected_pte_corruptions = 3;
        s.fault.injected_silent_corruptions = 2;
        s.fault.detected_silent_corruptions = 2;
        s.fault.recovered_injections = 4;
        s.fault.escalated_injections = 1;
        s.mm_fault.injected_fill_drops = 2;
        s.mm_fault.injected_fill_corruptions = 3;
        s.mm_fault.detected_corruptions = 3;
        s.mm_fault.recovered_fills = 3;
        s.mm_fault.escalated_fills = 1;
        s.mm_fault.retired_fills = 1;
        s.mm.major_faults = 7;
        s.mm.major_replays = 7;
        s.walk.record(5, 5);
        s.walk.record(5, 5);
        s.walk.record(5, 5);
        for walks in [1, 2] {
            s.tenants.push(TenantStats {
                walks,
                ..TenantStats::default()
            });
        }
        s
    }

    /// A law's name, and an increment to a counter on one of its sides.
    type Bump = (&'static str, fn(&mut SimStats));

    /// One counter per law that sits on that law's side alone.
    const BUMPS: [Bump; 8] = [
        ("kernel tiling", |s| s.kernel_steps += 1),
        ("walk recovery", |s| s.fault.recovered_injections += 1),
        ("silent corruption", |s| {
            s.fault.detected_silent_corruptions += 1
        }),
        ("data path", |s| s.mm_fault.retired_fills += 1),
        ("fill corruption", |s| s.mm_fault.detected_corruptions += 1),
        ("paging", |s| s.mm.major_replays += 1),
        ("prefetch", |s| s.prefetch_late += 1),
        ("tenant walks", |s| s.tenants[0].walks += 1),
    ];

    #[test]
    fn each_broken_law_is_named_alone() {
        let names: Vec<&str> = LEDGERS.iter().map(|l| l.name).collect();
        let bumped: Vec<&str> = BUMPS.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, bumped, "every law needs exactly one bump");
        assert_eq!(balanced().check_ledgers(), Ok(()));
        for (name, bump) in BUMPS {
            let mut s = balanced();
            bump(&mut s);
            let broken = s.check_ledgers().expect_err(name);
            assert_eq!(broken.len(), 1, "{broken:?}");
            assert!(broken[0].starts_with(&format!("{name}: ")), "{broken:?}");
        }
    }

    #[test]
    fn timed_out_runs_skip_the_drain_only_laws() {
        for (name, bump) in BUMPS {
            let mut s = balanced();
            s.timed_out = true;
            bump(&mut s);
            let closes = LEDGERS.iter().find(|l| l.name == name).unwrap().closes;
            assert_eq!(
                s.check_ledgers().is_err(),
                closes == Closes::Anytime,
                "{name}"
            );
        }
    }

    #[test]
    fn features_left_off_balance_trivially() {
        // A default value is a run of zero cycles that executed cycle 0;
        // single-tenant walks are not charged to any tenant slice.
        let mut s = SimStats {
            kernel_steps: 1,
            ..SimStats::default()
        };
        s.walk.record(1, 1);
        assert_eq!(s.check_ledgers(), Ok(()));
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
        // Every key unique, every value a number.
        let root = json::parse(&j).expect("valid JSON");
        let fields = root.as_obj().expect("an object");
        let unique: swgpu_types::FastSet<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(unique.len(), fields.len(), "duplicate JSON keys in {j}");
        assert!(fields.iter().all(|(_, v)| v.as_f64().is_some()));
        assert!(fields.len() >= 25);
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
        // Counters beyond f64's 53-bit mantissa come back exactly.
        s.l2d.mshr_failures = (1 << 53) + 1;
        s.kernel_steps = u64::MAX;
        let j = s.to_json();
        assert!(j.contains("\"l2d_mshr_failures\":9007199254740993"), "{j}");
        let parsed = SimStats::from_json(&j).expect("parse");
        assert_eq!(parsed.to_json(), j, "round trip must be byte-identical");
        assert_eq!(parsed.cycles, s.cycles);
        assert_eq!(parsed.walk.queue_cycles, s.walk.queue_cycles);
        assert_eq!(parsed.l2d.mshr_failures, (1 << 53) + 1);
        assert_eq!(parsed.kernel_steps, u64::MAX);
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
        assert!(!s.to_string().contains("fault_"));
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
        assert!(s
            .to_string()
            .contains("\nfault_injected_pte_corruptions 5\n"));
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
        assert!(!s.to_string().contains("mm_"));
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
        assert!(s.to_string().contains("\nfault_major_faults 40\n"));
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
        assert!(!s.to_string().contains("mm_fault_"));
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
        assert!(s.to_string().contains("\nmm_fault_injected_fill_drops 6\n"));
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
        assert!(!s.to_string().contains("prefetch_"));
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
        assert!(s.to_string().contains("\nprefetch_issued 9\n"));
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
        assert!(!s.to_string().contains("tenant"));
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
        assert!(text.contains("\ntenant_count 2\n"));
        assert!(text.ends_with("\ntenant1_walks 70"));
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
        // A stored counter takes only an unsigned integer that fits in
        // u64; anything else is an error naming the key, never a silent
        // truncation.
        for key in ["cycles", "l2d_mshr_failures", "tenant_count"] {
            for bad in [
                "-1",
                "1.5",
                "null",
                "1e300",
                "\"7\"",
                "18446744073709551616",
            ] {
                let err = SimStats::from_json(&format!("{{\"{key}\":{bad}}}"))
                    .expect_err(&format!("{key}: {bad} must be rejected"));
                assert!(err.contains(key), "{err:?} does not name {key}");
            }
        }
        let err = SimStats::from_json("{\"tenant_count\":2,\"tenant1_walks\":-3}").unwrap_err();
        assert!(err.contains("tenant1_walks"), "{err:?}");
        // The stored float takes any number, but not a string.
        assert!(SimStats::from_json("{\"dram_utilization\":\"x\"}").is_err());
        // A tenant count the object cannot back is corrupt, not a huge
        // allocation.
        assert!(SimStats::from_json("{\"tenant_count\":1000000000000}").is_err());
    }

    #[test]
    fn from_json_ignores_unknown_and_derived_keys() {
        let s = SimStats::from_json(
            "{\"cycles\":10,\"instructions\":20,\"ipc\":99.0,\"future_field\":7,\
             \"l2_tlb_mpki\":null,\"stall_cycles\":-1}",
        )
        .expect("parse");
        assert_eq!(s.cycles, 10);
        assert_eq!(s.instructions, 20);
        // ipc is derived, never trusted from input.
        assert!((s.ipc() - 2.0).abs() < 1e-12);
        // dram_utilization is the one stored float: null reads as NaN.
        let s = SimStats::from_json("{\"dram_utilization\":null}").expect("parse");
        assert!(s.dram_utilization.is_nan());
    }

    /// Random stats over the whole table — every stored row at a
    /// full-range value, 0–8 tenants, each gated block on or off — must
    /// come back field for field and byte for byte. A key written but
    /// never read fails here: either it is read under another name, or
    /// it is declared derived but moves with no stored counter.
    #[test]
    fn every_table_row_round_trips_exactly() {
        use proptest::prelude::Strategy;
        let written = |row: &Row, s: &SimStats| row.with_value(s, |v| v.to_string());
        let mut derived_moved: Vec<bool> = ROWS
            .iter()
            .map(|r| !matches!(r.kind, Kind::Int(_, None) | Kind::Float(_, None)))
            .collect();
        let gated = [
            Block::Fault,
            Block::Mm,
            Block::Policy,
            Block::MmFault,
            Block::Tenant,
        ];
        for case in 0..256 {
            let mut rng = proptest::case_rng("every_table_row_round_trips_exactly", case);
            let mut draw = |hi: u64| (0..=hi).new_value(&mut rng);
            let tenants = draw(8) as usize;
            let on: Vec<Block> = gated
                .into_iter()
                .filter(|&b| {
                    if b == Block::Tenant {
                        tenants > 0
                    } else {
                        draw(1) == 1
                    }
                })
                .collect();
            let mut s = SimStats::default();
            for row in ROWS
                .iter()
                .filter(|r| r.block == Block::Always || on.contains(&r.block))
            {
                match row.kind {
                    Kind::Int(_, Some(set)) => set(&mut s, draw(u64::MAX)),
                    Kind::Float(_, Some(set)) => {
                        let x = f64::from_bits(draw(u64::MAX));
                        set(&mut s, if x.is_finite() { x } else { 0.25 });
                    }
                    _ => {}
                }
            }
            for _ in 0..tenants {
                let mut t = TenantStats::default();
                for (_, _, set) in TENANT_ROWS {
                    set(&mut t, draw(u64::MAX));
                }
                s.tenants.push(t);
            }

            let j = s.to_json();
            let back = SimStats::from_json(&j).expect("parse");
            assert_eq!(back.to_json(), j, "case {case}: bytes changed");
            let root = json::parse(&j).expect("valid JSON");
            for row in ROWS {
                assert_eq!(
                    root.get(row.key).is_some(),
                    row.block.live(&s),
                    "case {case}: {} written outside its gate",
                    row.key
                );
                match row.kind {
                    Kind::Int(get, Some(_)) => {
                        assert_eq!(get(&back), get(&s), "case {case}: {}", row.key);
                    }
                    Kind::Float(get, Some(_)) => {
                        assert_eq!(get(&back).to_bits(), get(&s).to_bits(), "{}", row.key);
                    }
                    _ => {}
                }
            }
            assert_eq!(back.tenants, s.tenants, "case {case}: tenant sub-table");
            for (row, moved) in ROWS.iter().zip(&mut derived_moved) {
                *moved |= written(row, &s) != written(row, &SimStats::default());
            }
        }
        for (row, moved) in ROWS.iter().zip(derived_moved) {
            assert!(moved, "derived {} depends on no stored counter", row.key);
        }
    }
}
