//! The full-GPU cycle loop.

use crate::config::{GpuConfig, SharingPolicy, TenantsConfig, TranslationMode};
use crate::stats::SimStats;
use softwalker::{
    DistributorPolicy, FaultBuffer, FaultRecord, PwWarpUnit, RequestDistributor, SwWalkRequest,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use swgpu_mem::{AccessOutcome, Cache, Dram, Issuer, MemReq, PhysMem};
use swgpu_obs::{
    BusyTracker, CounterId, HistId, ObsReport, Registry, SeriesId, Span, SpanKind, SpanRecorder,
    SwtbStream,
};
use swgpu_pt::{AddressSpace, FrameCheck, HashedPageTable, MemoryManager, PageWalkCache};
use swgpu_ptw::{PtwSubsystem, TableRef, WalkContext, WalkOwner, WalkRequest};
use swgpu_sm::{InstrSource, Sm, SmConfig, WarpInstr};
use swgpu_tlb::{L2MissOutcome, L2TlbComplex};
use swgpu_types::WarpId;
use swgpu_types::{
    fault::site, Asid, Component, Cycle, FastMap, FaultInjectionStats, FaultInjector, IdGen,
    MmFaultStats, Pfn, Port, PteReadEvent, SmId, VirtAddr, Vpn,
};

/// The L2 MSHR meta a translation prefetch registers as its "waiter".
/// No SM has this id; [`GpuSimulator::finish_translation`] filters it
/// from the waiter list instead of delivering a translation to it.
const PREFETCH_REQUESTER: SmId = SmId::new(u16::MAX);

/// An L2 TLB request waiting for MSHR capacity.
#[derive(Debug, Clone, Copy)]
struct PendingL2 {
    sm: SmId,
    warp: WarpId,
    vpn: Vpn,
    first_seen: Cycle,
    counted_failure: bool,
}

/// One request in the simulated UVM driver's service queue: the owning
/// tenant, the faulted VPN, the cycle the walk was originally issued,
/// how many injected service stalls this request has already absorbed,
/// and whether it is a re-fill of a page quarantined by checksum
/// verification.
#[derive(Debug, Clone, Copy)]
struct DriverReq {
    asid: Asid,
    vpn: Vpn,
    issued_at: Cycle,
    stalls: u32,
    refill: bool,
}

/// Per-VPN state of an in-flight demand-paging fill replay. The
/// generation ties watchdogs to one specific fill (a watchdog armed for
/// an earlier fill of the same page must not fire into a later one);
/// `drop_pending` counts injected completion drops not yet resolved.
#[derive(Debug, Clone, Copy, Default)]
struct FillTracker {
    generation: u64,
    retries: u32,
    drop_pending: u64,
}

/// Timed self-messages of the demand-paging fault machinery: fill
/// watchdogs and artificially delayed replay deliveries.
#[derive(Debug, Clone, Copy)]
enum MmEvent {
    FillWatchdog {
        asid: Asid,
        vpn: Vpn,
        generation: u64,
    },
    DelayedReplay {
        asid: Asid,
        vpn: Vpn,
        issued_at: Cycle,
    },
}

/// Injectors for the four demand-paging data-path fault sites. Present
/// only when the plan arms a data-path rate *and* the memory manager is
/// on; `None` keeps the unfaulted path free of RNG draws entirely.
struct DataFaultState {
    fill_complete: FaultInjector,
    fill_payload: FaultInjector,
    shootdown: FaultInjector,
    driver_queue: FaultInjector,
}

/// Live observability instruments, allocated only when
/// [`swgpu_obs::ObsConfig::enabled`] is set. The simulator holds this
/// behind an `Option<Box<_>>` so a disabled run pays one pointer of
/// state and a handful of `is_some` branches — nothing else.
struct ObsState {
    reg: Registry,
    rec: SpanRecorder,
    /// Attached SWTB streaming sink, if any. With a stream the recorder
    /// runs in staging mode: full stagings flush here instead of
    /// dropping, and sample ticks emit instrument deltas.
    stream: Option<SwtbStream>,
    /// Per-SM PW-Warp issue-port busy coalescers.
    busy: Vec<BusyTracker>,
    /// Next cycle at which the time-series sample.
    next_sample: u64,
    interval: u64,
    // Histogram handles (walk-latency decomposition, per-SM stalls).
    h_walk_total: HistId,
    h_walk_queue: HistId,
    h_walk_access: HistId,
    h_sm_stall: HistId,
    // Counter handles.
    c_dispatches: CounterId,
    c_pte_reads: CounterId,
    c_driver_replays: CounterId,
    // Sampled-occupancy series handles.
    s_softpwb: SeriesId,
    s_pw_active: SeriesId,
    s_hw_pwb: SeriesId,
    s_hw_active: SeriesId,
    s_mshr_dedicated: SeriesId,
    s_mshr_in_tlb: SeriesId,
    s_mshr_overflow: SeriesId,
    s_dispatch_q: SeriesId,
}

impl ObsState {
    fn new(cfg: &swgpu_obs::ObsConfig, sms: usize) -> Self {
        let mut reg = Registry::new(cfg.sample_interval, cfg.series_capacity);
        let h_walk_total = reg.hist("walk_total_cycles");
        let h_walk_queue = reg.hist("walk_queue_cycles");
        let h_walk_access = reg.hist("walk_access_cycles");
        let h_sm_stall = reg.hist("sm_stall_cycles");
        let c_dispatches = reg.counter("distributor_dispatches");
        let c_pte_reads = reg.counter("pte_reads");
        let c_driver_replays = reg.counter("driver_replays");
        let s_softpwb = reg.series("softpwb_occupancy");
        let s_pw_active = reg.series("pw_active_walks");
        let s_hw_pwb = reg.series("hw_pwb_depth");
        let s_hw_active = reg.series("hw_active_walks");
        let s_mshr_dedicated = reg.series("l2_mshr_dedicated");
        let s_mshr_in_tlb = reg.series("l2_mshr_in_tlb");
        let s_mshr_overflow = reg.series("l2_mshr_overflow_waiting");
        let s_dispatch_q = reg.series("dispatch_queue_depth");
        Self {
            reg,
            rec: SpanRecorder::new(cfg.span_capacity),
            stream: None,
            busy: (0..sms).map(|i| BusyTracker::new(i as u32)).collect(),
            next_sample: 0,
            interval: cfg.sample_interval,
            h_walk_total,
            h_walk_queue,
            h_walk_access,
            h_sm_stall,
            c_dispatches,
            c_pte_reads,
            c_driver_replays,
            s_softpwb,
            s_pw_active,
            s_hw_pwb,
            s_hw_active,
            s_mshr_dedicated,
            s_mshr_in_tlb,
            s_mshr_overflow,
            s_dispatch_q,
        }
    }

    /// Routes every span through one choke point so the staging buffer
    /// can flush to the stream *exactly* when it reaches capacity. The
    /// flush trigger depends only on recorded span content — never on
    /// the kernel's step schedule — which is what keeps dense⇔event
    /// SWTB output byte-identical.
    fn push(&mut self, span: Span) {
        if self.rec.needs_flush() {
            if let Some(stream) = self.stream.as_mut() {
                stream
                    .flush_spans(&self.rec.take_staged())
                    .expect("SWTB trace sink write failed");
            }
        }
        self.rec.record(span);
    }

    /// Records a walker's drained PTE reads as `PteRead` instants on
    /// `track` (0 for the hardware PTWs, the SM index for a PW Warp).
    fn pte_reads(&mut self, track: u32, events: Vec<PteReadEvent>) {
        self.reg.inc(self.c_pte_reads, events.len() as u64);
        for e in events {
            let level = u64::from(e.level);
            self.instant(SpanKind::PteRead, track, e.at.value(), e.vpn.value(), level);
        }
    }

    fn instant(&mut self, kind: SpanKind, track: u32, at: u64, vpn: u64, aux: u64) {
        self.push(Span {
            kind,
            track,
            start: at,
            end: at,
            vpn,
            aux,
        });
    }

    fn span(&mut self, kind: SpanKind, track: u32, start: Cycle, end: Cycle, vpn: Vpn) {
        self.push(Span {
            kind,
            track,
            start: start.value(),
            end: end.value(),
            vpn: vpn.value(),
            aux: 0,
        });
    }
}

/// A live progress snapshot handed to a [`GpuSimulator::set_progress_hook`]
/// callback while the run loop executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// Simulated cycles so far.
    pub cycles: u64,
    /// Spans flushed to the attached SWTB sink (0 without a sink).
    pub spans_flushed: u64,
    /// Bytes the SWTB sink has absorbed (0 without a sink).
    pub trace_bytes: u64,
}

struct ProgressHook {
    every: u64,
    next: u64,
    hook: Box<dyn FnMut(RunProgress)>,
}

/// A physical memory image with the workload footprint already mapped.
///
/// Building one is deterministic in `(page_size, scrambled, footprint
/// bytes)`: the frame allocator and radix table insertions depend on
/// nothing else. The experiment runner exploits this by building the
/// image once per distinct footprint and handing each cell a clone via
/// [`GpuSimulator::new_with_prebuilt`].
#[derive(Debug, Clone)]
pub struct PrebuiltMemory {
    page_size: swgpu_types::PageSize,
    scrambled: bool,
    phys: PhysMem,
    space: AddressSpace,
}

impl PrebuiltMemory {
    /// Maps `footprint_bytes` of virtual address space starting at 0 into
    /// a fresh physical memory, exactly as
    /// [`GpuSimulator::new_with_footprint`] would.
    pub fn build(page_size: swgpu_types::PageSize, scrambled: bool, footprint_bytes: u64) -> Self {
        let mut phys = PhysMem::new();
        let mut space = if scrambled {
            AddressSpace::new_scrambled(page_size, &mut phys)
        } else {
            AddressSpace::new(page_size, &mut phys)
        };
        space.map_region(VirtAddr::new(0), footprint_bytes, &mut phys);
        Self {
            page_size,
            scrambled,
            phys,
            space,
        }
    }

    /// Number of pages the image has mapped.
    pub fn mapped_pages(&self) -> usize {
        self.space.mapped_pages()
    }
}

/// Routes each global SM to the owning tenant's instruction source.
///
/// Tenant workloads are built for their own SM partition (SM ids
/// `0..tenant_sms`), so the mux rewrites the global SM id to the
/// tenant-local one before forwarding. Warp ids pass through unchanged.
pub struct TenantMuxSource {
    sources: Vec<Box<dyn InstrSource>>,
    /// Global SM index → (tenant index, tenant-local SM id).
    map: Vec<(usize, SmId)>,
}

impl TenantMuxSource {
    /// Builds the mux from the tenant layout and one source per tenant,
    /// in ASID order.
    ///
    /// # Panics
    ///
    /// Panics if the source count does not match the tenant count.
    pub fn new(tenants: &TenantsConfig, sources: Vec<Box<dyn InstrSource>>) -> Self {
        assert_eq!(
            tenants.len(),
            sources.len(),
            "one instruction source per tenant"
        );
        let mut map = Vec::new();
        for i in 0..tenants.len() {
            for (local, _) in tenants.sm_range(i).enumerate() {
                map.push((i, SmId::new(local as u16)));
            }
        }
        Self { sources, map }
    }
}

impl InstrSource for TenantMuxSource {
    fn next_instr(&mut self, sm: SmId, warp: WarpId) -> Option<WarpInstr> {
        let (tenant, local) = self.map[sm.index()];
        self.sources[tenant].next_instr(local, warp)
    }

    fn peek_load_vpns(&self, sm: SmId, warp: WarpId, lookahead: u32) -> Vec<Vpn> {
        let (tenant, local) = self.map[sm.index()];
        self.sources[tenant].peek_load_vpns(local, warp, lookahead)
    }
}

/// The assembled GPU. See the crate-level example for usage; construct
/// with a configuration and a boxed workload, then [`GpuSimulator::run`].
pub struct GpuSimulator {
    cfg: GpuConfig,
    source: Box<dyn InstrSource>,
    sms: Vec<Sm>,
    pw_warps: Vec<PwWarpUnit>,
    l2: L2TlbComplex<SmId>,
    pwc: PageWalkCache,
    ptw: PtwSubsystem,
    l2d: Cache,
    dram: Dram,
    phys: PhysMem,
    // Per-tenant address spaces, indexed by ASID. Single-tenant runs
    // hold exactly one; sub-entry-sharing mode clones one shared space
    // into every slot so indexing stays uniform.
    spaces: Vec<AddressSpace>,
    hashed: Option<HashedPageTable>,
    // SM → tenant binding (all `Asid::ZERO` without a tenants config).
    sm_asids: Vec<Asid>,
    // Partitioned-policy dispatch masks: `tenant_masks[asid][sm]` is
    // true iff the SM belongs to the tenant. Empty in shared mode and
    // on single-tenant runs (empty mask = every SM eligible).
    tenant_masks: Vec<Vec<bool>>,
    // Shared-policy QoS: per-tenant cap on concurrently in-flight walks
    // (`None` disables gating entirely) and the live per-tenant count.
    qos_cap: Option<u32>,
    inflight_walks: Vec<u32>,
    // Per-tenant MPKI/fairness raw counters (always maintained, only
    // surfaced in the stats on multi-tenant runs).
    tenant_fresh_misses: Vec<u64>,
    tenant_walks: Vec<u64>,
    distributor: RequestDistributor,
    ids: IdGen,
    now: Cycle,
    // Inter-component ports carry fixed-delay messages (L2 TLB hops,
    // translation returns, driver replays); the deques are plain
    // backlogs (dispatch queue, retry queues). The kernel inventory below
    // feeds both into the event kernel's drain/wake derivation.
    to_l2: Port<(SmId, WarpId, Vpn, Cycle)>,
    l2_retry: VecDeque<PendingL2>,
    xlat_ret: Port<(SmId, Vpn, Option<Pfn>)>,
    dispatch_q: VecDeque<(Asid, Vpn, Cycle)>,
    sw_to_sm: Port<(usize, SwWalkRequest)>,
    fl2t_ret: Port<(usize, softwalker::SwCompletion)>,
    pwb_retry: VecDeque<WalkRequest>,
    l2d_retry: VecDeque<MemReq>,
    // Fault recovery: escalated translations waiting on the simulated
    // UVM driver, hardware-walk fault records (the PW Warps log into
    // their own per-SM buffers), and the driver-side counters.
    driver_q: Port<DriverReq>,
    hw_faults: FaultBuffer,
    fault_counters: FaultInjectionStats,
    // Demand paging: one simulated driver/OS memory manager per tenant
    // (empty in the default prebuilt mode) and the pages whose fill
    // replay is still in flight — their replayed walks are tagged so the
    // PW Warps can count software fill replays. BTreeMap for
    // deterministic iteration.
    mms: Vec<MemoryManager>,
    pending_fills: BTreeMap<(Asid, Vpn), FillTracker>,
    // Demand-paging data-path fault machinery: watchdog/delay timer
    // port, duplicated completions not yet absorbed, victims whose TLB
    // shootdown was dropped, driver-side counters, and the injectors
    // (None unless the plan arms a data-path rate with the mm on).
    mm_events: Port<MmEvent>,
    dup_fills: BTreeMap<(Asid, Vpn), u64>,
    stale_shootdowns: BTreeMap<(Asid, Vpn), u64>,
    // L1 TLB shootdown directory: per page, a mask of the SMs (bit
    // `sm % 64`) whose L1 TLB may cache its translation. A superset of
    // the real holders: a bit is set at the only L1 fill path (a
    // translation delivered by `xlat_ret`) and cleared only by a
    // shootdown of the page. Kept only under demand paging, the one
    // mode that shoots pages down.
    l1_holders: FastMap<(Asid, Vpn), u64>,
    mm_fault: MmFaultStats,
    data_faults: Option<DataFaultState>,
    // Translation prefetch (inert unless cfg.prefetch.enabled): pages
    // whose prefetch walk is still in flight, the rotation cursor over
    // (sm, warp) streams, and the counters the TLB cannot see (issues,
    // demand merges onto live prefetch walks, failed prefetch walks).
    prefetch_live: BTreeSet<(Asid, Vpn)>,
    prefetch_cursor: usize,
    prefetch_issued: u64,
    prefetch_late: u64,
    prefetch_failed: u64,
    // Retry budgets: rejected requests are re-attempted only as capacity
    // is actually freed (2 retries per completion, covering merge
    // opportunities), so a saturated cycle costs O(freed) instead of
    // O(backlog).
    l2_retry_budget: usize,
    l2d_retry_budget: usize,
    // The event kernel's wake table: per SM and per PW Warp, the cycle of
    // its next due work (`u64::MAX`: none). Refreshed from
    // `Component::next_event` right after the unit ticks, reset to 0
    // ("due now") at every delivery into it. A unit whose entry is later
    // than `now` has nothing to do and is not ticked.
    sm_wake: Vec<u64>,
    pw_wake: Vec<u64>,
    // Each table's minimum, so `next_event_wake` reads one value per
    // table. The step loops recompute it as they visit every entry, and
    // an SM delivery zeroes `sm_wake_min` with its entry: a step whose
    // stored SM minimum lies after `now` (and that gave no SM an issue
    // cycle to charge) skips the SM loop outright.
    sm_wake_min: u64,
    pw_wake_min: u64,
    // Per SM: whether its PW Warp took the issue port this cycle (a
    // buffer reused across steps).
    pw_issued: Vec<bool>,
    // Observability instruments; `None` (the default) costs nothing on
    // the hot path beyond a branch per hook.
    obs: Option<Box<ObsState>>,
    // Periodic progress callback (runner liveness reporting). Purely
    // observational: it reads cycle/flush counters, never sim state.
    progress: Option<ProgressHook>,
    stats: SimStats,
}

/// The single source of truth for what the event kernel drives: every
/// port, every gated backlog (with its gate condition), every timed
/// component, and the per-SM units with their wake-table entries.
/// `is_drained` and `next_event_wake` both expand from this list, so
/// adding a queue or component in one place wires it into both the drain
/// check and the wake schedule — forgetting it is a compile error at the
/// use site, not a silent hang.
///
/// `dispatch_q` is deliberately an *always-open* gated backlog: while it
/// is non-empty the dense loop consults the distributor (consuming RNG
/// and counting blocked cycles) every single cycle, so the kernel must
/// too. For the same reason an armed prefetcher `poll`s every cycle some
/// PW Warp has an idle thread: each scan advances the stream rotation
/// cursor even when it issues nothing. A poll never blocks draining.
macro_rules! with_kernel_inventory {
    ($self:ident, $port:ident, $gated:ident, $poll:ident, $comp:ident, $units:ident) => {
        $port!(to_l2);
        $port!(xlat_ret);
        $port!(sw_to_sm);
        $port!(fl2t_ret);
        $port!(driver_q);
        $port!(mm_events);
        $gated!(dispatch_q, true);
        $gated!(l2_retry, $self.l2_retry_budget > 0);
        $gated!(l2d_retry, $self.l2d_retry_budget > 0);
        $gated!(pwb_retry, $self.ptw.pwb_depth() < $self.cfg.ptw.pwb_entries);
        $poll!(
            $self.cfg.prefetch.enabled && $self.pw_warps.iter().any(|p| p.idle_thread_slots() > 0)
        );
        $comp!($self.ptw);
        $comp!($self.l2);
        $comp!($self.l2d);
        $comp!($self.dram);
        $units!(sms, sm_wake, sm_wake_min);
        $units!(pw_warps, pw_wake, pw_wake_min);
    };
}

/// A wake-table entry: the cycle of a unit's next event, `u64::MAX` if
/// it has none.
fn wake_of(next: Option<Cycle>) -> u64 {
    next.map_or(u64::MAX, Cycle::value)
}

impl std::fmt::Debug for GpuSimulator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GpuSimulator")
            .field("mode", &self.cfg.mode)
            .field("sms", &self.sms.len())
            .field("cycle", &self.now)
            .finish_non_exhaustive()
    }
}

impl GpuSimulator {
    /// Builds the GPU and maps the workload's footprint into a fresh
    /// address space. The workload must also implement a
    /// `footprint_bytes()`-style contract: here, the caller passes it via
    /// [`GpuSimulator::new_with_footprint`] or uses the
    /// `swgpu_workloads::Workload` convenience below.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new(cfg: GpuConfig, workload: Box<swgpu_workloads::Workload>) -> Self {
        let footprint = workload.footprint_bytes();
        Self::new_with_footprint(cfg, workload, footprint)
    }

    /// Builds the GPU around any instruction source, mapping
    /// `footprint_bytes` of virtual address space starting at 0.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent.
    pub fn new_with_footprint(
        cfg: GpuConfig,
        source: Box<dyn InstrSource>,
        footprint_bytes: u64,
    ) -> Self {
        // Demand paging populates on first touch: skip the (possibly
        // large) upfront mapping walk entirely.
        let bytes = if cfg.mm.enabled { 0 } else { footprint_bytes };
        let prebuilt = PrebuiltMemory::build(cfg.page_size, cfg.scrambled_frames, bytes);
        Self::new_with_prebuilt(cfg, source, prebuilt)
    }

    /// Builds the GPU around a pre-built memory image ([`PrebuiltMemory`])
    /// instead of mapping the footprint from scratch. Identical results
    /// to [`GpuSimulator::new_with_footprint`] — the page-table build is
    /// deterministic in `(page size, scrambling, footprint)` — but cells
    /// sharing a footprint can clone one image instead of paying the
    /// per-page mapping walk every time (the experiment runner's prebuild
    /// store does exactly that).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent or the prebuilt image
    /// was built for a different page size / scrambling than `cfg` uses.
    pub fn new_with_prebuilt(
        cfg: GpuConfig,
        source: Box<dyn InstrSource>,
        prebuilt: PrebuiltMemory,
    ) -> Self {
        assert!(
            cfg.tenants.is_none(),
            "multi-tenant configs construct via GpuSimulator::new_multi_tenant"
        );
        cfg.validate();
        assert_eq!(
            prebuilt.page_size, cfg.page_size,
            "prebuilt memory image page size does not match the config"
        );
        assert_eq!(
            prebuilt.scrambled, cfg.scrambled_frames,
            "prebuilt memory image frame scrambling does not match the config"
        );
        let PrebuiltMemory {
            mut phys,
            mut space,
            ..
        } = prebuilt;
        if cfg.mm.enabled && space.mapped_pages() > 0 {
            // Demand paging owns population: a prebuilt image would make
            // every page resident before the first touch, so start from
            // an empty address space instead.
            phys = PhysMem::new();
            space = if cfg.scrambled_frames {
                AddressSpace::new_scrambled(cfg.page_size, &mut phys)
            } else {
                AddressSpace::new(cfg.page_size, &mut phys)
            };
        }
        let mms: Vec<MemoryManager> = cfg
            .mm
            .enabled
            .then(|| MemoryManager::new(cfg.mm, cfg.page_size))
            .into_iter()
            .collect();

        let hashed = match cfg.mode {
            TranslationMode::HashedPtw => Some(space.build_hashed(&mut phys)),
            _ => None,
        };
        Self::assemble(cfg, source, phys, vec![space], mms, hashed)
    }

    /// Builds a multi-tenant GPU: `cfg.tenants` describes the layout,
    /// and `tenants` supplies one `(instruction source, footprint
    /// bytes)` pair per tenant in ASID order.
    ///
    /// Each tenant gets its own address space carved from a disjoint
    /// slice of physical memory (its page tables and data frames can
    /// never collide with another tenant's), its own PWC walk root, and
    /// — under demand paging — its own memory manager with independent
    /// resident-page accounting. In sub-entry-sharing mode every tenant
    /// instead maps the *same* address space, the precondition for
    /// identically-mapped VPNs to share L2 TLB entries.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent, `cfg.tenants` is
    /// absent, or the pair count does not match the tenant count.
    pub fn new_multi_tenant(cfg: GpuConfig, tenants: Vec<(Box<dyn InstrSource>, u64)>) -> Self {
        cfg.validate();
        let layout = cfg
            .tenants
            .clone()
            .expect("new_multi_tenant requires cfg.tenants");
        assert_eq!(
            layout.len(),
            tenants.len(),
            "one (source, footprint) pair per tenant"
        );
        let n = layout.len();
        let mut phys = PhysMem::new();
        let (sources, footprints): (Vec<_>, Vec<_>) = tenants.into_iter().unzip();
        let spaces: Vec<AddressSpace> = if layout.sub_entry_sharing {
            // One shared space mapped to the largest footprint: every
            // tenant sees the same VPN→PFN function, which is what lets
            // fills join another tenant's identical entry.
            let mut sp = if cfg.scrambled_frames {
                AddressSpace::new_scrambled(cfg.page_size, &mut phys)
            } else {
                AddressSpace::new(cfg.page_size, &mut phys)
            };
            let max = footprints.iter().copied().max().unwrap_or(0);
            sp.map_region(VirtAddr::new(0), max, &mut phys);
            vec![sp; n]
        } else {
            (0..n)
                .map(|i| {
                    let mut sp = AddressSpace::new_tenant(
                        cfg.page_size,
                        i,
                        n,
                        cfg.scrambled_frames,
                        &mut phys,
                    );
                    if !cfg.mm.enabled {
                        sp.map_region(VirtAddr::new(0), footprints[i], &mut phys);
                    }
                    sp
                })
                .collect()
        };
        let mms: Vec<MemoryManager> = if cfg.mm.enabled {
            (0..n)
                .map(|_| MemoryManager::new(cfg.mm, cfg.page_size))
                .collect()
        } else {
            Vec::new()
        };
        let source = Box::new(TenantMuxSource::new(&layout, sources));
        Self::assemble(cfg, source, phys, spaces, mms, None)
    }

    /// Wires the (already built) memory system into a full simulator —
    /// the tail shared by the single-tenant and multi-tenant
    /// constructors. `spaces[i]` is ASID `i`'s address space; `mms` is
    /// empty unless demand paging is on, else one manager per tenant.
    fn assemble(
        mut cfg: GpuConfig,
        source: Box<dyn InstrSource>,
        phys: PhysMem,
        spaces: Vec<AddressSpace>,
        mut mms: Vec<MemoryManager>,
        hashed: Option<HashedPageTable>,
    ) -> Self {
        if cfg.mode == TranslationMode::IdealPtw {
            // The ideal mode is self-sufficient: unbounded walkers and L2
            // TLB MSHRs regardless of what the rest of the config says.
            cfg = cfg.ideal();
        }
        let n_tenants = cfg.tenants.as_ref().map_or(1, TenantsConfig::len);
        let mut pwc = PageWalkCache::new(cfg.pwc_entries);
        for (i, sp) in spaces.iter().enumerate() {
            pwc.set_root(Asid::new(i as u16), sp.radix().root());
        }

        let sm_asids: Vec<Asid> = match cfg.tenants.as_ref() {
            None => vec![Asid::ZERO; cfg.sms],
            Some(t) => {
                let mut v = vec![Asid::ZERO; cfg.sms];
                for i in 0..t.len() {
                    for s in t.sm_range(i) {
                        v[s] = Asid::new(i as u16);
                    }
                }
                v
            }
        };

        let sms: Vec<Sm> = (0..cfg.sms)
            .map(|i| {
                Sm::new(SmConfig {
                    id: SmId::new(i as u16),
                    asid: sm_asids[i],
                    max_warps: cfg.max_warps,
                    l1_tlb: cfg.l1_tlb.clone(),
                    l1_mshr: cfg.l1_mshr,
                    l1_tlb_latency: cfg.l1_tlb_latency,
                    l1d: cfg.l1d.clone(),
                    page_size: cfg.page_size,
                    sector_bytes: 32,
                })
            })
            .collect();

        let pw_warps: Vec<PwWarpUnit> = if cfg.mode.uses_software_walkers() {
            (0..cfg.sms)
                .map(|i| PwWarpUnit::new(cfg.pw_warp).on_sm(SmId::new(i as u16)))
                .collect()
        } else {
            Vec::new()
        };

        let in_tlb_max = if cfg.mode.in_tlb_enabled() || cfg.force_in_tlb {
            cfg.in_tlb_max
        } else {
            0
        };
        let mut l2 = L2TlbComplex::new(cfg.l2_tlb.clone(), cfg.l2_mshr, in_tlb_max);

        // Sharing-policy wiring. Partitioned (MIG-style) statically
        // splits the L2 TLB ways and pins dispatch to each tenant's SM
        // partition; Shared leaves capacity open but caps each tenant's
        // concurrently in-flight walks (QoS).
        let mut qos_cap = None;
        let mut tenant_masks: Vec<Vec<bool>> = Vec::new();
        if let Some(t) = cfg.tenants.as_ref() {
            match t.policy {
                SharingPolicy::Partitioned => {
                    let ways = cfg.l2_tlb.assoc / t.len();
                    l2.set_way_partition((0..t.len()).map(|i| (i * ways, ways)).collect());
                    tenant_masks = (0..t.len())
                        .map(|i| {
                            let r = t.sm_range(i);
                            (0..cfg.sms).map(|s| r.contains(&s)).collect()
                        })
                        .collect();
                }
                SharingPolicy::Shared { max_inflight_walks } => {
                    qos_cap = Some(max_inflight_walks);
                }
            }
            if t.sub_entry_sharing {
                l2.set_sub_entry_sharing(true);
            }
        }

        let distributor = RequestDistributor::new(
            cfg.distributor_policy,
            cfg.sms.max(1),
            cfg.pw_warp.softpwb_entries as u32,
        );

        let mut ptw = PtwSubsystem::new(cfg.ptw.clone());
        let mut l2d = Cache::new(cfg.l2d.clone());
        let mut dram = Dram::new(cfg.dram.clone());
        let mut pw_warps = pw_warps;
        let plan = &cfg.fault_plan;
        if plan.enabled() {
            ptw.set_fault_plan(plan);
            l2d.set_fault_injector(
                FaultInjector::new(plan.seed, site::L2D_DROP),
                plan.mem_drop_rate,
            );
            dram.set_fault_injector(
                FaultInjector::new(plan.seed, site::DRAM_DELAY),
                plan.mem_delay_rate,
                plan.mem_delay_cycles,
            );
            for (i, pw) in pw_warps.iter_mut().enumerate() {
                pw.set_fault_plan(plan, i as u64);
            }
        }
        let data_faults = (plan.data_path_enabled() && !mms.is_empty()).then(|| {
            for mm in &mut mms {
                mm.set_data_fault_checking(plan.frame_retire_threshold);
            }
            DataFaultState {
                fill_complete: FaultInjector::new(plan.seed, site::FILL_COMPLETE),
                fill_payload: FaultInjector::new(plan.seed, site::FILL_PAYLOAD),
                shootdown: FaultInjector::new(plan.seed, site::SHOOTDOWN),
                driver_queue: FaultInjector::new(plan.seed, site::DRIVER_QUEUE),
            }
        });
        let obs = if cfg.obs.enabled {
            ptw.set_observed(true);
            for pw in &mut pw_warps {
                pw.set_observed(true);
            }
            Some(Box::new(ObsState::new(&cfg.obs, cfg.sms)))
        } else {
            None
        };
        let (sms_len, pw_warps_len) = (sms.len(), pw_warps.len());
        Self {
            sms,
            pw_warps,
            l2,
            pwc,
            ptw,
            l2d,
            dram,
            phys,
            spaces,
            hashed,
            sm_asids,
            tenant_masks,
            qos_cap,
            inflight_walks: vec![0; n_tenants],
            tenant_fresh_misses: vec![0; n_tenants],
            tenant_walks: vec![0; n_tenants],
            distributor,
            ids: IdGen::new(),
            now: Cycle::ZERO,
            to_l2: Port::new(),
            l2_retry: VecDeque::new(),
            xlat_ret: Port::new(),
            dispatch_q: VecDeque::new(),
            sw_to_sm: Port::new(),
            fl2t_ret: Port::new(),
            pwb_retry: VecDeque::new(),
            l2d_retry: VecDeque::new(),
            driver_q: Port::new(),
            hw_faults: FaultBuffer::with_capacity(cfg.pw_warp.fault_buffer_entries),
            fault_counters: FaultInjectionStats::default(),
            mms,
            pending_fills: BTreeMap::new(),
            mm_events: Port::new(),
            dup_fills: BTreeMap::new(),
            stale_shootdowns: BTreeMap::new(),
            l1_holders: FastMap::default(),
            mm_fault: MmFaultStats::default(),
            data_faults,
            prefetch_live: BTreeSet::new(),
            prefetch_cursor: 0,
            prefetch_issued: 0,
            prefetch_late: 0,
            prefetch_failed: 0,
            l2_retry_budget: 0,
            l2d_retry_budget: 0,
            sm_wake: vec![0; sms_len],
            pw_wake: vec![0; pw_warps_len],
            sm_wake_min: 0,
            pw_wake_min: 0,
            pw_issued: vec![false; sms_len],
            obs,
            progress: None,
            stats: SimStats {
                walk_trace: crate::WalkTrace::new(cfg.walk_trace_cap),
                ..SimStats::default()
            },
            source,
            cfg,
        }
    }

    /// The address space backing this run (for tests and examples that
    /// want to verify translations functionally). Multi-tenant runs
    /// return tenant 0's space; see [`GpuSimulator::address_space_of`].
    pub fn address_space(&self) -> &AddressSpace {
        &self.spaces[0]
    }

    /// The address space of one tenant.
    pub fn address_space_of(&self, asid: Asid) -> &AddressSpace {
        &self.spaces[asid.index()]
    }

    /// The tenant that owns an SM (always [`Asid::ZERO`] on
    /// single-tenant runs).
    fn sm_asid(&self, sm: SmId) -> Asid {
        self.sm_asids[sm.index()]
    }

    /// Whether the shared-policy QoS cap forbids `asid` another
    /// concurrently in-flight walk. Always false without a cap
    /// (single-tenant and partitioned runs).
    fn at_walk_cap(&self, asid: Asid) -> bool {
        self.qos_cap
            .is_some_and(|cap| self.inflight_walks[asid.index()] >= cap)
    }

    fn note_walk_started(&mut self, asid: Asid) {
        self.inflight_walks[asid.index()] += 1;
    }

    fn note_walk_done(&mut self, asid: Asid) {
        let n = &mut self.inflight_walks[asid.index()];
        *n = n.saturating_sub(1);
    }

    /// Attaches a streaming SWTB sink for this run's observability data.
    ///
    /// Call before [`GpuSimulator::run`]. Returns `false` (dropping the
    /// sink) when observability is disabled. With a sink attached the
    /// span recorder becomes a bounded *staging buffer* that never
    /// drops: stagings that hit `span_capacity` flush to the sink,
    /// every sample tick streams instrument deltas, and finalization
    /// closes the trace with SUMMARY + END records. Flush points depend
    /// only on simulated content, so the dense and event kernels emit
    /// byte-identical traces.
    pub fn attach_trace_sink(&mut self, sink: Box<dyn std::io::Write>) -> bool {
        let fingerprint = self.cfg.fingerprint();
        let interval = self.cfg.obs.sample_interval;
        let Some(o) = self.obs.as_deref_mut() else {
            return false;
        };
        let stream =
            SwtbStream::new(sink, &fingerprint, interval).expect("SWTB trace sink write failed");
        o.stream = Some(stream);
        o.rec.set_streaming(true);
        true
    }

    /// Registers a callback invoked at the first step at or past every
    /// `every_cycles` simulated cycles with a [`RunProgress`] snapshot.
    /// Purely observational — it cannot influence simulation state,
    /// timing, or the emitted trace.
    pub fn set_progress_hook(&mut self, every_cycles: u64, hook: Box<dyn FnMut(RunProgress)>) {
        self.progress = Some(ProgressHook {
            every: every_cycles.max(1),
            next: 0,
            hook,
        });
    }

    /// Runs to completion (or the cycle cap) on the event-scheduled
    /// kernel: between events the clock jumps straight to the next
    /// pending wake instead of executing empty cycles. Produces
    /// byte-identical statistics to [`GpuSimulator::run_dense`].
    pub fn run(mut self) -> SimStats {
        self.run_loop(false);
        self.finalize()
    }

    /// Runs to completion executing *every* cycle — the dense reference
    /// mode the event kernel is validated against. Same statistics as
    /// [`GpuSimulator::run`] (including the `kernel_*` counters, which
    /// both modes derive from the event schedule alone), just slower on
    /// workloads with long quiescent stretches.
    pub fn run_dense(mut self) -> SimStats {
        self.run_loop(true);
        self.finalize()
    }

    /// The kernel loop shared by both modes. `sim_target` is the next
    /// cycle the event schedule demands; cycle 0 is always scheduled.
    /// Dense mode executes every cycle, ticking every unit, but runs the
    /// *same* schedule arithmetic, so `kernel_steps` /
    /// `kernel_cycles_skipped` agree byte-for-byte across modes. Event
    /// mode additionally wakes at observability sample boundaries (those
    /// steps are no-ops for simulation state — every component's next
    /// event is provably later) and ticks only the SMs and PW Warps with
    /// due work; an SM charges the cycles it was not ticked for to its
    /// stall taxonomy lazily ([`Sm::catch_up`]).
    fn run_loop(&mut self, dense: bool) {
        let mut sim_target = 0u64;
        loop {
            let scheduled = self.now.value() >= sim_target;
            if scheduled {
                self.stats.kernel_steps += 1;
            }
            self.step(dense);
            if self
                .progress
                .as_ref()
                .is_some_and(|p| self.now.value() >= p.next)
            {
                self.report_progress();
            }
            if self.is_drained() {
                break;
            }
            if self.now.value() >= self.cfg.max_cycles {
                self.stats.timed_out = true;
                break;
            }
            if scheduled {
                // Clamping to the cycle cap makes a timeout fire at
                // exactly `max_cycles` in both modes.
                let t = self.next_event_wake().min(self.cfg.max_cycles);
                self.stats.kernel_cycles_skipped += t - self.now.value() - 1;
                sim_target = t;
            }
            let wake = if dense {
                self.now.value() + 1
            } else {
                let mut w = sim_target;
                if let Some(o) = self.obs.as_deref() {
                    w = w.min(o.next_sample);
                }
                // Skipped cycles are idle for every PW-Warp issue port, so
                // any open busy run ends at `now + 1` — exactly where the
                // dense loop's next tick would close it. Closing it here
                // keeps span *recording order* (and therefore streamed
                // SWTB bytes) byte-identical across the two kernels.
                if w > self.now.value() + 1 {
                    if let Some(o) = self.obs.as_deref_mut() {
                        let at = self.now.value() + 1;
                        for i in 0..o.busy.len() {
                            if let Some(s) = o.busy[i].tick(at, false) {
                                o.push(s);
                            }
                        }
                    }
                }
                w
            };
            self.now = Cycle::new(wake.max(self.now.value() + 1));
        }
    }

    /// Snapshots progress and fires the hook, advancing its threshold.
    fn report_progress(&mut self) {
        let (spans_flushed, trace_bytes) = match self.obs.as_deref() {
            Some(o) => (
                o.rec.flushed(),
                o.stream.as_ref().map_or(0, SwtbStream::bytes_written),
            ),
            None => (0, 0),
        };
        let snap = RunProgress {
            cycles: self.now.value(),
            spans_flushed,
            trace_bytes,
        };
        if let Some(p) = self.progress.as_mut() {
            p.next = snap.cycles.saturating_add(p.every);
            (p.hook)(snap);
        }
    }

    /// Derives drained-ness and the next wake from one shared inventory
    /// of every port and component the kernel drives, so the two can
    /// never fall out of sync with each other (the predecessor of this
    /// code hand-maintained a 13-clause drain list).
    ///
    /// Gated backlogs (budgeted retries, the bounded hardware PWB)
    /// contribute a wake only while their gate is open — a closed-gate
    /// backlog is exactly the case the dense loop no-ops on every cycle,
    /// and the budget/capacity that re-opens a gate is only ever minted
    /// by another component's event. They always block draining.
    fn is_drained(&self) -> bool {
        macro_rules! port {
            ($f:ident) => {
                if !self.$f.is_empty() {
                    return false;
                }
            };
        }
        macro_rules! gated {
            ($f:ident, $open:expr) => {
                port!($f);
            };
        }
        macro_rules! poll {
            ($due:expr) => {};
        }
        macro_rules! comp {
            ($e:expr) => {
                if !Component::is_idle(&$e) {
                    return false;
                }
            };
        }
        macro_rules! units {
            ($units:ident, $wake:ident, $min:ident) => {
                for u in &self.$units {
                    comp!(*u);
                }
            };
        }
        with_kernel_inventory!(self, port, gated, poll, comp, units);
        true
    }

    /// The earliest cycle at which any component has pending work,
    /// clamped to `now + 1` (an event at or before `now` means "the very
    /// next cycle"). SMs and PW Warps are read from the wake table's
    /// stored minimum; after a step the table holds each unit's live
    /// `next_event`: a unit ticked this step refreshed its entry after
    /// the tick, and a skipped one has not changed since its entry was
    /// written (every delivery forces a tick). Must only be called on a
    /// live (un-drained) simulator; a component that holds work without
    /// scheduling an event is a bug, downgraded in release builds to
    /// per-cycle stepping so both modes still agree (they then run to
    /// the cap together).
    fn next_event_wake(&self) -> u64 {
        let now = self.now.value();
        let mut next = u64::MAX;
        macro_rules! upd {
            ($e:expr) => {
                if let Some(c) = $e {
                    next = next.min(c.value().max(now + 1));
                }
            };
        }
        macro_rules! port {
            ($f:ident) => {
                upd!(Component::next_event(&self.$f));
            };
        }
        macro_rules! gated {
            ($f:ident, $open:expr) => {
                if !self.$f.is_empty() && $open {
                    next = next.min(now + 1);
                }
            };
        }
        macro_rules! poll {
            ($due:expr) => {
                if $due {
                    next = next.min(now + 1);
                }
            };
        }
        macro_rules! comp {
            ($e:expr) => {
                upd!(Component::next_event(&$e));
            };
        }
        macro_rules! units {
            ($units:ident, $wake:ident, $min:ident) => {
                debug_assert_eq!(
                    self.$min,
                    self.$wake.iter().copied().min().unwrap_or(u64::MAX),
                    "stale {} minimum",
                    stringify!($wake)
                );
                next = next.min(self.$min.max(now + 1));
            };
        }
        with_kernel_inventory!(self, port, gated, poll, comp, units);
        debug_assert!(next != u64::MAX, "live simulator with no pending event");
        if next == u64::MAX {
            now + 1
        } else {
            next
        }
    }

    /// One core cycle. With `dense` set every SM and PW Warp ticks;
    /// otherwise only those the wake table shows due (see
    /// [`GpuSimulator::run_loop`]).
    // Index loops are deliberate: each iteration borrows `self` mutably
    // for routing, which iterator adapters cannot express.
    #[allow(clippy::needless_range_loop)]
    fn step(&mut self, dense: bool) {
        let now = self.now;
        self.sample_obs(now);

        // DRAM completions fill the L2D.
        while let Some(req) = self.dram.pop_complete(now) {
            self.l2d.complete_fill(now, req);
            self.l2d_retry_budget = self.l2d_retry_budget.saturating_add(2);
        }

        // L2D responses route back to their owners.
        while let Some(resp) = self.l2d.pop_response(now) {
            self.route_l2d_response(resp);
        }

        // Responses discarded by fault injection: tell the walker that
        // issued the read (so it can attribute the loss to its in-flight
        // walk); its already-armed watchdog performs the recovery.
        while let Some(dropped) = self.l2d.pop_dropped() {
            let attributed = match dropped.route.issuer {
                Issuer::Ptw => self.ptw.on_mem_dropped(dropped),
                Issuer::PwWarp => {
                    let i = usize::from(dropped.route.unit);
                    self.pw_wake[i] = 0;
                    self.pw_warps[i].on_mem_dropped(dropped)
                }
                Issuer::SmData => panic!(
                    "dropped non-page-table response {:?} ({:?})",
                    dropped.id, dropped.route
                ),
            };
            if !attributed {
                // The walker's watchdog had already given up on this read
                // and re-issued it before the drop landed; the injection
                // hit a request nobody was waiting for, so it is recovered
                // by construction.
                self.fault_counters.recovered_injections += 1;
            }
        }

        // The simulated UVM driver: escalated translations arrive here
        // after `driver_latency` cycles. If the page is genuinely mapped
        // (the escalation came from injected faults), the driver has
        // "repaired" the PTE and replays the walk through the normal
        // machinery; otherwise the fault is real and completes as one.
        while let Some(req) = self.driver_q.recv(now) {
            let DriverReq {
                asid,
                vpn,
                issued_at,
                stalls,
                refill,
            } = req;
            if let Some(o) = self.obs.as_deref_mut() {
                o.instant(SpanKind::Fault, 0, now.value(), vpn.value(), 0);
            }
            // Injected driver-queue stall: service is deferred by one
            // more driver latency, bounded by the walk retry budget so a
            // high rate cannot park a request forever.
            if let Some(df) = self.data_faults.as_mut() {
                let p = &self.cfg.fault_plan;
                if stalls < p.max_retries && df.driver_queue.fire(p.driver_stuck_rate) {
                    self.mm_fault.injected_driver_stalls += 1;
                    self.driver_q.send(
                        now + p.driver_latency.max(1),
                        DriverReq {
                            stalls: stalls + 1,
                            ..req
                        },
                    );
                    continue;
                }
            }
            // Reaching service resolves every stall this request absorbed.
            self.mm_fault.recovered_fills += u64::from(stalls);
            let mapped = self.spaces[asid.index()]
                .radix()
                .translate(vpn, &self.phys)
                .is_some();
            if mapped && refill {
                // Raced re-fill: another fault on this page already
                // refilled it, and that replayed walk (still in flight)
                // will release the waiters.
                continue;
            }
            if mapped {
                self.fault_counters.fault_replays += 1;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.reg.inc(o.c_driver_replays, 1);
                }
                self.launch_walk(asid, vpn, issued_at, None);
            } else if !self.mms.is_empty() {
                // Major fault: the page is genuinely unmapped and demand
                // paging is on. The tenant's driver populates it (possibly
                // evicting past the budget), shoots the victims out of the
                // tenant's TLB entries, and replays the walk through the
                // normal machinery.
                let outcome = {
                    let mm = &mut self.mms[asid.index()];
                    let out = mm.service_fault(vpn, &mut self.spaces[asid.index()], &mut self.phys);
                    mm.stats_mut().major_replays += 1;
                    out
                };
                // Shootdown site: an armed plan may drop the message,
                // leaving the stale translation in the shared L2 TLB (the
                // per-SM L1s are shot down on a separate, reliable path).
                let rate = self.cfg.fault_plan.shootdown_drop_rate;
                for &victim in &outcome.evicted {
                    if self
                        .data_faults
                        .as_mut()
                        .is_some_and(|df| df.shootdown.fire(rate))
                    {
                        self.mm_fault.injected_shootdown_drops += 1;
                        *self.stale_shootdowns.entry((asid, victim)).or_insert(0) += 1;
                    } else {
                        // Post-condition of the duplicate-tag fill fix:
                        // set uniqueness means a shootdown can never find
                        // more than one valid way per array.
                        let dropped = self.l2.invalidate(asid, victim);
                        debug_assert!(dropped <= 1, "duplicate L2 TLB ways for {victim:?}");
                    }
                    self.shoot_down_l1(asid, victim);
                }
                let tracker = self.pending_fills.entry((asid, vpn)).or_default();
                tracker.generation = outcome.generation;
                if let Some(o) = self.obs.as_deref_mut() {
                    o.reg.inc(o.c_driver_replays, 1);
                }
                if let Some(df) = self.data_faults.as_mut() {
                    // Payload site: garble the filled frame's stamped
                    // word; the end-to-end checksum catches it when a
                    // consumer's translation delivers the frame.
                    if df.fill_payload.fire(self.cfg.fault_plan.fill_corrupt_rate) {
                        self.mm_fault.injected_fill_corruptions += 1;
                        let garble = df.fill_payload.draw_u64();
                        self.mms[asid.index()].corrupt_frame(outcome.pfn, garble, &mut self.phys);
                    }
                }
                self.deliver_fill(asid, vpn, issued_at);
            } else {
                self.fault_counters.unrecoverable_faults += 1;
                let queue = now.since(issued_at);
                self.finish_translation(asid, vpn, None, queue, 0);
            }
        }

        // Demand-paging fault machinery self-messages: fill watchdogs
        // and artificially delayed completion deliveries. Empty unless a
        // data-path site is armed.
        while let Some(ev) = self.mm_events.recv(now) {
            match ev {
                MmEvent::FillWatchdog {
                    asid,
                    vpn,
                    generation,
                } => self.on_fill_watchdog(asid, vpn, generation),
                MmEvent::DelayedReplay {
                    asid,
                    vpn,
                    issued_at,
                } => self.launch_walk(asid, vpn, issued_at, None),
            }
        }

        // L2D misses go to DRAM.
        while let Some(fill) = self.l2d.pop_fill_request(now) {
            self.dram.access(now, fill);
        }

        // Retry L2D accesses rejected on MSHR pressure, budgeted by the
        // fills that actually freed MSHRs. A retry rejected again
        // re-queues behind the `n` taken, so it is not retried twice.
        let n = self.l2d_retry_budget.min(self.l2d_retry.len());
        self.l2d_retry_budget -= n;
        for _ in 0..n {
            let req = self.l2d_retry.pop_front().expect("n <= len");
            self.issue_l2d_inner(req, true);
        }

        // Translation responses reach the SMs' L1 complexes.
        while let Some((sm, vpn, pfn)) = self.xlat_ret.recv(now) {
            let i = sm.index();
            self.sms[i].on_translation(now, vpn, pfn);
            if pfn.is_some() && !self.mms.is_empty() {
                *self.l1_holders.entry((self.sm_asids[i], vpn)).or_insert(0) |= 1 << (i % 64);
            }
            self.sm_wake[i] = 0;
            self.sm_wake_min = 0;
        }

        // FL2T completions arrive back at the L2 TLB.
        while let Some((sm_idx, c)) = self.fl2t_ret.recv(now) {
            self.distributor.on_fill(SmId::new(sm_idx as u16));
            let queue = c.dispatched_at.since(c.issued_at) + c.softpwb_wait();
            let access = c.arrived_at.since(c.dispatched_at)
                + c.finished_at.since(c.started_at)
                + self.cfg.l2_tlb_latency;
            self.stats.sw_walks += 1;
            if let Some(o) = self.obs.as_deref_mut() {
                let t = sm_idx as u32;
                o.span(SpanKind::SwQueue, t, c.issued_at, c.dispatched_at, c.vpn);
                o.span(SpanKind::SwPwbWait, t, c.arrived_at, c.started_at, c.vpn);
                o.span(SpanKind::SwExec, t, c.started_at, c.finished_at, c.vpn);
            }
            self.stats.walk_trace.record(crate::WalkRecord {
                vpn: c.vpn,
                issued_at: c.issued_at,
                started_at: c.started_at,
                completed_at: now,
                walker: crate::WalkerKind::Software,
            });
            self.note_walk_done(c.asid);
            if c.pfn.is_none() && (self.cfg.fault_plan.enabled() || !self.mms.is_empty()) {
                // Faulted walk under an armed plan or demand paging:
                // hand it to the driver rather than failing the
                // translation outright.
                self.driver_q.send(
                    now + self.driver_delay(c.asid, c.vpn),
                    DriverReq {
                        asid: c.asid,
                        vpn: c.vpn,
                        issued_at: c.issued_at,
                        stalls: 0,
                        refill: false,
                    },
                );
            } else {
                self.finish_translation(c.asid, c.vpn, c.pfn, queue, access);
            }
        }

        // L2 TLB request processing: budgeted retries first (capacity is
        // only re-probed as walks complete), then fresh arrivals.
        let n = self.l2_retry_budget.min(self.l2_retry.len());
        self.l2_retry_budget -= n;
        for _ in 0..n {
            let p = self.l2_retry.pop_front().expect("n <= len");
            self.process_l2(p, false);
        }
        while let Some((sm, warp, vpn, first_seen)) = self.to_l2.recv(now) {
            self.process_l2(
                PendingL2 {
                    sm,
                    warp,
                    vpn,
                    first_seen,
                    counted_failure: false,
                },
                true,
            );
        }

        // Hardware PWB retries: only attempt while the PWB has room and
        // the owning tenant is below its QoS walk cap.
        while let Some(&w) = self.pwb_retry.front() {
            if self.at_walk_cap(w.asid) {
                break;
            }
            if self.ptw.pwb_depth() < self.cfg.ptw.pwb_entries && self.ptw.enqueue(w) {
                self.note_walk_started(w.asid);
                self.pwb_retry.pop_front();
            } else {
                break;
            }
        }

        // SoftWalker dispatch, then translation prefetch into whatever
        // PW-Warp threads the demand stream left idle.
        self.dispatch_software_walks();
        self.issue_prefetches();

        // Dispatched requests arrive at SoftPWBs.
        while let Some((sm_idx, req)) = self.sw_to_sm.recv(now) {
            let accepted = self.pw_warps[sm_idx].accept(now, req);
            assert!(accepted, "distributor oversubscribed a SoftPWB");
            self.pw_wake[sm_idx] = 0;
        }

        // Hardware walk subsystem.
        if self.cfg.mode.uses_hardware_walkers() {
            let table = Self::table_ref(&self.hashed, &self.spaces[0]);
            let mut ctx = WalkContext {
                mem: &self.phys,
                pwc: &mut self.pwc,
                table,
            };
            self.ptw.tick(now, &mut ctx, &mut self.ids);
            while let Some(req) = self.ptw.pop_mem_request() {
                self.issue_l2d(req);
            }
            while let Some(c) = self.ptw.pop_completion() {
                self.stats.hw_walks += 1;
                for r in c.results {
                    let queue = c.started_at.since(r.issued_at);
                    let access = c.completed_at.since(c.started_at);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.span(SpanKind::HwQueue, 0, r.issued_at, c.started_at, r.vpn);
                        o.span(SpanKind::HwWalk, 0, c.started_at, c.completed_at, r.vpn);
                    }
                    self.stats.walk_trace.record(crate::WalkRecord {
                        vpn: r.vpn,
                        issued_at: r.issued_at,
                        started_at: c.started_at,
                        completed_at: c.completed_at,
                        walker: crate::WalkerKind::Hardware,
                    });
                    self.note_walk_done(r.asid);
                    if r.pfn.is_none() && (self.cfg.fault_plan.enabled() || !self.mms.is_empty()) {
                        // Hardware walks have no FFB instruction; the
                        // walker reports the fault directly (level 0 =
                        // escalation, the walk level is not preserved).
                        // Genuine major faults (demand paging) bypass the
                        // bounded injection fault buffer — they are not
                        // injections and must not consume its capacity.
                        let injected = self.cfg.fault_plan.enabled()
                            && (self.mms.is_empty()
                                || self.spaces[r.asid.index()]
                                    .radix()
                                    .translate(r.vpn, &self.phys)
                                    .is_some());
                        if injected {
                            self.hw_faults.record(FaultRecord {
                                asid: r.asid,
                                vpn: r.vpn,
                                level: 0,
                                at: now,
                            });
                        }
                        self.driver_q.send(
                            now + self.driver_delay(r.asid, r.vpn),
                            DriverReq {
                                asid: r.asid,
                                vpn: r.vpn,
                                issued_at: r.issued_at,
                                stalls: 0,
                                refill: false,
                            },
                        );
                    } else {
                        self.finish_translation(r.asid, r.vpn, r.pfn, queue, access);
                    }
                }
            }
        }

        // Drain cycle-stamped PTE-read events buffered by the walkers
        // (both kinds stamp their own timestamps, so draining once per
        // cycle preserves event times exactly).
        if let Some(o) = self.obs.as_deref_mut() {
            o.pte_reads(0, self.ptw.drain_obs_events());
        }

        // PW Warps: tick (claiming issue ports), then SMs. In event mode a
        // unit whose wake lies after `now` is skipped: its tick would be a
        // no-op (an SM's would only charge this cycle's issue slot: a
        // stall, which `Sm::catch_up` charges later, or a PW Warp's issue,
        // which `Sm::charge_pw_issue` charges now). Both loops keep their
        // table's minimum as they go.
        let mut pw_min = u64::MAX;
        let mut any_pw_issued = false;
        for i in 0..self.pw_warps.len() {
            if !dense && self.pw_wake[i] > now.value() {
                debug_assert!(
                    wake_of(self.pw_warps[i].next_event()) > now.value(),
                    "skipped PW Warp {i} with work due at {now:?}"
                );
                self.pw_issued[i] = false;
                pw_min = pw_min.min(self.pw_wake[i]);
                continue;
            }
            self.pw_issued[i] = self.pw_warps[i].tick(now, &mut self.ids);
            any_pw_issued |= self.pw_issued[i];
            while let Some(req) = self.pw_warps[i].pop_mem_request() {
                self.issue_l2d(req);
            }
            while let Some(c) = self.pw_warps[i].pop_completion() {
                self.fl2t_ret.send(now + self.cfg.l2_tlb_latency, (i, c));
            }
            if let Some(o) = self.obs.as_deref_mut() {
                o.pte_reads(i as u32, self.pw_warps[i].drain_obs_events());
            }
            self.pw_wake[i] = wake_of(self.pw_warps[i].next_event());
            pw_min = pw_min.min(self.pw_wake[i]);
        }
        self.pw_wake_min = pw_min;
        if let Some(o) = self.obs.as_deref_mut() {
            for i in 0..o.busy.len() {
                if let Some(s) = o.busy[i].tick(now.value(), self.pw_issued[i]) {
                    o.push(s);
                }
            }
        }

        // No SM is due and none has a PW-issue cycle to charge: every
        // iteration below would skip, so skip the loop.
        if !dense && !any_pw_issued && self.sm_wake_min > now.value() {
            if cfg!(debug_assertions) {
                for (i, sm) in self.sms.iter().enumerate() {
                    debug_assert!(
                        wake_of(sm.next_event()) > now.value(),
                        "idle-skipped SM {i} with work due at {now:?}"
                    );
                }
            }
            return;
        }
        let mut sm_min = u64::MAX;
        for i in 0..self.sms.len() {
            if !dense && self.sm_wake[i] > now.value() {
                debug_assert!(
                    wake_of(self.sms[i].next_event()) > now.value(),
                    "skipped SM {i} with work due at {now:?}"
                );
                if self.pw_issued[i] {
                    self.sms[i].charge_pw_issue(now);
                }
                sm_min = sm_min.min(self.sm_wake[i]);
                continue;
            }
            let sm = &mut self.sms[i];
            sm.tick(now, self.source.as_mut(), &mut self.ids, !self.pw_issued[i]);
            while let Some((vpn, warp)) = sm.pop_l2_tlb_request() {
                self.to_l2.send(
                    now + self.cfg.l2_tlb_latency,
                    (SmId::new(i as u16), warp, vpn, now),
                );
            }
            while let Some(req) = self.sms[i].pop_mem_request() {
                self.issue_l2d(req);
            }
            self.sm_wake[i] = wake_of(self.sms[i].next_event());
            sm_min = sm_min.min(self.sm_wake[i]);
        }
        self.sm_wake_min = sm_min;
    }

    /// Samples every registered time-series when the cycle hits the
    /// configured interval. No-op (one branch) when observability is off.
    fn sample_obs(&mut self, now: Cycle) {
        let Some(o) = self.obs.as_deref_mut() else {
            return;
        };
        if now.value() < o.next_sample {
            return;
        }
        o.next_sample = now.value() + o.interval;
        let softpwb: usize = self.pw_warps.iter().map(PwWarpUnit::pwb_occupancy).sum();
        let pw_active: usize = self.pw_warps.iter().map(PwWarpUnit::active_walks).sum();
        o.reg.sample(o.s_softpwb, softpwb as u64);
        o.reg.sample(o.s_pw_active, pw_active as u64);
        o.reg.sample(o.s_hw_pwb, self.ptw.pwb_depth() as u64);
        o.reg.sample(o.s_hw_active, self.ptw.active_walks() as u64);
        o.reg
            .sample(o.s_mshr_dedicated, self.l2.dedicated_in_flight() as u64);
        o.reg
            .sample(o.s_mshr_in_tlb, self.l2.pending_in_tlb() as u64);
        o.reg
            .sample(o.s_mshr_overflow, self.l2.overflow_waiting() as u64);
        o.reg.sample(o.s_dispatch_q, self.dispatch_q.len() as u64);
        // Stream the tick's instrument deltas. Both kernels hit every
        // sample cycle (the event kernel wakes at `next_sample`), so the
        // emission schedule is identical across dense and event modes.
        if let Some(stream) = o.stream.as_mut() {
            stream
                .sample_tick(&o.reg)
                .expect("SWTB trace sink write failed");
        }
    }

    fn table_ref<'a>(hashed: &'a Option<HashedPageTable>, space: &'a AddressSpace) -> TableRef<'a> {
        match hashed {
            Some(h) => TableRef::Hashed(h),
            None => TableRef::Radix {
                root: space.radix().root(),
            },
        }
    }

    fn route_l2d_response(&mut self, resp: MemReq) {
        let unit = usize::from(resp.route.unit);
        match resp.route.issuer {
            Issuer::SmData => {
                self.sms[unit].on_mem_response(self.now, resp);
                self.sm_wake[unit] = 0;
                self.sm_wake_min = 0;
            }
            Issuer::Ptw => {
                let table = Self::table_ref(&self.hashed, &self.spaces[0]);
                let mut ctx = WalkContext {
                    mem: &self.phys,
                    pwc: &mut self.pwc,
                    table,
                };
                self.ptw
                    .on_mem_response(resp, self.now, &mut ctx, &mut self.ids);
            }
            Issuer::PwWarp => {
                self.pw_warps[unit].on_mem_response(resp, self.now, &self.phys, &mut self.pwc);
                self.pw_wake[unit] = 0;
            }
        }
    }

    fn issue_l2d(&mut self, req: MemReq) {
        self.issue_l2d_inner(req, false);
    }

    fn issue_l2d_inner(&mut self, req: MemReq, retried: bool) {
        match self.l2d.access(self.now, req) {
            AccessOutcome::MshrFull => self.l2d_retry.push_back(req),
            AccessOutcome::Hit if retried => {
                // Hit consumed no MSHR: refund the retry token.
                self.l2d_retry_budget += 1;
            }
            _ => {}
        }
    }

    fn process_l2(&mut self, mut p: PendingL2, fresh: bool) {
        let asid = self.sm_asid(p.sm);
        match self.l2.access(asid, p.vpn, p.sm) {
            L2MissOutcome::Hit(pfn) => {
                if self.data_faults.is_some() {
                    let check = self.mms[asid.index()].verify(p.vpn, pfn, &self.phys);
                    if check != FrameCheck::Ok {
                        // A dropped shootdown left this stale entry in
                        // the shared L2 TLB; the checksum catches it at
                        // consumption. Purge and re-process — the second
                        // access misses and walks the real mapping.
                        self.mm_fault.detected_stale_hits += 1;
                        if let Some(n) = self.stale_shootdowns.remove(&(asid, p.vpn)) {
                            self.mm_fault.recovered_fills += n;
                        }
                        self.l2.invalidate(asid, p.vpn);
                        self.process_l2(p, fresh);
                        return;
                    }
                }
                if let Some(mm) = self.mms.get_mut(asid.index()) {
                    mm.touch(p.vpn);
                }
                if !fresh {
                    // A retried request that now hits consumed no MSHR
                    // capacity: refund its retry token so the remaining
                    // backlog cannot starve once all walks have drained.
                    self.l2_retry_budget += 1;
                }
                self.xlat_ret.send(
                    self.now + self.cfg.xlat_return_latency,
                    (p.sm, p.vpn, Some(pfn)),
                );
            }
            L2MissOutcome::MissNewWalk => {
                if fresh {
                    self.stats.fresh_l2_misses += 1;
                    self.tenant_fresh_misses[asid.index()] += 1;
                }
                self.launch_walk(asid, p.vpn, p.first_seen, Some((p.sm, p.warp)));
            }
            L2MissOutcome::MissMerged => {
                if fresh {
                    self.stats.fresh_l2_misses += 1;
                    self.tenant_fresh_misses[asid.index()] += 1;
                }
                // A demand miss merging onto a still-in-flight prefetch
                // walk means the prefetch was correct but late. The walk
                // now has a real waiter, so its fills install untagged.
                if self.prefetch_live.remove(&(asid, p.vpn)) {
                    self.prefetch_late += 1;
                }
            }
            L2MissOutcome::MshrFailure => {
                if fresh {
                    self.stats.fresh_l2_misses += 1;
                    self.tenant_fresh_misses[asid.index()] += 1;
                }
                if !p.counted_failure {
                    self.stats.l2_mshr_failure_events += 1;
                    p.counted_failure = true;
                }
                self.l2_retry.push_back(p);
            }
        }
    }

    /// Driver service latency for a faulted walk on `vpn`: a genuinely
    /// unmapped page under demand paging is a major fault (page-fill
    /// cost); anything else is the injected-fault repair path.
    fn driver_delay(&self, asid: Asid, vpn: Vpn) -> u64 {
        if !self.mms.is_empty()
            && self.spaces[asid.index()]
                .radix()
                .translate(vpn, &self.phys)
                .is_none()
        {
            self.cfg.mm.fill_latency
        } else {
            self.cfg.fault_plan.driver_latency
        }
    }

    /// Hands a completed driver fill to the walk machinery through the
    /// fill-completion fault site: the completion may additionally be
    /// duplicated (an extra replayed walk races the real one), dropped
    /// (a generation-counted watchdog recovers it), or delayed. Unarmed
    /// runs go straight to [`GpuSimulator::launch_walk`] with no RNG
    /// draws.
    fn deliver_fill(&mut self, asid: Asid, vpn: Vpn, issued_at: Cycle) {
        let (dup, drop, delay) = match self.data_faults.as_mut() {
            None => (false, false, false),
            Some(df) => {
                let p = &self.cfg.fault_plan;
                (
                    df.fill_complete.fire(p.fill_duplicate_rate),
                    df.fill_complete.fire(p.fill_drop_rate),
                    df.fill_complete.fire(p.fill_delay_rate),
                )
            }
        };
        if dup {
            self.mm_fault.injected_fill_duplicates += 1;
            *self.dup_fills.entry((asid, vpn)).or_insert(0) += 1;
            self.launch_walk(asid, vpn, issued_at, None);
        }
        if drop {
            self.mm_fault.injected_fill_drops += 1;
            let tracker = self.pending_fills.entry((asid, vpn)).or_default();
            tracker.drop_pending += 1;
            let generation = tracker.generation;
            let wake = self.now + self.cfg.fault_plan.backoff_cycles(tracker.retries);
            self.mm_events.send(
                wake,
                MmEvent::FillWatchdog {
                    asid,
                    vpn,
                    generation,
                },
            );
            return;
        }
        if delay {
            self.mm_fault.injected_fill_delays += 1;
            self.mm_events.send(
                self.now + self.cfg.fault_plan.fill_delay_cycles.max(1),
                MmEvent::DelayedReplay {
                    asid,
                    vpn,
                    issued_at,
                },
            );
            return;
        }
        self.launch_walk(asid, vpn, issued_at, None);
    }

    /// A fill watchdog fired. If the fill it guarded is still outstanding
    /// (same generation, a drop still pending), re-issue the completion
    /// with exponential backoff; once the retry budget is spent, escalate
    /// into the fault buffer and hand the page back to the driver replay
    /// path (which is guaranteed — no further injection on that leg).
    fn on_fill_watchdog(&mut self, asid: Asid, vpn: Vpn, generation: u64) {
        let max_retries = self.cfg.fault_plan.max_retries;
        let Some(tracker) = self.pending_fills.get_mut(&(asid, vpn)) else {
            return; // Fill already completed and was consumed.
        };
        if tracker.generation != generation || tracker.drop_pending == 0 {
            return; // Stale watchdog: the page was refilled since.
        }
        self.mm_fault.fill_watchdog_timeouts += 1;
        tracker.retries += 1;
        if tracker.retries > max_retries {
            let pending = std::mem::take(&mut tracker.drop_pending);
            tracker.retries = 0;
            self.mm_fault.escalated_fills += pending;
            self.hw_faults.record(FaultRecord {
                asid,
                vpn,
                level: 0,
                at: self.now,
            });
            self.mm_events.send(
                self.now + self.cfg.fault_plan.driver_latency.max(1),
                MmEvent::DelayedReplay {
                    asid,
                    vpn,
                    issued_at: self.now,
                },
            );
            return;
        }
        let retries = tracker.retries;
        self.mm_fault.fill_retries += 1;
        if let Some(o) = self.obs.as_deref_mut() {
            o.instant(
                SpanKind::FillRetry,
                0,
                self.now.value(),
                vpn.value(),
                u64::from(retries),
            );
        }
        let redropped = {
            let df = self
                .data_faults
                .as_mut()
                .expect("watchdog without armed data faults");
            df.fill_complete.fire(self.cfg.fault_plan.fill_drop_rate)
        };
        if redropped {
            self.mm_fault.injected_fill_drops += 1;
            let tracker = self
                .pending_fills
                .get_mut(&(asid, vpn))
                .expect("tracker vanished");
            tracker.drop_pending += 1;
            let wake = self.now + self.cfg.fault_plan.backoff_cycles(tracker.retries);
            self.mm_events.send(
                wake,
                MmEvent::FillWatchdog {
                    asid,
                    vpn,
                    generation,
                },
            );
        } else {
            self.launch_walk(asid, vpn, self.now, None);
        }
    }

    fn launch_walk(&mut self, asid: Asid, vpn: Vpn, issued_at: Cycle, owner: WalkOwner) {
        let req = WalkRequest::with_owner(vpn, issued_at, owner).for_asid(asid);
        match self.cfg.mode {
            TranslationMode::HardwarePtw
            | TranslationMode::HashedPtw
            | TranslationMode::IdealPtw => {
                if self.at_walk_cap(asid) || !self.ptw.enqueue(req) {
                    self.pwb_retry.push_back(req);
                } else {
                    self.note_walk_started(asid);
                }
            }
            TranslationMode::SoftWalker { .. } => {
                self.dispatch_q.push_back((asid, vpn, issued_at));
            }
            TranslationMode::Hybrid { .. } => {
                if self.ptw.free_walkers() > 0 && !self.at_walk_cap(asid) && self.ptw.enqueue(req) {
                    // Hardware took it.
                    self.note_walk_started(asid);
                } else {
                    self.dispatch_q.push_back((asid, vpn, issued_at));
                }
            }
        }
    }

    fn dispatch_software_walks(&mut self) {
        if self.dispatch_q.is_empty() {
            return;
        }
        let stalled: Vec<bool> = if self.cfg.distributor_policy == DistributorPolicy::StallAware {
            self.sms.iter().map(Sm::is_stalled).collect()
        } else {
            Vec::new()
        };
        let multi = self.cfg.tenants.is_some();
        // Bounded head rotation: a capped (QoS) or placement-starved
        // (partitioned) tenant's head request moves to the back so it
        // cannot head-block other tenants. Single-tenant runs never
        // rotate — they keep the exact historical front/break behavior.
        let mut rotations = self.dispatch_q.len();
        for _ in 0..self.cfg.dispatches_per_cycle {
            let Some(&(asid, vpn, issued_at)) = self.dispatch_q.front() else {
                break;
            };
            if multi && self.at_walk_cap(asid) {
                if rotations == 0 {
                    break;
                }
                rotations -= 1;
                let head = self.dispatch_q.pop_front().expect("checked front");
                self.dispatch_q.push_back(head);
                continue;
            }
            let allowed: &[bool] = self
                .tenant_masks
                .get(asid.index())
                .map_or(&[], Vec::as_slice);
            let Some(sm) = self.distributor.select_core_among(&stalled, allowed) else {
                if multi && !allowed.is_empty() && rotations > 0 {
                    // Partitioned: this tenant's SMs are saturated, but
                    // another tenant's partition may still have room.
                    rotations -= 1;
                    let head = self.dispatch_q.pop_front().expect("checked front");
                    self.dispatch_q.push_back(head);
                    continue;
                }
                break;
            };
            self.dispatch_q.pop_front();
            self.note_walk_started(asid);
            if let Some(o) = self.obs.as_deref_mut() {
                o.instant(
                    SpanKind::Dispatch,
                    0,
                    self.now.value(),
                    vpn.value(),
                    sm.index() as u64,
                );
                o.reg.inc(o.c_dispatches, 1);
            }
            let start = self.pwc.lookup(asid, vpn);
            let mut req =
                SwWalkRequest::new(vpn, issued_at, self.now, start.level, start.node_base)
                    .for_asid(asid);
            if self.pending_fills.contains_key(&(asid, vpn)) {
                req = req.as_fill_replay();
            }
            self.sw_to_sm
                .send(self.now + self.cfg.l2_tlb_latency, (sm.index(), req));
        }
    }

    /// WaSP-style translation prefetch: peek the next loads of a rotating
    /// window of warp streams, and for pages that are neither translated
    /// nor being walked, start a software walk on a core whose PW Warp
    /// has idle threads. Prefetch walks register [`PREFETCH_REQUESTER`]
    /// as their MSHR waiter and install tagged fills, so a demand miss
    /// arriving first merges normally (counted late) and an unused fill
    /// is preferentially evicted. One branch when disabled.
    fn issue_prefetches(&mut self) {
        let pf = self.cfg.prefetch;
        if !pf.enabled || self.pw_warps.is_empty() {
            return;
        }
        let idle: Vec<bool> = self
            .pw_warps
            .iter()
            .map(|p| p.idle_thread_slots() > 0)
            .collect();
        if !idle.iter().any(|&b| b) {
            return;
        }
        let streams = self.sms.len() * self.cfg.max_warps;
        let mut issued = 0;
        // Bounding the scan keeps the per-cycle cost proportional to the
        // configured degree, not to the SM x warp product.
        let scan_cap = (pf.degree as usize * 4).min(streams);
        'streams: for _ in 0..scan_cap {
            if issued >= pf.degree {
                break;
            }
            let stream = self.prefetch_cursor % streams;
            self.prefetch_cursor = (stream + 1) % streams;
            let sm = SmId::new((stream / self.cfg.max_warps) as u16);
            let warp = WarpId::new((stream % self.cfg.max_warps) as u16);
            let asid = self.sm_asid(sm);
            if self.at_walk_cap(asid) {
                // QoS: the issuing tenant is at its walk cap — demand
                // walks must not compete with its speculation either.
                continue 'streams;
            }
            // Partitioned: a tenant's prefetch walks may only occupy PW
            // Warp threads inside that tenant's own SM partition.
            let tenant_idle: Vec<bool> = match self.tenant_masks.get(asid.index()) {
                Some(mask) => idle
                    .iter()
                    .zip(mask.iter())
                    .map(|(&i, &m)| i && m)
                    .collect(),
                None => Vec::new(),
            };
            let idle_view: &[bool] = if tenant_idle.is_empty() {
                &idle
            } else {
                &tenant_idle
            };
            for vpn in self.source.peek_load_vpns(sm, warp, pf.lookahead) {
                if issued >= pf.degree {
                    break 'streams;
                }
                let (valid, pending) = self.l2.tlb().tag_population(asid, vpn);
                if valid > 0
                    || pending > 0
                    || self.l2.is_walk_in_flight(asid, vpn)
                    || self.prefetch_live.contains(&(asid, vpn))
                    || self.pending_fills.contains_key(&(asid, vpn))
                    || self.spaces[asid.index()]
                        .radix()
                        .translate(vpn, &self.phys)
                        .is_none()
                {
                    continue;
                }
                let Some(target) = self.distributor.select_idle_core(idle_view) else {
                    break 'streams;
                };
                match self.l2.access(asid, vpn, PREFETCH_REQUESTER) {
                    L2MissOutcome::MissNewWalk => {
                        self.prefetch_live.insert((asid, vpn));
                        self.prefetch_issued += 1;
                        self.note_walk_started(asid);
                        issued += 1;
                        if let Some(o) = self.obs.as_deref_mut() {
                            o.instant(
                                SpanKind::Prefetch,
                                0,
                                self.now.value(),
                                vpn.value(),
                                target.index() as u64,
                            );
                            // Prefetch completions count as sw_walks, so
                            // charging a dispatch here keeps the pinned
                            // dispatches == sw_walks invariant.
                            o.reg.inc(o.c_dispatches, 1);
                        }
                        let start = self.pwc.lookup(asid, vpn);
                        let req = SwWalkRequest::new(
                            vpn,
                            self.now,
                            self.now,
                            start.level,
                            start.node_base,
                        )
                        .for_asid(asid)
                        .as_prefetch();
                        self.sw_to_sm
                            .send(self.now + self.cfg.l2_tlb_latency, (target.index(), req));
                    }
                    // No MSHR capacity (or a same-cycle race filled the
                    // entry): release the charged slot and stop — the
                    // condition will not clear within this cycle.
                    _ => {
                        self.distributor.on_fill(target);
                        break 'streams;
                    }
                }
            }
        }
    }

    /// Shoots `vpn` out of the L1 TLB of every SM of `asid` that may
    /// cache it, as marked in the holder directory, and clears its entry.
    /// An unmarked SM has not received the translation since the page's
    /// last shootdown, so an `invalidate` there would find no tag and
    /// touch nothing (no tick, LRU state or counter).
    fn shoot_down_l1(&mut self, asid: Asid, vpn: Vpn) {
        let mut bits = self.l1_holders.remove(&(asid, vpn)).unwrap_or(0);
        while bits != 0 {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            for i in (bit..self.sms.len()).step_by(64) {
                if self.sm_asids[i] == asid {
                    let dropped = self.sms[i].invalidate_translation(vpn);
                    debug_assert!(dropped <= 1, "duplicate L1 TLB ways for {vpn:?}");
                }
            }
        }
        if cfg!(debug_assertions) {
            for (i, sm) in self.sms.iter().enumerate() {
                debug_assert!(
                    self.sm_asids[i] != asid || !sm.holds_translation(vpn),
                    "SM {i} still holds {vpn:?} after its shootdown"
                );
            }
        }
    }

    fn finish_translation(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        pfn: Option<Pfn>,
        queue: u64,
        access: u64,
    ) {
        // End-to-end data check: before the translation is delivered to
        // its consumers, re-derive the frame's checksum. A mismatch
        // quarantines the page (retiring repeat-offender frames) and
        // hands it back to the driver for a re-fill; the MSHR waiters
        // stay parked until the re-filled walk completes.
        if self.data_faults.is_some() {
            if let Some(p) = pfn {
                let check = self.mms[asid.index()].verify(vpn, p, &self.phys);
                if check != FrameCheck::Ok {
                    match check {
                        FrameCheck::Corrupt => {
                            self.mm_fault.detected_corruptions += 1;
                            let retired = self.mms[asid.index()].quarantine_page(
                                vpn,
                                &mut self.spaces[asid.index()],
                                &mut self.phys,
                            );
                            if retired {
                                self.mm_fault.retired_fills += 1;
                            } else {
                                self.mm_fault.recovered_fills += 1;
                            }
                        }
                        FrameCheck::Stale => {
                            self.mm_fault.detected_stale_hits += 1;
                            if let Some(n) = self.stale_shootdowns.remove(&(asid, vpn)) {
                                self.mm_fault.recovered_fills += n;
                            }
                        }
                        FrameCheck::Ok => unreachable!(),
                    }
                    self.l2.invalidate(asid, vpn);
                    self.shoot_down_l1(asid, vpn);
                    if let Some(t) = self.pending_fills.remove(&(asid, vpn)) {
                        self.mm_fault.recovered_fills += t.drop_pending;
                    }
                    let delay = self.driver_delay(asid, vpn);
                    self.driver_q.send(
                        self.now + delay,
                        DriverReq {
                            asid,
                            vpn,
                            issued_at: self.now,
                            stalls: 0,
                            refill: true,
                        },
                    );
                    return;
                }
            }
        }
        match self.pending_fills.remove(&(asid, vpn)) {
            Some(t) => self.mm_fault.recovered_fills += t.drop_pending,
            None => {
                if pfn.is_some() {
                    if let Some(n) = self.dup_fills.get_mut(&(asid, vpn)) {
                        // Phantom duplicated completion: the real one
                        // already finished this fill and released the
                        // waiters, so this racing walk is absorbed.
                        self.mm_fault.recovered_fills += 1;
                        *n -= 1;
                        if *n == 0 {
                            self.dup_fills.remove(&(asid, vpn));
                        }
                        return;
                    }
                }
            }
        }
        if pfn.is_some() {
            if let Some(n) = self.stale_shootdowns.remove(&(asid, vpn)) {
                // A fresh walk re-established the mapping the dropped
                // shootdown left dangling: the hazard is gone.
                self.mm_fault.recovered_fills += n;
            }
            if let Some(mm) = self.mms.get_mut(asid.index()) {
                mm.touch(vpn);
            }
        }
        self.stats.walk.record(queue, access);
        self.tenant_walks[asid.index()] += 1;
        if let Some(o) = self.obs.as_deref_mut() {
            o.reg.observe(o.h_walk_queue, queue);
            o.reg.observe(o.h_walk_access, access);
            o.reg.observe(o.h_walk_total, queue + access);
        }
        self.l2_retry_budget = self.l2_retry_budget.saturating_add(2);
        // A walk that is still a pure prefetch at completion (no demand
        // miss merged onto it) installs its fills tagged, so the TLB can
        // track whether the prefetch ever pays off. A failed prefetch
        // walk is accounted as evicted — it produced nothing.
        let pure_prefetch = self.prefetch_live.remove(&(asid, vpn));
        let waiters = match pfn {
            Some(p) if pure_prefetch => self.l2.complete_walk_prefetched(asid, vpn, p),
            Some(p) => self.l2.complete_walk(asid, vpn, p),
            None => {
                if pure_prefetch {
                    self.prefetch_failed += 1;
                }
                self.stats.faults += 1;
                self.l2.fail_walk(asid, vpn)
            }
        };
        for sm in waiters {
            if sm == PREFETCH_REQUESTER {
                continue;
            }
            self.xlat_ret
                .send(self.now + self.cfg.xlat_return_latency, (sm, vpn, pfn));
        }
    }

    fn finalize(mut self) -> SimStats {
        // Charge the cycles since each SM's last tick, up to and including
        // the final step's.
        let end = self.now + 1;
        for sm in &mut self.sms {
            sm.catch_up(end);
        }
        for sm in &self.sms {
            let s = sm.stats();
            let agg = &mut self.stats.sm;
            agg.issued_cycles += s.issued_cycles;
            agg.pw_issue_cycles += s.pw_issue_cycles;
            agg.mem_stall_cycles += s.mem_stall_cycles;
            agg.scoreboard_stall_cycles += s.scoreboard_stall_cycles;
            agg.idle_cycles += s.idle_cycles;
            agg.instructions += s.instructions;
            agg.loads += s.loads;
            agg.l1_mshr_failures += s.l1_mshr_failures;
            agg.xlat_faults += s.xlat_faults;
            let t = sm.l1_tlb_stats();
            self.stats.l1_tlb.hits += t.hits;
            self.stats.l1_tlb.misses += t.misses;
            self.stats.l1_tlb.fills += t.fills;
            self.stats.l1_tlb.evictions += t.evictions;
            self.stats.l1_tlb.dead_fills += t.dead_fills;
            self.stats.l1_tlb.prefetch_hits += t.prefetch_hits;
            self.stats.l1_tlb.prefetch_evictions += t.prefetch_evictions;
            self.stats.l1_tlb.shared_joins += t.shared_joins;
            let c = sm.l1d_stats();
            self.stats.l1d.accesses += c.accesses;
            self.stats.l1d.hits += c.hits;
            self.stats.l1d.misses += c.misses;
            self.stats.l1d.merges += c.merges;
            self.stats.l1d.mshr_failures += c.mshr_failures;
            self.stats.l1d.evictions += c.evictions;
        }
        self.stats.instructions = self.stats.sm.instructions;
        self.stats.loads = self.stats.sm.loads;
        self.stats.l2_tlb = self.l2.tlb_stats();
        self.stats.l2_mshr = self.l2.mshr_stats();
        self.stats.in_tlb = self.l2.in_tlb_stats();
        self.stats.l2d = self.l2d.stats();
        self.stats.dram = self.dram.stats().clone();
        let p = self.pwc.stats();
        self.stats.pwc_hits = p.hits;
        self.stats.pwc_misses = p.misses;
        for pw in &self.pw_warps {
            let s = pw.stats();
            let agg = &mut self.stats.pw_warp;
            agg.walks_completed += s.walks_completed;
            agg.faults += s.faults;
            agg.instructions_issued += s.instructions_issued;
            agg.ldpt_reads += s.ldpt_reads;
            agg.total_softpwb_wait += s.total_softpwb_wait;
            agg.total_execution += s.total_execution;
            agg.fill_replays += s.fill_replays;
            agg.prefetch_walks += s.prefetch_walks;
        }
        // Translation-policy counters. The conservation ledger closes at
        // any stopping point: every issued prefetch is useful (first
        // demand hit on its fill), late (demand merged onto its walk),
        // evicted (fill discarded untouched, or the walk failed), or
        // still in flight (walk live, or fill resident and untouched).
        self.stats.tlb_dead_fills = self.stats.l1_tlb.dead_fills + self.l2.tlb_stats().dead_fills;
        self.stats.prefetch_issued = self.prefetch_issued;
        self.stats.prefetch_useful = self.l2.tlb_stats().prefetch_hits;
        self.stats.prefetch_late = self.prefetch_late;
        self.stats.prefetch_evicted = self.l2.tlb_stats().prefetch_evictions + self.prefetch_failed;
        self.stats.prefetch_in_flight =
            self.prefetch_live.len() as u64 + self.l2.tlb().prefetched_resident() as u64;
        for mm in &self.mms {
            let s = mm.stats();
            self.stats.mm.major_faults += s.major_faults;
            self.stats.mm.major_replays += s.major_replays;
            self.stats.mm.evictions += s.evictions;
            self.stats.mm.coalesces_64k += s.coalesces_64k;
            self.stats.mm.coalesces_2m += s.coalesces_2m;
            self.stats.mm.splinters += s.splinters;
            self.stats.mm.resident_peak += s.resident_peak;
            // Corruptions caught by the eviction scrub (and the frames it
            // retired) are counted inside the manager.
            self.mm_fault.merge(&mm.fault_stats());
        }
        if !self.mms.is_empty() {
            self.stats.mm.sw_fill_replays = self.stats.pw_warp.fill_replays;
        }
        // Injection credits that never resolved in-run drain here:
        // duplicated completions whose phantom walk was coalesced away
        // and dangling dropped-shootdown entries are harmless by
        // construction (recovered); drops whose watchdog never got to
        // fire count as escalated, mirroring their in-run terminal state.
        // A run stopped at the cycle cap can still hold injections with
        // no terminal state (a corrupted frame nobody consumed yet), so
        // the data-path ledger closes on drained runs only.
        self.mm_fault.recovered_fills += self.dup_fills.values().sum::<u64>();
        self.mm_fault.recovered_fills += self.stale_shootdowns.values().sum::<u64>();
        self.mm_fault.escalated_fills += self
            .pending_fills
            .values()
            .map(|t| t.drop_pending)
            .sum::<u64>();
        self.stats.mm_fault = self.mm_fault;
        self.stats.distributor = self.distributor.stats();
        let mut fault = self.fault_counters;
        fault.merge(&self.ptw.fault_stats());
        for pw in &self.pw_warps {
            fault.merge(&pw.fault_stats());
        }
        fault.merge(&self.l2d.fault_stats());
        fault.merge(&self.dram.fault_stats());
        fault.fault_buffer_overflow_drops += self.hw_faults.overflow_dropped();
        self.stats.fault = fault;
        if let Some(mut o) = self.obs.take() {
            let closed: Vec<Span> = o.busy.iter_mut().filter_map(BusyTracker::flush).collect();
            for s in closed {
                o.push(s);
            }
            for sm in &self.sms {
                o.reg.observe(o.h_sm_stall, sm.stats().stall_cycles());
            }
            if let Some(mut stream) = o.stream.take() {
                // Close the trace: the staged tail is written to the
                // sink *and* retained in the in-memory report, so a run
                // that never overflowed its staging buffer still yields
                // a complete (cacheable) report.
                stream
                    .finish(
                        &o.reg,
                        o.rec.spans(),
                        o.rec.dropped(),
                        o.rec.dropped_by_kind(),
                        o.rec.flushed(),
                    )
                    .expect("SWTB trace sink write failed");
            }
            self.stats.obs = Some(Box::new(ObsReport::from_instruments(o.reg, o.rec)));
        }
        if let Some(t) = self.cfg.tenants.clone() {
            for i in 0..t.len() {
                let mut ts = crate::stats::TenantStats {
                    fresh_l2_misses: self.tenant_fresh_misses[i],
                    walks: self.tenant_walks[i],
                    ..Default::default()
                };
                for sm in &self.sms[t.sm_range(i)] {
                    ts.instructions += sm.stats().instructions;
                    ts.loads += sm.stats().loads;
                    ts.cycles = ts.cycles.max(sm.last_issue_cycle().value());
                }
                self.stats.tenants.push(ts);
            }
        }
        let channels = self.cfg.dram.channels;
        self.stats.finish(self.now, channels);
        // Every simulation a debug build runs checks the conservation
        // ledgers; release builds leave the check to the runner.
        debug_assert_eq!(self.stats.check_ledgers(), Ok(()), "conservation ledgers");
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_workloads::{by_abbr, WorkloadParams};

    fn run_bench(abbr: &str, mode: TranslationMode, instrs: u32) -> SimStats {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = mode;
        let spec = by_abbr(abbr).unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: instrs,
            footprint_percent: 20,
            page_size: cfg.page_size,
        });
        GpuSimulator::new(cfg, Box::new(wl)).run()
    }

    #[test]
    fn baseline_runs_regular_benchmark() {
        let s = run_bench("2dc", TranslationMode::HardwarePtw, 4);
        assert!(!s.timed_out);
        assert!(s.instructions > 0);
        assert!(s.l1_tlb.hit_rate() > 0.5, "regular app hits the L1 TLB");
        assert_eq!(s.faults, 0);
    }

    #[test]
    fn baseline_runs_irregular_benchmark() {
        let s = run_bench("gups", TranslationMode::HardwarePtw, 3);
        assert!(!s.timed_out);
        assert!(s.walk.translations > 0, "walks happened");
        assert!(
            s.walk.queue_fraction() > 0.5,
            "queueing dominates at 32 PTWs: {}",
            s.walk.queue_fraction()
        );
    }

    /// A configuration with real translation pressure: enough SMs that
    /// the L1 MSHR fan-in (32 per SM) far exceeds the 128 L2 TLB MSHRs.
    fn contended(abbr: &str, mode: TranslationMode, instrs: u32) -> SimStats {
        let mut cfg = GpuConfig::quick_test();
        cfg.sms = 16;
        cfg.max_warps = 16;
        cfg.mode = mode;
        cfg.l2_mshr.entries = 64;
        let spec = by_abbr(abbr).unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: instrs,
            // Full footprint: must exceed the 64 MB L2 TLB reach for the
            // translation system to matter at all.
            footprint_percent: 100,
            page_size: cfg.page_size,
        });
        GpuSimulator::new(cfg, Box::new(wl)).run()
    }

    #[test]
    fn softwalker_beats_baseline_on_irregular() {
        let base = contended("gups", TranslationMode::HardwarePtw, 3);
        let sw = contended("gups", TranslationMode::SoftWalker { in_tlb_mshr: true }, 3);
        assert!(!sw.timed_out);
        assert_eq!(sw.instructions, base.instructions, "same work");
        let speedup = sw.speedup_over(&base);
        assert!(speedup > 1.3, "speedup {speedup}");
        assert!(sw.sw_walks > 0);
        assert_eq!(sw.hw_walks, 0);
    }

    #[test]
    fn ideal_is_at_least_as_fast_as_baseline() {
        let base = run_bench("spmv", TranslationMode::HardwarePtw, 3);
        let ideal = run_bench("spmv", TranslationMode::IdealPtw, 3);
        assert!(ideal.speedup_over(&base) >= 1.0);
        assert_eq!(ideal.l2_mshr_failure_events, 0, "ideal MSHRs never fail");
    }

    #[test]
    fn hashed_mode_translates_correctly() {
        let s = run_bench("xsb", TranslationMode::HashedPtw, 2);
        assert!(!s.timed_out);
        assert_eq!(s.faults, 0, "hashed table covers the same mappings");
        assert!(s.walk.translations > 0);
    }

    #[test]
    fn hybrid_uses_both_walker_kinds_under_pressure() {
        let s = run_bench("gups", TranslationMode::Hybrid { in_tlb_mshr: true }, 3);
        assert!(!s.timed_out);
        assert!(s.hw_walks > 0, "hardware walkers used first");
        assert!(s.sw_walks > 0, "overflow went to PW warps");
    }

    #[test]
    fn in_tlb_mshr_reduces_failures() {
        let without = contended(
            "gups",
            TranslationMode::SoftWalker { in_tlb_mshr: false },
            3,
        );
        let with = contended("gups", TranslationMode::SoftWalker { in_tlb_mshr: true }, 3);
        assert!(
            without.l2_mshr_failure_events > 0,
            "contended config must saturate the 64 dedicated MSHRs"
        );
        assert!(
            with.l2_mshr_failure_events < without.l2_mshr_failure_events,
            "with={} without={}",
            with.l2_mshr_failure_events,
            without.l2_mshr_failure_events
        );
    }

    #[test]
    fn force_in_tlb_enables_overflow_for_hardware_modes() {
        let base = contended("gups", TranslationMode::HardwarePtw, 3);
        assert_eq!(
            base.in_tlb.in_tlb_allocations, 0,
            "baseline never allocates"
        );
        let mut cfg = GpuConfig::quick_test();
        cfg.sms = 16;
        cfg.max_warps = 16;
        cfg.l2_mshr.entries = 64;
        cfg.force_in_tlb = true;
        let spec = by_abbr("gups").unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 3,
            footprint_percent: 100,
            page_size: cfg.page_size,
        });
        let forced = GpuSimulator::new(cfg, Box::new(wl)).run();
        assert!(
            forced.in_tlb.in_tlb_allocations > 0,
            "forced In-TLB must actually engage"
        );
    }

    #[test]
    fn walk_trace_collects_up_to_cap() {
        let mut cfg = GpuConfig::quick_test();
        cfg.walk_trace_cap = 16;
        let spec = by_abbr("xsb").unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 2,
            footprint_percent: 100,
            page_size: cfg.page_size,
        });
        let s = GpuSimulator::new(cfg, Box::new(wl)).run();
        // The cap bounds the trace; how many walks the workload actually
        // produces may evolve with the timing model.
        assert!(!s.walk_trace.is_empty(), "tracing enabled but empty");
        assert!(
            s.walk_trace.len() <= 16,
            "cap exceeded: {}",
            s.walk_trace.len()
        );
        for r in s.walk_trace.records() {
            assert!(r.issued_at <= r.started_at);
            assert!(r.started_at <= r.completed_at);
            assert_eq!(r.walker, crate::WalkerKind::Hardware);
        }
    }

    fn run_with_plan(mode: TranslationMode, plan: swgpu_types::FaultPlan) -> SimStats {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = mode;
        cfg.fault_plan = plan;
        let spec = by_abbr("gups").unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 3,
            footprint_percent: 20,
            page_size: cfg.page_size,
        });
        GpuSimulator::new(cfg, Box::new(wl)).run()
    }

    fn storm_plan() -> swgpu_types::FaultPlan {
        swgpu_types::FaultPlan {
            seed: 0xf00d,
            pte_corrupt_rate: 0.05,
            mem_drop_rate: 0.05,
            mem_delay_rate: 0.05,
            stuck_thread_rate: 0.02,
            ..swgpu_types::FaultPlan::default()
        }
    }

    fn assert_conserved(s: &SimStats) {
        assert!(!s.timed_out, "faulty run must still drain");
        assert!(
            s.fault.injected_total() > 0,
            "storm rates must actually inject something"
        );
        assert_eq!(s.check_ledgers(), Ok(()));
        // The footprint is fully mapped, so the driver can repair every
        // escalation: none may surface as a real page fault.
        assert_eq!(s.fault.unrecoverable_faults, 0);
        assert_eq!(s.faults, 0, "injected faults must not leak to the UVM path");
        assert_eq!(s.sm.xlat_faults, 0);
        assert_eq!(
            s.fault.fault_replays, s.fault.fault_escalations,
            "every escalation must be replayed"
        );
    }

    #[test]
    fn fault_storm_recovers_on_software_walkers() {
        let s = run_with_plan(
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            storm_plan(),
        );
        assert_conserved(&s);
        assert!(s.fault.injected_stuck_threads > 0 || s.fault.injected_pte_corruptions > 0);
    }

    #[test]
    fn fault_storm_recovers_on_hardware_walkers() {
        let s = run_with_plan(TranslationMode::HardwarePtw, storm_plan());
        assert_conserved(&s);
    }

    #[test]
    fn fault_storm_recovers_on_hybrid() {
        let s = run_with_plan(TranslationMode::Hybrid { in_tlb_mshr: true }, storm_plan());
        assert_conserved(&s);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let a = run_with_plan(
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            storm_plan(),
        );
        let b = run_with_plan(
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            storm_plan(),
        );
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "same seed must replay byte-identically"
        );
        let mut reseeded = storm_plan();
        reseeded.seed ^= 1;
        let c = run_with_plan(TranslationMode::SoftWalker { in_tlb_mshr: true }, reseeded);
        assert_ne!(
            a.fault, c.fault,
            "a different seed must draw a different schedule"
        );
    }

    #[test]
    fn zero_rate_plan_is_inert() {
        // A seed alone must not arm anything.
        let plan = swgpu_types::FaultPlan {
            seed: 0xdead_beef,
            ..Default::default()
        };
        let s = run_with_plan(TranslationMode::SoftWalker { in_tlb_mshr: true }, plan);
        assert!(
            !s.fault.any(),
            "zero rates must leave every counter at zero"
        );
        assert!(!s.to_json().contains("fault_"));
    }

    /// A demand-paged cell with eviction pressure (small resident
    /// budget), the substrate every data-path fault site needs.
    fn run_mm_with_plan(mode: TranslationMode, plan: swgpu_types::FaultPlan) -> SimStats {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = mode;
        cfg.fault_plan = plan;
        cfg.mm = swgpu_types::MmConfig {
            resident_page_budget: 64,
            ..swgpu_types::MmConfig::demand_paged()
        };
        let spec = by_abbr("gups").unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 3,
            footprint_percent: 20,
            page_size: cfg.page_size,
        });
        GpuSimulator::new(cfg, Box::new(wl)).run()
    }

    fn data_storm_plan() -> swgpu_types::FaultPlan {
        swgpu_types::FaultPlan {
            seed: 0xfee1_dead,
            fill_drop_rate: 0.10,
            fill_delay_rate: 0.05,
            fill_duplicate_rate: 0.05,
            fill_corrupt_rate: 0.05,
            shootdown_drop_rate: 0.10,
            driver_stuck_rate: 0.05,
            ..swgpu_types::FaultPlan::default()
        }
    }

    fn assert_mm_conserved(s: &SimStats) {
        assert!(!s.timed_out, "faulted demand-paged run must still drain");
        let f = &s.mm_fault;
        assert!(
            f.injected_conserved() > 0,
            "storm rates must actually inject something: {f:?}"
        );
        assert_eq!(s.check_ledgers(), Ok(()));
        assert_eq!(s.faults, 0, "data faults must not surface as real ones");
        assert_eq!(s.sm.xlat_faults, 0);
    }

    #[test]
    fn data_path_storm_recovers_on_software_walkers() {
        let s = run_mm_with_plan(
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            data_storm_plan(),
        );
        assert_mm_conserved(&s);
        assert!(s.mm_fault.injected_fill_drops > 0);
        assert!(s.mm_fault.fill_watchdog_timeouts > 0);
    }

    #[test]
    fn data_path_storm_recovers_on_hardware_walkers() {
        let s = run_mm_with_plan(TranslationMode::HardwarePtw, data_storm_plan());
        assert_mm_conserved(&s);
    }

    #[test]
    fn data_path_storm_recovers_on_hybrid() {
        let s = run_mm_with_plan(
            TranslationMode::Hybrid { in_tlb_mshr: true },
            data_storm_plan(),
        );
        assert_mm_conserved(&s);
    }

    #[test]
    fn data_path_storm_is_deterministic() {
        let a = run_mm_with_plan(TranslationMode::HardwarePtw, data_storm_plan());
        let b = run_mm_with_plan(TranslationMode::HardwarePtw, data_storm_plan());
        assert_eq!(a.to_json(), b.to_json(), "same seed must replay bytewise");
    }

    #[test]
    fn zero_rate_data_plan_is_byte_identical_on_mm() {
        // An armed-but-zero plan (seed set, every data rate 0.0) must not
        // perturb a demand-paged run in any observable way.
        let unarmed = run_mm_with_plan(TranslationMode::HardwarePtw, Default::default());
        let armed = run_mm_with_plan(
            TranslationMode::HardwarePtw,
            swgpu_types::FaultPlan {
                seed: 0xdead_beef,
                ..Default::default()
            },
        );
        assert!(unarmed.mm.major_faults > 0, "cell must demand-page");
        assert!(!armed.mm_fault.any(), "zero rates must not count anything");
        assert_eq!(unarmed.to_json(), armed.to_json());
    }

    fn run_observed(mode: TranslationMode) -> SimStats {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = mode;
        cfg.obs = swgpu_obs::ObsConfig {
            sample_interval: 64,
            ..swgpu_obs::ObsConfig::enabled()
        };
        let spec = by_abbr("gups").unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 3,
            footprint_percent: 20,
            page_size: cfg.page_size,
        });
        GpuSimulator::new(cfg, Box::new(wl)).run()
    }

    #[test]
    fn disabled_obs_attaches_no_report() {
        let s = run_bench("gups", TranslationMode::HardwarePtw, 3);
        assert!(s.obs.is_none(), "obs off must not allocate a report");
    }

    #[test]
    fn observed_software_run_captures_walk_lifecycle() {
        let s = run_observed(TranslationMode::SoftWalker { in_tlb_mshr: true });
        assert!(!s.timed_out);
        let obs = s.obs.as_deref().expect("obs armed");
        let kinds: Vec<_> = obs.spans.iter().map(|sp| sp.kind).collect();
        for kind in [
            swgpu_obs::SpanKind::SwQueue,
            swgpu_obs::SpanKind::SwPwbWait,
            swgpu_obs::SpanKind::SwExec,
            swgpu_obs::SpanKind::PteRead,
            swgpu_obs::SpanKind::Dispatch,
            swgpu_obs::SpanKind::PwWarpBusy,
        ] {
            assert!(kinds.contains(&kind), "missing {kind:?} spans");
        }
        // Span ordering invariants hold on every lifecycle interval.
        for sp in &obs.spans {
            assert!(sp.start <= sp.end, "reversed span {sp:?}");
        }
        // The walk-latency histograms saw exactly the translations the
        // scalar stats counted.
        let total = obs.histogram("walk_total_cycles").expect("hist");
        assert_eq!(total.count(), s.walk.translations);
        assert!(total.percentile(0.99) >= total.percentile(0.50));
        // Occupancy series sampled on the configured 64-cycle interval.
        assert_eq!(obs.interval, 64);
        let occ = obs.time_series("softpwb_occupancy").expect("series");
        assert_eq!(occ.total_pushed(), s.cycles / 64 + 1);
        // Every dispatched walk shows up on the dispatch counter.
        assert_eq!(obs.counter("distributor_dispatches"), Some(s.sw_walks));
    }

    #[test]
    fn observed_hardware_run_captures_hw_spans() {
        let s = run_observed(TranslationMode::HardwarePtw);
        let obs = s.obs.as_deref().expect("obs armed");
        let kinds: Vec<_> = obs.spans.iter().map(|sp| sp.kind).collect();
        assert!(kinds.contains(&swgpu_obs::SpanKind::HwQueue));
        assert!(kinds.contains(&swgpu_obs::SpanKind::HwWalk));
        assert!(kinds.contains(&swgpu_obs::SpanKind::PteRead));
        assert!(obs.counter("pte_reads").unwrap_or(0) > 0);
    }

    #[test]
    fn observing_does_not_perturb_timing() {
        let base = run_bench("gups", TranslationMode::SoftWalker { in_tlb_mshr: true }, 3);
        let observed = run_observed(TranslationMode::SoftWalker { in_tlb_mshr: true });
        assert_eq!(base.cycles, observed.cycles, "obs must be timing-neutral");
        assert_eq!(base.to_json(), observed.to_json());
    }

    /// A byte sink the test keeps a handle on after the simulator
    /// consumes the `Box<dyn Write>`.
    #[derive(Clone, Default)]
    struct SharedBuf(std::rc::Rc<std::cell::RefCell<Vec<u8>>>);

    impl std::io::Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.borrow_mut().extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn observed_sim(mode: TranslationMode, span_capacity: usize) -> GpuSimulator {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = mode;
        cfg.obs = swgpu_obs::ObsConfig {
            sample_interval: 64,
            span_capacity,
            ..swgpu_obs::ObsConfig::enabled()
        };
        let spec = by_abbr("gups").unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 3,
            footprint_percent: 20,
            page_size: cfg.page_size,
        });
        GpuSimulator::new(cfg, Box::new(wl))
    }

    #[test]
    fn tiny_staging_buffer_streams_without_drops() {
        let sw = TranslationMode::SoftWalker { in_tlb_mshr: true };
        // Reference: a huge in-memory recorder retains every span.
        let full = observed_sim(sw, 1 << 20).run();
        let full_obs = full.obs.as_deref().expect("obs armed");
        assert_eq!(full_obs.spans_dropped, 0);

        // Streamed: a staging buffer far smaller than the span count.
        let buf = SharedBuf::default();
        let mut sim = observed_sim(sw, 64);
        assert!(sim.attach_trace_sink(Box::new(buf.clone())));
        let stats = sim.run();
        let obs = stats.obs.as_deref().expect("obs armed");
        assert_eq!(obs.spans_dropped, 0, "a sink-backed recorder never drops");
        assert!(
            obs.spans_flushed > 0,
            "64-span staging must overflow ({} total spans)",
            full_obs.spans.len()
        );
        assert!(!obs.spans_complete());

        // The trace reconstructs the *complete* span set plus every
        // instrument, identical to the big in-memory reference.
        let bytes = buf.0.borrow();
        let trace = swgpu_obs::validate_trace(&bytes).expect("valid SWTB");
        assert!(trace.span_batches > 1, "spans were streamed incrementally");
        assert_eq!(trace.report.spans, full_obs.spans);
        assert_eq!(trace.report.counters, full_obs.counters);
        assert_eq!(trace.report.histograms, full_obs.histograms);
        assert_eq!(trace.report.series, full_obs.series);
        assert_eq!(trace.report.spans_dropped, 0);
        assert_eq!(trace.report.spans_flushed, obs.spans_flushed);

        // Streaming is timing-neutral: scalar stats match the reference.
        assert_eq!(stats.to_json(), full.to_json());
    }

    #[test]
    fn dense_and_event_kernels_stream_identical_bytes() {
        let sw = TranslationMode::SoftWalker { in_tlb_mshr: true };
        let (event_buf, dense_buf) = (SharedBuf::default(), SharedBuf::default());
        let mut event = observed_sim(sw, 128);
        assert!(event.attach_trace_sink(Box::new(event_buf.clone())));
        let mut dense = observed_sim(sw, 128);
        assert!(dense.attach_trace_sink(Box::new(dense_buf.clone())));
        let a = event.run();
        let b = dense.run_dense();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(
            *event_buf.0.borrow(),
            *dense_buf.0.borrow(),
            "flush points must depend on simulated content only"
        );
    }

    #[test]
    fn trace_sink_requires_enabled_obs() {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = TranslationMode::HardwarePtw;
        let spec = by_abbr("gups").unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 2,
            footprint_percent: 20,
            page_size: cfg.page_size,
        });
        let mut sim = GpuSimulator::new(cfg, Box::new(wl));
        let buf = SharedBuf::default();
        assert!(!sim.attach_trace_sink(Box::new(buf.clone())));
        sim.run();
        assert!(buf.0.borrow().is_empty(), "no obs, no trace bytes");
    }

    #[test]
    fn progress_hook_observes_without_perturbing() {
        let sw = TranslationMode::SoftWalker { in_tlb_mshr: true };
        let baseline = observed_sim(sw, 1 << 20).run();

        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::<RunProgress>::new()));
        let sink = std::rc::Rc::clone(&seen);
        let mut sim = observed_sim(sw, 1 << 20);
        sim.set_progress_hook(256, Box::new(move |p| sink.borrow_mut().push(p)));
        let stats = sim.run();

        let seen = seen.borrow();
        assert!(!seen.is_empty(), "hook fired at least once");
        assert!(seen.windows(2).all(|w| w[0].cycles < w[1].cycles));
        assert!(seen.last().unwrap().cycles <= stats.cycles);
        assert_eq!(
            stats.to_json(),
            baseline.to_json(),
            "progress hooks are observational only"
        );
    }

    #[test]
    fn translations_are_functionally_correct() {
        // Every completed run with zero faults implies every walked VPN
        // decoded a valid mapping; cross-check one benchmark end to end.
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
        let spec = by_abbr("bfs").unwrap();
        let wl = spec.build(WorkloadParams {
            sms: cfg.sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: 2,
            footprint_percent: 10,
            page_size: cfg.page_size,
        });
        let sim = GpuSimulator::new(cfg, Box::new(wl));
        let stats = sim.run();
        assert_eq!(stats.faults, 0);
        assert_eq!(stats.sm.xlat_faults, 0);
    }

    fn tenant_sim(
        policy: SharingPolicy,
        sub_entry_sharing: bool,
        mode: TranslationMode,
        abbrs: &[&str],
        prefetch: bool,
    ) -> GpuSimulator {
        use crate::config::TenantConfig;
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = mode;
        if prefetch {
            cfg.prefetch = crate::config::PrefetchConfig::enabled();
        }
        let n = abbrs.len();
        let per = cfg.sms / n;
        let tenants: Vec<TenantConfig> = abbrs
            .iter()
            .enumerate()
            .map(|(i, a)| TenantConfig {
                workload: (*a).to_string(),
                sms: if i == 0 { cfg.sms - per * (n - 1) } else { per },
            })
            .collect();
        cfg.tenants = Some(TenantsConfig {
            tenants,
            policy,
            sub_entry_sharing,
        });
        let layout = cfg.tenants.clone().unwrap();
        let pairs: Vec<(Box<dyn InstrSource>, u64)> = abbrs
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let spec = by_abbr(a).unwrap();
                let wl = spec.build(WorkloadParams {
                    sms: layout.tenants[i].sms,
                    warps_per_sm: cfg.max_warps,
                    mem_instrs_per_warp: 2,
                    footprint_percent: 10,
                    page_size: cfg.page_size,
                });
                let fp = wl.footprint_bytes();
                (Box::new(wl) as Box<dyn InstrSource>, fp)
            })
            .collect();
        GpuSimulator::new_multi_tenant(cfg, pairs)
    }

    fn assert_tenant_invariants(s: &SimStats, n: usize) {
        assert!(!s.timed_out);
        assert_eq!(s.faults, 0);
        assert_eq!(s.sm.xlat_faults, 0);
        assert_eq!(s.tenants.len(), n);
        for (i, t) in s.tenants.iter().enumerate() {
            assert!(t.instructions > 0, "tenant {i} made no progress");
        }
        assert_eq!(s.check_ledgers(), Ok(()));
        let f = s.fairness_index();
        assert!(f > 0.0 && f <= 1.0, "fairness {f} out of range");
    }

    #[test]
    fn partitioned_two_tenant_mix_runs() {
        let s = tenant_sim(
            SharingPolicy::Partitioned,
            false,
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            &["gups", "2dc"],
            false,
        )
        .run();
        assert_tenant_invariants(&s, 2);
        assert_eq!(s.l2_tlb.shared_joins, 0, "no sub-entry sharing requested");
    }

    #[test]
    fn shared_qos_two_tenant_mix_runs() {
        let s = tenant_sim(
            SharingPolicy::Shared {
                max_inflight_walks: 4,
            },
            false,
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            &["gups", "bfs"],
            false,
        )
        .run();
        assert_tenant_invariants(&s, 2);
    }

    #[test]
    fn multi_tenant_hardware_walkers_run() {
        let s = tenant_sim(
            SharingPolicy::Shared {
                max_inflight_walks: 8,
            },
            false,
            TranslationMode::HardwarePtw,
            &["gups", "2dc"],
            false,
        )
        .run();
        assert_tenant_invariants(&s, 2);
        assert!(s.hw_walks > 0);
    }

    #[test]
    fn four_tenant_partitioned_mix_runs() {
        let mut sim = tenant_sim(
            SharingPolicy::Partitioned,
            false,
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            &["gups", "2dc", "bfs", "spmv"],
            false,
        );
        let _ = &mut sim;
        let s = sim.run();
        assert_tenant_invariants(&s, 4);
    }

    #[test]
    fn sub_entry_sharing_joins_identical_mappings() {
        let sw = TranslationMode::SoftWalker { in_tlb_mshr: true };
        let shared = SharingPolicy::Shared {
            max_inflight_walks: 16,
        };
        // Identical workloads over one identically-mapped address space:
        // the second tenant's fills land on VPNs the first already
        // installed, so joins must occur. Without the opt-in, none do.
        let with = tenant_sim(shared, true, sw, &["gups", "gups"], false).run();
        assert_tenant_invariants(&with, 2);
        assert!(
            with.l2_tlb.shared_joins > 0,
            "identically-mapped tenants never joined an entry"
        );
        let without = tenant_sim(shared, false, sw, &["gups", "gups"], false).run();
        assert_tenant_invariants(&without, 2);
        assert_eq!(without.l2_tlb.shared_joins, 0);
    }

    #[test]
    fn prefetches_stay_in_issuing_tenants_tag_space() {
        // Two tenants with *distinct* address spaces and translation
        // prefetch on: a prefetch that installed under the wrong tenant's
        // tag would either fault that tenant's consumer or break the
        // walk-conservation ledger. Both must hold.
        let s = tenant_sim(
            SharingPolicy::Partitioned,
            false,
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            &["gups", "gups"],
            true,
        )
        .run();
        assert_tenant_invariants(&s, 2);
        assert!(s.prefetch_issued > 0, "prefetcher never fired");
        assert_eq!(s.l2_tlb.shared_joins, 0, "tag spaces stayed disjoint");
    }

    #[test]
    fn multi_tenant_dense_and_event_kernels_agree() {
        let mk = || {
            tenant_sim(
                SharingPolicy::Shared {
                    max_inflight_walks: 8,
                },
                false,
                TranslationMode::SoftWalker { in_tlb_mshr: true },
                &["gups", "2dc"],
                false,
            )
        };
        let a = mk().run();
        let b = mk().run_dense();
        assert_eq!(a.to_json(), b.to_json(), "kernel choice must be invisible");
    }
}
