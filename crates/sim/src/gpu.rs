//! The full-GPU cycle loop: the wiring between the SMs, the L2 TLB
//! complex, both walkers, the L2D and DRAM, and the owned subsystems (the
//! UVM [`Driver`], the [`TenantTable`], the [`Prefetcher`] and the wake
//! [`Scheduler`]).

use crate::config::{GpuConfig, TranslationMode};
use crate::driver::{Action, Driver, Uvm};
use crate::memory::{Memory, PrebuiltMemory};
use crate::obs::ObsState;
use crate::prefetch::{Prefetcher, Scan, PREFETCH_REQUESTER};
use crate::sched::Scheduler;
use crate::stats::SimStats;
use crate::tenants::{TenantMuxSource, TenantTable};
use softwalker::{PwWarpUnit, RequestDistributor, SwWalkRequest};
use std::collections::VecDeque;
use swgpu_mem::{AccessOutcome, Cache, Dram, Issuer, MemReq, PhysMem};
use swgpu_obs::{BusyTracker, ObsReport, Span, SpanKind, SwtbStream};
use swgpu_pt::{AddressSpace, HashedPageTable};
use swgpu_ptw::{PtwSubsystem, WalkOwner, WalkRequest};
use swgpu_sm::{InstrSource, Sm, SmConfig};
use swgpu_tlb::{L2MissOutcome, L2TlbComplex};
use swgpu_types::{
    ensure, fault::site, Asid, Component, ConfigError, Cycle, FaultInjector, IdGen, Pfn, Port,
    SmId, VirtAddr, Vpn, WarpId,
};

/// An L2 TLB request waiting for MSHR capacity.
#[derive(Debug, Clone, Copy)]
struct PendingL2 {
    sm: SmId,
    warp: WarpId,
    vpn: Vpn,
    first_seen: Cycle,
    counted_failure: bool,
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

/// The assembled GPU. See the crate-level example for usage; build with
/// [`GpuSimulator::build`], then [`GpuSimulator::run`].
pub struct GpuSimulator {
    cfg: GpuConfig,
    source: Box<dyn InstrSource>,
    sms: Vec<Sm>,
    pw_warps: Vec<PwWarpUnit>,
    l2: L2TlbComplex<SmId>,
    ptw: PtwSubsystem,
    l2d: Cache,
    dram: Dram,
    mem: Memory,
    distributor: RequestDistributor,
    ids: IdGen,
    now: Cycle,
    // Inter-component ports carry fixed-delay messages (L2 TLB hops,
    // translation returns, dispatches); the deques are plain backlogs
    // (dispatch queue, retry queues). The kernel inventory below feeds
    // both into the event kernel's drain/wake derivation.
    to_l2: Port<(SmId, WarpId, Vpn, Cycle)>,
    l2_retry: VecDeque<PendingL2>,
    xlat_ret: Port<(SmId, Vpn, Option<Pfn>)>,
    dispatch_q: VecDeque<(Asid, Vpn, Cycle)>,
    sw_to_sm: Port<(usize, SwWalkRequest)>,
    fl2t_ret: Port<(usize, softwalker::SwCompletion)>,
    pwb_retry: VecDeque<WalkRequest>,
    l2d_retry: VecDeque<MemReq>,
    // Retry budgets: rejected requests are re-attempted only as capacity
    // is actually freed (2 retries per completion, covering merge
    // opportunities), so a saturated cycle costs O(freed) instead of
    // O(backlog).
    l2_retry_budget: usize,
    l2d_retry_budget: usize,
    driver: Driver,
    tenants: TenantTable,
    prefetch: Prefetcher,
    sched: Scheduler,
    // Observability instruments; `None` (the default) costs nothing on
    // the hot path beyond a branch per hook.
    obs: Option<Box<ObsState>>,
    // Periodic progress callback (runner liveness reporting). Purely
    // observational: it reads cycle/flush counters, never sim state.
    progress: Option<ProgressHook>,
    stats: SimStats,
}

/// The single source of truth for what the event kernel drives: every
/// timed component (the ports, which are components too, and the driver
/// among them), every gated backlog (with its gate condition), and the
/// per-SM units, whose wake entries the [`Scheduler`] keeps. The drain check and the wake
/// schedule both expand from this list (in `next_wake`), so adding a
/// queue or component in one place wires it into both — forgetting it is
/// a compile error at the use site, not a silent hang.
///
/// `dispatch_q` is deliberately an *always-open* gated backlog: while it
/// is non-empty the dense loop consults the distributor (consuming RNG
/// and counting blocked cycles) every single cycle, so the kernel must
/// too. For the same reason an armed prefetcher `poll`s every cycle some
/// PW Warp has an idle thread. A poll never blocks draining.
macro_rules! with_kernel_inventory {
    ($self:ident, $gated:ident, $poll:ident, $comp:ident, $units:ident) => {
        $comp!($self.to_l2);
        $comp!($self.xlat_ret);
        $comp!($self.sw_to_sm);
        $comp!($self.fl2t_ret);
        $gated!(dispatch_q, true);
        $gated!(l2_retry, $self.l2_retry_budget > 0);
        $gated!(l2d_retry, $self.l2d_retry_budget > 0);
        $gated!(pwb_retry, $self.ptw.pwb_depth() < $self.cfg.ptw.pwb_entries);
        $poll!($self.prefetch.polls(&$self.pw_warps));
        $comp!($self.driver);
        $comp!($self.ptw);
        $comp!($self.l2);
        $comp!($self.l2d);
        $comp!($self.dram);
        $units!(sms);
        $units!(pw_warps);
    };
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

/// What a [`GpuSimulator`] runs, over which memory. One variant per way
/// of building the address space, so a prebuilt image cannot be paired
/// with a tenant mix.
pub enum SimInput {
    /// One source over `footprint_bytes` mapped from virtual address 0
    /// (nothing is mapped up front under demand paging).
    Mapped {
        /// The instruction source.
        source: Box<dyn InstrSource>,
        /// Bytes to map.
        footprint_bytes: u64,
    },
    /// One source over a memory image built beforehand: the results of
    /// [`SimInput::Mapped`] with the image's footprint, but cells sharing
    /// a footprint can clone one image instead of each paying the
    /// per-page mapping walk (the experiment runner's prebuild store).
    Prebuilt {
        /// The instruction source.
        source: Box<dyn InstrSource>,
        /// The memory image.
        image: PrebuiltMemory,
    },
    /// One `(source, footprint bytes)` pair per tenant, in ASID order.
    /// Each tenant maps its own address space in a disjoint slice of
    /// physical memory, with its own PWC walk root and (under demand
    /// paging) memory manager. Under sub-entry sharing all tenants map
    /// one space, so identically-mapped VPNs can share L2 TLB entries.
    Tenants(Vec<(Box<dyn InstrSource>, u64)>),
}

impl From<Box<swgpu_workloads::Workload>> for SimInput {
    fn from(workload: Box<swgpu_workloads::Workload>) -> Self {
        let footprint_bytes = workload.footprint_bytes();
        Self::Mapped {
            source: workload,
            footprint_bytes,
        }
    }
}

impl GpuSimulator {
    /// Builds the GPU for `cfg` around `input`.
    ///
    /// # Errors
    ///
    /// Rejects a config that fails [`GpuConfig::validate`], tenant inputs
    /// that do not match `cfg.tenants`, and a prebuilt image of another
    /// page size or frame scrambling than `cfg`.
    pub fn build(cfg: GpuConfig, input: impl Into<SimInput>) -> Result<Self, ConfigError> {
        cfg.validate()?;
        let input = input.into();
        ensure!(
            matches!(input, SimInput::Tenants(_)) == cfg.tenants.is_some(),
            "a config with tenants takes SimInput::Tenants, and only such a config does"
        );
        let (source, image) = match input {
            SimInput::Tenants(pairs) => return Self::build_tenants(cfg, pairs),
            SimInput::Mapped {
                source,
                footprint_bytes,
            } => {
                // Demand paging skips the (possibly large) mapping walk.
                let bytes = if cfg.mm.enabled { 0 } else { footprint_bytes };
                let image = PrebuiltMemory::build(cfg.page_size, cfg.scrambled_frames, bytes);
                (source, image)
            }
            SimInput::Prebuilt { source, image } => {
                ensure!(
                    image.page_size == cfg.page_size,
                    "prebuilt memory image page size does not match the config"
                );
                ensure!(
                    image.scrambled == cfg.scrambled_frames,
                    "prebuilt memory image frame scrambling does not match the config"
                );
                (source, image)
            }
        };
        // Demand paging owns population: a mapped image would make every
        // page resident before its first touch, so start empty instead.
        let PrebuiltMemory {
            mut phys,
            mut space,
            ..
        } = if cfg.mm.enabled && image.mapped_pages() > 0 {
            PrebuiltMemory::build(cfg.page_size, cfg.scrambled_frames, 0)
        } else {
            image
        };
        let hashed =
            (cfg.mode == TranslationMode::HashedPtw).then(|| space.build_hashed(&mut phys));
        Ok(Self::assemble(cfg, source, phys, vec![space], hashed))
    }

    /// [`GpuSimulator::build`] over a prebuilt image, panicking with the
    /// message of any [`ConfigError`]; the simulator benchmark's entry.
    pub fn new_with_prebuilt(
        cfg: GpuConfig,
        source: Box<dyn InstrSource>,
        image: PrebuiltMemory,
    ) -> Self {
        Self::build(cfg, SimInput::Prebuilt { source, image }).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The multi-tenant arm of [`GpuSimulator::build`].
    fn build_tenants(
        cfg: GpuConfig,
        pairs: Vec<(Box<dyn InstrSource>, u64)>,
    ) -> Result<Self, ConfigError> {
        let layout = cfg.tenants.as_ref().expect("checked by build");
        let n = layout.len();
        ensure!(
            pairs.len() == n,
            "one (source, footprint) pair per tenant, got {} for {n} tenants",
            pairs.len()
        );
        let (sources, footprints): (Vec<_>, Vec<_>) = pairs.into_iter().unzip();
        let (phys, spaces) = if layout.sub_entry_sharing {
            // One shared space mapped to the largest footprint: every
            // tenant sees the same VPN→PFN function, which is what lets
            // fills join another tenant's identical entry.
            let max = footprints.iter().copied().max().unwrap_or(0);
            let shared = PrebuiltMemory::build(cfg.page_size, cfg.scrambled_frames, max);
            (shared.phys, vec![shared.space; n])
        } else {
            let mut phys = PhysMem::new();
            let spaces = (0..n)
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
                .collect();
            (phys, spaces)
        };
        let source = Box::new(TenantMuxSource::new(layout, sources));
        Ok(Self::assemble(cfg, source, phys, spaces, None))
    }

    /// Wires the (already built) memory system into a full simulator —
    /// the tail shared by the single-tenant and multi-tenant
    /// arms of [`GpuSimulator::build`]. `spaces[i]` is ASID `i`'s address space.
    fn assemble(
        mut cfg: GpuConfig,
        source: Box<dyn InstrSource>,
        phys: PhysMem,
        spaces: Vec<AddressSpace>,
        hashed: Option<HashedPageTable>,
    ) -> Self {
        if cfg.mode == TranslationMode::IdealPtw {
            // The ideal mode is self-sufficient: unbounded walkers and L2
            // TLB MSHRs regardless of what the rest of the config says.
            cfg = cfg.ideal();
        }
        let in_tlb_max = if cfg.mode.in_tlb_enabled() || cfg.force_in_tlb {
            cfg.in_tlb_max
        } else {
            0
        };
        let mut l2 = L2TlbComplex::new(cfg.l2_tlb.clone(), cfg.l2_mshr, in_tlb_max);
        let tenants = TenantTable::new(&cfg, &mut l2);
        let sms: Vec<Sm> = (0..cfg.sms)
            .map(|i| {
                let id = SmId::new(i as u16);
                Sm::new(SmConfig {
                    id,
                    asid: tenants.asid_of(id),
                    max_warps: cfg.max_warps,
                    l1_tlb: cfg.l1_tlb.clone(),
                    l1_mshr: cfg.l1_mshr,
                    l1_tlb_latency: cfg.l1_tlb_latency,
                    l1d: cfg.l1d.clone(),
                    page_size: cfg.page_size,
                })
            })
            .collect();
        let mut pw_warps: Vec<PwWarpUnit> = if cfg.mode.uses_software_walkers() {
            (0..cfg.sms)
                .map(|i| PwWarpUnit::new(cfg.pw_warp).on_sm(SmId::new(i as u16)))
                .collect()
        } else {
            Vec::new()
        };
        let distributor = RequestDistributor::new(
            cfg.distributor_policy,
            cfg.sms.max(1),
            cfg.pw_warp.softpwb_entries as u32,
        );
        let mut ptw = PtwSubsystem::new(cfg.ptw.clone());
        let mut l2d = Cache::new(cfg.l2d.clone());
        let mut dram = Dram::new(cfg.dram.clone());
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
        let obs = if cfg.obs.enabled {
            ptw.set_observed(true);
            for pw in &mut pw_warps {
                pw.set_observed(true);
            }
            Some(Box::new(ObsState::new(&cfg.obs, cfg.sms)))
        } else {
            None
        };
        Self {
            mem: Memory::new(phys, spaces, hashed, cfg.pwc_entries),
            driver: Driver::new(&cfg),
            tenants,
            prefetch: Prefetcher::new(cfg.prefetch, cfg.max_warps),
            sched: Scheduler::new(sms.len(), pw_warps.len()),
            sms,
            pw_warps,
            l2,
            ptw,
            l2d,
            dram,
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
            l2_retry_budget: 0,
            l2d_retry_budget: 0,
            obs,
            progress: None,
            stats: SimStats::default(),
            source,
            cfg,
        }
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
            let Some(next) = self.next_wake() else {
                break;
            };
            if self.now.value() >= self.cfg.max_cycles {
                self.stats.timed_out = true;
                break;
            }
            if scheduled {
                // Clamping to the cycle cap makes a timeout fire at
                // exactly `max_cycles` in both modes.
                let t = next.min(self.cfg.max_cycles);
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
                        o.tick_busy(self.now.value() + 1, |_| false);
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

    /// The event schedule, derived from one shared inventory of every
    /// port and component the kernel drives: `None` once the machine has
    /// drained, else the earliest cycle at which anything has pending
    /// work, clamped to `now + 1` (an event at or before `now` means "the
    /// very next cycle"). One derivation means drained-ness and the wake
    /// can never fall out of sync (the predecessor of this code
    /// hand-maintained a 13-clause drain list).
    ///
    /// Gated backlogs (budgeted retries, the bounded hardware PWB)
    /// contribute a wake only while their gate is open — a closed-gate
    /// backlog is exactly the case the dense loop no-ops on every cycle,
    /// and the budget/capacity that re-opens a gate is only ever minted
    /// by another component's event. They always block draining.
    ///
    /// SMs and PW Warps wake at the scheduler's stored minimums: after a
    /// step its tables hold each unit's live `next_event` (a unit ticked
    /// this step refreshed its entry after the tick, and a skipped one
    /// has not changed since its entry was written: every delivery forces
    /// a tick). A live component that holds work without scheduling an
    /// event is a bug, downgraded in release builds to per-cycle stepping
    /// so both modes still agree (they then run to the cap together).
    fn next_wake(&self) -> Option<u64> {
        let now = self.now.value();
        let mut drained = true;
        let mut next = self.sched.next_wake().max(now + 1);
        macro_rules! upd {
            ($e:expr) => {
                if let Some(c) = $e {
                    next = next.min(c.value().max(now + 1));
                }
            };
        }
        macro_rules! gated {
            ($f:ident, $open:expr) => {
                if !self.$f.is_empty() {
                    drained = false;
                    if $open {
                        next = next.min(now + 1);
                    }
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
                drained = drained && Component::is_idle(&$e);
                upd!(Component::next_event(&$e));
            };
        }
        macro_rules! units {
            ($units:ident) => {
                drained = drained && self.$units.iter().all(Component::is_idle);
            };
        }
        with_kernel_inventory!(self, gated, poll, comp, units);
        if drained {
            return None;
        }
        debug_assert!(next != u64::MAX, "live simulator with no pending event");
        Some(if next == u64::MAX { now + 1 } else { next })
    }

    /// One core cycle. With `dense` set every SM and PW Warp ticks;
    /// otherwise only those the scheduler shows due (see
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
                    self.sched.wake_pw(i);
                    self.pw_warps[i].on_mem_dropped(dropped)
                }
                Issuer::SmData => panic!(
                    "dropped non-page-table response {:?} ({:?})",
                    dropped.id, dropped.route
                ),
            };
            if !attributed {
                self.driver.note_orphan_drop();
            }
        }

        // The simulated UVM driver: escalated translations arrive after
        // the driver latency, then its fill watchdogs and delayed replays.
        loop {
            let (driver, mut uvm) = self.driver_uvm();
            let Some(action) = driver.next(now, &mut uvm) else {
                break;
            };
            match action {
                Action::Replay {
                    asid,
                    vpn,
                    issued_at,
                    walks,
                } => {
                    for _ in 0..walks {
                        self.launch_walk(asid, vpn, issued_at, None);
                    }
                }
                Action::Fail { asid, vpn, queue } => {
                    self.finish_translation(asid, vpn, None, queue, 0);
                }
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
            if pfn.is_some() {
                self.driver.note_l1_fill(self.tenants.asid_of(sm), vpn, i);
            }
            self.sched.wake_sm(i);
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
            self.complete_walk(c.asid, c.vpn, c.issued_at, false, c.pfn, queue, access);
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
            if self.tenants.at_walk_cap(w.asid) {
                break;
            }
            if self.ptw.pwb_depth() < self.cfg.ptw.pwb_entries && self.ptw.enqueue(w) {
                self.tenants.walk_started(w.asid);
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
            self.sched.wake_pw(sm_idx);
        }

        // Hardware walk subsystem.
        if self.cfg.mode.uses_hardware_walkers() {
            self.ptw
                .tick(now, &mut self.mem.walk_context(), &mut self.ids);
            while let Some(req) = self.ptw.pop_mem_request() {
                self.issue_l2d(req);
            }
            while let Some(mut c) = self.ptw.pop_completion() {
                self.stats.hw_walks += 1;
                for r in c.results.drain(..) {
                    let queue = c.started_at.since(r.issued_at);
                    let access = c.completed_at.since(c.started_at);
                    if let Some(o) = self.obs.as_deref_mut() {
                        o.span(SpanKind::HwQueue, 0, r.issued_at, c.started_at, r.vpn);
                        o.span(SpanKind::HwWalk, 0, c.started_at, c.completed_at, r.vpn);
                    }
                    self.complete_walk(r.asid, r.vpn, r.issued_at, true, r.pfn, queue, access);
                }
                self.ptw.recycle(c);
            }
        }

        // Drain cycle-stamped PTE-read events buffered by the walkers
        // (both kinds stamp their own timestamps, so draining once per
        // cycle preserves event times exactly).
        if let Some(o) = self.obs.as_deref_mut() {
            o.pte_reads(0, self.ptw.drain_obs_events());
        }

        // PW Warps: tick (claiming issue ports), then SMs. In event mode a
        // unit the scheduler does not show due is skipped: its tick would
        // be a no-op (an SM's would only charge this cycle's issue slot: a
        // stall, which `Sm::catch_up` charges later, or a PW Warp's issue,
        // which `Sm::charge_pw_issue` charges now).
        self.sched.begin_pw_pass();
        for i in 0..self.pw_warps.len() {
            if !self.sched.pw_wake.visit(i, now, dense) {
                debug_assert!(
                    self.pw_warps[i].next_event().is_none_or(|c| c > now),
                    "skipped PW Warp {i} with work due at {now:?}"
                );
                continue;
            }
            let issued = self.pw_warps[i].tick(now, &mut self.ids);
            while let Some(req) = self.pw_warps[i].pop_mem_request() {
                self.issue_l2d(req);
            }
            while let Some(c) = self.pw_warps[i].pop_completion() {
                self.fl2t_ret.send(now + self.cfg.l2_tlb_latency, (i, c));
            }
            if let Some(o) = self.obs.as_deref_mut() {
                o.pte_reads(i as u32, self.pw_warps[i].drain_obs_events());
            }
            if issued {
                self.sched.note_pw_issue(i);
            }
            self.sched.pw_wake.ticked(i, self.pw_warps[i].next_event());
        }
        self.sched.pw_wake.end_pass();
        if let Some(o) = self.obs.as_deref_mut() {
            o.tick_busy(now.value(), |i| self.sched.pw_issued(i));
        }

        if self.sched.sms_idle(now, dense) {
            if cfg!(debug_assertions) {
                for (i, sm) in self.sms.iter().enumerate() {
                    debug_assert!(
                        sm.next_event().is_none_or(|c| c > now),
                        "idle-skipped SM {i} with work due at {now:?}"
                    );
                }
            }
            return;
        }
        for i in 0..self.sms.len() {
            if !self.sched.sm_wake.visit(i, now, dense) {
                debug_assert!(
                    self.sms[i].next_event().is_none_or(|c| c > now),
                    "skipped SM {i} with work due at {now:?}"
                );
                if self.sched.pw_issued(i) {
                    self.sms[i].charge_pw_issue(now);
                }
                continue;
            }
            let sm = &mut self.sms[i];
            let issue_free = !self.sched.pw_issued(i);
            sm.tick(now, self.source.as_mut(), &mut self.ids, issue_free);
            while let Some((vpn, warp)) = sm.pop_l2_tlb_request() {
                self.to_l2.send(
                    now + self.cfg.l2_tlb_latency,
                    (SmId::new(i as u16), warp, vpn, now),
                );
            }
            while let Some(req) = self.sms[i].pop_mem_request() {
                self.issue_l2d(req);
            }
            self.sched.sm_wake.ticked(i, self.sms[i].next_event());
        }
        self.sched.sm_wake.end_pass();
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
        o.reg.sample(o.ids.softpwb, softpwb as u64);
        o.reg.sample(o.ids.pw_active, pw_active as u64);
        o.reg.sample(o.ids.hw_pwb, self.ptw.pwb_depth() as u64);
        o.reg
            .sample(o.ids.hw_active, self.ptw.active_walks() as u64);
        o.reg
            .sample(o.ids.mshr_dedicated, self.l2.dedicated_in_flight() as u64);
        o.reg
            .sample(o.ids.mshr_in_tlb, self.l2.pending_in_tlb() as u64);
        o.reg
            .sample(o.ids.mshr_overflow, self.l2.overflow_waiting() as u64);
        o.reg.sample(o.ids.dispatch_q, self.dispatch_q.len() as u64);
        // Stream the tick's instrument deltas. Both kernels hit every
        // sample cycle (the event kernel wakes at `next_sample`), so the
        // emission schedule is identical across dense and event modes.
        if let Some(stream) = o.stream.as_mut() {
            stream
                .sample_tick(&o.reg)
                .expect("SWTB trace sink write failed");
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

    fn route_l2d_response(&mut self, resp: MemReq) {
        let unit = usize::from(resp.route.unit);
        match resp.route.issuer {
            Issuer::SmData => {
                self.sms[unit].on_mem_response(self.now, resp);
                self.sched.wake_sm(unit);
            }
            Issuer::Ptw => {
                let mut ctx = self.mem.walk_context();
                self.ptw
                    .on_mem_response(resp, self.now, &mut ctx, &mut self.ids);
            }
            Issuer::PwWarp => {
                let mem = &mut self.mem;
                self.pw_warps[unit].on_mem_response(resp, self.now, &mem.phys, &mut mem.pwc);
                self.sched.wake_pw(unit);
            }
        }
    }

    fn process_l2(&mut self, mut p: PendingL2, fresh: bool) {
        let asid = self.tenants.asid_of(p.sm);
        let outcome = self.l2.access(asid, p.vpn, p.sm);
        if fresh && !matches!(outcome, L2MissOutcome::Hit(_)) {
            self.stats.fresh_l2_misses += 1;
            self.tenants.count_fresh_miss(asid);
        }
        match outcome {
            L2MissOutcome::Hit(pfn) => {
                let phys = &self.mem.phys;
                if !self.driver.accept_hit(asid, p.vpn, pfn, phys, &mut self.l2) {
                    return self.process_l2(p, fresh);
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
                self.launch_walk(asid, p.vpn, p.first_seen, Some((p.sm, p.warp)));
            }
            L2MissOutcome::MissMerged => self.prefetch.merged(asid, p.vpn),
            L2MissOutcome::MshrFailure => {
                if !p.counted_failure {
                    self.stats.l2_mshr_failure_events += 1;
                    p.counted_failure = true;
                }
                self.l2_retry.push_back(p);
            }
        }
    }

    /// A walk issued at `issued_at` finished on a hardware walker or a
    /// PW Warp: release its tenant's walk slot, and under an armed plan
    /// or demand paging hand a faulted walk to the driver rather than
    /// failing the translation outright.
    #[allow(clippy::too_many_arguments)]
    fn complete_walk(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        issued_at: Cycle,
        hardware: bool,
        pfn: Option<Pfn>,
        queue: u64,
        access: u64,
    ) {
        self.tenants.walk_done(asid);
        let faulted = pfn.is_none()
            && self
                .driver
                .take_fault(self.now, asid, vpn, issued_at, hardware, &self.mem);
        if !faulted {
            self.finish_translation(asid, vpn, pfn, queue, access);
        }
    }

    /// Starts a walk: hardware modes queue it at the PTW pool (behind the
    /// PWB retry backlog when the PWB is full or the tenant at its QoS
    /// cap), SoftWalker hands it to the distributor, and Hybrid tries a
    /// free hardware walker first.
    fn launch_walk(&mut self, asid: Asid, vpn: Vpn, issued_at: Cycle, owner: WalkOwner) {
        let req = WalkRequest::with_owner(vpn, issued_at, owner).for_asid(asid);
        let hw_only = !self.cfg.mode.uses_software_walkers();
        let hybrid = matches!(self.cfg.mode, TranslationMode::Hybrid { .. });
        let hw = hw_only || (hybrid && self.ptw.free_walkers() > 0);
        if hw && !self.tenants.at_walk_cap(asid) && self.ptw.enqueue(req) {
            self.tenants.walk_started(asid);
        } else if hw_only {
            self.pwb_retry.push_back(req);
        } else {
            self.dispatch_q.push_back((asid, vpn, issued_at));
        }
    }

    fn dispatch_software_walks(&mut self) {
        if self.dispatch_q.is_empty() {
            return;
        }
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
            let capped = multi && self.tenants.at_walk_cap(asid);
            let allowed = self.tenants.sms_of(asid);
            let sm = if capped {
                None
            } else {
                // No SM ticks inside this loop, so each SM's stall state
                // is read in place.
                let sms = &self.sms;
                self.distributor
                    .select_core_among(|i| sms[i].is_stalled(), allowed)
            };
            let Some(sm) = sm else {
                // Capped, or partitioned with this tenant's SMs saturated
                // while another tenant's partition may still have room.
                if (capped || (multi && !allowed.is_empty())) && rotations > 0 {
                    rotations -= 1;
                    let head = self.dispatch_q.pop_front().expect("checked front");
                    self.dispatch_q.push_back(head);
                    continue;
                }
                break;
            };
            self.dispatch_q.pop_front();
            self.tenants.walk_started(asid);
            self.send_sw_walk(sm, asid, vpn, issued_at, SpanKind::Dispatch);
        }
    }

    /// Sends a software walk of `vpn`, started at the level the PWC holds,
    /// to `sm`'s PW Warp: a prefetch (`kind` is `Prefetch`) or a demand
    /// walk, tagged as a fill replay while the page's fill is in flight.
    fn send_sw_walk(&mut self, sm: SmId, asid: Asid, vpn: Vpn, issued_at: Cycle, kind: SpanKind) {
        let now = self.now;
        if let Some(o) = self.obs.as_deref_mut() {
            o.instant(kind, 0, now.value(), vpn.value(), sm.index() as u64);
            // Prefetch completions count as sw_walks, so charging them a
            // dispatch keeps the pinned dispatches == sw_walks invariant.
            o.reg.inc(o.ids.dispatches, 1);
        }
        let start = self.mem.pwc.lookup(asid, vpn);
        let mut req =
            SwWalkRequest::new(vpn, issued_at, now, start.level, start.node_base).for_asid(asid);
        if kind == SpanKind::Prefetch {
            req = req.as_prefetch();
        } else if self.driver.is_filling(asid, vpn) {
            req = req.as_fill_replay();
        }
        self.sw_to_sm
            .send(now + self.cfg.l2_tlb_latency, (sm.index(), req));
    }

    /// Runs a prefetch scan (see [`Prefetcher::scan`]) and sends the
    /// walks it started.
    fn issue_prefetches(&mut self) {
        self.prefetch.scan(&mut Scan {
            pw_warps: &self.pw_warps,
            source: self.source.as_ref(),
            l2: &mut self.l2,
            tenants: &mut self.tenants,
            driver: &self.driver,
            mem: &self.mem,
            distributor: &mut self.distributor,
        });
        while let Some((sm, asid, vpn)) = self.prefetch.pop_started() {
            self.send_sw_walk(sm, asid, vpn, self.now, SpanKind::Prefetch);
        }
    }

    /// The driver, and the GPU state its services reach into.
    fn driver_uvm(&mut self) -> (&mut Driver, Uvm<'_>) {
        let uvm = Uvm {
            mem: &mut self.mem,
            l2: &mut self.l2,
            sms: &mut self.sms,
            obs: self.obs.as_deref_mut(),
        };
        (&mut self.driver, uvm)
    }

    fn finish_translation(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        pfn: Option<Pfn>,
        queue: u64,
        access: u64,
    ) {
        let now = self.now;
        let (driver, mut uvm) = self.driver_uvm();
        if !driver.screen(now, asid, vpn, pfn, &mut uvm) {
            return;
        }
        self.stats.walk.record(queue, access);
        self.tenants.count_walk(asid);
        if let Some(o) = self.obs.as_deref_mut() {
            o.reg.observe(o.ids.walk_queue, queue);
            o.reg.observe(o.ids.walk_access, access);
            o.reg.observe(o.ids.walk_total, queue + access);
        }
        self.l2_retry_budget = self.l2_retry_budget.saturating_add(2);
        let pure_prefetch = self.prefetch.finished(asid, vpn, pfn.is_none());
        let waiters = match pfn {
            Some(p) if pure_prefetch => self.l2.complete_walk_prefetched(asid, vpn, p),
            Some(p) => self.l2.complete_walk(asid, vpn, p),
            None => {
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
            self.stats.sm.merge(&sm.stats());
            self.stats.l1_tlb.merge(&sm.l1_tlb_stats());
            self.stats.l1d.merge(&sm.l1d_stats());
        }
        self.stats.instructions = self.stats.sm.instructions;
        self.stats.loads = self.stats.sm.loads;
        self.stats.l2_tlb = self.l2.tlb_stats();
        self.stats.l2_mshr = self.l2.mshr_stats();
        self.stats.in_tlb = self.l2.in_tlb_stats();
        self.stats.l2d = self.l2d.stats();
        self.stats.dram = self.dram.stats().clone();
        let p = self.mem.pwc.stats();
        self.stats.pwc_hits = p.hits;
        self.stats.pwc_misses = p.misses;
        for pw in &self.pw_warps {
            self.stats.pw_warp.merge(&pw.stats());
            self.stats.fault.merge(&pw.fault_stats());
        }
        self.stats.tlb_dead_fills = self.stats.l1_tlb.dead_fills + self.l2.tlb_stats().dead_fills;
        self.prefetch.fold(&self.l2, &mut self.stats);
        self.driver.fold(&mut self.stats);
        self.stats.distributor = self.distributor.stats();
        for f in [
            self.ptw.fault_stats(),
            self.l2d.fault_stats(),
            self.dram.fault_stats(),
        ] {
            self.stats.fault.merge(&f);
        }
        if let Some(mut o) = self.obs.take() {
            let closed: Vec<Span> = o.busy.iter_mut().filter_map(BusyTracker::flush).collect();
            for s in closed {
                o.push(s);
            }
            for sm in &self.sms {
                o.reg.observe(o.ids.sm_stall, sm.stats().stall_cycles());
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
        self.tenants
            .fold(self.cfg.tenants.as_ref(), &self.sms, &mut self.stats);
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
    use crate::config::{SharingPolicy, TenantsConfig};
    use swgpu_types::PageSize;
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
        GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
    }

    #[test]
    fn build_rejects_inputs_that_do_not_fit_the_config() {
        let cfg = GpuConfig::quick_test();
        let two = GpuConfig {
            tenants: Some(TenantsConfig::pair("bfs", "2mm", cfg.sms)),
            ..cfg.clone()
        };
        let src = || -> Box<dyn InstrSource> {
            Box::new(by_abbr("gups").unwrap().build(WorkloadParams {
                sms: cfg.sms,
                warps_per_sm: cfg.max_warps,
                mem_instrs_per_warp: 1,
                footprint_percent: 1,
                page_size: cfg.page_size,
            }))
        };
        let mapped = || SimInput::Mapped {
            source: src(),
            footprint_bytes: 1 << 20,
        };
        let image = |page, scrambled| SimInput::Prebuilt {
            source: src(),
            image: PrebuiltMemory::build(page, scrambled, 1 << 20),
        };
        let other_page = match cfg.page_size {
            PageSize::Size4K => PageSize::Size64K,
            _ => PageSize::Size4K,
        };
        let rows = [
            (
                "invalid config",
                GpuConfig {
                    sms: 0,
                    ..cfg.clone()
                },
                mapped(),
                "at least one SM",
            ),
            (
                "tenant config, one source",
                two.clone(),
                mapped(),
                "SimInput::Tenants",
            ),
            (
                "tenant pairs, no tenant config",
                cfg.clone(),
                SimInput::Tenants(vec![(src(), 0), (src(), 0)]),
                "SimInput::Tenants",
            ),
            (
                "three pairs for two tenants",
                two,
                SimInput::Tenants(vec![(src(), 0), (src(), 0), (src(), 0)]),
                "got 3 for 2 tenants",
            ),
            (
                "image of another page size",
                cfg.clone(),
                image(other_page, cfg.scrambled_frames),
                "page size does not match",
            ),
            (
                "image of another frame scrambling",
                cfg.clone(),
                image(cfg.page_size, !cfg.scrambled_frames),
                "frame scrambling does not match",
            ),
        ];
        for (name, cfg, input, expected) in rows {
            let msg = GpuSimulator::build(cfg, input).unwrap_err().to_string();
            assert!(msg.contains(expected), "{name}: {msg}");
        }
    }

    #[test]
    fn loads_coalesce_at_the_l1d_sector_size() {
        // One warp's 128-byte coalesced load is one L1D access per
        // sector of the L1D's size, none of them merged.
        for (sector_bytes, accesses) in [(32, 4), (64, 2), (128, 1)] {
            let mut cfg = GpuConfig {
                sms: 1,
                max_warps: 1,
                ..GpuConfig::quick_test()
            };
            cfg.l1d.sector_bytes = sector_bytes;
            let mut src = swgpu_sm::SliceSource::new();
            let load = swgpu_sm::WarpInstr::coalesced_load(VirtAddr::new(0x4_0000));
            src.assign(SmId::new(0), WarpId::new(0), vec![load]);
            let input = SimInput::Mapped {
                source: Box::new(src),
                footprint_bytes: 1 << 20,
            };
            let s = GpuSimulator::build(cfg, input).unwrap().run();
            assert_eq!(s.loads, 1);
            assert_eq!(
                (s.l1d.accesses, s.l1d.merges),
                (accesses, 0),
                "{sector_bytes} B"
            );
        }
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
        GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
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
        let forced = GpuSimulator::build(cfg, Box::new(wl)).unwrap().run();
        assert!(
            forced.in_tlb.in_tlb_allocations > 0,
            "forced In-TLB must actually engage"
        );
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
        GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
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
        assert_eq!(
            s.fault,
            Default::default(),
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
        GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
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
        assert_eq!(
            armed.mm_fault,
            Default::default(),
            "zero rates must not count anything"
        );
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
        GpuSimulator::build(cfg, Box::new(wl)).unwrap().run()
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
        GpuSimulator::build(cfg, Box::new(wl)).unwrap()
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
        let mut sim = GpuSimulator::build(cfg, Box::new(wl)).unwrap();
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
        let sim = GpuSimulator::build(cfg, Box::new(wl)).unwrap();
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
        GpuSimulator::build(cfg, SimInput::Tenants(pairs)).unwrap()
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
