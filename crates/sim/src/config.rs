//! GPU configuration (Table 3) and translation-mode selection.

use softwalker::{DistributorPolicy, PwWarpConfig};
use swgpu_mem::{CacheConfig, DramConfig};
use swgpu_obs::ObsConfig;
use swgpu_ptw::{PtwConfig, PwbPolicy, WalkTiming};
use swgpu_tlb::{ReplPolicy, TlbConfig, TlbMshrConfig, MAX_TENANTS};
use swgpu_types::{ensure, ConfigError, FaultPlan, MmConfig, MmEvictPolicy, PageSize};

/// Which machinery resolves L2 TLB misses — one variant per configuration
/// the paper evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationMode {
    /// Hardware page table walkers over the radix table (the baseline;
    /// scale `GpuConfig::ptw.walkers` for the Figure 5 sweeps, set
    /// `GpuConfig::ptw.nha` for the NHA \[86\] comparison).
    HardwarePtw,
    /// Hardware walkers over the FS-HPT hashed page table \[32\].
    HashedPtw,
    /// Unbounded walkers *and* unbounded L2 TLB MSHRs: the "Ideal PTWs
    /// with ideal MSHRs" bar of Figure 16.
    IdealPtw,
    /// SoftWalker: PW Warps on every SM; `in_tlb_mshr` toggles the In-TLB
    /// MSHR mechanism ("SW w/o In-TLB MSHR" vs "SoftWalker" in Figure 16).
    SoftWalker {
        /// Enable the In-TLB MSHR overflow (capacity set by
        /// `GpuConfig::in_tlb_max`).
        in_tlb_mshr: bool,
    },
    /// Hybrid (§5.4): hardware walkers preferred while free, overflow to
    /// PW Warps. Protects latency-sensitive regular workloads.
    Hybrid {
        /// Enable the In-TLB MSHR overflow.
        in_tlb_mshr: bool,
    },
}

impl TranslationMode {
    /// Whether this mode deploys PW Warps.
    pub fn uses_software_walkers(self) -> bool {
        matches!(
            self,
            TranslationMode::SoftWalker { .. } | TranslationMode::Hybrid { .. }
        )
    }

    /// Whether this mode uses the hardware PTW pool.
    pub fn uses_hardware_walkers(self) -> bool {
        !matches!(self, TranslationMode::SoftWalker { .. })
    }

    /// Whether the In-TLB MSHR mechanism is active.
    pub fn in_tlb_enabled(self) -> bool {
        matches!(
            self,
            TranslationMode::SoftWalker { in_tlb_mshr: true }
                | TranslationMode::Hybrid { in_tlb_mshr: true }
        )
    }
}

/// WaSP-style translation-prefetch knobs for the Request Distributor
/// (software-walker modes only): each cycle the distributor peeks up to
/// `lookahead` future loads per warp stream and issues up to `degree`
/// prefetch walks into *idle* PW-Warp threads. Prefetched fills land in
/// the shared L2 TLB tagged, so an unused prefetch is preferentially
/// evicted and its fate (useful / late / evicted) is counted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Master switch. Disabled (the default) is fully inert: no extra
    /// work, no stats, and no bytes in [`GpuConfig::fingerprint`].
    pub enabled: bool,
    /// Future load instructions to peek per warp stream.
    pub lookahead: u32,
    /// Maximum prefetch walks issued per cycle.
    pub degree: u32,
}

impl PrefetchConfig {
    /// An enabled prefetcher with modest defaults (4-load lookahead,
    /// 2 prefetches per cycle).
    pub fn enabled() -> Self {
        Self {
            enabled: true,
            lookahead: 4,
            degree: 2,
        }
    }
}

/// How concurrent tenants share the translation stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// MIG-style static partitioning: each tenant owns a disjoint window
    /// of L2 TLB ways (associativity divided evenly) and its walks
    /// dispatch only to its own SMs. Strong isolation, no QoS needed.
    Partitioned,
    /// Fully shared L2 TLB and walker pool, with a QoS cap bounding each
    /// tenant's concurrently in-flight page walks so one irregular tenant
    /// cannot monopolize the walk bandwidth.
    Shared {
        /// Maximum walks a single tenant may have in flight at once.
        max_inflight_walks: u32,
    },
}

/// One tenant: a workload bound to a slice of the machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantConfig {
    /// Workload tag (a Table 4 abbreviation like `"bfs"` or `"2mm"`) —
    /// the harness binds this tenant's instruction streams from it.
    pub workload: String,
    /// Number of SMs statically assigned to this tenant. Assignments are
    /// contiguous in tenant order and must sum to [`GpuConfig::sms`].
    pub sms: usize,
}

/// Multi-tenant section: 2–8 concurrent address spaces over one GPU.
///
/// Absent (`GpuConfig::tenants == None`, the default) the simulator is
/// byte-identical to the single-tenant machine: every translation
/// structure keys on [`swgpu_types::Asid::ZERO`] and the section adds no
/// bytes to [`GpuConfig::fingerprint`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantsConfig {
    /// The tenants, in SM-assignment order (tenant *i* gets ASID *i*).
    pub tenants: Vec<TenantConfig>,
    /// How the shared translation stack is divided.
    pub policy: SharingPolicy,
    /// Opt-in sub-entry sharing: tenants run *identically mapped* address
    /// spaces (one shared page table), and an L2 TLB fill whose (VPN,
    /// PFN) already sits valid under another tenant's tag joins that
    /// entry instead of consuming a way.
    pub sub_entry_sharing: bool,
}

impl TenantsConfig {
    /// A partitioned two-tenant mix of the given workloads, splitting the
    /// SMs evenly (the first tenant takes the remainder).
    pub fn pair(a: &str, b: &str, sms: usize) -> Self {
        Self {
            tenants: vec![
                TenantConfig {
                    workload: a.to_string(),
                    sms: sms - sms / 2,
                },
                TenantConfig {
                    workload: b.to_string(),
                    sms: sms / 2,
                },
            ],
            policy: SharingPolicy::Partitioned,
            sub_entry_sharing: false,
        }
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the section is degenerate (never valid; see
    /// [`GpuConfig::validate`]).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// The SM index range assigned to tenant `i` (contiguous in tenant
    /// order).
    pub fn sm_range(&self, i: usize) -> std::ops::Range<usize> {
        let start: usize = self.tenants[..i].iter().map(|t| t.sms).sum();
        start..start + self.tenants[i].sms
    }
}

/// Full-system configuration. [`GpuConfig::default`] reproduces Table 3;
/// every field the paper sweeps is public.
#[derive(Debug, Clone)]
pub struct GpuConfig {
    /// Number of SMs (46).
    pub sms: usize,
    /// Warps per SM (48).
    pub max_warps: usize,
    /// Translation granularity (64 KB base; 2 MB for the large-page
    /// studies).
    pub page_size: PageSize,
    /// Per-SM L1 TLB (32 entries, fully associative).
    pub l1_tlb: TlbConfig,
    /// L1 TLB MSHRs (32 x 192 merges).
    pub l1_mshr: TlbMshrConfig,
    /// L1 TLB lookup latency (10 cycles).
    pub l1_tlb_latency: u64,
    /// Shared L2 TLB (1024 entries, 16-way).
    pub l2_tlb: TlbConfig,
    /// L2 TLB MSHRs (128 x 46 merges). The Figure 12 "MSHRs" sweep scales
    /// `entries`.
    pub l2_mshr: TlbMshrConfig,
    /// L2 TLB access latency (80 cycles; swept 40–200 in Figure 22). Also
    /// the SM↔L2TLB communication charge for SoftWalker dispatch and FL2T
    /// return.
    pub l2_tlb_latency: u64,
    /// Latency of the L2→L1 translation response path.
    pub xlat_return_latency: u64,
    /// Maximum L2 TLB entries usable as In-TLB MSHRs (1024; swept in
    /// Figure 24). Only consulted when the mode enables the mechanism.
    pub in_tlb_max: usize,
    /// Per-SM L1 data cache (128 KB, 40 cycles).
    pub l1d: CacheConfig,
    /// Shared L2 data cache (4 MB, 180 cycles).
    pub l2d: CacheConfig,
    /// GDDR6 DRAM model (16 channels, 448 GB/s).
    pub dram: DramConfig,
    /// Page walk cache (32 entries, fully associative).
    pub pwc_entries: usize,
    /// Hardware walk subsystem (32 walkers baseline; `nha` and `timing`
    /// knobs live here).
    pub ptw: PtwConfig,
    /// PW Warp shape (32 threads, 32-entry SoftPWB).
    pub pw_warp: PwWarpConfig,
    /// Request Distributor policy (round-robin default; Figure 26).
    pub distributor_policy: DistributorPolicy,
    /// Dispatches the Request Distributor can perform per cycle.
    pub dispatches_per_cycle: usize,
    /// Translation prefetch into idle PW-Warp threads (software-walker
    /// modes only). Disabled by default; like [`GpuConfig::obs`], a
    /// disabled block contributes no bytes to [`GpuConfig::fingerprint`].
    pub prefetch: PrefetchConfig,
    /// Translation machinery under test.
    pub mode: TranslationMode,
    /// Force-enable the In-TLB MSHR even for hardware-walker modes — the
    /// Figure 21 ablation ("128 PTWs + In-TLB MSHR").
    pub force_in_tlb: bool,
    /// Scramble physical frame assignment (like a real free-list
    /// allocator).
    pub scrambled_frames: bool,
    /// Safety net: abort the run after this many cycles.
    pub max_cycles: u64,
    /// Deterministic fault injection + recovery knobs. All rates default
    /// to zero, which leaves every injection site unarmed: a zero-rate
    /// run is cycle- and stats-identical to a build without the fault
    /// layer. The plan participates in [`GpuConfig::fingerprint`], so
    /// changing it busts the experiment runner's cache.
    pub fault_plan: FaultPlan,
    /// Observability knobs (spans, sampled time-series, histograms).
    /// Disabled by default; a disabled config records nothing, leaves
    /// stats byte-identical to the pre-observability behavior and —
    /// crucially — does not participate in [`GpuConfig::fingerprint`],
    /// so obs-off fingerprints (and every cached baseline) are
    /// unchanged. An *enabled* config is hashed and busts the cache.
    pub obs: ObsConfig,
    /// Demand-paged memory manager (Mosaic-style driver/OS model). The
    /// default is *disabled*: the simulator prebuilds the full page table
    /// exactly as before, and — like [`GpuConfig::obs`] — a disabled
    /// block contributes no bytes to [`GpuConfig::fingerprint`], so every
    /// existing cached baseline keeps its key. When enabled, pages are
    /// populated on first touch through the fault-buffer/driver-replay
    /// machinery, contiguous 4 KB runs coalesce into 64 KB/2 MB mappings,
    /// and a device-memory budget triggers LRU eviction.
    pub mm: MmConfig,
    /// Multi-tenant section (2–8 concurrent workloads under MIG-style
    /// partitioning or QoS-capped sharing). `None` — the default — is the
    /// single-tenant machine, byte-identical to the pre-tenant simulator,
    /// and contributes no bytes to [`GpuConfig::fingerprint`].
    pub tenants: Option<TenantsConfig>,
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self {
            sms: 46,
            max_warps: 48,
            page_size: PageSize::Size64K,
            l1_tlb: TlbConfig::l1(),
            l1_mshr: TlbMshrConfig::l1(),
            l1_tlb_latency: 10,
            l2_tlb: TlbConfig::l2(),
            l2_mshr: TlbMshrConfig::l2(),
            l2_tlb_latency: 80,
            xlat_return_latency: 20,
            in_tlb_max: 1024,
            l1d: CacheConfig::l1d(),
            l2d: CacheConfig::l2d(),
            dram: DramConfig::default(),
            pwc_entries: 32,
            ptw: PtwConfig::default(),
            pw_warp: PwWarpConfig::default(),
            distributor_policy: DistributorPolicy::RoundRobin,
            dispatches_per_cycle: 2,
            prefetch: PrefetchConfig::default(),
            mode: TranslationMode::HardwarePtw,
            force_in_tlb: false,
            scrambled_frames: true,
            max_cycles: 50_000_000,
            fault_plan: FaultPlan::default(),
            obs: ObsConfig::default(),
            mm: MmConfig::default(),
            tenants: None,
        }
    }
}

impl GpuConfig {
    /// A small configuration for unit tests: 4 SMs, 8 warps each.
    pub fn quick_test() -> Self {
        Self {
            sms: 4,
            max_warps: 8,
            max_cycles: 2_000_000,
            ..Self::default()
        }
    }

    /// Applies the paper's PTW-scaling rule (Figures 5/12/21): sets the
    /// walker count and proportionally scales the PWB; optionally scales
    /// the L2 TLB MSHRs alongside ("PTWs + MSHRs" in Figure 12).
    pub fn with_ptws(mut self, walkers: usize, scale_mshrs: bool) -> Self {
        self.ptw.walkers = walkers;
        self.ptw.pwb_entries = (walkers * 4).max(128);
        self.ptw.pwb_ports = (walkers / 32).max(1);
        if scale_mshrs {
            let f = (walkers / 32).max(1);
            self.l2_mshr.entries = 128 * f;
        }
        self
    }

    /// The ideal configuration: unbounded walkers and MSHRs.
    pub fn ideal(mut self) -> Self {
        self.mode = TranslationMode::IdealPtw;
        self.ptw = PtwConfig {
            timing: self.ptw.timing,
            nha: self.ptw.nha,
            sector_bytes: self.ptw.sector_bytes,
            ..PtwConfig::ideal()
        };
        self.l2_mshr = TlbMshrConfig {
            entries: usize::MAX / 2,
            max_merges: usize::MAX / 2,
        };
        self
    }

    /// Switches to 2 MB pages (the large-page sensitivity studies).
    pub fn with_large_pages(mut self) -> Self {
        self.page_size = PageSize::Size2M;
        self
    }

    /// Sets the fixed per-level page-table latency of Figure 23.
    pub fn with_fixed_walk_latency(mut self, cycles: u64) -> Self {
        self.ptw.timing = WalkTiming::FixedPerLevel(cycles);
        self
    }

    /// A stable 64-bit fingerprint over every configuration field,
    /// rendered as 16 hex digits — the experiment runner keys its run
    /// cache on this (plus the workload identity), so any config change
    /// busts the cache.
    ///
    /// The fingerprint is FNV-1a over the *explicit field values*, **not**
    /// over a `Debug` rendering: a cosmetic `Debug` format change must
    /// neither invalidate nor alias cached baselines. Each config struct
    /// names its fields once, in one exhaustive destructure (the `Fp`
    /// impls below), so adding a field without hashing it is a compile
    /// error. The blocks hashed only when armed write a marker first and
    /// add no bytes while unarmed. The default's value and those of
    /// configs arming each block are pinned by tests; an accidental change
    /// to what is hashed fails them loudly instead of silently corrupting
    /// the cache.
    pub fn fingerprint(&self) -> String {
        let mut h = Fnv(0xcbf2_9ce4_8422_2325);
        self.fp(&mut h);
        format!("{:016x}", h.0)
    }

    /// Validates cross-field consistency, the id widths, and the TLB,
    /// data-cache and PTW-pool geometries the simulator is built from.
    ///
    /// # Errors
    ///
    /// Names the first inconsistency found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure!(self.sms > 0, "need at least one SM");
        ensure!(self.max_warps > 0, "need at least one warp per SM");
        // SM ids are u16, and id u16::MAX names the prefetcher's L2 MSHR
        // waiter; warp ids are u16.
        ensure!(
            self.sms <= usize::from(u16::MAX),
            "at most {} SMs (SM ids are u16), got {}",
            u16::MAX,
            self.sms
        );
        ensure!(
            self.max_warps <= usize::from(u16::MAX) + 1,
            "at most {} warps per SM (warp ids are u16), got {}",
            usize::from(u16::MAX) + 1,
            self.max_warps
        );
        // Checked here, not first when the component is constructed.
        self.l1_tlb.validate()?;
        self.l2_tlb.validate()?;
        self.l1d.validate()?;
        self.l2d.validate()?;
        self.ptw.validate()?;
        self.l1_mshr.validate()?;
        self.l2_mshr.validate()?;
        ensure!(self.pwc_entries > 0, "PWC needs at least one entry");
        self.dram.validate()?;
        self.pw_warp.validate()?;
        // The distributor counts each core's free SoftPWB slots in a u32.
        ensure!(
            u32::try_from(self.pw_warp.softpwb_entries).is_ok(),
            "at most {} SoftPWB entries, got {}",
            u32::MAX,
            self.pw_warp.softpwb_entries
        );
        ensure!(self.dispatches_per_cycle > 0, "distributor needs a port");
        for (name, rate, _) in self.fault_plan.rates() {
            ensure!(
                (0.0..=1.0).contains(&rate),
                "fault plan {name} must be a probability, got {rate}"
            );
        }
        if self.fault_plan.enabled() {
            ensure!(
                self.fault_plan.watchdog_cycles > 0,
                "an armed fault plan needs a positive watchdog timeout"
            );
        }
        ensure!(
            !(self.mode == TranslationMode::HashedPtw && self.ptw.nha),
            "NHA coalesces walks whose radix leaf PTEs share a sector; \
             FS-HPT buckets hold unrelated VPNs, so disable ptw.nha under \
             HashedPtw"
        );
        if self.fault_plan.data_path_enabled() {
            ensure!(
                self.mm.enabled,
                "data-path fault rates target the demand-paging pipeline; \
                 enable the memory manager or zero the fill/shootdown/driver \
                 rates"
            );
            ensure!(
                self.fault_plan.fill_delay_rate <= 0.0 || self.fault_plan.fill_delay_cycles > 0,
                "an armed fill-delay site needs a positive delay"
            );
            ensure!(
                self.fault_plan.frame_retire_threshold >= 1,
                "frame retirement needs a threshold of at least one failure"
            );
        }
        self.obs.validate()?;
        if self.mm.enabled {
            ensure!(
                self.mm.fill_latency > 0,
                "demand paging needs a positive driver fill latency"
            );
            ensure!(
                self.mode != TranslationMode::HashedPtw,
                "demand paging requires the radix page table; the FS-HPT \
                 hashed table has no incremental map/unmap path"
            );
        }
        if self.prefetch.enabled {
            ensure!(
                self.mode.uses_software_walkers(),
                "translation prefetch issues walks into idle PW-Warp \
                 threads; it requires a software-walker mode"
            );
            ensure!(
                self.prefetch.lookahead > 0,
                "an enabled prefetcher needs a positive lookahead"
            );
            ensure!(
                self.prefetch.degree > 0,
                "an enabled prefetcher needs a positive degree"
            );
        }
        if self.mode.in_tlb_enabled() || self.force_in_tlb {
            ensure!(
                self.in_tlb_max > 0,
                "In-TLB MSHR is enabled but in_tlb_max is 0; disable the \
                 mechanism explicitly (in_tlb_mshr: false / SwNoInTlb) instead"
            );
        }
        let Some(t) = &self.tenants else {
            return Ok(());
        };
        ensure!(
            (2..=MAX_TENANTS).contains(&t.tenants.len()),
            "multi-tenant runs take 2 to {MAX_TENANTS} tenants, got {}",
            t.tenants.len()
        );
        ensure!(
            t.tenants.iter().all(|x| x.sms > 0),
            "every tenant needs at least one SM"
        );
        ensure!(
            t.tenants.iter().all(|x| !x.workload.is_empty()),
            "every tenant needs a workload tag"
        );
        let total: usize = t.tenants.iter().map(|x| x.sms).sum();
        ensure!(
            total == self.sms,
            "tenant SM assignments must cover every SM exactly, got {total} of {}",
            self.sms
        );
        if t.policy == SharingPolicy::Partitioned {
            ensure!(
                self.l2_tlb.assoc.is_multiple_of(t.tenants.len()),
                "partitioned mode splits L2 TLB ways evenly; the \
                 associativity must be divisible by the tenant count"
            );
        }
        if let SharingPolicy::Shared { max_inflight_walks } = t.policy {
            ensure!(
                max_inflight_walks >= 1,
                "the QoS cap must admit at least one in-flight walk"
            );
        }
        ensure!(
            self.mode != TranslationMode::HashedPtw,
            "multi-tenant runs use per-tenant radix tables; the FS-HPT \
             hashed table is single-tenant only"
        );
        ensure!(
            !(t.sub_entry_sharing && self.mm.enabled),
            "sub-entry sharing runs one identically-mapped address \
             space for all tenants; demand paging would evict pages \
             under one tenant while another still maps them"
        );
        Ok(())
    }
}

/// FNV-1a accumulator behind [`GpuConfig::fingerprint`]. Every value is
/// written at a fixed width (see [`Fp`]), so two configurations can only
/// collide if a full 64-bit FNV collision occurs.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A value [`GpuConfig::fingerprint`] hashes: integers and flags as eight
/// little-endian bytes, a float as its bits, a string or list
/// length-prefixed, and an enum as its variant number, then its payload.
trait Fp {
    fn fp(&self, h: &mut Fnv);
}

/// Hashes each listed value in order.
macro_rules! fp {
    ($h:expr; $($v:expr),* $(,)?) => {{
        $(($v).fp($h);)*
    }};
}

/// Hashes the fields of `$v` in the listed order through one exhaustive
/// destructure, so a field added to `$T` but left out of the list is a
/// compile error. The caller hashes the fields after `;` by hand (the
/// blocks hashed only when armed, or fields behind a fixed word).
macro_rules! hash_fields {
    ($h:expr, $v:expr => $T:ident { $($f:ident),* $(; $($armed:ident),*)? $(,)? }) => {
        let $T { $($f,)* $($($armed: _,)*)? } = $v;
        fp!($h; $($f),*);
    };
}

/// Config blocks hashed whole, every field in declaration order.
macro_rules! fp_structs {
    ($($T:ident { $($f:ident),* $(,)? })*) => {$(
        impl Fp for $T {
            fn fp(&self, h: &mut Fnv) {
                hash_fields!(h, self => $T { $($f),* });
            }
        }
    )*};
}

macro_rules! fp_as_u64 {
    ($($t:ty),*) => {$(
        impl Fp for $t {
            fn fp(&self, h: &mut Fnv) {
                h.u64(*self as u64);
            }
        }
    )*};
}

// A fieldless enum hashes its declaration index; the pinned fingerprints
// catch a reordered variant.
fp_as_u64!(u64, usize, u32, bool, DistributorPolicy, PwbPolicy);

impl Fp for f64 {
    fn fp(&self, h: &mut Fnv) {
        h.u64(self.to_bits());
    }
}

impl Fp for String {
    fn fp(&self, h: &mut Fnv) {
        self.len().fp(h);
        h.bytes(self.as_bytes());
    }
}

impl<T: Fp> Fp for Vec<T> {
    fn fp(&self, h: &mut Fnv) {
        self.len().fp(h);
        self.iter().for_each(|x| x.fp(h));
    }
}

impl Fp for PageSize {
    fn fp(&self, h: &mut Fnv) {
        h.u64(self.bytes());
    }
}

impl Fp for TranslationMode {
    fn fp(&self, h: &mut Fnv) {
        match *self {
            TranslationMode::HardwarePtw => h.u64(0),
            TranslationMode::HashedPtw => h.u64(1),
            TranslationMode::IdealPtw => h.u64(2),
            TranslationMode::SoftWalker { in_tlb_mshr } => fp!(h; 3u64, in_tlb_mshr),
            TranslationMode::Hybrid { in_tlb_mshr } => fp!(h; 4u64, in_tlb_mshr),
        }
    }
}

impl Fp for WalkTiming {
    fn fp(&self, h: &mut Fnv) {
        match *self {
            WalkTiming::Memory => h.u64(0),
            WalkTiming::FixedPerLevel(cycles) => fp!(h; 1u64, cycles),
        }
    }
}

impl Fp for SharingPolicy {
    fn fp(&self, h: &mut Fnv) {
        match *self {
            SharingPolicy::Partitioned => h.u64(0),
            SharingPolicy::Shared { max_inflight_walks } => fp!(h; 1u64, max_inflight_walks),
        }
    }
}

fp_structs! {
    TlbMshrConfig { entries, max_merges }
    CacheConfig {
        name, size_bytes, assoc, line_bytes, sector_bytes, hit_latency, mshr_entries,
        mshr_max_merges,
    }
    DramConfig { channels, latency, service_cycles, interleave_bytes }
    PtwConfig { walkers, pwb_entries, pwb_ports, nha, sector_bytes, timing, pwb_policy }
    PwWarpConfig {
        threads, softpwb_entries, setup_instrs, per_level_instrs, finish_instrs,
        fault_buffer_entries,
    }
    TenantConfig { workload, sms }
}

impl Fp for TlbConfig {
    fn fp(&self, h: &mut Fnv) {
        hash_fields!(h, self => TlbConfig { name, entries, assoc; repl });
        // The baseline LRU policy contributes no bytes, so every cached
        // pre-policy-axis fingerprint — including the golden pin — is
        // unchanged.
        if self.repl != ReplPolicy::Lru {
            h.u64(0x5245_504c); // "REPL" marker
            h.u64(1);
        }
    }
}

impl Fp for FaultPlan {
    fn fp(&self, h: &mut Fnv) {
        hash_fields!(h, self => FaultPlan {
            seed, pte_corrupt_rate, mem_drop_rate, mem_delay_rate, mem_delay_cycles,
            stuck_thread_rate, watchdog_cycles, max_retries, driver_latency;
            pte_silent_corrupt_rate, fill_drop_rate, fill_delay_rate, fill_delay_cycles,
            fill_duplicate_rate, fill_corrupt_rate, shootdown_drop_rate, driver_stuck_rate,
            frame_retire_threshold,
        });
        // Hashed only when armed so every pre-existing (silent-rate-zero)
        // fingerprint — including the golden pin — is unchanged.
        if self.pte_silent_corrupt_rate > 0.0 {
            h.u64(0x5343_4f52); // "SCOR" marker
            self.pte_silent_corrupt_rate.fp(h);
        }
        // Same contract for the demand-paging data-path block: all-zero rates
        // contribute no bytes, so every pre-existing fingerprint is intact.
        if self.data_path_enabled() {
            h.u64(0x4450_5448); // "DPTH" marker
            fp!(h;
                self.fill_drop_rate, self.fill_delay_rate, self.fill_delay_cycles,
                self.fill_duplicate_rate, self.fill_corrupt_rate, self.shootdown_drop_rate,
                self.driver_stuck_rate, self.frame_retire_threshold,
            );
        }
    }
}

impl Fp for GpuConfig {
    fn fp(&self, h: &mut Fnv) {
        // Hash order, not declaration order: the fault plan and the blocks
        // hashed only when armed come last.
        hash_fields!(h, self => GpuConfig {
            sms, max_warps, page_size, l1_tlb, l1_mshr, l1_tlb_latency, l2_tlb, l2_mshr,
            l2_tlb_latency, xlat_return_latency, in_tlb_max, l1d, l2d, dram, pwc_entries, ptw,
            pw_warp, distributor_policy, dispatches_per_cycle, mode, force_in_tlb,
            scrambled_frames, max_cycles; fault_plan, obs, mm, prefetch, tenants,
        });
        // The retired walk-trace cap's slot hashes as zero, so every pinned
        // fingerprint (and every cached artifact's key) holds.
        h.u64(0);
        fp!(h; self.fault_plan, self.obs, self.mm, self.prefetch, self.tenants);
    }
}

/// Hashed **only when enabled**. A disabled block contributes no bytes at
/// all, so every obs-off configuration fingerprints exactly as it did
/// before the field existed — the golden pin proves it. Enabling
/// observation (or changing an enabled block's knobs) writes a marker plus
/// the knob values, busting the cache for obs-carrying artifacts only.
impl Fp for ObsConfig {
    fn fp(&self, h: &mut Fnv) {
        if self.enabled {
            h.u64(0x4f42_5321); // "OBS!" marker
            hash_fields!(h, self => ObsConfig {
                sample_interval, series_capacity, span_capacity; enabled
            });
        }
    }
}

/// Hashed **only when enabled** — the same zero-overhead cache-key
/// contract as [`ObsConfig`]'s block: prebuilt-mode fingerprints (and
/// every cached baseline) are exactly what they were before the field
/// existed.
impl Fp for MmConfig {
    fn fp(&self, h: &mut Fnv) {
        if self.enabled {
            h.u64(0x4d4d_4752); // "MMGR" marker
            hash_fields!(h, self => MmConfig {
                resident_page_budget, fill_latency, coalesce; enabled, evict
            });
            // The historical FIFO policy contributes no bytes, so every
            // cached FIFO (and pre-policy-axis) fingerprint is unchanged.
            if self.evict != MmEvictPolicy::Fifo {
                h.u64(0x4c52_5545); // "LRUE" marker
                h.u64(1);
            }
        }
    }
}

/// Hashed **only when enabled**, like the obs and mm blocks: every
/// prefetch-off fingerprint (and every cached baseline) is unchanged.
impl Fp for PrefetchConfig {
    fn fp(&self, h: &mut Fnv) {
        if self.enabled {
            h.u64(0x5046_4348); // "PFCH" marker
            hash_fields!(h, self => PrefetchConfig { lookahead, degree; enabled });
            // Revision 1: the event kernel keeps the dense loop's per-cycle
            // prefetch scans. Earlier event-kernel results skipped some scans
            // and differ, so they must not be served from the run cache.
            // Revision 2: a prefetched result that joins an entry already
            // resident under sub-entry sharing counts as a wasted prefetch.
            // Earlier results left it uncounted and break the prefetch ledger.
            h.u64(2);
        }
    }
}

/// Hashed **only when present**, like the obs and mm blocks: every
/// single-tenant fingerprint (including the golden pin) is exactly what
/// it was before the field existed.
impl Fp for Option<TenantsConfig> {
    fn fp(&self, h: &mut Fnv) {
        if let Some(t) = self {
            h.u64(0x544e_4e54); // "TNNT" marker
            hash_fields!(h, t => TenantsConfig { tenants, policy, sub_entry_sharing });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table3() {
        let c = GpuConfig::default();
        assert_eq!(c.sms, 46);
        assert_eq!(c.max_warps, 48);
        assert_eq!(c.l2_tlb.entries, 1024);
        assert_eq!(c.l2_mshr.entries, 128);
        assert_eq!(c.l2_mshr.max_merges, 46);
        assert_eq!(c.ptw.walkers, 32);
        assert_eq!(c.pwc_entries, 32);
        assert_eq!(c.page_size, PageSize::Size64K);
        assert_eq!(c.pw_warp.threads, 32);
        assert_eq!(c.pw_warp.softpwb_entries, 32);
        assert_eq!(c.in_tlb_max, 1024);
    }

    #[test]
    fn ptw_scaling_scales_companions() {
        let c = GpuConfig::default().with_ptws(256, true);
        assert_eq!(c.ptw.walkers, 256);
        assert_eq!(c.ptw.pwb_entries, 1024);
        assert_eq!(c.l2_mshr.entries, 1024);
        let c2 = GpuConfig::default().with_ptws(256, false);
        assert_eq!(c2.l2_mshr.entries, 128);
    }

    #[test]
    fn mode_predicates() {
        assert!(TranslationMode::SoftWalker { in_tlb_mshr: true }.uses_software_walkers());
        assert!(!TranslationMode::SoftWalker { in_tlb_mshr: false }.uses_hardware_walkers());
        assert!(TranslationMode::Hybrid { in_tlb_mshr: false }.uses_hardware_walkers());
        assert!(TranslationMode::Hybrid { in_tlb_mshr: false }.uses_software_walkers());
        assert!(!TranslationMode::HardwarePtw.in_tlb_enabled());
        assert!(TranslationMode::SoftWalker { in_tlb_mshr: true }.in_tlb_enabled());
    }

    /// The pinned fingerprint of `GpuConfig::default()`. The experiment
    /// runner's disk cache keys on this value: if it drifts, every cached
    /// baseline is silently invalidated (or worse, aliased). Any change
    /// to the config fields or the hashing scheme must be *deliberate* —
    /// update this constant only when the cache is meant to be busted.
    const GOLDEN_DEFAULT_FINGERPRINT: &str = "e2d406ba07f931c1";

    /// Beside the default, configs that arm each block hashed only when
    /// armed, every mode and every distributor policy are pinned too: a
    /// drift there re-keys cached results of that kind just as silently.
    #[test]
    fn fingerprint_is_pinned() {
        fn sw(c: &mut GpuConfig) {
            c.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
        }
        let pins: [(&str, Tweak, &str); 18] = [
            ("default", |_| {}, GOLDEN_DEFAULT_FINGERPRINT),
            ("obs", |c| c.obs = ObsConfig::enabled(), "137d5b58cc2a6217"),
            (
                "mm lru coalescing",
                |c| {
                    c.mm = MmConfig {
                        evict: MmEvictPolicy::Lru,
                        resident_page_budget: 2048,
                        ..MmConfig::demand_paged()
                    }
                },
                "23b97fc7527aa0dd",
            ),
            (
                "prefetch",
                |c| {
                    sw(c);
                    c.prefetch = PrefetchConfig::enabled();
                },
                "0c55bd487302a560",
            ),
            (
                "tenants shared",
                |c| {
                    let mut t = TenantsConfig::pair("bfs", "2mm", 46);
                    t.policy = SharingPolicy::Shared {
                        max_inflight_walks: 64,
                    };
                    c.tenants = Some(t);
                },
                "93958b9ddcbd7f89",
            ),
            (
                "tenants partitioned sharing",
                |c| {
                    let mut t = TenantsConfig::pair("bfs", "bfs", 46);
                    t.sub_entry_sharing = true;
                    c.tenants = Some(t);
                },
                "6d537bf983481a88",
            ),
            (
                "fault plan silent and data path",
                |c| {
                    c.mm = MmConfig::demand_paged();
                    let p = &mut c.fault_plan;
                    p.seed = 11;
                    p.pte_corrupt_rate = 0.01;
                    p.pte_silent_corrupt_rate = 0.02;
                    p.mem_drop_rate = 0.03;
                    p.fill_drop_rate = 0.04;
                    p.fill_delay_rate = 0.05;
                    p.fill_delay_cycles = 700;
                    p.fill_duplicate_rate = 0.06;
                    p.fill_corrupt_rate = 0.07;
                    p.shootdown_drop_rate = 0.08;
                    p.driver_stuck_rate = 0.09;
                    p.frame_retire_threshold = 3;
                },
                "cbf079cd5f5a7226",
            ),
            (
                "dead block both tlbs",
                |c| {
                    c.l1_tlb.repl = ReplPolicy::DeadBlock;
                    c.l2_tlb.repl = ReplPolicy::DeadBlock;
                },
                "b8e5f463a1ef704d",
            ),
            (
                "fixed timing warp shortest first",
                |c| {
                    c.ptw.timing = WalkTiming::FixedPerLevel(100);
                    c.ptw.pwb_policy = PwbPolicy::WarpShortestFirst;
                },
                "af2423b3d4738665",
            ),
            (
                "hashed ptw",
                |c| c.mode = TranslationMode::HashedPtw,
                "aa93d254b9482de8",
            ),
            ("ideal ptw", |c| *c = c.clone().ideal(), "0c5174586cb5f0e0"),
            ("softwalker", sw, "9621b9f2d096a12f"),
            (
                "softwalker without in-tlb",
                |c| c.mode = TranslationMode::SoftWalker { in_tlb_mshr: false },
                "3ac346f8401b7746",
            ),
            (
                "hybrid",
                |c| c.mode = TranslationMode::Hybrid { in_tlb_mshr: true },
                "858a6cc4ca346adc",
            ),
            (
                "hybrid without in-tlb",
                |c| c.mode = TranslationMode::Hybrid { in_tlb_mshr: false },
                "d19f78f8ea471b65",
            ),
            (
                "random distributor",
                |c| c.distributor_policy = DistributorPolicy::Random,
                "b94bc5ab507b1f28",
            ),
            (
                "stall-aware distributor",
                |c| c.distributor_policy = DistributorPolicy::StallAware,
                "0c7ef0db1dd8d00f",
            ),
            (
                // Every armed block at once: the only row that sees their
                // order.
                "all armed",
                |c| {
                    sw(c);
                    c.prefetch = PrefetchConfig::enabled();
                    c.obs = ObsConfig::enabled();
                    c.mm = MmConfig {
                        evict: MmEvictPolicy::Lru,
                        resident_page_budget: 2048,
                        ..MmConfig::demand_paged()
                    };
                    let mut t = TenantsConfig::pair("bfs", "2mm", 46);
                    t.policy = SharingPolicy::Shared {
                        max_inflight_walks: 64,
                    };
                    c.tenants = Some(t);
                    c.fault_plan.pte_silent_corrupt_rate = 0.02;
                    c.fault_plan.fill_drop_rate = 0.04;
                    c.l1_tlb.repl = ReplPolicy::DeadBlock;
                    c.l2_tlb.repl = ReplPolicy::DeadBlock;
                    c.ptw.timing = WalkTiming::FixedPerLevel(100);
                    c.ptw.pwb_policy = PwbPolicy::WarpShortestFirst;
                    c.distributor_policy = DistributorPolicy::StallAware;
                },
                "5e506a172671063e",
            ),
        ];
        let mut drifted = Vec::new();
        for (name, tweak, pin) in pins {
            let mut cfg = GpuConfig::default();
            tweak(&mut cfg);
            cfg.validate().unwrap();
            let got = cfg.fingerprint();
            if got != pin {
                drifted.push(format!("{name}: {got} (pinned {pin})"));
            }
        }
        assert!(
            drifted.is_empty(),
            "GpuConfig::fingerprint drifted — this invalidates cached \
             results; if intentional, update the pins:\n{}",
            drifted.join("\n")
        );
    }

    #[test]
    fn fingerprint_covers_every_knob() {
        // One perturbation per field family; every one must produce a
        // distinct fingerprint (a knob the hash misses would silently
        // alias cache entries).
        type Tweak = Box<dyn Fn(&mut GpuConfig)>;
        let tweaks: Vec<Tweak> = vec![
            Box::new(|c| c.sms += 1),
            Box::new(|c| c.max_warps += 1),
            Box::new(|c| c.page_size = PageSize::Size2M),
            Box::new(|c| c.l1_tlb.entries += 1),
            Box::new(|c| c.l1_mshr.max_merges += 1),
            Box::new(|c| c.l1_tlb_latency += 1),
            Box::new(|c| c.l2_tlb.assoc += 1),
            Box::new(|c| c.l2_mshr.entries += 1),
            Box::new(|c| c.l2_tlb_latency += 1),
            Box::new(|c| c.xlat_return_latency += 1),
            Box::new(|c| c.in_tlb_max += 1),
            Box::new(|c| c.l1d.size_bytes += 128),
            Box::new(|c| c.l2d.hit_latency += 1),
            Box::new(|c| c.dram.channels += 1),
            Box::new(|c| c.pwc_entries += 1),
            Box::new(|c| c.ptw.walkers += 1),
            Box::new(|c| c.ptw.timing = WalkTiming::FixedPerLevel(100)),
            Box::new(|c| c.ptw.pwb_policy = PwbPolicy::WarpShortestFirst),
            Box::new(|c| c.pw_warp.threads += 1),
            Box::new(|c| c.distributor_policy = DistributorPolicy::Random),
            Box::new(|c| c.dispatches_per_cycle += 1),
            Box::new(|c| c.mode = TranslationMode::SoftWalker { in_tlb_mshr: true }),
            Box::new(|c| c.force_in_tlb = true),
            Box::new(|c| c.scrambled_frames = false),
            Box::new(|c| c.max_cycles += 1),
            Box::new(|c| c.fault_plan.seed = 7),
            Box::new(|c| c.fault_plan.pte_silent_corrupt_rate = 0.25),
            Box::new(|c| {
                c.mm = MmConfig::demand_paged();
                c.fault_plan.fill_drop_rate = 0.25;
            }),
            Box::new(|c| {
                c.mm = MmConfig::demand_paged();
                c.fault_plan.fill_delay_rate = 0.25;
            }),
            Box::new(|c| {
                c.mm = MmConfig::demand_paged();
                c.fault_plan.fill_delay_rate = 0.25;
                c.fault_plan.fill_delay_cycles = 5_000;
            }),
            Box::new(|c| {
                c.mm = MmConfig::demand_paged();
                c.fault_plan.fill_duplicate_rate = 0.25;
            }),
            Box::new(|c| {
                c.mm = MmConfig::demand_paged();
                c.fault_plan.fill_corrupt_rate = 0.25;
            }),
            Box::new(|c| {
                c.mm = MmConfig::demand_paged();
                c.fault_plan.shootdown_drop_rate = 0.25;
            }),
            Box::new(|c| {
                c.mm = MmConfig::demand_paged();
                c.fault_plan.driver_stuck_rate = 0.25;
            }),
            Box::new(|c| {
                c.mm = MmConfig::demand_paged();
                c.fault_plan.fill_corrupt_rate = 0.25;
                c.fault_plan.frame_retire_threshold = 9;
            }),
            Box::new(|c| {
                c.mm = MmConfig {
                    evict: MmEvictPolicy::Lru,
                    ..MmConfig::demand_paged()
                }
            }),
            Box::new(|c| c.obs = ObsConfig::enabled()),
            Box::new(|c| c.mm = MmConfig::demand_paged()),
            Box::new(|c| {
                c.mm = MmConfig {
                    resident_page_budget: 4096,
                    ..MmConfig::demand_paged()
                }
            }),
            Box::new(|c| {
                c.obs = ObsConfig {
                    sample_interval: 2048,
                    ..ObsConfig::enabled()
                }
            }),
            Box::new(|c| c.l1_tlb.repl = ReplPolicy::DeadBlock),
            Box::new(|c| c.l2_tlb.repl = ReplPolicy::DeadBlock),
            Box::new(|c| {
                c.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
                c.prefetch = PrefetchConfig::enabled();
            }),
            Box::new(|c| {
                c.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
                c.prefetch = PrefetchConfig {
                    lookahead: 8,
                    ..PrefetchConfig::enabled()
                };
            }),
            Box::new(|c| c.tenants = Some(TenantsConfig::pair("bfs", "2mm", 46))),
            Box::new(|c| c.tenants = Some(TenantsConfig::pair("bfs", "sssp", 46))),
            Box::new(|c| {
                let mut t = TenantsConfig::pair("bfs", "2mm", 46);
                t.tenants[0].sms = 30;
                t.tenants[1].sms = 16;
                c.tenants = Some(t);
            }),
            Box::new(|c| {
                let mut t = TenantsConfig::pair("bfs", "2mm", 46);
                t.policy = SharingPolicy::Shared {
                    max_inflight_walks: 64,
                };
                c.tenants = Some(t);
            }),
            Box::new(|c| {
                let mut t = TenantsConfig::pair("bfs", "2mm", 46);
                t.policy = SharingPolicy::Shared {
                    max_inflight_walks: 128,
                };
                c.tenants = Some(t);
            }),
            Box::new(|c| {
                let mut t = TenantsConfig::pair("bfs", "bfs", 46);
                t.sub_entry_sharing = true;
                c.tenants = Some(t);
            }),
        ];
        let mut prints = vec![GpuConfig::default().fingerprint()];
        for tweak in &tweaks {
            let mut cfg = GpuConfig::default();
            tweak(&mut cfg);
            prints.push(cfg.fingerprint());
        }
        let unique: swgpu_types::FastSet<&String> = prints.iter().collect();
        assert_eq!(unique.len(), prints.len(), "fingerprint aliased a knob");
    }

    #[test]
    fn fingerprint_distinguishes_configs() {
        let base = GpuConfig::default();
        assert_eq!(base.fingerprint(), GpuConfig::default().fingerprint());
        assert_eq!(base.fingerprint().len(), 16);
        let mut tweaked = GpuConfig::default();
        tweaked.l2_tlb_latency += 1;
        assert_ne!(base.fingerprint(), tweaked.fingerprint());
        let sw = GpuConfig {
            mode: TranslationMode::SoftWalker { in_tlb_mshr: true },
            ..GpuConfig::default()
        };
        assert_ne!(base.fingerprint(), sw.fingerprint());
    }

    #[test]
    fn fault_plan_defaults_disabled_and_fingerprints() {
        let base = GpuConfig::default();
        assert!(!base.fault_plan.enabled());
        base.validate().unwrap();
        let mut faulty = GpuConfig::default();
        faulty.fault_plan.pte_corrupt_rate = 0.01;
        faulty.validate().unwrap();
        assert_ne!(
            base.fingerprint(),
            faulty.fingerprint(),
            "an armed plan must bust the run cache"
        );
        let mut reseeded = faulty.clone();
        reseeded.fault_plan.seed = 1;
        assert_ne!(faulty.fingerprint(), reseeded.fingerprint());
    }

    #[test]
    fn disabled_obs_leaves_fingerprint_unchanged() {
        // The zero-overhead contract extends to the cache key: an obs-off
        // config hashes identically no matter what the (ignored) knobs
        // say, and identically to the pre-observability golden pin.
        let mut weird_knobs = GpuConfig::default();
        weird_knobs.obs.sample_interval = 99;
        weird_knobs.obs.series_capacity = 7;
        assert_eq!(weird_knobs.fingerprint(), GOLDEN_DEFAULT_FINGERPRINT);

        let on = GpuConfig {
            obs: ObsConfig::enabled(),
            ..GpuConfig::default()
        };
        on.validate().unwrap();
        assert_ne!(
            on.fingerprint(),
            GOLDEN_DEFAULT_FINGERPRINT,
            "enabled observation must bust the cache"
        );
    }

    #[test]
    fn disabled_mm_leaves_fingerprint_unchanged() {
        // Like obs: an mm-off config hashes identically no matter what
        // the (ignored) knobs say, and identically to the pre-mm golden
        // pin — prebuilt-mode cached baselines keep their keys.
        let mut weird_knobs = GpuConfig::default();
        weird_knobs.mm.resident_page_budget = 17;
        weird_knobs.mm.fill_latency = 999;
        weird_knobs.mm.coalesce = false;
        assert_eq!(weird_knobs.fingerprint(), GOLDEN_DEFAULT_FINGERPRINT);

        let on = GpuConfig {
            mm: MmConfig::demand_paged(),
            ..GpuConfig::default()
        };
        on.validate().unwrap();
        assert_ne!(
            on.fingerprint(),
            GOLDEN_DEFAULT_FINGERPRINT,
            "demand paging must bust the cache"
        );
    }

    #[test]
    fn zero_silent_rate_leaves_fingerprint_unchanged() {
        assert_eq!(
            GpuConfig::default().fingerprint(),
            GOLDEN_DEFAULT_FINGERPRINT
        );
        let mut armed = GpuConfig::default();
        armed.fault_plan.pte_silent_corrupt_rate = 0.01;
        armed.validate().unwrap();
        assert_ne!(armed.fingerprint(), GOLDEN_DEFAULT_FINGERPRINT);
    }

    #[test]
    fn zero_data_path_rates_leave_fingerprint_unchanged() {
        // Non-rate data-path knobs (delay length, retire threshold) are
        // ignored while every rate is zero — same contract as the silent
        // corrupt rate above, so the golden pin survives the new fields.
        let mut idle_knobs = GpuConfig::default();
        idle_knobs.fault_plan.fill_delay_cycles = 123;
        idle_knobs.fault_plan.frame_retire_threshold = 42;
        assert_eq!(idle_knobs.fingerprint(), GOLDEN_DEFAULT_FINGERPRINT);

        let mut armed = GpuConfig {
            mm: MmConfig::demand_paged(),
            ..GpuConfig::default()
        };
        armed.fault_plan.fill_drop_rate = 0.01;
        armed.validate().unwrap();
        let mm_only = GpuConfig {
            mm: MmConfig::demand_paged(),
            ..GpuConfig::default()
        };
        assert_ne!(
            armed.fingerprint(),
            mm_only.fingerprint(),
            "armed data-path rates must bust the cache"
        );
    }

    #[test]
    fn fifo_evict_policy_leaves_fingerprint_unchanged() {
        // FIFO is the pre-policy-axis behaviour: an enabled manager with
        // FIFO eviction hashes exactly as it did before the enum existed.
        let fifo = GpuConfig {
            mm: MmConfig::demand_paged(),
            ..GpuConfig::default()
        };
        let lru = GpuConfig {
            mm: MmConfig {
                evict: MmEvictPolicy::Lru,
                ..MmConfig::demand_paged()
            },
            ..GpuConfig::default()
        };
        lru.validate().unwrap();
        assert_ne!(fifo.fingerprint(), lru.fingerprint());
        // Disabled manager ignores the policy knob entirely.
        let mut off = GpuConfig::default();
        off.mm.evict = MmEvictPolicy::Lru;
        assert_eq!(off.fingerprint(), GOLDEN_DEFAULT_FINGERPRINT);
    }

    #[test]
    fn lru_policy_and_disabled_prefetch_leave_fingerprint_unchanged() {
        // Same contract as obs/mm: the baseline replacement policy and a
        // disabled prefetcher add no bytes, so the golden pin and every
        // cached baseline survive the new policy axis.
        let mut idle_knobs = GpuConfig::default();
        idle_knobs.prefetch.lookahead = 99;
        idle_knobs.prefetch.degree = 3;
        assert_eq!(idle_knobs.fingerprint(), GOLDEN_DEFAULT_FINGERPRINT);

        let mut dead = GpuConfig::default();
        dead.l2_tlb.repl = ReplPolicy::DeadBlock;
        dead.validate().unwrap();
        assert_ne!(
            dead.fingerprint(),
            GOLDEN_DEFAULT_FINGERPRINT,
            "a non-LRU policy must bust the cache"
        );

        let sw_only = GpuConfig {
            mode: TranslationMode::SoftWalker { in_tlb_mshr: true },
            ..GpuConfig::default()
        };
        let pf = GpuConfig {
            prefetch: PrefetchConfig::enabled(),
            ..sw_only.clone()
        };
        pf.validate().unwrap();
        assert_ne!(
            pf.fingerprint(),
            sw_only.fingerprint(),
            "an enabled prefetcher must bust the cache"
        );
    }

    #[test]
    fn absent_tenants_leave_fingerprint_unchanged() {
        // The multi-tenant section follows the gated-block contract: the
        // default (single-tenant) config hashes exactly as it did before
        // the field existed, so the golden pin and every cached baseline
        // survive. A present section busts the cache.
        assert_eq!(
            GpuConfig::default().fingerprint(),
            GOLDEN_DEFAULT_FINGERPRINT
        );
        let two = GpuConfig {
            tenants: Some(TenantsConfig::pair("bfs", "2mm", 46)),
            ..GpuConfig::default()
        };
        two.validate().unwrap();
        assert_ne!(two.fingerprint(), GOLDEN_DEFAULT_FINGERPRINT);
    }

    #[test]
    fn tenant_validation_accepts_both_policies() {
        for policy in [
            SharingPolicy::Partitioned,
            SharingPolicy::Shared {
                max_inflight_walks: 64,
            },
        ] {
            let mut cfg = GpuConfig::quick_test();
            let mut t = TenantsConfig::pair("bfs", "2mm", cfg.sms);
            t.policy = policy;
            cfg.tenants = Some(t);
            cfg.validate().unwrap();
        }
    }

    #[test]
    fn tenant_sm_ranges_are_contiguous_and_disjoint() {
        let mut t = TenantsConfig::pair("a", "b", 46);
        t.tenants.push(TenantConfig {
            workload: "c".into(),
            sms: 10,
        });
        assert_eq!(t.sm_range(0), 0..23);
        assert_eq!(t.sm_range(1), 23..46);
        assert_eq!(t.sm_range(2), 46..56);
    }

    type Tweak = fn(&mut GpuConfig);

    /// Applies each row's tweak to the quick-test config and checks that
    /// `validate` rejects the result with a message naming the problem.
    fn assert_rejected(rows: &[(&str, Tweak, &str)]) {
        for (name, tweak, expected) in rows {
            let mut cfg = GpuConfig::quick_test();
            tweak(&mut cfg);
            let msg = cfg.validate().unwrap_err().to_string();
            assert!(msg.contains(expected), "{name}: {msg}");
        }
    }

    #[test]
    fn validate_rejects_geometries_that_panic_at_construction() {
        assert_rejected(&[
            (
                "24-entry 16-way L1 TLB",
                |c| {
                    c.l1_tlb.entries = 24;
                    c.l1_tlb.assoc = 16;
                },
                "multiple of associativity",
            ),
            (
                "0-way L2 TLB",
                |c| c.l2_tlb.assoc = 0,
                "TLB cannot be empty",
            ),
            (
                "0-way L2D",
                |c| c.l2d.assoc = 0,
                "associativity must be positive",
            ),
            (
                "3-set L1D",
                |c| c.l1d.size_bytes = 3 * c.l1d.line_bytes * c.l1d.assoc as u64,
                "power-of-two number of sets",
            ),
            ("70,000 SMs", |c| c.sms = 70_000, "SM ids are u16"),
        ]);
    }

    #[test]
    fn validate_rejects_sizes_that_panic_in_component_constructors() {
        assert_rejected(&[
            (
                "0-entry L1 TLB MSHR file",
                |c| c.l1_mshr.entries = 0,
                "MSHR file needs at least one entry",
            ),
            (
                "0-merge L1 TLB MSHR file",
                |c| c.l1_mshr.max_merges = 0,
                "merge limit must be positive",
            ),
            (
                "0-entry L2 TLB MSHR file",
                |c| c.l2_mshr.entries = 0,
                "MSHR file needs at least one entry",
            ),
            (
                "0-merge L2 TLB MSHR file",
                |c| c.l2_mshr.max_merges = 0,
                "merge limit must be positive",
            ),
            ("0-entry PWC", |c| c.pwc_entries = 0, "PWC needs"),
            ("0-channel DRAM", |c| c.dram.channels = 0, "DRAM needs"),
            (
                "0-thread PW Warp",
                |c| c.pw_warp.threads = 0,
                "PW warp needs at least one thread",
            ),
            (
                "PW Warp wider than a u16 route slot",
                |c| c.pw_warp.threads = usize::from(u16::MAX) + 2,
                "names the thread in a u16",
            ),
            (
                "0-entry fault buffer",
                |c| c.pw_warp.fault_buffer_entries = 0,
                "fault buffer needs entries",
            ),
            (
                "SoftPWB past the distributor's u32 counter",
                |c| c.pw_warp.softpwb_entries = usize::MAX,
                "SoftPWB entries",
            ),
        ]);
    }

    #[test]
    fn validate_bounds_ids_by_their_u16_width() {
        let mut cfg = GpuConfig::quick_test();
        cfg.sms = usize::from(u16::MAX);
        cfg.max_warps = usize::from(u16::MAX) + 1;
        cfg.validate().unwrap();
        assert_rejected(&[
            (
                "one SM past the bound",
                |c| c.sms = usize::from(u16::MAX) + 1,
                "SM ids are u16",
            ),
            (
                "one warp past the bound",
                |c| c.max_warps = usize::from(u16::MAX) + 2,
                "warp ids are u16",
            ),
        ]);
    }

    #[test]
    fn validate_rejects_inconsistent_settings() {
        assert_rejected(&[
            (
                "tenants that miss an SM",
                |c| c.tenants = Some(TenantsConfig::pair("bfs", "2mm", c.sms + 1)),
                "cover every SM",
            ),
            (
                "nine tenants",
                |c| {
                    c.sms = 9;
                    c.tenants = Some(TenantsConfig {
                        tenants: (0..9)
                            .map(|i| TenantConfig {
                                workload: format!("w{i}"),
                                sms: 1,
                            })
                            .collect(),
                        policy: SharingPolicy::Partitioned,
                        sub_entry_sharing: false,
                    });
                },
                "2 to 8 tenants",
            ),
            (
                "16 partitioned ways over 3 tenants",
                |c| {
                    c.sms = 3;
                    c.tenants = Some(TenantsConfig {
                        tenants: (0..3)
                            .map(|i| TenantConfig {
                                workload: format!("w{i}"),
                                sms: 1,
                            })
                            .collect(),
                        policy: SharingPolicy::Partitioned,
                        sub_entry_sharing: false,
                    });
                },
                "divisible by the tenant count",
            ),
            (
                "zero QoS cap",
                |c| {
                    let mut t = TenantsConfig::pair("bfs", "2mm", c.sms);
                    t.policy = SharingPolicy::Shared {
                        max_inflight_walks: 0,
                    };
                    c.tenants = Some(t);
                },
                "at least one in-flight walk",
            ),
            (
                "tenants over the hashed table",
                |c| {
                    c.mode = TranslationMode::HashedPtw;
                    c.tenants = Some(TenantsConfig::pair("bfs", "2mm", c.sms));
                },
                "single-tenant only",
            ),
            (
                "sub-entry sharing under demand paging",
                |c| {
                    c.mm = MmConfig::demand_paged();
                    let mut t = TenantsConfig::pair("bfs", "bfs", c.sms);
                    t.sub_entry_sharing = true;
                    c.tenants = Some(t);
                },
                "demand paging",
            ),
            (
                "prefetch without software walkers",
                |c| {
                    c.mode = TranslationMode::HardwarePtw;
                    c.prefetch = PrefetchConfig::enabled();
                },
                "software-walker mode",
            ),
            (
                "prefetch with zero lookahead",
                |c| {
                    c.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
                    c.prefetch = PrefetchConfig {
                        lookahead: 0,
                        ..PrefetchConfig::enabled()
                    };
                },
                "positive lookahead",
            ),
            (
                "data-path rates without demand paging",
                |c| c.fault_plan.fill_corrupt_rate = 0.5,
                "demand-paging pipeline",
            ),
            (
                "demand paging with zero fill latency",
                |c| {
                    c.mm = MmConfig {
                        fill_latency: 0,
                        ..MmConfig::demand_paged()
                    };
                },
                "positive driver fill latency",
            ),
            (
                "NHA over the hashed table",
                |c| {
                    c.mode = TranslationMode::HashedPtw;
                    c.ptw.nha = true;
                },
                "disable ptw.nha",
            ),
            (
                "demand paging over the hashed table",
                |c| {
                    c.mm = MmConfig::demand_paged();
                    c.mode = TranslationMode::HashedPtw;
                },
                "radix page table",
            ),
            (
                "enabled obs with zero sample interval",
                |c| {
                    c.obs = ObsConfig {
                        sample_interval: 0,
                        ..ObsConfig::enabled()
                    };
                },
                "sample interval",
            ),
            (
                "fault rate above one",
                |c| c.fault_plan.mem_drop_rate = 1.5,
                "must be a probability",
            ),
            (
                "In-TLB MSHR with zero capacity",
                |c| {
                    c.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
                    c.in_tlb_max = 0;
                },
                "in_tlb_max is 0",
            ),
            (
                "forced In-TLB MSHR with zero capacity",
                |c| {
                    c.force_in_tlb = true;
                    c.in_tlb_max = 0;
                },
                "in_tlb_max is 0",
            ),
        ]);
    }

    #[test]
    fn hashed_table_arms_every_site() {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = TranslationMode::HashedPtw;
        cfg.fault_plan.mem_drop_rate = 0.05;
        cfg.fault_plan.pte_corrupt_rate = 0.05;
        cfg.fault_plan.pte_silent_corrupt_rate = 0.05;
        cfg.validate().unwrap();
    }

    #[test]
    fn in_tlb_disabled_allows_zero_capacity() {
        let mut cfg = GpuConfig::quick_test();
        cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: false };
        cfg.in_tlb_max = 0;
        cfg.validate().unwrap();
    }

    #[test]
    fn ideal_is_unbounded() {
        let c = GpuConfig::default().ideal();
        assert_eq!(c.ptw.walkers, usize::MAX);
        assert!(c.l2_mshr.entries > 1 << 40);
    }
}
