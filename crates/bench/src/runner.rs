//! The shared experiment runner for the figure harnesses.
//!
//! Every figure/table binary executes its `(GpuConfig, workload)` cells
//! through one [`Runner`], built from its parsed flags
//! ([`Runner::from_harness`]), which provides:
//!
//! * **Parallelism** — [`Runner::run_cells`] executes cells on a
//!   `std::thread::scope` worker pool sized by `--jobs N` (default: all
//!   available cores). A binary builds its cells once, resolves them in
//!   one batch and formats its tables from the returned stats by
//!   position; benchmark × configuration sweeps go through
//!   [`crate::grid::Grid`].
//! * **Memoization** — completed runs are cached in-process *and* on disk
//!   under `target/swgpu-runs/` (override with `SWGPU_RUN_CACHE`, or the
//!   coarser `SWGPU_RUNS_DIR` for per-checkout/per-CI-shard roots), keyed
//!   by workload identity + [`GpuConfig::fingerprint`]. Running `fig16`
//!   then `fig18` repeats no baseline simulation. `--refresh` ignores and
//!   rewrites disk entries; `--no-cache` disables the disk cache.
//! * **Artifacts & observability** — each simulated cell is persisted as
//!   a JSON [`crate::artifact::RunArtifact`] (including the
//!   [`swgpu_sim::ObsReport`] of obs-enabled cells, so obs-requesting
//!   cells are cacheable too) and reported with a progress line; batch summaries include the
//!   cache-hit split, and every invocation writes a `manifest.json` next
//!   to the artifacts recording per-cell outcome, wall time, pool
//!   utilization, retries, and the cell's `spans_dropped` count (nonzero
//!   when the span recorder overflowed, i.e. the cell's trace is
//!   truncated). A cell's counters, per-tenant slices and fairness index
//!   included, live in its artifact alone.
//!   `--trace-out <dir>` asks a harness to export Perfetto traces of its
//!   obs-enabled cells into `<dir>`; exports built from a truncated
//!   recorder warn on stderr.
//! * **Shared page-table prebuilds** — cells whose workloads share a
//!   footprint reuse one deterministic pre-built memory image
//!   ([`swgpu_sim::PrebuiltMemory`]) instead of re-mapping every page per
//!   cell. Demand-paged cells (`cfg.mm.enabled`) bypass the store: their
//!   page table starts empty and fills on first touch.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::artifact::{LoadOutcome, RunArtifact};
use swgpu_obs::SpanKind;
use swgpu_sim::{
    GpuConfig, GpuSimulator, ObsConfig, ObsReport, PrebuiltMemory, RunProgress, SimInput, SimStats,
    TranslationMode,
};
use swgpu_sm::InstrSource;
use swgpu_types::{ConfigError, FastMap, FastSet, PageSize};
use swgpu_workloads::{by_abbr, microbench, BenchmarkSpec, WorkloadParams};

/// Run sizing: the full Table 3 machine, or a reduced one for iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// 46 SMs x 48 warps, 6 memory instructions per warp.
    Full,
    /// 16 SMs x 16 warps, 4 memory instructions per warp.
    Quick,
}

impl Scale {
    /// SMs simulated.
    pub fn sms(self) -> usize {
        match self {
            Scale::Full => 46,
            Scale::Quick => 16,
        }
    }

    /// Warps per SM.
    pub fn warps(self) -> usize {
        match self {
            Scale::Full => 48,
            Scale::Quick => 16,
        }
    }

    /// Memory instructions per warp.
    pub fn mem_instrs(self) -> u32 {
        match self {
            Scale::Full => 6,
            Scale::Quick => 4,
        }
    }
}

/// CLI options shared by every harness binary.
#[derive(Debug, Clone)]
pub struct Harness {
    /// Run sizing.
    pub scale: Scale,
    /// Emit CSV after the table.
    pub csv: bool,
    /// Worker threads for the experiment runner (`--jobs N`; default
    /// available parallelism).
    pub jobs: usize,
    /// Ignore existing disk-cache entries and rewrite them (`--refresh`).
    pub refresh: bool,
    /// Disable the on-disk run cache entirely (`--no-cache`).
    pub no_cache: bool,
    /// Directory to export Perfetto traces of obs-enabled cells into
    /// (`--trace-out <dir>`). Harnesses without an obs story ignore it.
    pub trace_out: Option<PathBuf>,
}

/// Parses the harness flags: `--quick`, `--csv`, `--jobs N`,
/// `--refresh`, `--no-cache`, `--trace-out <dir>` (the two valued flags
/// also take the `--flag=value` form). An unknown flag, a missing value or
/// a `--jobs` value that is not a count exits with a message naming it.
pub fn parse_args() -> Harness {
    parse_arg_list(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("usage: [--quick] [--csv] [--jobs N] [--refresh] [--no-cache] [--trace-out DIR]");
        std::process::exit(2)
    })
}

fn parse_arg_list(mut args: impl Iterator<Item = String>) -> Result<Harness, String> {
    let mut h = Harness {
        scale: Scale::Full,
        csv: false,
        jobs: default_jobs(),
        refresh: false,
        no_cache: false,
        trace_out: None,
    };
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f == "--jobs" || f == "--trace-out" => (f.to_string(), Some(v.into())),
            _ => (arg, None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--quick" => h.scale = Scale::Quick,
            "--csv" => h.csv = true,
            "--refresh" => h.refresh = true,
            "--no-cache" => h.no_cache = true,
            "--jobs" => {
                let v = value()?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs expects a count, got {v:?}"))?;
                h.jobs = n.max(1);
            }
            "--trace-out" => h.trace_out = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(h)
}

/// Default worker count: every available core.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// One of the named system configurations the paper compares. Everything
/// is derived from the Table 3 default plus the mode-specific deltas the
/// evaluation section describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemConfig {
    /// 32 hardware PTWs (the normalization baseline).
    Baseline,
    /// Baseline plus NHA page-walk coalescing \[86\].
    Nha,
    /// Baseline walkers over the FS-HPT hashed page table \[32\].
    FsHpt,
    /// Hardware PTWs scaled to `n` (PWB and, when `scale_mshrs`, the L2
    /// MSHRs scale along — the paper's Figure 5 methodology).
    ScaledPtw {
        /// Walker count.
        walkers: usize,
        /// Scale the L2 TLB MSHRs proportionally.
        scale_mshrs: bool,
    },
    /// Baseline walkers with the L2 MSHR file scaled to `entries`
    /// (Figure 12's "MSHRs" series).
    ScaledMshr {
        /// Dedicated L2 TLB MSHR entries.
        entries: usize,
    },
    /// SoftWalker without the In-TLB MSHR.
    SwNoInTlb,
    /// Full SoftWalker (In-TLB MSHR capacity from the config, 1024
    /// default).
    SoftWalker,
    /// SoftWalker with a specific In-TLB capacity (Figure 24).
    SwWithCapacity {
        /// Maximum L2 TLB entries usable as MSHRs.
        in_tlb_max: usize,
    },
    /// The hybrid hardware+software design (§5.4).
    Hybrid,
    /// Ideal PTWs with ideal MSHRs.
    Ideal,
    /// Hardware walkers plus In-TLB MSHR (Figure 21's ablation).
    HwWithInTlb {
        /// Walker count.
        walkers: usize,
    },
}

impl SystemConfig {
    /// Short label used in table headers.
    pub fn label(self) -> String {
        match self {
            SystemConfig::Baseline => "Baseline".into(),
            SystemConfig::Nha => "NHA".into(),
            SystemConfig::FsHpt => "FS-HPT".into(),
            SystemConfig::ScaledPtw { walkers, .. } => format!("{walkers}PTW"),
            SystemConfig::ScaledMshr { entries } => format!("{entries}MSHR"),
            SystemConfig::SwNoInTlb => "SW w/o InTLB".into(),
            SystemConfig::SoftWalker => "SoftWalker".into(),
            SystemConfig::SwWithCapacity { in_tlb_max } => format!("SW({in_tlb_max})"),
            SystemConfig::Hybrid => "SW Hybrid".into(),
            SystemConfig::Ideal => "Ideal".into(),
            SystemConfig::HwWithInTlb { walkers } => format!("{walkers}PTW+InTLB"),
        }
    }

    /// Builds the simulator configuration for this system at `scale`.
    pub fn build(self, scale: Scale) -> GpuConfig {
        let mut cfg = GpuConfig {
            sms: scale.sms(),
            max_warps: scale.warps(),
            ..GpuConfig::default()
        };
        match self {
            SystemConfig::Baseline => {}
            SystemConfig::Nha => cfg.ptw.nha = true,
            SystemConfig::FsHpt => cfg.mode = TranslationMode::HashedPtw,
            SystemConfig::ScaledPtw {
                walkers,
                scale_mshrs,
            } => {
                cfg = cfg.with_ptws(walkers, scale_mshrs);
            }
            SystemConfig::ScaledMshr { entries } => {
                cfg.l2_mshr.entries = entries;
            }
            SystemConfig::SwNoInTlb => {
                cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: false };
            }
            SystemConfig::SoftWalker => {
                cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
            }
            SystemConfig::SwWithCapacity { in_tlb_max: 0 } => {
                // Zero capacity means "no In-TLB MSHR at all": identical
                // to SwNoInTlb, rather than silently clamping to 1 entry
                // (which would simulate a different — and misleading —
                // one-entry design point).
                cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: false };
            }
            SystemConfig::SwWithCapacity { in_tlb_max } => {
                cfg.mode = TranslationMode::SoftWalker { in_tlb_mshr: true };
                cfg.in_tlb_max = in_tlb_max;
            }
            SystemConfig::Hybrid => {
                cfg.mode = TranslationMode::Hybrid { in_tlb_mshr: true };
            }
            SystemConfig::Ideal => {
                cfg = cfg.ideal();
            }
            SystemConfig::HwWithInTlb { walkers } => {
                cfg = cfg.with_ptws(walkers, false);
                cfg.force_in_tlb = true;
            }
        }
        cfg
    }

    /// [`SystemConfig::build`] with the observability layer armed, so the
    /// cell's artifact carries the obs histograms and time-series.
    pub fn build_observed(self, scale: Scale) -> GpuConfig {
        GpuConfig {
            obs: ObsConfig::enabled(),
            ..self.build(scale)
        }
    }
}

/// The workload half of an experiment cell. Closure-free by design: a
/// workload must be *keyable* (for the run cache) and *rebuildable on a
/// worker thread*, neither of which a `FnOnce` tweak can provide.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CellWorkload {
    /// A Table 4 benchmark, with its footprint scaled to
    /// `footprint_percent`% of the Table 4 size (100 = as published).
    Bench {
        /// The benchmark abbreviation (`by_abbr` key, e.g. `"bfs"`).
        abbr: String,
        /// Footprint scale in percent (Figures 6/25 sweep this).
        footprint_percent: u64,
    },
    /// The Figure 4/9 synthetic walk-contention microbenchmark.
    Micro {
        /// Concurrent single-lane walker warps.
        concurrent: usize,
        /// Warps packed per SM.
        warps_per_sm: usize,
        /// Accesses each warp issues.
        accesses_per_warp: u32,
        /// Virtual footprint the accesses stride across.
        footprint_bytes: u64,
    },
    /// A multi-tenant mix: one Table 4 benchmark per tenant, bound to
    /// the SM slices of the cell's `cfg.tenants` layout. The sharing
    /// policy and SM split live in the config (and hence in the
    /// fingerprint half of the cache key); the abbreviations ride here
    /// so the workload half of the key stays human-readable.
    TenantMix {
        /// Per-tenant benchmark abbreviations, in ASID order. Must match
        /// the `workload` tags of the config's tenant layout.
        abbrs: Vec<String>,
        /// Footprint scale in percent, applied to every tenant.
        footprint_percent: u64,
    },
}

impl CellWorkload {
    /// A stable, filesystem-safe identity string for this workload.
    pub fn key(&self) -> String {
        match self {
            CellWorkload::Bench {
                abbr,
                footprint_percent,
            } => format!("{abbr}-fp{footprint_percent}"),
            CellWorkload::Micro {
                concurrent,
                warps_per_sm,
                accesses_per_warp,
                footprint_bytes,
            } => format!(
                "micro-c{concurrent}-w{warps_per_sm}-a{accesses_per_warp}-f{footprint_bytes}"
            ),
            CellWorkload::TenantMix {
                abbrs,
                footprint_percent,
            } => format!("mt-{}-fp{footprint_percent}", abbrs.join("+")),
        }
    }
}

/// One experiment cell: a complete simulator configuration plus the
/// workload identity to drive through it. Cells are the unit of
/// scheduling, memoization, and artifact persistence.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The full simulator configuration (fingerprinted for the cache key).
    pub cfg: GpuConfig,
    /// The workload to run.
    pub workload: CellWorkload,
}

impl Cell {
    /// A benchmark cell at the published (100%) footprint.
    pub fn bench(spec: &BenchmarkSpec, cfg: GpuConfig) -> Self {
        Self::bench_scaled(spec, cfg, 100)
    }

    /// A benchmark cell with a scaled footprint.
    pub fn bench_scaled(spec: &BenchmarkSpec, cfg: GpuConfig, footprint_percent: u64) -> Self {
        Cell {
            cfg,
            workload: CellWorkload::Bench {
                abbr: spec.abbr.to_string(),
                footprint_percent,
            },
        }
    }

    /// A microbenchmark cell (page size comes from `cfg`).
    pub fn micro(
        cfg: GpuConfig,
        concurrent: usize,
        warps_per_sm: usize,
        accesses_per_warp: u32,
        footprint_bytes: u64,
    ) -> Self {
        Cell {
            cfg,
            workload: CellWorkload::Micro {
                concurrent,
                warps_per_sm,
                accesses_per_warp,
                footprint_bytes,
            },
        }
    }

    /// A multi-tenant cell: the tenant mix is read off `cfg.tenants`
    /// (one Table 4 benchmark per tenant, bound to its SM slice), with
    /// every tenant's footprint scaled to `footprint_percent`%.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.tenants` is `None` — a single-tenant config has
    /// no mix to bind.
    pub fn tenant_mix(cfg: GpuConfig, footprint_percent: u64) -> Self {
        let layout = cfg
            .tenants
            .as_ref()
            .expect("Cell::tenant_mix requires cfg.tenants");
        let abbrs = layout.tenants.iter().map(|t| t.workload.clone()).collect();
        Cell {
            cfg,
            workload: CellWorkload::TenantMix {
                abbrs,
                footprint_percent,
            },
        }
    }

    /// The cell's cache key: `<workload key>-<config fingerprint>`.
    pub fn key(&self) -> String {
        format!("{}-{}", self.workload.key(), self.cfg.fingerprint())
    }

    /// Builds benchmark `abbr` at `percent` of its footprint for `sms` SMs
    /// of this cell's machine, and reports the footprint it needs mapped.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark abbreviation.
    fn bench_source(&self, abbr: &str, sms: usize, percent: u64) -> (Box<dyn InstrSource>, u64) {
        let cfg = &self.cfg;
        let spec =
            by_abbr(abbr).unwrap_or_else(|| panic!("unknown benchmark abbreviation {abbr:?}"));
        let wl = spec.build(WorkloadParams {
            sms,
            warps_per_sm: cfg.max_warps,
            mem_instrs_per_warp: match cfg.sms {
                0..=16 => Scale::Quick.mem_instrs(),
                _ => Scale::Full.mem_instrs(),
            },
            footprint_percent: percent,
            page_size: cfg.page_size,
        });
        let footprint = wl.footprint_bytes();
        (Box::new(wl), footprint)
    }

    /// Builds the simulator input for this cell: its instruction source
    /// and the footprint it needs mapped (what the runner keys its shared
    /// page-table prebuild store on), or one such pair per tenant, each
    /// benchmark sized to its tenant's SM slice. The config is validated
    /// first, so a rejected cell generates nothing.
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark abbreviation.
    fn sim_input(&self) -> Result<SimInput, ConfigError> {
        let cfg = &self.cfg;
        cfg.validate()?;
        let (source, footprint_bytes): (Box<dyn InstrSource>, u64) = match &self.workload {
            CellWorkload::Bench {
                abbr,
                footprint_percent,
            } => self.bench_source(abbr, cfg.sms, *footprint_percent),
            CellWorkload::Micro {
                concurrent,
                warps_per_sm,
                accesses_per_warp,
                footprint_bytes,
            } => {
                let wl = microbench(
                    *concurrent,
                    *warps_per_sm,
                    *accesses_per_warp,
                    *footprint_bytes,
                    cfg.page_size,
                );
                let footprint = wl.footprint_bytes();
                (Box::new(wl), footprint)
            }
            CellWorkload::TenantMix {
                footprint_percent, ..
            } => {
                // No tenant layout, no pairs: `GpuSimulator::build` rejects it.
                let tenants = cfg.tenants.iter().flat_map(|layout| &layout.tenants);
                let pairs =
                    tenants.map(|t| self.bench_source(&t.workload, t.sms, *footprint_percent));
                return Ok(SimInput::Tenants(pairs.collect()));
            }
        };
        Ok(SimInput::Mapped {
            source,
            footprint_bytes,
        })
    }

    /// Builds the ready-to-run simulator for this cell (no caching, no
    /// shared prebuild store). Public so trace tooling and tests can
    /// attach an SWTB sink or progress hook before running.
    ///
    /// # Errors
    ///
    /// Rejects an invalid config (see [`GpuSimulator::build`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown benchmark abbreviation.
    pub fn build_simulator(&self) -> Result<GpuSimulator, ConfigError> {
        GpuSimulator::build(self.cfg.clone(), self.sim_input()?)
    }

    /// Runs the simulation for this cell (no caching — see [`Runner`]).
    /// Panics on a rejected config or an unknown benchmark abbreviation.
    pub fn simulate(&self) -> SimStats {
        self.build_simulator()
            .map(GpuSimulator::run)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the cell on the dense reference kernel, executing every
    /// cycle instead of jumping between scheduled events. Produces
    /// byte-identical [`SimStats`] to [`Cell::simulate`]; exists so CI
    /// can cross-check the two kernels on real bench cells.
    pub fn simulate_dense(&self) -> SimStats {
        self.build_simulator()
            .map(GpuSimulator::run_dense)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

/// Where the runner resolved a cell's result from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellSource {
    /// Fresh simulation this process.
    Simulated,
    /// In-process memo hit.
    Memo,
    /// On-disk artifact hit (possibly written by another binary).
    Disk,
}

impl CellSource {
    fn label(self) -> &'static str {
        match self {
            CellSource::Simulated => "sim",
            CellSource::Memo => "memo",
            CellSource::Disk => "cache",
        }
    }
}

/// Cache-hit accounting for a [`Runner`] (cumulative per process).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunnerCounters {
    /// Cells actually simulated.
    pub simulated: u64,
    /// Cells served from the in-process memo.
    pub memo_hits: u64,
    /// Cells served from on-disk artifacts.
    pub disk_hits: u64,
    /// Cells that failed (the batch continued): a rejected config at
    /// once, a panicked simulation only after the automatic retry also
    /// panicked.
    pub failed: u64,
    /// Cells whose first simulation attempt panicked and were retried
    /// once with a fresh simulation (the retry itself may still fail).
    /// A rejected config is never retried.
    pub retried: u64,
    /// Corrupt disk artifacts set aside (renamed `*.json.corrupt*`) and
    /// re-simulated.
    pub quarantined: u64,
    /// Quarantines that found an earlier quarantine file already in
    /// place and had to pick a suffixed name instead of clobbering it.
    pub quarantine_collisions: u64,
    /// Intact artifacts skipped for their schema, a missing or partial
    /// obs payload, or a broken ledger (silently re-simulated and
    /// overwritten; never quarantined).
    pub stale: u64,
    /// Page-table images built for the shared prebuild store.
    pub pt_prebuilds: u64,
    /// Simulations that reused a prebuilt page-table image.
    pub pt_prebuild_hits: u64,
}

impl RunnerCounters {
    /// Total successful cell resolutions.
    pub fn total(&self) -> u64 {
        self.simulated + self.memo_hits + self.disk_hits
    }
}

/// A cell whose config was rejected or whose simulation panicked. The
/// runner catches both so one invalid or diverging configuration cannot
/// take down a whole batch (and with it the results of every healthy
/// cell).
#[derive(Debug, Clone)]
pub struct CellError {
    /// The failing cell's cache key.
    pub key: String,
    /// The [`ConfigError`] message, or the panic payload stringified.
    pub message: String,
    /// Whether the config was rejected (rather than the simulation
    /// panicking).
    pub rejected: bool,
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let what = if self.rejected {
            "rejected"
        } else {
            "panicked"
        };
        write!(f, "cell {} {what}: {}", self.key, self.message)
    }
}

impl std::error::Error for CellError {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One finished cell in the manifest, in completion order.
#[derive(Debug)]
struct CellRecord {
    /// The cell's cache key.
    key: String,
    /// Outcome label (`sim` / `memo` / `cache` / `FAILED`).
    outcome: &'static str,
    /// Wall milliseconds the cell spent resolving.
    wall_ms: u128,
    /// The cell's observability span-drop count (0 for obs-off cells;
    /// nonzero means the recorder hit its capacity and the cell's span
    /// set — hence any Perfetto export of it — is truncated).
    spans_dropped: u64,
    /// Pre-rendered JSON object breaking the drops out per span kind
    /// (`{}` when nothing dropped).
    dropped_by_kind: String,
    /// How many times the cell's panicked simulation was retried.
    retries: u64,
}

/// Live progress of a cell mid-simulation: cycles simulated, spans
/// flushed to its SWTB sink, trace bytes written, and the wall-clock
/// heartbeat (UNIX epoch milliseconds of the last update).
type InFlight = (u64, u64, u64, u128);

/// Per-invocation observability of the runner itself: everything the
/// `manifest.json` written next to the artifacts records.
#[derive(Debug, Default)]
struct ManifestState {
    /// Batches executed so far this invocation.
    batches: u64,
    /// Wall-clock milliseconds spent inside batches.
    wall_ms: u128,
    /// Summed per-cell wall milliseconds (the pool's busy time).
    busy_ms: u128,
    /// Available pool capacity: Σ workers × batch wall milliseconds.
    capacity_ms: u128,
    /// Per-cell records in completion order.
    cells: Vec<CellRecord>,
    /// Streaming cells currently simulating, updated from their progress
    /// hooks and removed on completion.
    in_flight: BTreeMap<String, InFlight>,
    /// Last live (mid-batch) manifest write, for throttling.
    last_live_write: Option<Instant>,
}

/// Streaming cells report progress at this cycle granularity.
const PROGRESS_EVERY_CYCLES: u64 = 8192;

/// Minimum wall-clock spacing between live (mid-batch) manifest rewrites.
const LIVE_MANIFEST_PERIOD: Duration = Duration::from_millis(250);

/// Panics, naming each broken conservation law with its two sides, if
/// a fresh simulation does not balance [`SimStats::check_ledgers`]. The
/// panic takes the runner's retry path: the cell is recorded as failed
/// and no artifact is written.
fn assert_ledgers(key: &str, stats: &SimStats) {
    if let Err(broken) = stats.check_ledgers() {
        panic!("cell {key} broke its ledgers: {}", broken.join("; "));
    }
}

/// Milliseconds since the UNIX epoch, for manifest heartbeats.
fn epoch_ms() -> u128 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis())
}

/// Renders a report's nonzero per-kind drop counts as a JSON object.
fn drops_by_kind_json(report: &ObsReport) -> String {
    let mut out = String::from("{");
    for (i, (kind, n)) in report.dropped_by_kind().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{n}", kind.name()));
    }
    out.push('}');
    out
}

/// The SWTB trace path for a cell key inside a `--trace-out` directory.
pub fn swtb_path(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.swtb"))
}

/// The shared experiment runner: a worker pool over a two-level
/// (in-process + on-disk) run cache. See the module docs for the
/// behaviour summary.
pub struct Runner {
    jobs: usize,
    cache_dir: Option<PathBuf>,
    stream_dir: Option<PathBuf>,
    refresh: bool,
    memo: Mutex<FastMap<String, SimStats>>,
    // Shared page-table prebuild store: one built memory image per
    // distinct (page bytes, scrambling, footprint bytes); cells sharing a
    // footprint clone the image instead of re-mapping every page.
    prebuilds: Mutex<FastMap<(u64, bool, u64), std::sync::Arc<PrebuiltMemory>>>,
    counters: Mutex<RunnerCounters>,
    // Arc so streaming cells' progress hooks (which outlive the borrow
    // of `self`) can update the live manifest from worker threads.
    manifest: Arc<Mutex<ManifestState>>,
}

impl Runner {
    /// Builds a runner. `cache_dir: None` disables the disk cache;
    /// `refresh` ignores (and overwrites) existing disk entries.
    pub fn new(jobs: usize, cache_dir: Option<PathBuf>, refresh: bool) -> Self {
        Runner {
            jobs: jobs.max(1),
            cache_dir,
            stream_dir: None,
            refresh,
            memo: Mutex::new(FastMap::default()),
            prebuilds: Mutex::new(FastMap::default()),
            counters: Mutex::new(RunnerCounters::default()),
            manifest: Arc::new(Mutex::new(ManifestState::default())),
        }
    }

    /// Streams every obs-enabled simulated cell's spans and metrics into
    /// `<dir>/<key>.swtb` while it runs (bounded-memory export: the
    /// in-process recorder becomes a small staging buffer that never
    /// drops). Cache- and memo-served obs cells get their file
    /// synthesized from the cached report, so the directory is complete
    /// either way.
    pub fn with_stream_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.stream_dir = dir;
        self
    }

    /// Builds a runner from parsed harness flags. `--trace-out` doubles
    /// as the SWTB stream directory.
    pub fn from_harness(h: &Harness) -> Self {
        let dir = (!h.no_cache).then(default_cache_dir);
        Self::new(h.jobs, dir, h.refresh).with_stream_dir(h.trace_out.clone())
    }

    /// Cache-hit accounting so far.
    pub fn counters(&self) -> RunnerCounters {
        *self.counters.lock().unwrap()
    }

    /// Resolves one cell: memo, then disk, then simulation. The result is
    /// memoized and (for fresh simulations) persisted as an artifact.
    /// Panics if the cell's config is rejected or its simulation panics.
    pub fn get(&self, cell: &Cell) -> SimStats {
        match self.resolve(cell) {
            Ok((stats, _)) => stats,
            Err(e) => panic!("cell {} rejected: {e}", cell.key()),
        }
    }

    fn resolve(&self, cell: &Cell) -> Result<(SimStats, CellSource), ConfigError> {
        let key = cell.key();
        if let Some(stats) = self.memo.lock().unwrap().get(&key).cloned() {
            self.counters.lock().unwrap().memo_hits += 1;
            self.ensure_swtb(cell, &stats);
            return Ok((stats, CellSource::Memo));
        }
        if !self.refresh {
            if let Some(dir) = &self.cache_dir {
                match RunArtifact::probe(dir, &key) {
                    LoadOutcome::Loaded(artifact) if self.artifact_serves(cell, &artifact) => {
                        self.counters.lock().unwrap().disk_hits += 1;
                        self.memo
                            .lock()
                            .unwrap()
                            .insert(key, artifact.stats.clone());
                        self.ensure_swtb(cell, &artifact.stats);
                        return Ok((artifact.stats, CellSource::Disk));
                    }
                    LoadOutcome::Loaded(_) | LoadOutcome::Stale(_) => {
                        // An intact artifact from another schema version,
                        // one whose obs payload does not answer this cell,
                        // or one written by an older simulator whose
                        // counters break a ledger:
                        // silently re-simulate and overwrite. Not
                        // corruption, no quarantine.
                        self.counters.lock().unwrap().stale += 1;
                    }
                    LoadOutcome::Corrupt(why) => {
                        // Set the unreadable file aside (it may still be
                        // useful for a post-mortem) and fall through to a
                        // fresh simulation, which rewrites the entry.
                        self.quarantine(dir, &key, &why);
                    }
                    LoadOutcome::Missing => {}
                }
            }
        }
        let stats = self.simulate_cell(cell)?;
        assert_ledgers(&key, &stats);
        if let Some(dir) = &self.cache_dir {
            let artifact = RunArtifact {
                key: key.clone(),
                workload: cell.workload.key(),
                config: cell.cfg.fingerprint(),
                stats: stats.clone(),
            };
            if !artifact.obs_payload_complete() {
                // A streamed cell's spans went to its SWTB file; the
                // in-memory report holds only the staged tail. Persisting
                // it would serve a truncated timeline from the cache, so
                // streamed cells re-simulate instead.
            } else if let Err(e) = artifact.write_to(dir) {
                eprintln!("[runner] warning: failed to write artifact {key}: {e}");
            }
        }
        self.counters.lock().unwrap().simulated += 1;
        self.memo.lock().unwrap().insert(key, stats.clone());
        Ok((stats, CellSource::Simulated))
    }

    /// Whether a loaded artifact can satisfy `cell`'s request. The obs
    /// payload must be present exactly when the cell arms observability (the fingerprint already separates obs-on from
    /// obs-off keys; this guards hand-copied or torn artifacts), and it
    /// must hold the complete span set — a hand-copied artifact of a
    /// streamed run carries only the staged tail and cannot answer for
    /// the full timeline. Finally its stats must balance the same
    /// ledgers a fresh result is checked against, so a result cached
    /// before an accounting fix is re-simulated rather than served.
    fn artifact_serves(&self, cell: &Cell, artifact: &RunArtifact) -> bool {
        artifact.has_obs_payload() == cell.cfg.obs.enabled
            && artifact.obs_payload_complete()
            && artifact.stats.check_ledgers().is_ok()
    }

    /// Synthesizes the `<stream dir>/<key>.swtb` file for a cache- or
    /// memo-served obs cell whose file is missing, from the complete
    /// in-memory report, so a `--trace-out` directory covers every cell
    /// regardless of where its result came from.
    fn ensure_swtb(&self, cell: &Cell, stats: &SimStats) {
        let Some(dir) = &self.stream_dir else { return };
        let Some(obs) = stats.obs.as_deref() else {
            return;
        };
        if !obs.spans_complete() {
            return;
        }
        let key = cell.key();
        let path = swtb_path(dir, &key);
        if path.exists() {
            return;
        }
        let write = || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            let tmp = dir.join(format!(".{key}.{}.swtb.tmp", std::process::id()));
            let mut w = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            swgpu_obs::write_report(&mut w, &cell.cfg.fingerprint(), obs)?;
            std::io::Write::flush(&mut w)?;
            std::fs::rename(&tmp, &path)
        };
        if let Err(e) = write() {
            eprintln!("[runner] warning: failed to synthesize SWTB trace {key}: {e}");
        }
    }

    /// Renames a corrupt artifact out of the cache without clobbering any
    /// earlier quarantine of the same key: `<key>.json.corrupt`, then
    /// `.corrupt.1`, `.corrupt.2`, ...
    fn quarantine(&self, dir: &std::path::Path, key: &str, why: &str) {
        let path = RunArtifact::path_in(dir, key);
        let mut quarantine = path.with_extension("json.corrupt");
        let mut suffix = 0u32;
        while quarantine.exists() {
            suffix += 1;
            quarantine = path.with_extension(format!("json.corrupt.{suffix}"));
        }
        {
            let mut c = self.counters.lock().unwrap();
            c.quarantined += 1;
            if suffix > 0 {
                c.quarantine_collisions += 1;
            }
        }
        eprintln!("[runner] warning: quarantining corrupt artifact {key}: {why}");
        if let Err(e) = std::fs::rename(&path, &quarantine) {
            eprintln!("[runner] warning: quarantine rename failed: {e}");
        }
    }

    /// Simulates a cell through the shared page-table prebuild store.
    /// Demand-paged cells (`cfg.mm.enabled`) bypass the store entirely:
    /// they start from an *empty* page table and populate it on first
    /// touch, so a prebuilt image would be built only to be thrown away
    /// (and would pollute the store with images no other cell reuses).
    /// With a stream directory configured, obs-enabled cells get an SWTB
    /// file sink and a live-manifest progress hook attached first.
    fn simulate_cell(&self, cell: &Cell) -> Result<SimStats, ConfigError> {
        // Multi-tenant cells bypass the store too: each tenant maps its
        // own address space (or one shared one under sub-entry sharing),
        // which `GpuSimulator::build` builds itself.
        let cfg = &cell.cfg;
        let input = match cell.sim_input()? {
            SimInput::Mapped {
                source,
                footprint_bytes,
            } if !cfg.mm.enabled => SimInput::Prebuilt {
                source,
                image: self.prebuilt(cfg.page_size, cfg.scrambled_frames, footprint_bytes),
            },
            input => input,
        };
        let mut sim = GpuSimulator::build(cfg.clone(), input)?;
        let key = cell.key();
        let streamed = self.attach_stream(&mut sim, cell, &key);
        let stats = sim.run();
        if streamed {
            self.manifest.lock().unwrap().in_flight.remove(&key);
        }
        Ok(stats)
    }

    /// Attaches the SWTB file sink and live-progress hook for a
    /// streaming cell. Returns whether streaming was armed (requires a
    /// stream directory, an obs-enabled cell, and a creatable file).
    fn attach_stream(&self, sim: &mut GpuSimulator, cell: &Cell, key: &str) -> bool {
        let Some(dir) = &self.stream_dir else {
            return false;
        };
        if !cell.cfg.obs.enabled {
            return false;
        }
        let path = swtb_path(dir, key);
        let file = match std::fs::create_dir_all(dir).and_then(|()| std::fs::File::create(&path)) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("[runner] warning: cannot open SWTB trace {key}: {e}");
                return false;
            }
        };
        if !sim.attach_trace_sink(Box::new(std::io::BufWriter::new(file))) {
            std::fs::remove_file(&path).ok();
            return false;
        }
        let manifest = Arc::clone(&self.manifest);
        let mkey = key.to_string();
        let manifest_dir = self.cache_dir.clone();
        let jobs = self.jobs;
        sim.set_progress_hook(
            PROGRESS_EVERY_CYCLES,
            Box::new(move |p: RunProgress| {
                let mut m = manifest.lock().unwrap();
                m.in_flight.insert(
                    mkey.clone(),
                    (p.cycles, p.spans_flushed, p.trace_bytes, epoch_ms()),
                );
                let due = m
                    .last_live_write
                    .is_none_or(|t| t.elapsed() >= LIVE_MANIFEST_PERIOD);
                if due {
                    m.last_live_write = Some(Instant::now());
                    if let Some(dir) = &manifest_dir {
                        write_manifest_file(dir, jobs, &m);
                    }
                }
            }),
        );
        true
    }

    /// Fetches (or builds) the shared memory image for a footprint. The
    /// image is built outside the store lock; a racing worker may build
    /// the same image redundantly, but both count as builds and the store
    /// keeps exactly one.
    fn prebuilt(&self, page: PageSize, scrambled: bool, footprint: u64) -> PrebuiltMemory {
        let key = (page.bytes(), scrambled, footprint);
        if let Some(img) = self.prebuilds.lock().unwrap().get(&key) {
            let img = std::sync::Arc::clone(img);
            self.counters.lock().unwrap().pt_prebuild_hits += 1;
            return (*img).clone();
        }
        let img = std::sync::Arc::new(PrebuiltMemory::build(page, scrambled, footprint));
        self.counters.lock().unwrap().pt_prebuilds += 1;
        let img = match self.prebuilds.lock().unwrap().entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => std::sync::Arc::clone(e.get()),
            std::collections::hash_map::Entry::Vacant(v) => std::sync::Arc::clone(v.insert(img)),
        };
        (*img).clone()
    }

    /// Resolves a cell, retrying a panicked resolution once with a fresh
    /// attempt before giving up: a cell that tripped over transient state
    /// (e.g. a corrupt artifact racing its quarantine) deserves a second
    /// chance, while a deterministically-panicking cell fails on the
    /// retry exactly as it would have on the first attempt. A rejected
    /// config fails at once: it would be rejected again. Returns the
    /// retry count (0 or 1) for the manifest. No cache state is written
    /// by a panicked attempt, so the retry simulates from scratch.
    fn resolve_with_retry(&self, cell: &Cell) -> (Result<(SimStats, CellSource), CellError>, u64) {
        let key = cell.key();
        let attempt = || {
            let caught =
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.resolve(cell)));
            let (message, rejected) = match caught {
                Ok(Ok(resolved)) => return Ok(resolved),
                Ok(Err(e)) => (e.0, true),
                Err(payload) => (panic_message(payload), false),
            };
            Err(CellError {
                key: key.clone(),
                message,
                rejected,
            })
        };
        let (outcome, retries) = match attempt() {
            Err(first) if !first.rejected => {
                eprintln!("[runner] warning: {first}; retrying once with a fresh simulation");
                self.counters.lock().unwrap().retried += 1;
                (attempt(), 1)
            }
            outcome => (outcome, 0),
        };
        if outcome.is_err() {
            self.counters.lock().unwrap().failed += 1;
        }
        (outcome, retries)
    }

    /// Executes a batch of cells on the worker pool and returns their
    /// stats in input order. Cells sharing a key (e.g. one baseline
    /// compared against many systems) are resolved once.
    ///
    /// # Panics
    ///
    /// Panics — after the whole batch has finished, so every healthy
    /// cell's artifact is on disk — if any cell failed.
    /// Callers that want to handle per-cell failures use
    /// [`Runner::run_cells_checked`].
    pub fn run_cells(&self, cells: &[Cell]) -> Vec<SimStats> {
        let results = self.run_cells_checked(cells);
        let mut seen = FastSet::default();
        let failures: Vec<&CellError> = results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .filter(|e| seen.insert(e.key.clone()))
            .collect();
        assert!(
            failures.is_empty(),
            "{} cell(s) failed:\n{}",
            failures.len(),
            failures
                .iter()
                .map(|e| format!("  {e}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
        results
            .into_iter()
            .map(|r| r.expect("checked above"))
            .collect()
    }

    /// Executes a batch of cells on the worker pool, mapping each input
    /// cell to `Ok(stats)` or the [`CellError`] describing its failure. A
    /// rejected or crashing cell never aborts the batch: every other cell still
    /// simulates, reports, and persists its artifact.
    pub fn run_cells_checked(&self, cells: &[Cell]) -> Vec<Result<SimStats, CellError>> {
        let mut keys = Vec::with_capacity(cells.len());
        let mut unique: Vec<&Cell> = Vec::new();
        {
            let mut seen = FastSet::default();
            for cell in cells {
                let key = cell.key();
                if seen.insert(key.clone()) {
                    unique.push(cell);
                }
                keys.push(key);
            }
        }
        let total = unique.len();
        let workers = self.jobs.min(total.max(1));
        let next = AtomicUsize::new(0);
        let done = AtomicUsize::new(0);
        let batch_start = Instant::now();
        let results: Mutex<FastMap<String, Result<SimStats, CellError>>> =
            Mutex::new(FastMap::default());
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= total {
                        break;
                    }
                    let cell = unique[i];
                    let cell_start = Instant::now();
                    let (outcome, retries) = self.resolve_with_retry(cell);
                    let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                    let label = match &outcome {
                        Ok((_, source)) => source.label(),
                        Err(_) => "FAILED",
                    };
                    eprintln!(
                        "[runner] {finished}/{total} {} ({label}, {:.2}s)",
                        cell.key(),
                        cell_start.elapsed().as_secs_f64()
                    );
                    {
                        let wall = cell_start.elapsed().as_millis();
                        let report = outcome
                            .as_ref()
                            .ok()
                            .and_then(|(stats, _)| stats.obs.as_deref());
                        let mut m = self.manifest.lock().unwrap();
                        m.busy_ms += wall;
                        m.cells.push(CellRecord {
                            key: cell.key(),
                            outcome: label,
                            wall_ms: wall,
                            spans_dropped: report.map_or(0, |r| r.spans_dropped),
                            dropped_by_kind: report
                                .map_or_else(|| "{}".to_string(), drops_by_kind_json),
                            retries,
                        });
                    }
                    results
                        .lock()
                        .unwrap()
                        .insert(cell.key(), outcome.map(|(stats, _)| stats));
                });
            }
        });
        let c = self.counters();
        eprintln!(
            "[runner] batch of {} cells ({} unique) in {:.2}s on {} worker(s); totals: {} simulated, {} memo hits, {} disk hits, {} failed, {} retried, {} quarantined, {} stale, {} pt prebuilds ({} reused)",
            cells.len(),
            total,
            batch_start.elapsed().as_secs_f64(),
            workers,
            c.simulated,
            c.memo_hits,
            c.disk_hits,
            c.failed,
            c.retried,
            c.quarantined,
            c.stale,
            c.pt_prebuilds,
            c.pt_prebuild_hits
        );
        {
            let wall = batch_start.elapsed().as_millis();
            let mut m = self.manifest.lock().unwrap();
            m.batches += 1;
            m.wall_ms += wall;
            m.capacity_ms += wall * workers as u128;
        }
        self.write_manifest();
        let results = results.into_inner().unwrap();
        keys.iter().map(|k| results[k].clone()).collect()
    }

    /// Writes the invocation's `manifest.json` next to the artifacts.
    /// Rewritten after every batch — and, throttled, from streaming
    /// cells' progress hooks mid-batch — so the file always reflects the
    /// whole invocation so far, live. Skipped when the disk cache is
    /// off. Purely observational — nothing reads it back.
    fn write_manifest(&self) {
        let Some(dir) = &self.cache_dir else { return };
        let m = self.manifest.lock().unwrap();
        write_manifest_file(dir, self.jobs, &m);
    }
}

/// Serializes and atomically writes (tmp + rename) a `manifest.json`:
/// per-cell key/outcome/wall-time/span-drop/retry records, worker-pool
/// utilization, and the live `in_flight` progress of streaming cells
/// still simulating (cycles, spans flushed, trace bytes, heartbeat).
fn write_manifest_file(dir: &Path, jobs: usize, m: &ManifestState) {
    let utilization = if m.capacity_ms == 0 {
        0.0
    } else {
        m.busy_ms as f64 / m.capacity_ms as f64
    };
    let cells: Vec<String> = m
        .cells
        .iter()
        .map(|c| {
            format!(
                "{{\"key\":\"{}\",\"outcome\":\"{}\",\"wall_ms\":{},\
                 \"spans_dropped\":{},\"spans_dropped_by_kind\":{},\"cell_retries\":{}}}",
                c.key, c.outcome, c.wall_ms, c.spans_dropped, c.dropped_by_kind, c.retries
            )
        })
        .collect();
    let in_flight: Vec<String> = m
        .in_flight
        .iter()
        .map(|(key, (cycles, flushed, bytes, heartbeat))| {
            format!(
                "{{\"key\":\"{key}\",\"cycles\":{cycles},\"spans_flushed\":{flushed},\
                 \"trace_bytes\":{bytes},\"heartbeat_ms\":{heartbeat}}}"
            )
        })
        .collect();
    let json = format!(
        "{{\"jobs\":{jobs},\"batches\":{},\"wall_ms\":{},\"busy_ms\":{},\
         \"pool_utilization\":{:.4},\"in_flight\":[{}],\"cells\":[{}]}}",
        m.batches,
        m.wall_ms,
        m.busy_ms,
        utilization,
        in_flight.join(","),
        cells.join(",")
    );
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let tmp = dir.join(format!(".manifest.{}.tmp", std::process::id()));
        std::fs::write(&tmp, &json)?;
        std::fs::rename(&tmp, dir.join("manifest.json"))
    };
    if let Err(e) = write() {
        eprintln!("[runner] warning: failed to write manifest.json: {e}");
    }
}

/// The on-disk run cache directory: `$SWGPU_RUN_CACHE` when set, else
/// `$SWGPU_RUNS_DIR` (the coarser root CI shards and multi-checkout
/// setups point at scratch space), else the workspace's
/// `target/swgpu-runs/` (anchored to the source tree, not the working
/// directory, so every binary shares one cache).
pub fn default_cache_dir() -> PathBuf {
    std::env::var_os("SWGPU_RUN_CACHE")
        .or_else(|| std::env::var_os("SWGPU_RUNS_DIR"))
        .map(PathBuf::from)
        .unwrap_or_else(|| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/swgpu-runs")
        })
}

/// The Figure 9 timeline cell set: one obs-armed microbenchmark cell
/// per sketched scenario (ideal hardware, the 32-PTW baseline, and
/// SoftWalker), labelled as the figure labels them. Each cell's spans
/// give its walk lanes ([`fig09_lanes`]); its occupancy time-series and
/// latency histograms ride along for Perfetto export. All three cells
/// share one footprint, so the runner's page-table prebuild store builds
/// exactly one image for the whole set.
pub fn fig09_cells(scale: Scale) -> Vec<(Cell, &'static str)> {
    let (sms, warps, concurrent, accesses, footprint): (_, _, _, u32, u64) = match scale {
        // A burst of 512 concurrent single-lane walkers, each walking
        // fresh pages — deep enough to saturate 32 PTWs, the shape of
        // the paper's Figure 9 sketch.
        Scale::Full => (16, 32, 512, 4, 8 * 1024 * 1024 * 1024),
        Scale::Quick => (8, 16, 128, 4, 1024 * 1024 * 1024),
    };
    [
        (TranslationMode::IdealPtw, "ideal HW (enough PTWs)"),
        (TranslationMode::HardwarePtw, "baseline (32 PTWs)"),
        (
            TranslationMode::SoftWalker { in_tlb_mshr: true },
            "SoftWalker",
        ),
    ]
    .into_iter()
    .map(|(mode, label)| {
        let cfg = GpuConfig {
            sms,
            max_warps: warps,
            mode,
            obs: ObsConfig {
                sample_interval: 256,
                ..ObsConfig::enabled()
            },
            ..GpuConfig::default()
        };
        (
            Cell::micro(cfg, concurrent, warps, accesses, footprint),
            label,
        )
    })
    .collect()
}

/// One walk on a Figure 9 lane, in cycles: the L2 TLB miss that issued
/// it, the end of its queueing (a walker or PW Warp thread picked it
/// up), and its translation reaching the L2 TLB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkLane {
    /// When the L2 TLB miss allocated the walk.
    pub issued: u64,
    /// When a walker or PW Warp thread began processing it.
    pub started: u64,
    /// When the translation resolved at the L2 TLB.
    pub completed: u64,
}

impl WalkLane {
    /// Queueing component of the walk's latency.
    pub fn queue_cycles(&self) -> u64 {
        self.started - self.issued
    }

    /// Processing component, including SM↔L2 TLB communication.
    pub fn access_cycles(&self) -> u64 {
        self.completed - self.started
    }
}

/// Rebuilds every walk's lane, in completion order, from the spans of a
/// run under `cfg`. A hardware walk is an `HwQueue` span followed
/// directly by its `HwWalk`; a software walk is an `SwQueue`,
/// `SwPwbWait`, `SwExec` run, completed when its fill crosses back to the
/// L2 TLB, `cfg.l2_tlb_latency` after `SwExec` ends.
///
/// # Errors
///
/// Refuses a report missing spans (dropped at a full recorder, or
/// streamed to a sink mid-run): its lanes would cover part of the run.
pub fn fig09_lanes(cfg: &GpuConfig, report: &ObsReport) -> Result<Vec<WalkLane>, String> {
    if report.spans_dropped > 0 || !report.spans_complete() {
        let dropped: Vec<String> = report
            .dropped_by_kind()
            .map(|(kind, n)| format!("{n} {}", kind.name()))
            .collect();
        return Err(format!(
            "the span set is partial ({} dropped [{}], {} streamed out mid-run); \
             raise ObsConfig::span_capacity to hold the whole run",
            report.spans_dropped,
            dropped.join(", "),
            report.spans_flushed
        ));
    }
    let spans = &report.spans;
    Ok((0..spans.len())
        .filter_map(|i| match &spans[i..] {
            [q, w, ..] if q.kind == SpanKind::HwQueue && w.kind == SpanKind::HwWalk => {
                Some(WalkLane {
                    issued: q.start,
                    started: w.start,
                    completed: w.end,
                })
            }
            [q, p, x, ..]
                if q.kind == SpanKind::SwQueue
                    && p.kind == SpanKind::SwPwbWait
                    && x.kind == SpanKind::SwExec =>
            {
                Some(WalkLane {
                    issued: q.start,
                    started: x.start,
                    completed: x.end + cfg.l2_tlb_latency,
                })
            }
            _ => None,
        })
        .collect())
}

/// The footprint multiplier used when running with 2 MB pages: the paper
/// expands the 10 scalable benchmarks beyond the 2 GB L2-TLB coverage
/// (Figures 6b/25). x32 pushes even the smallest scalable footprint
/// (192 MB) well past coverage (6 GB = 3072 pages vs 1024 TLB entries)
/// while staying cheap to map in the sparse simulated memory.
pub const LARGE_PAGE_FOOTPRINT_PERCENT: u64 = 3200;

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_workloads::by_abbr;

    #[test]
    fn labels_are_distinct() {
        let labels = [
            SystemConfig::Baseline.label(),
            SystemConfig::Nha.label(),
            SystemConfig::FsHpt.label(),
            SystemConfig::SoftWalker.label(),
            SystemConfig::SwNoInTlb.label(),
            SystemConfig::Hybrid.label(),
            SystemConfig::Ideal.label(),
        ];
        let mut sorted = labels.to_vec();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), labels.len());
    }

    #[test]
    fn build_applies_mode_deltas() {
        let sw = SystemConfig::SoftWalker.build(Scale::Quick);
        assert!(sw.mode.uses_software_walkers());
        let nha = SystemConfig::Nha.build(Scale::Quick);
        assert!(nha.ptw.nha);
        let scaled = SystemConfig::ScaledPtw {
            walkers: 256,
            scale_mshrs: true,
        }
        .build(Scale::Quick);
        assert_eq!(scaled.ptw.walkers, 256);
        assert_eq!(scaled.l2_mshr.entries, 1024);
    }

    #[test]
    fn quick_run_completes() {
        let spec = by_abbr("gemm").unwrap();
        let s = Cell::bench(&spec, SystemConfig::Baseline.build(Scale::Quick)).simulate();
        assert!(!s.timed_out);
        assert!(s.instructions > 0);
    }

    #[test]
    fn parse_jobs_flag_forms() {
        let try_parse = |args: &[&str]| parse_arg_list(args.iter().map(|s| s.to_string()));
        let parse = |args: &[&str]| try_parse(args).unwrap();
        assert_eq!(parse(&["--jobs", "3"]).jobs, 3);
        assert_eq!(parse(&["--jobs=5", "--quick"]).jobs, 5);
        assert_eq!(parse(&["--jobs", "0"]).jobs, 1, "jobs is clamped to >= 1");
        let h = parse(&["--quick", "--csv", "--refresh", "--no-cache"]);
        assert_eq!(h.scale, Scale::Quick);
        assert!(h.csv && h.refresh && h.no_cache);
        assert_eq!(h.jobs, default_jobs());
        let h = parse(&["--trace-out", "a", "--trace-out=b"]);
        assert_eq!(h.trace_out, Some(PathBuf::from("b")));
        // A typo must not silently start a full-scale run, and a bad
        // worker count must not silently fall back to every core.
        let err = try_parse(&["--quik"]).unwrap_err();
        assert!(err.contains("--quik"), "{err}");
        for bad in [&["--jobs", "abc"][..], &["--jobs=abc"], &["--jobs"]] {
            let err = try_parse(bad).unwrap_err();
            assert!(err.contains("--jobs"), "{bad:?}: {err}");
        }
    }

    #[test]
    fn cell_keys_are_stable_and_distinct() {
        let spec = by_abbr("bfs").unwrap();
        let cfg = SystemConfig::Baseline.build(Scale::Quick);
        let a = Cell::bench(&spec, cfg.clone());
        let b = Cell::bench(&spec, cfg.clone());
        assert_eq!(a.key(), b.key(), "same cell, same key");
        assert!(a.key().starts_with("bfs-fp100-"));
        let sw = Cell::bench(&spec, SystemConfig::SoftWalker.build(Scale::Quick));
        assert_ne!(a.key(), sw.key(), "different config, different key");
        let scaled = Cell::bench_scaled(&spec, cfg.clone(), 200);
        assert_ne!(a.key(), scaled.key(), "different footprint, different key");
        let micro = Cell::micro(cfg, 4, 4, 4, 1 << 20);
        assert!(micro.key().starts_with("micro-c4-w4-a4-f1048576-"));
    }

    fn test_cache_dir(tag: &str) -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/test-runner-cache")
            .join(format!("{tag}-{}", std::process::id()))
    }

    #[test]
    fn truncated_disk_artifact_is_quarantined_and_resimulated() {
        let dir = test_cache_dir("truncated");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = by_abbr("gemm").unwrap();
        let cell = Cell::bench(&spec, SystemConfig::Baseline.build(Scale::Quick));
        let key = cell.key();
        // Seed the cache with a good artifact, then truncate it in place
        // (as if a pre-atomic-write process had died mid-write).
        let seeder = Runner::new(1, Some(dir.clone()), false);
        let stats = seeder.get(&cell);
        let path = RunArtifact::path_in(&dir, &key);
        let full = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &full[..full.len() / 2]).unwrap();
        // A fresh runner (cold memo) must treat it as a miss, quarantine
        // the file, re-simulate, and rewrite a readable artifact.
        let runner = Runner::new(1, Some(dir.clone()), false);
        let again = runner.get(&cell);
        assert_eq!(again.to_json(), stats.to_json());
        assert_eq!(runner.counters().quarantined, 1);
        assert_eq!(runner.counters().simulated, 1);
        assert_eq!(runner.counters().disk_hits, 0);
        assert!(path.with_extension("json.corrupt").exists());
        assert!(
            matches!(RunArtifact::probe(&dir, &key), LoadOutcome::Loaded(_)),
            "rewritten"
        );
        // The quarantined copy does not shadow the fresh artifact.
        let reread = Runner::new(1, Some(dir.clone()), false);
        reread.get(&cell);
        assert_eq!(reread.counters().disk_hits, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panicking_cell_fails_without_aborting_the_batch() {
        let spec = by_abbr("gemm").unwrap();
        let good = Cell::bench(&spec, SystemConfig::Baseline.build(Scale::Quick));
        let mut bad = good.clone();
        bad.workload = CellWorkload::Bench {
            abbr: "no-such-benchmark".into(),
            footprint_percent: 100,
        };
        let runner = Runner::new(2, None, false);
        let results = runner.run_cells_checked(&[good.clone(), bad, good.clone()]);
        assert!(results[0].is_ok());
        let err = results[1].as_ref().expect_err("bad cell must fail");
        assert!(err.message.contains("no-such-benchmark"), "{err}");
        assert!(results[2].is_ok(), "healthy cells still resolve");
        assert_eq!(runner.counters().failed, 1);
        assert_eq!(runner.counters().simulated, 1);
        // The runner stays usable after a caught panic (no poisoned locks).
        assert!(runner.run_cells_checked(&[good])[0].is_ok());
    }

    #[test]
    fn panicked_cell_is_retried_once_and_manifest_records_it() {
        let dir = test_cache_dir("cell-retries");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = by_abbr("gemm").unwrap();
        let good = Cell::bench(&spec, SystemConfig::Baseline.build(Scale::Quick));
        let mut bad = good.clone();
        bad.workload = CellWorkload::Bench {
            abbr: "still-missing".into(),
            footprint_percent: 100,
        };
        let runner = Runner::new(1, Some(dir.clone()), false);
        let results = runner.run_cells_checked(&[bad.clone(), good.clone()]);
        assert!(results[0].is_err(), "deterministic panic fails both tries");
        assert!(results[1].is_ok());
        assert!(!RunArtifact::path_in(&dir, &bad.key()).exists());
        assert!(RunArtifact::path_in(&dir, &good.key()).exists());
        // Exactly one retry was spent on the bad cell before it failed.
        assert_eq!(runner.counters().retried, 1);
        assert_eq!(runner.counters().failed, 1);
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(
            manifest.contains("\"cell_retries\":1"),
            "manifest must record the bad cell's retry: {manifest}"
        );
        assert!(
            manifest.contains("\"cell_retries\":0"),
            "manifest must record the clean cell's zero retries: {manifest}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn invalid_cell_is_rejected_without_a_retry() {
        let dir = test_cache_dir("cell-rejected");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = by_abbr("gemm").unwrap();
        let mut cfg = SystemConfig::Baseline.build(Scale::Quick);
        cfg.sms = 0;
        let bad = Cell::bench(&spec, cfg);
        let runner = Runner::new(1, Some(dir.clone()), false);
        let results = runner.run_cells_checked(std::slice::from_ref(&bad));
        let err = results[0].as_ref().expect_err("zero SMs must be rejected");
        assert!(err.rejected, "{err}");
        assert_eq!(
            err.to_string(),
            format!("cell {} rejected: need at least one SM", bad.key())
        );
        assert_eq!(runner.counters().failed, 1);
        assert_eq!(runner.counters().retried, 0);
        assert!(!RunArtifact::path_in(&dir, &bad.key()).exists());
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(
            manifest.contains("\"cell_retries\":0"),
            "manifest must record no retry: {manifest}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "broke its ledgers: paging: 3 != 2")]
    fn unbalanced_stats_panic_with_the_broken_law() {
        let mut stats = SimStats {
            kernel_steps: 1,
            ..SimStats::default()
        };
        stats.mm.major_faults = 3;
        stats.mm.major_replays = 2;
        assert_ledgers("doctored", &stats);
    }

    #[test]
    fn run_cells_panics_after_finishing_the_batch() {
        let spec = by_abbr("gemm").unwrap();
        let good = Cell::bench(&spec, SystemConfig::Baseline.build(Scale::Quick));
        let mut bad = good.clone();
        bad.workload = CellWorkload::Bench {
            abbr: "missing".into(),
            footprint_percent: 100,
        };
        let runner = Runner::new(1, None, false);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            runner.run_cells(&[bad, good.clone()])
        }));
        assert!(outcome.is_err(), "legacy API must still fail loudly");
        // ...but only after the healthy cell completed.
        assert_eq!(runner.counters().simulated, 1);
        assert_eq!(runner.counters().failed, 1);
    }

    #[test]
    fn sw_with_zero_capacity_is_sw_no_intlb() {
        let zero = SystemConfig::SwWithCapacity { in_tlb_max: 0 }.build(Scale::Quick);
        let none = SystemConfig::SwNoInTlb.build(Scale::Quick);
        assert_eq!(
            zero.mode,
            TranslationMode::SoftWalker { in_tlb_mshr: false }
        );
        assert_eq!(
            zero.fingerprint(),
            none.fingerprint(),
            "zero capacity must be the same design point as SwNoInTlb"
        );
        // Both validate (no silent clamp hiding an in_tlb_max of 0).
        zero.validate().unwrap();
        // The non-zero path keeps the requested capacity with the
        // mechanism on.
        let eight = SystemConfig::SwWithCapacity { in_tlb_max: 8 }.build(Scale::Quick);
        assert_eq!(
            eight.mode,
            TranslationMode::SoftWalker { in_tlb_mshr: true }
        );
        assert_eq!(eight.in_tlb_max, 8);
        eight.validate().unwrap();
    }

    #[test]
    fn repeated_corruption_quarantines_without_clobbering() {
        let dir = test_cache_dir("requarantine");
        std::fs::create_dir_all(&dir).unwrap();
        let spec = by_abbr("gemm").unwrap();
        let cell = Cell::bench(&spec, SystemConfig::Baseline.build(Scale::Quick));
        let key = cell.key();
        let path = RunArtifact::path_in(&dir, &key);
        for round in 0..3u32 {
            let runner = Runner::new(1, Some(dir.clone()), false);
            runner.get(&cell);
            // Corrupt the freshly written artifact for the next round.
            let full = std::fs::read_to_string(&path).unwrap();
            std::fs::write(&path, &full[..full.len() / 2 + round as usize]).unwrap();
        }
        let runner = Runner::new(1, Some(dir.clone()), false);
        runner.get(&cell);
        // All three corrupted generations survive side by side.
        assert!(path.with_extension("json.corrupt").exists());
        assert!(path.with_extension("json.corrupt.1").exists());
        assert!(path.with_extension("json.corrupt.2").exists());
        assert_eq!(runner.counters().quarantined, 1);
        assert_eq!(runner.counters().quarantine_collisions, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cells_sharing_a_footprint_share_one_prebuild() {
        let runner = Runner::new(1, None, false);
        let cells: Vec<Cell> = fig09_cells(Scale::Quick)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        assert_eq!(cells.len(), 3);
        runner.run_cells(&cells);
        let c = runner.counters();
        assert_eq!(c.simulated, 3);
        assert_eq!(c.pt_prebuilds, 1, "one image for the shared footprint");
        assert_eq!(c.pt_prebuild_hits, 2, "the other two cells reuse it");
    }

    #[test]
    fn prebuilt_simulation_matches_fresh_simulation() {
        let (cell, _) = &fig09_cells(Scale::Quick)[1];
        let fresh = cell.simulate();
        let runner = Runner::new(1, None, false);
        let via_store = runner.get(cell);
        assert_eq!(fresh.to_json(), via_store.to_json());
        assert!(fresh.obs.is_some());
        assert_eq!(
            fresh.obs, via_store.obs,
            "prebuilt path must be bit-identical, obs reports included"
        );
    }

    #[test]
    fn mm_cells_bypass_the_prebuild_store() {
        let spec = by_abbr("gemm").unwrap();
        let mut cfg = SystemConfig::Baseline.build(Scale::Quick);
        cfg.mm = swgpu_types::MmConfig::demand_paged();
        let cell = Cell::bench(&spec, cfg);
        let runner = Runner::new(1, None, false);
        let stats = runner.get(&cell);
        let c = runner.counters();
        assert_eq!(c.simulated, 1);
        assert_eq!(c.pt_prebuilds, 0, "demand paging never builds an image");
        assert_eq!(c.pt_prebuild_hits, 0);
        assert!(stats.mm.major_faults > 0, "first touches must fault");
    }

    #[test]
    fn manifest_records_per_cell_span_drops() {
        let dir = test_cache_dir("spans-dropped");
        std::fs::create_dir_all(&dir).unwrap();
        // An obs-enabled cell with a one-span recorder: everything past
        // the first span is dropped, so the manifest must say so.
        let (mut cell, _) = fig09_cells(Scale::Quick).swap_remove(1);
        cell.cfg.obs.span_capacity = 1;
        let runner = Runner::new(1, Some(dir.clone()), false);
        let stats = runner.run_cells(std::slice::from_ref(&cell));
        let report = stats[0].obs.as_deref().expect("obs report");
        let dropped = report.spans_dropped;
        assert!(dropped > 0, "the one-span recorder must overflow");
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(
            manifest.contains(&format!("\"spans_dropped\":{dropped}")),
            "manifest must carry the cell's drop count: {manifest}"
        );
        // The drops are also broken out per span kind, and the breakdown
        // sums back to the total.
        let by_kind = drops_by_kind_json(report);
        assert_ne!(by_kind, "{}", "dropped spans must attribute to kinds");
        assert_eq!(
            report.dropped_by_kind().map(|(_, n)| n).sum::<u64>(),
            dropped
        );
        assert!(
            manifest.contains(&format!("\"spans_dropped_by_kind\":{by_kind}")),
            "manifest must carry the per-kind breakdown: {manifest}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_cell_never_drops_and_is_not_cached() {
        let dir = test_cache_dir("stream-no-drop");
        let trace_dir = dir.join("traces");
        std::fs::create_dir_all(&dir).unwrap();
        // The same tiny staging buffer that overflows (and drops) above —
        // but with a stream sink attached it must flush instead of drop.
        let (mut tiny, _) = fig09_cells(Scale::Quick).swap_remove(1);
        tiny.cfg.obs.span_capacity = 1;
        // A full-detail gups cell whose 4096-span staging buffer a
        // quick run overflows many times over.
        let mut full = SystemConfig::SoftWalker.build(Scale::Quick);
        full.obs = swgpu_obs::ObsConfig {
            span_capacity: 4096,
            ..swgpu_obs::ObsConfig::enabled()
        };
        let full = Cell::bench(&by_abbr("gups").unwrap(), full);
        for cell in [tiny, full] {
            let runner =
                Runner::new(1, Some(dir.clone()), false).with_stream_dir(Some(trace_dir.clone()));
            let stats = runner.run_cells(std::slice::from_ref(&cell));
            let report = stats[0].obs.as_deref().expect("obs report");
            assert_eq!(report.spans_dropped, 0, "a streaming staging never drops");
            assert!(report.spans_flushed > 0, "the small buffer forced flushes");
            let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
            assert!(manifest.contains("\"spans_dropped\":0"), "{manifest}");
            // The SWTB file reconstructs the full run, streamed in batches
            // under the cell's fingerprint, and exports to Perfetto.
            let bytes = std::fs::read(swtb_path(&trace_dir, &cell.key())).unwrap();
            let trace = swgpu_obs::validate_trace(&bytes).expect("valid SWTB");
            assert_eq!(trace.fingerprint, cell.cfg.fingerprint());
            assert!(trace.span_batches > 1, "spans must stream incrementally");
            assert_eq!(trace.report.spans_dropped, 0);
            assert_eq!(
                trace.report.spans.len() as u64,
                report.spans_flushed + report.spans.len() as u64
            );
            swgpu_obs::validate_json(&swgpu_obs::to_chrome_trace(&trace.report))
                .expect("Perfetto export is valid JSON");
            // The in-memory report is incomplete (spans live in the file),
            // so no artifact is persisted and a fresh runner re-simulates.
            assert!(matches!(
                RunArtifact::probe(&dir, &cell.key()),
                LoadOutcome::Missing
            ));
            let again = Runner::new(1, Some(dir.clone()), false);
            again.get(&cell);
            assert_eq!(again.counters().simulated, 1);
            assert_eq!(again.counters().disk_hits, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_obs_cell_synthesizes_its_swtb_file() {
        let dir = test_cache_dir("stream-synth");
        let trace_dir = dir.join("traces");
        std::fs::create_dir_all(&dir).unwrap();
        // A roomy recorder: the run completes in memory, caches normally,
        // and a later streaming invocation synthesizes the file from the
        // cached report instead of re-simulating.
        let (cell, _) = fig09_cells(Scale::Quick).swap_remove(0);
        let seeder = Runner::new(1, Some(dir.clone()), false);
        let stats = seeder.get(&cell);
        let streaming =
            Runner::new(1, Some(dir.clone()), false).with_stream_dir(Some(trace_dir.clone()));
        let again = streaming.get(&cell);
        assert_eq!(streaming.counters().disk_hits, 1);
        assert_eq!(streaming.counters().simulated, 0);
        assert_eq!(again.to_json(), stats.to_json());
        let bytes = std::fs::read(swtb_path(&trace_dir, &cell.key())).unwrap();
        let trace = swgpu_obs::validate_trace(&bytes).expect("valid SWTB");
        let report = stats.obs.as_deref().unwrap();
        assert_eq!(trace.report.spans, report.spans);
        assert_eq!(trace.report.counters, report.counters);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stream_bytes_are_identical_across_job_counts() {
        // `--jobs 1` vs `--jobs 4`: flush points depend on simulated
        // content only, never on scheduling, so each cell's SWTB file is
        // byte-identical across pool widths.
        let cells: Vec<Cell> = fig09_cells(Scale::Quick)
            .into_iter()
            .map(|(mut c, _)| {
                c.cfg.obs.span_capacity = 64;
                c
            })
            .collect();
        let dirs = [test_cache_dir("stream-j1"), test_cache_dir("stream-j4")];
        for (jobs, dir) in [1usize, 4].into_iter().zip(&dirs) {
            std::fs::remove_dir_all(dir).ok();
            let runner = Runner::new(jobs, None, false).with_stream_dir(Some(dir.clone()));
            runner.run_cells(&cells);
        }
        for cell in &cells {
            let a = std::fs::read(swtb_path(&dirs[0], &cell.key())).unwrap();
            let b = std::fs::read(swtb_path(&dirs[1], &cell.key())).unwrap();
            assert!(!a.is_empty());
            assert_eq!(a, b, "SWTB bytes must not depend on --jobs");
        }
        for dir in &dirs {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn tenant_mix_cell_caches_its_per_tenant_metrics_in_the_artifact() {
        use swgpu_sim::{SharingPolicy, TenantsConfig};
        let dir = test_cache_dir("tenant-mix");
        std::fs::create_dir_all(&dir).unwrap();
        let mut cfg = SystemConfig::SoftWalker.build(Scale::Quick);
        let mut layout = TenantsConfig::pair("gups", "2dc", cfg.sms);
        layout.policy = SharingPolicy::Shared {
            max_inflight_walks: 8,
        };
        cfg.tenants = Some(layout);
        let cell = Cell::tenant_mix(cfg, 10);
        assert!(cell.key().starts_with("mt-gups+2dc-fp10-"));
        let runner = Runner::new(1, Some(dir.clone()), false);
        let stats = runner.run_cells(std::slice::from_ref(&cell));
        assert_eq!(stats[0].tenants.len(), 2, "two tenant metric slices");
        // The tenant cell bypasses the prebuild store (it maps its own
        // per-tenant spaces) but still caches normally: its artifact holds
        // the tenant block, and the manifest only the runner's facts.
        assert_eq!(runner.counters().pt_prebuilds, 0);
        let artifact = std::fs::read_to_string(RunArtifact::path_in(&dir, &cell.key())).unwrap();
        for member in [
            "\"tenant_count\":2",
            "\"fairness_index\":",
            "\"tenant1_walks\":",
        ] {
            assert!(artifact.contains(member), "{member} missing: {artifact}");
        }
        let manifest = std::fs::read_to_string(dir.join("manifest.json")).unwrap();
        assert!(manifest.contains(&format!("\"key\":\"{}\"", cell.key())));
        for member in ["\"tenants\"", "\"fairness\""] {
            assert!(!manifest.contains(member), "{member} in {manifest}");
        }
        // A fresh runner serves the cell from disk with the tenant block
        // intact (the schema-7 artifact round-trips it).
        let again = Runner::new(1, Some(dir.clone()), false);
        let cached = again.get(&cell);
        assert_eq!(again.counters().disk_hits, 1);
        assert_eq!(again.counters().simulated, 0);
        assert_eq!(cached.to_json(), stats[0].to_json());
        assert_eq!(cached.tenants, stats[0].tenants);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn runner_dedups_and_memoizes() {
        let spec = by_abbr("gemm").unwrap();
        let cell = Cell::bench(&spec, SystemConfig::Baseline.build(Scale::Quick));
        let runner = Runner::new(2, None, false);
        // Four copies of the same cell: one simulation, in-batch dedup.
        let out = runner.run_cells(&vec![cell.clone(); 4]);
        assert_eq!(out.len(), 4);
        assert_eq!(runner.counters().simulated, 1);
        assert_eq!(runner.counters().memo_hits, 0);
        // A repeat batch is all memo hits.
        runner.run_cells(std::slice::from_ref(&cell));
        assert_eq!(runner.counters().simulated, 1);
        assert_eq!(runner.counters().memo_hits, 1);
        assert_eq!(out[0].to_json(), runner.get(&cell).to_json());
    }
}
