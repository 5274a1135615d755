//! Deterministic fault injection for the translation pipeline.
//!
//! The simulator's fault path (invalid PTE → `FFB`/fault buffer → UVM
//! driver repair → replay) is only exercisable if something can *make* a
//! walk fail. [`FaultPlan`] describes a seeded, per-site fault workload:
//! transient PTE corruption at page-table reads, dropped or delayed memory
//! responses for walker traffic, and stuck PW threads. All rates default
//! to zero, in which case every injection site is a provable no-op — no
//! RNG is constructed and no random numbers are drawn, so a zero-rate run
//! is cycle- and stats-identical to a build without the layer.
//!
//! Each injection site owns a [`FaultInjector`] seeded from
//! `plan.seed ^ SITE_SALT (^ instance)`, so outcomes are independent of
//! call interleaving across sites and fully reproducible for a fixed seed.

/// Per-site fault rates, recovery parameters and the RNG seed.
///
/// Rates are probabilities in `[0, 1]` evaluated independently at each
/// eligible event. The plan is carried by `GpuConfig`, so it participates
/// in the config fingerprint and therefore in run-cache keys.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every injection-site RNG (salted per site).
    pub seed: u64,
    /// Probability that a page-table entry read returns a transiently
    /// corrupted (invalid) entry instead of the real bytes.
    pub pte_corrupt_rate: f64,
    /// Probability that a page-table entry read returns a *valid but
    /// wrong* entry: PFN bits flipped while the valid bit stays set. The
    /// reader can only notice by verifying the PTE's parity nibble at
    /// decode — the silent-corruption blind spot this mode exists to
    /// exercise.
    pub pte_silent_corrupt_rate: f64,
    /// Probability that a completed page-table memory response is dropped
    /// (the requester's watchdog must re-issue it).
    pub mem_drop_rate: f64,
    /// Probability that a page-table DRAM access is delayed by
    /// [`FaultPlan::mem_delay_cycles`].
    pub mem_delay_rate: f64,
    /// Extra latency applied to delayed accesses.
    pub mem_delay_cycles: u64,
    /// Probability that a PW thread wedges when a walk is assigned to it
    /// (recovered by the watchdog restarting the walk).
    pub stuck_thread_rate: f64,
    /// Base per-walk watchdog timeout; retry `k` waits
    /// `watchdog_cycles << k` (exponential backoff).
    pub watchdog_cycles: u64,
    /// Retries before a walk is escalated to the fault buffer / driver.
    pub max_retries: u32,
    /// Cycles the simulated UVM driver takes to repair a PTE and trigger
    /// the replay of an escalated translation.
    pub driver_latency: u64,
    /// Probability that a driver fill completion is dropped (the
    /// generation-counted fill watchdog must re-issue it).
    pub fill_drop_rate: f64,
    /// Probability that a driver fill completion is delayed by
    /// [`FaultPlan::fill_delay_cycles`].
    pub fill_delay_rate: f64,
    /// Extra latency applied to delayed fill completions.
    pub fill_delay_cycles: u64,
    /// Probability that a driver fill completion is duplicated: a second,
    /// spurious completion arrives for an already-delivered fill and must
    /// be absorbed without double-completing the translation.
    pub fill_duplicate_rate: f64,
    /// Probability that a fill's data payload lands corrupted in the
    /// frame. The end-to-end checksum stamped at fill time is what makes
    /// this *detectable* at consumption instead of silent.
    pub fill_corrupt_rate: f64,
    /// Probability that the TLB-shootdown message for an evicted page is
    /// lost, leaving a stale translation in the shared L2 TLB.
    pub shootdown_drop_rate: f64,
    /// Probability that the driver queue wedges on a request and sits on
    /// it for another `driver_latency` before servicing (bounded by
    /// `max_retries` per request).
    pub driver_stuck_rate: f64,
    /// Checksum failures a physical frame may accumulate before it is
    /// retired to the allocator's bad-frame list instead of being reused.
    pub frame_retire_threshold: u32,
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self {
            seed: 0,
            pte_corrupt_rate: 0.0,
            pte_silent_corrupt_rate: 0.0,
            mem_drop_rate: 0.0,
            mem_delay_rate: 0.0,
            mem_delay_cycles: 500,
            stuck_thread_rate: 0.0,
            watchdog_cycles: 5_000,
            max_retries: 3,
            driver_latency: 2_000,
            fill_drop_rate: 0.0,
            fill_delay_rate: 0.0,
            fill_delay_cycles: 3_000,
            fill_duplicate_rate: 0.0,
            fill_corrupt_rate: 0.0,
            shootdown_drop_rate: 0.0,
            driver_stuck_rate: 0.0,
            frame_retire_threshold: 2,
        }
    }
}

impl FaultPlan {
    /// Every injection rate: its field name, its value, and whether it
    /// arms a demand-paging data-path site (else a walk site).
    pub fn rates(&self) -> [(&'static str, f64, bool); 11] {
        [
            ("pte_corrupt_rate", self.pte_corrupt_rate, false),
            (
                "pte_silent_corrupt_rate",
                self.pte_silent_corrupt_rate,
                false,
            ),
            ("mem_drop_rate", self.mem_drop_rate, false),
            ("mem_delay_rate", self.mem_delay_rate, false),
            ("stuck_thread_rate", self.stuck_thread_rate, false),
            ("fill_drop_rate", self.fill_drop_rate, true),
            ("fill_delay_rate", self.fill_delay_rate, true),
            ("fill_duplicate_rate", self.fill_duplicate_rate, true),
            ("fill_corrupt_rate", self.fill_corrupt_rate, true),
            ("shootdown_drop_rate", self.shootdown_drop_rate, true),
            ("driver_stuck_rate", self.driver_stuck_rate, true),
        ]
    }

    /// Whether a rate of the given pipeline is positive.
    fn armed(&self, data_path: bool) -> bool {
        self.rates()
            .iter()
            .any(|&(_, rate, on_data_path)| on_data_path == data_path && rate > 0.0)
    }

    /// Whether any injection site can fire. When false the entire layer
    /// is inert and the simulator behaves exactly as if it did not exist.
    pub fn enabled(&self) -> bool {
        self.armed(false)
    }

    /// Whether any demand-paging data-path site can fire. Independent of
    /// [`FaultPlan::enabled`] (the walk sites): a plan may storm the fill
    /// pipeline while leaving page-table walks untouched, and vice versa.
    pub fn data_path_enabled(&self) -> bool {
        self.armed(true)
    }

    /// Watchdog deadline delta for a walk that has already retried
    /// `retries` times (exponential backoff, saturating shift).
    pub fn backoff_cycles(&self, retries: u32) -> u64 {
        let shift = retries.min(16);
        self.watchdog_cycles.saturating_mul(1u64 << shift)
    }
}

/// The deterministic end-to-end data checksum stamped into a frame's
/// first word at fill time and re-derived at consumption. Keyed by the
/// page *and* the fill generation so a stale frame (filled for an earlier
/// tenant, or an earlier fill of the same page) never verifies.
pub fn data_checksum(vpn: u64, generation: u64) -> u64 {
    let mut z = vpn
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(generation.wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Never stamp 0: an unbacked frame reads as 0, and a checksum that
    // collides with "no data" would make a lost fill look verified.
    (z ^ (z >> 31)) | 1
}

/// Site salts: injectors at different sites must draw independent
/// streams even though they share the plan seed.
pub mod site {
    /// Page-table entry reads by the hardware PTW pool.
    pub const PTW_PTE: u64 = 0x9e37_79b9_7f4a_7c15;
    /// Page-table entry reads by a PW Warp (salted again by SM index).
    pub const PW_WARP_PTE: u64 = 0xc2b2_ae3d_27d4_eb4f;
    /// L2 data cache response drops.
    pub const L2D_DROP: u64 = 0x1656_67b1_9e37_79f9;
    /// DRAM access delays.
    pub const DRAM_DELAY: u64 = 0x27d4_eb2f_1656_67c5;
    /// Stuck-thread injection at walk assignment (salted by SM index).
    pub const STUCK_THREAD: u64 = 0x8545_03b8_bf58_476d;
    /// Driver fill completions (drop / delay / duplicate decisions).
    pub const FILL_COMPLETE: u64 = 0x94d0_49bb_1331_11eb;
    /// Fill data payload corruption (and the garble pattern draw).
    pub const FILL_PAYLOAD: u64 = 0xd6e8_feb8_6659_fd93;
    /// TLB-shootdown message drops on eviction.
    pub const SHOOTDOWN: u64 = 0xbf58_476d_1ce4_e5b9;
    /// Stuck driver-queue service.
    pub const DRIVER_QUEUE: u64 = 0x2545_f491_4f6c_dd1d;
}

crate::counters! {
    /// Counters kept by each injection site and summed into `SimStats`.
    ///
    /// Two conservation laws hold over the summed counters, both checked by
    /// `SimStats::check_ledgers` on every run: `injected_total() ==
    /// recovered_injections + escalated_injections` once the simulation
    /// drains (every injected fault is either recovered in place by
    /// retry/watchdog or escalated to the driver — never silently lost), and
    /// `injected_silent_corruptions == detected_silent_corruptions`. Delays
    /// are accounted separately (they perturb timing but need no recovery).
    pub struct FaultInjectionStats {
        /// PTE reads that returned a transiently corrupted (invalid) entry.
        pub injected_pte_corruptions: u64,
        /// PTE reads that returned a valid-but-wrong entry (PFN bits flipped,
        /// valid bit intact).
        pub injected_silent_corruptions: u64,
        /// Silent corruptions caught by the parity check at decode. With the
        /// parity-covered flip pattern the injector uses, this must equal
        /// `injected_silent_corruptions` — a shortfall means a wrong
        /// translation was consumed.
        pub detected_silent_corruptions: u64,
        /// Page-table memory responses dropped in flight.
        pub injected_mem_drops: u64,
        /// Page-table DRAM accesses delayed by `mem_delay_cycles`.
        pub injected_mem_delays: u64,
        /// PW threads wedged at walk assignment.
        pub injected_stuck_threads: u64,
        /// Injected faults whose walk subsequently completed in place.
        pub recovered_injections: u64,
        /// Injected faults whose walk was escalated to the fault buffer.
        pub escalated_injections: u64,
        /// Watchdog deadline expirations that re-issued a stalled walk step.
        pub watchdog_timeouts: u64,
        /// Bounded-backoff walk retries (any cause).
        pub walk_retries: u64,
        /// Walks handed to the fault buffer / driver after retries ran out.
        pub fault_escalations: u64,
        /// Escalated translations replayed after the driver repaired the PTE.
        pub fault_replays: u64,
        /// Escalated translations the driver could not repair (the page is
        /// genuinely unmapped): completed as a real page fault.
        pub unrecoverable_faults: u64,
        /// Fault-buffer records evicted by the capacity cap (drop-oldest).
        pub fault_buffer_overflow_drops: u64,
    }
}

impl FaultInjectionStats {
    /// Total recovery-requiring injections (delays excluded: they perturb
    /// timing but every delayed access still completes on its own).
    pub fn injected_total(&self) -> u64 {
        self.injected_pte_corruptions
            + self.injected_silent_corruptions
            + self.injected_mem_drops
            + self.injected_stuck_threads
    }
}

crate::counters! {
    /// Counters for the demand-paging data-path fault pipeline, summed into
    /// `SimStats` as the `mm_fault_*` / `data_*` block.
    ///
    /// Two conservation laws hold once the simulation drains, both checked
    /// by `SimStats::check_ledgers` on every run:
    ///
    /// 1. [`MmFaultStats::injected_conserved`] `== recovered_fills +
    ///    escalated_fills + retired_fills` — every recovery-requiring
    ///    injection is eventually recovered in place, escalated to the fault
    ///    buffer / driver replay, or resolved by retiring the failing frame.
    ///    Delays are excluded (a delayed completion still arrives on its
    ///    own), mirroring the walk-side convention.
    /// 2. `injected_fill_corruptions == detected_corruptions` — the
    ///    end-to-end checksum catches every corrupted payload, at
    ///    consumption or at the eviction-time scrub; a shortfall means an SM
    ///    consumed bad data silently.
    pub struct MmFaultStats {
        /// Driver fill completions dropped in flight.
        pub injected_fill_drops: u64,
        /// Driver fill completions delayed by `fill_delay_cycles`.
        pub injected_fill_delays: u64,
        /// Spurious duplicate fill completions injected.
        pub injected_fill_duplicates: u64,
        /// Fill payloads corrupted in the frame at fill time.
        pub injected_fill_corruptions: u64,
        /// TLB-shootdown messages lost on eviction.
        pub injected_shootdown_drops: u64,
        /// Driver-queue service stalls injected.
        pub injected_driver_stalls: u64,
        /// Checksum mismatches caught (at consumption or eviction scrub).
        pub detected_corruptions: u64,
        /// Stale translations caught by the consumption check: an L2 TLB hit
        /// (or a completion that raced an eviction) whose frame no longer
        /// belongs to the page. Not part of the conservation sum — staleness
        /// is the *symptom*; the dropped shootdown that caused it is the
        /// injection being conserved.
        pub detected_stale_hits: u64,
        /// Injections that resolved through the normal machinery (the fill
        /// completed, a duplicate was absorbed, a stale entry was refreshed).
        pub recovered_fills: u64,
        /// Injections resolved by escalating the fill to the fault buffer
        /// and a last-resort driver replay.
        pub escalated_fills: u64,
        /// Injections resolved by retiring the failing frame and re-filling
        /// the page elsewhere.
        pub retired_fills: u64,
        /// Physical frames moved to the allocator's bad-frame list.
        pub frames_retired: u64,
        /// Fill-watchdog deadline expirations.
        pub fill_watchdog_timeouts: u64,
        /// Bounded-backoff fill completion re-issues.
        pub fill_retries: u64,
    }
}

impl MmFaultStats {
    /// Total recovery-requiring data-path injections (delays excluded).
    pub fn injected_conserved(&self) -> u64 {
        self.injected_fill_drops
            + self.injected_fill_duplicates
            + self.injected_fill_corruptions
            + self.injected_shootdown_drops
            + self.injected_driver_stalls
    }
}

/// A per-site deterministic fault source: a salted SplitMix64 stream plus
/// the site's counters.
///
/// The RNG is inlined (rather than depending on a rand crate) so the
/// lowest-level crates can inject without new dependencies, and so the
/// stream is pinned to this exact algorithm forever — fault schedules are
/// part of experiment reproducibility.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    state: u64,
    /// Counters for everything this site injected or recovered.
    pub stats: FaultInjectionStats,
}

impl FaultInjector {
    /// Creates an injector for one site of the plan.
    pub fn new(seed: u64, salt: u64) -> Self {
        Self {
            state: seed ^ salt,
            stats: FaultInjectionStats::default(),
        }
    }

    /// Creates an injector for one instance of a replicated site (e.g.
    /// the PW Warp on SM `instance`).
    pub fn new_instance(seed: u64, salt: u64, instance: u64) -> Self {
        Self::new(seed, salt ^ instance.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Draws one Bernoulli trial at `rate`. A rate ≤ 0 returns false
    /// *without advancing the RNG*, so disabled sites stay byte-inert.
    pub fn fire(&mut self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        // 53-bit mantissa conversion, same convention as the vendored
        // rand stub's `gen_bool`.
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        unit < rate
    }

    /// Draws one raw 64-bit value from the site's stream — used to pick
    /// *which* bits a fired silent corruption flips. Only call after a
    /// [`FaultInjector::fire`] returned true, so disarmed sites still
    /// never advance their RNG.
    pub fn draw_u64(&mut self) -> u64 {
        self.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_disabled() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled());
    }

    #[test]
    fn nonzero_rate_enables() {
        let plan = FaultPlan {
            pte_corrupt_rate: 0.01,
            ..FaultPlan::default()
        };
        assert!(plan.enabled());
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let plan = FaultPlan {
            watchdog_cycles: 100,
            ..FaultPlan::default()
        };
        assert_eq!(plan.backoff_cycles(0), 100);
        assert_eq!(plan.backoff_cycles(1), 200);
        assert_eq!(plan.backoff_cycles(3), 800);
        // Huge retry counts must not overflow.
        assert!(plan.backoff_cycles(200) >= plan.backoff_cycles(16));
    }

    #[test]
    fn zero_rate_draws_nothing() {
        let mut inj = FaultInjector::new(42, site::PTW_PTE);
        let before = inj.state;
        for _ in 0..100 {
            assert!(!inj.fire(0.0));
        }
        assert_eq!(inj.state, before, "disabled site advanced its RNG");
    }

    #[test]
    fn same_seed_same_schedule() {
        let mut a = FaultInjector::new(7, site::L2D_DROP);
        let mut b = FaultInjector::new(7, site::L2D_DROP);
        let fire_a: Vec<bool> = (0..256).map(|_| a.fire(0.3)).collect();
        let fire_b: Vec<bool> = (0..256).map(|_| b.fire(0.3)).collect();
        assert_eq!(fire_a, fire_b);
    }

    #[test]
    fn sites_draw_independent_streams() {
        let mut a = FaultInjector::new(7, site::PTW_PTE);
        let mut b = FaultInjector::new(7, site::L2D_DROP);
        let fire_a: Vec<bool> = (0..256).map(|_| a.fire(0.5)).collect();
        let fire_b: Vec<bool> = (0..256).map(|_| b.fire(0.5)).collect();
        assert_ne!(fire_a, fire_b);
    }

    #[test]
    fn instances_draw_independent_streams() {
        let mut a = FaultInjector::new_instance(7, site::STUCK_THREAD, 0);
        let mut b = FaultInjector::new_instance(7, site::STUCK_THREAD, 1);
        let fire_a: Vec<bool> = (0..256).map(|_| a.fire(0.5)).collect();
        let fire_b: Vec<bool> = (0..256).map(|_| b.fire(0.5)).collect();
        assert_ne!(fire_a, fire_b);
    }

    #[test]
    fn rate_roughly_respected() {
        let mut inj = FaultInjector::new(123, site::DRAM_DELAY);
        let hits = (0..10_000).filter(|_| inj.fire(0.1)).count();
        assert!((800..1200).contains(&hits), "got {hits} hits at rate 0.1");
    }

    #[test]
    fn rates_table_lists_every_rate_once() {
        // Every field named (no `..`): a new rate must be placed here and,
        // with a value of its own, in the table.
        let plan = FaultPlan {
            seed: 0,
            pte_corrupt_rate: 0.01,
            pte_silent_corrupt_rate: 0.02,
            mem_drop_rate: 0.03,
            mem_delay_rate: 0.04,
            mem_delay_cycles: 0,
            stuck_thread_rate: 0.05,
            watchdog_cycles: 0,
            max_retries: 0,
            driver_latency: 0,
            fill_drop_rate: 0.06,
            fill_delay_rate: 0.07,
            fill_delay_cycles: 0,
            fill_duplicate_rate: 0.08,
            fill_corrupt_rate: 0.09,
            shootdown_drop_rate: 0.10,
            driver_stuck_rate: 0.11,
            frame_retire_threshold: 0,
        };
        let rates = plan.rates();
        for (i, &(name, rate, data_path)) in rates.iter().enumerate() {
            assert_eq!(rate, (i + 1) as f64 / 100.0, "{name}");
            assert_eq!(data_path, i >= 5, "{name}");
        }
    }

    #[test]
    fn data_path_arming_is_independent_of_walk_arming() {
        let walk_only = FaultPlan {
            pte_corrupt_rate: 0.1,
            ..FaultPlan::default()
        };
        assert!(walk_only.enabled() && !walk_only.data_path_enabled());
        for set in [
            |p: &mut FaultPlan| p.fill_drop_rate = 0.1,
            |p: &mut FaultPlan| p.fill_delay_rate = 0.1,
            |p: &mut FaultPlan| p.fill_duplicate_rate = 0.1,
            |p: &mut FaultPlan| p.fill_corrupt_rate = 0.1,
            |p: &mut FaultPlan| p.shootdown_drop_rate = 0.1,
            |p: &mut FaultPlan| p.driver_stuck_rate = 0.1,
        ] {
            let mut plan = FaultPlan::default();
            set(&mut plan);
            assert!(plan.data_path_enabled() && !plan.enabled());
        }
    }

    #[test]
    fn data_checksum_is_keyed_by_page_and_generation() {
        assert_eq!(data_checksum(7, 1), data_checksum(7, 1));
        assert_ne!(data_checksum(7, 1), data_checksum(8, 1));
        assert_ne!(data_checksum(7, 1), data_checksum(7, 2));
        for v in 0..64 {
            assert_ne!(data_checksum(v, v), 0, "checksum collides with zero");
        }
    }

    #[test]
    fn mm_fault_stats_conservation_helpers() {
        let mut s = MmFaultStats {
            injected_fill_drops: 2,
            injected_fill_duplicates: 1,
            injected_fill_corruptions: 3,
            injected_shootdown_drops: 1,
            injected_driver_stalls: 1,
            injected_fill_delays: 50, // excluded from the invariant
            detected_stale_hits: 9,   // symptom counter, also excluded
            ..MmFaultStats::default()
        };
        assert_eq!(s.injected_conserved(), 8);
        assert_ne!(s, MmFaultStats::default());
        let other = MmFaultStats {
            recovered_fills: 5,
            escalated_fills: 2,
            retired_fills: 1,
            frames_retired: 1,
            detected_corruptions: 3,
            ..MmFaultStats::default()
        };
        s.merge(&other);
        assert_eq!(
            s.injected_conserved(),
            s.recovered_fills + s.escalated_fills + s.retired_fills
        );
        assert_eq!(s.injected_fill_corruptions, s.detected_corruptions);
    }

    #[test]
    fn stats_conservation_helpers() {
        let mut s = FaultInjectionStats {
            injected_pte_corruptions: 2,
            injected_silent_corruptions: 2,
            detected_silent_corruptions: 2,
            injected_mem_drops: 1,
            injected_stuck_threads: 3,
            injected_mem_delays: 99, // excluded from the invariant
            ..FaultInjectionStats::default()
        };
        assert_eq!(s.injected_total(), 8);
        assert_ne!(s, FaultInjectionStats::default());
        let other = FaultInjectionStats {
            recovered_injections: 5,
            escalated_injections: 3,
            ..FaultInjectionStats::default()
        };
        s.merge(&other);
        assert_eq!(
            s.injected_total(),
            s.recovered_injections + s.escalated_injections
        );
    }
}
