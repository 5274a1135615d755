//! The Request Distributor (§4.4, Figure 11 top half).
//!
//! Sits beside the L2 TLB and assigns each missed translation to an SM for
//! software walking. A per-core counter tracks requests in flight to each
//! SM (bounded by the SoftPWB capacity) so cores are never oversubscribed;
//! the counter decrements when the core's `FL2T` fill arrives back at the
//! L2 TLB. Three selection policies are modelled (Figure 26): round-robin
//! (the paper's low-overhead default), random, and stall-aware (prefer
//! cores currently unable to issue user instructions).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use swgpu_types::SmId;

/// Core-selection policy (Figure 26 compares all three; they perform
/// within noise of each other, so the paper adopts round-robin).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistributorPolicy {
    /// Rotate through cores — the default.
    RoundRobin,
    /// Uniformly random core with capacity.
    Random,
    /// Prefer cores that are currently stalled (their issue ports are
    /// idle anyway); fall back to round-robin among the rest.
    StallAware,
}

/// Dispatch statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributorStats {
    /// Requests dispatched to cores.
    pub dispatched: u64,
    /// Dispatch attempts that found every core full (the request waits at
    /// the L2 TLB and retries).
    pub blocked: u64,
}

/// The L2-TLB-side request distributor.
///
/// # Example
///
/// ```
/// use softwalker::{DistributorPolicy, RequestDistributor};
/// use swgpu_types::SmId;
///
/// let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 2, 1);
/// let a = d.select_core(&[false, false]).unwrap();
/// let b = d.select_core(&[false, false]).unwrap();
/// assert_ne!(a, b, "round-robin alternates");
/// assert!(d.select_core(&[false, false]).is_none(), "both cores full");
/// d.on_fill(a);
/// assert_eq!(d.select_core(&[false, false]), Some(a));
/// ```
#[derive(Debug)]
pub struct RequestDistributor {
    policy: DistributorPolicy,
    counters: Vec<u32>,
    capacity: u32,
    rr_ptr: usize,
    /// Separate rotation pointer for prefetch placement, so prefetching
    /// never perturbs the demand-dispatch order (or the RNG stream).
    pf_ptr: usize,
    rng: StdRng,
    stats: DistributorStats,
}

impl RequestDistributor {
    /// Creates a distributor for `cores` SMs, each able to hold
    /// `per_core_capacity` in-flight requests (the SoftPWB depth, 32).
    ///
    /// # Panics
    ///
    /// Panics if `cores` or `per_core_capacity` is zero.
    pub fn new(policy: DistributorPolicy, cores: usize, per_core_capacity: u32) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(per_core_capacity > 0, "per-core capacity must be positive");
        Self {
            policy,
            counters: vec![0; cores],
            capacity: per_core_capacity,
            rr_ptr: 0,
            pf_ptr: 0,
            rng: StdRng::seed_from_u64(0x50f7_3a1c),
            stats: DistributorStats::default(),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> DistributorPolicy {
        self.policy
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> DistributorStats {
        self.stats
    }

    /// In-flight requests currently assigned to `sm`.
    pub fn in_flight(&self, sm: SmId) -> u32 {
        self.counters[sm.index()]
    }

    /// Total requests currently dispatched and unfilled.
    pub fn total_in_flight(&self) -> u32 {
        self.counters.iter().sum()
    }

    /// Picks a core with spare SoftPWB capacity and increments its counter
    /// (Figure 11 steps 1-2). `stalled` flags which cores are currently
    /// stall-bound (used by [`DistributorPolicy::StallAware`]; the slice
    /// may be empty for other policies). Returns `None` when every core is
    /// full — the caller retries next cycle.
    pub fn select_core(&mut self, stalled: &[bool]) -> Option<SmId> {
        self.select_core_among(|i| stalled.get(i).copied().unwrap_or(false), &[])
    }

    /// Like [`RequestDistributor::select_core`] but restricted to the
    /// cores flagged in `allowed` — the partitioned multi-tenant policy
    /// dispatches a tenant's walks only to that tenant's SMs. An empty
    /// `allowed` slice means every core is eligible (the single-tenant
    /// path, byte-identical to `select_core`). `stalled(i)` says whether
    /// core `i` is stall-bound; only [`DistributorPolicy::StallAware`]
    /// asks, so callers read the cores' state in place rather than
    /// collecting it every cycle.
    pub fn select_core_among(
        &mut self,
        stalled: impl Fn(usize) -> bool,
        allowed: &[bool],
    ) -> Option<SmId> {
        let n = self.counters.len();
        let ok = |i: usize| allowed.is_empty() || allowed.get(i).copied().unwrap_or(false);
        let pick = match self.policy {
            DistributorPolicy::RoundRobin => self.pick_round_robin(ok),
            DistributorPolicy::Random => {
                // Reservoir pick: the k-th free core replaces the current
                // choice with probability 1/k, which is uniform over all
                // free cores without materializing a candidate list —
                // select_core runs every cycle, so this path must not
                // allocate.
                let mut chosen = None;
                let mut free = 0usize;
                for (i, &c) in self.counters.iter().enumerate() {
                    if c < self.capacity && ok(i) {
                        free += 1;
                        if self.rng.gen_range(0..free) == 0 {
                            chosen = Some(i);
                        }
                    }
                }
                chosen
            }
            DistributorPolicy::StallAware => self
                .pick_round_robin(|i| ok(i) && stalled(i))
                .or_else(|| self.pick_round_robin(ok)),
        };
        match pick {
            Some(i) => {
                self.counters[i] += 1;
                self.rr_ptr = (i + 1) % n;
                self.stats.dispatched += 1;
                Some(SmId::new(i as u16))
            }
            None => {
                self.stats.blocked += 1;
                None
            }
        }
    }

    fn pick_round_robin(&self, extra: impl Fn(usize) -> bool) -> Option<usize> {
        let n = self.counters.len();
        (0..n)
            .map(|step| (self.rr_ptr + step) % n)
            .find(|&i| self.counters[i] < self.capacity && extra(i))
    }

    /// Places a translation *prefetch* on a core whose PW warp has idle
    /// threads (`idle[i]`), rotating independently of the demand pointer
    /// so prefetching never changes which core the next demand walk gets.
    /// The core's in-flight counter is charged like a demand dispatch —
    /// the prefetch's `FL2T` fill releases it via [`Self::on_fill`] — so
    /// SoftPWB capacity is still never oversubscribed. Returns `None`
    /// (without counting a block) when no idle core has capacity. As in
    /// [`Self::select_core_among`], a non-empty `allowed` restricts the
    /// pick to the flagged cores.
    pub fn select_idle_core(&mut self, idle: &[bool], allowed: &[bool]) -> Option<SmId> {
        let n = self.counters.len();
        let flag = |v: &[bool], i: usize| v.get(i).copied().unwrap_or(false);
        let pick = (0..n).map(|step| (self.pf_ptr + step) % n).find(|&i| {
            self.counters[i] < self.capacity
                && flag(idle, i)
                && (allowed.is_empty() || flag(allowed, i))
        });
        let i = pick?;
        self.counters[i] += 1;
        self.pf_ptr = (i + 1) % n;
        self.stats.dispatched += 1;
        Some(SmId::new(i as u16))
    }

    /// A core's `FL2T` fill arrived back at the L2 TLB (Figure 11 step 4):
    /// release one slot.
    ///
    /// # Panics
    ///
    /// Panics if the core had no requests in flight (a lost-token bug).
    pub fn on_fill(&mut self, sm: SmId) {
        let c = &mut self.counters[sm.index()];
        assert!(*c > 0, "fill from a core with no in-flight requests");
        *c -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_spreads_evenly() {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 4, 8);
        let mut counts = [0u32; 4];
        for _ in 0..16 {
            let sm = d.select_core(&[]).unwrap();
            counts[sm.index()] += 1;
        }
        assert_eq!(counts, [4, 4, 4, 4]);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 2, 2);
        for _ in 0..4 {
            assert!(d.select_core(&[]).is_some());
        }
        assert!(d.select_core(&[]).is_none());
        assert_eq!(d.stats().blocked, 1);
        assert_eq!(d.total_in_flight(), 4);
    }

    #[test]
    fn masked_selection_confines_dispatch() {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 4, 2);
        let allowed = [false, true, false, true];
        for _ in 0..4 {
            let sm = d.select_core_among(|_| false, &allowed).unwrap();
            assert!(allowed[sm.index()], "dispatched outside the partition");
        }
        // The partition is saturated even though cores 0/2 are empty.
        assert!(d.select_core_among(|_| false, &allowed).is_none());
        assert_eq!(d.stats().blocked, 1);
        assert_eq!(d.in_flight(SmId::new(0)), 0);
        assert_eq!(d.in_flight(SmId::new(2)), 0);
        // An empty mask behaves exactly like select_core.
        assert!(d.select_core_among(|_| false, &[]).is_some());
    }

    #[test]
    fn fill_releases_capacity() {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 1, 1);
        let sm = d.select_core(&[]).unwrap();
        assert!(d.select_core(&[]).is_none());
        d.on_fill(sm);
        assert_eq!(d.in_flight(sm), 0);
        assert!(d.select_core(&[]).is_some());
    }

    #[test]
    fn random_policy_uses_all_cores_eventually() {
        let mut d = RequestDistributor::new(DistributorPolicy::Random, 4, 1000);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let sm = d.select_core(&[]).unwrap();
            seen[sm.index()] = true;
        }
        assert!(seen.iter().all(|&s| s), "seen={seen:?}");
    }

    #[test]
    fn random_policy_is_seeded_deterministic() {
        let run = || {
            let mut d = RequestDistributor::new(DistributorPolicy::Random, 8, 4);
            let picks: Vec<u16> = (0..24)
                .map(|_| d.select_core(&[]).unwrap().value())
                .collect();
            picks
        };
        assert_eq!(run(), run(), "same seed must give the same dispatch order");
    }

    #[test]
    fn random_policy_is_roughly_uniform_over_free_cores() {
        let mut d = RequestDistributor::new(DistributorPolicy::Random, 4, u32::MAX);
        let mut counts = [0u32; 4];
        for _ in 0..4000 {
            counts[d.select_core(&[]).unwrap().index()] += 1;
        }
        for &c in &counts {
            assert!((800..1200).contains(&c), "skewed pick counts: {counts:?}");
        }
    }

    #[test]
    fn stall_aware_prefers_stalled_cores() {
        let mut d = RequestDistributor::new(DistributorPolicy::StallAware, 4, 8);
        for _ in 0..8 {
            let sm = d.select_core(&[false, false, true, false]).unwrap();
            assert_eq!(sm, SmId::new(2));
        }
        // Stalled core full → falls back to others.
        let sm = d.select_core(&[false, false, true, false]).unwrap();
        assert_ne!(sm, SmId::new(2));
    }

    #[test]
    fn stall_aware_with_no_stalled_behaves_like_rr() {
        let mut d = RequestDistributor::new(DistributorPolicy::StallAware, 3, 8);
        let picks: Vec<_> = (0..3)
            .map(|_| d.select_core(&[false, false, false]).unwrap().index())
            .collect();
        let mut sorted = picks.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn idle_selection_rotates_without_moving_the_demand_pointer() {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 4, 8);
        // Prefetch placement only considers idle cores and rotates among
        // them on its own pointer.
        let idle = [true, false, true, false];
        assert_eq!(d.select_idle_core(&idle, &[]), Some(SmId::new(0)));
        assert_eq!(d.select_idle_core(&idle, &[]), Some(SmId::new(2)));
        assert_eq!(d.select_idle_core(&idle, &[]), Some(SmId::new(0)));
        // The demand pointer is untouched: the next demand dispatch still
        // starts at core 0.
        assert_eq!(d.select_core(&[]), Some(SmId::new(0)));
        assert_eq!(d.in_flight(SmId::new(0)), 3);
    }

    #[test]
    fn idle_selection_stays_inside_the_allowed_cores() {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 4, 8);
        let idle = [true, true, true, false];
        let allowed = [false, true, false, true];
        assert_eq!(d.select_idle_core(&idle, &allowed), Some(SmId::new(1)));
        assert_eq!(d.select_idle_core(&idle, &allowed), Some(SmId::new(1)));
        assert_eq!(
            d.select_idle_core(&idle, &[false, false, false, true]),
            None
        );
        // An empty mask allows every core.
        assert_eq!(d.select_idle_core(&idle, &[]), Some(SmId::new(2)));
    }

    #[test]
    fn idle_selection_respects_capacity_and_idleness() {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 2, 1);
        assert_eq!(
            d.select_idle_core(&[false, false], &[]),
            None,
            "nobody idle"
        );
        assert_eq!(d.select_idle_core(&[true, false], &[]), Some(SmId::new(0)));
        assert_eq!(d.select_idle_core(&[true, false], &[]), None, "core 0 full");
        assert_eq!(d.stats().blocked, 0, "prefetch misses are not blocks");
        d.on_fill(SmId::new(0));
        assert_eq!(d.select_idle_core(&[true, true], &[]), Some(SmId::new(1)));
    }

    #[test]
    #[should_panic(expected = "no in-flight")]
    fn spurious_fill_panics() {
        let mut d = RequestDistributor::new(DistributorPolicy::RoundRobin, 1, 1);
        d.on_fill(SmId::new(0));
    }
}
