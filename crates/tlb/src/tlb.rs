//! The TLB array: set-associative translation cache with pending-capable
//! entries, pluggable replacement, and ASID-keyed tags.
//!
//! Every tag is the pair `(Asid, Vpn)`: two tenants caching the same
//! virtual page occupy distinct ways (unless the opt-in sub-entry
//! sharing mode merges identically-mapped entries), and a shootdown or
//! flush scoped to one ASID can never disturb another tenant's
//! translations. Single-tenant callers pass [`Asid::ZERO`] everywhere
//! and observe exactly the pre-ASID behaviour: the set index is derived
//! from the VPN alone, so ASID 0 traffic hashes, evicts, and counts
//! identically to the un-keyed array.

use swgpu_types::{ensure, Asid, ConfigError, Pfn, Vpn};

/// Replacement policy for victim selection in [`Tlb::fill`] and
/// [`Tlb::reserve_pending`] (the latter is the In-TLB MSHR victim path).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ReplPolicy {
    /// Least-recently-used among valid ways (the baseline).
    #[default]
    Lru,
    /// Dead-on-arrival protection: a per-set saturating reuse sampler
    /// learns whether fills into this set tend to die untouched, marks
    /// incoming fills predicted-dead accordingly, and the victim picker
    /// prefers (1) dead unused prefetches, (2) any predicted-dead entry,
    /// before falling back to plain LRU. PC-free, per-set state only.
    DeadBlock,
}

/// Geometry of one TLB.
#[derive(Debug, Clone)]
pub struct TlbConfig {
    /// Human-readable name for stats dumps ("L1TLB", "L2TLB").
    pub name: String,
    /// Total entries.
    pub entries: usize,
    /// Ways per set; set `assoc == entries` for a fully-associative TLB.
    pub assoc: usize,
    /// Victim-selection policy shared by fills and pending reservations.
    pub repl: ReplPolicy,
}

impl TlbConfig {
    /// Table 3 per-SM L1 TLB: 32 entries, fully associative.
    pub fn l1() -> Self {
        Self {
            name: "L1TLB".into(),
            entries: 32,
            assoc: 32,
            repl: ReplPolicy::Lru,
        }
    }

    /// Table 3 shared L2 TLB: 1024 entries, 16-way.
    pub fn l2() -> Self {
        Self {
            name: "L2TLB".into(),
            entries: 1024,
            assoc: 16,
            repl: ReplPolicy::Lru,
        }
    }

    fn num_sets(&self) -> usize {
        self.entries / self.assoc
    }

    /// Checks the geometry [`Tlb::new`] relies on.
    ///
    /// # Errors
    ///
    /// Rejects an empty TLB, entries that are not a multiple of the
    /// associativity, or a set count that is not a power of two.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure!(self.entries > 0 && self.assoc > 0, "TLB cannot be empty");
        ensure!(
            self.entries.is_multiple_of(self.assoc),
            "entries must be a multiple of associativity"
        );
        ensure!(
            self.num_sets().is_power_of_two(),
            "number of sets must be a power of two"
        );
        Ok(())
    }
}

swgpu_types::counters! {
    /// Per-TLB statistics.
    pub struct TlbStats {
        /// Lookups that found a valid translation.
        pub hits: u64,
        /// Lookups that found nothing usable.
        pub misses: u64,
        /// Translations installed.
        pub fills: u64,
        /// Valid translations evicted to make room (for fills or pending
        /// reservations).
        pub evictions: u64,
        /// Fills installed with the dead-on-arrival prediction set
        /// (always 0 under [`ReplPolicy::Lru`]).
        pub dead_fills: u64,
        /// First demand hit on a prefetched translation (each prefetched
        /// entry is counted at most once — its "useful" event).
        pub prefetch_hits: u64,
        /// Prefetched translations that left the TLB (evicted, overwritten,
        /// invalidated, flushed, or dropped at install) before any demand
        /// hit.
        pub prefetch_evictions: u64,
        /// Fills absorbed by an existing identically-mapped entry of another
        /// ASID (sub-entry sharing mode only; always 0 otherwise). Each join
        /// is a fill that consumed no way.
        pub shared_joins: u64,
    }
}

impl TlbStats {
    /// Hit rate over all lookups (0 for an idle TLB).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.saturating_add(self.misses);
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What [`Tlb::lookup_or_pending`] found for a tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagLookup {
    /// A valid way serves the tag.
    Hit(Pfn),
    /// No valid way serves the tag, and a pending (In-TLB MSHR) way holds
    /// it: a walk for it is already tracked in the array.
    Pending,
    /// Nothing in the set serves or tracks the tag.
    Miss,
}

/// LRU stamp of an invalid way: below every valid stamp, so the
/// placement argmin meets an invalid way before any valid one.
const INVALID: u64 = 0;
/// LRU stamp of a pending (In-TLB MSHR, Figure 13) way, which holds the
/// metadata of an outstanding miss instead of a translation: above every
/// valid stamp, so the argmin never picks it over a valid way.
const PENDING: u64 = u64::MAX;

/// Whether a stamp marks a valid way. Valid stamps are ticks, which start
/// at 1 and never reach `u64::MAX`.
fn is_valid(stamp: u64) -> bool {
    stamp != INVALID && stamp != PENDING
}

/// A way's fields besides its tag VPN and LRU stamp, which live in their
/// own arrays: 16 bytes, so a way costs 32 in all.
#[derive(Debug, Clone, Copy)]
struct Way {
    pfn: Pfn,
    /// Owning address space. Pending ways are always single-ASID.
    asid: Asid,
    /// Sub-entry sharing bitmask: additional ASIDs (beyond the owner)
    /// whose identical mapping this entry serves. Always 0 outside the
    /// opt-in sharing mode.
    shared: u16,
    /// Installed by a translation prefetch rather than a demand walk.
    prefetched: bool,
    /// Hit at least once since installation.
    touched: bool,
    /// Predicted dead-on-arrival at install time (DeadBlock only).
    dead: bool,
}

const _: () = assert!(
    std::mem::size_of::<Way>() + std::mem::size_of::<Vpn>() + std::mem::size_of::<u64>() <= 32,
    "a TLB way must fit in 32 bytes"
);

impl Way {
    /// A pending reservation owned by `asid`.
    fn pending(asid: Asid) -> Self {
        Way {
            pfn: Pfn::new(0),
            asid,
            shared: 0,
            prefetched: false,
            touched: false,
            dead: false,
        }
    }

    /// Whether this way serves `asid` — as owner or (in sharing mode) via
    /// its sub-entry bitmask. Neither the tag nor the state is checked.
    fn serves(&self, asid: Asid) -> bool {
        self.asid == asid || self.shared & asid_bit(asid) != 0
    }
}

/// The most tenants a multi-tenant configuration may run.
pub const MAX_TENANTS: usize = 8;

// `asid_bit` masks ASIDs to the 16 bits of the sub-entry bitmask, so two
// ASIDs 16 apart would share a bit and serve each other's entries.
const _: () = assert!(MAX_TENANTS <= 16);

/// The sub-entry bitmask bit for an ASID. The mask is 16 bits wide, which
/// covers every ASID below [`MAX_TENANTS`].
fn asid_bit(asid: Asid) -> u16 {
    1u16 << (asid.index() & 15)
}

/// The flat indices in `ways` whose key is `vpn`, in way order: valid,
/// pending or stale (invalid), so callers check the stamp. Only these
/// ways need more than their key read.
fn tagged(
    keys: &[Vpn],
    ways: std::ops::Range<usize>,
    vpn: Vpn,
) -> impl Iterator<Item = usize> + '_ {
    let base = ways.start;
    keys[ways]
        .iter()
        .enumerate()
        .filter(move |&(_, &key)| key == vpn)
        .map(move |(w, _)| base + w)
}

/// Per-set dead-on-arrival sampler bounds: the score saturates in
/// `[SCORE_MIN, SCORE_MAX]` and fills are predicted dead at
/// `>= DEAD_THRESHOLD`. An untouched victim is evidence for death (+1),
/// a touched victim is evidence of reuse (-1).
const SCORE_MIN: i8 = -8;
const SCORE_MAX: i8 = 7;
const DEAD_THRESHOLD: i8 = 2;

/// What one pass over a set's tag keys found for an `(asid, vpn)` install
/// (a fill or a pending reservation).
#[derive(Debug, Default)]
struct TagScan {
    /// A pending way holds the tag.
    pending: bool,
    /// The first two valid ways that `asid` owns under the tag (for a
    /// reservation: that also have no sharers). The second stands in for
    /// the first when detaching `asid` from the set takes the first.
    owned: [Option<usize>; 2],
    /// The first valid way serving `asid`, owner or sharer: the one
    /// [`Tlb::drop_claim`] detaches in sharing mode.
    serving: Option<usize>,
    /// The first valid way mapping the tag's VPN to the install's PFN
    /// (sharing mode: the way a fill joins).
    same_map: Option<usize>,
}

/// A set-associative, ASID-tagged TLB with pluggable replacement.
///
/// Ways are stored flat, set after set, in three arrays: the tag VPNs
/// (every lookup scans these first, and only a key match reads further),
/// the LRU stamps, and the remaining fields. A stamp is the tick of the
/// way's last use, 0 for an empty way or `u64::MAX` for an In-TLB MSHR
/// reservation, so "the first invalid way in the window, else its least
/// recently used valid way" is one argmin over the stamps, and no way
/// needs a separate state field. Each operation passes over its set's
/// keys once, and a fill or reservation that needs a victim passes over
/// the window's stamps once more.
///
/// # Example
///
/// ```
/// use swgpu_tlb::{Tlb, TlbConfig};
/// use swgpu_types::{Asid, Pfn, Vpn};
///
/// let mut tlb = Tlb::new(TlbConfig::l1());
/// assert_eq!(tlb.lookup(Asid::ZERO, Vpn::new(5)), None);
/// tlb.fill(Asid::ZERO, Vpn::new(5), Pfn::new(0x40));
/// assert_eq!(tlb.lookup(Asid::ZERO, Vpn::new(5)), Some(Pfn::new(0x40)));
/// // A second tenant's identical VPN is a distinct tag.
/// assert_eq!(tlb.lookup(Asid::new(1), Vpn::new(5)), None);
/// ```
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    /// Way `set * assoc + w`'s tag VPN; meaningful only while the way is
    /// valid or pending.
    keys: Vec<Vpn>,
    /// Each way's LRU stamp: [`INVALID`], [`PENDING`] or its last use.
    stamps: Vec<u64>,
    ways: Vec<Way>,
    /// Per-set dead-on-arrival score (all zeros under Lru).
    scores: Vec<i8>,
    /// Per-ASID way window for fills/reservations (MIG-style static
    /// partitioning). Lookups still search the whole set.
    way_partition: Option<Vec<std::ops::Range<usize>>>,
    /// Opt-in sub-entry sharing: identically-mapped `(vpn, pfn)` pairs
    /// across ASIDs collapse onto one way.
    sub_entry_sharing: bool,
    tick: u64,
    pending_count: usize,
    stats: TlbStats,
}

impl Tlb {
    /// Builds a TLB from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent (see [`TlbConfig`]).
    pub fn new(cfg: TlbConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        let scores = vec![0i8; cfg.num_sets()];
        Self {
            keys: vec![Vpn::new(0); cfg.entries],
            stamps: vec![INVALID; cfg.entries],
            ways: vec![Way::pending(Asid::ZERO); cfg.entries],
            cfg,
            scores,
            way_partition: None,
            sub_entry_sharing: false,
            tick: 0,
            pending_count: 0,
            stats: TlbStats::default(),
        }
    }

    /// The TLB's configuration.
    pub fn config(&self) -> &TlbConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Number of entries currently repurposed as In-TLB MSHRs.
    pub fn pending_entries(&self) -> usize {
        self.pending_count
    }

    /// Restricts each ASID's fills and pending reservations to a window
    /// of ways: `partition[asid] = (first_way, ways)`. Lookups and
    /// shootdowns still search the whole set, so the partition only
    /// shapes *capacity*, never correctness. ASIDs beyond the partition
    /// table fall back to the full set.
    ///
    /// # Panics
    ///
    /// Panics if any window is empty or exceeds the associativity.
    pub fn set_way_partition(&mut self, partition: Vec<(usize, usize)>) {
        let ranges: Vec<std::ops::Range<usize>> = partition
            .into_iter()
            .map(|(first, ways)| {
                assert!(ways > 0, "empty way window");
                assert!(
                    first + ways <= self.cfg.assoc,
                    "way window {first}+{ways} exceeds associativity {}",
                    self.cfg.assoc
                );
                first..first + ways
            })
            .collect();
        self.way_partition = Some(ranges);
    }

    /// Enables sub-entry sharing: a fill whose `(vpn, pfn)` pair already
    /// sits valid in the set under another ASID joins that entry's
    /// sharer bitmask instead of consuming a way.
    pub fn set_sub_entry_sharing(&mut self, on: bool) {
        self.sub_entry_sharing = on;
    }

    /// The ways `asid` may claim for fills and pending reservations.
    fn way_window(&self, asid: Asid) -> std::ops::Range<usize> {
        self.way_partition
            .as_ref()
            .and_then(|p| p.get(asid.index()).cloned())
            .unwrap_or(0..self.cfg.assoc)
    }

    fn set_of(&self, vpn: Vpn) -> usize {
        (vpn.value() as usize) & (self.scores.len() - 1)
    }

    /// The flat indices of `vpn`'s set.
    fn ways_of(&self, vpn: Vpn) -> std::ops::Range<usize> {
        let base = self.set_of(vpn) * self.cfg.assoc;
        base..base + self.cfg.assoc
    }

    /// Looks up a translation, updating statistics and LRU state.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<Pfn> {
        match self.lookup_or_pending(asid, vpn) {
            TagLookup::Hit(pfn) => Some(pfn),
            TagLookup::Pending | TagLookup::Miss => None,
        }
    }

    /// [`Tlb::lookup`] that also reports, on a miss, whether a pending
    /// way holds the tag (what [`Tlb::has_pending`] answers), from the
    /// same pass over the set.
    pub fn lookup_or_pending(&mut self, asid: Asid, vpn: Vpn) -> TagLookup {
        self.tick += 1;
        let mut pending = false;
        for i in tagged(&self.keys, self.ways_of(vpn), vpn) {
            let stamp = self.stamps[i];
            if stamp == PENDING {
                pending |= self.ways[i].asid == asid;
            } else if stamp != INVALID && self.ways[i].serves(asid) {
                self.stamps[i] = self.tick;
                let w = &mut self.ways[i];
                if w.prefetched && !w.touched {
                    self.stats.prefetch_hits += 1;
                }
                w.touched = true;
                // A hit disproves the dead-on-arrival prediction.
                w.dead = false;
                self.stats.hits += 1;
                return TagLookup::Hit(w.pfn);
            }
        }
        self.stats.misses += 1;
        if pending {
            TagLookup::Pending
        } else {
            TagLookup::Miss
        }
    }

    /// Non-destructive probe: no statistics, LRU, or reuse-flag update.
    pub fn probe(&self, asid: Asid, vpn: Vpn) -> Option<Pfn> {
        tagged(&self.keys, self.ways_of(vpn), vpn)
            .find(|&i| is_valid(self.stamps[i]) && self.ways[i].serves(asid))
            .map(|i| self.ways[i].pfn)
    }

    /// Installs a demand translation. Victim preference: an entry already
    /// holding this `(asid, vpn)` tag, then an invalid way, then the
    /// policy victim among *valid* ways (both restricted to the ASID's
    /// way window when a partition is set). Pending ways are never
    /// displaced by ordinary fills; if no way is available the fill is
    /// dropped (the translation was still delivered to its requesters)
    /// and `false` is returned.
    ///
    /// If the set holds a tag-matching *pending* way the fill is also
    /// dropped: that pending walk owns the install for this tag (its
    /// [`Tlb::clear_pending_and_fill`] converts the reserved way), and
    /// installing here would leave two same-tag entries in the set. The
    /// requesters of the racing fill already received their translation,
    /// so dropping loses nothing but a few cycles of caching.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn) -> bool {
        self.fill_inner(asid, vpn, pfn, false)
    }

    /// Installs a prefetched translation: same placement rules as
    /// [`Tlb::fill`], but the entry is tagged so an unused prefetch is
    /// preferentially evicted and its fate (hit vs. wasted) is counted.
    /// A dropped install counts as a prefetch eviction immediately. The
    /// ASID is the *issuing tenant's*: a prefetch can only ever install
    /// into (and later be evicted from) its own tenant's tag space.
    pub fn fill_prefetched(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn) -> bool {
        self.fill_inner(asid, vpn, pfn, true)
    }

    fn fill_inner(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn, prefetched: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let scan = self.scan_tag(asid, vpn, Some(pfn), false);

        if scan.pending {
            // Duplicate-tag hazard: an In-TLB-tracked walk for this tag
            // owns the install. Drop the racing fill (see doc above).
            if prefetched {
                self.stats.prefetch_evictions += 1;
            }
            return false;
        }

        let mut owned = scan.owned[0];
        if self.sub_entry_sharing {
            if let Some(i) = scan.same_map {
                // An identically-mapped entry already sits in the set:
                // join it instead of consuming a way.
                self.stats.fills += 1;
                if !self.ways[i].serves(asid) {
                    self.stats.shared_joins += 1;
                }
                self.join(i, asid, scan.serving, tick);
                if prefetched {
                    // The entry was already resident: nothing carries
                    // the prefetch tag, so the prefetch is wasted.
                    self.stats.prefetch_evictions += 1;
                }
                return true;
            }
            // A differently-mapped entry may still carry our sharer bit
            // (stale after a remap): detach before installing a private
            // copy, so the set never holds two entries serving this tag.
            if let Some(d) = scan.serving {
                owned = self.detach(d, asid, &scan, false);
            }
        }

        let way = match owned {
            Some(i) => {
                // In-place overwrite. If the old copy was an unused
                // prefetch it never got its hit: account it as wasted.
                self.note_departure(i, false);
                Some(i)
            }
            None => self.placement(vpn, asid),
        };
        let Some(i) = way else {
            if prefetched {
                self.stats.prefetch_evictions += 1;
            }
            return false;
        };
        let dead = self.predict_dead(self.set_of(vpn));
        self.keys[i] = vpn;
        self.stamps[i] = tick;
        self.ways[i] = Way {
            pfn,
            asid,
            shared: 0,
            prefetched,
            touched: false,
            dead,
        };
        if dead {
            self.stats.dead_fills += 1;
        }
        self.stats.fills += 1;
        true
    }

    /// Joins `asid` onto valid way `i`, which maps the install's tag to
    /// the same PFN (sharing mode). `serving`, the way that served `asid`
    /// under the tag until now, is detached first if it is another way (a
    /// stale mapping after a remap), so the set never holds two ways
    /// serving the tag.
    fn join(&mut self, i: usize, asid: Asid, serving: Option<usize>, tick: u64) {
        if let Some(d) = serving.filter(|&d| d != i) {
            self.drop_claim(d, asid);
        }
        let w = &mut self.ways[i];
        if w.asid != asid {
            w.shared |= asid_bit(asid);
        }
        self.stamps[i] = tick;
    }

    /// One pass over `vpn`'s set keys for an install by `asid` (see
    /// [`TagScan`]). `pfn` asks for the same-map way; `unshared` limits
    /// the owned ways to those without sharers.
    fn scan_tag(&self, asid: Asid, vpn: Vpn, pfn: Option<Pfn>, unshared: bool) -> TagScan {
        let mut scan = TagScan::default();
        let mut owned = 0;
        for i in tagged(&self.keys, self.ways_of(vpn), vpn) {
            let stamp = self.stamps[i];
            let w = &self.ways[i];
            if stamp == PENDING {
                scan.pending |= w.asid == asid;
                continue;
            }
            if stamp == INVALID {
                continue;
            }
            if owned < 2 && w.asid == asid && (!unshared || w.shared == 0) {
                scan.owned[owned] = Some(i);
                owned += 1;
            }
            if scan.serving.is_none() && w.serves(asid) {
                scan.serving = Some(i);
            }
            if scan.same_map.is_none() && Some(w.pfn) == pfn {
                scan.same_map = Some(i);
            }
        }
        scan
    }

    /// Detaches `asid` from way `d`, the first valid way serving it (see
    /// [`Tlb::drop_claim`]), and returns the first way `asid` owns under
    /// the scanned tag afterwards. Only `d` changed, and it precedes every
    /// owned way (an owned way serves its owner), so `d` is that way if it
    /// still qualifies, else the scan's answer stands, moved to its
    /// second owned way if the first was `d`.
    fn detach(&mut self, d: usize, asid: Asid, scan: &TagScan, unshared: bool) -> Option<usize> {
        self.drop_claim(d, asid);
        let w = &self.ways[d];
        if is_valid(self.stamps[d]) && w.asid == asid && (!unshared || w.shared == 0) {
            Some(d)
        } else if scan.owned[0] == Some(d) {
            scan.owned[1]
        } else {
            scan.owned[0]
        }
    }

    /// Removes `asid`'s claim on valid way `i` without disturbing other
    /// sharers: a sharer bit is cleared, an owner with sharers hands the
    /// entry to its lowest sharer, a sole owner's entry is dropped.
    fn drop_claim(&mut self, i: usize, asid: Asid) {
        let w = &mut self.ways[i];
        if w.asid != asid {
            w.shared &= !asid_bit(asid);
        } else if w.shared != 0 {
            let heir = w.shared.trailing_zeros() as u16;
            w.shared &= !(1 << heir);
            w.asid = Asid::new(heir);
        } else {
            self.note_departure(i, false);
            self.stamps[i] = INVALID;
        }
    }

    /// The way an install takes when no way holds its tag: the first
    /// invalid way in `asid`'s window, else the policy victim among the
    /// window's valid ways (evicted here, and counted). Pending ways are
    /// never displaced, and a partitioned ASID never evicts outside its
    /// window. One pass over the window's stamps: under DeadBlock it also
    /// tracks the least recently used way of each preference class,
    /// (1) dead unused prefetches and (2) any predicted-dead entry.
    fn placement(&mut self, vpn: Vpn, asid: Asid) -> Option<usize> {
        let window = self.way_window(asid);
        let base = self.set_of(vpn) * self.cfg.assoc;
        let candidates = base + window.start..base + window.end;
        // `(stamp, way)` of the argmin so far; a pending stamp never wins.
        let mut lru = (PENDING, 0);
        let mut dead_prefetch = (PENDING, 0);
        let mut dead = (PENDING, 0);
        if self.cfg.repl == ReplPolicy::DeadBlock {
            for i in candidates {
                let stamp = self.stamps[i];
                if stamp < lru.0 {
                    lru = (stamp, i);
                }
                if !is_valid(stamp) || !self.ways[i].dead {
                    continue;
                }
                if stamp < dead.0 {
                    dead = (stamp, i);
                }
                let w = &self.ways[i];
                if w.prefetched && !w.touched && stamp < dead_prefetch.0 {
                    dead_prefetch = (stamp, i);
                }
            }
        } else {
            // Selects rather than branches: which way holds the least
            // stamp so far is as good as random, so a branch on it would
            // mispredict every few ways.
            let mut at = 0;
            for (w, &stamp) in self.stamps[candidates.clone()].iter().enumerate() {
                let less = stamp < lru.0;
                lru.0 = if less { stamp } else { lru.0 };
                at = if less { w } else { at };
            }
            lru.1 = candidates.start + at;
        }
        if lru.0 == INVALID {
            return Some(lru.1);
        }
        let (stamp, victim) = [dead_prefetch, dead, lru]
            .into_iter()
            .find(|&(stamp, _)| stamp != PENDING)?;
        debug_assert!(is_valid(stamp));
        self.stats.evictions += 1;
        self.note_departure(victim, true);
        Some(victim)
    }

    /// Reserves a victim entry in `vpn`'s set as an In-TLB MSHR (Figure 13
    /// steps 2-3). Victim preference: a valid way already holding this
    /// exact tag (reusing it keeps the set free of duplicate tags and is
    /// not pollution — no other warp loses its translation), then an
    /// invalid way, then the policy victim among valid ways (evicting its
    /// translation); the latter two restricted to the ASID's way window
    /// when a partition is set. Fails if every candidate way is already
    /// pending — the per-set bottleneck that limits spmv in the paper's
    /// Figure 24 discussion.
    pub fn reserve_pending(&mut self, asid: Asid, vpn: Vpn) -> bool {
        // A reservation consumes a tick like every install, so the stamps
        // later fills draw keep their order.
        self.tick += 1;
        let scan = self.scan_tag(asid, vpn, None, true);
        let mut owned = scan.owned[0];
        if self.sub_entry_sharing {
            // A shared entry cannot be converted into a (single-ASID)
            // pending way without robbing the other sharers: detach our
            // claim and reserve a fresh way instead.
            if let Some(d) = scan.serving {
                owned = self.detach(d, asid, &scan, true);
            }
        }
        let way = match owned {
            Some(i) => {
                self.note_departure(i, false);
                Some(i)
            }
            None => self.placement(vpn, asid),
        };
        let Some(i) = way else {
            return false;
        };
        self.keys[i] = vpn;
        self.stamps[i] = PENDING;
        self.ways[i] = Way::pending(asid);
        self.pending_count += 1;
        true
    }

    /// Bookkeeping for a valid way about to be displaced: wasted-prefetch
    /// accounting always, dead-block training only when the displacement
    /// was a replacement decision (`train`) under DeadBlock.
    fn note_departure(&mut self, i: usize, train: bool) {
        if !is_valid(self.stamps[i]) {
            return;
        }
        let w = &self.ways[i];
        if w.prefetched && !w.touched {
            self.stats.prefetch_evictions += 1;
        }
        if train && self.cfg.repl == ReplPolicy::DeadBlock {
            let s = &mut self.scores[i / self.cfg.assoc];
            if w.touched {
                *s = (*s - 1).max(SCORE_MIN);
            } else {
                *s = (*s + 1).min(SCORE_MAX);
            }
        }
    }

    fn predict_dead(&self, set: usize) -> bool {
        self.cfg.repl == ReplPolicy::DeadBlock && self.scores[set] >= DEAD_THRESHOLD
    }

    /// Whether `vpn`'s set already holds a pending reservation for this
    /// exact tag (tag match — enables In-TLB MSHR merging).
    pub fn has_pending(&self, asid: Asid, vpn: Vpn) -> bool {
        tagged(&self.keys, self.ways_of(vpn), vpn)
            .any(|i| self.stamps[i] == PENDING && self.ways[i].asid == asid)
    }

    /// Completes an In-TLB-tracked miss (Figure 13 steps 4-6): clears the
    /// pending bit of every tag-matching way and installs the translation
    /// into one of them (or, in sharing mode, onto an identically-mapped
    /// entry of another ASID). Returns the number of pending ways cleared.
    pub fn clear_pending_and_fill(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn) -> usize {
        self.clear_pending_fill_inner(asid, vpn, pfn, false)
    }

    /// [`Tlb::clear_pending_and_fill`] for a prefetch-initiated walk: the
    /// installed translation carries the prefetch tag.
    pub fn clear_pending_and_fill_prefetched(&mut self, asid: Asid, vpn: Vpn, pfn: Pfn) -> usize {
        self.clear_pending_fill_inner(asid, vpn, pfn, true)
    }

    fn clear_pending_fill_inner(
        &mut self,
        asid: Asid,
        vpn: Vpn,
        pfn: Pfn,
        prefetched: bool,
    ) -> usize {
        self.tick += 1;
        let tick = self.tick;
        // One pass frees every tag-matching pending way, remembering the
        // first, and finds the identically-mapped way a sharing-mode
        // result joins (and the way serving `asid` it replaces); without
        // one, the first freed way takes the translation afterwards.
        let mut first = None;
        let mut join = None;
        let mut serving = None;
        let mut cleared = 0;
        for i in tagged(&self.keys, self.ways_of(vpn), vpn) {
            let stamp = self.stamps[i];
            if stamp == PENDING && self.ways[i].asid == asid {
                self.stamps[i] = INVALID;
                first = first.or(Some(i));
                cleared += 1;
            } else if self.sub_entry_sharing && is_valid(stamp) {
                let w = &self.ways[i];
                if join.is_none() && w.pfn == pfn {
                    join = Some(i);
                }
                if serving.is_none() && w.serves(asid) {
                    serving = Some(i);
                }
            }
        }
        if let Some(i) = join {
            // The walk's result is already resident under another ASID:
            // join that entry; every pending way is already free.
            self.join(i, asid, serving, tick);
            if cleared > 0 {
                self.stats.fills += 1;
                self.stats.shared_joins += 1;
            }
        } else if let Some(i) = first {
            let dead = self.predict_dead(self.set_of(vpn));
            self.stamps[i] = tick;
            self.ways[i] = Way {
                pfn,
                asid,
                shared: 0,
                prefetched,
                touched: false,
                dead,
            };
            if dead {
                self.stats.dead_fills += 1;
            }
            self.stats.fills += 1;
        }
        if prefetched && (cleared == 0 || join.is_some()) {
            // Nothing carries the prefetch tag: the reservation vanished
            // (e.g. flushed) before the prefetch completed, or the result
            // joined an entry already resident. The prefetch is wasted.
            self.stats.prefetch_evictions += 1;
        }
        self.pending_count -= cleared;
        cleared
    }

    /// Aborts an In-TLB-tracked miss without installing a translation
    /// (page-fault path): every tag-matching pending way is invalidated.
    /// Returns the number of ways cleared.
    pub fn clear_pending(&mut self, asid: Asid, vpn: Vpn) -> usize {
        let mut cleared = 0;
        for i in tagged(&self.keys, self.ways_of(vpn), vpn) {
            if self.stamps[i] == PENDING && self.ways[i].asid == asid {
                self.stamps[i] = INVALID;
                cleared += 1;
            }
        }
        self.pending_count -= cleared;
        cleared
    }

    /// Invalidates every valid translation for one `(asid, vpn)` tag
    /// (single-page TLB shootdown — the memory manager's eviction path).
    /// Another tenant's identical VPN is untouched by construction: the
    /// tag includes the ASID, and a shared entry merely loses this
    /// tenant's sub-entry claim (the mapping stays valid for its other
    /// sharers). Pending (In-TLB MSHR) ways are left alone: their
    /// in-flight walk will observe the updated page table and complete or
    /// fault on its own. Returns the number of valid claims dropped; a
    /// correct shootdown must leave zero stale copies behind, so every
    /// tag match goes.
    pub fn invalidate(&mut self, asid: Asid, vpn: Vpn) -> usize {
        let mut dropped = 0;
        for i in self.ways_of(vpn) {
            if self.keys[i] == vpn && is_valid(self.stamps[i]) && self.ways[i].serves(asid) {
                self.drop_claim(i, asid);
                dropped += 1;
            }
        }
        dropped
    }

    /// Invalidates every claim one ASID holds anywhere in the array —
    /// valid entries, sub-entry shares, *and* its pending reservations —
    /// for tenant teardown. Other tenants' entries (including shared
    /// entries they co-own) survive untouched, as does the dead-block
    /// sampler: the remaining tenants' reuse history is still valid.
    /// Returns the number of valid claims dropped.
    pub fn flush_asid(&mut self, asid: Asid) -> usize {
        let mut dropped = 0;
        for i in 0..self.stamps.len() {
            let stamp = self.stamps[i];
            if stamp == PENDING {
                if self.ways[i].asid == asid {
                    self.stamps[i] = INVALID;
                    self.pending_count -= 1;
                }
            } else if stamp != INVALID && self.ways[i].serves(asid) {
                self.drop_claim(i, asid);
                dropped += 1;
            }
        }
        dropped
    }

    /// Invalidates every entry (full TLB shootdown). Resets the
    /// dead-block sampler: reuse history does not survive a full flush.
    pub fn flush(&mut self) {
        for i in 0..self.stamps.len() {
            self.note_departure(i, false);
            self.stamps[i] = INVALID;
        }
        self.scores.fill(0);
        self.pending_count = 0;
    }

    /// Number of valid translations currently cached (shared entries
    /// count once, regardless of how many ASIDs they serve).
    pub fn valid_entries(&self) -> usize {
        self.stamps.iter().filter(|&&s| is_valid(s)).count()
    }

    /// Number of prefetched translations still awaiting their first
    /// demand hit (the resident leg of the prefetch in-flight count).
    pub fn prefetched_resident(&self) -> usize {
        self.stamps
            .iter()
            .zip(&self.ways)
            .filter(|&(&s, w)| is_valid(s) && w.prefetched && !w.touched)
            .count()
    }

    /// `(valid, pending)` tag-matching way counts for `(asid, vpn)` — the
    /// observable form of the set-uniqueness invariant: `valid <= 1`, and
    /// `valid` and `pending` never both nonzero (pending ways for one tag
    /// may number more than one: In-TLB MSHR merging).
    pub fn tag_population(&self, asid: Asid, vpn: Vpn) -> (usize, usize) {
        let mut valid = 0;
        let mut pending = 0;
        for i in tagged(&self.keys, self.ways_of(vpn), vpn) {
            let (stamp, w) = (self.stamps[i], &self.ways[i]);
            if stamp == PENDING && w.asid == asid {
                pending += 1;
            } else if is_valid(stamp) && w.serves(asid) {
                valid += 1;
            }
        }
        (valid, pending)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Asid = Asid::ZERO;
    const B: Asid = Asid(1);

    fn tiny() -> Tlb {
        // 2 sets x 2 ways.
        Tlb::new(TlbConfig {
            name: "tiny".into(),
            entries: 4,
            assoc: 2,
            repl: ReplPolicy::Lru,
        })
    }

    fn tiny_dead() -> Tlb {
        Tlb::new(TlbConfig {
            name: "tiny".into(),
            entries: 4,
            assoc: 2,
            repl: ReplPolicy::DeadBlock,
        })
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = tiny();
        assert_eq!(t.lookup(A, Vpn::new(8)), None);
        t.fill(A, Vpn::new(8), Pfn::new(3));
        assert_eq!(t.lookup(A, Vpn::new(8)), Some(Pfn::new(3)));
        let s = t.stats();
        assert_eq!((s.hits, s.misses, s.fills), (1, 1, 1));
    }

    #[test]
    fn probe_does_not_touch_stats() {
        let mut t = tiny();
        t.fill(A, Vpn::new(1), Pfn::new(1));
        assert_eq!(t.probe(A, Vpn::new(1)), Some(Pfn::new(1)));
        assert_eq!(t.probe(A, Vpn::new(9)), None);
        assert_eq!(t.stats().hits + t.stats().misses, 0);
    }

    #[test]
    fn lru_eviction_in_set() {
        let mut t = tiny();
        // VPNs 0, 2, 4 all map to set 0 (2 sets).
        t.fill(A, Vpn::new(0), Pfn::new(10));
        t.fill(A, Vpn::new(2), Pfn::new(12));
        t.lookup(A, Vpn::new(0)); // refresh 0; 2 is LRU
        t.fill(A, Vpn::new(4), Pfn::new(14));
        assert_eq!(t.probe(A, Vpn::new(0)), Some(Pfn::new(10)));
        assert_eq!(t.probe(A, Vpn::new(2)), None, "LRU way evicted");
        assert_eq!(t.stats().evictions, 1);
    }

    #[test]
    fn refill_same_vpn_updates_in_place() {
        let mut t = tiny();
        t.fill(A, Vpn::new(6), Pfn::new(1));
        t.fill(A, Vpn::new(6), Pfn::new(2));
        assert_eq!(t.probe(A, Vpn::new(6)), Some(Pfn::new(2)));
        assert_eq!(t.valid_entries(), 1);
        assert_eq!(t.stats().evictions, 0);
    }

    #[test]
    fn pending_reservation_survives_fills() {
        let mut t = tiny();
        assert!(t.reserve_pending(A, Vpn::new(0)));
        assert!(t.has_pending(A, Vpn::new(0)));
        assert_eq!(t.pending_entries(), 1);
        // Fill two other lines into set 0 — only one non-pending way left,
        // so the second fill evicts the first; the pending way is untouched.
        t.fill(A, Vpn::new(2), Pfn::new(1));
        t.fill(A, Vpn::new(4), Pfn::new(2));
        assert!(t.has_pending(A, Vpn::new(0)));
        assert_eq!(t.probe(A, Vpn::new(4)), Some(Pfn::new(2)));
        assert_eq!(t.probe(A, Vpn::new(2)), None);
    }

    #[test]
    fn fill_fails_when_all_ways_pending() {
        let mut t = tiny();
        assert!(t.reserve_pending(A, Vpn::new(0)));
        assert!(t.reserve_pending(A, Vpn::new(2)));
        assert!(!t.fill(A, Vpn::new(4), Pfn::new(9)), "no way available");
        assert!(!t.reserve_pending(A, Vpn::new(6)), "set exhausted");
    }

    #[test]
    fn lookup_or_pending_answers_lookup_and_has_pending_at_once() {
        let mut t = tiny();
        t.fill(A, Vpn::new(2), Pfn::new(5));
        t.reserve_pending(A, Vpn::new(0));
        assert_eq!(
            t.lookup_or_pending(A, Vpn::new(2)),
            TagLookup::Hit(Pfn::new(5))
        );
        assert_eq!(t.lookup_or_pending(A, Vpn::new(0)), TagLookup::Pending);
        assert_eq!(
            t.lookup_or_pending(B, Vpn::new(0)),
            TagLookup::Miss,
            "tag is per ASID"
        );
        assert_eq!(t.lookup_or_pending(A, Vpn::new(4)), TagLookup::Miss);
        let s = t.stats();
        assert_eq!((s.hits, s.misses), (1, 3), "counted like lookup");
    }

    #[test]
    fn pending_lookup_is_a_miss() {
        let mut t = tiny();
        t.reserve_pending(A, Vpn::new(0));
        assert_eq!(t.lookup(A, Vpn::new(0)), None, "pending entries do not hit");
    }

    #[test]
    fn clear_pending_resolves_all_matching_ways() {
        let mut t = tiny();
        assert!(t.reserve_pending(A, Vpn::new(0)));
        assert!(
            t.reserve_pending(A, Vpn::new(0)),
            "tag-matching merge allowed"
        );
        assert_eq!(t.pending_entries(), 2);
        let cleared = t.clear_pending_and_fill(A, Vpn::new(0), Pfn::new(77));
        assert_eq!(cleared, 2);
        assert_eq!(t.pending_entries(), 0);
        assert_eq!(t.probe(A, Vpn::new(0)), Some(Pfn::new(77)));
        // Exactly one way holds the translation; the other was freed.
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn reserving_evicts_valid_translation() {
        let mut t = tiny();
        t.fill(A, Vpn::new(0), Pfn::new(1));
        t.fill(A, Vpn::new(2), Pfn::new(2));
        assert!(t.reserve_pending(A, Vpn::new(4)));
        assert_eq!(t.stats().evictions, 1, "pollution is real");
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn fill_drops_on_tag_matching_pending_way() {
        let mut t = tiny();
        assert!(t.reserve_pending(A, Vpn::new(0)));
        // A racing demand fill for the same tag must not install a second
        // entry next to the pending way: the pending walk owns the
        // install.
        assert!(!t.fill(A, Vpn::new(0), Pfn::new(7)), "racing fill dropped");
        assert_eq!(t.probe(A, Vpn::new(0)), None);
        assert!(t.has_pending(A, Vpn::new(0)));
        assert_eq!(t.tag_population(A, Vpn::new(0)), (0, 1));
        // The pending walk later installs exactly one copy.
        assert_eq!(t.clear_pending_and_fill(A, Vpn::new(0), Pfn::new(7)), 1);
        assert_eq!(t.tag_population(A, Vpn::new(0)), (1, 0));
        assert_eq!(t.probe(A, Vpn::new(0)), Some(Pfn::new(7)));
    }

    #[test]
    fn reserve_prefers_its_own_valid_way() {
        let mut t = tiny();
        t.fill(A, Vpn::new(0), Pfn::new(1));
        t.fill(A, Vpn::new(2), Pfn::new(2));
        assert!(t.reserve_pending(A, Vpn::new(0)));
        assert_eq!(t.stats().evictions, 0, "own way is not pollution");
        assert_eq!(
            t.probe(A, Vpn::new(2)),
            Some(Pfn::new(2)),
            "neighbour lives"
        );
        assert_eq!(t.tag_population(A, Vpn::new(0)), (0, 1));
        assert_eq!(t.clear_pending_and_fill(A, Vpn::new(0), Pfn::new(9)), 1);
        assert_eq!(t.tag_population(A, Vpn::new(0)), (1, 0));
    }

    #[test]
    fn invalidate_targets_one_vpn_and_spares_pending() {
        let mut t = tiny();
        // Even VPNs share set 0; the pending way goes to set 1 so the
        // reservation does not evict a valid entry first.
        t.fill(A, Vpn::new(0), Pfn::new(1));
        t.fill(A, Vpn::new(2), Pfn::new(2));
        t.reserve_pending(A, Vpn::new(5));
        assert_eq!(t.invalidate(A, Vpn::new(0)), 1);
        assert_eq!(t.invalidate(A, Vpn::new(0)), 0, "already gone");
        assert_eq!(t.invalidate(A, Vpn::new(5)), 0, "pending ways are spared");
        assert_eq!(t.probe(A, Vpn::new(0)), None);
        assert_eq!(t.probe(A, Vpn::new(2)), Some(Pfn::new(2)));
        assert_eq!(t.pending_entries(), 1);
        assert_eq!(t.stats().evictions, 0, "shootdown is not an eviction");
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = tiny();
        t.fill(A, Vpn::new(0), Pfn::new(1));
        t.reserve_pending(A, Vpn::new(2));
        t.flush();
        assert_eq!(t.valid_entries(), 0);
        assert_eq!(t.pending_entries(), 0);
    }

    #[test]
    fn hit_rate() {
        let mut t = tiny();
        t.fill(A, Vpn::new(0), Pfn::new(1));
        t.lookup(A, Vpn::new(0));
        t.lookup(A, Vpn::new(2));
        assert!((t.stats().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dead_block_predictor_learns_from_zero_reuse() {
        let mut t = tiny_dead();
        // A never-reused fill stream through set 0: every eviction of an
        // untouched victim raises the set's death score until new fills
        // arrive predicted dead.
        for i in 0..8 {
            t.fill(A, Vpn::new(2 * i), Pfn::new(i));
        }
        assert!(t.stats().dead_fills > 0, "predictor must engage");
        // Under Lru the same stream never marks a fill dead.
        let mut l = tiny();
        for i in 0..8 {
            l.fill(A, Vpn::new(2 * i), Pfn::new(i));
        }
        assert_eq!(l.stats().dead_fills, 0);
    }

    #[test]
    fn dead_entries_are_evicted_before_live_ones() {
        let mut t = tiny_dead();
        // Train: vpn0/vpn2 fill the ways, vpn4/vpn6 evict them untouched
        // (score reaches 2, so vpn6 installs predicted-dead).
        for i in 0..4 {
            t.fill(A, Vpn::new(2 * i), Pfn::new(i));
        }
        assert_eq!(t.probe(A, Vpn::new(4)), Some(Pfn::new(2)));
        assert_eq!(t.probe(A, Vpn::new(6)), Some(Pfn::new(3)));
        // vpn4 (older, not predicted dead) would be the LRU victim, but
        // DeadBlock sacrifices the predicted-dead vpn6 instead.
        t.fill(A, Vpn::new(8), Pfn::new(9));
        assert_eq!(t.probe(A, Vpn::new(4)), Some(Pfn::new(2)), "live protected");
        assert_eq!(t.probe(A, Vpn::new(6)), None, "dead evicted first");
    }

    #[test]
    fn touched_victims_cool_the_predictor() {
        let mut t = tiny_dead();
        // Every victim is touched before eviction: the score only falls,
        // so no fill is ever predicted dead.
        for i in 0..8 {
            t.fill(A, Vpn::new(2 * i), Pfn::new(i));
            t.lookup(A, Vpn::new(2 * i));
        }
        assert_eq!(t.stats().dead_fills, 0);
    }

    #[test]
    fn prefetch_tagging_counts_hits_and_evictions() {
        let mut t = tiny();
        t.fill_prefetched(A, Vpn::new(0), Pfn::new(1));
        t.fill_prefetched(A, Vpn::new(2), Pfn::new(2));
        assert_eq!(t.prefetched_resident(), 2);
        assert_eq!(t.lookup(A, Vpn::new(0)), Some(Pfn::new(1)));
        assert_eq!(t.stats().prefetch_hits, 1);
        assert_eq!(t.prefetched_resident(), 1);
        t.lookup(A, Vpn::new(0));
        assert_eq!(t.stats().prefetch_hits, 1, "useful counted once");
        // vpn2 is LRU and still untouched: evicting it wastes the prefetch.
        t.fill(A, Vpn::new(4), Pfn::new(3));
        assert_eq!(t.stats().prefetch_evictions, 1);
        assert_eq!(t.prefetched_resident(), 0);
    }

    #[test]
    fn prefetched_dead_entries_are_first_victims() {
        let mut t = tiny_dead();
        for i in 0..4 {
            t.fill(A, Vpn::new(2 * i), Pfn::new(i));
        }
        // Score is 2: the prefetch installs predicted-dead (evicting the
        // dead vpn6), then the next demand fill sacrifices the unused
        // prefetch before any demand entry.
        t.fill_prefetched(A, Vpn::new(8), Pfn::new(9));
        assert_eq!(t.probe(A, Vpn::new(8)), Some(Pfn::new(9)));
        t.fill(A, Vpn::new(10), Pfn::new(11));
        assert_eq!(t.probe(A, Vpn::new(8)), None, "unused prefetch went first");
        assert_eq!(
            t.probe(A, Vpn::new(4)),
            Some(Pfn::new(2)),
            "demand survives"
        );
        assert_eq!(t.stats().prefetch_evictions, 1);
    }

    #[test]
    fn invalidate_counts_wasted_prefetches() {
        let mut t = tiny();
        t.fill_prefetched(A, Vpn::new(0), Pfn::new(1));
        assert_eq!(t.invalidate(A, Vpn::new(0)), 1);
        assert_eq!(t.stats().prefetch_evictions, 1);
        // A touched prefetch already counted as useful: not wasted.
        t.fill_prefetched(A, Vpn::new(2), Pfn::new(2));
        t.lookup(A, Vpn::new(2));
        assert_eq!(t.invalidate(A, Vpn::new(2)), 1);
        assert_eq!(t.stats().prefetch_evictions, 1);
        assert_eq!(t.stats().prefetch_hits, 1);
    }

    #[test]
    fn asids_are_distinct_tags() {
        let mut t = tiny();
        t.fill(A, Vpn::new(0), Pfn::new(10));
        t.fill(B, Vpn::new(0), Pfn::new(20));
        // Same VPN, two tenants, two ways, two different translations.
        assert_eq!(t.lookup(A, Vpn::new(0)), Some(Pfn::new(10)));
        assert_eq!(t.lookup(B, Vpn::new(0)), Some(Pfn::new(20)));
        assert_eq!(t.valid_entries(), 2);
    }

    #[test]
    fn invalidate_is_asid_scoped() {
        let mut t = tiny();
        t.fill(A, Vpn::new(0), Pfn::new(10));
        t.fill(B, Vpn::new(0), Pfn::new(20));
        assert_eq!(t.invalidate(A, Vpn::new(0)), 1);
        assert_eq!(t.probe(A, Vpn::new(0)), None, "A's copy gone");
        assert_eq!(t.probe(B, Vpn::new(0)), Some(Pfn::new(20)), "B untouched");
    }

    #[test]
    fn flush_asid_drops_only_one_tenant() {
        let mut t = tiny();
        // Set 0: A and B each hold a valid way. Set 1: one pending
        // reservation per tenant.
        t.fill(A, Vpn::new(0), Pfn::new(10));
        t.fill(B, Vpn::new(2), Pfn::new(22));
        t.reserve_pending(A, Vpn::new(3));
        t.reserve_pending(B, Vpn::new(5));
        assert_eq!(t.flush_asid(A), 1);
        assert_eq!(t.probe(A, Vpn::new(0)), None);
        assert!(!t.has_pending(A, Vpn::new(3)), "A's reservation torn down");
        assert_eq!(t.probe(B, Vpn::new(2)), Some(Pfn::new(22)));
        assert!(t.has_pending(B, Vpn::new(5)), "B's reservation survives");
        assert_eq!(t.pending_entries(), 1);
    }

    #[test]
    fn pending_merge_requires_matching_asid() {
        let mut t = tiny();
        assert!(t.reserve_pending(A, Vpn::new(0)));
        assert!(!t.has_pending(B, Vpn::new(0)), "other tenant sees no merge");
        // B's racing fill for the same VPN is *not* dropped by A's
        // pending way: the tags differ.
        assert!(t.fill(B, Vpn::new(0), Pfn::new(7)));
        assert_eq!(t.probe(B, Vpn::new(0)), Some(Pfn::new(7)));
        assert_eq!(t.tag_population(A, Vpn::new(0)), (0, 1));
        assert_eq!(t.tag_population(B, Vpn::new(0)), (1, 0));
    }

    #[test]
    fn prefetch_installs_only_into_issuing_tenants_tag_space() {
        let mut t = tiny();
        t.fill_prefetched(B, Vpn::new(0), Pfn::new(9));
        assert_eq!(t.probe(A, Vpn::new(0)), None, "A never sees B's prefetch");
        assert_eq!(t.probe(B, Vpn::new(0)), Some(Pfn::new(9)));
        // And A invalidating its (nonexistent) copy leaves B's intact.
        assert_eq!(t.invalidate(A, Vpn::new(0)), 0);
        assert_eq!(t.probe(B, Vpn::new(0)), Some(Pfn::new(9)));
    }

    #[test]
    fn way_partition_confines_evictions() {
        let mut t = tiny();
        // Way 0 belongs to tenant A, way 1 to tenant B (in every set).
        t.set_way_partition(vec![(0, 1), (1, 1)]);
        t.fill(A, Vpn::new(0), Pfn::new(1));
        t.fill(B, Vpn::new(2), Pfn::new(2));
        // A second fill from A must evict A's own entry, never B's.
        t.fill(A, Vpn::new(4), Pfn::new(3));
        assert_eq!(t.probe(A, Vpn::new(0)), None, "A evicted its own way");
        assert_eq!(t.probe(A, Vpn::new(4)), Some(Pfn::new(3)));
        assert_eq!(t.probe(B, Vpn::new(2)), Some(Pfn::new(2)), "B untouched");
        assert_eq!(t.valid_entries(), 2);
    }

    #[test]
    fn sub_entry_sharing_joins_identical_mappings() {
        let mut t = tiny();
        t.set_sub_entry_sharing(true);
        t.fill(A, Vpn::new(0), Pfn::new(10));
        assert!(t.fill(B, Vpn::new(0), Pfn::new(10)), "join absorbed");
        assert_eq!(t.valid_entries(), 1, "one way serves both tenants");
        assert_eq!(t.stats().shared_joins, 1);
        assert_eq!(t.lookup(A, Vpn::new(0)), Some(Pfn::new(10)));
        assert_eq!(t.lookup(B, Vpn::new(0)), Some(Pfn::new(10)));
        // Invalidating one tenant's claim leaves the other's.
        assert_eq!(t.invalidate(A, Vpn::new(0)), 1);
        assert_eq!(t.probe(A, Vpn::new(0)), None);
        assert_eq!(t.probe(B, Vpn::new(0)), Some(Pfn::new(10)));
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn prefetch_joining_a_shared_entry_is_wasted() {
        // A prefetched result that joins an entry already resident under
        // another tenant installs no tagged way: it can never earn a
        // prefetch hit, so it counts as wasted at once — via a direct
        // fill and via a completed pending reservation alike.
        let mut t = tiny();
        t.set_sub_entry_sharing(true);
        t.fill(A, Vpn::new(0), Pfn::new(10));
        assert!(t.fill_prefetched(B, Vpn::new(0), Pfn::new(10)));
        t.fill(A, Vpn::new(2), Pfn::new(20));
        assert!(t.reserve_pending(B, Vpn::new(2)));
        assert_eq!(
            t.clear_pending_and_fill_prefetched(B, Vpn::new(2), Pfn::new(20)),
            1
        );
        assert_eq!(t.stats().shared_joins, 2);
        assert_eq!(t.prefetched_resident(), 0);
        assert_eq!(t.stats().prefetch_evictions, 2);
    }

    #[test]
    fn sub_entry_sharing_keeps_different_mappings_apart() {
        let mut t = tiny();
        t.set_sub_entry_sharing(true);
        t.fill(A, Vpn::new(0), Pfn::new(10));
        t.fill(B, Vpn::new(0), Pfn::new(20));
        assert_eq!(t.valid_entries(), 2, "different PFNs never merge");
        assert_eq!(t.stats().shared_joins, 0);
        assert_eq!(t.lookup(A, Vpn::new(0)), Some(Pfn::new(10)));
        assert_eq!(t.lookup(B, Vpn::new(0)), Some(Pfn::new(20)));
    }

    #[test]
    fn joining_a_remapped_tag_detaches_the_stale_way() {
        // A owns (0 -> 10), B owns (0 -> 20); A's fill of (0 -> 20) joins
        // B's way and must drop A's stale one: one way serves A's tag.
        let mut t = tiny();
        t.set_sub_entry_sharing(true);
        t.fill(A, Vpn::new(0), Pfn::new(10));
        t.fill(B, Vpn::new(0), Pfn::new(20));
        assert!(t.fill(A, Vpn::new(0), Pfn::new(20)));
        assert_eq!(t.tag_population(A, Vpn::new(0)), (1, 0));
        assert_eq!(t.lookup(A, Vpn::new(0)), Some(Pfn::new(20)));
        assert_eq!(t.invalidate(A, Vpn::new(0)), 1);
        assert_eq!(t.probe(B, Vpn::new(0)), Some(Pfn::new(20)), "B keeps it");
    }

    #[test]
    fn late_pending_result_joining_a_remapped_tag_detaches_the_stale_way() {
        // The same hazard on the In-TLB completion path: A's reservation
        // is flushed, A installs (0 -> 10) privately, and the late result
        // (0 -> 20) joins B's way.
        let mut t = tiny();
        t.set_sub_entry_sharing(true);
        t.fill(B, Vpn::new(0), Pfn::new(20));
        assert!(t.reserve_pending(A, Vpn::new(0)));
        t.flush_asid(A);
        t.fill(A, Vpn::new(0), Pfn::new(10));
        t.clear_pending_and_fill(A, Vpn::new(0), Pfn::new(20));
        assert_eq!(t.tag_population(A, Vpn::new(0)), (1, 0));
    }

    #[test]
    fn flush_asid_respects_shared_entries() {
        let mut t = tiny();
        t.set_sub_entry_sharing(true);
        t.fill(A, Vpn::new(0), Pfn::new(10));
        t.fill(B, Vpn::new(0), Pfn::new(10));
        assert_eq!(t.flush_asid(A), 1);
        assert_eq!(t.probe(B, Vpn::new(0)), Some(Pfn::new(10)), "B keeps it");
        assert_eq!(t.valid_entries(), 1);
        assert_eq!(t.flush_asid(B), 1);
        assert_eq!(t.valid_entries(), 0);
    }
}
