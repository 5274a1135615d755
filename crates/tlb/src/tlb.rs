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

use swgpu_types::{Asid, Pfn, Vpn};

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
    /// # Panics
    ///
    /// Panics on an empty TLB, entries that are not a multiple of the
    /// associativity, or a set count that is not a power of two.
    pub fn validate(&self) {
        assert!(self.entries > 0 && self.assoc > 0, "TLB cannot be empty");
        assert_eq!(
            self.entries % self.assoc,
            0,
            "entries must be a multiple of associativity"
        );
        assert!(
            self.num_sets().is_power_of_two(),
            "number of sets must be a power of two"
        );
    }
}

/// Per-TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// State of one TLB entry. `Pending` is the In-TLB MSHR state from the
/// paper's Figure 13: the entry holds metadata for an outstanding miss
/// instead of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryState {
    Invalid,
    Valid,
    Pending,
}

#[derive(Debug, Clone)]
struct Entry {
    state: EntryState,
    /// Owning address space. Pending ways are always single-ASID.
    asid: Asid,
    vpn: Vpn,
    pfn: Pfn,
    last_used: u64,
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

impl Entry {
    fn invalid() -> Self {
        Entry {
            state: EntryState::Invalid,
            asid: Asid::ZERO,
            vpn: Vpn::new(0),
            pfn: Pfn::new(0),
            last_used: 0,
            shared: 0,
            prefetched: false,
            touched: false,
            dead: false,
        }
    }

    /// Whether this entry serves `(asid, vpn)` — as owner or (in sharing
    /// mode) via its sub-entry bitmask. State is *not* checked.
    fn serves(&self, asid: Asid, vpn: Vpn) -> bool {
        self.vpn == vpn && (self.asid == asid || self.shared & asid_bit(asid) != 0)
    }
}

/// The sub-entry bitmask bit for an ASID. The mask is 16 bits wide —
/// plenty for the 2–8 tenants a multi-tenant configuration allows.
fn asid_bit(asid: Asid) -> u16 {
    1u16 << (asid.index() & 15)
}

/// Per-set dead-on-arrival sampler bounds: the score saturates in
/// `[SCORE_MIN, SCORE_MAX]` and fills are predicted dead at
/// `>= DEAD_THRESHOLD`. An untouched victim is evidence for death (+1),
/// a touched victim is evidence of reuse (-1).
const SCORE_MIN: i8 = -8;
const SCORE_MAX: i8 = 7;
const DEAD_THRESHOLD: i8 = 2;

/// A set-associative, ASID-tagged TLB with pluggable replacement.
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
    sets: Vec<Vec<Entry>>,
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
        cfg.validate();
        let sets = vec![vec![Entry::invalid(); cfg.assoc]; cfg.num_sets()];
        let scores = vec![0i8; cfg.num_sets()];
        Self {
            cfg,
            sets,
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
        (vpn.value() as usize) & (self.sets.len() - 1)
    }

    /// Looks up a translation, updating statistics and LRU state.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<Pfn> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(vpn);
        for e in &mut self.sets[set] {
            if e.state == EntryState::Valid && e.serves(asid, vpn) {
                e.last_used = tick;
                if e.prefetched && !e.touched {
                    self.stats.prefetch_hits += 1;
                }
                e.touched = true;
                // A hit disproves the dead-on-arrival prediction.
                e.dead = false;
                self.stats.hits += 1;
                return Some(e.pfn);
            }
        }
        self.stats.misses += 1;
        None
    }

    /// Non-destructive probe: no statistics, LRU, or reuse-flag update.
    pub fn probe(&self, asid: Asid, vpn: Vpn) -> Option<Pfn> {
        let set = self.set_of(vpn);
        self.sets[set]
            .iter()
            .find(|e| e.state == EntryState::Valid && e.serves(asid, vpn))
            .map(|e| e.pfn)
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
        let set = self.set_of(vpn);

        if self.sets[set]
            .iter()
            .any(|e| e.state == EntryState::Pending && e.serves(asid, vpn))
        {
            // Duplicate-tag hazard: an In-TLB-tracked walk for this tag
            // owns the install. Drop the racing fill (see doc above).
            if prefetched {
                self.stats.prefetch_evictions += 1;
            }
            return false;
        }

        if self.sub_entry_sharing {
            if let Some(i) = self.sets[set]
                .iter()
                .position(|e| e.state == EntryState::Valid && e.vpn == vpn && e.pfn == pfn)
            {
                // An identically-mapped entry already sits in the set:
                // join it instead of consuming a way.
                let joined = !self.sets[set][i].serves(asid, vpn);
                let e = &mut self.sets[set][i];
                if e.asid != asid {
                    e.shared |= asid_bit(asid);
                }
                e.last_used = tick;
                self.stats.fills += 1;
                if joined {
                    self.stats.shared_joins += 1;
                }
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
            self.detach(set, asid, vpn);
        }

        let tag_match = self.sets[set]
            .iter()
            .position(|e| e.state == EntryState::Valid && e.asid == asid && e.vpn == vpn);
        let window = self.way_window(asid);
        let way = if let Some(i) = tag_match {
            // In-place overwrite. If the old copy was an unused prefetch
            // it never got its hit: account it as wasted.
            self.note_departure(set, i, false);
            Some(i)
        } else if let Some(i) = window
            .clone()
            .find(|&i| self.sets[set][i].state == EntryState::Invalid)
        {
            Some(i)
        } else {
            let victim = Self::policy_victim(&self.sets[set], self.cfg.repl, window);
            if let Some(i) = victim {
                self.stats.evictions += 1;
                self.note_departure(set, i, true);
            }
            victim
        };

        match way {
            Some(i) => {
                let dead = self.predict_dead(set);
                self.sets[set][i] = Entry {
                    state: EntryState::Valid,
                    asid,
                    vpn,
                    pfn,
                    last_used: tick,
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
            None => {
                if prefetched {
                    self.stats.prefetch_evictions += 1;
                }
                false
            }
        }
    }

    /// Removes `asid`'s claim on any valid entry serving `(asid, vpn)`
    /// without disturbing other sharers: a sharer bit is cleared, an
    /// owner with sharers hands the entry to its lowest sharer. Returns
    /// whether a sole-owner entry was dropped entirely.
    fn detach(&mut self, set: usize, asid: Asid, vpn: Vpn) -> bool {
        for i in 0..self.sets[set].len() {
            let e = &self.sets[set][i];
            if e.state != EntryState::Valid || !e.serves(asid, vpn) {
                continue;
            }
            if e.asid != asid {
                self.sets[set][i].shared &= !asid_bit(asid);
            } else if e.shared != 0 {
                let e = &mut self.sets[set][i];
                let heir = e.shared.trailing_zeros() as u16;
                e.shared &= !(1 << heir);
                e.asid = Asid::new(heir);
            } else {
                self.note_departure(set, i, false);
                self.sets[set][i] = Entry::invalid();
                return true;
            }
            return false;
        }
        false
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
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(vpn);

        if self.sub_entry_sharing {
            // A shared entry cannot be converted into a (single-ASID)
            // pending way without robbing the other sharers: detach our
            // claim and reserve a fresh way instead.
            let had_sole_copy = self.detach(set, asid, vpn);
            let _ = had_sole_copy;
        }

        let tag_match = self.sets[set].iter().position(|e| {
            e.state == EntryState::Valid && e.asid == asid && e.vpn == vpn && e.shared == 0
        });
        let window = self.way_window(asid);
        let way = if let Some(i) = tag_match {
            self.note_departure(set, i, false);
            Some(i)
        } else if let Some(i) = window
            .clone()
            .find(|&i| self.sets[set][i].state == EntryState::Invalid)
        {
            Some(i)
        } else {
            let victim = Self::policy_victim(&self.sets[set], self.cfg.repl, window);
            if let Some(i) = victim {
                self.stats.evictions += 1;
                self.note_departure(set, i, true);
            }
            victim
        };

        match way {
            Some(i) => {
                self.sets[set][i] = Entry {
                    state: EntryState::Pending,
                    asid,
                    vpn,
                    pfn: Pfn::new(0),
                    last_used: tick,
                    shared: 0,
                    prefetched: false,
                    touched: false,
                    dead: false,
                };
                self.pending_count += 1;
                true
            }
            None => false,
        }
    }

    /// Picks the way to displace when no invalid way exists. Only valid
    /// ways inside `window` are candidates: pending ways are never
    /// displaced, and a partitioned ASID never evicts outside its window.
    fn policy_victim(
        ways: &[Entry],
        repl: ReplPolicy,
        window: std::ops::Range<usize>,
    ) -> Option<usize> {
        let lru_where = |pred: &dyn Fn(&Entry) -> bool| -> Option<usize> {
            ways.iter()
                .enumerate()
                .filter(|(i, e)| window.contains(i) && e.state == EntryState::Valid && pred(e))
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
        };
        if repl == ReplPolicy::DeadBlock {
            if let Some(i) = lru_where(&|e| e.dead && e.prefetched && !e.touched) {
                return Some(i);
            }
            if let Some(i) = lru_where(&|e| e.dead) {
                return Some(i);
            }
        }
        lru_where(&|_| true)
    }

    /// Bookkeeping for a valid way about to be displaced: wasted-prefetch
    /// accounting always, dead-block training only when the displacement
    /// was a replacement decision (`train`) under DeadBlock.
    fn note_departure(&mut self, set: usize, i: usize, train: bool) {
        let e = &self.sets[set][i];
        if e.state != EntryState::Valid {
            return;
        }
        if e.prefetched && !e.touched {
            self.stats.prefetch_evictions += 1;
        }
        if train && self.cfg.repl == ReplPolicy::DeadBlock {
            let s = &mut self.scores[set];
            if e.touched {
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
        let set = self.set_of(vpn);
        self.sets[set]
            .iter()
            .any(|e| e.state == EntryState::Pending && e.asid == asid && e.vpn == vpn)
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
        let set = self.set_of(vpn);
        let dead = self.predict_dead(set);
        let join = self.sub_entry_sharing.then(|| {
            self.sets[set]
                .iter()
                .position(|e| e.state == EntryState::Valid && e.vpn == vpn && e.pfn == pfn)
        });
        let mut cleared = 0;
        let mut filled = false;
        if let Some(Some(i)) = join {
            // The walk's result is already resident under another ASID:
            // join that entry and free every pending way.
            let e = &mut self.sets[set][i];
            if e.asid != asid {
                e.shared |= asid_bit(asid);
            }
            e.last_used = tick;
            for e in &mut self.sets[set] {
                if e.state == EntryState::Pending && e.asid == asid && e.vpn == vpn {
                    *e = Entry::invalid();
                    cleared += 1;
                }
            }
            if cleared > 0 {
                self.stats.fills += 1;
                self.stats.shared_joins += 1;
                filled = true;
            }
        } else {
            for e in &mut self.sets[set] {
                if e.state == EntryState::Pending && e.asid == asid && e.vpn == vpn {
                    cleared += 1;
                    if filled {
                        *e = Entry::invalid();
                    } else {
                        e.state = EntryState::Valid;
                        e.pfn = pfn;
                        e.last_used = tick;
                        e.shared = 0;
                        e.prefetched = prefetched;
                        e.touched = false;
                        e.dead = dead;
                        filled = true;
                        if dead {
                            self.stats.dead_fills += 1;
                        }
                        self.stats.fills += 1;
                    }
                }
            }
        }
        if prefetched && (cleared == 0 || matches!(join, Some(Some(_)))) {
            // Nothing carries the prefetch tag: the reservation vanished
            // (e.g. flushed) before the prefetch completed, or the result
            // joined an entry already resident. The prefetch is wasted.
            self.stats.prefetch_evictions += 1;
        }
        let _ = filled;
        self.pending_count -= cleared;
        cleared
    }

    /// Aborts an In-TLB-tracked miss without installing a translation
    /// (page-fault path): every tag-matching pending way is invalidated.
    /// Returns the number of ways cleared.
    pub fn clear_pending(&mut self, asid: Asid, vpn: Vpn) -> usize {
        let set = self.set_of(vpn);
        let mut cleared = 0;
        for e in &mut self.sets[set] {
            if e.state == EntryState::Pending && e.asid == asid && e.vpn == vpn {
                *e = Entry::invalid();
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
        let set = self.set_of(vpn);
        let mut dropped = 0;
        for i in 0..self.sets[set].len() {
            let e = &self.sets[set][i];
            if e.state != EntryState::Valid || !e.serves(asid, vpn) {
                continue;
            }
            if e.asid != asid {
                // Sub-entry sharer: clear only this tenant's claim.
                self.sets[set][i].shared &= !asid_bit(asid);
            } else if e.shared != 0 {
                // Owner with sharers: hand the entry to its lowest sharer.
                let e = &mut self.sets[set][i];
                let heir = e.shared.trailing_zeros() as u16;
                e.shared &= !(1 << heir);
                e.asid = Asid::new(heir);
            } else {
                self.note_departure(set, i, false);
                self.sets[set][i] = Entry::invalid();
            }
            dropped += 1;
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
        for set in 0..self.sets.len() {
            for i in 0..self.sets[set].len() {
                let e = &self.sets[set][i];
                match e.state {
                    EntryState::Valid if e.serves(asid, vpn_of(e)) => {
                        if e.asid != asid {
                            self.sets[set][i].shared &= !asid_bit(asid);
                        } else if e.shared != 0 {
                            let e = &mut self.sets[set][i];
                            let heir = e.shared.trailing_zeros() as u16;
                            e.shared &= !(1 << heir);
                            e.asid = Asid::new(heir);
                        } else {
                            self.note_departure(set, i, false);
                            self.sets[set][i] = Entry::invalid();
                        }
                        dropped += 1;
                    }
                    EntryState::Pending if e.asid == asid => {
                        self.sets[set][i] = Entry::invalid();
                        self.pending_count -= 1;
                    }
                    _ => {}
                }
            }
        }
        dropped
    }

    /// Invalidates every entry (full TLB shootdown). Resets the
    /// dead-block sampler: reuse history does not survive a full flush.
    pub fn flush(&mut self) {
        for set in 0..self.sets.len() {
            for i in 0..self.sets[set].len() {
                self.note_departure(set, i, false);
                self.sets[set][i] = Entry::invalid();
            }
        }
        for s in &mut self.scores {
            *s = 0;
        }
        self.pending_count = 0;
    }

    /// Number of valid translations currently cached (shared entries
    /// count once, regardless of how many ASIDs they serve).
    pub fn valid_entries(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|e| e.state == EntryState::Valid)
            .count()
    }

    /// Number of prefetched translations still awaiting their first
    /// demand hit (the resident leg of the prefetch in-flight count).
    pub fn prefetched_resident(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|e| e.state == EntryState::Valid && e.prefetched && !e.touched)
            .count()
    }

    /// `(valid, pending)` tag-matching way counts for `(asid, vpn)` — the
    /// observable form of the set-uniqueness invariant: `valid <= 1`, and
    /// `valid` and `pending` never both nonzero (pending ways for one tag
    /// may number more than one: In-TLB MSHR merging).
    pub fn tag_population(&self, asid: Asid, vpn: Vpn) -> (usize, usize) {
        let set = self.set_of(vpn);
        let mut valid = 0;
        let mut pending = 0;
        for e in &self.sets[set] {
            match e.state {
                EntryState::Valid if e.serves(asid, vpn) => valid += 1,
                EntryState::Pending if e.asid == asid && e.vpn == vpn => pending += 1,
                _ => {}
            }
        }
        (valid, pending)
    }
}

/// The VPN of an entry (helper so `flush_asid` can call `serves` with the
/// entry's own VPN — i.e. test only the ASID claim).
fn vpn_of(e: &Entry) -> Vpn {
    e.vpn
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
