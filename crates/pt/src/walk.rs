//! The walk engine shared by both walkers and both page tables.
//!
//! A hardware PTW and a PW Warp thread run the *same* page walk; they
//! differ only in how each read is timed (a walker slot fed by the PWB,
//! or a software thread competing for the SM issue port). This module is
//! everything they share:
//!
//! * [`RadixCursor`] — the `(level, node)` position of a radix walk,
//!   started from a [`PageWalkCache`] lookup and advanced one decoded
//!   entry at a time by [`RadixCursor::step`] (descend, leaf or fault).
//!   The functional walks of [`crate::RadixPageTable`] use the same step.
//!   [`WalkCursor`] holds it or [`crate::HashedCursor`], its FS-HPT twin.
//! * [`PteReader`] — decodes entries out of [`PhysMem`] once the timed
//!   read completes: the single choke point for transient PTE-corruption
//!   injection and for per-level [`PteReadEvent`] observation.
//! * [`RecoveryLedger`] — per-slot tickets for the read each walk waits
//!   on, plus, when a fault plan is armed, the watchdog and backoff-retry
//!   deadlines and the injected/recovered/escalated counters.
//!
//! # Transient PTE corruption
//!
//! With some probability the reader observes a corrupted entry instead of
//! the real bytes. The corruption is transient — the backing store is
//! untouched — so re-reading the same address on retry observes the true
//! entry, which is exactly the recovery the ledger's watchdog /
//! bounded-retry machinery implements. Two modes exist:
//!
//! * **Invalidating** (`pte_corrupt_rate`): the read observes an invalid
//!   entry — trivially noticed, since the walk would fault at that level.
//! * **ValidButWrong** (`pte_silent_corrupt_rate`): the read observes an
//!   entry with PFN bits flipped and the valid bit intact. Undetected,
//!   this would silently translate to the wrong frame. The decode
//!   verifies the entry's reserved parity nibble ([`Pte::parity_ok`]);
//!   the injector always flips two adjacent bits inside one PFN nibble,
//!   a pattern the XOR-fold parity is guaranteed to catch, so every
//!   injection is detected and handled exactly like an invalidating
//!   corruption (retry / escalate). The page walk cache can therefore
//!   never be poisoned by an injected fault — PWC fills only happen on
//!   valid, parity-consistent PDEs.

use crate::hashed::HashedCursor;
use crate::pwc::PageWalkCache;
use crate::radix::{RadixPageTable, LEAF_LEVEL};
use swgpu_mem::{MemReq, PhysMem};
use swgpu_types::{
    Asid, Cycle, DelayQueue, FaultInjectionStats, FaultInjector, FaultPlan, MemReqId, Pfn,
    PhysAddr, Pte, PteReadEvent, Vpn,
};

/// What one decoded entry does to a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The cursor moved on: one radix level down, or to the next bucket.
    Descend,
    /// The leaf entry: the mapped frame, or `None` for an invalid leaf.
    Leaf(Option<Pfn>),
    /// An invalid directory entry at this level: a page fault.
    Fault(u8),
}

/// The position of a radix walk: the level whose entry is read next and
/// the base address of the node serving it.
///
/// # Example
///
/// ```
/// use swgpu_mem::PhysMem;
/// use swgpu_pt::{FrameAllocator, RadixCursor, RadixPageTable, Step, ROOT_LEVEL};
/// use swgpu_types::{PageSize, Pfn, Pte, Vpn};
///
/// let mut mem = PhysMem::new();
/// let mut alloc = FrameAllocator::new(PageSize::Size64K);
/// let mut pt = RadixPageTable::new(&mut alloc, &mut mem);
/// let vpn = Vpn::new(0x42);
/// pt.map(vpn, Pfn::new(0x99), &mut alloc, &mut mem);
/// let mut cur = RadixCursor::new(ROOT_LEVEL, pt.root());
/// let mut steps = Vec::new();
/// loop {
///     let step = cur.step(Pte::from_raw(mem.read_u64(cur.entry_addr(vpn))));
///     steps.push(step);
///     if step != Step::Descend {
///         break;
///     }
/// }
/// assert_eq!(steps.len(), 4);
/// assert_eq!(steps[3], Step::Leaf(Some(Pfn::new(0x99))));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixCursor {
    level: u8,
    node: PhysAddr,
}

impl RadixCursor {
    /// A cursor reading `level` of the node at `node`.
    #[inline]
    pub fn new(level: u8, node: PhysAddr) -> Self {
        Self { level, node }
    }

    /// Where a walk of `vpn` for `asid` starts: the deepest node the PWC
    /// knows, or the tenant's root on a total miss.
    pub fn start(pwc: &mut PageWalkCache, asid: Asid, vpn: Vpn) -> Self {
        let start = pwc.lookup(asid, vpn);
        Self::new(start.level, start.node_base)
    }

    /// The level whose entry is read next.
    #[inline]
    pub fn level(&self) -> u8 {
        self.level
    }

    /// Physical address of the entry read next on a walk for `vpn`.
    #[inline]
    pub fn entry_addr(&self, vpn: Vpn) -> PhysAddr {
        RadixPageTable::entry_addr(self.level, self.node, vpn)
    }

    /// Applies the entry just read at the cursor. A valid directory entry
    /// moves the cursor down; at the leaf level the cursor stays put, so
    /// several VPNs sharing the leaf node can each decode their entry.
    #[inline]
    pub fn step(&mut self, pte: Pte) -> Step {
        if self.level == LEAF_LEVEL {
            return Step::Leaf(pte.is_valid().then(|| pte.pfn()));
        }
        match RadixPageTable::next_node(pte) {
            Some(next) => {
                self.level -= 1;
                self.node = next;
                Step::Descend
            }
            None => Step::Fault(self.level),
        }
    }

    /// One level of a timed walk: decodes `vpn`'s entry at the cursor
    /// through `reader` and steps. Every node descended into is filled
    /// into the PWC for `asid`. Returns `None`, leaving the cursor in
    /// place for a retry, when the read was corrupted by injection.
    #[inline]
    pub fn advance(
        &mut self,
        reader: &mut PteReader,
        mem: &PhysMem,
        pwc: &mut PageWalkCache,
        asid: Asid,
        vpn: Vpn,
        now: Cycle,
    ) -> Option<Step> {
        let pte = reader.read(mem, self.entry_addr(vpn), vpn, self.level, now)?;
        let step = self.step(pte);
        if step == Step::Descend {
            pwc.fill(asid, vpn, self.level, self.node);
        }
        Some(step)
    }
}

/// A timed walk's position in either table (one per hardware PTW walk).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkCursor {
    /// A radix walk.
    Radix(RadixCursor),
    /// An FS-HPT probe sequence.
    Hashed(HashedCursor),
}

impl WalkCursor {
    /// The radix entry or FS-HPT bucket read next on a walk for `vpn`.
    #[inline]
    pub fn entry_addr(&self, vpn: Vpn) -> PhysAddr {
        match self {
            Self::Radix(cur) => cur.entry_addr(vpn),
            Self::Hashed(cur) => cur.entry_addr(),
        }
    }

    /// Whether the read at the cursor fetches a radix leaf sector, which
    /// holds every NHA-coalesced VPN's entry (other reads serve one VPN).
    #[inline]
    pub fn reads_leaf_sector(&self) -> bool {
        matches!(self, Self::Radix(cur) if cur.level() == LEAF_LEVEL)
    }

    /// Applies the read at the cursor to `vpn`'s walk, as
    /// [`RadixCursor::advance`] or [`HashedCursor::advance`] does.
    #[inline]
    pub fn advance(
        &mut self,
        reader: &mut PteReader,
        mem: &PhysMem,
        pwc: &mut PageWalkCache,
        asid: Asid,
        vpn: Vpn,
        now: Cycle,
    ) -> Option<Step> {
        match self {
            Self::Radix(cur) => cur.advance(reader, mem, pwc, asid, vpn, now),
            Self::Hashed(cur) => cur.advance(reader, mem, vpn, now),
        }
    }
}

/// Flips two adjacent bits inside one nibble of the PFN field, leaving
/// the valid bit and the stored parity nibble untouched. The nibble is
/// chosen by the injector's stream; the fold of the flip mask is always
/// `0b11 != 0`, so [`Pte::parity_ok`] is guaranteed to fail on the result.
fn flip_pfn_bits(real: Pte, draw: u64) -> Pte {
    // The PFN field is 47 bits at shift 1; nibbles 0..12 keep the 2-bit
    // mask inside the field (4 * 11 + 1 = 45 < 47).
    let nibble = draw % 12;
    let mask = 0b11u64 << (4 * nibble);
    Pte::from_raw(real.raw() ^ (mask << 1))
}

/// A walker's page-table-entry decoder: the optional corruption injector
/// with its two rates, and the optional [`PteReadEvent`] buffer.
///
/// Unarmed and unobserved (the default) a read is exactly
/// `Pte::from_raw(mem.read_u64(addr))`.
#[derive(Debug, Default)]
pub struct PteReader {
    inj: Option<FaultInjector>,
    corrupt_rate: f64,
    silent_rate: f64,
    // When observed, every decoded level is buffered here for the owning
    // simulator to drain into its span recorder; otherwise the buffer
    // stays empty and untouched.
    observed: bool,
    events: Vec<PteReadEvent>,
}

impl PteReader {
    /// Corrupts reads through `inj` at the plan's invalidating and silent
    /// PTE-corruption rates.
    pub fn inject(&mut self, inj: FaultInjector, plan: &FaultPlan) {
        self.inj = Some(inj);
        self.corrupt_rate = plan.pte_corrupt_rate;
        self.silent_rate = plan.pte_silent_corrupt_rate;
    }

    /// Arms or disarms per-level observation. Observation is pure
    /// bookkeeping: it never changes what a read returns.
    pub fn set_observed(&mut self, on: bool) {
        self.observed = on;
    }

    /// Drains the buffered [`PteReadEvent`]s (empty unless observed).
    pub fn drain_events(&mut self) -> Vec<PteReadEvent> {
        std::mem::take(&mut self.events)
    }

    /// The injector's counters (all zero when nothing is injected).
    pub fn stats(&self) -> FaultInjectionStats {
        self.inj.as_ref().map(|i| i.stats).unwrap_or_default()
    }

    /// Decodes the entry at `addr`, read at `level` of `vpn`'s walk and
    /// available at `now`. Returns `None` when injection corrupted this
    /// read: the walker discards it and retries or escalates.
    #[inline]
    pub(crate) fn read(
        &mut self,
        mem: &PhysMem,
        addr: PhysAddr,
        vpn: Vpn,
        level: u8,
        now: Cycle,
    ) -> Option<Pte> {
        if self.observed {
            self.events.push(PteReadEvent {
                vpn,
                level,
                at: now,
            });
        }
        let real = Pte::from_raw(mem.read_u64(addr));
        let Some(inj) = self.inj.as_mut() else {
            return Some(real);
        };
        // Only corrupt reads that would have succeeded: injecting on an
        // already-invalid entry would be indistinguishable from a real
        // fault and would break the conservation accounting.
        if real.is_valid() && inj.fire(self.corrupt_rate) {
            inj.stats.injected_pte_corruptions += 1;
            return None;
        }
        if real.is_valid() && inj.fire(self.silent_rate) {
            inj.stats.injected_silent_corruptions += 1;
            let observed = flip_pfn_bits(real, inj.draw_u64());
            debug_assert!(observed.is_valid(), "silent corruption must stay valid");
            // A flip the parity missed would be consumed as a wrong
            // translation — exactly the blind spot the detected/injected
            // invariant exists to expose. The flip pattern is
            // parity-covered, so every injection is detected here and
            // discarded like an invalidating corruption.
            if !observed.parity_ok() {
                inj.stats.detected_silent_corruptions += 1;
            }
            return None;
        }
        Some(real)
    }
}

/// How the ledger resolves a walk that did not get its entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// Re-issue the walk's current read now (a retry was charged).
    RetryNow,
    /// Wait: the ledger re-offers the walk as [`Recovery::RetryNow`]
    /// once its backoff expires.
    Backoff,
    /// The retry budget is spent: the walk ends without a translation
    /// and its attributed injections are counted as escalated.
    Escalate,
}

/// The recovery state of the walk in one slot.
#[derive(Debug, Clone, Copy, Default)]
struct WalkTicket {
    /// Bounded-backoff retries consumed (watchdog re-issues and
    /// corrupted-read retries both count).
    retries: u32,
    /// Injected faults attributed to the walk and not yet credited as
    /// recovered or escalated.
    pending_inj: u64,
    /// Bumped whenever the walk makes progress, so stale deadlines never
    /// match. It carries over to the slot's next walk, past every
    /// generation its earlier walks armed deadlines with.
    gen: u64,
    /// The outstanding read, if any; a response or drop routed to the
    /// slot counts only if its id matches.
    wait_id: Option<MemReqId>,
}

/// Deadlines and counters that exist only under a nonzero-rate plan.
#[derive(Debug)]
struct Armed {
    plan: FaultPlan,
    stats: FaultInjectionStats,
    /// Pending watchdog deadlines: `(slot, gen)`.
    watchdog: DelayQueue<(usize, u64)>,
    /// Backoff-delayed retries of corrupted reads: `(slot, gen)`.
    retry_wake: DelayQueue<(usize, u64)>,
}

/// Per-slot walk tickets plus, when a fault plan is armed, the watchdog
/// and backoff deadlines and the recovery counters.
///
/// A walker names each concurrent walk by a slot (a hardware walker, a
/// PW thread); its memory reads carry that slot in their routes. The
/// ledger tells a walker whether a response or drop is for the read the
/// slot's walk waits on, when a deadline asks for a retry or an
/// escalation, and what each ending walk credits. Unarmed (a zero-rate
/// plan) no deadline is ever set and nothing is counted.
#[derive(Debug, Default)]
pub struct RecoveryLedger {
    tickets: Vec<WalkTicket>,
    armed: Option<Armed>,
}

impl RecoveryLedger {
    /// Arms watchdogs, retries and counting per `plan`.
    pub fn arm(&mut self, plan: &FaultPlan) {
        self.armed = Some(Armed {
            plan: plan.clone(),
            stats: FaultInjectionStats::default(),
            watchdog: DelayQueue::new(),
            retry_wake: DelayQueue::new(),
        });
    }

    /// Whether a fault plan is armed.
    pub fn is_armed(&self) -> bool {
        self.armed.is_some()
    }

    /// Recovery counters (all zero unless armed).
    pub fn stats(&self) -> FaultInjectionStats {
        self.armed.as_ref().map(|a| a.stats).unwrap_or_default()
    }

    /// A walk starts in `slot` (the ledger grows to hold it).
    #[inline]
    pub fn begin(&mut self, slot: usize) {
        if slot >= self.tickets.len() {
            self.tickets.resize(slot + 1, WalkTicket::default());
        }
        let t = &mut self.tickets[slot];
        *t = WalkTicket {
            gen: t.gen,
            ..WalkTicket::default()
        };
    }

    /// The walk in `slot` issued read `id`; armed, its watchdog starts.
    #[inline]
    pub fn issued(&mut self, slot: usize, id: MemReqId, now: Cycle) {
        self.tickets[slot].wait_id = Some(id);
        self.arm_watchdog(slot, now);
    }

    /// Injection wedged the walk in `slot` before it read anything; only
    /// its watchdog revives it.
    pub fn wedged(&mut self, slot: usize, now: Cycle) {
        self.tickets[slot].pending_inj += 1;
        self.arm_watchdog(slot, now);
    }

    #[inline]
    fn arm_watchdog(&mut self, slot: usize, now: Cycle) {
        if let Some(a) = self.armed.as_mut() {
            let t = &self.tickets[slot];
            a.watchdog
                .push(now + a.plan.backoff_cycles(t.retries), (slot, t.gen));
        }
    }

    /// The slot `req` is routed to, if the walk there waits on exactly
    /// `req` (not a read a watchdog has since cancelled, nor one of an
    /// earlier walk in the slot).
    #[inline]
    pub fn awaiting(&self, req: &MemReq) -> Option<usize> {
        let slot = usize::from(req.route.slot);
        (self.tickets.get(slot)?.wait_id == Some(req.id)).then_some(slot)
    }

    /// Attributes a dropped read to the walk waiting on it; returns
    /// whether one was. The read stays outstanding: its watchdog tells
    /// "waiting" from "advancing" and re-issues it.
    #[inline]
    pub fn dropped(&mut self, req: &MemReq) -> bool {
        let Some(slot) = self.awaiting(req) else {
            return false;
        };
        self.tickets[slot].pending_inj += 1;
        true
    }

    /// The walk in `slot` got its data: the outstanding read and every
    /// deadline armed for it are settled.
    #[inline]
    pub fn resolved(&mut self, slot: usize) {
        let t = &mut self.tickets[slot];
        t.wait_id = None;
        t.gen += 1;
    }

    /// The walk in `slot` decoded `injected` corrupted entries: charge a
    /// retry after backoff, or escalate once the budget is spent.
    ///
    /// # Panics
    ///
    /// Panics if no plan is armed (nothing corrupts an unarmed read).
    pub fn corrupted(&mut self, slot: usize, injected: u64, now: Cycle) -> Recovery {
        self.tickets[slot].pending_inj += injected;
        if !self.charge_retry(slot) {
            return Recovery::Escalate;
        }
        let a = self.armed.as_mut().expect("corruption without a plan");
        let t = &mut self.tickets[slot];
        t.gen += 1;
        a.retry_wake
            .push(now + a.plan.backoff_cycles(t.retries), (slot, t.gen));
        Recovery::Backoff
    }

    /// The next walk whose backoff expired or whose watchdog fired by
    /// `now`, with what it must do: [`Recovery::RetryNow`] or
    /// [`Recovery::Escalate`]. Deadlines of walks that progressed since
    /// are skipped. Backoff retries come before watchdog timeouts.
    #[inline]
    pub fn next_due(&mut self, now: Cycle) -> Option<(usize, Recovery)> {
        loop {
            let a = self.armed.as_mut()?;
            if let Some((slot, gen)) = a.retry_wake.pop_ready(now) {
                if self.tickets[slot].gen == gen {
                    return Some((slot, Recovery::RetryNow));
                }
                continue;
            }
            let (slot, gen) = a.watchdog.pop_ready(now)?;
            let t = &mut self.tickets[slot];
            if t.gen != gen {
                continue;
            }
            a.stats.watchdog_timeouts += 1;
            // A response for the cancelled read may still arrive (a
            // delay, not a drop, tripped the watchdog); clearing the id
            // makes it a no-op instead of a double advance.
            t.wait_id = None;
            t.gen += 1;
            let recovery = if self.charge_retry(slot) {
                Recovery::RetryNow
            } else {
                Recovery::Escalate
            };
            return Some((slot, recovery));
        }
    }

    /// Consumes one retry of the walk in `slot`, or — the budget spent —
    /// counts its escalation and returns false.
    fn charge_retry(&mut self, slot: usize) -> bool {
        let a = self.armed.as_mut().expect("recovery without a plan");
        let t = &mut self.tickets[slot];
        if t.retries >= a.plan.max_retries {
            a.stats.fault_escalations += 1;
            a.stats.escalated_injections += std::mem::take(&mut t.pending_inj);
            return false;
        }
        t.retries += 1;
        a.stats.walk_retries += 1;
        true
    }

    /// The earliest pending deadline, if any.
    #[inline]
    pub fn next_deadline(&self) -> Option<Cycle> {
        let a = self.armed.as_ref()?;
        a.watchdog
            .next_ready()
            .into_iter()
            .chain(a.retry_wake.next_ready())
            .min()
    }

    /// The walk in `slot` ended. It reached a real conclusion, so every
    /// injection still attributed to it was overcome (an escalation has
    /// already moved its own to the escalated count). The slot's next
    /// walk starts past every deadline this one armed.
    #[inline]
    pub fn finish(&mut self, slot: usize) {
        let t = &mut self.tickets[slot];
        if let Some(a) = self.armed.as_mut() {
            a.stats.recovered_injections += t.pending_inj;
        }
        t.pending_inj = 0;
        t.wait_id = None;
        t.gen += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radix::ROOT_LEVEL;
    use swgpu_mem::{AccessKind, Issuer, Route};
    use swgpu_types::fault::site;

    fn mem_with(addr: u64, pte: Pte) -> PhysMem {
        let mut mem = PhysMem::new();
        mem.write_u64(PhysAddr::new(addr), pte.raw());
        mem
    }

    fn armed_reader(seed: u64, corrupt: f64, silent: f64) -> PteReader {
        let mut r = PteReader::default();
        let plan = FaultPlan {
            seed,
            pte_corrupt_rate: corrupt,
            pte_silent_corrupt_rate: silent,
            ..FaultPlan::default()
        };
        r.inject(FaultInjector::new(seed, site::PTW_PTE), &plan);
        r
    }

    fn read(r: &mut PteReader, mem: &PhysMem, addr: u64) -> Option<Pte> {
        r.read(mem, PhysAddr::new(addr), Vpn::new(0), 1, Cycle::ZERO)
    }

    #[test]
    fn uninjected_read_is_transparent() {
        let mem = mem_with(0x1000, Pte::valid(Pfn::new(5)));
        let pte = read(&mut PteReader::default(), &mem, 0x1000).expect("not corrupted");
        assert_eq!(pte, Pte::valid(Pfn::new(5)));
    }

    #[test]
    fn full_rate_corrupts_valid_entries_only() {
        let mem = mem_with(0x1000, Pte::valid(Pfn::new(5)));
        let mut r = armed_reader(1, 1.0, 0.0);
        assert_eq!(read(&mut r, &mem, 0x1000), None);
        assert_eq!(r.stats().injected_pte_corruptions, 1);
        // A genuinely-invalid entry is never "corrupted".
        assert_eq!(read(&mut r, &mem, 0x2000), Some(Pte::INVALID));
        assert_eq!(r.stats().injected_pte_corruptions, 1);
    }

    #[test]
    fn retry_after_corruption_sees_real_entry() {
        let mem = mem_with(0x1000, Pte::valid(Pfn::new(5)));
        assert_eq!(read(&mut armed_reader(1, 1.0, 0.0), &mem, 0x1000), None);
        let pte = read(&mut PteReader::default(), &mem, 0x1000);
        assert!(
            pte.is_some_and(|p| p.is_valid()),
            "corruption must be transient"
        );
    }

    #[test]
    fn silent_corruption_is_always_detected() {
        let mem = mem_with(0x1000, Pte::valid(Pfn::new(0x5a5a)));
        let mut r = armed_reader(9, 0.0, 1.0);
        for _ in 0..256 {
            assert_eq!(
                read(&mut r, &mem, 0x1000),
                None,
                "detected corruption reads as faulted"
            );
        }
        assert_eq!(r.stats().injected_silent_corruptions, 256);
        assert_eq!(
            r.stats().detected_silent_corruptions,
            256,
            "parity must catch every injected flip"
        );
    }

    #[test]
    fn silent_corruption_skips_invalid_entries() {
        let mut r = armed_reader(9, 0.0, 1.0);
        assert_eq!(read(&mut r, &PhysMem::new(), 0x3000), Some(Pte::INVALID));
        assert_eq!(r.stats().injected_silent_corruptions, 0);
    }

    #[test]
    fn zero_silent_rate_draws_nothing() {
        let mem = mem_with(0x1000, Pte::valid(Pfn::new(5)));
        let mut a = armed_reader(7, 0.5, 0.0);
        let mut b = FaultInjector::new(7, site::PTW_PTE);
        // Drawing with silent_rate == 0 must leave the stream exactly
        // where the two-rate-free path would: pre-silent-mode armed runs
        // reproduce bit-identically.
        for _ in 0..64 {
            read(&mut a, &mem, 0x1000);
            b.fire(0.5);
        }
        let a = a.inj.as_mut().expect("armed");
        assert_eq!(
            a.fire(0.5),
            b.fire(0.5),
            "silent-rate-0 path perturbed the RNG stream"
        );
    }

    #[test]
    fn observed_read_records_event_and_matches_unobserved() {
        let mem = mem_with(0x1000, Pte::valid(Pfn::new(5)));
        let mut r = PteReader::default();
        r.set_observed(true);
        let pte = r.read(&mem, PhysAddr::new(0x1000), Vpn::new(42), 2, Cycle::new(7));
        assert_eq!(pte, read(&mut PteReader::default(), &mem, 0x1000));
        let event = PteReadEvent {
            vpn: Vpn::new(42),
            level: 2,
            at: Cycle::new(7),
        };
        assert_eq!(r.drain_events(), vec![event]);
        assert!(r.drain_events().is_empty());
    }

    /// The entry every case reads: the node at 0x8000, indexed by VPN 3.
    const NODE: u64 = 0x8000;
    const VPN: u64 = 3;

    #[derive(Debug, Clone, Copy)]
    enum Entry {
        Valid,
        Invalid,
        Corrupted,
        SilentlyCorrupted,
    }

    #[test]
    fn advance_table() {
        let asid = Asid::ZERO;
        let vpn = Vpn::new(VPN);
        let next = PhysAddr::new(0x2_0000);
        for level in (LEAF_LEVEL..=ROOT_LEVEL).rev() {
            for entry in [
                Entry::Valid,
                Entry::Invalid,
                Entry::Corrupted,
                Entry::SilentlyCorrupted,
            ] {
                let case = format!("level {level}, {entry:?}");
                let addr = RadixPageTable::entry_addr(level, PhysAddr::new(NODE), vpn);
                let mem = match entry {
                    Entry::Invalid => PhysMem::new(),
                    _ => mem_with(addr.value(), Pte::valid(Pfn::new(next.value()))),
                };
                let mut reader = match entry {
                    Entry::Corrupted => armed_reader(1, 1.0, 0.0),
                    Entry::SilentlyCorrupted => armed_reader(1, 0.0, 1.0),
                    _ => PteReader::default(),
                };
                let mut pwc = PageWalkCache::new(8);
                let mut cur = RadixCursor::new(level, PhysAddr::new(NODE));
                let step = cur.advance(&mut reader, &mem, &mut pwc, asid, vpn, Cycle::ZERO);

                let expect = match (entry, level) {
                    (Entry::Corrupted | Entry::SilentlyCorrupted, _) => None,
                    (Entry::Valid, LEAF_LEVEL) => Some(Step::Leaf(Some(Pfn::new(next.value())))),
                    (Entry::Invalid, LEAF_LEVEL) => Some(Step::Leaf(None)),
                    (Entry::Valid, _) => Some(Step::Descend),
                    (Entry::Invalid, _) => Some(Step::Fault(level)),
                };
                assert_eq!(step, expect, "{case}: step");

                let descended = expect == Some(Step::Descend);
                let want_cur = if descended {
                    RadixCursor::new(level - 1, next)
                } else {
                    RadixCursor::new(level, PhysAddr::new(NODE))
                };
                assert_eq!(cur, want_cur, "{case}: cursor");
                // Only a descent fills the PWC: the next walk of this VPN
                // starts where this one went.
                let start = pwc.lookup(asid, vpn);
                assert_eq!(start.hit, descended, "{case}: PWC fill");
                if descended {
                    assert_eq!((start.level, start.node_base), (level - 1, next), "{case}");
                }

                let s = reader.stats();
                let corrupt = matches!(entry, Entry::Corrupted);
                let silent = matches!(entry, Entry::SilentlyCorrupted);
                assert_eq!(s.injected_pte_corruptions, u64::from(corrupt), "{case}");
                assert_eq!(s.injected_silent_corruptions, u64::from(silent), "{case}");
                assert_eq!(s.detected_silent_corruptions, u64::from(silent), "{case}");
            }
        }
    }

    #[test]
    fn step_walks_like_translate() {
        use crate::alloc::FrameAllocator;
        use swgpu_types::PageSize;
        let mut mem = PhysMem::new();
        let mut alloc = FrameAllocator::new(PageSize::Size64K);
        let mut pt = RadixPageTable::new(&mut alloc, &mut mem);
        pt.map(Vpn::new(7), Pfn::new(70), &mut alloc, &mut mem);
        let walk = |vpn: Vpn| {
            let mut cur = RadixCursor::new(ROOT_LEVEL, pt.root());
            loop {
                match cur.step(Pte::from_raw(mem.read_u64(cur.entry_addr(vpn)))) {
                    Step::Descend => {}
                    end => return end,
                }
            }
        };
        assert_eq!(walk(Vpn::new(7)), Step::Leaf(Some(Pfn::new(70))));
        assert_eq!(walk(Vpn::new(8)), Step::Leaf(None), "same leaf node");
        assert_eq!(walk(Vpn::new(1 << 27)), Step::Fault(ROOT_LEVEL));
    }

    fn read_req(id: u64, slot: u16) -> MemReq {
        MemReq::new(MemReqId(id), PhysAddr::new(0), AccessKind::PageTable).with_route(Route::new(
            Issuer::Ptw,
            0,
            slot,
        ))
    }

    fn armed_ledger(max_retries: u32) -> RecoveryLedger {
        let mut l = RecoveryLedger::default();
        l.arm(&FaultPlan {
            mem_drop_rate: 1.0,
            watchdog_cycles: 100,
            max_retries,
            ..FaultPlan::default()
        });
        l
    }

    #[test]
    fn unarmed_ledger_matches_reads_and_counts_nothing() {
        let mut l = RecoveryLedger::default();
        l.begin(0);
        l.issued(0, MemReqId(5), Cycle::ZERO);
        assert_eq!(l.awaiting(&read_req(5, 0)), Some(0));
        assert_eq!(l.awaiting(&read_req(4, 0)), None, "another read");
        assert_eq!(l.awaiting(&read_req(5, 9)), None, "a slot past the end");
        assert!(l.dropped(&read_req(5, 0)));
        l.resolved(0);
        assert_eq!(l.awaiting(&read_req(5, 0)), None, "settled");
        l.finish(0);
        assert_eq!(l.next_deadline(), None);
        assert_eq!(l.next_due(Cycle::new(1 << 40)), None);
        assert_eq!(l.stats(), FaultInjectionStats::default());
    }

    #[test]
    fn watchdog_retries_then_escalates() {
        let mut l = armed_ledger(1);
        l.begin(0);
        l.issued(0, MemReqId(1), Cycle::ZERO);
        assert!(l.dropped(&read_req(1, 0)));
        assert_eq!(l.next_deadline(), Some(Cycle::new(100)));
        assert_eq!(l.next_due(Cycle::new(99)), None);
        assert_eq!(l.next_due(Cycle::new(100)), Some((0, Recovery::RetryNow)));
        assert_eq!(
            l.awaiting(&read_req(1, 0)),
            None,
            "the timed-out read is cancelled"
        );
        // The re-issue's watchdog backs off exponentially.
        l.issued(0, MemReqId(2), Cycle::new(100));
        assert_eq!(l.next_deadline(), Some(Cycle::new(300)));
        assert_eq!(l.next_due(Cycle::new(300)), Some((0, Recovery::Escalate)));
        l.finish(0);
        let s = l.stats();
        assert_eq!((s.watchdog_timeouts, s.walk_retries), (2, 1));
        assert_eq!((s.fault_escalations, s.escalated_injections), (1, 1));
        assert_eq!(s.recovered_injections, 0);
    }

    #[test]
    fn corrupted_reads_back_off_then_escalate() {
        let mut l = armed_ledger(1);
        l.begin(1);
        l.issued(1, MemReqId(1), Cycle::ZERO);
        l.resolved(1);
        assert_eq!(l.corrupted(1, 2, Cycle::new(10)), Recovery::Backoff);
        assert_eq!(l.next_due(Cycle::new(209)), None, "stale watchdog skipped");
        assert_eq!(l.next_due(Cycle::new(210)), Some((1, Recovery::RetryNow)));
        l.issued(1, MemReqId(2), Cycle::new(210));
        l.resolved(1);
        assert_eq!(l.corrupted(1, 1, Cycle::new(300)), Recovery::Escalate);
        l.finish(1);
        let s = l.stats();
        assert_eq!(
            (s.walk_retries, s.fault_escalations, s.escalated_injections),
            (1, 1, 3)
        );
    }

    #[test]
    fn a_finished_walks_deadlines_never_match_the_next_walk_in_its_slot() {
        let mut l = armed_ledger(3);
        l.begin(0);
        l.wedged(0, Cycle::ZERO);
        l.finish(0);
        l.begin(0);
        l.issued(0, MemReqId(1), Cycle::new(50));
        assert_eq!(l.next_due(Cycle::new(100)), None, "the old walk's deadline");
        assert_eq!(l.next_due(Cycle::new(150)), Some((0, Recovery::RetryNow)));
        l.finish(0);
        let s = l.stats();
        assert_eq!((s.watchdog_timeouts, s.recovered_injections), (1, 1));
    }
}
