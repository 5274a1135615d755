//! [`MshrSlab`] — the waiter storage behind every MSHR file.
//!
//! An MSHR file maps an in-flight tag (a sector address, an `(Asid, Vpn)`
//! pair) to the requests merged onto it, and releases them in arrival
//! order when the miss resolves. Keeping a fresh `Vec` per tag costs one
//! allocation per miss and one free per resolve, on the simulator's
//! hottest path. The slab instead keeps one waiter list per slot and
//! recycles freed slots through a free list: a slot's list keeps its
//! capacity across misses, so once each slot has seen its largest merge
//! count, allocating, merging and resolving never touch the heap.

use crate::FastMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// Result of presenting a miss to an MSHR file, generic over the waiter
/// metadata `M`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome<M> {
    /// A new entry was allocated; the caller must fetch the tag from the
    /// next level (or launch a page walk for it).
    Allocated,
    /// The tag was already in flight; the waiter was merged and no new
    /// fetch is needed.
    Merged,
    /// The file is saturated (entries exhausted, or this tag's merge list
    /// is full) — an *MSHR failure*. The rejected waiter is handed back so
    /// the caller can retry it without a copy.
    Full(M),
}

/// A bounded MSHR file: tag → waiter list over pooled, recycled slots.
///
/// # Example
///
/// ```
/// use swgpu_types::{MshrOutcome, MshrSlab};
///
/// let mut m: MshrSlab<u64, &str> = MshrSlab::new(1, 2);
/// assert_eq!(m.allocate(0x40, "a"), MshrOutcome::Allocated);
/// assert_eq!(m.allocate(0x40, "b"), MshrOutcome::Merged);
/// assert_eq!(m.allocate(0x40, "c"), MshrOutcome::Full("c"));
/// assert_eq!(m.allocate(0x80, "d"), MshrOutcome::Full("d"));
/// assert!(m.remove(&0x40).eq(["a", "b"]));
/// assert!(!m.contains(&0x40));
/// ```
#[derive(Debug)]
pub struct MshrSlab<K, M> {
    entries: usize,
    max_merges: usize,
    index: FastMap<K, u32>,
    slots: Vec<Vec<M>>,
    free: Vec<u32>,
}

/// Waiters released by [`MshrSlab::remove`], drained in arrival order
/// straight out of the freed slot. Dropping it early discards the rest.
#[derive(Debug)]
pub struct Released<'a, M>(Option<std::vec::Drain<'a, M>>);

impl<M> Released<'_, M> {
    /// Whether the removed tag was tracked at all.
    pub fn tracked(&self) -> bool {
        self.0.is_some()
    }
}

impl<M> Iterator for Released<'_, M> {
    type Item = M;

    fn next(&mut self) -> Option<M> {
        self.0.as_mut()?.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.0.as_ref().map_or((0, Some(0)), Iterator::size_hint)
    }
}

impl<K: Hash + Eq, M> MshrSlab<K, M> {
    /// An empty file tracking at most `entries` tags with at most
    /// `max_merges` waiters each (the first included). Slots are made on
    /// first use, so an unbounded file (`usize::MAX`) costs nothing up
    /// front.
    pub fn new(entries: usize, max_merges: usize) -> Self {
        Self {
            entries,
            max_merges,
            index: FastMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of tags in flight.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no tag is in flight.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether every entry is in use.
    pub fn is_full(&self) -> bool {
        self.index.len() >= self.entries
    }

    /// Whether `key` is in flight.
    pub fn contains(&self, key: &K) -> bool {
        self.index.contains_key(key)
    }

    /// Presents a miss on `key` with waiter `waiter`: merges onto the
    /// in-flight tag, else takes a free entry, else hands the waiter
    /// back.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` tags would be in flight at once.
    // Every cache and TLB miss calls this. Without the hint, whether the
    // release build inlines it into `Cache::access` flips with edits to
    // unrelated code in the same crates.
    #[inline]
    pub fn allocate(&mut self, key: K, waiter: M) -> MshrOutcome<M> {
        let in_flight = self.index.len();
        match self.index.entry(key) {
            Entry::Occupied(e) => {
                push_merge(&mut self.slots[*e.get() as usize], self.max_merges, waiter)
            }
            Entry::Vacant(_) if in_flight >= self.entries => MshrOutcome::Full(waiter),
            Entry::Vacant(e) => {
                let slot = match self.free.pop() {
                    Some(s) => s,
                    None => {
                        self.slots.push(Vec::new());
                        u32::try_from(self.slots.len() - 1)
                            .expect("at most u32::MAX tags in flight")
                    }
                };
                self.slots[slot as usize].push(waiter);
                e.insert(slot);
                MshrOutcome::Allocated
            }
        }
    }

    /// Merges `waiter` onto `key` if it is in flight, with one lookup:
    /// `Ok(Merged)`, or `Ok(Full(waiter))` when its merge list is full.
    /// `Err(waiter)` hands the waiter back when `key` is not in flight.
    pub fn merge(&mut self, key: &K, waiter: M) -> Result<MshrOutcome<M>, M> {
        match self.index.get(key) {
            Some(&slot) => Ok(push_merge(
                &mut self.slots[slot as usize],
                self.max_merges,
                waiter,
            )),
            None => Err(waiter),
        }
    }

    /// Stops tracking `key`, releasing its waiters in arrival order.
    /// Releases nothing if `key` was not in flight.
    pub fn remove(&mut self, key: &K) -> Released<'_, M> {
        match self.index.remove(key) {
            Some(slot) => {
                self.free.push(slot);
                Released(Some(self.slots[slot as usize].drain(..)))
            }
            None => Released(None),
        }
    }

    /// Stops tracking `key`, so its entry serves a new miss at once, and
    /// returns its slot: the waiters stay there until
    /// [`MshrSlab::free_slot`]. `None` if `key` was not in flight.
    #[inline]
    pub fn close(&mut self, key: &K) -> Option<u32> {
        self.index.remove(key)
    }

    /// The waiters of `slot`, in arrival order.
    #[inline]
    pub fn waiters(&self, slot: u32) -> &[M] {
        &self.slots[slot as usize]
    }

    /// Empties a slot [`MshrSlab::close`] returned, for reuse.
    #[inline]
    pub fn free_slot(&mut self, slot: u32) {
        self.slots[slot as usize].clear();
        self.free.push(slot);
    }

    /// Drops every tag (and its waiters) for which `keep` is false.
    pub fn retain(&mut self, mut keep: impl FnMut(&K) -> bool) {
        let (slots, free) = (&mut self.slots, &mut self.free);
        self.index.retain(|k, &mut slot| {
            let kept = keep(k);
            if !kept {
                slots[slot as usize].clear();
                free.push(slot);
            }
            kept
        });
    }
}

/// Appends `waiter` to an in-flight tag's `list` unless it already holds
/// `max_merges` waiters.
fn push_merge<M>(list: &mut Vec<M>, max_merges: usize, waiter: M) -> MshrOutcome<M> {
    if list.len() < max_merges {
        list.push(waiter);
        MshrOutcome::Merged
    } else {
        MshrOutcome::Full(waiter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unbounded() -> MshrSlab<u32, u32> {
        MshrSlab::new(usize::MAX, usize::MAX)
    }

    #[test]
    fn releases_in_arrival_order_and_recycles_slots() {
        let mut m = unbounded();
        assert_eq!(m.allocate(1, 10), MshrOutcome::Allocated);
        assert_eq!(m.allocate(1, 11), MshrOutcome::Merged);
        assert_eq!(m.allocate(2, 20), MshrOutcome::Allocated);
        assert_eq!(m.len(), 2);
        assert!(m.remove(&1).eq([10, 11]));
        // The freed slot (and its list's capacity) serves the next tag.
        m.allocate(3, 30);
        assert_eq!(m.slots.len(), 2);
        assert!(m.slots[0].capacity() >= 2);
        assert!(m.remove(&3).eq([30]));
        assert!(m.remove(&2).eq([20]));
        assert!(m.is_empty());
    }

    #[test]
    fn limits_entries_and_merges() {
        let mut m: MshrSlab<u32, u32> = MshrSlab::new(2, 2);
        m.allocate(1, 10);
        m.allocate(1, 11);
        assert_eq!(m.allocate(1, 12), MshrOutcome::Full(12));
        m.allocate(2, 20);
        assert!(m.is_full());
        assert_eq!(m.allocate(3, 30), MshrOutcome::Full(30));
        assert_eq!(
            m.allocate(2, 21),
            MshrOutcome::Merged,
            "merges need no entry"
        );
    }

    #[test]
    fn merge_joins_only_tracked_tags() {
        let mut m: MshrSlab<u32, u32> = MshrSlab::new(1, 2);
        assert_eq!(m.merge(&1, 10), Err(10), "untracked: handed back");
        assert_eq!(m.len(), 0);
        m.allocate(1, 10);
        assert_eq!(m.merge(&1, 11), Ok(MshrOutcome::Merged));
        assert_eq!(m.merge(&1, 12), Ok(MshrOutcome::Full(12)));
        assert!(m.remove(&1).eq([10, 11]));
    }

    #[test]
    fn removing_an_untracked_tag_releases_nothing() {
        let mut m = unbounded();
        let r = m.remove(&7);
        assert!(!r.tracked());
        assert_eq!(r.count(), 0);
    }

    #[test]
    fn dropping_a_release_early_still_frees_the_slot() {
        let mut m = unbounded();
        m.allocate(1, 10);
        m.allocate(1, 11);
        assert_eq!(m.remove(&1).next(), Some(10));
        m.allocate(2, 20);
        assert!(m.remove(&2).eq([20]), "no waiter of tag 1 leaked");
    }

    #[test]
    fn a_closed_slot_keeps_its_waiters_until_freed() {
        let mut m: MshrSlab<u32, u32> = MshrSlab::new(1, 2);
        m.allocate(1, 10);
        m.allocate(1, 11);
        let slot = m.close(&1).expect("tracked");
        assert_eq!(m.close(&1), None);
        // The entry is free at once; the new tag takes another slot.
        assert_eq!(m.allocate(2, 20), MshrOutcome::Allocated);
        assert_eq!(m.waiters(slot), [10, 11]);
        m.free_slot(slot);
        assert!(m.remove(&2).eq([20]));
        m.allocate(3, 30);
        assert_eq!(m.slots.len(), 2, "freed slots are reused");
    }

    #[test]
    fn retain_frees_dropped_tags() {
        let mut m = unbounded();
        for k in 0..4 {
            m.allocate(k, k * 10);
        }
        m.retain(|&k| k % 2 == 0);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&2) && !m.contains(&1));
        m.allocate(5, 50);
        m.allocate(7, 70);
        assert_eq!(m.slots.len(), 4, "freed slots are reused");
        assert!(m.remove(&5).eq([50]));
    }
}
