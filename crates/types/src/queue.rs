//! A deterministic delay queue — the basic plumbing between pipeline stages.
//!
//! Components in the simulator communicate through message queues where each
//! message becomes visible only after a fixed latency (e.g. the 80-cycle
//! L2 TLB access, or the SM↔L2-TLB communication the paper charges
//! SoftWalker for). [`DelayQueue`] keeps messages ordered by ready time and,
//! for equal ready times, by insertion order, so simulations are fully
//! deterministic.

use crate::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

#[derive(Debug)]
struct Entry<T> {
    ready: Cycle,
    seq: u64,
    item: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.ready == other.ready && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest ready time (then
        // the lowest sequence number) is popped first.
        other
            .ready
            .cmp(&self.ready)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A queue whose items become visible at a scheduled cycle.
///
/// # Example
///
/// ```
/// use swgpu_types::{Cycle, DelayQueue};
///
/// let mut q = DelayQueue::new();
/// q.push(Cycle::new(10), "late");
/// q.push(Cycle::new(5), "early");
/// assert_eq!(q.pop_ready(Cycle::new(4)), None);
/// assert_eq!(q.pop_ready(Cycle::new(7)), Some("early"));
/// assert_eq!(q.pop_ready(Cycle::new(7)), None);
/// assert_eq!(q.pop_ready(Cycle::new(10)), Some("late"));
/// ```
#[derive(Debug)]
pub struct DelayQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> Default for DelayQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> DelayQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `item` to become visible at cycle `ready`.
    pub fn push(&mut self, ready: Cycle, item: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { ready, seq, item });
    }

    /// Schedules `item` to become visible `delay` cycles after `now`.
    pub fn push_after(&mut self, now: Cycle, delay: u64, item: T) {
        self.push(now + delay, item);
    }

    /// Removes and returns the earliest item that is ready at `now`, if any.
    /// Items scheduled for the same cycle come out in insertion order.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.heap.peek().is_some_and(|e| e.ready <= now) {
            self.heap.pop().map(|e| e.item)
        } else {
            None
        }
    }

    /// The ready time of the earliest item, if the queue is non-empty.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.ready)
    }

    /// Number of items in flight (ready or not).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no items are in flight.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drains every item regardless of readiness (used at teardown / in
    /// tests). Items come out in (ready, insertion) order.
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(e) = self.heap.pop() {
            out.push(e.item);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_same_cycle() {
        let mut q = DelayQueue::new();
        let t = Cycle::new(3);
        q.push(t, 1);
        q.push(t, 2);
        q.push(t, 3);
        assert_eq!(q.pop_ready(t), Some(1));
        assert_eq!(q.pop_ready(t), Some(2));
        assert_eq!(q.pop_ready(t), Some(3));
        assert!(q.is_empty());
    }

    #[test]
    fn respects_ready_times() {
        let mut q = DelayQueue::new();
        q.push_after(Cycle::ZERO, 5, "a");
        q.push_after(Cycle::ZERO, 2, "b");
        assert_eq!(q.next_ready(), Some(Cycle::new(2)));
        assert_eq!(q.pop_ready(Cycle::new(1)), None);
        assert_eq!(q.pop_ready(Cycle::new(2)), Some("b"));
        assert_eq!(q.pop_ready(Cycle::new(4)), None);
        assert_eq!(q.pop_ready(Cycle::new(5)), Some("a"));
    }

    #[test]
    fn drain_all_orders_by_ready_then_seq() {
        let mut q = DelayQueue::new();
        q.push(Cycle::new(9), "z");
        q.push(Cycle::new(1), "a");
        q.push(Cycle::new(1), "b");
        assert_eq!(q.drain_all(), vec!["a", "b", "z"]);
    }

    #[test]
    fn len_tracks_in_flight() {
        let mut q = DelayQueue::new();
        assert!(q.is_empty());
        q.push(Cycle::new(1), ());
        q.push(Cycle::new(2), ());
        assert_eq!(q.len(), 2);
        q.pop_ready(Cycle::new(5));
        assert_eq!(q.len(), 1);
    }
}
