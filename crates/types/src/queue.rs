//! A deterministic delay queue — the basic plumbing between pipeline stages.
//!
//! Components in the simulator communicate through message queues where each
//! message becomes visible only after a fixed latency (e.g. the 80-cycle
//! L2 TLB access, or the SM↔L2-TLB communication the paper charges
//! SoftWalker for). [`DelayQueue`] keeps messages ordered by ready time and,
//! for equal ready times, by insertion order, so simulations are fully
//! deterministic.
//!
//! The queue is a `VecDeque` kept sorted by ready time. Nearly every push
//! comes from a fixed-latency pipe, whose ready times never decrease, so
//! it appends in O(1); an earlier ready time is inserted behind the last
//! entry that is ready no later, which preserves insertion order among
//! ties.
//!
//! The front entry's ready time is also kept inline in the queue, so
//! asking a queue whose head is not yet due ([`DelayQueue::next_ready`],
//! or a [`DelayQueue::pop_ready`] that returns `None`) reads no buffer
//! memory. Every SM's `next_event` and every port `recv` asks that
//! question each step, and most of the time the answer is "not yet".

use crate::Cycle;
use std::collections::VecDeque;

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
    q: VecDeque<(Cycle, T)>,
    // The front entry's ready time: `None` exactly when `q` is empty, so
    // no cycle value, `u64::MAX` included, doubles as a marker.
    head: Option<Cycle>,
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
            q: VecDeque::new(),
            head: None,
        }
    }

    /// Schedules `item` to become visible at cycle `ready`.
    pub fn push(&mut self, ready: Cycle, item: T) {
        if self.q.back().is_none_or(|&(last, _)| last <= ready) {
            self.q.push_back((ready, item));
            if self.head.is_none() {
                self.head = Some(ready);
            }
        } else {
            let at = self.q.partition_point(|&(r, _)| r <= ready);
            self.q.insert(at, (ready, item));
            if at == 0 {
                self.head = Some(ready);
            }
        }
    }

    /// Schedules `item` to become visible `delay` cycles after `now`.
    pub fn push_after(&mut self, now: Cycle, delay: u64, item: T) {
        self.push(now + delay, item);
    }

    /// Removes and returns the earliest item that is ready at `now`, if any.
    /// Items scheduled for the same cycle come out in insertion order.
    pub fn pop_ready(&mut self, now: Cycle) -> Option<T> {
        if self.head.is_none_or(|r| r > now) {
            return None;
        }
        let (_, item) = self.q.pop_front().expect("a head time means an entry");
        self.head = self.q.front().map(|&(r, _)| r);
        Some(item)
    }

    /// The ready time of the earliest item, if the queue is non-empty.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.head
    }

    /// Number of items in flight (ready or not).
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether no items are in flight.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }

    /// Drains every item regardless of readiness (used at teardown / in
    /// tests). Items come out in (ready, insertion) order.
    pub fn drain_all(&mut self) -> Vec<T> {
        self.head = None;
        self.q.drain(..).map(|(_, item)| item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

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

    #[test]
    fn the_largest_cycle_is_a_ready_time_like_any_other() {
        let mut q = DelayQueue::new();
        q.push(Cycle::new(u64::MAX), "last");
        assert_eq!(q.next_ready(), Some(Cycle::new(u64::MAX)));
        q.push(Cycle::new(4), "first");
        assert_eq!(q.next_ready(), Some(Cycle::new(4)));
        assert_eq!(q.pop_ready(Cycle::new(u64::MAX - 1)), Some("first"));
        assert_eq!(q.pop_ready(Cycle::new(u64::MAX - 1)), None);
        assert_eq!(q.next_ready(), Some(Cycle::new(u64::MAX)));
        assert_eq!(q.pop_ready(Cycle::new(u64::MAX)), Some("last"));
        assert_eq!(q.next_ready(), None);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of every operation against a
        /// `BTreeMap<(ready, seq), item>` model of the ordering contract:
        /// earliest ready time first, insertion order among ties. Pushes
        /// mix in-order (at or after the back), out-of-order and tied
        /// ready times, and some land at the largest representable cycle;
        /// the clock only moves forward, as in a simulation, and can jump
        /// to that cycle too. `next_ready` and `len` are compared after
        /// every operation, so the inline head time is checked on every
        /// path that moves it.
        #[test]
        fn matches_ready_then_insertion_order_model(
            ops in prop::collection::vec((0u8..11, 0u64..12), 1..200),
        ) {
            let mut q = DelayQueue::new();
            let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
            let (mut now, mut seq) = (0u64, 0u64);
            for (op, arg) in ops {
                match op {
                    // Push relative to the newest entry: in order, tied
                    // with it, or earlier than it; or at the end of time.
                    0..=5 | 10 => {
                        let back = model.keys().map(|&(r, _)| r).max().unwrap_or(now);
                        let ready = match op {
                            0 | 1 => back.saturating_add(arg),
                            2 => back,
                            10 => u64::MAX,
                            _ => now.saturating_add(arg / 3),
                        };
                        q.push(Cycle::new(ready), seq);
                        model.insert((ready, seq), seq);
                        seq += 1;
                    }
                    6 | 7 => {
                        now = if arg == 11 { u64::MAX } else { now.saturating_add(arg / 2) };
                        let expect = model
                            .first_key_value()
                            .filter(|(&(r, _), _)| r <= now)
                            .map(|(&k, &v)| (k, v));
                        let got = q.pop_ready(Cycle::new(now));
                        prop_assert_eq!(got, expect.map(|(_, v)| v));
                        if let Some((k, _)) = expect {
                            model.remove(&k);
                        }
                    }
                    8 => {}
                    _ => {
                        if arg == 0 {
                            let expect: Vec<u64> = model.values().copied().collect();
                            prop_assert_eq!(q.drain_all(), expect);
                            model.clear();
                        }
                    }
                }
                let expect = model.keys().next().map(|&(r, _)| Cycle::new(r));
                prop_assert_eq!(q.next_ready(), expect);
                prop_assert_eq!(q.len(), model.len());
                prop_assert_eq!(q.is_empty(), model.is_empty());
            }
            let expect: Vec<u64> = model.into_values().collect();
            prop_assert_eq!(q.drain_all(), expect);
            prop_assert!(q.is_empty());
        }
    }
}
