//! [`Port`] — the typed message channel between pipeline stages.
//!
//! A port is a [`DelayQueue`] used as a latency channel ([`Port::send`] /
//! [`Port::send_after`] + [`Port::recv`]): messages become visible a
//! fixed number of cycles after they were sent — the 80-cycle L2 TLB
//! hop, translation returns, the simulated driver's replay latency.
//! Plain backlogs with no latency (retry queues, the dispatch queue) are
//! `VecDeque`s, not ports.
//!
//! Ports implement [`Component`], so the kernel's drain/wake derivation
//! treats them uniformly with the timed components they connect.

use crate::{Component, Cycle, DelayQueue};

/// A typed, latency-aware channel between two simulation stages.
///
/// # Example
///
/// ```
/// use swgpu_types::{Cycle, Port};
///
/// let mut p = Port::new();
/// p.send_after(Cycle::ZERO, 3, "hop");
/// assert_eq!(p.recv(Cycle::new(2)), None);
/// assert_eq!(p.next_ready(), Some(Cycle::new(3)));
/// assert_eq!(p.recv(Cycle::new(3)), Some("hop"));
/// ```
#[derive(Debug)]
pub struct Port<T> {
    q: DelayQueue<T>,
}

impl<T> Default for Port<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Port<T> {
    /// Creates an empty port.
    pub fn new() -> Self {
        Self {
            q: DelayQueue::new(),
        }
    }

    /// Schedules `item` to become visible at cycle `ready`.
    pub fn send(&mut self, ready: Cycle, item: T) {
        self.q.push(ready, item);
    }

    /// Schedules `item` to become visible `delay` cycles after `now`.
    pub fn send_after(&mut self, now: Cycle, delay: u64, item: T) {
        self.q.push_after(now, delay, item);
    }

    /// Removes and returns the earliest item that is ready at `now`, if
    /// any. Same-cycle items come out in insertion order.
    pub fn recv(&mut self, now: Cycle) -> Option<T> {
        self.q.pop_ready(now)
    }

    /// The ready time of the earliest item, if any.
    pub fn next_ready(&self) -> Option<Cycle> {
        self.q.next_ready()
    }

    /// Number of items in flight (ready or not).
    pub fn len(&self) -> usize {
        self.q.len()
    }

    /// Whether no items are in flight.
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

impl<T> Component for Port<T> {
    fn next_event(&self) -> Option<Cycle> {
        self.q.next_ready()
    }

    fn is_idle(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_mode_delivers_on_schedule() {
        let mut p = Port::new();
        p.send(Cycle::new(10), "late");
        p.send_after(Cycle::new(1), 4, "early");
        assert_eq!(p.next_ready(), Some(Cycle::new(5)));
        assert_eq!(p.recv(Cycle::new(4)), None);
        assert_eq!(p.recv(Cycle::new(5)), Some("early"));
        assert_eq!(p.recv(Cycle::new(10)), Some("late"));
        assert!(p.is_empty());
    }

    #[test]
    fn component_view_matches_queue_state() {
        let mut p = Port::new();
        assert!(Component::is_idle(&p));
        assert_eq!(Component::next_event(&p), None);
        p.send(Cycle::new(7), ());
        assert!(!Component::is_idle(&p));
        assert_eq!(Component::next_event(&p), Some(Cycle::new(7)));
        assert_eq!(p.len(), 1);
    }
}
