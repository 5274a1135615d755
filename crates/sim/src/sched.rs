//! The event kernel's per-unit wake tables.

use swgpu_types::Cycle;

/// Per unit (an SM or a PW Warp), the cycle of its next due work
/// (`u64::MAX`: none). Refreshed from `Component::next_event` right after
/// the unit ticks, reset to 0 ("due now") at every delivery into it. A
/// unit whose entry is later than `now` has nothing to do and is not
/// ticked.
pub(crate) struct WakeTable {
    at: Vec<u64>,
    // The table's minimum, so the kernel reads one value per table. A
    // pass recomputes it after visiting every entry, and a delivery
    // zeroes it with its entry: a step whose stored SM minimum lies after
    // `now` (and that gave no SM an issue cycle to charge) skips the SM
    // pass outright.
    min: u64,
}

impl WakeTable {
    fn new(units: usize) -> Self {
        Self {
            at: vec![0; units],
            min: 0,
        }
    }

    /// A delivery into unit `i`: it ticks at the next step.
    fn wake(&mut self, i: usize) {
        self.at[i] = 0;
        self.min = 0;
    }

    /// Whether unit `i` ticks at `now` (every unit does when `dense`).
    pub(crate) fn due(&self, i: usize, now: Cycle, dense: bool) -> bool {
        dense || self.at[i] <= now.value()
    }

    pub(crate) fn ticked(&mut self, i: usize, next: Option<Cycle>) {
        self.at[i] = next.map_or(u64::MAX, Cycle::value);
    }

    /// Ends a pass that visited every unit.
    pub(crate) fn settle(&mut self) {
        self.min = self.at.iter().copied().min().unwrap_or(u64::MAX);
    }
}

/// The wake tables of the SMs and the PW Warps.
pub(crate) struct Scheduler {
    pub(crate) sm_wake: WakeTable,
    pub(crate) pw_wake: WakeTable,
    // Per SM: whether its PW Warp took the issue port this cycle.
    pub(crate) pw_issued: Vec<bool>,
}

impl Scheduler {
    pub(crate) fn new(sms: usize, pw_warps: usize) -> Self {
        Self {
            sm_wake: WakeTable::new(sms),
            pw_wake: WakeTable::new(pw_warps),
            pw_issued: vec![false; sms],
        }
    }

    pub(crate) fn wake_sm(&mut self, i: usize) {
        self.sm_wake.wake(i);
    }

    pub(crate) fn wake_pw(&mut self, i: usize) {
        self.pw_wake.wake(i);
    }

    /// Whether the SM pass can be skipped outright: no SM is due and none
    /// has a PW-issue cycle to charge.
    pub(crate) fn sms_idle(&self, now: Cycle, dense: bool) -> bool {
        !dense && self.sm_wake.min > now.value() && !self.pw_issued.contains(&true)
    }

    pub(crate) fn next_wake(&self) -> u64 {
        self.sm_wake.min.min(self.pw_wake.min)
    }
}
