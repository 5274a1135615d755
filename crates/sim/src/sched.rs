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
    // pass folds it while visiting every unit, which reads or writes each
    // entry anyway, and stores it at the end; a delivery zeroes it with
    // its entry: a step whose stored SM minimum lies after `now` (and
    // that gave no SM an issue cycle to charge) skips the SM pass
    // outright.
    min: u64,
    // The minimum of the entries the current pass has visited (`u64::MAX`
    // between passes).
    folded: u64,
}

impl WakeTable {
    fn new(units: usize) -> Self {
        Self {
            at: vec![0; units],
            min: 0,
            folded: u64::MAX,
        }
    }

    /// A delivery into unit `i`: it ticks at the next step.
    fn wake(&mut self, i: usize) {
        self.at[i] = 0;
        self.min = 0;
    }

    /// Visits unit `i` in a pass: whether it ticks at `now` (every unit
    /// does when `dense`). A unit that does not keeps its entry, which
    /// joins the pass's minimum here; one that does joins it through
    /// [`WakeTable::ticked`].
    pub(crate) fn visit(&mut self, i: usize, now: Cycle, dense: bool) -> bool {
        let at = self.at[i];
        if dense || at <= now.value() {
            return true;
        }
        self.folded = self.folded.min(at);
        false
    }

    /// Unit `i` ticked; `next` is its `next_event` afterwards.
    pub(crate) fn ticked(&mut self, i: usize, next: Option<Cycle>) {
        let at = next.map_or(u64::MAX, Cycle::value);
        self.at[i] = at;
        self.folded = self.folded.min(at);
    }

    /// Ends a pass that visited every unit: its folded minimum becomes
    /// the table's. No delivery lands inside a pass (units only send
    /// downstream while they tick), so the fold saw every final entry.
    pub(crate) fn end_pass(&mut self) {
        debug_assert_eq!(
            self.folded,
            self.at.iter().copied().min().unwrap_or(u64::MAX),
            "a wake-table pass missed an entry"
        );
        self.min = std::mem::replace(&mut self.folded, u64::MAX);
    }
}

/// The wake tables of the SMs and the PW Warps.
pub(crate) struct Scheduler {
    pub(crate) sm_wake: WakeTable,
    pub(crate) pw_wake: WakeTable,
    // Per SM: whether its PW Warp took the issue port this cycle.
    pw_issued: Vec<bool>,
    // How many entries of `pw_issued` are set.
    pw_issues: usize,
}

impl Scheduler {
    pub(crate) fn new(sms: usize, pw_warps: usize) -> Self {
        Self {
            sm_wake: WakeTable::new(sms),
            pw_wake: WakeTable::new(pw_warps),
            pw_issued: vec![false; sms],
            pw_issues: 0,
        }
    }

    pub(crate) fn wake_sm(&mut self, i: usize) {
        self.sm_wake.wake(i);
    }

    pub(crate) fn wake_pw(&mut self, i: usize) {
        self.pw_wake.wake(i);
    }

    /// Whether SM `i`'s PW Warp took the issue port this cycle.
    pub(crate) fn pw_issued(&self, i: usize) -> bool {
        self.pw_issued[i]
    }

    /// Starts a PW Warp pass: no PW Warp has taken its issue port yet
    /// this cycle.
    pub(crate) fn begin_pw_pass(&mut self) {
        if self.pw_issues > 0 {
            self.pw_issued.fill(false);
            self.pw_issues = 0;
        }
    }

    /// SM `i`'s PW Warp took the issue port this cycle.
    pub(crate) fn note_pw_issue(&mut self, i: usize) {
        debug_assert!(!self.pw_issued[i], "PW Warp {i} issued twice in a cycle");
        self.pw_issued[i] = true;
        self.pw_issues += 1;
    }

    /// Whether the SM pass can be skipped outright: no SM is due and none
    /// has a PW-issue cycle to charge.
    pub(crate) fn sms_idle(&self, now: Cycle, dense: bool) -> bool {
        debug_assert_eq!(
            self.pw_issues,
            self.pw_issued.iter().filter(|&&b| b).count()
        );
        !dense && self.sm_wake.min > now.value() && self.pw_issues == 0
    }

    pub(crate) fn next_wake(&self) -> u64 {
        self.sm_wake.min.min(self.pw_wake.min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random deliveries between passes, then passes that tick the
        /// due units (or all of them, when dense) with random next
        /// events, skipping the rest: after every pass the folded
        /// minimum equals a full scan of the entries, and between passes
        /// the stored minimum never lies after any entry.
        #[test]
        fn folded_pass_minimum_matches_a_full_scan(
            units in 1usize..12,
            rounds in prop::collection::vec(
                (
                    prop::collection::vec(0usize..12, 0..4),
                    any::<bool>(),
                    // A draw of 40 or more means no next event.
                    prop::collection::vec(0u64..50, 12..13),
                ),
                1..40,
            ),
        ) {
            let mut t = WakeTable::new(units);
            let mut now = 0u64;
            for (wakes, dense, nexts) in rounds {
                for w in wakes {
                    t.wake(w % units);
                    prop_assert!(t.min <= t.at.iter().copied().min().unwrap());
                }
                for (i, &next) in nexts.iter().enumerate().take(units) {
                    if t.visit(i, Cycle::new(now), dense) {
                        t.ticked(i, (next < 40).then(|| Cycle::new(now + 1 + next)));
                    }
                }
                t.end_pass();
                prop_assert_eq!(t.min, t.at.iter().copied().min().unwrap());
                now += 1 + nexts[0] % 5;
            }
        }

        /// Over random passes, the PW-issue count always equals the
        /// number of set flags, and a pass starts with none set.
        #[test]
        fn pw_issue_count_tracks_the_flags(
            passes in prop::collection::vec(prop::collection::vec(any::<bool>(), 8..9), 1..16),
        ) {
            let mut s = Scheduler::new(8, 8);
            for issued in passes {
                s.begin_pw_pass();
                prop_assert!(!s.pw_issued.contains(&true));
                for (i, _) in issued.iter().enumerate().filter(|(_, &b)| b) {
                    s.note_pw_issue(i);
                    prop_assert_eq!(s.pw_issues, s.pw_issued.iter().filter(|&&b| b).count());
                }
            }
        }
    }
}
