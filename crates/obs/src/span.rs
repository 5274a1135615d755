//! Cycle-stamped spans and instant events.

/// Declares [`SpanKind`] from one table. Each row is a variant, its
/// stable serialized code (codes are `0..COUNT`, in row order), its
/// Perfetto name, and whether it is an instant; the SWTB digests and the
/// exported trace names pin the codes and names.
macro_rules! span_kinds {
    ($($(#[$doc:meta])* $V:ident = $code:literal, $name:literal, $instant:literal;)*) => {
        /// What a [`Span`] describes. Instant kinds have `start == end`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum SpanKind {
            $($(#[$doc])* $V = $code,)*
        }

        impl SpanKind {
            /// Number of distinct kinds (codes are `0..COUNT`).
            pub const COUNT: usize = [$($code),*].len();

            /// Every kind, in code order.
            pub const ALL: [SpanKind; Self::COUNT] = [$(SpanKind::$V),*];

            /// Stable numeric code used by the serialized form.
            pub fn code(self) -> u64 {
                self as u64
            }

            /// Inverse of [`SpanKind::code`].
            pub fn from_code(code: u64) -> Option<Self> {
                match code {
                    $($code => Some(SpanKind::$V),)*
                    _ => None,
                }
            }

            /// Human-readable name used by the Perfetto exporter.
            pub fn name(self) -> &'static str {
                match self {
                    $(SpanKind::$V => $name,)*
                }
            }

            /// Whether this kind is an instant (zero-duration) event.
            pub fn is_instant(self) -> bool {
                match self {
                    $(SpanKind::$V => $instant,)*
                }
            }
        }
    };
}

span_kinds! {
    /// Hardware walk: issue → walker start (PWB queueing).
    HwQueue = 0, "hw_queue", false;
    /// Hardware walk: walker start → completion (page-table access).
    HwWalk = 1, "hw_walk", false;
    /// Software walk: issue → distributor dispatch.
    SwQueue = 2, "sw_queue", false;
    /// Software walk: SoftPWB arrival → PW-Warp thread pickup.
    SwPwbWait = 3, "sw_pwb_wait", false;
    /// Software walk: thread pickup → FL2T completion.
    SwExec = 4, "sw_exec", false;
    /// Instant: one page-table level decoded (`aux` = radix level).
    PteRead = 5, "pte_read", true;
    /// PW Warp issue port busy interval (`track` = SM index).
    PwWarpBusy = 6, "pw_warp_busy", false;
    /// Instant: distributor dispatched a walk to a core (`aux` = SM).
    Dispatch = 7, "dispatch", true;
    /// Instant: a translation took the fault/driver-replay path.
    Fault = 8, "fault", true;
    /// Instant: a fill watchdog re-issued a dropped driver fill
    /// completion (`aux` = retry number).
    FillRetry = 9, "fill_retry", true;
    /// Instant: the distributor issued a translation prefetch into an
    /// idle PW-Warp thread (`aux` = SM index).
    Prefetch = 10, "prefetch", true;
}

/// One cycle-stamped interval (or instant) on a track.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// What happened.
    pub kind: SpanKind,
    /// Track the span renders on: SM index for per-core events, 0 for
    /// subsystem-global ones.
    pub track: u32,
    /// Start cycle.
    pub start: u64,
    /// End cycle (== `start` for instants).
    pub end: u64,
    /// VPN involved, or 0 when not applicable.
    pub vpn: u64,
    /// Kind-specific payload (radix level, target SM, fault code).
    pub aux: u64,
}

impl Span {
    /// Duration in cycles.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A bounded span buffer with two personalities:
///
/// * **Legacy (no sink):** records up to `cap` spans and counts the rest
///   as dropped (total and per kind) rather than growing without limit.
/// * **Streaming:** with a sink attached ([`SpanRecorder::set_streaming`])
///   the buffer is a small *staging area* — `record` never drops; instead
///   the owner drains full stagings to the sink via
///   [`SpanRecorder::take_staged`], so capacity bounds memory, not
///   fidelity.
#[derive(Debug, Clone, Default)]
pub struct SpanRecorder {
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    dropped_by_kind: [u64; SpanKind::COUNT],
    streaming: bool,
    flushed: u64,
}

impl SpanRecorder {
    /// A recorder retaining (or staging) at most `cap` spans.
    pub fn new(cap: usize) -> Self {
        Self {
            spans: Vec::new(),
            cap,
            dropped: 0,
            dropped_by_kind: [0; SpanKind::COUNT],
            streaming: false,
            flushed: 0,
        }
    }

    /// Switches the recorder into streaming-staging mode (or back).
    /// While streaming, `record` never drops — the owner is responsible
    /// for draining the staging buffer when [`SpanRecorder::needs_flush`]
    /// reports it full.
    pub fn set_streaming(&mut self, on: bool) {
        self.streaming = on;
    }

    /// Whether the staging buffer has reached capacity and should be
    /// drained to the sink before the next `record`.
    pub fn needs_flush(&self) -> bool {
        self.streaming && self.spans.len() >= self.cap
    }

    /// Drains the staged spans for the sink, counting them as flushed.
    pub fn take_staged(&mut self) -> Vec<Span> {
        self.flushed += self.spans.len() as u64;
        std::mem::take(&mut self.spans)
    }

    /// Spans handed to the sink so far (0 means the in-memory span set
    /// is still complete).
    pub fn flushed(&self) -> u64 {
        self.flushed
    }

    /// Records a span, or counts it dropped when at capacity (legacy
    /// mode only — a streaming recorder never drops).
    pub fn record(&mut self, span: Span) {
        if self.streaming || self.spans.len() < self.cap {
            self.spans.push(span);
        } else {
            self.dropped += 1;
            self.dropped_by_kind[span.kind.code() as usize] += 1;
        }
    }

    /// Records an instant event at `at`.
    pub fn instant(&mut self, kind: SpanKind, track: u32, at: u64, vpn: u64, aux: u64) {
        self.record(Span {
            kind,
            track,
            start: at,
            end: at,
            vpn,
            aux,
        });
    }

    /// Retained (or currently staged) spans in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans discarded because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-kind drop counters, indexed by [`SpanKind::code`].
    pub fn dropped_by_kind(&self) -> &[u64; SpanKind::COUNT] {
        &self.dropped_by_kind
    }

    /// Consumes the recorder, yielding
    /// `(spans, dropped, dropped_by_kind, flushed)`.
    #[allow(clippy::type_complexity)]
    pub fn into_parts(self) -> (Vec<Span>, u64, [u64; SpanKind::COUNT], u64) {
        (self.spans, self.dropped, self.dropped_by_kind, self.flushed)
    }
}

/// Coalesces per-cycle busy bits into [`SpanKind::PwWarpBusy`] intervals:
/// N consecutive busy cycles become one span instead of N.
#[derive(Debug, Clone, Copy)]
pub struct BusyTracker {
    track: u32,
    open: Option<(u64, u64)>,
}

impl BusyTracker {
    /// A tracker rendering onto `track`.
    pub fn new(track: u32) -> Self {
        Self { track, open: None }
    }

    /// Reports this cycle's busy bit. Closing a run yields its span for
    /// the caller to record.
    pub fn tick(&mut self, now: u64, busy: bool) -> Option<Span> {
        match (self.open, busy) {
            (None, true) => {
                self.open = Some((now, now));
                None
            }
            (Some((start, last)), true) if now == last + 1 => {
                self.open = Some((start, now));
                None
            }
            (Some(_), true) => {
                // Non-contiguous tick (the owner skipped cycles): close
                // the stale run and open a fresh one.
                let closed = self.flush();
                self.open = Some((now, now));
                closed
            }
            (Some(_), false) => self.flush(),
            (None, false) => None,
        }
    }

    /// Closes any open run (end of simulation), yielding its span.
    pub fn flush(&mut self) -> Option<Span> {
        self.open.take().map(|(start, last)| Span {
            kind: SpanKind::PwWarpBusy,
            track: self.track,
            start,
            // A run of busy cycles [start, last] occupies the issue
            // port through the end of cycle `last`.
            end: last + 1,
            vpn: 0,
            aux: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_codes_round_trip() {
        for code in 0..=10u64 {
            let k = SpanKind::from_code(code).expect("valid code");
            assert_eq!(k.code(), code);
        }
        assert_eq!(SpanKind::from_code(99), None);
    }

    #[test]
    fn recorder_drops_beyond_capacity() {
        let mut r = SpanRecorder::new(2);
        for i in 0..5u64 {
            r.instant(SpanKind::Dispatch, 0, i, 0, 0);
        }
        r.instant(SpanKind::Fault, 0, 9, 0, 0);
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.dropped_by_kind()[SpanKind::Dispatch.code() as usize], 3);
        assert_eq!(r.dropped_by_kind()[SpanKind::Fault.code() as usize], 1);
    }

    #[test]
    fn streaming_recorder_stages_instead_of_dropping() {
        let mut r = SpanRecorder::new(2);
        r.set_streaming(true);
        for i in 0..3u64 {
            assert!(!r.needs_flush() || i >= 2);
            r.instant(SpanKind::Dispatch, 0, i, 0, 0);
        }
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.spans().len(), 3, "staging grows past cap, never drops");
        assert!(r.needs_flush());
        let staged = r.take_staged();
        assert_eq!(staged.len(), 3);
        assert_eq!(r.flushed(), 3);
        assert!(r.spans().is_empty());
        assert!(!r.needs_flush());
    }

    #[test]
    fn all_kinds_match_their_codes() {
        for (i, k) in SpanKind::ALL.iter().enumerate() {
            assert_eq!(k.code(), i as u64);
        }
        assert_eq!(SpanKind::ALL.len(), SpanKind::COUNT);
    }

    #[test]
    fn busy_tracker_coalesces_runs() {
        let mut r = SpanRecorder::new(16);
        let mut b = BusyTracker::new(3);
        for now in 0..10u64 {
            if let Some(s) = b.tick(now, (2..5).contains(&now) || (7..9).contains(&now)) {
                r.record(s);
            }
        }
        if let Some(s) = b.flush() {
            r.record(s);
        }
        let spans = r.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start, spans[0].end), (2, 5));
        assert_eq!((spans[1].start, spans[1].end), (7, 9));
        assert!(spans.iter().all(|s| s.track == 3));
    }

    #[test]
    fn busy_tracker_closes_on_gap() {
        let mut spans = Vec::new();
        let mut b = BusyTracker::new(0);
        spans.extend(b.tick(0, true));
        spans.extend(b.tick(5, true)); // gap: cycles 1..4 unobserved
        spans.extend(b.flush());
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].start, spans[0].end), (0, 1));
        assert_eq!((spans[1].start, spans[1].end), (5, 6));
    }
}
