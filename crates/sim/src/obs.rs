//! Live observability instruments of one run.

use swgpu_obs::{
    BusyTracker, CounterId, HistId, Registry, SeriesId, Span, SpanKind, SpanRecorder, SwtbStream,
};
use swgpu_types::{Cycle, PteReadEvent, Vpn};

/// Declares the run's instrument handles once: a field, the registry
/// call that makes it and the instrument's name per row. They register in
/// row order, which the SWTB bytes depend on.
macro_rules! instruments {
    ($($field:ident: $Id:ident = $make:ident($name:literal),)*) => {
        pub(crate) struct Instruments {
            $(pub(crate) $field: $Id,)*
        }

        impl Instruments {
            fn register(reg: &mut Registry) -> Self {
                Self { $($field: reg.$make($name),)* }
            }
        }
    };
}

instruments! {
    // Walk-latency decomposition and per-SM stalls.
    walk_total: HistId = hist("walk_total_cycles"),
    walk_queue: HistId = hist("walk_queue_cycles"),
    walk_access: HistId = hist("walk_access_cycles"),
    sm_stall: HistId = hist("sm_stall_cycles"),
    dispatches: CounterId = counter("distributor_dispatches"),
    pte_reads: CounterId = counter("pte_reads"),
    driver_replays: CounterId = counter("driver_replays"),
    // Sampled occupancy.
    softpwb: SeriesId = series("softpwb_occupancy"),
    pw_active: SeriesId = series("pw_active_walks"),
    hw_pwb: SeriesId = series("hw_pwb_depth"),
    hw_active: SeriesId = series("hw_active_walks"),
    mshr_dedicated: SeriesId = series("l2_mshr_dedicated"),
    mshr_in_tlb: SeriesId = series("l2_mshr_in_tlb"),
    mshr_overflow: SeriesId = series("l2_mshr_overflow_waiting"),
    dispatch_q: SeriesId = series("dispatch_queue_depth"),
}

/// Live observability instruments, allocated only when
/// [`swgpu_obs::ObsConfig::enabled`] is set. The simulator holds this
/// behind an `Option<Box<_>>` so a disabled run pays one pointer of
/// state and a handful of `is_some` branches — nothing else.
pub(crate) struct ObsState {
    pub(crate) reg: Registry,
    pub(crate) rec: SpanRecorder,
    /// Attached SWTB streaming sink, if any. With a stream the recorder
    /// runs in staging mode: full stagings flush here instead of
    /// dropping, and sample ticks emit instrument deltas.
    pub(crate) stream: Option<SwtbStream>,
    /// Per-SM PW-Warp issue-port busy coalescers.
    pub(crate) busy: Vec<BusyTracker>,
    /// Next cycle at which the time-series sample.
    pub(crate) next_sample: u64,
    pub(crate) interval: u64,
    /// Instrument handles, one per row of [`instruments!`].
    pub(crate) ids: Instruments,
}

impl ObsState {
    pub(crate) fn new(cfg: &swgpu_obs::ObsConfig, sms: usize) -> Self {
        let mut reg = Registry::new(cfg.sample_interval, cfg.series_capacity);
        let ids = Instruments::register(&mut reg);
        Self {
            reg,
            rec: SpanRecorder::new(cfg.span_capacity),
            stream: None,
            busy: (0..sms).map(|i| BusyTracker::new(i as u32)).collect(),
            next_sample: 0,
            interval: cfg.sample_interval,
            ids,
        }
    }

    /// Routes every span through one choke point so the staging buffer
    /// can flush to the stream *exactly* when it reaches capacity. The
    /// flush trigger depends only on recorded span content — never on
    /// the kernel's step schedule — which is what keeps dense⇔event
    /// SWTB output byte-identical.
    pub(crate) fn push(&mut self, span: Span) {
        if self.rec.needs_flush() {
            if let Some(stream) = self.stream.as_mut() {
                stream
                    .flush_spans(&self.rec.take_staged())
                    .expect("SWTB trace sink write failed");
            }
        }
        self.rec.record(span);
    }

    /// Ticks every PW-Warp issue-port busy coalescer at `at`, recording
    /// the busy runs that close.
    pub(crate) fn tick_busy(&mut self, at: u64, issued: impl Fn(usize) -> bool) {
        for i in 0..self.busy.len() {
            if let Some(s) = self.busy[i].tick(at, issued(i)) {
                self.push(s);
            }
        }
    }

    /// Records a walker's drained PTE reads as `PteRead` instants on
    /// `track` (0 for the hardware PTWs, the SM index for a PW Warp).
    pub(crate) fn pte_reads(&mut self, track: u32, events: Vec<PteReadEvent>) {
        self.reg.inc(self.ids.pte_reads, events.len() as u64);
        for e in events {
            let level = u64::from(e.level);
            self.instant(SpanKind::PteRead, track, e.at.value(), e.vpn.value(), level);
        }
    }

    pub(crate) fn instant(&mut self, kind: SpanKind, track: u32, at: u64, vpn: u64, aux: u64) {
        self.push(Span {
            kind,
            track,
            start: at,
            end: at,
            vpn,
            aux,
        });
    }

    pub(crate) fn span(&mut self, kind: SpanKind, track: u32, start: Cycle, end: Cycle, vpn: Vpn) {
        self.push(Span {
            kind,
            track,
            start: start.value(),
            end: end.value(),
            vpn: vpn.value(),
            aux: 0,
        });
    }
}
