//! Live observability instruments of one run.

use swgpu_obs::{
    BusyTracker, CounterId, HistId, Registry, SeriesId, Span, SpanKind, SpanRecorder, SwtbStream,
};
use swgpu_types::{Cycle, PteReadEvent, Vpn};

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
    // Histogram handles (walk-latency decomposition, per-SM stalls).
    pub(crate) h_walk_total: HistId,
    pub(crate) h_walk_queue: HistId,
    pub(crate) h_walk_access: HistId,
    pub(crate) h_sm_stall: HistId,
    // Counter handles.
    pub(crate) c_dispatches: CounterId,
    pub(crate) c_pte_reads: CounterId,
    pub(crate) c_driver_replays: CounterId,
    // Sampled-occupancy series handles.
    pub(crate) s_softpwb: SeriesId,
    pub(crate) s_pw_active: SeriesId,
    pub(crate) s_hw_pwb: SeriesId,
    pub(crate) s_hw_active: SeriesId,
    pub(crate) s_mshr_dedicated: SeriesId,
    pub(crate) s_mshr_in_tlb: SeriesId,
    pub(crate) s_mshr_overflow: SeriesId,
    pub(crate) s_dispatch_q: SeriesId,
}

impl ObsState {
    pub(crate) fn new(cfg: &swgpu_obs::ObsConfig, sms: usize) -> Self {
        let mut reg = Registry::new(cfg.sample_interval, cfg.series_capacity);
        let h_walk_total = reg.hist("walk_total_cycles");
        let h_walk_queue = reg.hist("walk_queue_cycles");
        let h_walk_access = reg.hist("walk_access_cycles");
        let h_sm_stall = reg.hist("sm_stall_cycles");
        let c_dispatches = reg.counter("distributor_dispatches");
        let c_pte_reads = reg.counter("pte_reads");
        let c_driver_replays = reg.counter("driver_replays");
        let s_softpwb = reg.series("softpwb_occupancy");
        let s_pw_active = reg.series("pw_active_walks");
        let s_hw_pwb = reg.series("hw_pwb_depth");
        let s_hw_active = reg.series("hw_active_walks");
        let s_mshr_dedicated = reg.series("l2_mshr_dedicated");
        let s_mshr_in_tlb = reg.series("l2_mshr_in_tlb");
        let s_mshr_overflow = reg.series("l2_mshr_overflow_waiting");
        let s_dispatch_q = reg.series("dispatch_queue_depth");
        Self {
            reg,
            rec: SpanRecorder::new(cfg.span_capacity),
            stream: None,
            busy: (0..sms).map(|i| BusyTracker::new(i as u32)).collect(),
            next_sample: 0,
            interval: cfg.sample_interval,
            h_walk_total,
            h_walk_queue,
            h_walk_access,
            h_sm_stall,
            c_dispatches,
            c_pte_reads,
            c_driver_replays,
            s_softpwb,
            s_pw_active,
            s_hw_pwb,
            s_hw_active,
            s_mshr_dedicated,
            s_mshr_in_tlb,
            s_mshr_overflow,
            s_dispatch_q,
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
        self.reg.inc(self.c_pte_reads, events.len() as u64);
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
