//! The serializable end-of-run observability report.

use crate::hist::Histogram;
use crate::json::{self, Value};
use crate::registry::Registry;
use crate::series::TimeSeries;
use crate::span::{Span, SpanKind, SpanRecorder};

/// Everything the observability layer recorded over a run: retained
/// spans, counters, histograms and sampled time-series. This is what gets
/// embedded (as the `"obs"` payload) in schema-v3 run artifacts and what
/// the Perfetto exporter renders.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Sampling interval the series were collected at, in cycles.
    pub interval: u64,
    /// Retained spans, in recording order.
    pub spans: Vec<Span>,
    /// Spans dropped because the recorder was at capacity.
    pub spans_dropped: u64,
    /// Per-kind breakdown of `spans_dropped`, indexed by
    /// [`SpanKind::code`].
    pub spans_dropped_by_kind: [u64; SpanKind::COUNT],
    /// Spans flushed to a streaming sink during the run. Non-zero means
    /// `spans` holds only the final staging tail — the complete span set
    /// lives in the SWTB file the sink wrote.
    pub spans_flushed: u64,
    /// Named counters, in registration order.
    pub counters: Vec<(String, u64)>,
    /// Named histograms, in registration order.
    pub histograms: Vec<(String, Histogram)>,
    /// Named time-series, in registration order.
    pub series: Vec<(String, TimeSeries)>,
}

impl ObsReport {
    /// Assembles a report from a drained registry and span recorder.
    pub fn from_instruments(reg: Registry, spans: SpanRecorder) -> Self {
        let interval = reg.interval();
        let (counters, histograms, series) = reg.into_parts();
        let (spans, spans_dropped, spans_dropped_by_kind, spans_flushed) = spans.into_parts();
        Self {
            interval,
            spans,
            spans_dropped,
            spans_dropped_by_kind,
            spans_flushed,
            counters,
            histograms,
            series,
        }
    }

    /// Non-zero per-kind drop counts, in kind-code order.
    pub fn dropped_by_kind(&self) -> impl Iterator<Item = (SpanKind, u64)> + '_ {
        SpanKind::ALL
            .iter()
            .map(|&k| (k, self.spans_dropped_by_kind[k.code() as usize]))
            .filter(|&(_, n)| n > 0)
    }

    /// Whether the in-memory span set is complete (nothing was flushed
    /// to a streaming sink mid-run).
    pub fn spans_complete(&self) -> bool {
        self.spans_flushed == 0
    }

    /// Looks up a histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Looks up a time-series by name.
    pub fn time_series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.iter().find(|(n, _)| n == name).map(|(_, s)| s)
    }

    /// Serializes the report as a single nested JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.spans.len() * 24);
        out.push_str("{\"interval\":");
        out.push_str(&self.interval.to_string());
        out.push_str(",\"spans_dropped\":");
        out.push_str(&self.spans_dropped.to_string());
        out.push_str(",\"spans_dropped_by_kind\":{");
        for (i, (kind, n)) in self.dropped_by_kind().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{n}", kind.name()));
        }
        out.push_str("},\"spans_flushed\":");
        out.push_str(&self.spans_flushed.to_string());
        out.push_str(",\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "[{},{},{},{},{},{}]",
                s.kind.code(),
                s.track,
                s.start,
                s.end,
                s.vpn,
                s.aux
            ));
        }
        out.push_str("],\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"hists\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"sum\":{},\"max\":{},\"buckets\":[",
                h.sum(),
                h.max()
            ));
            for (j, (idx, c)) in h.nonzero_buckets().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{idx},{c}]"));
            }
            out.push_str("]}");
        }
        out.push_str("},\"series\":{");
        for (i, (name, s)) in self.series.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"first\":{},\"samples\":[",
                s.first_index()
            ));
            for (j, v) in s.samples().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&v.to_string());
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Parses a report serialized by [`ObsReport::to_json`]. Returns
    /// `None` on any structural mismatch (the caller treats the artifact
    /// as stale and re-simulates).
    pub fn from_json(input: &str) -> Option<Self> {
        Self::from_value(&json::parse(input).ok()?)
    }

    /// [`ObsReport::from_json`] over an already-parsed value, e.g. the
    /// `obs` member of a run artifact.
    pub fn from_value(root: &Value) -> Option<Self> {
        let interval = root.get("interval")?.as_u64()?;
        let spans_dropped = root.get("spans_dropped")?.as_u64()?;
        let mut spans_dropped_by_kind = [0u64; SpanKind::COUNT];
        for (name, n) in root.get("spans_dropped_by_kind")?.as_obj()? {
            let kind = SpanKind::ALL.iter().find(|k| k.name() == name)?;
            spans_dropped_by_kind[kind.code() as usize] = n.as_u64()?;
        }
        let spans_flushed = root.get("spans_flushed")?.as_u64()?;

        let mut spans = Vec::new();
        for item in root.get("spans")?.as_arr()? {
            let f = item.as_arr()?;
            if f.len() != 6 {
                return None;
            }
            let nums: Vec<u64> = f.iter().map(Value::as_u64).collect::<Option<_>>()?;
            spans.push(Span {
                kind: SpanKind::from_code(nums[0])?,
                track: u32::try_from(nums[1]).ok()?,
                start: nums[2],
                end: nums[3],
                vpn: nums[4],
                aux: nums[5],
            });
        }

        let mut counters = Vec::new();
        for (name, v) in root.get("counters")?.as_obj()? {
            counters.push((name.clone(), v.as_u64()?));
        }

        let mut histograms = Vec::new();
        for (name, h) in root.get("hists")?.as_obj()? {
            let sum = h.get("sum")?.as_u64()?;
            let max = h.get("max")?.as_u64()?;
            let mut pairs = Vec::new();
            for pair in h.get("buckets")?.as_arr()? {
                let p = pair.as_arr()?;
                if p.len() != 2 {
                    return None;
                }
                pairs.push((p[0].as_u64()? as usize, p[1].as_u64()?));
            }
            histograms.push((name.clone(), Histogram::from_parts(&pairs, sum, max)));
        }

        let mut series = Vec::new();
        for (name, s) in root.get("series")?.as_obj()? {
            let first = s.get("first")?.as_u64()?;
            let samples: Vec<u64> = s
                .get("samples")?
                .as_arr()?
                .iter()
                .map(Value::as_u64)
                .collect::<Option<_>>()?;
            let cap = samples.len();
            series.push((name.clone(), TimeSeries::from_parts(cap, first, samples)));
        }

        Some(Self {
            interval,
            spans,
            spans_dropped,
            spans_dropped_by_kind,
            spans_flushed,
            counters,
            histograms,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> ObsReport {
        let mut reg = Registry::new(128, 4);
        let c = reg.counter("dispatches");
        let h = reg.hist("walk_total");
        let s = reg.series("pwb_occupancy");
        reg.inc(c, 17);
        for v in [3u64, 40, 400, 4000] {
            reg.observe(h, v);
        }
        for v in 0..6u64 {
            reg.sample(s, v * 2);
        }
        let mut spans = SpanRecorder::new(8);
        spans.record(Span {
            kind: SpanKind::HwWalk,
            track: 0,
            start: 10,
            end: 400,
            vpn: 99,
            aux: 0,
        });
        spans.instant(SpanKind::PteRead, 2, 55, 99, 3);
        ObsReport::from_instruments(reg, spans)
    }

    #[test]
    fn json_round_trips_exactly() {
        let report = sample_report();
        let json = report.to_json();
        let back = ObsReport::from_json(&json).expect("parses");
        assert_eq!(back, report);
        // Serialization is canonical: re-serializing is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn empty_report_round_trips() {
        let report = ObsReport::default();
        let back = ObsReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
    }

    #[test]
    fn truncated_json_is_rejected() {
        let json = sample_report().to_json();
        assert!(ObsReport::from_json(&json[..json.len() - 3]).is_none());
        assert!(ObsReport::from_json("{}").is_none());
    }

    #[test]
    fn lookups_find_named_instruments() {
        let report = sample_report();
        assert_eq!(report.counter("dispatches"), Some(17));
        assert_eq!(report.histogram("walk_total").unwrap().count(), 4);
        assert_eq!(report.time_series("pwb_occupancy").unwrap().len(), 4);
        assert!(report.counter("missing").is_none());
    }

    #[test]
    fn drop_breakdown_and_flush_count_round_trip() {
        let mut spans = SpanRecorder::new(1);
        spans.instant(SpanKind::Dispatch, 0, 1, 0, 0);
        spans.instant(SpanKind::Dispatch, 0, 2, 0, 0);
        spans.instant(SpanKind::Fault, 0, 3, 0, 0);
        let mut report = ObsReport::from_instruments(Registry::new(64, 4), spans);
        report.spans_flushed = 17;
        assert_eq!(report.spans_dropped, 2);
        assert!(!report.spans_complete());
        let back = ObsReport::from_json(&report.to_json()).expect("parses");
        assert_eq!(back, report);
        assert_eq!(
            back.dropped_by_kind().collect::<Vec<_>>(),
            vec![(SpanKind::Dispatch, 1), (SpanKind::Fault, 1)]
        );
        assert_eq!(back.spans_flushed, 17);
    }

    #[test]
    fn series_window_survives_round_trip() {
        let report = sample_report();
        let back = ObsReport::from_json(&report.to_json()).unwrap();
        let s = back.time_series("pwb_occupancy").unwrap();
        assert_eq!(s.first_index(), 2, "ring evicted the first two samples");
        assert_eq!(s.samples(), vec![4, 6, 8, 10]);
    }
}
