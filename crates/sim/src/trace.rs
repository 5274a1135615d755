//! Optional per-walk lifecycle tracing.
//!
//! When enabled (`GpuConfig::walk_trace_cap > 0`), the simulator records
//! the lifecycle of the first N completed page walks: issue (L2 TLB miss),
//! walker start (end of queueing) and completion. This is the measured
//! counterpart of the paper's *conceptual* Figure 9 timeline — the
//! `fig09_timeline` harness renders it for the three scenarios the figure
//! sketches (ideal hardware, limited hardware, software).

use swgpu_obs::json::Value;
use swgpu_types::{Cycle, Vpn};

/// Which engine completed a walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkerKind {
    /// A hardware page table walker.
    Hardware,
    /// A SoftWalker PW thread.
    Software,
}

/// One completed walk's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkRecord {
    /// Translated VPN.
    pub vpn: Vpn,
    /// When the L2 TLB miss allocated the walk.
    pub issued_at: Cycle,
    /// When a walker/PW thread began processing (end of queueing).
    pub started_at: Cycle,
    /// When the translation resolved at the L2 TLB.
    pub completed_at: Cycle,
    /// Hardware or software engine.
    pub walker: WalkerKind,
}

impl WalkRecord {
    /// Queueing component of this walk's latency.
    pub fn queue_cycles(&self) -> u64 {
        self.started_at.since(self.issued_at)
    }

    /// Access (processing) component, including any communication.
    pub fn access_cycles(&self) -> u64 {
        self.completed_at.since(self.started_at)
    }

    /// Total walk latency.
    pub fn total_cycles(&self) -> u64 {
        self.completed_at.since(self.issued_at)
    }
}

/// A bounded collector for [`WalkRecord`]s.
#[derive(Debug, Clone, Default)]
pub struct WalkTrace {
    records: Vec<WalkRecord>,
    cap: usize,
}

impl WalkTrace {
    /// Creates a collector keeping at most `cap` records (0 disables).
    pub fn new(cap: usize) -> Self {
        Self {
            records: Vec::with_capacity(cap.min(4096)),
            cap,
        }
    }

    /// Reconstructs a collector from persisted records (run-artifact
    /// loading). Records beyond `cap` are dropped, preserving the
    /// invariant that a trace never exceeds its cap.
    pub fn from_parts(cap: usize, mut records: Vec<WalkRecord>) -> Self {
        records.truncate(cap);
        Self { records, cap }
    }

    /// The record cap this collector was created with.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Whether the collector still accepts records.
    pub fn accepting(&self) -> bool {
        self.records.len() < self.cap
    }

    /// Records one completed walk (dropped once the cap is reached).
    pub fn record(&mut self, rec: WalkRecord) {
        if self.accepting() {
            self.records.push(rec);
        }
    }

    /// The collected records, in completion order.
    pub fn records(&self) -> &[WalkRecord] {
        &self.records
    }

    /// Number of records collected.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Serializes the collected records as a JSON array of fixed-shape
    /// number arrays: `[[vpn, issued, started, completed, walker], ...]`
    /// with `walker` 0 = hardware, 1 = software. The cap is *not* part of
    /// this payload — the run artifact stores it alongside so a loaded
    /// trace can be validated against the requesting configuration.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .records
            .iter()
            .map(|r| {
                format!(
                    "[{},{},{},{},{}]",
                    r.vpn.value(),
                    r.issued_at.value(),
                    r.started_at.value(),
                    r.completed_at.value(),
                    match r.walker {
                        WalkerKind::Hardware => 0,
                        WalkerKind::Software => 1,
                    }
                )
            })
            .collect();
        format!("[{}]", rows.join(","))
    }

    /// Rebuilds a collector with the given `cap` from a parsed
    /// [`WalkTrace::to_json`] payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed row if `payload` is
    /// not an array of 5-integer arrays with a valid walker kind.
    pub fn from_value(cap: usize, payload: &Value) -> Result<Self, String> {
        let rows = payload
            .as_arr()
            .ok_or_else(|| "walk trace is not a JSON array".to_string())?;
        let records = rows
            .iter()
            .map(|row| {
                let nums: Option<Vec<u64>> = row
                    .as_arr()
                    .and_then(|f| f.iter().map(Value::as_u64).collect());
                let Some(&[vpn, issued, started, completed, walker]) = nums.as_deref() else {
                    return Err(format!("walk trace row is not 5 integers: {row:?}"));
                };
                Ok(WalkRecord {
                    vpn: Vpn::new(vpn),
                    issued_at: Cycle::new(issued),
                    started_at: Cycle::new(started),
                    completed_at: Cycle::new(completed),
                    walker: match walker {
                        0 => WalkerKind::Hardware,
                        1 => WalkerKind::Software,
                        other => return Err(format!("bad walker kind {other}")),
                    },
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self::from_parts(cap, records))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swgpu_obs::json;

    fn from_json(cap: usize, text: &str) -> Result<WalkTrace, String> {
        WalkTrace::from_value(cap, &json::parse(text).map_err(|e| e.to_string())?)
    }

    fn rec(issued: u64, started: u64, done: u64) -> WalkRecord {
        WalkRecord {
            vpn: Vpn::new(1),
            issued_at: Cycle::new(issued),
            started_at: Cycle::new(started),
            completed_at: Cycle::new(done),
            walker: WalkerKind::Hardware,
        }
    }

    #[test]
    fn record_decomposes_latency() {
        let r = rec(10, 110, 310);
        assert_eq!(r.queue_cycles(), 100);
        assert_eq!(r.access_cycles(), 200);
        assert_eq!(r.total_cycles(), 300);
    }

    #[test]
    fn collector_respects_cap() {
        let mut t = WalkTrace::new(2);
        for i in 0..5 {
            t.record(rec(i, i + 1, i + 2));
        }
        assert_eq!(t.len(), 2);
        assert!(!t.accepting());
        assert_eq!(t.records()[0].issued_at, Cycle::new(0));
    }

    #[test]
    fn zero_cap_disables() {
        let mut t = WalkTrace::new(0);
        t.record(rec(0, 1, 2));
        assert!(t.is_empty());
    }

    #[test]
    fn json_round_trips_records_and_cap() {
        let mut t = WalkTrace::new(8);
        t.record(rec(10, 110, 310));
        t.record(WalkRecord {
            walker: WalkerKind::Software,
            ..rec(20, 25, 400)
        });
        let j = t.to_json();
        assert!(j.starts_with("[[") && j.ends_with("]]"), "{j}");
        let back = from_json(8, &j).expect("parse");
        assert_eq!(back.cap(), 8);
        assert_eq!(back.records(), t.records());
        assert_eq!(back.to_json(), j, "round trip must be byte-identical");
    }

    #[test]
    fn empty_trace_serializes_as_empty_array() {
        let t = WalkTrace::new(4);
        assert_eq!(t.to_json(), "[]");
        let back = from_json(4, "[]").expect("parse");
        assert!(back.is_empty());
        assert_eq!(back.cap(), 4);
    }

    #[test]
    fn from_parts_enforces_cap() {
        let records = vec![rec(0, 1, 2), rec(3, 4, 5), rec(6, 7, 8)];
        let t = WalkTrace::from_parts(2, records);
        assert_eq!(t.len(), 2);
        assert!(!t.accepting());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(from_json(4, "{}").is_err());
        assert!(from_json(4, "[[1,2,3]]").is_err(), "short row");
        assert!(from_json(4, "[[1,2,3,4,7]]").is_err(), "walker");
        assert!(from_json(4, "[[1,2,3,4,x]]").is_err());
    }
}
