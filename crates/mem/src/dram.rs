//! GDDR6-like DRAM timing model.
//!
//! Table 3: GDDR6 at 1750 MHz, 16 channels, 448 GB/s aggregate. We model
//! each channel as a serially-occupied resource: a request holds its channel
//! for a fixed service time (derived from per-channel bandwidth and the
//! 32-byte sector fill size) and completes after an additional fixed access
//! latency. This captures the two effects the paper's results depend on —
//! bandwidth saturation under load and long, roughly-constant access
//! latency when the memory system is underutilized (which it is: the paper
//! measures only 6.7% bandwidth use for irregular apps at baseline).

use crate::req::{AccessKind, MemReq};
use swgpu_types::{ensure, ConfigError, Cycle, DelayQueue, FaultInjectionStats, FaultInjector};

/// DRAM timing parameters.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// Number of independent channels (16 in Table 3).
    pub channels: usize,
    /// Fixed access latency in core cycles, applied after a request wins
    /// its channel.
    pub latency: u64,
    /// Channel occupancy per request in core cycles. At 448 GB/s over 16
    /// channels and a 1.5 GHz core clock, one 32 B sector occupies its
    /// channel for ~1.7 core cycles; we round up to 2.
    pub service_cycles: u64,
    /// Address-interleave granularity across channels in bytes.
    pub interleave_bytes: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 16,
            latency: 160,
            service_cycles: 2,
            interleave_bytes: 256,
        }
    }
}

impl DramConfig {
    /// Checks the configuration [`Dram::new`] relies on.
    ///
    /// # Errors
    ///
    /// Rejects zero channels or a non-power-of-two interleave
    /// granularity.
    pub fn validate(&self) -> Result<(), ConfigError> {
        ensure!(self.channels > 0, "DRAM needs at least one channel");
        ensure!(
            self.interleave_bytes.is_power_of_two(),
            "interleave granularity must be a power of two"
        );
        Ok(())
    }
}

/// Cumulative DRAM statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Requests serviced.
    pub requests: u64,
    /// Total channel-busy cycles across all channels.
    pub busy_cycles: u64,
}

impl DramStats {
    /// Fraction of aggregate channel time spent busy over `elapsed` cycles
    /// with `channels` channels. This is the number Figure 20's discussion
    /// quotes (~6.7% for irregular apps at baseline).
    pub fn bandwidth_utilization(&self, channels: usize, elapsed: u64) -> f64 {
        if elapsed == 0 || channels == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / (channels as f64 * elapsed as f64)
        }
    }
}

/// Multi-channel DRAM with per-channel serial occupancy.
///
/// # Example
///
/// ```
/// use swgpu_mem::{AccessKind, Dram, DramConfig, MemReq};
/// use swgpu_types::{Cycle, MemReqId, PhysAddr};
///
/// let mut dram = Dram::new(DramConfig::default());
/// dram.access(Cycle::ZERO, MemReq::new(MemReqId(7), PhysAddr::new(0x40), AccessKind::Data));
/// assert!(dram.pop_complete(Cycle::new(10)).is_none());
/// assert_eq!(dram.pop_complete(Cycle::new(162)).unwrap().id, MemReqId(7));
/// ```
#[derive(Debug)]
pub struct Dram {
    cfg: DramConfig,
    channel_free_at: Vec<Cycle>,
    inflight: DelayQueue<MemReq>,
    stats: DramStats,
    /// Fault injection: page-table accesses are stretched by
    /// `extra_cycles` with probability `rate`.
    fault: Option<(FaultInjector, f64, u64)>,
}

impl Dram {
    /// Builds a DRAM model from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero channels or a non-power-of-two
    /// interleave granularity.
    pub fn new(cfg: DramConfig) -> Self {
        cfg.validate().unwrap_or_else(|e| panic!("{e}"));
        Self {
            channel_free_at: vec![Cycle::ZERO; cfg.channels],
            inflight: DelayQueue::new(),
            stats: DramStats::default(),
            fault: None,
            cfg,
        }
    }

    /// Arms access-delay fault injection: [`AccessKind::PageTable`]
    /// accesses complete `extra_cycles` later with probability `rate`.
    /// Delayed accesses still complete on their own — no recovery needed —
    /// but they exercise the requesters' watchdog timeout paths.
    pub fn set_fault_injector(&mut self, inj: FaultInjector, rate: f64, extra_cycles: u64) {
        self.fault = Some((inj, rate, extra_cycles));
    }

    /// Counters for faults injected at this DRAM.
    pub fn fault_stats(&self) -> FaultInjectionStats {
        self.fault
            .as_ref()
            .map(|(inj, _, _)| inj.stats)
            .unwrap_or_default()
    }

    /// The DRAM configuration.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Channel an address maps to.
    pub fn channel_of(&self, addr: u64) -> usize {
        ((addr / self.cfg.interleave_bytes) as usize) % self.cfg.channels
    }

    /// Accepts a request unconditionally (DRAM queues are modelled as
    /// unbounded; back-pressure in the paper's system lives in the cache
    /// MSHRs above). Returns the cycle at which it will complete.
    pub fn access(&mut self, now: Cycle, req: MemReq) -> Cycle {
        let ch = self.channel_of(req.addr.value());
        let start = now.max(self.channel_free_at[ch]);
        self.channel_free_at[ch] = start + self.cfg.service_cycles;
        let mut done = start + self.cfg.service_cycles + self.cfg.latency;
        if req.kind == AccessKind::PageTable {
            if let Some((inj, rate, extra)) = self.fault.as_mut() {
                if inj.fire(*rate) {
                    inj.stats.injected_mem_delays += 1;
                    done += *extra;
                }
            }
        }
        self.stats.requests += 1;
        self.stats.busy_cycles += self.cfg.service_cycles;
        self.inflight.push(done, req);
        done
    }

    /// Pops the next completed request at `now`, if any.
    pub fn pop_complete(&mut self, now: Cycle) -> Option<MemReq> {
        self.inflight.pop_ready(now)
    }

    /// Whether any requests are still in flight.
    pub fn is_idle(&self) -> bool {
        self.inflight.is_empty()
    }
}

impl swgpu_types::Component for Dram {
    /// The earliest in-flight completion. Channel occupancy needs no
    /// event of its own: `channel_free_at` only stamps *future* accesses,
    /// which are themselves driven by other components' events.
    fn next_event(&self) -> Option<Cycle> {
        self.inflight.next_ready()
    }

    fn is_idle(&self) -> bool {
        Dram::is_idle(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::req::AccessKind;
    use swgpu_types::{MemReqId, PhysAddr};

    fn req(id: u64, addr: u64) -> MemReq {
        MemReq::new(MemReqId(id), PhysAddr::new(addr), AccessKind::Data)
    }

    #[test]
    fn single_access_latency() {
        let mut d = Dram::new(DramConfig {
            channels: 1,
            latency: 100,
            service_cycles: 2,
            interleave_bytes: 256,
        });
        let done = d.access(Cycle::ZERO, req(1, 0));
        assert_eq!(done, Cycle::new(102));
        assert!(d.pop_complete(Cycle::new(101)).is_none());
        assert_eq!(d.pop_complete(Cycle::new(102)).unwrap().id, MemReqId(1));
        assert!(d.is_idle());
    }

    #[test]
    fn same_channel_serializes() {
        let mut d = Dram::new(DramConfig {
            channels: 1,
            latency: 100,
            service_cycles: 10,
            interleave_bytes: 256,
        });
        let a = d.access(Cycle::ZERO, req(1, 0));
        let b = d.access(Cycle::ZERO, req(2, 0));
        assert_eq!(a, Cycle::new(110));
        assert_eq!(b, Cycle::new(120), "second request waits for the channel");
    }

    #[test]
    fn different_channels_overlap() {
        let mut d = Dram::new(DramConfig {
            channels: 2,
            latency: 100,
            service_cycles: 10,
            interleave_bytes: 256,
        });
        let a = d.access(Cycle::ZERO, req(1, 0));
        let b = d.access(Cycle::ZERO, req(2, 256));
        assert_eq!(a, b, "independent channels do not contend");
    }

    #[test]
    fn channel_mapping_interleaves() {
        let d = Dram::new(DramConfig::default());
        assert_eq!(d.channel_of(0), 0);
        assert_eq!(d.channel_of(256), 1);
        assert_eq!(d.channel_of(256 * 16), 0);
    }

    #[test]
    fn utilization_accounts_busy_time() {
        let mut d = Dram::new(DramConfig {
            channels: 2,
            latency: 0,
            service_cycles: 5,
            interleave_bytes: 256,
        });
        d.access(Cycle::ZERO, req(1, 0));
        d.access(Cycle::ZERO, req(2, 256));
        let util = d.stats().bandwidth_utilization(2, 10);
        assert!((util - 0.5).abs() < 1e-9);
    }

    #[test]
    fn delay_injection_stretches_page_table_accesses_only() {
        use swgpu_types::fault::site;
        let mut d = Dram::new(DramConfig {
            channels: 2,
            latency: 100,
            service_cycles: 2,
            interleave_bytes: 256,
        });
        d.set_fault_injector(FaultInjector::new(3, site::DRAM_DELAY), 1.0, 500);
        let pt = MemReq::new(MemReqId(1), PhysAddr::new(0), AccessKind::PageTable);
        let data = MemReq::new(MemReqId(2), PhysAddr::new(256), AccessKind::Data);
        assert_eq!(d.access(Cycle::ZERO, pt), Cycle::new(602));
        assert_eq!(d.access(Cycle::ZERO, data), Cycle::new(102));
        assert_eq!(d.fault_stats().injected_mem_delays, 1);
        // Delayed requests still complete on their own.
        assert_eq!(d.pop_complete(Cycle::new(102)).unwrap().id, MemReqId(2));
        assert_eq!(d.pop_complete(Cycle::new(602)).unwrap().id, MemReqId(1));
    }
}
