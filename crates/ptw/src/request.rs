//! Walk request/completion messages and the walk execution context.

use swgpu_mem::PhysMem;
use swgpu_pt::{HashedPageTable, PageWalkCache};
use swgpu_types::{Asid, Cycle, Pfn, SmId, Vpn, WarpId};

/// The warp a walk request originated from — used by the warp-aware PWB
/// scheduling policy of Shin et al. \[85\] (Table 1 in the paper), which
/// reduces the completion spread among a warp's divergent walk requests.
pub type WalkOwner = Option<(SmId, WarpId)>;

/// A page walk request as it arrives at the walk subsystem (from the L2
/// TLB MSHRs in the baseline, or at an SM's SoftPWB under SoftWalker).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkRequest {
    /// Address space this walk translates for — selects the page-table
    /// root (via the PWC's per-ASID roots) and gates NHA coalescing.
    pub asid: Asid,
    /// Virtual page number to translate.
    pub vpn: Vpn,
    /// When the L2 TLB miss allocated this walk — queueing delay is
    /// measured from here.
    pub issued_at: Cycle,
    /// Originating warp, when known (drives warp-aware PWB scheduling).
    pub owner: WalkOwner,
}

impl WalkRequest {
    /// Creates a single-tenant ([`Asid::ZERO`]) request stamped with its
    /// issue time.
    pub fn new(vpn: Vpn, issued_at: Cycle) -> Self {
        Self {
            asid: Asid::ZERO,
            vpn,
            issued_at,
            owner: None,
        }
    }

    /// Creates a single-tenant request carrying its originating warp.
    pub fn with_owner(vpn: Vpn, issued_at: Cycle, owner: WalkOwner) -> Self {
        Self {
            asid: Asid::ZERO,
            vpn,
            issued_at,
            owner,
        }
    }

    /// Rebinds the request to a tenant's address space.
    pub fn for_asid(mut self, asid: Asid) -> Self {
        self.asid = asid;
        self
    }

    /// This request's outcome: `pfn`, or `None` for a fault.
    pub(crate) fn result(&self, pfn: Option<Pfn>) -> WalkResult {
        WalkResult {
            asid: self.asid,
            vpn: self.vpn,
            pfn,
            issued_at: self.issued_at,
        }
    }
}

/// Per-VPN outcome of a completed walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkResult {
    /// Address space the translation belongs to.
    pub asid: Asid,
    /// The translated VPN.
    pub vpn: Vpn,
    /// The mapped frame, or `None` on a page fault (invalid PTE — routed
    /// to the fault buffer / UVM driver).
    pub pfn: Option<Pfn>,
    /// Issue time of this VPN's original request.
    pub issued_at: Cycle,
}

/// A finished walk, possibly covering several NHA-coalesced VPNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkCompletion {
    /// One result per VPN served by this walk (≥ 1; > 1 only with NHA).
    pub results: Vec<WalkResult>,
    /// When the walker started processing (end of queueing).
    pub started_at: Cycle,
    /// When the last level read completed.
    pub completed_at: Cycle,
}

/// Which translation structure walks traverse.
#[derive(Debug, Clone, Copy)]
pub enum TableRef<'a> {
    /// Four-level radix table; the PWC's per-ASID roots pick the tenant's
    /// table.
    Radix,
    /// FS-HPT hashed page table.
    Hashed(&'a HashedPageTable),
}

/// Borrowed simulator state a walker needs while executing: the backing
/// memory (to decode entries once their timed read completes), the page
/// walk cache, and the table being walked.
#[derive(Debug)]
pub struct WalkContext<'a> {
    /// Simulated physical memory holding the page-table bytes.
    pub mem: &'a PhysMem,
    /// The shared page walk cache (consulted at walk start, filled as the
    /// walk descends).
    pub pwc: &'a mut PageWalkCache,
    /// The structure a walk starts in (read only when a walk starts).
    pub table: TableRef<'a>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_carries_issue_time() {
        let r = WalkRequest::new(Vpn::new(7), Cycle::new(100));
        assert_eq!(r.vpn, Vpn::new(7));
        assert_eq!(r.issued_at, Cycle::new(100));
    }

    #[test]
    fn completion_latency_decomposes() {
        let c = WalkCompletion {
            results: vec![WalkResult {
                asid: Asid::ZERO,
                vpn: Vpn::new(1),
                pfn: Some(Pfn::new(2)),
                issued_at: Cycle::new(10),
            }],
            started_at: Cycle::new(50),
            completed_at: Cycle::new(80),
        };
        let r = c.results[0];
        assert_eq!(c.started_at.since(r.issued_at), 40); // queueing
        assert_eq!(c.completed_at.since(c.started_at), 30); // access
    }
}
