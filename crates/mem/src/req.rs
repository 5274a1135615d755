//! Memory request messages exchanged between caches and DRAM.

use swgpu_types::{MemReqId, PhysAddr};

/// What a memory request is fetching. The distinction matters because the
/// paper (footnote 2, following prior work) caches page table entries only
/// in the L2 data cache: [`AccessKind::PageTable`] requests bypass the L1D.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Ordinary program data (loads/stores from user warps).
    Data,
    /// A page-table entry read issued by a hardware PTW or a PW Warp's
    /// `LDPT` instruction.
    PageTable,
}

/// The kind of unit that issued a memory request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Issuer {
    /// An SM's L1D: a user warp's data load, or the L1D's fill of it.
    #[default]
    SmData,
    /// An SM's PW Warp `LDPT`.
    PwWarp,
    /// A hardware page table walker.
    Ptw,
}

/// Where a request's response goes back to. The issuer sets it once;
/// caches, DRAM and the fault-drop path carry it unchanged, so routing a
/// response takes no lookup. The default names SM 0's warp 0, a
/// placeholder for requests built outside the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Route {
    /// Kind of issuing unit.
    pub issuer: Issuer,
    /// Index of the issuing unit among its kind: the SM for
    /// [`Issuer::SmData`] and [`Issuer::PwWarp`], 0 for the PTW pool.
    pub unit: u16,
    /// The unit's local waiter: the warp, the PW thread or the walker
    /// slot.
    pub slot: u16,
}

impl Route {
    /// A route back to `slot` of unit `unit` of kind `issuer`.
    pub fn new(issuer: Issuer, unit: u16, slot: u16) -> Self {
        Self { issuer, unit, slot }
    }
}

/// One read request travelling through the memory hierarchy.
///
/// The simulator models timing for loads only: GPU stores in this study are
/// fire-and-forget for the warp that issues them, and the paper's results
/// hinge entirely on load/translation latency. A request is identified by
/// [`MemReq::id`] and returns along [`MemReq::route`]; responses reuse the
/// request value itself.
///
/// # Example
///
/// ```
/// use swgpu_mem::{AccessKind, Issuer, MemReq, Route};
/// use swgpu_types::{MemReqId, PhysAddr};
///
/// let req = MemReq::new(MemReqId(1), PhysAddr::new(0x4000), AccessKind::Data)
///     .with_route(Route::new(Issuer::PwWarp, 3, 17));
/// assert_eq!((req.route.unit, req.route.slot), (3, 17));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReq {
    /// Unique request id (minted by the issuing component).
    pub id: MemReqId,
    /// Physical address being read.
    pub addr: PhysAddr,
    /// Data vs. page-table traffic.
    pub kind: AccessKind,
    /// Where the response goes.
    pub route: Route,
}

// The route rides in what was padding: hit and response pipes copy
// requests by value.
const _: () = assert!(std::mem::size_of::<MemReq>() == 24);

impl MemReq {
    /// Creates a read request with the default route.
    pub fn new(id: MemReqId, addr: PhysAddr, kind: AccessKind) -> Self {
        Self {
            id,
            addr,
            kind,
            route: Route::default(),
        }
    }

    /// The same request, returning along `route`.
    pub fn with_route(self, route: Route) -> Self {
        Self { route, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_is_carried() {
        let r = MemReq::new(MemReqId(0), PhysAddr::new(0), AccessKind::PageTable);
        assert_eq!(r.kind, AccessKind::PageTable);
    }
}
