//! Minimal observability event types shared by the walkers.
//!
//! The observability layer proper lives in `swgpu-obs`, which sits *above*
//! the component crates in the dependency graph. The walkers (hardware PTW
//! pool, PW Warps) therefore cannot talk to the recorder directly; instead
//! they buffer these small cycle-stamped events when observation is armed,
//! and the full simulator drains the buffers into the recorder each cycle.
//! When observation is off the buffers stay empty and nothing is pushed —
//! the zero-overhead-when-disabled contract.

use crate::{Cycle, Vpn};

/// A single page-table-entry read observed at a walker, stamped with the
/// radix level being decoded (`ROOT_LEVEL` = 4 for the root directory down
/// to `LEAF_LEVEL` = 1 for the leaf). Produced by the one entry decoder
/// both walker implementations share, `swgpu_pt::PteReader`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PteReadEvent {
    /// The VPN whose walk performed the read.
    pub vpn: Vpn,
    /// Radix level of the entry (4 = root, 1 = leaf).
    pub level: u8,
    /// Cycle at which the read's data became available.
    pub at: Cycle,
}
