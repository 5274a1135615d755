//! Common newtypes, identifiers and utility containers shared by every crate
//! of the SoftWalker reproduction.
//!
//! The simulator models a GPU address-translation pipeline, so almost every
//! component speaks in terms of virtual/physical addresses, page numbers,
//! cycles and hardware identifiers. Keeping these as distinct newtypes (per
//! C-NEWTYPE) prevents the classic "passed a VPN where a physical frame was
//! expected" class of bugs that plagues address-translation code.
//!
//! # Example
//!
//! ```
//! use swgpu_types::{PageSize, VirtAddr};
//!
//! let page = PageSize::Size64K;
//! let va = VirtAddr::new(0x1_2345_6789);
//! let vpn = page.vpn_of(va);
//! assert_eq!(page.base_of_vpn(vpn).value() + page.offset_of(va), va.value());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod addr;
mod component;
mod cycle;
mod error;
pub mod fault;
mod hash;
mod ids;
pub mod mm;
pub mod obs;
mod page;
mod port;
mod pte;
mod queue;
mod slab;

pub use addr::{PhysAddr, VirtAddr};
pub use component::Component;
pub use cycle::Cycle;
pub use error::ConfigError;
pub use fault::{data_checksum, FaultInjectionStats, FaultInjector, FaultPlan, MmFaultStats};
pub use hash::{FastHasher, FastMap, FastSet};
pub use ids::{
    Asid, ChannelId, InstrId, LaneId, MemReqId, SmId, WalkerId, WarpId, XlatId, LANES_PER_WARP,
};
pub use mm::{MmConfig, MmEvictPolicy, MmStats};
pub use obs::PteReadEvent;
pub use page::{PageSize, Pfn, Vpn};
pub use port::Port;
pub use pte::Pte;
pub use queue::DelayQueue;
pub use slab::{MshrOutcome, MshrSlab, Released};

/// Declares a struct of `u64` counters and derives its field-wise
/// `merge` from the same field list, so a new counter is summed wherever
/// the struct is merged without a second list to keep in step.
///
/// # Example
///
/// ```
/// swgpu_types::counters! {
///     /// Hits and misses of one probe.
///     pub struct ProbeStats {
///         /// Probes that hit.
///         pub hits: u64,
///         /// Probes that missed.
///         pub misses: u64,
///     }
/// }
/// let mut a = ProbeStats { hits: 1, misses: 2 };
/// a.merge(&ProbeStats { hits: 3, misses: 0 });
/// assert_eq!(a, ProbeStats { hits: 4, misses: 2 });
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: u64),* $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: u64,)*
        }

        impl $name {
            /// Adds every counter of `other` into this one.
            pub fn merge(&mut self, other: &Self) {
                $(self.$field += other.$field;)*
            }
        }
    };
}

/// Monotonic id generator used by components that must mint unique request
/// identifiers ([`XlatId`], [`MemReqId`], [`InstrId`]).
///
/// # Example
///
/// ```
/// use swgpu_types::IdGen;
/// let mut gen = IdGen::new();
/// assert_ne!(gen.next_raw(), gen.next_raw());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IdGen {
    next: u64,
}

impl IdGen {
    /// Creates a generator starting at zero.
    pub fn new() -> Self {
        Self { next: 0 }
    }

    /// Returns the next raw id value, advancing the counter.
    pub fn next_raw(&mut self) -> u64 {
        let v = self.next;
        self.next = self.next.wrapping_add(1);
        v
    }

    /// Mints a fresh translation-request id.
    pub fn next_xlat(&mut self) -> XlatId {
        XlatId(self.next_raw())
    }

    /// Mints a fresh memory-request id.
    pub fn next_mem(&mut self) -> MemReqId {
        MemReqId(self.next_raw())
    }

    /// Mints a fresh warp-instruction id.
    pub fn next_instr(&mut self) -> InstrId {
        InstrId(self.next_raw())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_gen_is_monotonic() {
        let mut g = IdGen::new();
        let a = g.next_xlat();
        let b = g.next_xlat();
        assert!(b.0 > a.0);
    }

    #[test]
    fn id_gen_mixes_kinds_without_reuse() {
        let mut g = IdGen::new();
        let x = g.next_xlat().0;
        let m = g.next_mem().0;
        let i = g.next_instr().0;
        assert_ne!(x, m);
        assert_ne!(m, i);
    }
}
