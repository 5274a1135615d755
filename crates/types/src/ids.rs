//! Hardware and request identifiers.

use std::fmt;

/// Number of SIMT lanes (threads) per warp. Fixed at 32, matching NVIDIA
/// hardware and the paper's PW-Warp sizing (32 page-walk threads per SM).
pub const LANES_PER_WARP: usize = 32;

macro_rules! small_id {
    ($(#[$doc:meta])* $name:ident($ty:ty)) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $ty);

        impl $name {
            /// Creates the id from a raw index.
            pub const fn new(v: $ty) -> Self {
                Self(v)
            }

            /// Raw index value.
            pub const fn value(self) -> $ty {
                self.0
            }

            /// Raw index as `usize` for container indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }

        impl From<$ty> for $name {
            fn from(v: $ty) -> Self {
                Self(v)
            }
        }
    };
}

small_id!(
    /// Index of a Streaming Multiprocessor (SM). The paper's configuration
    /// has 46 SMs (RTX-3070-like).
    SmId(u16)
);

small_id!(
    /// Index of a warp *within one SM* (up to 48 per SM in Table 3).
    WarpId(u16)
);

small_id!(
    /// Index of a SIMT lane within a warp (0..32).
    LaneId(u8)
);

small_id!(
    /// Index of a hardware page table walker within the PTW pool.
    WalkerId(u16)
);

small_id!(
    /// Index of a DRAM channel (16 in the GDDR6 configuration).
    ChannelId(u16)
);

small_id!(
    /// Address-space identifier: which tenant (concurrent process) a
    /// translation belongs to. Every translation-path key — TLB tags on
    /// both levels, PWC prefixes, MSHR and In-TLB MSHR tags, walk
    /// ownership records — carries the ASID, so one tenant's entries can
    /// never alias or shoot down another's. Single-tenant runs use
    /// [`Asid::ZERO`] everywhere.
    Asid(u16)
);

impl Asid {
    /// The single-tenant / default address space.
    pub const ZERO: Asid = Asid(0);
}

macro_rules! req_id {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u64);

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "#{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "#{}", self.0)
            }
        }
    };
}

req_id!(
    /// Unique id of one address-translation request as it travels from an
    /// SM's coalescer through the TLB hierarchy and (on a miss) a page walk.
    XlatId
);

req_id!(
    /// Unique id of one memory request in the cache/DRAM hierarchy.
    MemReqId
);

req_id!(
    /// Unique id of one warp memory instruction (a warp instruction fans out
    /// into several translation and memory requests which all carry it).
    InstrId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_ids_index_containers() {
        let sm = SmId::new(7);
        let v = [0u8; 16];
        assert_eq!(v[sm.index()], 0);
        assert_eq!(sm.value(), 7);
    }

    #[test]
    fn ids_display_compactly() {
        assert_eq!(format!("{}", SmId::new(3)), "3");
        assert_eq!(format!("{:?}", XlatId(9)), "XlatId#9");
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        let mut s = crate::FastSet::default();
        s.insert(MemReqId(1));
        s.insert(MemReqId(1));
        s.insert(MemReqId(2));
        assert_eq!(s.len(), 2);
        assert!(WarpId::new(1) < WarpId::new(2));
    }
}
