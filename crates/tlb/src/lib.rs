//! TLB hierarchy for the SoftWalker GPU model.
//!
//! * [`Tlb`] — a set-associative (or fully-associative) translation
//!   lookaside buffer with LRU replacement and three-state entries
//!   (invalid / valid / pending), the substrate for both the per-SM L1 TLB
//!   and the shared L2 TLB of Table 3.
//! * [`TlbMshr`] — a bounded miss-status-holding-register file with a merge
//!   limit per entry, generic over the waiter metadata it parks.
//! * [`L2TlbComplex`] — the shared L2 TLB plus its MSHR file plus the
//!   paper's **In-TLB MSHR** mechanism: when the 128 dedicated MSHRs are
//!   full, victim TLB entries are repurposed (pending bit set) to track
//!   outstanding misses, expanding in-flight capacity to 1024+ at the cost
//!   of evicting cached translations.
//!
//! Timing (10-cycle L1, 80-cycle L2 lookups) is applied by the simulator's
//! queues; these types are the combinational state machines plus
//! statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod l2;
mod mshr;
mod tlb;

pub use l2::{InTlbStats, L2MissOutcome, L2TlbComplex, Waiters};
pub use mshr::{TlbMshr, TlbMshrConfig, TlbMshrStats};
pub use swgpu_types::MshrOutcome;
pub use tlb::{ReplPolicy, TagLookup, Tlb, TlbConfig, TlbStats, MAX_TENANTS};
