//! Page tables for the SoftWalker GPU model.
//!
//! Three translation structures, all materialized in simulated physical
//! memory ([`swgpu_mem::PhysMem`]) so that hardware walkers and software
//! PW Warps read the *same bytes*:
//!
//! * [`RadixPageTable`] — the conventional four-level radix page table
//!   (Table 3), 9 index bits per level, walked root (level 4) to leaf
//!   (level 1).
//! * [`HashedPageTable`] — the FS-HPT baseline \[32\]: a fixed-size
//!   open-addressed hash table that resolves most translations with a
//!   single bucket read.
//! * [`PageWalkCache`] — the 32-entry fully-associative PWC that lets a
//!   walk skip upper levels whose directory entries were seen recently.
//!
//! Both timed walkers — the hardware PTW pool and the software PW Warps —
//! run one walk engine ([`RadixCursor`], [`PteReader`], [`RecoveryLedger`])
//! and differ only in their timing. The pool holds a [`WalkCursor`], so an
//! FS-HPT walk steps its [`HashedCursor`] on the same path.
//!
//! [`FrameAllocator`] hands out physical frames for page-table nodes and
//! mapped data pages; [`AddressSpace`] bundles a page size, an allocator
//! and a radix table behind a convenient mapping API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod hashed;
mod mm;
mod pwc;
mod radix;
mod space;
mod walk;

pub use alloc::FrameAllocator;
pub use hashed::{HashedCursor, HashedPageTable, HptFullError};
pub use mm::{FillOutcome, FrameCheck, MemoryManager};
pub use pwc::{PageWalkCache, PwcStart, PwcStats};
pub use radix::{LeafCursor, RadixPageTable, LEAF_LEVEL, LEVEL_BITS, ROOT_LEVEL};
pub use space::AddressSpace;
pub use walk::{PteReader, RadixCursor, Recovery, RecoveryLedger, Step, WalkCursor};
