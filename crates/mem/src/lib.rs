//! Simulated physical memory, sectored caches and DRAM timing for the
//! SoftWalker GPU model.
//!
//! This crate supplies the *data side* of the simulator:
//!
//! * [`PhysMem`] — a sparse, word-addressed backing store. Page tables are
//!   materialized here so that hardware walkers and software PW Warps both
//!   read real bytes.
//! * [`Cache`] — a sectored, set-associative, non-blocking cache with a
//!   bounded MSHR file (used for both the per-SM L1D and the shared 4 MB
//!   L2 data cache of Table 3).
//! * [`Dram`] — a GDDR6-like multi-channel DRAM with per-channel bandwidth
//!   contention and fixed access latency.
//!
//! Components communicate by value: callers push [`MemReq`]s in, tick the
//! component once per cycle, and drain completed requests out. There are no
//! callbacks or shared-mutability cells, which keeps the whole simulator
//! deterministic and single-threaded-fast.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod dram;
mod phys;
mod req;

pub use cache::{AccessOutcome, Cache, CacheConfig, CacheStats};
pub use dram::{Dram, DramConfig, DramStats};
pub use phys::PhysMem;
pub use req::{AccessKind, Issuer, MemReq, Route};
