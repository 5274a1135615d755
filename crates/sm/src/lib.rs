//! Streaming Multiprocessor (SM) model.
//!
//! The paper's results live entirely in the memory/translation system, so
//! this SM abstracts the compute pipeline to its observable behaviour at
//! the memory boundary:
//!
//! * up to 48 resident warps per SM (Table 3), each executing a stream of
//!   [`WarpInstr`]s supplied by a workload generator;
//! * one instruction issued per SM per cycle, picked by a loose
//!   round-robin scheduler; a cycle with no eligible warp is classified
//!   as a *memory stall*, *scoreboard stall* or *idle* cycle — the
//!   taxonomy behind Figure 8;
//! * per-warp-instruction address coalescing: lane addresses collapse to
//!   unique pages (translation requests) and unique sectors of the L1D
//!   (memory requests), so a regular warp costs one lookup and an
//!   irregular warp costs up to 32 — the divergence effect of Section 2.2;
//! * a private L1 TLB (32 entries, 10 cycles, 32 MSHRs x 192 merges) and
//!   a private L1D cache; L1 misses exit the SM toward the shared L2 TLB /
//!   L2 data cache.
//!
//! The SM also exposes the issue-port hook the SoftWalker PW Warp uses:
//! when a PW Warp instruction wins the (highest-priority) issue slot, the
//! SM is ticked with `issue_slot_free == false` and user warps wait —
//! modelling the paper's "leveraging idle GPU cycles" trade-off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod instr;
mod sm;

pub use instr::{InstrSource, SliceSource, WarpInstr};
pub use sm::{Sm, SmConfig, SmStats};
