//! Experiment harness reproducing every table and figure of the
//! SoftWalker paper.
//!
//! Each figure/table has its own binary under `src/bin/` (see DESIGN.md's
//! per-experiment index). A binary parses its flags ([`parse_args`]),
//! builds the [`Runner`] from them, declares its cells once and resolves
//! them in one batch — benchmark × configuration sweeps as a [`Grid`],
//! whose speedup table covers most figures — then formats its tables from
//! the returned stats ([`report`]). Every binary prints the series the
//! paper reports plus the paper's headline number for side-by-side
//! comparison, and accepts:
//!
//! * `--quick` — a reduced configuration (16 SMs) for fast iteration;
//! * `--csv` — machine-readable output after the human-readable table;
//! * `--jobs N`, `--refresh`, `--no-cache`, `--trace-out DIR` — the
//!   runner's worker count, cache and trace export ([`runner`]).
//!
//! An unknown flag is an error.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod grid;
pub mod report;
pub mod runner;

pub use artifact::{LoadOutcome, RunArtifact};
pub use grid::Grid;
pub use report::{geomean, mean, Table};
pub use runner::{
    parse_args, Cell, CellError, CellWorkload, Harness, Runner, RunnerCounters, Scale, SystemConfig,
};
