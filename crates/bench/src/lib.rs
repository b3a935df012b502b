//! # dccs-bench — experiment harness
//!
//! The pieces the `bench_dcc` binary records as `BENCH_dcc.json`:
//!
//! * [`dcc_baseline`] — engine-vs-naive measurement of the peeling engine,
//!   plus the executor, `Auto`, index, phase, service and maintenance
//!   groups.
//! * [`large_scale`] — the million-vertex tier: generation, preprocessing,
//!   and warm-session query throughput with memory accounting.
//! * [`paper_figures`] — the paper's Section VI evaluation (Figs. 12 and
//!   14–32) on the registry analogues, as one group.
//! * [`runner`] — uniform invocation of the three DCCS algorithms with
//!   timing and search statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dcc_baseline;
pub mod large_scale;
pub mod paper_figures;
pub mod runner;

pub use runner::{run_algorithm, Algorithm, RunOutcome};
