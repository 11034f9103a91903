//! # nadfs-bench
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! entry of [`figures::ALL`] runs the corresponding experiment on the
//! simulator and returns the formatted rows, annotated with the paper's
//! reference values so paper-vs-measured is visible at a glance; the
//! `all_figures` binary prints them. The analytical models the figures
//! plot beside the simulation (descriptor memory, the HPU budget, the DFS
//! survey) live in [`analysis`]. `benches/micro.rs` holds Criterion
//! microbenchmarks of the computational kernels.

pub mod analysis;
pub mod figures;
mod report;
