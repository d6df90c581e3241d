//! # mad-bench — the paper's evaluation, regenerated
//!
//! Shared harness for every figure and table of the paper's §3 plus the
//! ablations listed in DESIGN.md. Binaries under `src/bin/` drive the
//! sweeps and emit a printed table plus a CSV under `results/`. Wall-clock
//! costs of the library's hot paths are the `benchmark/` package's job.

#![warn(missing_docs)]

pub mod cli;
pub mod experiments;
pub mod report;
pub mod trace_view;
