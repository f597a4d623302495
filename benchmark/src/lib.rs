//! # tsj-benchmark
//!
//! The repo benchmark: four workloads over the shipped public entry points
//! of the tree similarity join stack, end-to-end metrics from timing those
//! entry points with tracing off, and per-layer metrics from a second,
//! traced run in which the harness replays each pipeline stage by stage
//! through the layers' public functions. `README.md` beside this package
//! has the layer ↔ metric ↔ workload table and how to read the output.

#![warn(missing_docs)]

pub mod gen;
pub mod harness;
pub mod metrics;
pub mod oracle;
pub mod spans;
pub mod stats;
pub mod workloads;
