//! # catalyze-bench
//!
//! The reproduction harness: shared plumbing for regenerating every table
//! and figure of the paper, plus the ablation studies. The `repro` binary
//! drives this library; the Criterion benches measure the pipeline's own
//! performance.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod harness;
pub mod linalg_perf;
pub mod sim_perf;

pub use harness::{DomainResult, Harness, Scale};
