//! # catalyze-bench
//!
//! The reproduction harness: shared plumbing for regenerating every table
//! and figure of the paper, plus the ablation studies. The `repro` binary
//! drives this library; [`perf`] measures the pipeline's own performance
//! into one metrics snapshot.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod harness;
mod linalg_perf;
pub mod perf;
mod sim_perf;

pub use harness::{DomainResult, Harness, Scale};
