//! # catalyze-cat
//!
//! A reimplementation of the Counter Analysis Toolkit (CAT) benchmarks
//! against the simulated hardware of `catalyze-sim`:
//!
//! * [`flops_cpu`] — 16 floating-point microkernels spanning
//!   `{scalar,128,256,512} x {FMA,non-FMA} x {SP,DP}` (paper §III);
//! * [`branch`] — 11 branching kernels matching the rows of the paper's
//!   expectation matrix `E_branch` (Eq. 3);
//! * [`dcache`] — a multi-threaded pointer chase sweeping buffer footprints
//!   across L1/L2/L3/memory (paper §III-E, Figure 3);
//! * [`flops_gpu`] — GPU kernels for add/sub/mul/sqrt/FMA in half, single,
//!   and double precision (paper §III-C);
//! * [`request`] — [`SimRequest`], the one way to run a domain: a builder
//!   with typed configuration validation and engine selection over the
//!   measurement orchestrator (warmup, counter-group multiplexing,
//!   repetitions, per-thread medians, and normalization), which runs
//!   every domain's sweep through one path;
//! * [`data`] — the serializable measurement format handed to the analysis;
//! * [`validate`] — end-to-end validation of defined metrics against the
//!   simulator's architectural ground truth on an independent workload.
//!
//! Run a benchmark through [`SimRequest`]:
//!
//! ```
//! use catalyze_cat::{Domain, RunnerConfig, SimRequest};
//! let set = catalyze_sim::sapphire_rapids_like();
//! let cfg = RunnerConfig::fast_test();
//! let ms = SimRequest::new().domain(Domain::Branch).events(&set).config(&cfg).run().unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch;
pub mod data;
pub mod dcache;
pub mod dstore;
pub mod dtlb;
pub mod flops_cpu;
pub mod flops_gpu;
pub mod request;
pub(crate) mod runner;
pub mod validate;

pub use data::MeasurementSet;
pub use request::{ConfigError, Domain, RunError, RunnerConfigBuilder, SimEngine, SimRequest};
pub use runner::RunnerConfig;
pub use validate::{
    validate_gpu_presets, validate_presets, validation_workload, ValidationOutcome,
};
