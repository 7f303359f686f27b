//! # catalyze
//!
//! Automated analysis that maps raw hardware performance events to
//! high-level performance metrics — a from-scratch Rust reproduction of
//! *Automated Data Analysis for Defining Performance Metrics from Raw
//! Hardware Events* (Barry, Danalis, Dongarra; IPDPSW 2024).
//!
//! The pipeline has four stages, one module each:
//!
//! 1. [`noise`] — discard events whose run-to-run variability (maximum
//!    pairwise RNMSE, Eq. 4) exceeds a threshold τ, and events that never
//!    fire;
//! 2. [`normalize`] — represent each surviving event in an *expectation
//!    basis* ([`basis`], §III) by least squares, rejecting events the basis
//!    cannot express;
//! 3. [`select`] — run a specialized column-pivoted QR factorization
//!    (Algorithm 2, implemented in `catalyze-linalg`) that picks the set of
//!    linearly independent events closest to the ideal expectation
//!    patterns;
//! 4. [`define`] — solve `X̂·y = s` for each metric [`signature`]
//!    (Tables I–IV) and judge composability by the backward error (Eq. 5).
//!
//! [`pipeline::AnalysisRequest`] runs all four stages (with optional
//! structured observability via `catalyze-obs`); [`report`] renders
//! paper-style tables and figure data.
//!
//! ```
//! use catalyze::basis::branch_basis;
//! use catalyze::pipeline::{AnalysisConfig, AnalysisRequest};
//! use catalyze::signature::branch_signatures;
//!
//! // Synthetic measurements: one event that behaves exactly like the
//! // "conditional branches retired" expectation.
//! let basis = branch_basis();
//! let cr: Vec<f64> = (0..11).map(|i| basis.matrix[(i, 1)]).collect();
//! let names = vec!["BR_INST_RETIRED:COND".to_string()];
//! let runs = vec![vec![cr]];
//! let signatures = branch_signatures();
//! let report = AnalysisRequest::new()
//!     .domain("branch")
//!     .events(&names)
//!     .runs(&runs)
//!     .basis(&basis)
//!     .signatures(&signatures)
//!     .config(AnalysisConfig::branch())
//!     .run()
//!     .expect("synthetic measurements are finite and well shaped");
//! let retired = report.metric("Conditional Branches Retired").unwrap();
//! assert!(retired.error < 1e-10);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod basis;
// lint: allow(dead_api): define-stage surface; define_metric awaits external callers
pub mod define;
pub mod error;
pub mod noise;
pub mod normalize;
pub mod pipeline;
pub mod plot;
pub mod report;
pub mod select;
pub mod signature;
pub mod validate_basis;

pub use basis::{Basis, CacheRegion};
pub use catalyze_linalg::LinalgError;
pub use define::DefinedMetric;
pub use error::AnalysisError;
pub use noise::{max_rnmse, NoiseReport};
pub use normalize::Representation;
pub use pipeline::{AnalysisConfig, AnalysisReport, AnalysisRequest};
pub use select::Selection;
pub use signature::MetricSignature;
pub use validate_basis::{validate_basis, BasisIssue};

/// Serializes the unit tests that run counted linalg kernels. The kernel
/// counters are process-wide, so a test asserting exact per-stage counts
/// must not share the process with another analysis in flight.
#[cfg(test)]
pub(crate) fn linalg_turn() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
