//! # catalyze-check
//!
//! Static validation of analysis inputs. The pipeline (`catalyze`) assumes
//! its inputs are well-formed: expectation bases with independent, labeled
//! columns; event catalogs whose names survive a parse round-trip; preset
//! tables whose terms reference real events; stage thresholds inside the
//! ranges the paper validated. This crate checks those assumptions *before*
//! an analysis runs and reports violations as structured [`Diagnostic`]s —
//! the same type the repository linter (`cargo xtask lint`) emits — so both
//! layers render identically, human-readable or as JSON.
//!
//! [`study`] is the one description of each domain's analysis inputs
//! (basis, signatures, stage configuration) that the harness, the CLI and
//! [`check_shipped`] share.
//!
//! Rule namespaces: `B…` basis lints, `C…` catalog/preset lints,
//! `P…` pipeline-configuration lints (and `R…`, reserved for the repository
//! linter in `xtask`). Every rule is documented in `DESIGN.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod basis;
pub mod config;
pub mod diag;
pub mod events;
mod shipped;

pub use basis::check_basis;
pub use config::check_config;
pub use diag::{Diagnostic, Report, Severity, Span};
pub use events::{check_catalog, check_preset_file, check_presets};
pub use shipped::{check_shipped, study, Study};
