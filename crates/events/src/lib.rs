//! # catalyze-events
//!
//! PAPI-style performance-event naming, catalogs, and derived-metric
//! presets — the vocabulary shared by the simulated hardware
//! (`catalyze-sim`), the benchmarks (`catalyze-cat`), and the analysis
//! pipeline (`catalyze`).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod name;
pub(crate) mod papi;
pub mod preset;
pub mod region;

pub use catalog::{EventCatalog, EventDomain, EventId, EventInfo};
pub use name::{EventName, ParseNameError, Qualifier};
pub use papi::{from_papi_format, preset_symbol, to_papi_format};
pub use preset::{Preset, PresetTable, PresetTerm};
pub use region::CacheRegion;
