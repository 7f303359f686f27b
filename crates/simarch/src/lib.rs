//! # catalyze-sim
//!
//! The simulated hardware substrate for the CATalyze reproduction of
//! *Automated Data Analysis for Defining Performance Metrics from Raw
//! Hardware Events* (IPDPSW 2024).
//!
//! The paper collects raw-event measurements on Aurora (Intel Sapphire
//! Rapids CPUs) and Frontier (AMD MI250X GPUs). This crate substitutes an
//! instruction-level CPU model and a wavefront-level GPU model that expose
//! the same *measurement interface*: hundreds of raw events with realistic
//! semantics (aggregate umasks, FMA double-counting, ADD-counts-SUB),
//! realistic noise structure (architectural counters exact; cycle/cache
//! events jittery; a tail of unrelated background events), and a PMU with
//! counter-group multiplexing.
//!
//! Components:
//!
//! * [`isa`], [`program`] — the workload representation (typed instructions,
//!   counted loops with synthesized loop-control overhead);
//! * [`cache`], [`hierarchy`], [`tlb`], [`branch`] — the microarchitectural
//!   units whose behavior the data-cache and branching benchmarks probe;
//! * [`cpu`] — the core model tying the units together and producing
//!   [`cpu::ExecStats`];
//! * [`trace`] — memoized kernel record/replay ([`KernelTrace`]);
//! * [`gpu`] — the MI250X-like device model and its event inventory;
//! * [`events_cpu`] — the Sapphire-Rapids-like event inventory;
//! * [`noise`], [`pmu`] — observation-noise models and the measurement
//!   front-end.
//!
//! Everything is deterministic given a seed: reruns reproduce every table
//! and figure bit-for-bit.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod branch;
pub mod cache;
pub mod cpu;
pub mod events_cpu;
pub(crate) mod events_zen;
pub mod gpu;
pub mod hierarchy;
pub mod isa;
pub mod noise;
pub mod pmu;
pub mod program;
pub(crate) mod stream;
pub mod tlb;
pub mod trace;

pub use cpu::{CoreConfig, Cpu, ExecStats};
pub use events_cpu::{sapphire_rapids_like, CpuBase, CpuEventDef, CpuEventSet};
pub use events_zen::zen_like;
pub use gpu::{mi250x_like, GpuConfig, GpuDevice, GpuEventSet, GpuKernel, GpuStats};
pub use hierarchy::{HierarchyConfig, MemLevel};
pub use isa::{FpKind, Instruction, IntKind, Precision, VecWidth};
pub use noise::NoiseModel;
pub use pmu::{CpuPmu, PmuConfig};
pub use program::{Block, Item, Program};
pub use stream::StreamStats;
pub use trace::KernelTrace;
