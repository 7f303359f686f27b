//! The unified runner front door: [`SimRequest`], a borrowing builder over
//! the six benchmark domains, plus typed configuration validation.
//!
//! Mirrors the analysis side's `AnalysisRequest`: setters borrow their
//! inputs, [`SimRequest::run`] validates up front and returns typed
//! [`RunError`]s instead of silently producing empty or degenerate
//! [`MeasurementSet`]s.
//!
//! ```
//! use catalyze_cat::{Domain, RunnerConfig, SimRequest};
//! use catalyze_sim::sapphire_rapids_like;
//!
//! let set = sapphire_rapids_like();
//! let cfg = RunnerConfig::fast_test();
//! let ms = SimRequest::new()
//!     .domain(Domain::Branch)
//!     .events(&set)
//!     .config(&cfg)
//!     .run()
//!     .expect("valid request");
//! assert_eq!(ms.domain, "branch");
//! ```

use crate::data::MeasurementSet;
use crate::runner::{self, RunnerConfig};
use catalyze_obs::{NoopObserver, Observer};
use catalyze_sim::{CpuEventSet, GpuEventSet};
use std::fmt;

/// The six CAT benchmark domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// CPU floating-point kernels (paper §III-B).
    CpuFlops,
    /// Branching kernels (paper §III-D).
    Branch,
    /// Multi-threaded data-cache pointer chase (paper §III-E).
    Dcache,
    /// Data-TLB page chase (extension domain).
    Dtlb,
    /// Store-path cache sweep (extension domain).
    Dstore,
    /// GPU floating-point kernels (paper §III-C).
    GpuFlops,
}

impl Domain {
    /// Every domain, in reproduction order: the paper's four domains,
    /// then the two extensions.
    pub const ALL: [Domain; 6] = [
        Domain::CpuFlops,
        Domain::Branch,
        Domain::Dcache,
        Domain::GpuFlops,
        Domain::Dtlb,
        Domain::Dstore,
    ];

    /// The measurement-set / CLI label of this domain.
    pub fn label(self) -> &'static str {
        match self {
            Domain::CpuFlops => "cpu-flops",
            Domain::Branch => "branch",
            Domain::Dcache => "dcache",
            Domain::Dtlb => "dtlb",
            Domain::Dstore => "dstore",
            Domain::GpuFlops => "gpu-flops",
        }
    }

    /// Parses a CLI label.
    pub fn parse(label: &str) -> Option<Domain> {
        Domain::ALL.into_iter().find(|d| d.label() == label)
    }

    /// Whether this domain measures the GPU event inventory.
    pub fn is_gpu(self) -> bool {
        matches!(self, Domain::GpuFlops)
    }
}

impl fmt::Display for Domain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Which simulation engine executes the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Record each kernel once as a `KernelTrace` and replay it, with
    /// sweep points simulated in parallel — the default, and bit-identical
    /// to [`SimEngine::Direct`] (pinned by the engine-parity tests and the
    /// `BENCH_sim.json` CI gate).
    #[default]
    Replay,
    /// Sequential direct execution of every dynamic instruction — the
    /// reference path benchmarks and parity tests compare against.
    Direct,
}

/// A [`RunnerConfig`] value that would silently produce empty or
/// degenerate measurements.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `repetitions == 0`: every domain would return zero runs.
    ZeroRepetitions,
    /// `flops_trips == 0`: the FLOPs kernels would retire nothing.
    ZeroFlopsTrips,
    /// `branch_iterations == 0`: the branching kernels would retire nothing.
    ZeroBranchIterations,
    /// `branch_iterations` odd: the kernels split iterations into halves.
    OddBranchIterations,
    /// `gpu_wavefronts == 0`: GPU kernels would launch empty.
    ZeroGpuWavefronts,
    /// `gpu_devices == 0`: no device to read events from.
    ZeroGpuDevices,
    /// `dcache_threads == 0`: the per-thread median would be over nothing.
    ZeroDcacheThreads,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroRepetitions => write!(f, "repetitions must be at least 1"),
            ConfigError::ZeroFlopsTrips => write!(f, "flops_trips must be at least 1"),
            ConfigError::ZeroBranchIterations => {
                write!(f, "branch_iterations must be at least 2")
            }
            ConfigError::OddBranchIterations => write!(f, "branch_iterations must be even"),
            ConfigError::ZeroGpuWavefronts => write!(f, "gpu_wavefronts must be at least 1"),
            ConfigError::ZeroGpuDevices => write!(f, "gpu_devices must be at least 1"),
            ConfigError::ZeroDcacheThreads => write!(f, "dcache_threads must be at least 1"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Why a [`SimRequest`] could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunError {
    /// No domain was set.
    MissingDomain,
    /// A CPU domain was requested without [`SimRequest::events`].
    MissingCpuEvents(Domain),
    /// The GPU domain was requested without [`SimRequest::gpu_events`].
    MissingGpuEvents(Domain),
    /// The runner configuration is degenerate.
    InvalidConfig(ConfigError),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::MissingDomain => write!(f, "no benchmark domain was selected"),
            RunError::MissingCpuEvents(d) => {
                write!(f, "domain {d} needs a CPU event set (SimRequest::events)")
            }
            RunError::MissingGpuEvents(d) => {
                write!(f, "domain {d} needs a GPU event set (SimRequest::gpu_events)")
            }
            RunError::InvalidConfig(e) => write!(f, "invalid runner config: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::InvalidConfig(e)
    }
}

impl RunnerConfig {
    /// Checks for degenerate values that would silently produce empty or
    /// meaningless measurements.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.repetitions == 0 {
            return Err(ConfigError::ZeroRepetitions);
        }
        if self.flops_trips == 0 {
            return Err(ConfigError::ZeroFlopsTrips);
        }
        if self.branch_iterations == 0 {
            return Err(ConfigError::ZeroBranchIterations);
        }
        if self.branch_iterations % 2 != 0 {
            return Err(ConfigError::OddBranchIterations);
        }
        if self.gpu_wavefronts == 0 {
            return Err(ConfigError::ZeroGpuWavefronts);
        }
        if self.gpu_devices == 0 {
            return Err(ConfigError::ZeroGpuDevices);
        }
        if self.dcache_threads == 0 {
            return Err(ConfigError::ZeroDcacheThreads);
        }
        Ok(())
    }

    /// A validating builder seeded with the full-scale defaults.
    pub fn builder() -> RunnerConfigBuilder {
        RunnerConfigBuilder { cfg: RunnerConfig::default_sim() }
    }
}

/// Builder for [`RunnerConfig`] whose [`RunnerConfigBuilder::build`]
/// rejects degenerate values with a typed [`ConfigError`].
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfigBuilder {
    cfg: RunnerConfig,
}

impl RunnerConfigBuilder {
    /// Sets the simulated core configuration.
    pub fn core(mut self, core: catalyze_sim::CoreConfig) -> Self {
        self.cfg.core = core;
        self
    }

    /// Sets the PMU configuration.
    pub fn pmu(mut self, pmu: catalyze_sim::PmuConfig) -> Self {
        self.cfg.pmu = pmu;
        self
    }

    /// Sets the benchmark repetition count.
    pub fn repetitions(mut self, n: usize) -> Self {
        self.cfg.repetitions = n;
        self
    }

    /// Sets the FLOPs-kernel trip count.
    pub fn flops_trips(mut self, n: u64) -> Self {
        self.cfg.flops_trips = n;
        self
    }

    /// Sets the branching-kernel iteration count (must be even).
    pub fn branch_iterations(mut self, n: u64) -> Self {
        self.cfg.branch_iterations = n;
        self
    }

    /// Sets GPU wavefronts per kernel launch.
    pub fn gpu_wavefronts(mut self, n: u64) -> Self {
        self.cfg.gpu_wavefronts = n;
        self
    }

    /// Sets the number of GPU devices on the node.
    pub fn gpu_devices(mut self, n: u32) -> Self {
        self.cfg.gpu_devices = n;
        self
    }

    /// Sets the data-cache benchmark thread count.
    pub fn dcache_threads(mut self, n: usize) -> Self {
        self.cfg.dcache_threads = n;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<RunnerConfig, ConfigError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// A borrowing builder over the measurement runners: pick a [`Domain`],
/// attach the matching event set, optionally override the configuration,
/// engine, or observer, and [`SimRequest::run`].
#[derive(Clone, Copy)]
pub struct SimRequest<'a> {
    domain: Option<Domain>,
    pub(crate) cpu_events: Option<&'a CpuEventSet>,
    pub(crate) gpu_events: Option<&'a GpuEventSet>,
    pub(crate) config: RunnerConfig,
    pub(crate) engine: SimEngine,
    pub(crate) observer: &'a dyn Observer,
}

impl Default for SimRequest<'_> {
    fn default() -> Self {
        Self {
            domain: None,
            cpu_events: None,
            gpu_events: None,
            config: RunnerConfig::default_sim(),
            engine: SimEngine::default(),
            observer: &NoopObserver,
        }
    }
}

impl<'a> SimRequest<'a> {
    /// An empty request with full-scale defaults and a no-op observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the benchmark domain.
    pub fn domain(mut self, domain: Domain) -> Self {
        self.domain = Some(domain);
        self
    }

    /// Attaches the CPU event inventory (required for CPU domains).
    pub fn events(mut self, set: &'a CpuEventSet) -> Self {
        self.cpu_events = Some(set);
        self
    }

    /// Attaches the GPU event inventory (required for [`Domain::GpuFlops`]).
    pub fn gpu_events(mut self, set: &'a GpuEventSet) -> Self {
        self.gpu_events = Some(set);
        self
    }

    /// Overrides the runner configuration (copied out of the reference).
    pub fn config(mut self, cfg: &RunnerConfig) -> Self {
        self.config = *cfg;
        self
    }

    /// Selects the simulation engine.
    pub fn engine(mut self, engine: SimEngine) -> Self {
        self.engine = engine;
        self
    }

    /// Attaches an observer for spans and counters.
    pub fn observer(mut self, obs: &'a dyn Observer) -> Self {
        self.observer = obs;
        self
    }

    /// Checks the request without running it.
    pub fn validate(&self) -> Result<Domain, RunError> {
        let domain = self.domain.ok_or(RunError::MissingDomain)?;
        self.config.validate()?;
        if domain.is_gpu() {
            if self.gpu_events.is_none() {
                return Err(RunError::MissingGpuEvents(domain));
            }
        } else if self.cpu_events.is_none() {
            return Err(RunError::MissingCpuEvents(domain));
        }
        Ok(domain)
    }

    /// Runs the selected benchmark and returns its measurements.
    // lint: contract(deterministic)
    pub fn run(self) -> Result<MeasurementSet, RunError> {
        let domain = self.validate()?;
        Ok(runner::measure(domain, &self))
    }
}

impl fmt::Debug for SimRequest<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRequest")
            .field("domain", &self.domain)
            .field("cpu_events", &self.cpu_events.map(|s| s.len()))
            .field("gpu_events", &self.gpu_events.map(|s| s.len()))
            .field("engine", &self.engine)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_sim::{mi250x_like, sapphire_rapids_like};

    #[test]
    fn builder_rejects_every_degenerate_field() {
        assert_eq!(
            RunnerConfig::builder().repetitions(0).build().unwrap_err(),
            ConfigError::ZeroRepetitions
        );
        assert_eq!(
            RunnerConfig::builder().flops_trips(0).build().unwrap_err(),
            ConfigError::ZeroFlopsTrips
        );
        assert_eq!(
            RunnerConfig::builder().branch_iterations(0).build().unwrap_err(),
            ConfigError::ZeroBranchIterations
        );
        assert_eq!(
            RunnerConfig::builder().branch_iterations(7).build().unwrap_err(),
            ConfigError::OddBranchIterations
        );
        assert_eq!(
            RunnerConfig::builder().gpu_wavefronts(0).build().unwrap_err(),
            ConfigError::ZeroGpuWavefronts
        );
        assert_eq!(
            RunnerConfig::builder().gpu_devices(0).build().unwrap_err(),
            ConfigError::ZeroGpuDevices
        );
        assert_eq!(
            RunnerConfig::builder().dcache_threads(0).build().unwrap_err(),
            ConfigError::ZeroDcacheThreads
        );
    }

    #[test]
    fn builder_accepts_valid_overrides() {
        let cfg = RunnerConfig::builder()
            .repetitions(2)
            .flops_trips(32)
            .branch_iterations(128)
            .gpu_wavefronts(8)
            .gpu_devices(1)
            .dcache_threads(1)
            .build()
            .unwrap();
        assert_eq!(cfg.repetitions, 2);
        assert_eq!(cfg.dcache_threads, 1);
        cfg.validate().unwrap();
    }

    #[test]
    fn request_requires_domain_and_matching_events() {
        let set = sapphire_rapids_like();
        let gpu = mi250x_like(1);
        assert_eq!(SimRequest::new().run().unwrap_err(), RunError::MissingDomain);
        assert_eq!(
            SimRequest::new().domain(Domain::Branch).run().unwrap_err(),
            RunError::MissingCpuEvents(Domain::Branch)
        );
        assert_eq!(
            SimRequest::new().domain(Domain::GpuFlops).events(&set).run().unwrap_err(),
            RunError::MissingGpuEvents(Domain::GpuFlops)
        );
        // A GPU set does not satisfy a CPU domain and vice versa.
        assert_eq!(
            SimRequest::new().domain(Domain::CpuFlops).gpu_events(&gpu).run().unwrap_err(),
            RunError::MissingCpuEvents(Domain::CpuFlops)
        );
    }

    #[test]
    fn request_surfaces_config_errors() {
        let set = sapphire_rapids_like();
        let mut cfg = RunnerConfig::fast_test();
        cfg.repetitions = 0;
        assert_eq!(
            SimRequest::new().domain(Domain::Branch).events(&set).config(&cfg).run().unwrap_err(),
            RunError::InvalidConfig(ConfigError::ZeroRepetitions)
        );
    }

    #[test]
    fn domain_labels_round_trip() {
        for d in Domain::ALL {
            assert_eq!(Domain::parse(d.label()), Some(d));
            assert_eq!(format!("{d}"), d.label());
        }
        assert_eq!(Domain::parse("nope"), None);
    }
}
