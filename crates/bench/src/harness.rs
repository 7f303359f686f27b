//! Measurement + analysis plumbing shared by the `repro` binary, the
//! ablations, and the Criterion benches.

use catalyze::basis::{self, Basis, CacheRegion};
use catalyze::pipeline::{AnalysisConfig, AnalysisReport, AnalysisRequest};
use catalyze::signature::{self, MetricSignature};
use catalyze::AnalysisError;
use catalyze_cat::{dcache, dstore, dtlb, Domain, MeasurementSet, RunnerConfig, SimRequest};
use catalyze_obs::{render_metrics_json, MetricsRegistry, NoopObserver, Observer, TraceCollector};
use catalyze_sim::{mi250x_like, sapphire_rapids_like, CpuEventSet, GpuEventSet};

/// Every benchmark domain the harness can run, in reproduction order.
pub const DOMAINS: [&str; 6] = ["cpu-flops", "branch", "dcache", "gpu-flops", "dtlb", "dstore"];

/// Harness scale: the full paper-size runs or a down-scaled smoke variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale parameters (the default for `repro`).
    Full,
    /// Reduced trip counts and repetitions for quick iteration and tests.
    Fast,
}

impl Scale {
    /// Stable lowercase label (`full`/`fast`) for machine-readable output.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Fast => "fast",
        }
    }
}

/// A benchmark domain's measurements together with its analysis.
pub struct DomainResult {
    /// The raw measurements.
    pub measurements: MeasurementSet,
    /// The domain's expectation basis.
    pub basis: Basis,
    /// The metric signatures defined over that basis.
    pub signatures: Vec<MetricSignature>,
    /// The pipeline output.
    pub analysis: AnalysisReport,
}

/// Shared state: event inventories and runner configuration.
pub struct Harness {
    /// Runner configuration (core, PMU, repetitions, trip counts).
    pub cfg: RunnerConfig,
    /// The Sapphire-Rapids-like CPU event inventory.
    pub cpu_events: CpuEventSet,
    /// The MI250X-like GPU event inventory (8 devices).
    pub gpu_events: GpuEventSet,
}

impl Harness {
    /// Builds a harness at the given scale.
    pub fn new(scale: Scale) -> Self {
        let cfg = match scale {
            Scale::Full => RunnerConfig::default_sim(),
            Scale::Fast => {
                let mut c = RunnerConfig::fast_test();
                c.repetitions = 3;
                c.flops_trips = 512;
                c.branch_iterations = 1024;
                c
            }
        };
        let gpu_devices = cfg.gpu_devices;
        Self { cfg, cpu_events: sapphire_rapids_like(), gpu_events: mi250x_like(gpu_devices) }
    }

    /// Cache regions of the pointer-chase sweep, in `catalyze` terms.
    pub fn cache_regions(&self) -> Vec<CacheRegion> {
        dcache::point_regions(&self.cfg.core.hierarchy)
            .into_iter()
            .map(|r| match r {
                dcache::Region::L1 => CacheRegion::L1,
                dcache::Region::L2 => CacheRegion::L2,
                dcache::Region::L3 => CacheRegion::L3,
                dcache::Region::Memory => CacheRegion::Memory,
            })
            .collect()
    }

    /// The expectation basis, metric signatures, and stage configuration of
    /// one domain. `None` for an unknown name.
    pub fn domain_inputs(
        &self,
        name: &str,
    ) -> Option<(Basis, Vec<MetricSignature>, AnalysisConfig)> {
        match name {
            "cpu-flops" => Some((
                basis::cpu_flops_basis(),
                signature::cpu_flops_signatures(),
                AnalysisConfig::cpu_flops(),
            )),
            "branch" => Some((
                basis::branch_basis(),
                signature::branch_signatures(),
                AnalysisConfig::branch(),
            )),
            "dcache" => Some((
                basis::dcache_basis(&self.cache_regions()),
                signature::dcache_signatures(),
                AnalysisConfig::dcache(),
            )),
            "gpu-flops" => Some((
                basis::gpu_flops_basis(),
                signature::gpu_flops_signatures(),
                AnalysisConfig::gpu_flops(),
            )),
            "dtlb" => Some((
                basis::dtlb_basis(&dtlb::point_hit_regions(&self.cfg.core.tlb)),
                signature::dtlb_signatures(),
                AnalysisConfig::dtlb(),
            )),
            "dstore" => {
                let regions: Vec<CacheRegion> = dstore::point_regions(&self.cfg.core.hierarchy)
                    .into_iter()
                    .map(|r| match r {
                        dstore::Region::L1 => CacheRegion::L1,
                        dstore::Region::L2 => CacheRegion::L2,
                        dstore::Region::L3 => CacheRegion::L3,
                        dstore::Region::Memory => CacheRegion::Memory,
                    })
                    .collect();
                Some((
                    basis::dstore_basis(&regions),
                    signature::dstore_signatures(),
                    AnalysisConfig::dstore(),
                ))
            }
            _ => None,
        }
    }

    /// Runs one domain's benchmark under the observer. `None` for an unknown
    /// name, or for a `cfg` that [`SimRequest::run`] rejects.
    pub fn measure(&self, name: &str, obs: &dyn Observer) -> Option<MeasurementSet> {
        let request = SimRequest::new().domain(Domain::parse(name)?).config(&self.cfg);
        let request = request.events(&self.cpu_events).gpu_events(&self.gpu_events);
        request.observer(obs).run().ok()
    }

    /// Runs one domain by name — benchmark plus analysis — threading the
    /// observer through both. This is the single implementation the six
    /// named wrappers and [`Harness::domain`] share. `None` for an unknown
    /// name; the inner `Result` carries analysis failures.
    pub fn domain_obs(
        &self,
        name: &str,
        obs: &dyn Observer,
    ) -> Option<Result<DomainResult, AnalysisError>> {
        let measurements = self.measure(name, obs)?;
        let (basis, signatures, config) = self.domain_inputs(name)?;
        let analysis = AnalysisRequest::new()
            .domain(name)
            .events(&measurements.events)
            .runs(&measurements.runs)
            .basis(&basis)
            .signatures(&signatures)
            .config(config)
            .observer(obs)
            .run();
        match analysis {
            Ok(analysis) => Some(Ok(DomainResult { measurements, basis, signatures, analysis })),
            Err(e) => Some(Err(e)),
        }
    }

    /// Runs one domain by name (`cpu-flops`, `branch`, `dcache`,
    /// `gpu-flops`, `dtlb`, `dstore`) without instrumentation. `None` for
    /// an unknown name; the inner `Result` carries analysis failures.
    pub fn domain(&self, name: &str) -> Option<Result<DomainResult, AnalysisError>> {
        self.domain_obs(name, &NoopObserver)
    }

    fn known(&self, name: &'static str) -> Result<DomainResult, AnalysisError> {
        // lint: allow(panic): the named wrappers pass only DOMAINS members
        self.domain(name).expect("known domain name")
    }

    /// Runs the CPU-FLOPs benchmark and analysis (paper §V.A, Table V,
    /// Fig. 2b).
    pub fn cpu_flops(&self) -> Result<DomainResult, AnalysisError> {
        self.known("cpu-flops")
    }

    /// Runs the branching benchmark and analysis (§V.C, Table VII,
    /// Fig. 2a).
    pub fn branch(&self) -> Result<DomainResult, AnalysisError> {
        self.known("branch")
    }

    /// Runs the data-cache benchmark and analysis (§V.D, Table VIII,
    /// Figs. 2d and 3).
    pub fn dcache(&self) -> Result<DomainResult, AnalysisError> {
        self.known("dcache")
    }

    /// Runs the GPU-FLOPs benchmark and analysis (§V.B, Table VI,
    /// Fig. 2c).
    pub fn gpu_flops(&self) -> Result<DomainResult, AnalysisError> {
        self.known("gpu-flops")
    }

    /// Runs the data-TLB extension benchmark and analysis (beyond the
    /// paper: its future-work direction of covering further hardware
    /// attributes).
    pub fn dtlb(&self) -> Result<DomainResult, AnalysisError> {
        self.known("dtlb")
    }

    /// Runs the store-path extension benchmark and analysis.
    pub fn dstore(&self) -> Result<DomainResult, AnalysisError> {
        self.known("dstore")
    }

    /// Runs every domain under a fresh trace collector and renders the
    /// `BENCH_pipeline.json` performance snapshot: per-domain span timings,
    /// funnel records, and linalg solve counters in the `catalyze-obs`
    /// trace schema, wrapped in a versioned envelope:
    ///
    /// ```json
    /// {"version": 1, "scale": "fast", "domains": [
    ///   {"domain": "cpu-flops", "trace": { ... }}
    /// ]}
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first failing domain analysis.
    pub fn perf_snapshot(&self, scale: Scale) -> Result<String, AnalysisError> {
        let mut domains = Vec::new();
        for name in DOMAINS {
            let trace = TraceCollector::new();
            // lint: allow(panic): DOMAINS lists only known domain names
            self.domain_obs(name, &trace).expect("known domain name")?;
            domains.push(format!("{{\"domain\":\"{name}\",\"trace\":{}}}", trace.render_json()));
        }
        Ok(format!(
            "{{\"version\":1,\"scale\":\"{}\",\"domains\":[{}]}}\n",
            scale.label(),
            domains.join(",")
        ))
    }

    /// Runs every domain `repeats` times, folds each run's trace into one
    /// [`MetricsRegistry`], and renders the `BENCH_obs.json` aggregate:
    /// the `metrics.v1` document wrapped in a versioned envelope that
    /// `catalyze trace diff` loads directly:
    ///
    /// ```json
    /// {"version": 1, "scale": "fast", "repeats": 2, "metrics": { ... }}
    /// ```
    ///
    /// # Errors
    ///
    /// Propagates the first failing domain analysis.
    pub fn obs_snapshot(&self, scale: Scale, repeats: u32) -> Result<String, AnalysisError> {
        let mut registry = MetricsRegistry::new();
        for _ in 0..repeats.max(1) {
            for name in DOMAINS {
                let trace = TraceCollector::new();
                // lint: allow(panic): DOMAINS lists only known domain names
                self.domain_obs(name, &trace).expect("known domain name")?;
                registry.fold(&trace);
            }
        }
        Ok(format!(
            "{{\"version\":1,\"scale\":\"{}\",\"repeats\":{},\"metrics\":{}}}\n",
            scale.label(),
            repeats.max(1),
            render_metrics_json(&registry)
        ))
    }

    /// The repeat count `repro perf` uses for [`Harness::obs_snapshot`]:
    /// enough runs for the histograms to carry a spread without tripling
    /// the full-scale wall time.
    pub fn obs_repeats(scale: Scale) -> u32 {
        match scale {
            Scale::Full => 3,
            Scale::Fast => 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_harness_runs_every_domain() {
        let h = Harness::new(Scale::Fast);
        for name in ["cpu-flops", "branch", "gpu-flops"] {
            let d = h.domain(name).unwrap().unwrap();
            assert!(!d.analysis.metrics.is_empty(), "{name}");
            assert_eq!(d.basis.points(), d.measurements.num_points(), "{name}");
        }
        assert!(h.domain("nope").is_none());
    }

    #[test]
    fn cache_regions_cover_sweep() {
        let h = Harness::new(Scale::Fast);
        let regions = h.cache_regions();
        assert_eq!(regions.len(), 16);
    }

    #[test]
    fn traced_domain_produces_identical_report() {
        let h = Harness::new(Scale::Fast);
        let trace = TraceCollector::new();
        let traced = h.domain_obs("branch", &trace).unwrap().unwrap();
        let plain = h.branch().unwrap();
        // Instrumentation must not perturb the analysis.
        let a = serde_json::to_string(&traced.analysis).unwrap();
        let b = serde_json::to_string(&plain.analysis).unwrap();
        assert_eq!(a, b);
        assert!(trace.span_count() >= 7, "runner + pipeline spans, got {}", trace.span_count());
        assert!(trace.funnel_records().iter().all(|f| f.reconciles()));
    }

    #[test]
    fn obs_snapshot_aggregates_every_domain() {
        let h = Harness::new(Scale::Fast);
        let snapshot = h.obs_snapshot(Scale::Fast, 2).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&snapshot).unwrap();
        assert_eq!(parsed["version"].as_u64(), Some(1));
        assert_eq!(parsed["scale"].as_str(), Some("fast"));
        assert_eq!(parsed["repeats"].as_u64(), Some(2));
        let metrics = &parsed["metrics"];
        assert_eq!(metrics["schema"].as_str(), Some("metrics.v1"));
        assert_eq!(metrics["runs"].as_u64(), Some(12), "6 domains x 2 repeats");
        let spans = metrics["spans"].as_array().unwrap();
        let names: Vec<&str> = spans.iter().filter_map(|s| s["name"].as_str()).collect();
        for domain in DOMAINS {
            assert!(names.contains(&format!("analyze/{domain}").as_str()), "{names:?}");
        }
        // The diff loader reads the envelope without unwrapping.
        let loaded = catalyze_obs::Snapshot::from_json(&snapshot).unwrap();
        assert!(loaded.spans.contains_key("analyze/branch"));
        assert!(!loaded.counters.is_empty());
    }

    #[test]
    fn perf_snapshot_is_valid_versioned_json() {
        let h = Harness::new(Scale::Fast);
        let snapshot = h.perf_snapshot(Scale::Fast).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&snapshot).unwrap();
        assert_eq!(parsed["version"].as_u64(), Some(1));
        assert_eq!(parsed["scale"].as_str(), Some("fast"));
        let domains = parsed["domains"].as_array().unwrap();
        assert_eq!(domains.len(), DOMAINS.len());
        for d in domains {
            assert_eq!(d["trace"]["version"].as_u64(), Some(1));
            assert!(!d["trace"]["spans"].as_array().unwrap().is_empty());
        }
    }
}
