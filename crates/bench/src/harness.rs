//! Measurement + analysis plumbing shared by the `repro` binary, the
//! ablations, and the Criterion benches.

use catalyze::basis::Basis;
use catalyze::pipeline::AnalysisReport;
use catalyze::signature::MetricSignature;
use catalyze::AnalysisError;
use catalyze_cat::{Domain, MeasurementSet, RunError, RunnerConfig, SimRequest};
use catalyze_check::{study, Study};
use catalyze_obs::{render_metrics_json, MetricsRegistry, NoopObserver, Observer, TraceCollector};
use catalyze_sim::{mi250x_like, sapphire_rapids_like, CpuEventSet, GpuEventSet};

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

    /// Runs one domain's benchmark under the observer.
    ///
    /// # Errors
    ///
    /// The [`RunError`] of a `cfg` that [`SimRequest::run`] rejects.
    pub fn measure(&self, domain: Domain, obs: &dyn Observer) -> Result<MeasurementSet, RunError> {
        let request = SimRequest::new().domain(domain).config(&self.cfg);
        let request = request.events(&self.cpu_events).gpu_events(&self.gpu_events);
        request.observer(obs).run()
    }

    /// Runs one domain — benchmark plus the analysis of its [`study`] —
    /// threading the observer through both.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    ///
    /// # Panics
    ///
    /// When [`SimRequest::run`] rejects `cfg`; [`Harness::new`] builds a
    /// valid one, and [`Harness::measure`] reports the error instead.
    pub fn domain_obs(
        &self,
        domain: Domain,
        obs: &dyn Observer,
    ) -> Result<DomainResult, AnalysisError> {
        // lint: allow(panic): documented; `measure` is the fallible entry
        let measurements = self.measure(domain, obs).expect("valid runner configuration");
        let study = study(domain, &self.cfg);
        let analysis = study.request(&measurements).observer(obs).run()?;
        let Study { basis, signatures, .. } = study;
        Ok(DomainResult { measurements, basis, signatures, analysis })
    }

    /// Runs one domain without instrumentation.
    ///
    /// # Errors
    ///
    /// Propagates analysis failures.
    pub fn domain(&self, domain: Domain) -> Result<DomainResult, AnalysisError> {
        self.domain_obs(domain, &NoopObserver)
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
        for domain in Domain::ALL {
            let trace = TraceCollector::new();
            self.domain_obs(domain, &trace)?;
            domains.push(format!("{{\"domain\":\"{domain}\",\"trace\":{}}}", trace.render_json()));
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
            for domain in Domain::ALL {
                let trace = TraceCollector::new();
                self.domain_obs(domain, &trace)?;
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
        for domain in [Domain::CpuFlops, Domain::Branch, Domain::GpuFlops] {
            let d = h.domain(domain).unwrap();
            assert!(!d.analysis.metrics.is_empty(), "{domain}");
            assert_eq!(d.basis.points(), d.measurements.num_points(), "{domain}");
        }
        let mut rejected = Harness::new(Scale::Fast);
        rejected.cfg.repetitions = 0;
        assert!(rejected.measure(Domain::Branch, &NoopObserver).is_err());
    }

    #[test]
    fn cache_regions_cover_sweep() {
        let h = Harness::new(Scale::Fast);
        let study = study(Domain::Dcache, &h.cfg);
        assert_eq!(study.basis.points(), 16);
    }

    #[test]
    fn traced_domain_produces_identical_report() {
        let h = Harness::new(Scale::Fast);
        let trace = TraceCollector::new();
        let traced = h.domain_obs(Domain::Branch, &trace).unwrap();
        let plain = h.domain(Domain::Branch).unwrap();
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
        for domain in Domain::ALL {
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
        assert_eq!(domains.len(), Domain::ALL.len());
        for d in domains {
            assert_eq!(d["trace"]["version"].as_u64(), Some(1));
            assert!(!d["trace"]["spans"].as_array().unwrap().is_empty());
        }
    }
}
