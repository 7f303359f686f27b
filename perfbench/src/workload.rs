//! The two workloads, their fixed inputs (set-up), and the output check.
//!
//! A *request* is `SimRequest::run` followed by `AnalysisRequest::run` for
//! one domain. A *pass* runs every request of a workload once, in a fixed order.

use catalyze::basis::{self, Basis, CacheRegion};
use catalyze::signature::{self, MetricSignature};
use catalyze::{AnalysisConfig, AnalysisReport, AnalysisRequest};
use catalyze_cat::{
    dcache, dstore, dtlb, Domain, MeasurementSet, RunnerConfig, SimEngine, SimRequest,
};
use catalyze_obs::Observer;
use catalyze_sim::{mi250x_like, sapphire_rapids_like, CoreConfig, CpuEventSet, GpuEventSet};
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ChaseLru,
    CountersCompute,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ChaseLru, Workload::CountersCompute];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ChaseLru => "chase-lru",
            Workload::CountersCompute => "counters-compute",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload is in the benchmark (the `why` of `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ChaseLru => {
                "memory chases on stock LRU caches, where stream record/replay and its collapse take nearly all the time"
            }
            Workload::CountersCompute => {
                "flops and branch kernels, where PMU counter reads dominate and the stream engine does no work"
            }
        }
    }

    /// The domains of one pass, in pass order.
    pub fn domains(self) -> Vec<Domain> {
        match self {
            Workload::ChaseLru => vec![Domain::Dcache, Domain::Dstore, Domain::Dtlb],
            Workload::CountersCompute => vec![Domain::CpuFlops, Domain::Branch, Domain::GpuFlops],
        }
    }

    /// The request labels of one pass.
    pub fn request_labels(self) -> Vec<String> {
        self.domains().iter().map(|d| d.label().to_string()).collect()
    }
}

/// Everything one request needs, built at set-up.
pub struct Request {
    pub label: String,
    pub domain: Domain,
    pub config: RunnerConfig,
    basis: Basis,
    signatures: Vec<MetricSignature>,
    analysis: AnalysisConfig,
}

/// A workload's fixed inputs.
pub struct Setup {
    cpu: CpuEventSet,
    gpu: GpuEventSet,
    pub requests: Vec<Request>,
}

/// What one request produced, with its two timed halves.
pub struct Outcome {
    pub measured: MeasurementSet,
    pub report: AnalysisReport,
    pub sim_ns: u64,
    pub analysis_ns: u64,
}

impl Outcome {
    pub fn total_ns(&self) -> u64 {
        self.sim_ns + self.analysis_ns
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn cache_regions<R>(regions: Vec<R>, map: impl Fn(R) -> CacheRegion) -> Vec<CacheRegion> {
    regions.into_iter().map(map).collect()
}

/// The domain's basis, signatures and the paper's τ/α settings — the inputs
/// `catalyze analyze` uses.
fn analysis_inputs(
    domain: Domain,
    core: &CoreConfig,
) -> (Basis, Vec<MetricSignature>, AnalysisConfig) {
    match domain {
        Domain::CpuFlops => (
            basis::cpu_flops_basis(),
            signature::cpu_flops_signatures(),
            AnalysisConfig::cpu_flops(),
        ),
        Domain::Branch => {
            (basis::branch_basis(), signature::branch_signatures(), AnalysisConfig::branch())
        }
        Domain::Dcache => {
            let regions = cache_regions(dcache::point_regions(&core.hierarchy), |r| match r {
                dcache::Region::L1 => CacheRegion::L1,
                dcache::Region::L2 => CacheRegion::L2,
                dcache::Region::L3 => CacheRegion::L3,
                dcache::Region::Memory => CacheRegion::Memory,
            });
            (
                basis::dcache_basis(&regions),
                signature::dcache_signatures(),
                AnalysisConfig::dcache(),
            )
        }
        Domain::Dstore => {
            let regions = cache_regions(dstore::point_regions(&core.hierarchy), |r| match r {
                dstore::Region::L1 => CacheRegion::L1,
                dstore::Region::L2 => CacheRegion::L2,
                dstore::Region::L3 => CacheRegion::L3,
                dstore::Region::Memory => CacheRegion::Memory,
            });
            (
                basis::dstore_basis(&regions),
                signature::dstore_signatures(),
                AnalysisConfig::dstore(),
            )
        }
        Domain::Dtlb => (
            basis::dtlb_basis(&dtlb::point_hit_regions(&core.tlb)),
            signature::dtlb_signatures(),
            AnalysisConfig::dtlb(),
        ),
        Domain::GpuFlops => (
            basis::gpu_flops_basis(),
            signature::gpu_flops_signatures(),
            AnalysisConfig::gpu_flops(),
        ),
    }
}

impl Setup {
    /// Builds the workload's inputs on top of `base` (whose PMU seed the
    /// caller has already set).
    pub fn new(workload: Workload, base: &RunnerConfig) -> Result<Setup, String> {
        let mut setup = Setup {
            cpu: sapphire_rapids_like(),
            gpu: mi250x_like(base.gpu_devices),
            requests: Vec::new(),
        };
        for domain in workload.domains() {
            let (basis, signatures, analysis) = analysis_inputs(domain, &base.core);
            setup.requests.push(Request {
                label: domain.label().to_string(),
                domain,
                config: *base,
                basis,
                signatures,
                analysis,
            });
        }
        Ok(setup)
    }

    fn simulate(
        &self,
        i: usize,
        engine: SimEngine,
        obs: &dyn Observer,
    ) -> Result<MeasurementSet, String> {
        let req = &self.requests[i];
        let sim = SimRequest::new().domain(req.domain).config(&req.config).engine(engine);
        let sim =
            if req.domain.is_gpu() { sim.gpu_events(&self.gpu) } else { sim.events(&self.cpu) };
        sim.observer(obs).run().map_err(|e| format!("{}: {e}", req.label))
    }

    fn analyze(
        &self,
        i: usize,
        ms: &MeasurementSet,
        obs: &dyn Observer,
    ) -> Result<AnalysisReport, String> {
        let req = &self.requests[i];
        AnalysisRequest::new()
            .domain(req.domain.label())
            .events(&ms.events)
            .runs(&ms.runs)
            .basis(&req.basis)
            .signatures(&req.signatures)
            .config(req.analysis)
            .observer(obs)
            .run()
            .map_err(|e| format!("{}: {e}", req.label))
    }

    /// Runs request `i` once, timing its simulation and analysis halves.
    pub fn run(&self, i: usize, obs: &dyn Observer) -> Result<Outcome, String> {
        let start = Instant::now();
        let measured = self.simulate(i, SimEngine::Replay, obs)?;
        let sim_ns = elapsed_ns(start);
        let start = Instant::now();
        let report = self.analyze(i, &measured, obs)?;
        let analysis_ns = elapsed_ns(start);
        Ok(Outcome { measured, report, sim_ns, analysis_ns })
    }
}

/// The expected output of every request, from the Direct engine.
pub struct Reference {
    measured: Vec<MeasurementSet>,
    reports: Vec<String>,
}

fn report_json(report: &AnalysisReport) -> String {
    serde_json::to_string(report).unwrap_or_default()
}

/// Bit-for-bit equality of two measurement sets.
fn same_measurements(a: &MeasurementSet, b: &MeasurementSet) -> bool {
    a.domain == b.domain
        && a.point_labels == b.point_labels
        && a.events == b.events
        && a.runs.len() == b.runs.len()
        && a.runs.iter().zip(&b.runs).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(ea, eb)| {
                    ea.len() == eb.len()
                        && ea.iter().zip(eb).all(|(x, y)| x.to_bits() == y.to_bits())
                })
        })
}

impl Reference {
    /// Runs every request once on the sequential Direct engine.
    pub fn new(setup: &Setup) -> Result<Reference, String> {
        let noop = &catalyze_obs::NoopObserver;
        let mut reference = Reference { measured: Vec::new(), reports: Vec::new() };
        for i in 0..setup.requests.len() {
            let ms = setup.simulate(i, SimEngine::Direct, noop)?;
            reference.reports.push(report_json(&setup.analyze(i, &ms, noop)?));
            reference.measured.push(ms);
        }
        Ok(reference)
    }

    /// Whether request `i` produced exactly the reference output.
    pub fn matches(&self, i: usize, out: &Outcome) -> bool {
        same_measurements(&out.measured, &self.measured[i])
            && report_json(&out.report) == self.reports[i]
    }

    #[cfg(test)]
    pub fn measured_mut(&mut self, i: usize) -> &mut MeasurementSet {
        &mut self.measured[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_obs::NoopObserver;

    #[test]
    fn one_perturbed_counter_value_fails_the_check() {
        let setup = Setup::new(Workload::CountersCompute, &RunnerConfig::fast_test()).unwrap();
        let mut reference = Reference::new(&setup).unwrap();
        let out = setup.run(1, &NoopObserver).unwrap();
        assert!(reference.matches(1, &out), "replay output must equal Direct");
        let value = &mut reference.measured_mut(1).runs[0][0][0];
        *value = f64::from_bits(value.to_bits() ^ 1);
        assert!(!reference.matches(1, &out), "a one-ulp change must be caught");
    }
}
