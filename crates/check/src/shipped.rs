//! The inputs this workspace ships, and the lints over them.
//!
//! [`study`] is the one map from a benchmark domain to the inputs its
//! analysis runs on: the expectation basis over the domain's points, the
//! metric signatures over that basis, and the per-domain pipeline
//! configuration (paper §III–V). The harness, the CLI and the benchmark
//! binaries all build their analyses from it.
//!
//! [`check_shipped`] runs every lint over those inputs (with basis row
//! counts cross-checked against the benchmark kernel spaces in
//! `catalyze-cat`) and over the three simulated event catalogs. This is
//! what `catalyze check` runs by default, and what CI runs to keep the
//! shipped configuration honest.

use crate::basis::check_basis;
use crate::config::check_config;
use crate::diag::Report;
use crate::events::check_catalog;
use catalyze::basis::{self, Basis};
use catalyze::pipeline::{AnalysisConfig, AnalysisRequest};
use catalyze::signature::{self, MetricSignature};
use catalyze_cat::{branch, dcache, dstore, dtlb, flops_cpu, flops_gpu};
use catalyze_cat::{Domain, MeasurementSet, RunnerConfig};
use catalyze_sim::{mi250x_like, sapphire_rapids_like, zen_like};

/// One domain's analysis inputs. The fields are public so a caller can
/// extend the signatures or override a threshold before it analyzes.
#[derive(Debug, Clone)]
pub struct Study {
    /// The benchmark domain.
    pub domain: Domain,
    /// The expectation basis over the domain's measurement points.
    pub basis: Basis,
    /// The metric signatures defined over that basis.
    pub signatures: Vec<MetricSignature>,
    /// The pipeline stage configuration.
    pub config: AnalysisConfig,
}

impl Study {
    /// An analysis request over `ms` with this study's domain label, basis,
    /// signatures and configuration; add an observer and run it.
    pub fn request<'a>(&'a self, ms: &'a MeasurementSet) -> AnalysisRequest<'a> {
        AnalysisRequest::new()
            .domain(self.domain.label())
            .events(&ms.events)
            .runs(&ms.runs)
            .basis(&self.basis)
            .signatures(&self.signatures)
            .config(self.config)
    }
}

/// The shipped analysis inputs of one domain. The cache and TLB bases
/// follow `cfg.core`: each point's row comes from the level its working
/// set lands in on that core.
pub fn study(domain: Domain, cfg: &RunnerConfig) -> Study {
    let hierarchy = &cfg.core.hierarchy;
    let (basis, signatures, config) = match domain {
        Domain::CpuFlops => (
            basis::cpu_flops_basis(),
            signature::cpu_flops_signatures(),
            AnalysisConfig::cpu_flops(),
        ),
        Domain::Branch => {
            (basis::branch_basis(), signature::branch_signatures(), AnalysisConfig::branch())
        }
        Domain::Dcache => (
            basis::dcache_basis(&dcache::point_regions(hierarchy)),
            signature::dcache_signatures(),
            AnalysisConfig::dcache(),
        ),
        Domain::GpuFlops => (
            basis::gpu_flops_basis(),
            signature::gpu_flops_signatures(),
            AnalysisConfig::gpu_flops(),
        ),
        Domain::Dtlb => (
            basis::dtlb_basis(&dtlb::point_hit_regions(&cfg.core.tlb)),
            signature::dtlb_signatures(),
            AnalysisConfig::dtlb(),
        ),
        Domain::Dstore => (
            basis::dstore_basis(&dstore::point_regions(hierarchy)),
            signature::dstore_signatures(),
            AnalysisConfig::dstore(),
        ),
    };
    Study { domain, basis, signatures, config }
}

/// The measurement-point count a domain's benchmark kernel space declares,
/// counted from the benchmark side so it cross-checks the basis rows.
fn kernel_points(domain: Domain, cfg: &RunnerConfig) -> usize {
    match domain {
        // The FLOPs benchmarks run every kernel at 3 vector lengths.
        Domain::CpuFlops => flops_cpu::kernel_space().len() * 3,
        Domain::Branch => branch::kernel_space().len(),
        Domain::GpuFlops => flops_gpu::kernel_space().len() * 3,
        Domain::Dcache => dcache::sweep(&cfg.core.hierarchy).len(),
        Domain::Dstore => dstore::sweep(&cfg.core.hierarchy).len(),
        Domain::Dtlb => dtlb::sweep(&cfg.core.tlb).len(),
    }
}

/// Checks every shipped input: all domain bases and configurations, and the
/// three event catalogs (`spr`, `zen`, and the 8-device GPU inventory).
pub fn check_shipped() -> Report {
    let cfg = RunnerConfig::default_sim();
    let mut report = Report::new();

    for domain in Domain::ALL {
        let Study { basis, config, .. } = study(domain, &cfg);
        report.extend(check_basis(domain.label(), &basis, Some(kernel_points(domain, &cfg))));
        report.extend(check_config(domain.label(), &config));
    }

    report.extend(check_catalog("spr", sapphire_rapids_like().catalog()));
    report.extend(check_catalog("zen", zen_like().catalog()));
    report.extend(check_catalog("gpu", mi250x_like(cfg.gpu_devices).catalog()));

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_sim::cache::CacheConfig;
    use catalyze_sim::hierarchy::HierarchyConfig;
    use catalyze_sim::tlb::TlbConfig;

    /// A core whose caches and TLB differ from the stock geometry.
    fn non_stock() -> RunnerConfig {
        let mut cfg = RunnerConfig::default_sim();
        cfg.core.hierarchy = HierarchyConfig {
            l1: CacheConfig::new(16 * 1024, 64, 8),
            l2: CacheConfig::new(128 * 1024, 64, 8),
            l3: CacheConfig::new(1024 * 1024, 64, 16),
            prefetch_next_line: false,
        };
        cfg.core.tlb = TlbConfig { entries: 32, associativity: 4, page_bytes: 8192 };
        cfg
    }

    #[test]
    fn shipped_inputs_have_no_errors() {
        let report = check_shipped();
        assert!(!report.has_errors(), "shipped inputs must be clean:\n{}", report.render_human());
    }

    #[test]
    fn every_domain_has_basis_and_config() {
        let cfg = RunnerConfig::default_sim();
        for domain in Domain::ALL {
            let s = study(domain, &cfg);
            assert_eq!(s.domain, domain);
            assert!(!s.signatures.is_empty(), "{domain} signatures");
            for sig in &s.signatures {
                assert_eq!(sig.coefficients.len(), s.basis.dim(), "{domain}: {}", sig.name);
            }
        }
    }

    #[test]
    fn basis_rows_match_kernel_spaces() {
        for cfg in [RunnerConfig::default_sim(), non_stock()] {
            for domain in Domain::ALL {
                let s = study(domain, &cfg);
                let points = kernel_points(domain, &cfg);
                assert_eq!(s.basis.matrix.rows(), points, "{domain}");
                let ds = check_basis(domain.label(), &s.basis, Some(points));
                assert!(ds.is_empty(), "{domain} on {:?}: {ds:?}", cfg.core.hierarchy.l1);
            }
        }
    }
}
