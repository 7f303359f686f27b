//! The pay-off test: metric definitions produced by the *pipeline* (not
//! hand-written) must predict the simulator's architectural ground truth on
//! an independent mixed workload.

use catalyze_bench::{Harness, Scale};
use catalyze_cat::{validate_presets, Domain};
use catalyze_events::Preset;

fn pipeline_presets(domain: Domain, h: &Harness) -> Vec<Preset> {
    let d = h.domain(domain).expect("domain analyzes");
    d.analysis.composable_metrics().iter().map(|m| m.to_preset(1e-6)).collect()
}

#[test]
fn cpu_flops_presets_predict_ground_truth() {
    let h = Harness::new(Scale::Fast);
    let presets = pipeline_presets(Domain::CpuFlops, &h);
    assert!(presets.len() >= 4, "SP/DP Instrs and Ops must be composable");
    let outcomes = validate_presets(&presets, &h.cpu_events, h.cfg.core, h.cfg.pmu, 99);
    assert!(outcomes.len() >= 4);
    for o in &outcomes {
        assert!(o.ground_truth > 0.0, "{} saw no activity", o.metric);
        assert!(
            o.relative_error < 1e-9,
            "{}: predicted {} vs truth {} (err {})",
            o.metric,
            o.predicted,
            o.ground_truth,
            o.relative_error
        );
        assert_eq!(o.missing_events, 0, "{}", o.metric);
    }
}

#[test]
fn branch_presets_predict_ground_truth() {
    let h = Harness::new(Scale::Fast);
    let presets = pipeline_presets(Domain::Branch, &h);
    assert_eq!(presets.len(), 6, "six of seven branch metrics compose");
    let outcomes = validate_presets(&presets, &h.cpu_events, h.cfg.core, h.cfg.pmu, 77);
    assert_eq!(outcomes.len(), 6);
    for o in &outcomes {
        assert!(
            o.relative_error < 1e-9,
            "{}: predicted {} vs truth {} (err {})",
            o.metric,
            o.predicted,
            o.ground_truth,
            o.relative_error
        );
    }
}

#[test]
fn dcache_presets_predict_ground_truth_within_noise() {
    let h = Harness::new(Scale::Fast);
    let presets = pipeline_presets(Domain::Dcache, &h);
    assert_eq!(presets.len(), 6);
    let outcomes = validate_presets(&presets, &h.cpu_events, h.cfg.core, h.cfg.pmu, 55);
    assert_eq!(outcomes.len(), 6);
    for o in &outcomes {
        // Cache events are noisy and the rounded coefficients carry a few
        // percent of slack; validation must still land within ~5 %.
        assert!(
            o.relative_error < 0.05,
            "{}: predicted {} vs truth {} (err {})",
            o.metric,
            o.predicted,
            o.ground_truth,
            o.relative_error
        );
    }
}

#[test]
fn gpu_presets_predict_ground_truth() {
    let h = Harness::new(Scale::Fast);
    let presets = pipeline_presets(Domain::GpuFlops, &h);
    // The four composable Table-VI metrics (Add and Sub + three All Ops).
    assert!(presets.len() >= 4, "got {}", presets.len());
    let outcomes = catalyze_cat::validate::validate_gpu_presets(
        &presets,
        &h.gpu_events,
        h.cfg.gpu_devices,
        h.cfg.pmu,
        88,
    );
    assert!(outcomes.len() >= 4);
    for o in &outcomes {
        assert!(o.ground_truth > 0.0, "{}", o.metric);
        assert!(
            o.relative_error < 1e-9,
            "{}: predicted {} vs truth {} (err {})",
            o.metric,
            o.predicted,
            o.ground_truth,
            o.relative_error
        );
    }
}

#[test]
fn validation_workload_differs_from_cat_kernels() {
    // Sanity: the validation workload exercises several attributes at once,
    // unlike any single CAT kernel.
    use catalyze_sim::{CoreConfig, Cpu, Precision};
    let mut cpu = Cpu::new(CoreConfig::default_sim());
    cpu.run(&catalyze_cat::validation_workload(1, 64));
    let s = cpu.stats();
    assert!(s.flops(Precision::Double) > 0);
    assert!(s.flops(Precision::Single) > 0);
    assert!(s.branch.mispredicted > 0);
    assert!(s.branch.uncond_retired > 0);
    assert!(s.loads > 0);
    assert!(s.int_total() > 0);
}
