//! Guards the structural alignment between the benchmark crate
//! (`catalyze-cat`) and the analysis crate (`catalyze`): the expectation
//! bases assume a specific kernel ordering and loop sizing, and these tests
//! fail loudly if either side drifts.

use catalyze::basis;
use catalyze_cat::{branch, flops_cpu, flops_gpu};

#[test]
fn cpu_flops_kernel_order_matches_basis_labels() {
    let labels = basis::cpu_flops_labels();
    let kernels = flops_cpu::kernel_space();
    assert_eq!(labels.len(), kernels.len());
    for (label, kernel) in labels.iter().zip(&kernels) {
        assert_eq!(label, &kernel.symbol(), "basis/kernel order drift");
    }
}

#[test]
fn cpu_flops_loop_sizes_match_basis_constants() {
    for k in flops_cpu::kernel_space() {
        let expected = if k.fma { basis::CPU_FLOPS_FMA_SIZES } else { basis::CPU_FLOPS_SIZES };
        let actual: Vec<f64> = k.loop_sizes().iter().map(|&v| v as f64).collect();
        assert_eq!(actual, expected.to_vec(), "{}", k.symbol());
    }
}

#[test]
fn cpu_flops_point_count_matches_basis() {
    assert_eq!(flops_cpu::point_labels().len(), basis::cpu_flops_basis().points());
}

#[test]
fn branch_expectations_match_basis_rows() {
    let b = basis::branch_basis();
    let kernels = branch::kernel_space();
    assert_eq!(kernels.len(), b.points());
    for (i, k) in kernels.iter().enumerate() {
        for (j, &v) in k.expectation.iter().enumerate() {
            assert_eq!(b.matrix[(i, j)], v, "kernel {} column {j}", k.name);
        }
    }
}

#[test]
fn gpu_kernel_order_matches_basis_labels() {
    let labels = basis::gpu_flops_labels();
    let kernels = flops_gpu::kernel_space();
    assert_eq!(labels.len(), kernels.len());
    for (label, kernel) in labels.iter().zip(&kernels) {
        assert_eq!(label, &kernel.symbol());
    }
}

#[test]
fn gpu_sizes_match_basis_constants() {
    let sizes: Vec<f64> = flops_gpu::SIZES.iter().map(|&v| v as f64).collect();
    assert_eq!(sizes, basis::GPU_FLOPS_SIZES.to_vec());
    assert_eq!(flops_gpu::point_labels().len(), basis::gpu_flops_basis().points());
}

#[test]
fn dcache_regions_produce_full_rank_basis() {
    let cfg = catalyze_cat::RunnerConfig::default_sim();
    let b = catalyze_check::study(catalyze_cat::Domain::Dcache, &cfg).basis;
    assert_eq!(b.points(), catalyze_cat::dcache::sweep(&cfg.core.hierarchy).len());
    let svd = catalyze_linalg::singular_values(&b.matrix).unwrap();
    assert_eq!(svd.rank(1e-10), 4, "all four cache expectations must be independent");
}
