//! Expectation bases (paper §III).
//!
//! An *expectation* is the measurement vector an ideal event would produce
//! over a benchmark's points. Stacking the expectations of one hardware
//! domain as columns yields the basis `E`, the coordinate system in which
//! raw events are represented and metric signatures are expressed.
//!
//! The kernel structures here mirror `catalyze-cat` (16 CPU-FLOPs kernels
//! with 24/48/96- or 12/24/48-instruction loops; 11 branch kernels; 15 GPU
//! kernels at 256/512/1024 instructions; the pointer-chase sweep described
//! by its per-point regions). Integration tests in the workspace pin the
//! alignment between the two crates.

use catalyze_linalg::Matrix;
use serde::{Deserialize, Serialize};

// The region type lives in `catalyze-events`; this path stays because the
// benchmark package `perfbench/` names it.
pub use catalyze_events::CacheRegion;

/// An expectation basis: labeled columns over a benchmark's points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Basis {
    /// One label per expectation (basis column), e.g. `D256_FMA` or `CR`.
    pub labels: Vec<String>,
    /// `points x expectations` matrix `E`.
    pub matrix: Matrix,
}

impl Basis {
    /// Number of expectations (columns).
    pub fn dim(&self) -> usize {
        self.labels.len()
    }

    /// Number of measurement points (rows).
    pub fn points(&self) -> usize {
        self.matrix.rows()
    }

    /// Index of an expectation by label.
    pub fn index_of(&self, label: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == label)
    }
}

/// Loop sizes of non-FMA CPU-FLOPs kernels (instructions per iteration).
pub const CPU_FLOPS_SIZES: [f64; 3] = [24.0, 48.0, 96.0];
/// Loop sizes of FMA CPU-FLOPs kernels.
pub const CPU_FLOPS_FMA_SIZES: [f64; 3] = [12.0, 24.0, 48.0];

/// CPU-FLOPs expectation labels in basis order (the paper's `E`):
/// `SSCAL..S512, DSCAL..D512, SSCAL_FMA..S512_FMA, DSCAL_FMA..D512_FMA`.
pub fn cpu_flops_labels() -> Vec<String> {
    let mut labels = Vec::with_capacity(16);
    for fma in [false, true] {
        for p in ["S", "D"] {
            for w in ["SCAL", "128", "256", "512"] {
                let mut s = format!("{p}{w}");
                if fma {
                    s.push_str("_FMA");
                }
                labels.push(s);
            }
        }
    }
    labels
}

/// The CPU-FLOPs expectation basis: 48 points (16 kernels x 3 loops) by 16
/// ideal events. Expectation `k` is supported on kernel `k`'s three points
/// with the per-iteration instruction counts.
pub fn cpu_flops_basis() -> Basis {
    let labels = cpu_flops_labels();
    let mut e = Matrix::zeros(48, 16);
    for (k, label) in labels.iter().enumerate() {
        let sizes = if label.ends_with("_FMA") { CPU_FLOPS_FMA_SIZES } else { CPU_FLOPS_SIZES };
        for (l, &v) in sizes.iter().enumerate() {
            e[(3 * k + l, k)] = v;
        }
    }
    Basis { labels, matrix: e }
}

/// Branching expectation labels: Conditional Executed, Conditional Retired,
/// Taken, Unconditional (Direct), Mispredicted.
pub(crate) fn branch_labels() -> Vec<String> {
    ["CE", "CR", "T", "D", "M"].iter().map(|s| s.to_string()).collect()
}

/// The branching expectation basis — the paper's Eq. 3 (11 kernels x 5
/// expectations).
pub fn branch_basis() -> Basis {
    let rows: [[f64; 5]; 11] = [
        [2.0, 2.0, 1.5, 0.0, 0.0],
        [2.0, 2.0, 1.0, 0.0, 0.0],
        [2.0, 2.0, 2.0, 0.0, 0.0],
        [2.0, 2.0, 1.5, 0.0, 0.5],
        [2.5, 2.5, 1.5, 0.0, 0.5],
        [2.5, 2.5, 2.0, 0.0, 0.5],
        [2.5, 2.0, 1.5, 0.0, 0.5],
        [3.0, 2.5, 1.5, 0.0, 0.5],
        [3.0, 2.5, 2.0, 0.0, 0.5],
        [2.0, 2.0, 1.0, 1.0, 0.0],
        [1.0, 1.0, 1.0, 0.0, 0.0],
    ];
    let flat: Vec<f64> = rows.iter().flatten().copied().collect();
    Basis {
        labels: branch_labels(),
        // lint: allow(panic, reachable_panic): static 11x5 expectation table
        matrix: Matrix::from_rows(11, 5, &flat).expect("static shape"),
    }
}

/// Per-wavefront instruction counts of the GPU kernels' three runs.
pub const GPU_FLOPS_SIZES: [f64; 3] = [256.0, 512.0, 1024.0];

/// GPU-FLOPs expectation labels: `TP` with `T` in `{A,S,M,SQ,F}` and `P`
/// in `{H,S,D}` (Eq. 2 column order).
pub fn gpu_flops_labels() -> Vec<String> {
    let mut labels = Vec::with_capacity(15);
    for t in ["A", "S", "M", "SQ", "F"] {
        for p in ["H", "S", "D"] {
            labels.push(format!("{t}{p}"));
        }
    }
    labels
}

/// The GPU-FLOPs expectation basis: 45 points (15 kernels x 3 sizes) by 15
/// ideal events.
pub fn gpu_flops_basis() -> Basis {
    let labels = gpu_flops_labels();
    let mut e = Matrix::zeros(45, 15);
    for k in 0..15 {
        for (l, &v) in GPU_FLOPS_SIZES.iter().enumerate() {
            e[(3 * k + l, k)] = v;
        }
    }
    Basis { labels, matrix: e }
}

/// Data-cache expectation labels: L1 Demand Misses, L1 Demand Hits, L2
/// Demand Hits, L3 Demand Hits.
pub(crate) fn dcache_labels() -> Vec<String> {
    ["L1DM", "L1DH", "L2DH", "L3DH"].iter().map(|s| s.to_string()).collect()
}

/// The data-cache expectation basis, built from the benchmark's per-point
/// regions: per access, an L1-resident point produces one L1 hit; larger
/// points produce one L1 miss plus one hit at their home level.
pub fn dcache_basis(regions: &[CacheRegion]) -> Basis {
    let mut e = Matrix::zeros(regions.len(), 4);
    for (p, r) in regions.iter().enumerate() {
        match r {
            CacheRegion::L1 => e[(p, 1)] = 1.0,
            CacheRegion::L2 => {
                e[(p, 0)] = 1.0;
                e[(p, 2)] = 1.0;
            }
            CacheRegion::L3 => {
                e[(p, 0)] = 1.0;
                e[(p, 3)] = 1.0;
            }
            CacheRegion::Memory => e[(p, 0)] = 1.0,
        }
    }
    Basis { labels: dcache_labels(), matrix: e }
}

/// Store-path expectation labels (extension domain): per-store L1 write
/// misses (RFOs), L1 write hits, L2 write hits, L3 write hits.
pub(crate) fn dstore_labels() -> Vec<String> {
    ["S1M", "S1H", "S2H", "S3H"].iter().map(|s| s.to_string()).collect()
}

/// The store-path expectation basis: structurally the load-cache basis
/// applied to write traffic.
pub fn dstore_basis(regions: &[CacheRegion]) -> Basis {
    let mut b = dcache_basis(regions);
    b.labels = dstore_labels();
    b
}

/// Data-TLB expectation labels (extension domain): per-access TLB misses
/// and TLB hits.
pub(crate) fn dtlb_labels() -> Vec<String> {
    ["TLBM", "TLBH"].iter().map(|s| s.to_string()).collect()
}

/// The data-TLB expectation basis, built from the benchmark's per-point
/// hit-region flags: a TLB-resident point produces one hit per access, a
/// far-oversized point one miss per access.
pub fn dtlb_basis(hit_regions: &[bool]) -> Basis {
    let mut e = Matrix::zeros(hit_regions.len(), 2);
    for (p, &hit) in hit_regions.iter().enumerate() {
        if hit {
            e[(p, 1)] = 1.0;
        } else {
            e[(p, 0)] = 1.0;
        }
    }
    Basis { labels: dtlb_labels(), matrix: e }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_flops_basis_shape_and_support() {
        let b = cpu_flops_basis();
        assert_eq!(b.points(), 48);
        assert_eq!(b.dim(), 16);
        assert_eq!(b.labels[0], "SSCAL");
        assert_eq!(b.labels[4], "DSCAL");
        assert_eq!(b.labels[8], "SSCAL_FMA");
        assert_eq!(b.labels[15], "D512_FMA");
        // DSCAL expectation: kernel 4, points 12..15, values 24/48/96.
        assert_eq!(b.matrix[(12, 4)], 24.0);
        assert_eq!(b.matrix[(13, 4)], 48.0);
        assert_eq!(b.matrix[(14, 4)], 96.0);
        assert_eq!(b.matrix[(12, 5)], 0.0);
        // D256_FMA: kernel 14 (label index), FMA sizes.
        let idx = b.index_of("D256_FMA").unwrap();
        assert_eq!(b.matrix[(3 * idx, idx)], 12.0);
    }

    #[test]
    fn cpu_flops_columns_are_orthogonal() {
        let b = cpu_flops_basis();
        let g = b.matrix.gram();
        for i in 0..16 {
            for j in 0..16 {
                if i != j {
                    assert_eq!(g[(i, j)], 0.0);
                }
            }
        }
    }

    #[test]
    fn branch_basis_matches_eq3() {
        let b = branch_basis();
        assert_eq!(b.points(), 11);
        assert_eq!(b.dim(), 5);
        assert_eq!(b.matrix[(0, 2)], 1.5);
        assert_eq!(b.matrix[(6, 0)], 2.5);
        assert_eq!(b.matrix[(6, 1)], 2.0);
        assert_eq!(b.matrix[(9, 3)], 1.0);
        assert_eq!(b.matrix[(10, 0)], 1.0);
    }

    #[test]
    fn gpu_basis_shape() {
        let b = gpu_flops_basis();
        assert_eq!(b.points(), 45);
        assert_eq!(b.dim(), 15);
        assert_eq!(b.labels[0], "AH");
        assert_eq!(b.labels[3], "SH");
        assert_eq!(b.labels[9], "SQH");
        assert_eq!(b.labels[14], "FD");
        assert_eq!(b.matrix[(0, 0)], 256.0);
        assert_eq!(b.matrix[(44, 14)], 1024.0);
    }

    #[test]
    fn dcache_basis_structure() {
        let regions = [CacheRegion::L1, CacheRegion::L2, CacheRegion::L3, CacheRegion::Memory];
        let b = dcache_basis(&regions);
        assert_eq!(b.points(), 4);
        assert_eq!(b.dim(), 4);
        // L1 point: hit only.
        assert_eq!(b.matrix.row(0), vec![0.0, 1.0, 0.0, 0.0]);
        // L2 point: L1 miss + L2 hit.
        assert_eq!(b.matrix.row(1), vec![1.0, 0.0, 1.0, 0.0]);
        // L3 point: L1 miss + L3 hit.
        assert_eq!(b.matrix.row(2), vec![1.0, 0.0, 0.0, 1.0]);
        // Memory: L1 miss only.
        assert_eq!(b.matrix.row(3), vec![1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn index_of_lookup() {
        let b = branch_basis();
        assert_eq!(b.index_of("T"), Some(2));
        assert_eq!(b.index_of("nope"), None);
    }
}
