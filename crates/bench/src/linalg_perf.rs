//! Factor-once/solve-many performance snapshot (`BENCH_linalg.json`).
//!
//! Measures the analysis hot path's least-squares engine on the CPU-FLOPs
//! basis shape (48 points x 16 events): repeated one-shot [`lstsq()`] calls
//! versus one [`FactoredLstsq`] workspace serving the whole batch through
//! `solve_many`. The snapshot also verifies the two paths agree bit for bit
//! and reports the factorization-reuse counters, so a regression in either
//! the speedup or the equivalence shows up in CI.

use catalyze::basis::cpu_flops_basis;
use catalyze_linalg::{lstsq, stats, FactoredLstsq, LstsqSolution, Matrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

use crate::Scale;

/// Timing repetitions per case; the minimum over them is reported.
fn reps(scale: Scale) -> usize {
    match scale {
        Scale::Full => 15,
        Scale::Fast => 5,
    }
}

/// Batch sizes measured per scale. Both scales include the 64-RHS case the
/// CI regression gate keys on.
fn rhs_counts(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Full => &[8, 64, 256],
        Scale::Fast => &[8, 64],
    }
}

fn random_rhs(rows: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (0..rows).map(|_| rng.gen_range(-100.0..100.0)).collect()).collect()
}

/// Minimum wall nanoseconds of `f` over `n` runs (best-of filtering damps
/// scheduler noise without a full criterion session).
fn best_of(n: usize, mut f: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..n {
        // lint: allow(raw_timing): best-of benchmark loop; its result is the artifact itself
        let start = Instant::now();
        f();
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        best = best.min(elapsed);
    }
    best
}

fn bits_identical(a: &[LstsqSolution], b: &[LstsqSolution]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.x.len() == y.x.len()
                && x.x.iter().zip(&y.x).all(|(p, q)| p.to_bits() == q.to_bits())
                && x.residual_norm.to_bits() == y.residual_norm.to_bits()
                && x.relative_residual.to_bits() == y.relative_residual.to_bits()
                && x.backward_error.to_bits() == y.backward_error.to_bits()
        })
}

fn solve_per_call(a: &Matrix, rhs: &[Vec<f64>]) -> Vec<LstsqSolution> {
    // lint: allow(panic): the basis matrix is full rank by construction
    rhs.iter().map(|b| lstsq(a, b).expect("full-rank basis")).collect()
}

fn solve_batched(a: &Matrix, rhs: &[Vec<f64>]) -> Vec<LstsqSolution> {
    // lint: allow(panic): the basis matrix is full rank by construction
    let factored = FactoredLstsq::factor(a).expect("full-rank basis");
    let refs: Vec<&[f64]> = rhs.iter().map(|b| b.as_slice()).collect();
    // lint: allow(panic): the basis matrix is full rank by construction
    factored.solve_many(&refs).expect("full-rank basis")
}

/// Renders the versioned `BENCH_linalg.json` snapshot.
pub fn linalg_snapshot(scale: Scale) -> String {
    let basis = cpu_flops_basis();
    let a = &basis.matrix;
    let (rows, cols) = a.shape();
    let n = reps(scale);

    let mut cases = Vec::new();
    for (i, &k) in rhs_counts(scale).iter().enumerate() {
        let rhs = random_rhs(rows, k, 0xBE7C_u64 + i as u64);
        let per_call_ns = best_of(n, || {
            std::hint::black_box(solve_per_call(a, &rhs));
        });
        let batched_ns = best_of(n, || {
            std::hint::black_box(solve_batched(a, &rhs));
        });
        let identical = bits_identical(&solve_per_call(a, &rhs), &solve_batched(a, &rhs));
        // Reuse counters for one batched run (factor + solve_many).
        let before = stats::snapshot();
        std::hint::black_box(solve_batched(a, &rhs));
        let delta = stats::snapshot().delta_since(&before);
        let speedup = per_call_ns as f64 / batched_ns.max(1) as f64;
        cases.push(format!(
            "{{\"rhs\":{k},\"per_call_ns\":{per_call_ns},\"batched_ns\":{batched_ns},\
             \"speedup\":{speedup:.3},\"identical\":{identical},\
             \"qr_avoided\":{},\"spectral_cached\":{}}}",
            delta.qr_factorizations_avoided, delta.spectral_norms_cached
        ));
    }
    format!(
        "{{\"version\":1,\"scale\":\"{}\",\"shape\":{{\"rows\":{rows},\"cols\":{cols}}},\
         \"cases\":[{}]}}\n",
        scale.label(),
        cases.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_valid_versioned_json_with_identical_paths() {
        let snapshot = linalg_snapshot(Scale::Fast);
        let parsed: serde_json::Value = serde_json::from_str(&snapshot).unwrap();
        assert_eq!(parsed["version"].as_u64(), Some(1));
        assert_eq!(parsed["scale"].as_str(), Some("fast"));
        assert_eq!(parsed["shape"]["rows"].as_u64(), Some(48));
        assert_eq!(parsed["shape"]["cols"].as_u64(), Some(16));
        let cases = parsed["cases"].as_array().unwrap();
        assert_eq!(cases.len(), rhs_counts(Scale::Fast).len());
        for case in cases {
            let k = case["rhs"].as_u64().unwrap();
            assert_eq!(case["identical"].as_bool(), Some(true), "batch of {k} diverged");
            assert!(case["speedup"].as_f64().unwrap() > 0.0);
            // One factorization and one norm serve the whole batch.
            assert!(case["qr_avoided"].as_u64().unwrap() >= k - 1);
            assert!(case["spectral_cached"].as_u64().unwrap() >= k - 1);
        }
    }
}
