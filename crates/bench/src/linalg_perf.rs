//! The least-squares rows of the performance snapshot: one-shot
//! `lstsq` calls against one batched `FactoredLstsq` workspace on the
//! CPU-FLOPs basis shape. [`crate::perf::snapshot`] folds them into
//! `BENCH_obs.json`.

use crate::perf::{timed, timing_repeats};
use crate::Scale;
use catalyze::basis::cpu_flops_basis;
use catalyze_linalg::{lstsq, stats, FactoredLstsq, LstsqSolution, Matrix};
use catalyze_obs::{Observer, TraceCollector};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// Batch sizes of the least-squares rows. Both scales include the 64-RHS
/// case the CI ratio clause keys on.
pub(crate) fn rhs_counts(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Full => &[8, 64, 256],
        Scale::Fast => &[8, 64],
    }
}

fn random_rhs(rows: usize, count: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| (0..rows).map(|_| rng.gen_range(-100.0..100.0)).collect()).collect()
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

/// The least-squares rows on the CPU-FLOPs basis shape (48 points × 16
/// expectations), plus the batched path's bit-identity and reuse counts.
pub(crate) fn lstsq_rows(scale: Scale, perf: &TraceCollector) {
    let basis = cpu_flops_basis();
    let a = &basis.matrix;
    let mut mismatches = 0;
    for (i, &k) in rhs_counts(scale).iter().enumerate() {
        let rhs = random_rhs(a.rows(), k, 0xBE7C_u64 + i as u64);
        for _ in 0..timing_repeats(scale) {
            black_box(timed(perf, &format!("lstsq/per-call/{k}"), || solve_per_call(a, &rhs)));
            black_box(timed(perf, &format!("lstsq/batched/{k}"), || solve_batched(a, &rhs)));
        }
        let before = stats::snapshot();
        let batched = solve_batched(a, &rhs);
        let reuse = stats::snapshot().delta_since(&before);
        perf.counter("perf.lstsq_qr_avoided", reuse.qr_factorizations_avoided);
        perf.counter("perf.lstsq_spectral_cached", reuse.spectral_norms_cached);
        mismatches += u64::from(!bits_identical(&solve_per_call(a, &rhs), &batched));
    }
    perf.counter("perf.lstsq_mismatches", mismatches);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::fast_snapshot;
    use catalyze_obs::Snapshot;

    #[test]
    fn snapshot_is_valid_versioned_json_with_identical_paths() {
        let snapshot = fast_snapshot();
        let parsed: serde_json::Value = serde_json::from_str(snapshot).unwrap();
        assert_eq!(parsed["version"].as_u64(), Some(1));
        let loaded = Snapshot::from_json(snapshot).unwrap();
        assert_eq!(loaded.counters.get("perf.lstsq_mismatches"), Some(&0));
        // The lstsq counters are process-wide and other tests run
        // analyses alongside, so only a lower bound holds here.
        let reuse = loaded.counters.get("perf.lstsq_qr_avoided").copied().unwrap_or(0);
        assert!(reuse >= 7 + 63, "one factorization per batch of 8 and of 64: {reuse}");
        assert!(loaded.counters.contains_key("perf.lstsq_spectral_cached"));

        for k in rhs_counts(Scale::Fast) {
            for path in ["per-call", "batched"] {
                let name = format!("lstsq/{path}/{k}");
                let span = loaded.spans.get(name.as_str());
                assert!(span.is_some_and(|s| s.count == 5 && s.stat_ns() > 0.0), "{name}");
            }
        }
    }
}
