//! Factor-once/solve-many least squares.
//!
//! Both hot stages of the analysis pipeline solve many least-squares
//! problems against *one* matrix: representation solves `E·x_e = m_e` once
//! per surviving event, metric definition solves `X̂·y = s` once per
//! signature. The one-shot [`crate::lstsq()`] entry point re-runs a full
//! Householder QR *and* a Jacobi-SVD spectral norm of that same matrix on
//! every call. [`FactoredLstsq`] is the workspace that amortizes both: it
//! factors `A` once at construction, lazily computes `‖A‖₂` once, and then
//! serves any number of right-hand sides from the cached factorization —
//! with results bit-identical to the one-shot path, because every solve
//! goes through exactly the same arithmetic, just without repeating the
//! factorization.
//!
//! The workspace is deliberately `!Sync` (interior-mutability cells track
//! the lazy norm and the reuse counters); [`FactoredLstsq::solve_many`]
//! still parallelizes *across* right-hand sides internally by handing the
//! rayon pool only `Sync` views of the factorization.

use std::cell::{Cell, OnceCell};
use std::time::Instant;

use crate::error::{LinalgError, Result};
use crate::lstsq::LstsqSolution;
use crate::matrix::Matrix;
use crate::qr::Qr;
use crate::stats;
use crate::svd;
use crate::tri;
use crate::vector;

/// Per-RHS work (`rows · cols` reflector flops) below which a batch stays
/// sequential, mirroring [`Matrix::matmul`]'s fork/join threshold.
const PARALLEL_WORK_THRESHOLD: u64 = 1 << 20;

/// A least-squares workspace over one matrix `A`: Householder QR computed
/// once, `‖A‖₂` computed lazily once, any number of right-hand sides solved
/// against both.
///
/// ```
/// use catalyze_linalg::{lstsq, FactoredLstsq, Matrix};
///
/// let a = Matrix::from_rows(3, 2, &[1.0, 0.0, 1.0, 1.0, 1.0, 2.0]).unwrap();
/// let factored = FactoredLstsq::factor(&a).unwrap();
/// let b1 = [1.0, 3.0, 5.0];
/// let b2 = [2.0, 2.0, 2.0];
/// let batch = factored.solve_many(&[&b1, &b2]).unwrap();
/// // Bit-identical to the one-shot path, with one QR instead of two.
/// assert_eq!(batch[0].x, lstsq(&a, &b1).unwrap().x);
/// assert_eq!(batch[1].x, lstsq(&a, &b2).unwrap().x);
/// ```
#[derive(Debug)]
pub struct FactoredLstsq<'a> {
    a: &'a Matrix,
    qr: Qr,
    /// The `n x n` triangular factor, materialized once (the naive path
    /// rebuilds it from the packed factorization on every solve).
    r: Matrix,
    /// Lazily cached `‖A‖₂`; only successful computations are cached.
    norm: OnceCell<f64>,
    /// Right-hand sides solved so far, for the factorization-reuse counter.
    solves: Cell<u64>,
}

impl<'a> FactoredLstsq<'a> {
    /// Factors `a` once. Requirements are [`Qr::factor`]'s: square or tall,
    /// non-empty, finite.
    ///
    /// # Errors
    ///
    /// Exactly the [`Qr::factor`] errors: [`LinalgError::Empty`],
    /// [`LinalgError::ShapeMismatch`] for a wide matrix,
    /// [`LinalgError::NonFinite`].
    pub fn factor(a: &'a Matrix) -> Result<Self> {
        let qr = Qr::factor(a)?;
        let r = qr.r();
        Ok(Self { a, qr, r, norm: OnceCell::new(), solves: Cell::new(0) })
    }

    /// The factored matrix.
    pub fn matrix(&self) -> &Matrix {
        self.a
    }

    /// Number of rows of `A` (the required right-hand-side length).
    pub fn rows(&self) -> usize {
        self.a.rows()
    }

    /// Number of columns of `A` (the solution length).
    pub fn cols(&self) -> usize {
        self.a.cols()
    }

    /// `‖A‖₂`, computed on first use and served from the cache afterwards.
    /// Cache hits increment the `spectral_norms_cached` stats counter.
    ///
    /// # Errors
    ///
    /// Propagates [`crate::spectral_norm`]'s Jacobi-SVD convergence failure
    /// (failures are not cached; a later call retries).
    pub fn spectral_norm(&self) -> Result<f64> {
        if let Some(&n) = self.norm.get() {
            stats::record_spectral_norms_cached(1);
            return Ok(n);
        }
        let n = svd::spectral_norm(self.a)?;
        let _ = self.norm.set(n);
        Ok(n)
    }

    /// Validates one right-hand side exactly as the one-shot [`crate::lstsq()`]
    /// does (same error variants and contexts).
    fn validate_rhs(&self, b: &[f64]) -> Result<()> {
        if b.len() != self.rows() {
            return Err(LinalgError::ShapeMismatch {
                expected: (self.rows(), 1),
                got: (b.len(), 1),
                context: "lstsq",
            });
        }
        if b.iter().any(|v| !v.is_finite()) {
            return Err(LinalgError::NonFinite { context: "lstsq (rhs)" });
        }
        Ok(())
    }

    /// Records `new_solves` more right-hand sides against this
    /// factorization; every solve beyond the instance's first avoided one
    /// QR factorization relative to the one-shot baseline.
    fn note_reuse(&self, new_solves: u64) {
        let prior = self.solves.get();
        let avoided = if prior == 0 { new_solves.saturating_sub(1) } else { new_solves };
        if avoided > 0 {
            stats::record_qr_factorizations_avoided(avoided);
        }
        self.solves.set(prior + new_solves);
    }

    /// Solves `min ‖A x − b‖₂` with full diagnostics, reusing the cached
    /// factorization and spectral norm.
    ///
    /// # Errors
    ///
    /// The one-shot [`crate::lstsq()`] errors: [`LinalgError::ShapeMismatch`]
    /// / [`LinalgError::NonFinite`] for a mis-shaped or non-finite `b`,
    /// [`LinalgError::Singular`] when `A` is rank deficient.
    // lint: contract(deterministic)
    pub fn solve(&self, b: &[f64]) -> Result<LstsqSolution> {
        let _timer = stats::time(stats::Kernel::Lstsq);
        self.validate_rhs(b)?;
        self.note_reuse(1);
        let y = self.qr.apply_qt(b)?;
        let norm = self.spectral_norm()?;
        finish_column(&self.r, self.a, norm, &y, b)
    }

    /// Backward error (Eq. 5) of a candidate solution `x` against `b`,
    /// using the cached `‖A‖₂` — the workspace counterpart of
    /// [`crate::backward_error`], bit-identical to it.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `x` or `b` disagree with `A`'s
    /// shape; a Jacobi-SVD convergence failure on the first norm use.
    pub fn backward_error(&self, x: &[f64], b: &[f64]) -> Result<f64> {
        let ax = self.a.matvec(x)?;
        if ax.len() != b.len() {
            return Err(LinalgError::ShapeMismatch {
                expected: (ax.len(), 1),
                got: (b.len(), 1),
                context: "backward_error",
            });
        }
        let residual: Vec<f64> = ax.iter().zip(b).map(|(&p, &q)| p - q).collect();
        let num = vector::norm2(&residual);
        let denom = self.spectral_norm()? * vector::norm2(x) + vector::norm2(b);
        // lint: allow(float_cmp): exact-zero guard before forming the error ratio
        if denom == 0.0 {
            // lint: allow(float_cmp): 0/0 is defined as 0 here, x/0 as infinity
            return Ok(if num == 0.0 { 0.0 } else { f64::INFINITY });
        }
        Ok(num / denom)
    }

    /// Solves one least-squares problem per right-hand side as a blocked
    /// panel: `Q^T` is applied to all columns at once (see
    /// [`Qr::apply_qt_panel`]), then each column is back-substituted and
    /// diagnosed. Batches above the `1 << 20` work threshold run
    /// column-parallel across the rayon pool; solutions are bit-identical
    /// to calling [`FactoredLstsq::solve`] (and therefore [`crate::lstsq()`])
    /// once per right-hand side either way.
    ///
    /// Every right-hand side is validated before any work starts, so a
    /// mis-shaped or non-finite entry anywhere in the batch fails the whole
    /// call with the same error the one-shot path would produce for it.
    ///
    /// # Errors
    ///
    /// The [`FactoredLstsq::solve`] errors, for the first offending
    /// right-hand side.
    // lint: contract(deterministic)
    pub fn solve_many(&self, rhs: &[&[f64]]) -> Result<Vec<LstsqSolution>> {
        if rhs.is_empty() {
            return Ok(Vec::new());
        }
        // lint: allow(raw_timing): batched-solve wall time lands in the lstsq_nanos stats counter
        let start = Instant::now();
        for b in rhs {
            self.validate_rhs(b)?;
        }
        let norm = self.spectral_norm()?;
        self.note_reuse(rhs.len() as u64);
        // Every column after the first reuses the norm computed (or found
        // cached) above.
        stats::record_spectral_norms_cached(rhs.len() as u64 - 1);

        let m = self.rows();
        let mut panel = Matrix::zeros(m, rhs.len());
        for (j, b) in rhs.iter().enumerate() {
            panel.col_mut(j).copy_from_slice(b);
        }
        self.qr.apply_qt_panel(&mut panel)?;

        let r = &self.r;
        let a = self.a;
        let finish =
            |j: usize| -> Result<LstsqSolution> { finish_column(r, a, norm, panel.col(j), rhs[j]) };
        let work = m as u64 * self.cols() as u64 * rhs.len() as u64;
        let results: Vec<Result<LstsqSolution>> = if work < PARALLEL_WORK_THRESHOLD {
            (0..rhs.len()).map(finish).collect()
        } else {
            use rayon::prelude::*;
            let columns: Vec<usize> = (0..rhs.len()).collect();
            columns.par_iter().map(|&j| finish(j)).collect()
        };
        let solutions = results.into_iter().collect::<Result<Vec<_>>>()?;
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        stats::record_batch(stats::Kernel::Lstsq, rhs.len() as u64, elapsed);
        Ok(solutions)
    }
}

/// Back-substitutes one transformed right-hand side and computes the
/// one-shot path's diagnostics — the same expressions in the same order, so
/// the result is bit-identical to [`crate::lstsq()`].
fn finish_column(
    r: &Matrix,
    a: &Matrix,
    spectral_norm: f64,
    y: &[f64],
    b: &[f64],
) -> Result<LstsqSolution> {
    let x = tri::solve_upper(r, y)?;
    let ax = a.matvec(&x)?;
    let residual: Vec<f64> = ax.iter().zip(b).map(|(&p, &q)| p - q).collect();
    let residual_norm = vector::norm2(&residual);
    let bnorm = vector::norm2(b);
    // lint: allow(float_cmp): exact-zero guard before forming the residual ratio
    let relative_residual = if bnorm == 0.0 {
        // lint: allow(float_cmp): exact-zero guard before forming the residual ratio
        if residual_norm == 0.0 {
            0.0
        } else {
            1.0
        }
    } else {
        residual_norm / bnorm
    };
    // The one-shot path recomputes `A x − b` inside `backward_error`; the
    // recomputation is deterministic, so reusing `residual_norm` as the
    // numerator is exact.
    let denom = spectral_norm * vector::norm2(&x) + bnorm;
    // lint: allow(float_cmp): exact-zero guard before forming the error ratio
    let backward_error = if denom == 0.0 {
        // lint: allow(float_cmp): 0/0 is defined as 0 here, x/0 as infinity
        if residual_norm == 0.0 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        residual_norm / denom
    };
    Ok(LstsqSolution { x, residual_norm, relative_residual, backward_error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lstsq::lstsq;

    fn tall() -> Matrix {
        Matrix::from_rows(4, 2, &[2.0, -1.0, 1.0, 3.0, 0.5, 1.0, -2.0, 4.0]).unwrap()
    }

    fn assert_bits_equal(got: &LstsqSolution, want: &LstsqSolution) {
        for (g, w) in got.x.iter().zip(&want.x) {
            assert_eq!(g.to_bits(), w.to_bits());
        }
        assert_eq!(got.residual_norm.to_bits(), want.residual_norm.to_bits());
        assert_eq!(got.relative_residual.to_bits(), want.relative_residual.to_bits());
        assert_eq!(got.backward_error.to_bits(), want.backward_error.to_bits());
    }

    #[test]
    fn solve_is_bit_identical_to_one_shot() {
        let a = tall();
        let b = [1.0, -2.0, 0.25, 3.0];
        let f = FactoredLstsq::factor(&a).unwrap();
        assert_bits_equal(&f.solve(&b).unwrap(), &lstsq(&a, &b).unwrap());
        // And again: the cached norm must not drift the result.
        assert_bits_equal(&f.solve(&b).unwrap(), &lstsq(&a, &b).unwrap());
    }

    #[test]
    fn solve_many_matches_repeated_solves() {
        let a = tall();
        let b1 = [1.0, 2.0, 3.0, 4.0];
        let b2 = [0.0, 0.0, 0.0, 0.0];
        let b3 = [-5.0, 0.5, 2.0, 1.0];
        let f = FactoredLstsq::factor(&a).unwrap();
        let batch = f.solve_many(&[&b1, &b2, &b3]).unwrap();
        assert_eq!(batch.len(), 3);
        for (got, b) in batch.iter().zip([&b1[..], &b2, &b3]) {
            assert_bits_equal(got, &lstsq(&a, b).unwrap());
        }
    }

    #[test]
    fn empty_batch_is_empty() {
        let a = tall();
        let f = FactoredLstsq::factor(&a).unwrap();
        assert!(f.solve_many(&[]).unwrap().is_empty());
    }

    #[test]
    fn error_variants_match_one_shot() {
        let a = tall();
        let f = FactoredLstsq::factor(&a).unwrap();
        // Mis-shaped RHS.
        assert_eq!(f.solve(&[1.0]).unwrap_err(), lstsq(&a, &[1.0]).unwrap_err());
        // Non-finite RHS.
        let nan = [f64::NAN, 0.0, 0.0, 0.0];
        assert_eq!(f.solve(&nan).unwrap_err(), lstsq(&a, &nan).unwrap_err());
        // A bad entry anywhere fails the batch with the same error.
        let good = [1.0, 1.0, 1.0, 1.0];
        assert_eq!(f.solve_many(&[&good, &nan]).unwrap_err(), lstsq(&a, &nan).unwrap_err());
        // Factor-time errors are the QR's.
        assert!(matches!(
            FactoredLstsq::factor(&Matrix::zeros(2, 3)).unwrap_err(),
            LinalgError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn exactly_singular_matrix_errors_like_one_shot() {
        // A zero column survives factorization but makes back-substitution
        // hit an exactly-zero pivot in both paths.
        let a = Matrix::from_columns(&[vec![1.0, 2.0, 3.0], vec![0.0, 0.0, 0.0]]).unwrap();
        let b = [1.0, 1.0, 1.0];
        let f = FactoredLstsq::factor(&a).unwrap();
        let got = f.solve(&b).unwrap_err();
        assert_eq!(got, lstsq(&a, &b).unwrap_err());
        assert!(matches!(got, LinalgError::Singular { .. }));
    }

    #[test]
    fn reuse_counters_track_avoided_work() {
        let a = tall();
        let before = stats::snapshot();
        let f = FactoredLstsq::factor(&a).unwrap();
        let b1 = [1.0, 2.0, 3.0, 4.0];
        let b2 = [4.0, 3.0, 2.0, 1.0];
        f.solve(&b1).unwrap();
        f.solve(&b2).unwrap();
        f.solve_many(&[&b1, &b2]).unwrap();
        let delta = stats::snapshot().delta_since(&before);
        // One real factorization and one real norm; three of each avoided
        // (solves 2, 3, and 4 reused both).
        assert!(delta.qr_factorizations >= 1);
        assert!(delta.qr_factorizations_avoided >= 3);
        assert!(delta.spectral_norms >= 1);
        assert!(delta.spectral_norms_cached >= 3);
        assert!(delta.lstsq_solves >= 4);
    }

    #[test]
    fn spectral_norm_matches_free_function() {
        let a = tall();
        let f = FactoredLstsq::factor(&a).unwrap();
        let free = svd::spectral_norm(&a).unwrap();
        assert_eq!(f.spectral_norm().unwrap().to_bits(), free.to_bits());
        assert_eq!(f.spectral_norm().unwrap().to_bits(), free.to_bits());
    }

    #[test]
    fn backward_error_matches_free_function() {
        let a = tall();
        let f = FactoredLstsq::factor(&a).unwrap();
        let x = [0.5, -1.5];
        let b = [1.0, 0.0, 2.0, -1.0];
        let free = crate::lstsq::backward_error(&a, &x, &b).unwrap();
        assert_eq!(f.backward_error(&x, &b).unwrap().to_bits(), free.to_bits());
        assert!(f.backward_error(&x, &[1.0]).is_err());
    }
}
