//! Level-1 vector kernels used throughout the factorizations.

/// Dot product of two equally long slices.
///
/// Panics in debug builds when the lengths differ; in release builds the
/// shorter length wins (standard `zip` semantics), which is never exercised
/// by the internal callers.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm with overflow/underflow-safe scaling.
///
/// Uses the textbook two-pass scaled formulation rather than `sqrt(dot(v,v))`
/// so that vectors with entries near `f64::MAX.sqrt()` do not overflow.
pub fn norm2(v: &[f64]) -> f64 {
    let maxabs = v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()));
    // lint: allow(float_cmp): exact-zero guard before scaling by 1/maxabs
    if maxabs == 0.0 || !maxabs.is_finite() {
        return maxabs;
    }
    let mut sum = 0.0;
    for &x in v {
        let s = x / maxabs;
        sum += s * s;
    }
    maxabs * sum.sqrt()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    // lint: allow(float_cmp): axpy with exactly-zero alpha is a no-op
    if alpha == 0.0 {
        return;
    }
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Scales `v` in place by `alpha`.
#[inline]
pub fn scale(v: &mut [f64], alpha: f64) {
    for x in v {
        *x *= alpha;
    }
}

/// Euclidean distance between two vectors.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "distance: length mismatch");
    let diff: Vec<f64> = a.iter().zip(b).map(|(&x, &y)| x - y).collect();
    norm2(&diff)
}

/// Arithmetic mean; zero for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Median of a slice (average of the middle two for even lengths).
///
/// Returns `None` for an empty slice and ignores NaN ordering subtleties by
/// using total ordering on bit patterns (callers pass finite data).
pub fn median(v: &[f64]) -> Option<f64> {
    median_in_place(&mut v.to_vec())
}

/// [`median`] that sorts `v` itself instead of a copy, so a caller taking
/// many medians can reuse one buffer. Leaves `v` sorted.
pub fn median_in_place(v: &mut [f64]) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { 0.5 * (v[n / 2 - 1] + v[n / 2]) })
}

/// Largest absolute entry; zero for an empty slice.
pub fn max_abs(v: &[f64]) -> f64 {
    v.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
}

/// True when every entry is exactly zero.
pub fn is_zero(v: &[f64]) -> bool {
    // lint: allow(float_cmp): the zero vector is exactly zero by definition
    v.iter().all(|&x| x == 0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_basic() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn norm2_pythagoras() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(norm2(&[]), 0.0);
        assert_eq!(norm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn norm2_no_overflow() {
        let big = f64::MAX / 2.0;
        let n = norm2(&[big, big]);
        assert!(n.is_finite());
        assert!((n / big - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn norm2_no_underflow() {
        let tiny = f64::MIN_POSITIVE;
        let n = norm2(&[tiny, tiny]);
        assert!(n > 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
        axpy(0.0, &[f64::NAN, f64::NAN], &mut y); // alpha=0 short-circuits
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut v = vec![1.0, -2.0];
        scale(&mut v, -3.0);
        assert_eq!(v, vec![-3.0, 6.0]);
    }

    #[test]
    fn distance_symmetric() {
        let a = [1.0, 2.0];
        let b = [4.0, 6.0];
        assert!((distance(&a, &b) - 5.0).abs() < 1e-15);
        assert_eq!(distance(&a, &b), distance(&b, &a));
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
    }

    #[test]
    fn median_in_place_matches_allocate_and_sort_bit_for_bit() {
        // The allocate-and-sort median `median_in_place` replaced.
        fn reference(v: &[f64]) -> Option<f64> {
            if v.is_empty() {
                return None;
            }
            let mut sorted = v.to_vec();
            sorted.sort_by(f64::total_cmp);
            let n = sorted.len();
            Some(if n % 2 == 1 { sorted[n / 2] } else { 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]) })
        }
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut buf = Vec::new();
        for len in 0..40usize {
            for trial in 0..30 {
                let v: Vec<f64> = (0..len)
                    .map(|_| {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        match (trial % 3, state % 4) {
                            (_, 0) => 0.0,
                            (_, 1) => -0.0,
                            // Any bit pattern: NaNs, infinities, subnormals.
                            (0, _) => f64::from_bits(state),
                            // Near the top of the range, where the sum of
                            // the middle pair overflows.
                            (1, _) => f64::MAX / (1.0 + (state % 8) as f64 / 8.0),
                            _ => (state % 1000) as f64 / 7.0 - 70.0,
                        }
                    })
                    .collect();
                buf.clear();
                buf.extend_from_slice(&v);
                let want = reference(&v).map(f64::to_bits);
                assert_eq!(median_in_place(&mut buf).map(f64::to_bits), want, "{v:?}");
                assert_eq!(median(&v).map(f64::to_bits), want, "{v:?}");
            }
        }
    }

    #[test]
    fn max_abs_and_is_zero() {
        assert_eq!(max_abs(&[-3.0, 2.0]), 3.0);
        assert!(is_zero(&[0.0, 0.0]));
        assert!(!is_zero(&[0.0, 1e-300]));
    }
}
