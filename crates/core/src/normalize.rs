//! Event-measurement normalization (paper §III-B): representing each raw
//! event in the expectation basis by solving `E · x_e = m_e`.

use crate::basis::Basis;
use catalyze_linalg::{FactoredLstsq, LinalgError, Matrix};
use serde::{Deserialize, Serialize};

/// One event successfully represented in the expectation basis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// lint: allow(dead_api): row type in Representation's public fields; part of the normalize result surface
pub struct RepresentedEvent {
    /// Index into the original measurement set's event axis.
    pub index: usize,
    /// Event name.
    pub name: String,
    /// Representation `x_e` in basis coordinates.
    pub coords: Vec<f64>,
    /// Relative least-squares residual `‖E x_e − m_e‖ / ‖m_e‖`.
    pub residual: f64,
}

/// An event rejected because the basis cannot express it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// lint: allow(dead_api): row type in Representation's public fields; records why an event was dropped
pub struct RejectedEvent {
    /// Index into the original measurement set's event axis.
    pub index: usize,
    /// Event name.
    pub name: String,
    /// Relative residual that exceeded the threshold.
    pub residual: f64,
}

/// Result of representing a set of events in an expectation basis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Representation {
    /// Events expressible in the basis, in input order.
    pub kept: Vec<RepresentedEvent>,
    /// Events the basis cannot express.
    pub rejected: Vec<RejectedEvent>,
    /// The relative-residual threshold used.
    pub threshold: f64,
}

impl Representation {
    /// The matrix `X` whose columns are the kept events' representations
    /// (`basis-dim x kept-events`). `None` when nothing survived.
    pub fn x_matrix(&self) -> Option<Matrix> {
        if self.kept.is_empty() {
            return None;
        }
        let cols: Vec<Vec<f64>> = self.kept.iter().map(|e| e.coords.clone()).collect();
        // lint: allow(panic, reachable_panic): representation coordinates share the basis dimension
        Some(Matrix::from_columns(&cols).expect("uniform coordinate length"))
    }

    /// Names of the kept events, aligned with `x_matrix` columns.
    pub fn kept_names(&self) -> Vec<&str> {
        self.kept.iter().map(|e| e.name.as_str()).collect()
    }
}

/// Represents each `(index, name, mean measurement vector)` in the basis.
///
/// Events whose relative residual exceeds `threshold` are rejected — they
/// measure something the benchmark's ideal-event space does not span (e.g.
/// loop-header integer traffic under the FLOPs basis).
///
/// The basis matrix `E` is factored once for the whole event set
/// ([`FactoredLstsq`]) and every measurement vector is solved against the
/// shared factorization — the same coordinates, bit for bit, as solving
/// each event independently, at one QR and one spectral norm total.
///
/// # Errors
///
/// Propagates the least-squares error when a measurement vector's length
/// does not match the basis points, contains non-finite values, or the
/// basis matrix is rank deficient.
pub fn represent(
    basis: &Basis,
    events: &[(usize, String, Vec<f64>)],
    threshold: f64,
) -> Result<Representation, LinalgError> {
    let mut kept = Vec::new();
    let mut rejected = Vec::new();
    if !events.is_empty() {
        let factored = FactoredLstsq::factor(&basis.matrix)?;
        let rhs: Vec<&[f64]> = events.iter().map(|(_, _, m)| m.as_slice()).collect();
        let solutions = factored.solve_many(&rhs)?;
        for ((index, name, _), sol) in events.iter().zip(solutions) {
            if sol.relative_residual <= threshold {
                kept.push(RepresentedEvent {
                    index: *index,
                    name: name.clone(),
                    coords: sol.x,
                    residual: sol.relative_residual,
                });
            } else {
                rejected.push(RejectedEvent {
                    index: *index,
                    name: name.clone(),
                    residual: sol.relative_residual,
                });
            }
        }
    }
    Ok(Representation { kept, rejected, threshold })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::{branch_basis, cpu_flops_basis};

    #[test]
    fn exact_expectation_is_represented_exactly() {
        let _turn = crate::linalg_turn();
        let b = branch_basis();
        // The CR column itself.
        let cr: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)]).collect();
        let rep = represent(&b, &[(0, "COND".into(), cr)], 1e-6).unwrap();
        assert_eq!(rep.kept.len(), 1);
        let coords = &rep.kept[0].coords;
        assert!((coords[1] - 1.0).abs() < 1e-10);
        for (i, c) in coords.iter().enumerate() {
            if i != 1 {
                assert!(c.abs() < 1e-10, "coord {i} = {c}");
            }
        }
        assert!(rep.kept[0].residual < 1e-12);
    }

    #[test]
    fn linear_combination_is_represented() {
        let _turn = crate::linalg_turn();
        let b = branch_basis();
        // ALL_BRANCHES = CR + D.
        let all: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)] + b.matrix[(i, 3)]).collect();
        let rep = represent(&b, &[(3, "ALL".into(), all)], 1e-6).unwrap();
        assert_eq!(rep.kept.len(), 1);
        let c = &rep.kept[0].coords;
        assert!((c[1] - 1.0).abs() < 1e-10);
        assert!((c[3] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn unrepresentable_event_is_rejected() {
        let _turn = crate::linalg_turn();
        let b = cpu_flops_basis();
        // Constant loop-overhead vector: not in the span of 24/48/96 triples.
        let constant = vec![2.0; 48];
        let rep = represent(&b, &[(7, "INT".into(), constant)], 0.05).unwrap();
        assert!(rep.kept.is_empty());
        assert_eq!(rep.rejected.len(), 1);
        assert!(rep.rejected[0].residual > 0.1);
    }

    #[test]
    fn fp_event_with_fma_double_count_is_represented() {
        let _turn = crate::linalg_turn();
        let b = cpu_flops_basis();
        // SCALAR_DOUBLE: DSCAL triple at 24/48/96 plus DSCAL_FMA triple at
        // 2 x (12/24/48) = 24/48/96.
        let mut m = vec![0.0; 48];
        let dscal = b.index_of("DSCAL").unwrap();
        let dscal_fma = b.index_of("DSCAL_FMA").unwrap();
        for (l, v) in [24.0, 48.0, 96.0].iter().enumerate() {
            m[3 * dscal + l] = *v;
            m[3 * dscal_fma + l] = *v;
        }
        let rep = represent(&b, &[(0, "SCALAR_DOUBLE".into(), m)], 1e-6).unwrap();
        assert_eq!(rep.kept.len(), 1);
        let c = &rep.kept[0].coords;
        assert!((c[dscal] - 1.0).abs() < 1e-10);
        assert!((c[dscal_fma] - 2.0).abs() < 1e-10, "FMA double-count -> coordinate 2");
    }

    #[test]
    fn x_matrix_assembles_columns() {
        let _turn = crate::linalg_turn();
        let b = branch_basis();
        let cr: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)]).collect();
        let t: Vec<f64> = (0..11).map(|i| b.matrix[(i, 2)]).collect();
        let rep = represent(&b, &[(0, "CR".into(), cr), (1, "T".into(), t)], 1e-6).unwrap();
        let x = rep.x_matrix().unwrap();
        assert_eq!(x.shape(), (5, 2));
        assert_eq!(rep.kept_names(), vec!["CR", "T"]);
        let empty = Representation { kept: vec![], rejected: vec![], threshold: 0.1 };
        assert!(empty.x_matrix().is_none());
    }

    #[test]
    fn wrong_length_is_an_error() {
        let _turn = crate::linalg_turn();
        let b = branch_basis();
        let err = represent(&b, &[(0, "bad".into(), vec![1.0; 3])], 0.1).unwrap_err();
        assert!(matches!(err, LinalgError::ShapeMismatch { .. }), "got {err:?}");
    }
}
