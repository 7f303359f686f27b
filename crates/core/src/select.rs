//! Independent-event selection (paper §V): the specialized QRCP applied to
//! the representation matrix `X`.

use crate::normalize::Representation;
use catalyze_linalg::{singular_values, specialized_qrcp, LinalgError, Matrix, SpQrcpParams};
use serde::{Deserialize, Serialize};

/// One selected event with its selection diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
// lint: allow(dead_api): row type in Selection's public fields; part of the select result surface
pub struct SelectedEvent {
    /// Index into the original measurement set's event axis.
    pub index: usize,
    /// Event name.
    pub name: String,
    /// Representation coordinates (a column of `X̂`).
    pub coords: Vec<f64>,
    /// Pivot score at selection time.
    pub score: f64,
    /// Residual norm at selection time.
    pub residual_norm: f64,
}

/// Result of the selection stage.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Selection {
    /// Selected events in pivot order.
    pub events: Vec<SelectedEvent>,
    /// The α tolerance used.
    pub alpha: f64,
    /// Total number of candidate columns offered to the QR.
    pub candidates: usize,
}

impl Selection {
    /// The matrix `X̂` (`basis-dim x selected`). `None` when empty.
    pub fn x_hat(&self) -> Option<Matrix> {
        if self.events.is_empty() {
            return None;
        }
        let cols: Vec<Vec<f64>> = self.events.iter().map(|e| e.coords.clone()).collect();
        // lint: allow(panic, reachable_panic): representation coordinates share the basis dimension
        Some(Matrix::from_columns(&cols).expect("uniform coordinate length"))
    }

    /// Names of the selected events, aligned with `x_hat` columns.
    pub fn names(&self) -> Vec<&str> {
        self.events.iter().map(|e| e.name.as_str()).collect()
    }

    /// 2-norm condition number of `X̂` — a well-conditioned selection is
    /// what makes the subsequent least-squares definitions trustworthy
    /// (`None` for an empty selection, `inf` would indicate the QR let a
    /// dependent column slip through, which its β floor prevents).
    pub fn condition_number(&self) -> Option<f64> {
        let x = self.x_hat()?;
        singular_values(&x).ok().map(|svd| svd.condition_number())
    }
}

/// Runs the specialized QRCP over a representation's `X` matrix.
///
/// Returns an empty selection when the representation kept no events.
///
/// # Errors
///
/// Propagates the QRCP error when `X` contains non-finite values (a
/// representation assembled from unvalidated coordinates).
pub fn select_events(rep: &Representation, alpha: f64) -> Result<Selection, LinalgError> {
    let Some(x) = rep.x_matrix() else {
        return Ok(Selection { events: Vec::new(), alpha, candidates: 0 });
    };
    let result = specialized_qrcp(&x, SpQrcpParams::new(alpha))?;
    let events = result
        .steps
        .iter()
        .map(|step| {
            let e = &rep.kept[step.column];
            SelectedEvent {
                index: e.index,
                name: e.name.clone(),
                coords: e.coords.clone(),
                score: step.score,
                residual_norm: step.residual_norm,
            }
        })
        .collect();
    Ok(Selection { events, alpha, candidates: x.cols() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::branch_basis;
    use crate::normalize::represent;

    fn branch_rep() -> Representation {
        let b = branch_basis();
        let col = |j: usize| -> Vec<f64> { (0..11).map(|i| b.matrix[(i, j)]).collect() };
        let all: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)] + b.matrix[(i, 3)]).collect();
        let scaled_cr: Vec<f64> = col(1).iter().map(|v| v * 3.0).collect();
        represent(
            &b,
            &[
                (0, "BR_INST_RETIRED:COND".into(), col(1)),
                (1, "BR_INST_RETIRED:COND_TAKEN".into(), col(2)),
                (2, "BR_MISP_RETIRED".into(), col(4)),
                (3, "BR_INST_RETIRED:ALL_BRANCHES".into(), all),
                (4, "SCALED_DUPLICATE".into(), scaled_cr),
            ],
            1e-6,
        )
        .unwrap()
    }

    #[test]
    fn selects_the_four_independent_branch_events() {
        let _turn = crate::linalg_turn();
        let rep = branch_rep();
        let sel = select_events(&rep, 5e-4).unwrap();
        assert_eq!(sel.candidates, 5);
        assert_eq!(sel.events.len(), 4, "scaled duplicate must be rejected");
        let names = sel.names();
        assert!(names.contains(&"BR_INST_RETIRED:COND"));
        assert!(names.contains(&"BR_INST_RETIRED:COND_TAKEN"));
        assert!(names.contains(&"BR_MISP_RETIRED"));
        assert!(names.contains(&"BR_INST_RETIRED:ALL_BRANCHES"));
        assert!(!names.contains(&"SCALED_DUPLICATE"));
    }

    #[test]
    fn unit_basis_events_selected_before_combinations() {
        let _turn = crate::linalg_turn();
        let rep = branch_rep();
        let sel = select_events(&rep, 5e-4).unwrap();
        // The three unit-vector representations (score 1) come first;
        // ALL_BRANCHES (score 2 initially, reduced to the D direction after
        // COND is taken) comes last.
        assert_eq!(sel.events[3].name, "BR_INST_RETIRED:ALL_BRANCHES");
    }

    #[test]
    fn x_hat_shape() {
        let _turn = crate::linalg_turn();
        let rep = branch_rep();
        let sel = select_events(&rep, 5e-4).unwrap();
        let xh = sel.x_hat().unwrap();
        assert_eq!(xh.shape(), (5, 4));
        assert!(xh.rows() >= xh.cols(), "square or overdetermined, per §V");
    }

    #[test]
    fn empty_representation_empty_selection() {
        let _turn = crate::linalg_turn();
        let rep = Representation { kept: vec![], rejected: vec![], threshold: 0.1 };
        let sel = select_events(&rep, 5e-4).unwrap();
        assert!(sel.events.is_empty());
        assert!(sel.x_hat().is_none());
        assert_eq!(sel.candidates, 0);
    }
}

#[cfg(test)]
mod condition_tests {
    use super::*;

    #[test]
    fn condition_number_of_clean_selection_is_modest() {
        let _turn = crate::linalg_turn();
        let b = crate::basis::branch_basis();
        let col = |j: usize| -> Vec<f64> { (0..11).map(|i| b.matrix[(i, j)]).collect() };
        let all: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)] + b.matrix[(i, 3)]).collect();
        let rep = crate::normalize::represent(
            &b,
            &[
                (0, "COND".into(), col(1)),
                (1, "TAKEN".into(), col(2)),
                (2, "MISP".into(), col(4)),
                (3, "ALL".into(), all),
            ],
            1e-6,
        )
        .unwrap();
        let sel = select_events(&rep, 5e-4).unwrap();
        let kappa = sel.condition_number().unwrap();
        assert!(kappa < 10.0, "clean selections are well conditioned, got {kappa}");
        assert!(kappa >= 1.0);
    }

    #[test]
    fn empty_selection_has_no_condition_number() {
        let sel = Selection { events: vec![], alpha: 1e-3, candidates: 0 };
        assert!(sel.condition_number().is_none());
    }
}
