//! Metric definition (paper §VI): least-squares composition of selected
//! events into metric signatures, with the backward-error fitness measure
//! and the coefficient-rounding step used for noisy (cache) events.

use crate::error::AnalysisError;
use crate::select::Selection;
use crate::signature::MetricSignature;
use catalyze_events::{Preset, PresetTerm};
use catalyze_linalg::{FactoredLstsq, Matrix};
use serde::{Deserialize, Serialize};

/// A metric defined (or shown non-composable) over raw events.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefinedMetric {
    /// Metric name.
    pub metric: String,
    /// Raw least-squares coefficients, aligned with the selection's events.
    pub coefficients: Vec<f64>,
    /// Selected-event names, aligned with `coefficients`.
    pub events: Vec<String>,
    /// Backward error of the raw solution (Eq. 5).
    pub error: f64,
    /// Coefficients rounded to the nearest integer where they fall within
    /// the rounding tolerance (§VI-D / Figure 3), `None` where they do not.
    pub rounded: Vec<Option<f64>>,
    /// Backward error of the rounded combination (only meaningful when all
    /// coefficients rounded).
    pub rounded_error: Option<f64>,
}

impl DefinedMetric {
    /// True when the definition's backward error is below `threshold`
    /// (composable on this architecture).
    pub fn is_composable(&self, threshold: f64) -> bool {
        self.error <= threshold
    }

    /// Exports as a preset, dropping terms with negligible coefficients.
    /// Uses rounded coefficients when every coefficient rounded cleanly,
    /// raw ones otherwise. The exported error matches the exported
    /// coefficients: the rounded backward error when the rounded
    /// coefficients ship, the raw one otherwise.
    pub fn to_preset(&self, drop_below: f64) -> Preset {
        let use_rounded = self.rounded.iter().all(|r| r.is_some());
        let terms = self
            .events
            .iter()
            .zip(self.coefficients.iter().zip(&self.rounded))
            .filter_map(|(name, (&raw, rounded))| {
                let c = if use_rounded { rounded.unwrap_or(raw) } else { raw };
                if c.abs() <= drop_below {
                    None
                } else {
                    Some(PresetTerm {
                        coefficient: c,
                        // lint: allow(panic, reachable_panic): selection names originate from catalog events, which parse
                        event: name.parse().expect("selection names are valid event names"),
                    })
                }
            })
            .collect();
        let error = if use_rounded { self.rounded_error.unwrap_or(self.error) } else { self.error };
        Preset { metric: self.metric.clone(), terms, error }
    }
}

/// Rounds a coefficient to the nearest integer when within `tol`.
pub fn round_coefficient(c: f64, tol: f64) -> Option<f64> {
    let r = c.round();
    if (c - r).abs() <= tol {
        Some(r)
    } else {
        None
    }
}

/// Defines one metric over the selection by solving `X̂ · y = s`.
///
/// # Errors
/// [`AnalysisError::Shape`] when the signature dimension does not match the
/// selection's basis dimension; [`AnalysisError::Linalg`] when the solve
/// fails (cannot happen for a QRCP-produced `X̂`, whose columns are
/// independent by construction, but callers with hand-built selections get
/// the error back instead of a panic).
pub fn define_metric(
    selection: &Selection,
    x_hat: &Matrix,
    signature: &MetricSignature,
    rounding_tol: f64,
) -> Result<DefinedMetric, AnalysisError> {
    let factored = FactoredLstsq::factor(x_hat)?;
    define_metric_factored(selection, &factored, signature, rounding_tol)
}

/// [`define_metric`] against an already-factored `X̂` — the batched entry
/// point [`define_metrics`] uses so one QR factorization and one spectral
/// norm serve every signature. Results are bit-identical to the one-shot
/// path.
///
/// # Errors
/// The [`define_metric`] errors.
pub(crate) fn define_metric_factored(
    selection: &Selection,
    x_hat: &FactoredLstsq<'_>,
    signature: &MetricSignature,
    rounding_tol: f64,
) -> Result<DefinedMetric, AnalysisError> {
    if signature.coefficients.len() != x_hat.rows() {
        return Err(AnalysisError::Shape {
            context: "signature coefficients vs basis dimension",
            expected: x_hat.rows(),
            got: signature.coefficients.len(),
        });
    }
    let sol = x_hat.solve(&signature.coefficients)?;
    let rounded: Vec<Option<f64>> =
        sol.x.iter().map(|&c| round_coefficient(c, rounding_tol)).collect();
    // Collecting through Option<Vec<_>> short-circuits on any unrounded
    // coefficient, so the all-Some case needs no panic site at all.
    let rounded_error = rounded
        .iter()
        .copied()
        .collect::<Option<Vec<f64>>>()
        .and_then(|y| x_hat.backward_error(&y, &signature.coefficients).ok());
    Ok(DefinedMetric {
        metric: signature.name.clone(),
        coefficients: sol.x,
        events: selection.names().iter().map(|s| s.to_string()).collect(),
        error: sol.backward_error,
        rounded,
        rounded_error,
    })
}

/// Defines every signature over the selection. Returns an empty list when
/// the selection is empty. `X̂` is factored once and shared by every
/// signature's solve and rounded-error evaluation.
///
/// # Errors
/// Propagates the first [`define_metric`] failure.
pub fn define_metrics(
    selection: &Selection,
    signatures: &[MetricSignature],
    rounding_tol: f64,
) -> Result<Vec<DefinedMetric>, AnalysisError> {
    let Some(x_hat) = selection.x_hat() else {
        return Ok(Vec::new());
    };
    let factored = FactoredLstsq::factor(&x_hat)?;
    signatures
        .iter()
        .map(|s| define_metric_factored(selection, &factored, s, rounding_tol))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::branch_basis;
    use crate::normalize::represent;
    use crate::select::select_events;
    use crate::signature::branch_signatures;

    fn branch_selection() -> Selection {
        let b = branch_basis();
        let col = |j: usize| -> Vec<f64> { (0..11).map(|i| b.matrix[(i, j)]).collect() };
        let all: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)] + b.matrix[(i, 3)]).collect();
        let rep = represent(
            &b,
            &[
                (0, "BR_MISP_RETIRED".into(), col(4)),
                (1, "BR_INST_RETIRED:COND".into(), col(1)),
                (2, "BR_INST_RETIRED:COND_TAKEN".into(), col(2)),
                (3, "BR_INST_RETIRED:ALL_BRANCHES".into(), all),
            ],
            1e-6,
        )
        .unwrap();
        select_events(&rep, 5e-4).unwrap()
    }

    #[test]
    fn composable_branch_metrics_reproduce_table7() {
        let _turn = crate::linalg_turn();
        let sel = branch_selection();
        let metrics = define_metrics(&sel, &branch_signatures(), 0.02).unwrap();
        assert_eq!(metrics.len(), 7);

        let get = |name: &str| metrics.iter().find(|m| m.metric.starts_with(name)).unwrap();

        // Unconditional = ALL_BRANCHES - COND.
        let uncond = get("Unconditional");
        assert!(uncond.error < 1e-10, "error {}", uncond.error);
        let coef = |m: &DefinedMetric, ev: &str| {
            m.events.iter().position(|e| e == ev).map(|i| m.coefficients[i]).unwrap()
        };
        assert!((coef(uncond, "BR_INST_RETIRED:ALL_BRANCHES") - 1.0).abs() < 1e-10);
        assert!((coef(uncond, "BR_INST_RETIRED:COND") + 1.0).abs() < 1e-10);

        // Correctly Predicted = COND - MISP.
        let correct = get("Correctly Predicted");
        assert!(correct.error < 1e-10);
        assert!((coef(correct, "BR_INST_RETIRED:COND") - 1.0).abs() < 1e-10);
        assert!((coef(correct, "BR_MISP_RETIRED") + 1.0).abs() < 1e-10);

        // Conditional Branches Executed: not composable -> error 1.0.
        let executed = get("Conditional Branches Executed");
        assert!((executed.error - 1.0).abs() < 1e-10, "error {}", executed.error);
        assert!(!executed.is_composable(0.5));
        for c in &executed.coefficients {
            assert!(c.abs() < 1e-10);
        }
    }

    #[test]
    fn rounding_behavior() {
        assert_eq!(round_coefficient(1.003, 0.02), Some(1.0));
        assert_eq!(round_coefficient(-0.98, 0.02), None);
        assert_eq!(round_coefficient(-0.99, 0.02), Some(-1.0));
        assert_eq!(round_coefficient(0.004, 0.02), Some(0.0));
        assert_eq!(round_coefficient(0.5, 0.02), None);
    }

    #[test]
    fn rounded_error_present_when_all_round() {
        let _turn = crate::linalg_turn();
        let sel = branch_selection();
        let metrics = define_metrics(&sel, &branch_signatures(), 0.05).unwrap();
        let taken = metrics.iter().find(|m| m.metric.contains("Taken.")).unwrap();
        assert!(taken.rounded.iter().all(|r| r.is_some()));
        assert!(taken.rounded_error.unwrap() < 1e-10);
    }

    #[test]
    fn unrounded_coefficients_yield_no_rounded_error() {
        let _turn = crate::linalg_turn();
        // Regression for the reachable-panic fix: the all-Some check used
        // to be an `if all()` guarding an `.expect()`; it is now a
        // short-circuiting Option collection. A zero tolerance leaves
        // inexact coefficients unrounded, and every such metric must
        // simply skip the rounded-error computation.
        let sel = branch_selection();
        let metrics = define_metrics(&sel, &branch_signatures(), 0.0).unwrap();
        assert!(!metrics.is_empty());
        for m in &metrics {
            if m.rounded.iter().any(|r| r.is_none()) {
                assert!(m.rounded_error.is_none(), "{}", m.metric);
            } else {
                assert!(m.rounded_error.is_some(), "{}", m.metric);
            }
        }
    }

    #[test]
    fn preset_export_drops_zero_terms() {
        let _turn = crate::linalg_turn();
        let sel = branch_selection();
        let metrics = define_metrics(&sel, &branch_signatures(), 0.02).unwrap();
        let misp = metrics.iter().find(|m| m.metric.starts_with("Mispredicted")).unwrap();
        let preset = misp.to_preset(1e-6);
        assert_eq!(preset.terms.len(), 1);
        assert_eq!(preset.terms[0].event.to_string(), "BR_MISP_RETIRED");
        assert!((preset.terms[0].coefficient - 1.0).abs() < 1e-10);
    }

    #[test]
    fn preset_error_matches_exported_coefficients() {
        // Regression: when every coefficient rounds cleanly the preset
        // ships the rounded coefficients — its error field must then be
        // the rounded backward error, not the raw least-squares one.
        let m = DefinedMetric {
            metric: "M".into(),
            coefficients: vec![1.003, -0.994],
            events: vec!["EV_A".into(), "EV_B".into()],
            error: 3.2e-16,
            rounded: vec![Some(1.0), Some(-1.0)],
            rounded_error: Some(4.7e-3),
        };
        let preset = m.to_preset(1e-6);
        assert_eq!(preset.terms[0].coefficient, 1.0);
        assert_eq!(preset.terms[1].coefficient, -1.0);
        assert_eq!(preset.error, 4.7e-3, "rounded coefficients ship the rounded error");

        // When some coefficient does not round, raw coefficients ship and
        // so does the raw error.
        let raw = DefinedMetric { rounded: vec![Some(1.0), None], ..m.clone() };
        let preset = raw.to_preset(1e-6);
        assert_eq!(preset.terms[0].coefficient, 1.003);
        assert_eq!(preset.error, 3.2e-16);
    }

    #[test]
    fn mismatched_signature_dimension_is_an_error() {
        let _turn = crate::linalg_turn();
        let sel = branch_selection();
        let x_hat = sel.x_hat().unwrap();
        let bad = MetricSignature::new("Bad", vec![1.0; 3]);
        let err = define_metric(&sel, &x_hat, &bad, 0.02).unwrap_err();
        assert!(
            matches!(err, AnalysisError::Shape { expected, got: 3, .. } if expected == x_hat.rows()),
            "{err:?}"
        );
    }

    #[test]
    fn empty_selection_defines_nothing() {
        let _turn = crate::linalg_turn();
        let sel = Selection { events: vec![], alpha: 5e-4, candidates: 0 };
        assert!(define_metrics(&sel, &branch_signatures(), 0.02).unwrap().is_empty());
    }
}
