//! Basis lints (`B…`): structural and numerical validation of an
//! expectation basis before it is used as the pipeline's coordinate system.
//!
//! | Rule | Severity | Finding |
//! |------|----------|---------|
//! | B001 | Error    | duplicate column label |
//! | B002 | Error    | empty (or whitespace) column label |
//! | B003 | Error    | label count disagrees with matrix width |
//! | B004 | Error    | all-zero expectation column |
//! | B005 | Error    | two identical expectation columns |
//! | B006 | Error    | row count disagrees with the kernel space |
//! | B007 | Error    | numerically rank-deficient basis (SVD) |
//! | B008 | Warning  | condition number above `CONDITION_LIMIT` |
//! | B009 | Error    | non-finite entry in the basis matrix |

use crate::diag::{Diagnostic, Severity};
use catalyze::basis::Basis;
use catalyze_linalg::singular_values;

/// Condition-number ceiling above which B008 fires. Least squares in f64
/// loses roughly `log10(cond)` digits; 1e8 leaves half the mantissa.
pub(crate) const CONDITION_LIMIT: f64 = 1e8;

/// Relative tolerance for the SVD rank decision in B007.
pub(crate) const RANK_REL_TOL: f64 = 1e-10;

/// Validates one expectation basis. `name` labels the diagnostics;
/// `expected_rows` is the measurement-point count declared by the
/// benchmark's kernel space, when known.
pub fn check_basis(name: &str, basis: &Basis, expected_rows: Option<usize>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let loc = |detail: String| format!("basis {name}, {detail}");

    // B002 / B001: labels well-formed and unique.
    for (j, label) in basis.labels.iter().enumerate() {
        if label.trim().is_empty() {
            out.push(Diagnostic::new(
                "B002",
                Severity::Error,
                loc(format!("column {j}")),
                "empty expectation label",
            ));
        }
    }
    for (j, label) in basis.labels.iter().enumerate() {
        if let Some(first) = basis.labels[..j].iter().position(|l| l == label) {
            out.push(
                Diagnostic::new(
                    "B001",
                    Severity::Error,
                    loc(format!("column {j} ({label})")),
                    format!("duplicate label, first used by column {first}"),
                )
                .with_suggestion("every expectation needs a distinct label"),
            );
        }
    }

    // B003: shape consistency between labels and matrix.
    if basis.labels.len() != basis.matrix.cols() {
        out.push(Diagnostic::new(
            "B003",
            Severity::Error,
            loc("shape".to_string()),
            format!("{} labels but {} matrix columns", basis.labels.len(), basis.matrix.cols()),
        ));
        // Column-wise checks below would index out of bounds.
        return out;
    }

    // B009: finite entries.
    if !basis.matrix.all_finite() {
        out.push(Diagnostic::new(
            "B009",
            Severity::Error,
            loc("matrix".to_string()),
            "non-finite entry in the expectation matrix",
        ));
        return out;
    }

    // B004: all-zero columns.
    for j in 0..basis.matrix.cols() {
        // lint: allow(float_cmp): B004 flags columns that are exactly zero; near-zero ones are B007/B008's job
        if basis.matrix.col(j).iter().all(|&v| v == 0.0) {
            out.push(
                Diagnostic::new(
                    "B004",
                    Severity::Error,
                    loc(format!("column {j} ({})", basis.labels[j])),
                    "expectation is identically zero over all points",
                )
                .with_suggestion("drop the column or fix the kernel expectation"),
            );
        }
    }

    // B005: bit-identical columns (scaled duplicates surface as B007).
    for j in 0..basis.matrix.cols() {
        for i in 0..j {
            if basis.matrix.col(i) == basis.matrix.col(j) {
                out.push(
                    Diagnostic::new(
                        "B005",
                        Severity::Error,
                        loc(format!("column {j} ({})", basis.labels[j])),
                        format!("identical to column {i} ({})", basis.labels[i]),
                    )
                    .with_suggestion("duplicated expectations make the basis singular"),
                );
            }
        }
    }

    // B006: row count against the benchmark's declared kernel space.
    if let Some(expected) = expected_rows {
        if basis.matrix.rows() != expected {
            out.push(Diagnostic::new(
                "B006",
                Severity::Error,
                loc("shape".to_string()),
                format!(
                    "{} rows but the kernel space declares {} measurement points",
                    basis.matrix.rows(),
                    expected
                ),
            ));
        }
    }

    // B007 / B008: numerical rank and conditioning. Skip when structural
    // errors already guarantee deficiency (zero/duplicate columns).
    let structurally_singular = out.iter().any(|d| d.rule == "B004" || d.rule == "B005");
    if basis.matrix.rows() >= basis.matrix.cols() && !structurally_singular {
        match singular_values(&basis.matrix) {
            Ok(svd) => {
                let rank = svd.rank(RANK_REL_TOL);
                if rank < basis.matrix.cols() {
                    out.push(Diagnostic::new(
                        "B007",
                        Severity::Error,
                        loc("matrix".to_string()),
                        format!(
                            "numerical rank {rank} below dimension {} (rel tol {RANK_REL_TOL:e})",
                            basis.matrix.cols()
                        ),
                    ));
                } else {
                    let cond = svd.condition_number();
                    if cond > CONDITION_LIMIT {
                        out.push(
                            Diagnostic::new(
                                "B008",
                                Severity::Warning,
                                loc("matrix".to_string()),
                                format!("condition number {cond:.3e} above {CONDITION_LIMIT:e}"),
                            )
                            .with_suggestion(
                                "expectations this correlated make coefficients unstable",
                            ),
                        );
                    }
                }
            }
            Err(e) => out.push(Diagnostic::new(
                "B007",
                Severity::Error,
                loc("matrix".to_string()),
                format!("SVD failed: {e}"),
            )),
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_linalg::Matrix;

    fn basis(labels: &[&str], cols: &[Vec<f64>]) -> Basis {
        Basis {
            labels: labels.iter().map(|s| s.to_string()).collect(),
            matrix: Matrix::from_columns(cols).expect("well-formed test matrix"),
        }
    }

    fn rules(ds: &[Diagnostic]) -> Vec<&str> {
        ds.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn clean_basis_has_no_findings() {
        let b = basis(&["a", "b"], &[vec![1.0, 0.0, 2.0], vec![0.0, 1.0, 1.0]]);
        assert!(check_basis("t", &b, Some(3)).is_empty());
    }

    #[test]
    fn duplicate_label_is_b001() {
        let b = basis(&["a", "a"], &[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(rules(&check_basis("t", &b, None)).contains(&"B001"));
    }

    #[test]
    fn empty_label_is_b002() {
        let b = basis(&["a", "  "], &[vec![1.0, 0.0], vec![0.0, 1.0]]);
        assert!(rules(&check_basis("t", &b, None)).contains(&"B002"));
    }

    #[test]
    fn label_shape_mismatch_is_b003() {
        let mut b = basis(&["a", "b"], &[vec![1.0, 0.0], vec![0.0, 1.0]]);
        b.labels.push("c".to_string());
        assert_eq!(rules(&check_basis("t", &b, None)), vec!["B003"]);
    }

    #[test]
    fn zero_column_is_b004() {
        let b = basis(&["a", "z"], &[vec![1.0, 2.0], vec![0.0, 0.0]]);
        assert!(rules(&check_basis("t", &b, None)).contains(&"B004"));
    }

    #[test]
    fn duplicated_column_is_b005() {
        let b = basis(&["a", "b"], &[vec![1.0, 2.0], vec![1.0, 2.0]]);
        assert!(rules(&check_basis("t", &b, None)).contains(&"B005"));
    }

    #[test]
    fn row_count_mismatch_is_b006() {
        let b = basis(&["a"], &[vec![1.0, 2.0, 3.0]]);
        assert!(rules(&check_basis("t", &b, Some(4))).contains(&"B006"));
    }

    #[test]
    fn scaled_duplicate_is_rank_deficient_b007() {
        let b = basis(&["a", "b"], &[vec![1.0, 2.0, 3.0], vec![2.0, 4.0, 6.0]]);
        assert!(rules(&check_basis("t", &b, None)).contains(&"B007"));
    }

    #[test]
    fn non_finite_entry_is_b009() {
        let b = basis(&["a"], &[vec![1.0, f64::NAN]]);
        assert_eq!(rules(&check_basis("t", &b, None)), vec!["B009"]);
    }
}
