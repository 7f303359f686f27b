//! Failure-injection and robustness tests for the analysis pipeline:
//! degenerate inputs must degrade gracefully, never silently produce wrong
//! metric definitions.

use catalyze::basis::{branch_basis, Basis};
use catalyze::pipeline::{AnalysisConfig, AnalysisReport, AnalysisRequest};
use catalyze::signature::branch_signatures;
use catalyze::{AnalysisError, LinalgError};
use catalyze_cat::MeasurementSet;

fn names(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

/// Runs the branch-domain pipeline over ad-hoc inputs via the builder.
fn try_branch_analysis(
    events: &[String],
    runs: &[Vec<Vec<f64>>],
    basis: &Basis,
) -> Result<AnalysisReport, AnalysisError> {
    let signatures = branch_signatures();
    AnalysisRequest::new()
        .domain("x")
        .events(events)
        .runs(runs)
        .basis(basis)
        .signatures(&signatures)
        .config(AnalysisConfig::branch())
        .run()
}

fn branch_analysis(events: &[String], runs: &[Vec<Vec<f64>>], basis: &Basis) -> AnalysisReport {
    try_branch_analysis(events, runs, basis).unwrap()
}

/// Basis column `c` of `b` as one event's measurement vector.
fn column(b: &Basis, c: usize) -> Vec<f64> {
    (0..b.matrix.rows()).map(|i| b.matrix[(i, c)]).collect()
}

#[test]
fn all_noisy_input_yields_no_metrics() {
    // Every event fluctuates wildly: the noise stage must drop everything
    // and the pipeline must return an empty (not bogus) result.
    let n = names(&["A", "B"]);
    let runs: Vec<Vec<Vec<f64>>> = (0..3)
        .map(|r| {
            let f = (r + 1) as f64;
            vec![vec![f; 11], vec![10.0 * f * f; 11]]
        })
        .collect();
    let report = branch_analysis(&n, &runs, &branch_basis());
    assert!(report.noise.kept().is_empty());
    assert!(report.selection.events.is_empty());
    assert!(report.metrics.is_empty());
    assert!(report.composable_metrics().is_empty());
}

#[test]
fn all_zero_input_yields_no_metrics() {
    let n = names(&["Z1", "Z2"]);
    let runs = vec![vec![vec![0.0; 11], vec![0.0; 11]]; 2];
    let report = branch_analysis(&n, &runs, &branch_basis());
    assert_eq!(report.noise.discarded_zero().len(), 2);
    assert!(report.metrics.is_empty());
}

#[test]
fn unrepresentable_events_yield_empty_selection() {
    // Clean (noise-free) events that the basis cannot express.
    let n = names(&["C1", "C2"]);
    let ramp: Vec<f64> = (0..11).map(|i| (i * i) as f64).collect();
    let runs = vec![vec![vec![5.0; 11], ramp]; 2];
    let report = branch_analysis(&n, &runs, &branch_basis());
    assert_eq!(report.noise.kept().len(), 2);
    assert_eq!(report.representation.rejected.len(), 2);
    assert!(report.selection.events.is_empty());
    assert!(report.metrics.is_empty());
}

#[test]
fn duplicated_events_collapse_to_one() {
    let b = branch_basis();
    let cr: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)]).collect();
    let n = names(&["COND_A", "COND_B", "COND_C"]);
    let runs = vec![vec![cr.clone(), cr.clone(), cr]; 2];
    let report = branch_analysis(&n, &runs, &b);
    assert_eq!(report.selection.events.len(), 1, "duplicates must not inflate rank");
    // Retired is composable from the single survivor; Taken is not.
    assert!(report.metric("Conditional Branches Retired").unwrap().error < 1e-10);
    assert!(report.metric("Conditional Branches Taken").unwrap().error > 0.1);
}

#[test]
fn partial_coverage_reports_honest_errors() {
    // Only COND_TAKEN exists: most metrics must come out non-composable.
    let b = branch_basis();
    let t: Vec<f64> = (0..11).map(|i| b.matrix[(i, 2)]).collect();
    let n = names(&["BR_INST_RETIRED:COND_TAKEN"]);
    let runs = vec![vec![t]; 2];
    let report = branch_analysis(&n, &runs, &b);
    assert!(report.metric("Conditional Branches Taken").unwrap().error < 1e-10);
    for name in ["Mispredicted Branches", "Unconditional Branches", "Conditional Branches Executed"]
    {
        let m = report.metric(name).unwrap();
        assert!(m.error > 0.5, "{name} must be non-composable, error {}", m.error);
    }
}

#[test]
fn single_repetition_is_accepted() {
    // One run: no pairs for RNMSE, variability defined as zero.
    let b = branch_basis();
    let cr: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)]).collect();
    let n = names(&["COND"]);
    let runs = vec![vec![cr]];
    let report = branch_analysis(&n, &runs, &b);
    assert_eq!(report.noise.kept().len(), 1);
    assert!(report.metric("Conditional Branches Retired").unwrap().error < 1e-10);
}

#[test]
fn measurement_set_json_roundtrip_preserves_analysis() {
    let b = branch_basis();
    let cr: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)]).collect();
    let ms = MeasurementSet {
        domain: "branch".into(),
        point_labels: (0..11).map(|i| format!("k{i}")).collect(),
        events: vec!["COND".into()],
        runs: vec![vec![cr]],
    };
    ms.validate().unwrap();
    let json = serde_json::to_string(&ms).unwrap();
    let back: MeasurementSet = serde_json::from_str(&json).unwrap();
    assert_eq!(back, ms);
    let r1 = branch_analysis(&ms.events, &ms.runs, &b);
    let r2 = branch_analysis(&back.events, &back.runs, &b);
    assert_eq!(r1.metrics.len(), r2.metrics.len());
    for (a, b) in r1.metrics.iter().zip(&r2.metrics) {
        assert_eq!(a.coefficients, b.coefficients);
        assert_eq!(a.error, b.error);
    }
}

#[test]
fn analysis_report_serializes() {
    let b = branch_basis();
    let cr: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)]).collect();
    let n = names(&["COND"]);
    let runs = vec![vec![cr]];
    let report = branch_analysis(&n, &runs, &b);
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("Conditional Branches Retired"));
}

#[test]
fn negative_counts_are_rejected_by_event() {
    let b = branch_basis();
    let negated: Vec<f64> = column(&b, 1).iter().map(|v| -v).collect();
    let n = names(&["RETIRED", "COND"]);
    let runs = vec![vec![column(&b, 0), negated]; 2];
    let err = try_branch_analysis(&n, &runs, &b).unwrap_err();
    assert_eq!(err, AnalysisError::NegativeCount { event: "COND".into() });
}

#[test]
fn negative_zero_is_a_valid_count() {
    let b = branch_basis();
    let n = names(&["COND", "ZERO"]);
    let runs = vec![vec![column(&b, 1), vec![-0.0; 11]]; 2];
    let report = try_branch_analysis(&n, &runs, &b).unwrap();
    assert_eq!(report.noise.discarded_zero().len(), 1);
    assert!(report.metric("Conditional Branches Retired").unwrap().error < 1e-10);
}

#[test]
fn non_finite_counts_are_a_linalg_error() {
    let b = branch_basis();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut cr = column(&b, 1);
        cr[3] = bad;
        let n = names(&["COND"]);
        let runs = vec![vec![cr]; 2];
        let err = try_branch_analysis(&n, &runs, &b).unwrap_err();
        assert!(
            matches!(err, AnalysisError::Linalg(LinalgError::NonFinite { .. })),
            "{bad}: {err:?}"
        );
    }
}

#[test]
fn far_more_events_than_points_selects_at_most_rank_many() {
    // 40 clean events over 11 points: seeded nonnegative combinations of
    // the basis columns, so every event is representable.
    let b = branch_basis();
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut draw = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 5) as f64
    };
    let events: Vec<Vec<f64>> = (0..40)
        .map(|_| {
            let weights: Vec<f64> = (0..b.dim()).map(|_| draw()).collect();
            (0..b.matrix.rows())
                .map(|i| (0..b.dim()).map(|c| weights[c] * b.matrix[(i, c)]).sum::<f64>())
                .collect()
        })
        .collect();
    let n: Vec<String> = (0..40).map(|e| format!("E{e}")).collect();
    let runs = vec![events; 2];
    let report = branch_analysis(&n, &runs, &b);
    assert!(!report.selection.events.is_empty());
    assert!(
        report.selection.events.len() <= b.dim().min(b.matrix.rows()),
        "selected {} events for rank {}",
        report.selection.events.len(),
        b.dim()
    );
}
