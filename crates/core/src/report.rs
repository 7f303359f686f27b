//! Rendering of analysis results: paper-style text tables and
//! figure-data series (gnuplot-compatible columns).

use crate::basis::Basis;
use crate::define::DefinedMetric;
use crate::noise::NoiseReport;
use crate::pipeline::AnalysisReport;
use crate::signature::MetricSignature;
use std::fmt::Write as _;

/// Renders a metric-definition table in the style of Tables V–VIII:
/// one row per metric with its raw-event combination and backward error.
pub fn metrics_table(title: &str, metrics: &[DefinedMetric]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    for m in metrics {
        let _ = writeln!(out, "{}", m.metric);
        let mut first = true;
        for (event, &c) in m.events.iter().zip(&m.coefficients) {
            let sign = if c < 0.0 {
                "- "
            } else if first {
                ""
            } else {
                "+ "
            };
            let _ = writeln!(out, "    {sign}{:.6e} x {event}", c.abs());
            first = false;
        }
        let _ = writeln!(out, "    error: {:.2e}", m.error);
        if let Some(re) = m.rounded_error {
            let _ = writeln!(out, "    rounded error: {re:.2e}");
        }
    }
    out
}

/// Renders a signature table in the style of Tables I–IV.
pub fn signatures_table(title: &str, basis: &Basis, signatures: &[MetricSignature]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let _ = writeln!(out, "basis: ({})", basis.labels.join(","));
    for s in signatures {
        let coeffs: Vec<String> = s.coefficients.iter().map(|c| format_coeff(*c)).collect();
        let _ = writeln!(out, "{:<32} ({})", s.name, coeffs.join(","));
    }
    out
}

fn format_coeff(c: f64) -> String {
    // lint: allow(float_cmp): trunc-equality is the exact whole-number test
    if c == c.trunc() && c.abs() < 1e15 {
        // lint: allow(lossy_cast): whole-number check above makes the cast exact
        format!("{}", c as i64)
    } else {
        format!("{c}")
    }
}

/// Figure-2 data: sorted variabilities, one `index value` line per event,
/// with zero variabilities clamped to machine epsilon (the paper plots
/// them at ε for the sake of the log axis).
pub fn figure2_data(report: &NoiseReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# index  max_rnmse   (tau = {:.1e})", report.tau);
    for (i, v) in report.sorted_variabilities().iter().enumerate() {
        // lint: allow(float_cmp): exact zero is the sentinel replaced for the log plot
        let plotted = if *v == 0.0 { f64::EPSILON } else { *v };
        let _ = writeln!(out, "{i} {plotted:.6e}");
    }
    out
}

/// A crude terminal rendition of Figure 2: a log-scale scatter of sorted
/// variabilities with the τ cut marked.
pub fn figure2_ascii(report: &NoiseReport, width: usize) -> String {
    let sorted = report.sorted_variabilities();
    if sorted.is_empty() {
        return "(no events)\n".to_string();
    }
    let rows = 12usize;
    let log_min = -16.0;
    let log_max = 2.0;
    let mut grid = vec![vec![' '; width]; rows];
    let n = sorted.len();
    for (i, v) in sorted.iter().enumerate() {
        let x = i * (width - 1) / n.max(1);
        let lv = v.max(f64::EPSILON).log10().clamp(log_min, log_max);
        let y = ((lv - log_min) / (log_max - log_min) * (rows - 1) as f64).round() as usize;
        grid[rows - 1 - y][x] = '*';
    }
    let tau_row = {
        let lt = report.tau.log10().clamp(log_min, log_max);
        rows - 1 - (((lt - log_min) / (log_max - log_min)) * (rows - 1) as f64).round() as usize
    };
    let mut out = String::new();
    for (r, row) in grid.iter().enumerate() {
        let marker = if r == tau_row { "tau>" } else { "    " };
        let line: String = row.iter().collect();
        let _ = writeln!(out, "{marker}|{line}");
    }
    let _ = writeln!(out, "    +{}", "-".repeat(width));
    out
}

/// Figure-3 data for one metric: per measurement point, the signature value
/// (what the ideal combination should read) and the measured combination of
/// raw events, both already normalized per access.
///
/// Columns: `point_index  signature  raw_combination  rounded_combination`.
pub fn figure3_data(
    report: &AnalysisReport,
    basis: &Basis,
    signature: &MetricSignature,
    point_labels: &[String],
) -> String {
    let metric = report
        .metrics
        .iter()
        .find(|m| m.metric == signature.name)
        // lint: allow(panic): the report renders metrics the pipeline just defined
        .expect("metric was defined by the pipeline");
    let sig_curve = basis
        .matrix
        .matvec(&signature.coefficients)
        // lint: allow(panic): signature and basis come from the same domain
        .expect("signature dimension matches basis");
    let mut out = String::new();
    let _ = writeln!(out, "# {}", signature.name);
    let _ = writeln!(out, "# point  label  signature  raw_combo  rounded_combo");
    for p in 0..sig_curve.len() {
        let raw: f64 = metric
            .coefficients
            .iter()
            .zip(&report.selected_mean_vectors)
            .map(|(&c, v)| c * v[p])
            .sum();
        let rounded: f64 = metric
            .rounded
            .iter()
            .zip(metric.coefficients.iter())
            .zip(&report.selected_mean_vectors)
            .map(|((r, &c), v)| r.unwrap_or(c) * v[p])
            .sum();
        let label = point_labels.get(p).map(String::as_str).unwrap_or("?");
        let _ = writeln!(out, "{p} {label} {:.6} {raw:.6} {rounded:.6}", sig_curve[p]);
    }
    out
}

/// Renders the selection stage (§V-A..D): which events the QR chose.
pub fn selection_table(report: &AnalysisReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== selected events ({}, alpha = {:.1e}, {} candidates, cond(X^) = {}) ==",
        report.domain,
        report.selection.alpha,
        report.selection.candidates,
        report.selection.condition_number().map_or("n/a".to_string(), |k| format!("{k:.2}")),
    );
    for e in &report.selection.events {
        let _ = writeln!(
            out,
            "  {:<52} score {:>8.3}  |residual| {:>8.4}",
            e.name, e.score, e.residual_norm
        );
    }
    out
}

/// One-paragraph summary of the noise stage.
pub fn noise_summary(report: &NoiseReport) -> String {
    format!(
        "events: {} total, {} kept (variability <= {:.0e}), {} noisy, {} all-zero\n",
        report.events.len(),
        report.kept().len(),
        report.tau,
        report.discarded_noisy().len(),
        report.discarded_zero().len(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::branch_basis;
    use crate::noise::{analyze_noise, EventVariability};
    use crate::pipeline::{AnalysisConfig, AnalysisRequest};
    use crate::signature::branch_signatures;

    fn report() -> AnalysisReport {
        let _turn = crate::linalg_turn();
        let b = branch_basis();
        let col = |j: usize| -> Vec<f64> { (0..11).map(|i| b.matrix[(i, j)]).collect() };
        let all: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)] + b.matrix[(i, 3)]).collect();
        let names: Vec<String> = [
            "BR_MISP_RETIRED",
            "BR_INST_RETIRED:COND",
            "BR_INST_RETIRED:COND_TAKEN",
            "BR_INST_RETIRED:ALL_BRANCHES",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let runs = vec![vec![col(4), col(1), col(2), all]];
        let signatures = branch_signatures();
        AnalysisRequest::new()
            .domain("branch")
            .events(&names)
            .runs(&runs)
            .basis(&b)
            .signatures(&signatures)
            .config(AnalysisConfig::branch())
            .run()
            .unwrap()
    }

    #[test]
    fn metrics_table_renders_signs_and_errors() {
        let r = report();
        let t = metrics_table("Branching Metrics", &r.metrics);
        assert!(t.contains("Unconditional Branches."));
        assert!(t.contains("error: "));
        assert!(t.contains("- 1.0"), "negative COND coefficient rendered with sign:\n{t}");
    }

    #[test]
    fn signatures_table_renders_integers() {
        let t = signatures_table("Table III", &branch_basis(), &branch_signatures());
        assert!(t.contains("(0,0,0,1,0)"), "{t}");
        assert!(t.contains("(0,1,-1,0,0)"));
        assert!(t.contains("basis: (CE,CR,T,D,M)"));
    }

    #[test]
    fn figure2_data_is_sorted_and_eps_clamped() {
        let a = [1.0, 1.0];
        let b = [1.2, 0.8];
        let names = vec!["exact".to_string(), "noisy".to_string()];
        let vectors = vec![vec![a.as_slice(), a.as_slice()], vec![a.as_slice(), b.as_slice()]];
        let nr = analyze_noise(&names, &vectors, 1e-10);
        let data = figure2_data(&nr);
        let lines: Vec<&str> = data.lines().skip(1).collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("2.2"), "zero clamps to eps ~2.2e-16: {}", lines[0]);
    }

    #[test]
    fn figure2_ascii_marks_tau() {
        let nr = NoiseReport {
            events: vec![EventVariability { name: "a".into(), index: 0, variability: Some(1e-3) }],
            tau: 1e-10,
        };
        let art = figure2_ascii(&nr, 40);
        assert!(art.contains("tau>"));
        assert!(art.contains('*'));
        let empty = NoiseReport { events: vec![], tau: 1e-10 };
        assert_eq!(figure2_ascii(&empty, 40), "(no events)\n");
    }

    #[test]
    fn figure3_data_columns() {
        let r = report();
        let b = branch_basis();
        let sigs = branch_signatures();
        let labels: Vec<String> = (0..11).map(|i| format!("k{}", i + 1)).collect();
        let d = figure3_data(&r, &b, &sigs[1], &labels);
        let lines: Vec<&str> = d.lines().filter(|l| !l.starts_with('#')).collect();
        assert_eq!(lines.len(), 11);
        // Conditional Branches Taken at k3 = 2.0: signature equals raw combo.
        let fields: Vec<&str> = lines[2].split_whitespace().collect();
        assert_eq!(fields[1], "k3");
        assert!((fields[2].parse::<f64>().unwrap() - 2.0).abs() < 1e-9);
        assert!((fields[3].parse::<f64>().unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn selection_and_noise_summaries() {
        let r = report();
        let s = selection_table(&r);
        assert!(s.contains("BR_MISP_RETIRED"));
        let n = noise_summary(&r.noise);
        assert!(n.contains("4 total"));
        assert!(n.contains("4 kept"));
    }
}
