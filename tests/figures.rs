//! Shape checks for the figure data: the bimodal variability split of
//! Figure 2 and the signature-vs-measurement agreement of Figure 3.

use catalyze::report;
use catalyze_bench::{Harness, Scale};
use catalyze_cat::Domain;

#[test]
fn fig2_branch_variabilities_are_bimodal_around_tau() {
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Branch).unwrap();
    let sorted = d.analysis.noise.sorted_variabilities();
    assert!(sorted.len() > 40, "enough non-discarded events plotted");
    let tau = d.analysis.config.tau;
    // A zero-noise cluster well below tau...
    let below = sorted.iter().filter(|&&v| v <= tau).count();
    assert!(below >= 5, "zero-noise cluster missing ({below})");
    for &v in sorted.iter().take(below) {
        assert!(v < 1e-12, "the clean cluster sits at ~0, got {v}");
    }
    // ...and a noisy tail above it, with a clean gap around tau (on this
    // inventory the quietest noisy counters sit at ~1e-8, so any tau in
    // [1e-12, 1e-9] separates the clusters unambiguously).
    let above = sorted.iter().filter(|&&v| v > 1e-9).count();
    assert_eq!(below + above, sorted.len(), "no events inside the gap around tau");
    assert!(above >= 10, "noisy tail missing");
}

#[test]
fn fig2_cache_variabilities_are_messier() {
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Dcache).unwrap();
    let sorted = d.analysis.noise.sorted_variabilities();
    // Cache events populate the middle ground (no clean gap) — the reason
    // the paper needs the lenient tau = 1e-1 here.
    let mid = sorted.iter().filter(|&&v| v > 1e-12 && v < 1e-1).count();
    assert!(mid >= 10, "expected mid-range variabilities, got {mid}");
}

#[test]
fn fig2_data_format() {
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Branch).unwrap();
    let data = report::figure2_data(&d.analysis.noise);
    let lines: Vec<&str> = data.lines().collect();
    assert!(lines[0].starts_with('#'));
    let fields: Vec<&str> = lines[1].split_whitespace().collect();
    assert_eq!(fields.len(), 2);
    fields[1].parse::<f64>().unwrap();
}

#[test]
fn fig3_rounded_combination_tracks_signature() {
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Dcache).unwrap();
    for sig in &d.signatures {
        let data = report::figure3_data(&d.analysis, &d.basis, sig, &d.measurements.point_labels);
        for line in data.lines().filter(|l| !l.starts_with('#')) {
            let f: Vec<&str> = line.split_whitespace().collect();
            let signature: f64 = f[2].parse().unwrap();
            let raw: f64 = f[3].parse().unwrap();
            let rounded: f64 = f[4].parse().unwrap();
            assert!(
                (raw - signature).abs() < 0.08,
                "{}: raw combination {raw} vs signature {signature}",
                sig.name
            );
            assert!(
                (rounded - signature).abs() < 0.05,
                "{}: rounded combination {rounded} vs signature {signature}",
                sig.name
            );
        }
    }
}

#[test]
fn fig3_signature_curves_match_regions() {
    // The L1-hits signature must be 1 on L1-resident points and 0 elsewhere.
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Dcache).unwrap();
    let sig = d.signatures.iter().find(|s| s.name == "L1 Hits.").unwrap();
    let curve = d.basis.matrix.matvec(&sig.coefficients).unwrap();
    for (p, label) in d.measurements.point_labels.iter().enumerate() {
        let expected = if label.ends_with("/L1") { 1.0 } else { 0.0 };
        assert_eq!(curve[p], expected, "{label}");
    }
}
