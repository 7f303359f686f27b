//! End-to-end reproduction checks: run the CAT benchmarks on the simulated
//! platform, push the measurements through the full analysis pipeline, and
//! pin the *shapes* the paper reports — which events the specialized QRCP
//! selects per domain (§V), which metrics compose and which do not
//! (Tables V–VIII), and the characteristic failure errors (0.236, 0.414,
//! 1.0) that are analytic properties of the event semantics.

use catalyze::pipeline::AnalysisReport;
use catalyze_bench::{Harness, Scale};
use catalyze_cat::Domain;

/// Runs one domain through the down-scaled harness and returns its analysis.
fn report(domain: Domain) -> AnalysisReport {
    Harness::new(Scale::Fast).domain(domain).unwrap().analysis
}

#[test]
fn cpu_flops_selection_matches_section_5a() {
    let report = report(Domain::CpuFlops);
    let mut selected: Vec<String> =
        report.selection.events.iter().map(|e| e.name.clone()).collect();
    selected.sort();
    let mut expected: Vec<String> = [
        "FP_ARITH_INST_RETIRED:SCALAR_SINGLE",
        "FP_ARITH_INST_RETIRED:SCALAR_DOUBLE",
        "FP_ARITH_INST_RETIRED:128B_PACKED_SINGLE",
        "FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE",
        "FP_ARITH_INST_RETIRED:256B_PACKED_SINGLE",
        "FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE",
        "FP_ARITH_INST_RETIRED:512B_PACKED_SINGLE",
        "FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    expected.sort();
    assert_eq!(selected, expected, "QR must select exactly the 8 clean FP events");
}

#[test]
fn cpu_flops_metrics_match_table5() {
    let report = report(Domain::CpuFlops);
    // SP/DP Instrs and Ops compose with tiny error.
    for name in ["SP Instrs.", "SP Ops.", "DP Instrs.", "DP Ops."] {
        let m = report.metric(name).unwrap();
        assert!(m.error < 1e-10, "{name} error {}", m.error);
    }
    // DP Ops coefficients: 1x scalar, 2x 128, 4x 256, 8x 512 (Table V).
    let dp = report.metric("DP Ops.").unwrap();
    let coef = |ev: &str| {
        dp.events
            .iter()
            .position(|e| e == ev)
            .map(|i| dp.coefficients[i])
            .unwrap_or_else(|| panic!("{ev} not in selection"))
    };
    assert!((coef("FP_ARITH_INST_RETIRED:SCALAR_DOUBLE") - 1.0).abs() < 1e-9);
    assert!((coef("FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE") - 2.0).abs() < 1e-9);
    assert!((coef("FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE") - 4.0).abs() < 1e-9);
    assert!((coef("FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE") - 8.0).abs() < 1e-9);
    assert!(coef("FP_ARITH_INST_RETIRED:SCALAR_SINGLE").abs() < 1e-9);

    // FMA metrics: NOT composable — 0.8 coefficients, error 2.36e-1.
    for name in ["SP FMA Instrs.", "DP FMA Instrs."] {
        let m = report.metric(name).unwrap();
        assert!((m.error - 0.236).abs() < 0.01, "{name} error {}", m.error);
        let big: Vec<f64> = m.coefficients.iter().filter(|c| c.abs() > 1e-6).cloned().collect();
        assert_eq!(big.len(), 4, "{name}: four 0.8-coefficients");
        for c in big {
            assert!((c - 0.8).abs() < 1e-6, "{name} coefficient {c}");
        }
    }
}

#[test]
fn branch_selection_and_metrics_match_section_5c_and_table7() {
    let report = report(Domain::Branch);
    let mut selected: Vec<String> =
        report.selection.events.iter().map(|e| e.name.clone()).collect();
    selected.sort();
    let mut expected: Vec<String> = [
        "BR_MISP_RETIRED:ALL_BRANCHES",
        "BR_INST_RETIRED:COND",
        "BR_INST_RETIRED:COND_TAKEN",
        "BR_INST_RETIRED:ALL_BRANCHES",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    expected.sort();
    assert_eq!(selected, expected, "§V.C selection");

    // Six of seven metrics compose.
    for name in [
        "Unconditional Branches.",
        "Conditional Branches Taken.",
        "Conditional Branches Not Taken.",
        "Mispredicted Branches.",
        "Correctly Predicted Branches.",
        "Conditional Branches Retired.",
    ] {
        let m = report.metric(name).unwrap();
        assert!(m.error < 1e-8, "{name} error {}", m.error);
    }
    // Conditional Branches Executed cannot be composed: error 1.0.
    let ex = report.metric("Conditional Branches Executed").unwrap();
    assert!((ex.error - 1.0).abs() < 1e-8, "error {}", ex.error);

    // Unconditional = ALL_BRANCHES - COND (Table VII row 1).
    let uncond = report.metric("Unconditional").unwrap();
    let coef = |m: &catalyze::DefinedMetric, ev: &str| {
        m.events.iter().position(|e| e == ev).map(|i| m.coefficients[i]).unwrap()
    };
    assert!((coef(uncond, "BR_INST_RETIRED:ALL_BRANCHES") - 1.0).abs() < 1e-8);
    assert!((coef(uncond, "BR_INST_RETIRED:COND") + 1.0).abs() < 1e-8);
}

#[test]
fn gpu_selection_and_metrics_match_section_5b_and_table6() {
    let report = report(Domain::GpuFlops);
    // §V.B: SQ_INSTS_VALU_[ADD|MUL|TRANS|FMA]_F[16|32|64], device 0.
    assert_eq!(report.selection.events.len(), 12);
    for class in ["ADD", "MUL", "TRANS", "FMA"] {
        for prec in ["16", "32", "64"] {
            let name = format!("rocm:::SQ_INSTS_VALU_{class}_F{prec}:device=0");
            assert!(report.selection.events.iter().any(|e| e.name == name), "missing {name}");
        }
    }

    // Table VI: HP Add / HP Sub in isolation fail with error 4.14e-1 and a
    // 0.5 coefficient on the fused ADD event.
    for name in ["HP Add Ops.", "HP Sub Ops."] {
        let m = report.metric(name).unwrap();
        assert!((m.error - 0.414).abs() < 0.01, "{name} error {}", m.error);
        let add_idx =
            m.events.iter().position(|e| e == "rocm:::SQ_INSTS_VALU_ADD_F16:device=0").unwrap();
        assert!((m.coefficients[add_idx] - 0.5).abs() < 1e-6);
    }
    // HP Add and Sub together compose exactly.
    let both = report.metric("HP Add and Sub Ops.").unwrap();
    assert!(both.error < 1e-10, "error {}", both.error);
    // All {HP,SP,DP} Ops compose with FMA weighted 2x.
    for name in ["All HP Ops.", "All SP Ops.", "All DP Ops."] {
        let m = report.metric(name).unwrap();
        assert!(m.error < 1e-10, "{name} error {}", m.error);
    }
}

#[test]
fn dcache_selection_and_metrics_match_section_5d_and_table8() {
    let report = report(Domain::Dcache);
    let mut selected: Vec<String> =
        report.selection.events.iter().map(|e| e.name.clone()).collect();
    selected.sort();
    let mut expected: Vec<String> = [
        "MEM_LOAD_RETIRED:L3_HIT",
        "L2_RQSTS:DEMAND_DATA_RD_HIT",
        "MEM_LOAD_RETIRED:L1_MISS",
        "MEM_LOAD_RETIRED:L1_HIT",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    expected.sort();
    assert_eq!(selected, expected, "§V.D selection");

    // Table VIII: all six metrics compose; coefficients are near 0/1 but
    // not exact (noise), and rounding recovers clean combinations.
    for m in &report.metrics {
        assert!(m.error < 1e-3, "{} error {}", m.metric, m.error);
        for (c, r) in m.coefficients.iter().zip(&m.rounded) {
            let rounded =
                r.unwrap_or_else(|| panic!("{}: coefficient {c} did not round", m.metric));
            assert!((c - rounded).abs() <= 0.05, "{}: {c} vs {rounded}", m.metric);
        }
        assert!(
            m.rounded_error.unwrap() < 0.05,
            "{} rounded error {:?}",
            m.metric,
            m.rounded_error
        );
    }
}
