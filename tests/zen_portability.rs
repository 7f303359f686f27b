//! Portability across architectures — the paper's core premise. The same
//! benchmarks and the same pipeline run against a Zen-like event inventory
//! whose FP counters count *operations with no precision split* (§III-B:
//! "several AMD processors do not offer different events for strictly
//! single-precision, or strictly double-precision instructions") and whose
//! branch family lacks a direct taken-conditional event.
//!
//! The pipeline must give the *per-architecture correct* answers: metrics
//! composable on the SPR-like machine become non-composable here and vice
//! versa, with no configuration change beyond the event inventory.

use catalyze::pipeline::AnalysisReport;
use catalyze::signature;
use catalyze_bench::{Harness, Scale};
use catalyze_cat::Domain;
use catalyze_check::study;
use catalyze_sim::zen_like;

/// The down-scaled harness measuring the Zen-like event inventory.
fn zen() -> Harness {
    Harness { cpu_events: zen_like(), ..Harness::new(Scale::Fast) }
}

fn zen_report(domain: Domain) -> AnalysisReport {
    zen().domain(domain).unwrap().analysis
}

#[test]
fn per_precision_metrics_not_composable_on_zen() {
    let h = zen();
    let ms = h.measure(Domain::CpuFlops, &catalyze_obs::NoopObserver).unwrap();
    let mut study = study(Domain::CpuFlops, &h.cfg);
    study.signatures.push(signature::all_fp_ops_signature());
    let report = study.request(&ms).run().unwrap();

    // The selection comes from the RETIRED_SSE_AVX_FLOPS family.
    assert!(!report.selection.events.is_empty());
    for e in &report.selection.events {
        assert!(e.name.starts_with("RETIRED_SSE_AVX_FLOPS"), "unexpected selection {}", e.name);
    }

    // Per-precision metrics cannot be composed: the hardware merges
    // precisions.
    for name in ["SP Ops.", "DP Ops.", "SP Instrs.", "DP Instrs."] {
        let m = report.metric(name).unwrap();
        assert!(m.error > 0.05, "{name} must be non-composable on Zen-like, error {}", m.error);
    }

    // The precision-agnostic total IS composable — as 1 x ANY (or the
    // equivalent class-event combination).
    let all = report.metric("All FP Ops.").unwrap();
    assert!(all.error < 1e-10, "All FP Ops error {}", all.error);
}

#[test]
fn branch_metrics_use_different_combinations_on_zen() {
    let report = zen_report(Domain::Branch);

    let coef = |m: &catalyze::DefinedMetric, ev: &str| {
        m.events.iter().position(|e| e == ev).map(|i| m.coefficients[i]).unwrap_or(0.0)
    };

    // Taken conditional branches: no direct event — composed as
    // TKN - BRN + COND (all-taken minus unconditional).
    let taken = report.metric("Conditional Branches Taken").unwrap();
    assert!(taken.error < 1e-8, "error {}", taken.error);
    assert!((coef(taken, "EX_RET_BRN_TKN") - 1.0).abs() < 1e-8, "{:?}", taken.coefficients);
    assert!((coef(taken, "EX_RET_BRN") + 1.0).abs() < 1e-8);
    assert!((coef(taken, "EX_RET_COND") - 1.0).abs() < 1e-8);

    // Unconditional = BRN - COND.
    let uncond = report.metric("Unconditional Branches").unwrap();
    assert!(uncond.error < 1e-8);
    assert!((coef(uncond, "EX_RET_BRN") - 1.0).abs() < 1e-8);
    assert!((coef(uncond, "EX_RET_COND") + 1.0).abs() < 1e-8);

    // Mispredicted: direct.
    let misp = report.metric("Mispredicted Branches").unwrap();
    assert!(misp.error < 1e-8);
    assert!((coef(misp, "EX_RET_BRN_MISP") - 1.0).abs() < 1e-8);

    // Executed: still not composable anywhere.
    let ex = report.metric("Conditional Branches Executed").unwrap();
    assert!((ex.error - 1.0).abs() < 1e-8);
}

#[test]
fn zen_flop_events_survive_noise_and_representation() {
    let report = zen_report(Domain::CpuFlops);
    let kept: Vec<&str> = report.representation.kept.iter().map(|e| e.name.as_str()).collect();
    for name in [
        "RETIRED_SSE_AVX_FLOPS:ADD_SUB_FLOPS",
        "RETIRED_SSE_AVX_FLOPS:MULT_FLOPS",
        "RETIRED_SSE_AVX_FLOPS:MAC_FLOPS",
        "RETIRED_SSE_AVX_FLOPS:ANY",
    ] {
        assert!(kept.contains(&name), "{name} missing from representation; kept {kept:?}");
    }
}

#[test]
fn zen_cache_metrics_compose_from_amd_events() {
    // The cache story ports too: AMD has no load-retirement L1-hit event,
    // so L1 hits compose as `LS_DC_ACCESSES − LS_MAB_ALLOC` (accesses minus
    // miss-buffer allocations).
    let report = zen_report(Domain::Dcache);
    assert_eq!(report.selection.events.len(), 4, "{:?}", report.selection.names());

    for m in &report.metrics {
        assert!(m.error < 1e-3, "{}: error {}", m.metric, m.error);
    }
    // L1 hits = (a loads counter) − (the miss-buffer counter): AMD has no
    // direct L1-hit event, so the combination must subtract. Which of the
    // two loads-counting events wins the tie-break is immaterial.
    let hits = report.metric("L1 Hits").unwrap();
    let loads_coef = hits
        .events
        .iter()
        .zip(&hits.coefficients)
        .find(|(e, _)| {
            e.as_str() == "LS_DC_ACCESSES:ALL" || e.as_str() == "LS_DISPATCH:LD_DISPATCH"
        })
        .map(|(_, &c)| c)
        .expect("a loads counter is selected");
    let mab_coef = hits
        .events
        .iter()
        .zip(&hits.coefficients)
        .find(|(e, _)| e.as_str() == "LS_MAB_ALLOC:LOADS")
        .map(|(_, &c)| c)
        .expect("the miss-buffer counter is selected");
    assert!(loads_coef > 0.9, "{:?} {:?}", hits.events, hits.coefficients);
    assert!(mab_coef < -0.9, "{:?} {:?}", hits.events, hits.coefficients);
}
