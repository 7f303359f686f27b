//! Ablation studies for the design choices the paper argues for:
//!
//! * **pivot rule** — classical max-norm QRCP vs the specialized scheme
//!   (§II's motivation: cycles-like large-norm columns hijack the standard
//!   pivoting);
//! * **α sensitivity** (§V.E) — a wide band of tolerances yields the same
//!   selection;
//! * **τ sensitivity** (§IV) — where the noise threshold can be placed;
//! * **per-thread median** (§IV/VII) — how much noise the median across
//!   cache-benchmark threads suppresses.

use crate::harness::{DomainResult, Harness};
use catalyze::noise::max_rnmse;
use catalyze_cat::{Domain, MeasurementSet, RunnerConfig, SimRequest};
use catalyze_linalg::{qrcp, specialized_qrcp, SpQrcpParams};
use catalyze_obs::NoopObserver;

/// Outcome of the pivot-rule ablation on one domain.
#[derive(Debug, Clone)]
// lint: allow(dead_api): returned by the ablation API; fields are read by the repro binary via Debug/serde-style dumps
pub struct PivotAblation {
    /// Events chosen by the paper's specialized scheme, in pivot order.
    pub specialized: Vec<String>,
    /// Events chosen by classical max-norm pivoting, in pivot order.
    pub standard: Vec<String>,
}

/// Compares the two pivot rules on a domain's representation matrix.
///
/// To expose the failure mode the paper describes, the comparison runs on
/// the representation matrix *with columns scaled back to measurement
/// magnitude* (‖m_e‖): classical QRCP ranks by norm, so cycle-scaled events
/// dominate; the specialized scheme is scale-aware through its scoring.
pub fn pivot_rule_ablation(domain: &DomainResult) -> PivotAblation {
    let rep = &domain.analysis.representation;
    // lint: allow(panic): ablation input is a non-empty representation by construction
    let x = rep.x_matrix().expect("non-empty representation");
    // Scale each column by the norm of its original measurement vector.
    let mut scaled = x.clone();
    for (j, event) in rep.kept.iter().enumerate() {
        let m = domain
            .measurements
            .event_index(&event.name)
            .map(|e| domain.measurements.mean_vector(e))
            // lint: allow(panic): kept events come from the same measurement set
            .expect("kept events come from the measurement set");
        let norm = catalyze_linalg::vector::norm2(&m);
        let col = scaled.col_mut(j);
        catalyze_linalg::vector::scale(col, norm.max(1e-300));
    }
    let spec = specialized_qrcp(&x, SpQrcpParams::new(domain.analysis.config.alpha))
        // lint: allow(panic): scaled copy preserves the validated shape
        .expect("valid matrix");
    // lint: allow(panic): scaled copy preserves the validated shape
    let std = qrcp(&scaled, 1e-10).expect("valid matrix");
    PivotAblation {
        specialized: spec.selected().iter().map(|&j| rep.kept[j].name.clone()).collect(),
        standard: std.selected().iter().map(|&j| rep.kept[j].name.clone()).collect(),
    }
}

/// One row of the α-sensitivity sweep.
#[derive(Debug, Clone)]
// lint: allow(dead_api): row type returned by alpha_sweep; part of the ablation result surface
pub struct AlphaRow {
    /// The tolerance value.
    pub alpha: f64,
    /// Events selected at this tolerance (sorted).
    pub selected: Vec<String>,
    /// Whether the selection matches the paper-default selection.
    pub matches_default: bool,
}

/// Sweeps α over `values` and reports the selection at each setting.
///
/// # Errors
///
/// Propagates a selection failure (non-finite representation matrix).
pub fn alpha_sweep(
    domain: &DomainResult,
    values: &[f64],
) -> Result<Vec<AlphaRow>, catalyze::LinalgError> {
    let mut default: Vec<String> =
        domain.analysis.selection.events.iter().map(|e| e.name.clone()).collect();
    default.sort();
    values
        .iter()
        .map(|&alpha| {
            let rep = &domain.analysis.representation;
            let sel = catalyze::select::select_events(rep, alpha)?;
            let mut names: Vec<String> = sel.events.iter().map(|e| e.name.clone()).collect();
            names.sort();
            Ok(AlphaRow { alpha, matches_default: names == default, selected: names })
        })
        .collect()
}

/// One row of the τ-sensitivity sweep.
#[derive(Debug, Clone)]
// lint: allow(dead_api): row type returned by tau_sweep; part of the ablation result surface
pub struct TauRow {
    /// The threshold value.
    pub tau: f64,
    /// Events surviving the variability filter.
    pub kept: usize,
    /// Events discarded as noisy.
    pub noisy: usize,
}

/// Sweeps the noise threshold τ and reports how many events survive.
pub fn tau_sweep(domain: &DomainResult, values: &[f64]) -> Vec<TauRow> {
    let ms = &domain.measurements;
    values
        .iter()
        .map(|&tau| {
            let mut kept = 0;
            let mut noisy = 0;
            for e in 0..ms.num_events() {
                let vectors = ms.vectors_for_event(e);
                match max_rnmse(&vectors) {
                    Some(v) if v <= tau => kept += 1,
                    Some(_) => noisy += 1,
                    None => {}
                }
            }
            TauRow { tau, kept, noisy }
        })
        .collect()
}

/// Outcome of the per-thread-median ablation.
#[derive(Debug, Clone)]
// lint: allow(dead_api): returned by median_ablation, which the repro binary calls
pub struct MedianAblation {
    /// Max-RNMSE of the key cache events using a single thread's readings.
    pub single_thread: Vec<(String, f64)>,
    /// Max-RNMSE of the same events after the per-thread median.
    pub with_median: Vec<(String, f64)>,
}

/// Measures how much the per-thread median suppresses cache-event noise.
pub fn median_ablation(h: &Harness) -> MedianAblation {
    let single = single_thread_dcache(h);
    // lint: allow(panic): the harness's own configuration is valid
    let median = h.measure(Domain::Dcache, &NoopObserver).expect("valid dcache request");
    let events = [
        "MEM_LOAD_RETIRED:L1_HIT",
        "MEM_LOAD_RETIRED:L1_MISS",
        "L2_RQSTS:DEMAND_DATA_RD_HIT",
        "MEM_LOAD_RETIRED:L3_HIT",
    ];
    let variability = |ms: &MeasurementSet, name: &str| -> f64 {
        // lint: allow(panic): the key cache events are part of the shipped inventory
        let e = ms.event_index(name).expect("key cache event present");
        max_rnmse(&ms.vectors_for_event(e)).unwrap_or(1.0)
    };
    MedianAblation {
        single_thread: events.iter().map(|&n| (n.to_string(), variability(&single, n))).collect(),
        with_median: events.iter().map(|&n| (n.to_string(), variability(&median, n))).collect(),
    }
}

/// Thread 0's data-cache readings: a one-thread request chases thread 0's
/// buffer under its noise keys, and the median of one thread is that
/// thread.
fn single_thread_dcache(h: &Harness) -> MeasurementSet {
    let cfg = RunnerConfig { dcache_threads: 1, ..h.cfg };
    let request = SimRequest::new().domain(Domain::Dcache).events(&h.cpu_events).config(&cfg);
    // lint: allow(panic): the harness's own configuration is valid
    request.run().expect("valid dcache request")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Scale;

    #[test]
    fn pivot_ablation_shows_divergence() {
        let h = Harness::new(Scale::Fast);
        let d = h.domain(Domain::Dcache).unwrap();
        let ab = pivot_rule_ablation(&d);
        assert_eq!(ab.specialized.len(), 4);
        assert!(!ab.standard.is_empty());
        // The standard rule must rank a large-norm (cycles/uncore-scaled)
        // column first — not one of the four clean cache events.
        let clean = [
            "MEM_LOAD_RETIRED:L1_HIT",
            "MEM_LOAD_RETIRED:L1_MISS",
            "L2_RQSTS:DEMAND_DATA_RD_HIT",
            "MEM_LOAD_RETIRED:L3_HIT",
        ];
        assert!(
            !clean.contains(&ab.standard[0].as_str()),
            "standard QRCP picked {} first",
            ab.standard[0]
        );
        assert!(clean.contains(&ab.specialized[0].as_str()));
    }

    #[test]
    fn alpha_sweep_stable_over_decades() {
        let h = Harness::new(Scale::Fast);
        let d = h.domain(Domain::Branch).unwrap();
        let rows = alpha_sweep(&d, &[1e-5, 5e-4, 1e-3, 1e-2]).unwrap();
        for r in &rows {
            assert!(r.matches_default, "alpha {} changed the selection", r.alpha);
        }
    }

    #[test]
    fn tau_sweep_monotone() {
        let h = Harness::new(Scale::Fast);
        let d = h.domain(Domain::Branch).unwrap();
        let rows = tau_sweep(&d, &[1e-14, 1e-10, 1e-2, 1e2]);
        for w in rows.windows(2) {
            assert!(w[0].kept <= w[1].kept, "kept counts must grow with tau");
        }
        assert!(rows[1].kept > 0);
    }

    #[test]
    fn median_reduces_or_preserves_noise() {
        let h = Harness::new(Scale::Fast);
        let ab = median_ablation(&h);
        let total_single: f64 = ab.single_thread.iter().map(|(_, v)| v).sum();
        let total_median: f64 = ab.with_median.iter().map(|(_, v)| v).sum();
        assert!(
            total_median <= total_single * 1.2,
            "median {total_median} vs single {total_single}"
        );
    }
}
