//! End-to-end checks for the store-path (write/RFO) extension domain.

use catalyze_bench::{Harness, Scale};
use catalyze_cat::Domain;

#[test]
fn dstore_pipeline_composes_write_metrics() {
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Dstore).unwrap();

    assert_eq!(d.measurements.num_points(), 8);
    assert_eq!(d.basis.dim(), 4);

    // Selection: the two RFO events plus the store counter — no per-level
    // store-retirement events exist on this machine.
    let names = d.analysis.selection.names();
    assert_eq!(names.len(), 3, "{names:?}");
    assert!(names.contains(&"L2_RQSTS:RFO_HIT"));
    assert!(names.contains(&"MEM_INST_RETIRED:ALL_STORES"));
    assert!(
        names.contains(&"L2_RQSTS:ALL_RFO") || names.contains(&"L2_RQSTS:RFO_MISS"),
        "{names:?}"
    );

    // Composable write metrics.
    for name in [
        "L1 Store Misses (RFOs).",
        "L1 Store Hits.",
        "All Stores.",
        "L2 Store Hits.",
        "L2 Store Misses.",
    ] {
        let m = d.analysis.metric(name).unwrap();
        // The RFO events carry multiplicative observation noise with
        // sigma ~1e-2 and Scale::Fast takes the median of only three
        // repetitions, so a few-1e-3 backward error is statistically
        // expected; the non-composable contrast below sits near 1.0.
        assert!(m.error < 5e-3, "{name} error {}", m.error);
    }

    // L1 Store Hits = stores - RFOs: positive stores coefficient, negative
    // RFO coefficient.
    let hits = d.analysis.metric("L1 Store Hits").unwrap();
    let coef = |ev: &str| {
        hits.events.iter().position(|e| e == ev).map(|i| hits.coefficients[i]).unwrap_or(0.0)
    };
    assert!(coef("MEM_INST_RETIRED:ALL_STORES") > 0.9, "{:?}", hits.coefficients);
    assert!(coef("L2_RQSTS:ALL_RFO") < -0.9, "{:?}", hits.coefficients);

    // No event counts L3-level store hits: honestly non-composable.
    let l3 = d.analysis.metric("L3 Store Hits").unwrap();
    assert!(l3.error > 0.9, "L3 store hits must be non-composable, error {}", l3.error);
}

#[test]
fn dstore_sync_runner_matches_the_observed_variant() {
    // `SimRequest::run` is a certified-deterministic entry point
    // (`// lint: contract(deterministic)`): two runs, and a run under a
    // recording observer, must agree bit for bit.
    let h = Harness::new(Scale::Fast);
    let first = h.measure(Domain::Dstore, &catalyze_obs::NoopObserver).unwrap();
    first.validate().unwrap();
    let second = h.measure(Domain::Dstore, &catalyze_obs::NoopObserver).unwrap();
    let observed = h.measure(Domain::Dstore, &catalyze_obs::TraceCollector::new()).unwrap();
    assert_eq!(first, second, "repeated sync runs must be bit-identical");
    assert_eq!(first, observed, "observation must not perturb the measurements");
}

#[test]
fn dstore_load_events_stay_out() {
    // The store benchmark performs no loads; the load-side events must be
    // discarded as all-zero, never selected.
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Dstore).unwrap();
    for e in &d.analysis.selection.events {
        assert!(
            !e.name.starts_with("MEM_LOAD_RETIRED"),
            "load event selected in store domain: {}",
            e.name
        );
    }
    let ms = &d.measurements;
    let l1h = ms.event_index("MEM_LOAD_RETIRED:L1_HIT").unwrap();
    assert!(ms.mean_vector(l1h).iter().all(|&v| v == 0.0));
}
