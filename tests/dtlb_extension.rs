//! End-to-end checks for the data-TLB extension domain — the methodology
//! applied to a hardware attribute beyond the paper's four, per its stated
//! future work.

use catalyze_bench::{Harness, Scale};
use catalyze_cat::Domain;

#[test]
fn dtlb_pipeline_composes_tlb_metrics() {
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Dtlb).unwrap();

    // The benchmark: 6 points, 3 per region.
    assert_eq!(d.measurements.num_points(), 8);
    assert_eq!(d.basis.dim(), 2);

    // Selection: a page-walk counter plus a load counter (no raw event
    // counts TLB hits directly on this machine).
    let names: Vec<&str> = d.analysis.selection.names();
    assert_eq!(names.len(), 2, "selection {names:?}");
    assert!(
        names.iter().any(|n| n.starts_with("DTLB_LOAD_MISSES")),
        "a walk counter must be selected: {names:?}"
    );
    assert!(
        names.iter().any(|n| n.starts_with("MEM_INST_RETIRED")),
        "a load counter must be selected: {names:?}"
    );

    // All three metrics compose: misses directly, hits as loads - walks.
    for m in &d.analysis.metrics {
        assert!(m.error < 1e-3, "{}: error {}", m.metric, m.error);
    }
    let hits = d.analysis.metric("TLB Hits").unwrap();
    let walk_idx = hits.events.iter().position(|e| e.starts_with("DTLB")).unwrap();
    let load_idx = hits.events.iter().position(|e| e.starts_with("MEM_INST")).unwrap();
    assert!(hits.coefficients[walk_idx] < -0.9, "hits subtract walks: {:?}", hits.coefficients);
    assert!(hits.coefficients[load_idx] > 0.9, "hits add loads: {:?}", hits.coefficients);
}

#[test]
fn dtlb_measurements_have_clean_regions() {
    let h = Harness::new(Scale::Fast);
    let ms = h.measure(Domain::Dtlb, &catalyze_obs::NoopObserver).unwrap();
    ms.validate().unwrap();
    let walks = ms.event_index("DTLB_LOAD_MISSES:MISS_CAUSES_A_WALK").unwrap();
    let v = ms.mean_vector(walks);
    for (p, &walks_per_access) in v.iter().enumerate().take(5) {
        assert!(walks_per_access < 0.01, "hit-region point {p} shows walks: {walks_per_access}");
    }
    for (p, &walks_per_access) in v.iter().enumerate().take(8).skip(5) {
        assert!(walks_per_access > 0.9, "miss-region point {p} lacks walks: {walks_per_access}");
    }
}

#[test]
fn dtlb_cache_events_do_not_masquerade() {
    // The TLB sweep also moves the working set through cache levels; the
    // cache events must be rejected by the representation stage (their
    // curves do not match the 2-dimensional TLB basis), not selected.
    let h = Harness::new(Scale::Fast);
    let d = h.domain(Domain::Dtlb).unwrap();
    for e in &d.analysis.selection.events {
        assert!(
            !e.name.starts_with("MEM_LOAD_RETIRED") && !e.name.starts_with("L2_RQSTS"),
            "cache event selected in TLB domain: {}",
            e.name
        );
    }
}
