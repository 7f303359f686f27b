//! Schema and non-perturbation guarantees of the observability layer over a
//! real end-to-end analysis: the trace JSON keeps its documented shape
//! (version, span nesting, reconciling funnel, linalg counters), and
//! observing a run never changes its result.

use catalyze::pipeline::AnalysisRequest;
use catalyze_bench::{Harness, Scale};
use catalyze_obs::TraceCollector;
use serde_json::Value;

/// Serializes this file's tests. Every one runs an analysis, and the linalg
/// kernel counters are process-wide, so a test asserting exact counts must
/// not share the process with another analysis in flight.
fn linalg_turn() -> std::sync::MutexGuard<'static, ()> {
    static TURN: std::sync::Mutex<()> = std::sync::Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn traced_branch() -> (Value, String) {
    let h = Harness::new(Scale::Fast);
    let trace = TraceCollector::new();
    let d = h.domain_obs("branch", &trace).unwrap().unwrap();
    let report = serde_json::to_string(&d.analysis).unwrap();
    (serde_json::from_str(&trace.render_json()).unwrap(), report)
}

#[test]
fn trace_json_has_versioned_nested_spans() {
    let _turn = linalg_turn();
    let (trace, _) = traced_branch();
    assert_eq!(trace["version"].as_u64(), Some(1));

    let roots = trace["spans"].as_array().unwrap();
    // Two top-level spans: the benchmark run and the analysis.
    let names: Vec<&str> = roots.iter().map(|s| s["name"].as_str().unwrap()).collect();
    assert_eq!(names, ["run/branch", "analyze/branch"]);

    // The four pipeline stages nest under the analysis root, in order.
    let analyze = &roots[1];
    let stages: Vec<&str> = analyze["children"]
        .as_array()
        .unwrap()
        .iter()
        .map(|s| s["name"].as_str().unwrap())
        .collect();
    assert_eq!(stages, ["noise", "represent", "select", "define"]);

    // Every span closed: durations are concrete numbers, and children start
    // no earlier than their parent.
    fn check(span: &Value) {
        assert!(span["duration_ns"].as_u64().is_some(), "open span {span:?}");
        let start = span["start_ns"].as_u64().unwrap();
        for child in span["children"].as_array().unwrap() {
            assert!(child["start_ns"].as_u64().unwrap() >= start);
            check(child);
        }
    }
    for span in roots {
        check(span);
    }
}

#[test]
fn trace_funnel_reconciles_and_counters_cover_linalg() {
    let _turn = linalg_turn();
    let (trace, _) = traced_branch();

    let funnel = trace["funnel"].as_array().unwrap();
    let stages: Vec<&str> = funnel.iter().map(|f| f["stage"].as_str().unwrap()).collect();
    assert_eq!(stages, ["noise", "represent", "select", "define"]);
    for f in funnel {
        let events_in = f["in"].as_u64().unwrap();
        let kept = f["kept"].as_u64().unwrap();
        let dropped: u64 =
            f["dropped"].as_array().unwrap().iter().map(|d| d["count"].as_u64().unwrap()).sum();
        assert_eq!(kept + dropped, events_in, "unreconciled stage {f:?}");
    }

    let counters = trace["counters"].as_array().unwrap();
    let get = |name: &str| {
        counters.iter().find(|c| c["name"].as_str() == Some(name)).and_then(|c| c["value"].as_u64())
    };
    assert!(get("linalg.lstsq_solves").unwrap() > 0);
    assert!(get("linalg.qr_factorizations").unwrap() > 0);
    assert_eq!(get("linalg.spqrcp_runs"), Some(1));
    // Stage-attributed solve counts cannot exceed the pipeline total.
    let total = get("linalg.lstsq_solves").unwrap();
    let staged = get("represent.lstsq_solves").unwrap() + get("define.lstsq_solves").unwrap();
    assert!(staged <= total, "staged {staged} vs total {total}");
    // Factorization reuse: each hot stage factors its matrix and computes
    // its spectral norm exactly once, no matter how many systems it solves.
    assert_eq!(get("represent.qr_factorizations"), Some(1));
    assert_eq!(get("represent.spectral_norms"), Some(1));
    assert_eq!(get("define.qr_factorizations"), Some(1));
    assert_eq!(get("define.spectral_norms"), Some(1));
    // Every solve past each stage's first reused a factorization and a
    // cached norm.
    let solves = staged;
    assert!(get("linalg.qr_factorizations_avoided").unwrap() >= solves - 2);
    assert!(get("linalg.spectral_norms_cached").unwrap() >= solves - 2);

    // The simulator runner reports its engine choice and stream-memo
    // bookkeeping as counters on every CPU domain run.
    assert_eq!(
        get("runner.engine.replay"),
        Some(1),
        "fast-test config must run on the replay engine, once per run"
    );
    assert_eq!(get("runner.engine.direct"), None);
    assert!(get("stream.memo_hits").is_some());
    assert!(get("stream.memo_misses").is_some());
    assert!(get("stream.passes_collapsed").is_some());
    // Branch kernels have no memory stream, so no pass is counted.
    assert_eq!(get("stream.passes_counted").unwrap_or(0), 0);
}

#[test]
fn cache_domain_traces_show_stream_collapse_counters() {
    let _turn = linalg_turn();
    // The dcache sweep drives long steady-state streams, so its trace must
    // show actual collapse work: passes skipped via canonical fixed points
    // and warmup->measure reuse through the keyed stream memo.
    let h = Harness::new(Scale::Fast);
    let trace = TraceCollector::new();
    h.domain_obs("dcache", &trace).unwrap().unwrap();
    let json: Value = serde_json::from_str(&trace.render_json()).unwrap();
    let counters = json["counters"].as_array().unwrap();
    let get = |name: &str| {
        counters.iter().find(|c| c["name"].as_str() == Some(name)).and_then(|c| c["value"].as_u64())
    };
    assert_eq!(get("runner.engine.replay"), Some(1));
    assert!(get("stream.passes_collapsed").unwrap() > 0, "steady passes must collapse");
    assert!(get("stream.memo_hits").unwrap() > 0, "measure phase must reuse warmup fixed points");
    assert!(get("stream.passes_counted").unwrap() > 0, "cold warmup passes must be counted");
}

#[test]
fn noop_observed_runs_are_byte_identical() {
    let _turn = linalg_turn();
    let h = Harness::new(Scale::Fast);
    let ms = h.measure("branch", &catalyze_obs::NoopObserver).unwrap();
    let (basis, signatures, config) = h.domain_inputs("branch").unwrap();
    let run =
        |request: AnalysisRequest<'_>| serde_json::to_string(&request.run().unwrap()).unwrap();
    let base = AnalysisRequest::new()
        .domain("branch")
        .events(&ms.events)
        .runs(&ms.runs)
        .basis(&basis)
        .signatures(&signatures)
        .config(config);

    // Default observer (noop), explicit noop, and a live trace collector
    // must all produce byte-identical reports.
    let plain = run(base);
    let noop = run(base.observer(&catalyze_obs::NOOP));
    let trace = TraceCollector::new();
    let traced = run(base.observer(&trace));
    assert_eq!(plain, noop);
    assert_eq!(plain, traced);
    assert!(trace.span_count() >= 5, "got {}", trace.span_count());
}
