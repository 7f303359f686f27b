//! Metric declarations, summary statistics and the result line.
//!
//! The tables here are the benchmark's source of truth: `BENCHMARK.json`
//! repeats their names, units and directions (a test keeps the two equal),
//! and `--describe` prints the per-layer predictions `BENCHMARK.json` has
//! no field for.

use std::fmt::Write as _;

/// A reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Metrics a user of the system sees, from untraced passes (`--trace 0`).
pub const END_TO_END: [Metric; 5] = [
    m("setup_s", "s", "lower"),
    m("pass_ms_p50", "ms", "lower"),
    m("pass_ms_tail", "ms", "lower"),
    m("requests_per_s", "1/s", "higher"),
    m("peak_rss_mib", "MiB", "lower"),
];

/// A per-layer metric and what it predicts: the end-to-end metric it
/// should move, the workloads it should move it on, and the workloads
/// where it predicts no change.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub metric: Metric,
    pub moves: &'static str,
    pub on: &'static str,
    pub no_change_on: &'static str,
}

const fn l(
    metric: Metric,
    moves: &'static str,
    on: &'static str,
    no_change_on: &'static str,
) -> Layer {
    Layer { metric, moves, on, no_change_on }
}

const ALL: &str = "all";
const CHASE: &str = "chase-lru";
const NONE: &str = "none";
const BASE: &str = "base of a ratio";

/// Metrics of single layers, from the traced pass (`--trace 1`).
pub const PER_LAYER: [Layer; 48] = [
    l(m("cat.sim_request_ms", "ms", "lower"), "pass_ms_p50", ALL, "n/a"),
    l(m("core.analysis_request_ms", "ms", "lower"), "pass_ms_p50", ALL, "n/a"),
    l(m("simarch.record_ms", "ms", "lower"), "pass_ms_p50", CHASE, "counters-compute"),
    l(m("simarch.replay_ms", "ms", "lower"), "pass_ms_p50", CHASE, "counters-compute"),
    l(m("simarch.minstr_per_s", "Minstr/s", "higher"), "requests_per_s", CHASE, "counters-compute"),
    l(m("simarch.minstr", "Minstr", "higher"), BASE, "simarch.minstr_per_s", NONE),
    l(m("simarch.bench_replay_ms", "ms", "lower"), BASE, "simarch.minstr_per_s", NONE),
    l(
        m("stream.memo_hit_ratio", "ratio", "higher"),
        "pass_ms_p50",
        "chase-lru",
        "counters-compute",
    ),
    l(m("stream.memo_hits", "count", "higher"), BASE, "stream.memo_hit_ratio", NONE),
    l(m("stream.memo_lookups", "count", "lower"), BASE, "stream.memo_hit_ratio", NONE),
    l(
        m("stream.collapse_ratio", "ratio", "higher"),
        "pass_ms_p50",
        "chase-lru",
        "counters-compute",
    ),
    l(m("stream.passes_collapsed", "count", "higher"), BASE, "stream.collapse_ratio", NONE),
    l(m("stream.passes_replayed", "count", "lower"), BASE, "stream.collapse_ratio", NONE),
    l(m("stream.driven_pass_us", "us", "lower"), "pass_ms_p50", CHASE, "counters-compute"),
    l(m("stream.passes_driven", "count", "lower"), BASE, "stream.driven_pass_us", NONE),
    l(m("pmu.read_ms", "ms", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("pmu.read_ns_per_value", "ns", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("pmu.values_read", "count", "lower"), BASE, "pmu.read_ns_per_value", NONE),
    l(m("runner.points", "count", "lower"), "n/a (exact count)", ALL, ALL),
    l(m("runner.events", "count", "lower"), "n/a (exact count)", ALL, ALL),
    l(m("runner.repetitions", "count", "lower"), "n/a (exact count)", ALL, ALL),
    l(m("cat.median_ms", "ms", "lower"), "pass_ms_p50", CHASE, "counters-compute"),
    l(m("core.noise_ms", "ms", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("core.represent_ms", "ms", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("core.select_ms", "ms", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("core.define_ms", "ms", "lower"), "requests_per_s", "counters-compute", CHASE),
    l(m("core.noise_in", "count", "lower"), "n/a (funnel count)", ALL, ALL),
    l(m("core.noise_kept", "count", "lower"), "n/a (funnel count)", ALL, ALL),
    l(m("core.represent_in", "count", "lower"), "n/a (funnel count)", ALL, ALL),
    l(m("core.represent_kept", "count", "lower"), "n/a (funnel count)", ALL, ALL),
    l(m("core.select_in", "count", "lower"), "n/a (funnel count)", ALL, ALL),
    l(m("core.select_kept", "count", "lower"), "n/a (funnel count)", ALL, ALL),
    l(m("core.define_in", "count", "lower"), "n/a (funnel count)", ALL, ALL),
    l(m("core.define_kept", "count", "higher"), "n/a (funnel count)", ALL, ALL),
    l(m("linalg.lstsq_ms", "ms", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("linalg.spqrcp_ms", "ms", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("linalg.lstsq_solves", "count", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("linalg.qr_factorizations", "count", "lower"), "pass_ms_p50", "counters-compute", CHASE),
    l(m("obs.trace_overhead_ratio", "ratio", "lower"), NONE, "guards NoopObserver zero-cost", ALL),
    l(m("obs.traced_pass_ms", "ms", "lower"), BASE, "obs.trace_overhead_ratio", NONE),
    l(m("obs.untraced_pass_ms", "ms", "lower"), BASE, "obs.trace_overhead_ratio", NONE),
    l(m("unattributed_ratio", "ratio", "lower"), NONE, "below 0.05 on chase-lru", ALL),
    l(m("unattributed_ms", "ms", "lower"), BASE, "unattributed_ratio", NONE),
    l(m("failed_fraction", "ratio", "lower"), NONE, "0 on every workload", ALL),
    l(m("run.requests", "count", "higher"), BASE, "requests_per_s", NONE),
    l(m("run.request_s", "s", "lower"), BASE, "requests_per_s", NONE),
    l(m("pass_ms_tail.quantile", "ratio", "higher"), BASE, "pass_ms_tail", NONE),
    l(m("pass_ms_tail.samples", "count", "higher"), BASE, "pass_ms_tail", NONE),
];

/// Whether `name` is a valid metric or workload name.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Median of `values` (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of `values`, at most p99, that still has at
/// least ten samples above it: `(value, quantile)`, where `quantile` is the
/// share of samples at or below the value. With fewer than eleven samples
/// no percentile qualifies, and the maximum is returned with quantile 1.
/// The p99 cap keeps runs of thousands of short passes from reporting
/// single host stalls, which made p99.9 differ up to threefold between runs.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n < 11 {
        return (v[n - 1], 1.0);
    }
    let at_or_below = (n - 10).min((n * 99).div_ceil(100));
    (v[at_or_below - 1], at_or_below as f64 / n as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Renders the result line. Every metric of `declared` must be present in
/// `values` and nothing else may be.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    declared: &[Metric],
    values: &[(&str, f64)],
) -> Result<String, String> {
    for (name, _) in values {
        if !valid_name(name) {
            return Err(format!("metric name {name} is malformed"));
        }
        if !declared.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} is not declared"));
        }
    }
    let mut body = Vec::new();
    for d in declared {
        let Some((_, v)) = values.iter().find(|(n, _)| *n == d.name) else {
            return Err(format!("declared metric {} was not measured", d.name));
        };
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", d.name));
        }
        body.push(format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", d.name, d.unit));
    }
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use serde_json::Value;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn declared(section: &Value) -> Vec<(String, String, String)> {
        section
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m[k].as_str().expect("string field").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    }

    fn table(metrics: impl Iterator<Item = Metric>) -> Vec<(String, String, String)> {
        metrics.map(|m| (m.name.into(), m.unit.into(), m.better.into())).collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_emitted_metrics() {
        let json = benchmark_json();
        assert_eq!(declared(&json["end_to_end"]), table(END_TO_END.into_iter()));
        assert_eq!(declared(&json["per_layer"]), table(PER_LAYER.iter().map(|l| l.metric)));
        let workloads: Vec<(String, String)> = json["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| (w["name"].as_str().unwrap().into(), w["why"].as_str().unwrap().into()))
            .collect();
        let expected: Vec<(String, String)> =
            Workload::ALL.iter().map(|w| (w.name().into(), w.why().into())).collect();
        assert_eq!(workloads, expected);
    }

    #[test]
    fn every_name_is_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|l| l.metric.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate name");
        assert!(!valid_name("a b") && !valid_name("-a") && !valid_name(""));
    }

    #[test]
    fn tail_keeps_ten_samples_above_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 0.9));
        assert_eq!(tail(&values[..11]), (1.0, 1.0 / 11.0));
        assert_eq!(tail(&values[..5]), (5.0, 1.0));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&many), (1980.0, 0.99));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_rejects_undeclared_and_missing_metrics() {
        let decl = [m("a", "ms", "lower")];
        assert!(result_line(true, 1, 0, &decl, &[("a", 1.5)]).is_ok());
        assert!(result_line(true, 1, 0, &decl, &[("a", 1.5), ("b", 1.0)]).is_err());
        assert!(result_line(true, 1, 0, &decl, &[]).is_err());
        assert!(result_line(true, 1, 0, &decl, &[("a", f64::NAN)]).is_err());
    }
}
