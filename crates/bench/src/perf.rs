//! The performance snapshot `repro perf` writes: `BENCH_obs.json`.
//!
//! Every measurement is a span or a counter folded into one
//! [`MetricsRegistry`], so each timing row keeps all of its repeats as a
//! distribution (count, min, p50, p90, p99) and `catalyze trace diff`
//! gates the whole file against the committed baseline. The document is
//! the `metrics.v1` rendering wrapped in a versioned envelope:
//!
//! ```json
//! {"version": 1, "scale": "fast", "repeats": 2, "metrics": { ... }}
//! ```
//!
//! What it folds:
//!
//! * **The traced pipeline.** Every domain is measured on the `Replay`
//!   engine and analyzed under a fresh [`TraceCollector`], 2 times at
//!   [`Scale::Fast`] and 3 at [`Scale::Full`]: the `run/<domain>`,
//!   `simulate`, `replay`, `analyze/<domain>` and stage spans, and the
//!   runner, stream-engine and linalg counters.
//! * **Direct vs Replay.** `direct/<domain>` times the same request on the
//!   sequential `Direct` reference engine for each CPU domain, as many
//!   times; `run/<domain>` is its Replay side. `direct/dcache/<policy>`
//!   and `replay/dcache/<policy>` time the data-cache domain once per
//!   engine with every level on a non-stock replacement policy or the
//!   next-line prefetcher on (the stock core is the `direct/dcache` row).
//! * **The stream row.** `stream/counted` and `stream/driven` time one
//!   single-thread `Cpu::replay_passes` over the two warmup passes of the
//!   dcache 4×L3, stride-64 point: from empty caches, where both passes
//!   are counted per set, and behind one unrelated cached line, where the
//!   drive loop runs every access.
//! * **Batched least squares.** `lstsq/per-call/<k>` and
//!   `lstsq/batched/<k>` time `k` solves on the CPU-FLOPs basis shape
//!   through one-shot [`lstsq()`](catalyze_linalg::lstsq()) calls and
//!   through one [`FactoredLstsq`](catalyze_linalg::FactoredLstsq)
//!   workspace.
//!
//! Exact counters, always emitted so a zero is in the baseline:
//! `perf.engine_mismatches` (Direct and Replay measurement sets that
//! differ), `perf.lstsq_mismatches` (batched solutions that differ from
//! per-call ones in any bit), `perf.lstsq_qr_avoided` and
//! `perf.lstsq_spectral_cached` (the batched path's reuse), and
//! `perf.stream_accesses` (accesses per stream-row run).
//!
//! None of these runs folds its own trace: each is timed by one span on a
//! separate collector, so the Replay spans and counters above count the
//! traced pipeline alone. The simulator rows live in `sim_perf.rs`, the
//! least-squares rows in `linalg_perf.rs`.

use crate::{linalg_perf, sim_perf, Harness, Scale};
use catalyze::AnalysisError;
use catalyze_cat::Domain;
use catalyze_obs::{render_metrics_json, MetricsRegistry, Span, TraceCollector};
use serde_json::Value;

/// Traced pipeline passes over every domain, and `Direct` runs per CPU
/// domain: enough for the histograms to carry a spread without tripling
/// the full-scale wall time.
fn repeats(scale: Scale) -> u32 {
    match scale {
        Scale::Full => 3,
        Scale::Fast => 2,
    }
}

/// Runs per stream row and per least-squares row; these are milliseconds
/// or less each.
pub(crate) fn timing_repeats(scale: Scale) -> usize {
    match scale {
        Scale::Full => 15,
        Scale::Fast => 5,
    }
}

/// Renders the `BENCH_obs.json` snapshot at `scale`.
///
/// # Errors
///
/// Propagates the first failing domain analysis.
pub fn snapshot(h: &Harness, scale: Scale) -> Result<String, AnalysisError> {
    let repeats = repeats(scale);
    let mut registry = MetricsRegistry::new();
    let mut replayed = Vec::new();
    for _ in 0..repeats {
        replayed.clear();
        for domain in Domain::ALL {
            let trace = TraceCollector::new();
            replayed.push((domain, h.domain_obs(domain, &trace)?.measurements));
            registry.fold(&trace);
        }
    }
    let perf = TraceCollector::new();
    sim_perf::engine_rows(h, repeats, &replayed, &perf);
    sim_perf::stream_rows(&h.cfg, timing_repeats(scale), &perf);
    linalg_perf::lstsq_rows(scale, &perf);
    registry.fold(&perf);

    // lint: allow(panic): render_metrics_json always emits a JSON object
    let metrics = serde_json::from_str(&render_metrics_json(&registry)).expect("metrics.v1 JSON");
    let envelope = Value::Object(vec![
        ("version".to_string(), Value::U64(1)),
        ("scale".to_string(), Value::Str(scale.label().to_string())),
        ("repeats".to_string(), Value::U64(repeats.into())),
        ("metrics".to_string(), metrics),
    ]);
    // lint: allow(panic): serializing an in-memory value cannot fail
    let mut json = serde_json::to_string_pretty(&envelope).expect("envelope serializes");
    json.push('\n');
    Ok(json)
}

/// Runs `f` inside a span named `name` on `perf`.
pub(crate) fn timed<T>(perf: &TraceCollector, name: &str, f: impl FnOnce() -> T) -> T {
    let _span = Span::enter(perf, name);
    f()
}

/// The [`Scale::Fast`] snapshot, rendered once per test process and
/// shared by every test that reads it.
#[cfg(test)]
pub(crate) fn fast_snapshot() -> &'static str {
    static SNAPSHOT: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    SNAPSHOT.get_or_init(|| snapshot(&Harness::new(Scale::Fast), Scale::Fast).unwrap())
}
