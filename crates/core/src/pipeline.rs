//! The end-to-end analysis pipeline: noise filter → expectation-basis
//! representation → specialized-QRCP selection → least-squares metric
//! definition.
//!
//! [`AnalysisRequest`] is the entry point — a borrowing builder that
//! validates its input shapes, threads an [`Observer`] through every
//! stage (spans, per-stage funnel records, linalg solve counters), and
//! returns recoverable [`AnalysisError`]s.

use crate::basis::Basis;
use crate::define::{define_metrics, DefinedMetric};
use crate::error::AnalysisError;
use crate::noise::{analyze_noise, NoiseReport};
use crate::normalize::{represent, Representation};
use crate::select::{select_events, Selection};
use crate::signature::MetricSignature;
use catalyze_linalg::stats;
use catalyze_obs::{FunnelRecord, NoopObserver, Observer, Span};
use serde::{Deserialize, Serialize};

/// The four pipeline stages, in execution order. These are the canonical
/// labels for the stage spans and funnel records every run emits, and the
/// keys under which `catalyze-obs`'s `MetricsRegistry` aggregates
/// per-stage duration histograms and drop rates — downstream consumers
/// (exposition labels, `trace diff` rows) key on exactly these strings.
pub const STAGES: [&str; 4] = ["noise", "represent", "select", "define"];

/// Tuning of the four pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Noise threshold τ for the variability filter (§IV).
    pub tau: f64,
    /// Specialized-QRCP tolerance α (§V).
    pub alpha: f64,
    /// Maximum relative residual for an event to count as representable in
    /// the expectation basis (§III-B).
    pub representation_threshold: f64,
    /// Coefficient rounding tolerance (§VI-D).
    pub rounding_tol: f64,
    /// Backward error below which a metric counts as composable.
    pub composability_threshold: f64,
}

impl Default for AnalysisConfig {
    /// The paper's CPU-side settings ([`AnalysisConfig::cpu_flops`]).
    fn default() -> Self {
        Self::cpu_flops()
    }
}

impl AnalysisConfig {
    /// Paper settings for the CPU-FLOPs events: τ = 1e-10, α = 5e-4.
    pub fn cpu_flops() -> Self {
        Self {
            tau: 1e-10,
            alpha: 5e-4,
            representation_threshold: 0.05,
            rounding_tol: 0.02,
            composability_threshold: 1e-6,
        }
    }

    /// Paper settings for the branching events: τ = 1e-10, α = 5e-4.
    pub fn branch() -> Self {
        Self::cpu_flops()
    }

    /// Paper settings for the GPU-FLOPs events: τ = 1e-10, α = 5e-4.
    pub fn gpu_flops() -> Self {
        Self::cpu_flops()
    }

    /// Paper settings for the data-cache events: τ = 1e-1, α = 5e-2, with a
    /// representation threshold loose enough for the noisy hit/miss curves
    /// (the later QR and rounding stages absorb the slack — §IV's argument
    /// for lenient early filtering).
    pub fn dcache() -> Self {
        Self {
            tau: 1e-1,
            alpha: 5e-2,
            representation_threshold: 0.25,
            rounding_tol: 0.05,
            composability_threshold: 1e-3,
        }
    }

    /// Settings for the store-path extension domain: write-side cache
    /// events share the load side's noise profile.
    pub fn dstore() -> Self {
        Self::dcache()
    }

    /// Settings for the data-TLB extension domain: page-walk counters are
    /// about as noisy as cache events, and the miss-region hit rates leave
    /// a few percent of systematic slack, so the cache-style lenient
    /// thresholds apply.
    pub fn dtlb() -> Self {
        Self::dcache()
    }

    /// Applies one `key=value`-style threshold override. Recognized keys:
    /// `tau`, `alpha`, `representation_threshold`, `rounding_tol`,
    /// `composability_threshold`. Returns `false` for an unknown key (the
    /// CLI turns that into a usage error).
    pub fn set(&mut self, key: &str, value: f64) -> bool {
        match key {
            "tau" => self.tau = value,
            "alpha" => self.alpha = value,
            "representation_threshold" => self.representation_threshold = value,
            "rounding_tol" => self.rounding_tol = value,
            "composability_threshold" => self.composability_threshold = value,
            _ => return false,
        }
        true
    }

    /// The override keys [`AnalysisConfig::set`] accepts, for usage texts.
    pub fn keys() -> [&'static str; 5] {
        ["tau", "alpha", "representation_threshold", "rounding_tol", "composability_threshold"]
    }
}

/// Everything the pipeline produced for one benchmark domain.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalysisReport {
    /// Benchmark/domain label.
    pub domain: String,
    /// The stage configuration used.
    pub config: AnalysisConfig,
    /// Stage 1: variability verdicts.
    pub noise: NoiseReport,
    /// Stage 2: expectation-basis representation of surviving events.
    pub representation: Representation,
    /// Stage 3: independent events chosen by the specialized QRCP.
    pub selection: Selection,
    /// Mean measurement vectors of the selected events (point space),
    /// aligned with `selection.events` — used to draw Figure-3-style
    /// curves.
    pub selected_mean_vectors: Vec<Vec<f64>>,
    /// Stage 4: metric definitions for every requested signature.
    pub metrics: Vec<DefinedMetric>,
}

impl AnalysisReport {
    /// Metrics that are composable under the configured threshold.
    pub fn composable_metrics(&self) -> Vec<&DefinedMetric> {
        self.metrics
            .iter()
            .filter(|m| m.is_composable(self.config.composability_threshold))
            .collect()
    }

    /// Metric by (prefix of) name.
    pub fn metric(&self, name: &str) -> Option<&DefinedMetric> {
        self.metrics.iter().find(|m| m.metric.starts_with(name))
    }
}

/// A borrowing description of one pipeline invocation, built incrementally:
///
/// ```
/// use catalyze::basis::branch_basis;
/// use catalyze::pipeline::{AnalysisConfig, AnalysisRequest};
/// use catalyze::signature::branch_signatures;
///
/// let basis = branch_basis();
/// let cr: Vec<f64> = (0..11).map(|i| basis.matrix[(i, 1)]).collect();
/// let names = vec!["BR_INST_RETIRED:COND".to_string()];
/// let runs = vec![vec![cr]];
/// let signatures = branch_signatures();
/// let report = AnalysisRequest::new()
///     .domain("branch")
///     .events(&names)
///     .runs(&runs)
///     .basis(&basis)
///     .signatures(&signatures)
///     .config(AnalysisConfig::branch())
///     .run()
///     .expect("well-formed request");
/// assert_eq!(report.domain, "branch");
/// ```
///
/// [`AnalysisRequest::run`] validates every shape up front and returns an
/// [`AnalysisError`] instead of panicking; attach a
/// [`catalyze_obs::TraceCollector`] with
/// [`observer`](AnalysisRequest::observer) to record per-stage spans,
/// funnel records, and linalg solve counters.
#[derive(Clone, Copy)]
pub struct AnalysisRequest<'a> {
    domain: &'a str,
    events: &'a [String],
    runs: &'a [Vec<Vec<f64>>],
    basis: Option<&'a Basis>,
    signatures: &'a [MetricSignature],
    config: AnalysisConfig,
    observer: &'a dyn Observer,
}

impl Default for AnalysisRequest<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// Whether `vector` holds a finite negative value. `-0.0` is a zero count,
/// and `-inf` is left to the kernels' non-finite check like every other
/// non-finite value.
fn has_negative(vector: &[f64]) -> bool {
    // One vectorizable OR over the bit patterns finds whether any sign bit
    // is set; counts have none, so the compare scan almost never runs.
    let signs = vector.iter().fold(0, |acc, v| acc | v.to_bits());
    signs >> 63 == 1 && vector.iter().any(|&v| v < 0.0 && v.is_finite())
}

impl<'a> AnalysisRequest<'a> {
    /// An empty request: no events, no runs, no basis, default
    /// configuration, noop observer.
    pub fn new() -> Self {
        Self {
            domain: "",
            events: &[],
            runs: &[],
            basis: None,
            signatures: &[],
            config: AnalysisConfig::default(),
            observer: &NoopObserver,
        }
    }

    /// Label for the report.
    pub fn domain(mut self, domain: &'a str) -> Self {
        self.domain = domain;
        self
    }

    /// Event names, aligned with the event axis of the runs.
    pub fn events(mut self, events: &'a [String]) -> Self {
        self.events = events;
        self
    }

    /// Measurements: `runs[r][e][p]` is the normalized measurement of event
    /// `e` at point `p` in repetition `r` (the layout of `catalyze-cat`'s
    /// `MeasurementSet`).
    pub fn runs(mut self, runs: &'a [Vec<Vec<f64>>]) -> Self {
        self.runs = runs;
        self
    }

    /// The domain's expectation basis (its `points` must match the
    /// measurement-point axis).
    pub fn basis(mut self, basis: &'a Basis) -> Self {
        self.basis = Some(basis);
        self
    }

    /// The metric signatures to define.
    pub fn signatures(mut self, signatures: &'a [MetricSignature]) -> Self {
        self.signatures = signatures;
        self
    }

    /// Stage thresholds (defaults to [`AnalysisConfig::cpu_flops`]).
    pub fn config(mut self, config: AnalysisConfig) -> Self {
        self.config = config;
        self
    }

    /// Instrumentation sink for spans, funnel records, and solve counters
    /// (defaults to the zero-cost [`NoopObserver`]).
    pub fn observer(mut self, observer: &'a dyn Observer) -> Self {
        self.observer = observer;
        self
    }

    /// Checks every request axis before any stage runs.
    fn validate(&self) -> Result<&'a Basis, AnalysisError> {
        let basis = self.basis.ok_or(AnalysisError::MissingBasis)?;
        if self.runs.is_empty() {
            return Err(AnalysisError::EmptyRuns);
        }
        let points = basis.points();
        for run in self.runs {
            if run.len() != self.events.len() {
                return Err(AnalysisError::Shape {
                    context: "events per run",
                    expected: self.events.len(),
                    got: run.len(),
                });
            }
            for (event, vector) in self.events.iter().zip(run) {
                if vector.len() != points {
                    return Err(AnalysisError::Shape {
                        context: "measurement points per event (basis rows)",
                        expected: points,
                        got: vector.len(),
                    });
                }
                if has_negative(vector) {
                    return Err(AnalysisError::NegativeCount { event: event.clone() });
                }
            }
        }
        Ok(basis)
    }

    /// Runs the full pipeline: variability filter, expectation-basis
    /// representation, specialized-QRCP selection, and least-squares metric
    /// definition.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::MissingBasis`] / [`AnalysisError::EmptyRuns`] /
    /// [`AnalysisError::Shape`] when the request is incomplete or its axes
    /// disagree; [`AnalysisError::NegativeCount`] when a measured value is
    /// negative; [`AnalysisError::Linalg`] when a kernel fails on the data
    /// (non-finite measurements, a rank-deficient basis).
    // lint: contract(deterministic)
    pub fn run(self) -> Result<AnalysisReport, AnalysisError> {
        let basis = self.validate()?;
        let obs = self.observer;
        let config = self.config;
        let names = self.events;
        let runs = self.runs;
        let before = stats::snapshot();
        let _root = Span::enter(obs, &format!("analyze/{}", self.domain));

        // Stage 1: variability filter (Eq. 4, threshold τ).
        let noise = {
            let _s = Span::enter(obs, STAGES[0]);
            let vectors_by_event: Vec<Vec<&[f64]>> =
                (0..names.len()).map(|e| runs.iter().map(|r| r[e].as_slice()).collect()).collect();
            analyze_noise(names, &vectors_by_event, config.tau)
        };
        let kept = noise.kept();
        obs.funnel(
            FunnelRecord::new(STAGES[0], names.len(), kept.len())
                .dropped("noisy", noise.discarded_noisy().len())
                .dropped("zero", noise.discarded_zero().len()),
        );

        // Stage 2: represent surviving events in the expectation basis,
        // using the mean measurement vector across repetitions (for
        // noise-free events all repetitions are identical; for noisy ones
        // the mean is the natural summary).
        let mean_of = |e: usize| -> Vec<f64> {
            let np = runs[0][e].len();
            let mut mean = vec![0.0; np];
            for run in runs {
                for (m, &v) in mean.iter_mut().zip(&run[e]) {
                    *m += v;
                }
            }
            let n = runs.len() as f64;
            mean.iter_mut().for_each(|m| *m /= n);
            mean
        };
        // The per-event means double as stage 3's selected-event curves, so
        // they are kept alive past the represent stage instead of being
        // recomputed.
        let inputs: Vec<(usize, String, Vec<f64>)> =
            kept.iter().map(|&e| (e, names[e].clone(), mean_of(e))).collect();
        let at_represent = stats::snapshot();
        let representation = {
            let _s = Span::enter(obs, STAGES[1]);
            represent(basis, &inputs, config.representation_threshold)?
        };
        let represent_delta = stats::snapshot().delta_since(&at_represent);
        obs.counter("represent.lstsq_solves", represent_delta.lstsq_solves);
        obs.counter("represent.qr_factorizations", represent_delta.qr_factorizations);
        obs.counter("represent.spectral_norms", represent_delta.spectral_norms);
        obs.funnel(
            FunnelRecord::new(STAGES[1], kept.len(), representation.kept.len())
                .dropped("unrepresentable", representation.rejected.len()),
        );

        // Stage 3: specialized QRCP.
        let selection = {
            let _s = Span::enter(obs, STAGES[2]);
            select_events(&representation, config.alpha)?
        };
        // Selected events all survived the noise filter, so their means are
        // already in `inputs`; the fallback only covers a (hypothetical)
        // selection outside the kept set and computes the identical vector.
        let selected_mean_vectors: Vec<Vec<f64>> = selection
            .events
            .iter()
            .map(|e| {
                inputs
                    .iter()
                    .find(|(idx, _, _)| *idx == e.index)
                    .map(|(_, _, m)| m.clone())
                    .unwrap_or_else(|| mean_of(e.index))
            })
            .collect();
        obs.funnel(
            FunnelRecord::new(STAGES[2], selection.candidates, selection.events.len())
                .dropped("dependent", selection.candidates.saturating_sub(selection.events.len())),
        );

        // Stage 4: least-squares metric definitions.
        let at_define = stats::snapshot();
        let metrics = {
            let _s = Span::enter(obs, STAGES[3]);
            define_metrics(&selection, self.signatures, config.rounding_tol)?
        };
        let define_delta = stats::snapshot().delta_since(&at_define);
        obs.counter("define.lstsq_solves", define_delta.lstsq_solves);
        obs.counter("define.qr_factorizations", define_delta.qr_factorizations);
        obs.counter("define.spectral_norms", define_delta.spectral_norms);
        let composable =
            metrics.iter().filter(|m| m.is_composable(config.composability_threshold)).count();
        obs.funnel(
            FunnelRecord::new(STAGES[3], self.signatures.len(), composable)
                .dropped("non-composable", self.signatures.len().saturating_sub(composable)),
        );

        // Pipeline-total linalg counters.
        let delta = stats::snapshot().delta_since(&before);
        obs.counter("linalg.lstsq_solves", delta.lstsq_solves);
        obs.counter("linalg.lstsq_nanos", delta.lstsq_nanos);
        obs.counter("linalg.qr_factorizations", delta.qr_factorizations);
        obs.counter("linalg.qr_nanos", delta.qr_nanos);
        obs.counter("linalg.spqrcp_runs", delta.spqrcp_runs);
        obs.counter("linalg.spqrcp_nanos", delta.spqrcp_nanos);
        obs.counter("linalg.spectral_norms", delta.spectral_norms);
        obs.counter("linalg.qr_factorizations_avoided", delta.qr_factorizations_avoided);
        obs.counter("linalg.spectral_norms_cached", delta.spectral_norms_cached);

        Ok(AnalysisReport {
            domain: self.domain.to_string(),
            config,
            noise,
            representation,
            selection,
            selected_mean_vectors,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basis::branch_basis;
    use crate::signature::branch_signatures;
    use catalyze_obs::TraceCollector;

    /// Synthetic branch-domain measurements: the four real events plus a
    /// noisy event, an all-zero event, and an unrepresentable constant.
    fn synthetic_branch_runs() -> (Vec<String>, Vec<Vec<Vec<f64>>>) {
        let b = branch_basis();
        let col = |j: usize| -> Vec<f64> { (0..11).map(|i| b.matrix[(i, j)]).collect() };
        let all: Vec<f64> = (0..11).map(|i| b.matrix[(i, 1)] + b.matrix[(i, 3)]).collect();
        let constant = vec![3.0; 11];
        let names: Vec<String> = [
            "BR_MISP_RETIRED",
            "BR_INST_RETIRED:COND",
            "BR_INST_RETIRED:COND_TAKEN",
            "BR_INST_RETIRED:ALL_BRANCHES",
            "NOISY_CYCLES",
            "ZERO_EVENT",
            "INT_CONSTANT",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let runs: Vec<Vec<Vec<f64>>> = (0..3)
            .map(|r| {
                let jitter = 1.0 + 0.01 * r as f64;
                vec![
                    col(4),
                    col(1),
                    col(2),
                    all.clone(),
                    col(1).iter().map(|v| v * 1000.0 * jitter).collect(),
                    vec![0.0; 11],
                    constant.clone(),
                ]
            })
            .collect();
        (names, runs)
    }

    #[test]
    fn full_pipeline_on_synthetic_branch_data() {
        let _turn = crate::linalg_turn();
        let (names, runs) = synthetic_branch_runs();
        let report = AnalysisRequest::new()
            .domain("branch")
            .events(&names)
            .runs(&runs)
            .basis(&branch_basis())
            .signatures(&branch_signatures())
            .config(AnalysisConfig::branch())
            .run()
            .unwrap();
        // Noise stage: noisy and zero events gone.
        assert_eq!(report.noise.kept().len(), 5);
        assert_eq!(report.noise.discarded_zero(), vec![5]);
        assert_eq!(report.noise.discarded_noisy(), vec![4]);
        // Representation: constant event rejected.
        assert_eq!(report.representation.rejected.len(), 1);
        assert_eq!(report.representation.rejected[0].name, "INT_CONSTANT");
        // Selection: exactly the paper's four events.
        assert_eq!(report.selection.events.len(), 4);
        // Metrics: six composable, one (Executed) not.
        assert_eq!(report.metrics.len(), 7);
        assert_eq!(report.composable_metrics().len(), 6);
        let ex = report.metric("Conditional Branches Executed").unwrap();
        assert!((ex.error - 1.0).abs() < 1e-9);
        // Selected mean vectors align with the selection.
        assert_eq!(report.selected_mean_vectors.len(), 4);
        assert_eq!(report.selected_mean_vectors[0].len(), 11);
    }

    #[test]
    fn traced_run_records_spans_funnel_and_counters() {
        let _turn = crate::linalg_turn();
        let (names, runs) = synthetic_branch_runs();
        let trace = TraceCollector::new();
        let report = AnalysisRequest::new()
            .domain("branch")
            .events(&names)
            .runs(&runs)
            .basis(&branch_basis())
            .signatures(&branch_signatures())
            .config(AnalysisConfig::branch())
            .observer(&trace)
            .run()
            .unwrap();
        // Root + four stage spans.
        assert_eq!(trace.span_count(), 5);
        // Every funnel record reconciles: kept + dropped == in.
        let funnel = trace.funnel_records();
        assert_eq!(funnel.len(), STAGES.len());
        assert!(funnel.iter().all(|f| f.reconciles()), "{funnel:?}");
        // One record per stage, emitted in STAGES order under exactly the
        // canonical labels (the registry and the diff tool key on them).
        let stages: Vec<&str> = funnel.iter().map(|f| f.stage.as_str()).collect();
        assert_eq!(stages, STAGES.to_vec());
        let span_names: Vec<String> = trace.span_records().iter().map(|s| s.name.clone()).collect();
        for stage in STAGES {
            assert!(span_names.iter().any(|n| n == stage), "span for {stage}: {span_names:?}");
        }
        assert_eq!(funnel[0].stage, "noise");
        assert_eq!(funnel[0].events_in, names.len());
        assert_eq!(funnel[0].kept, 5);
        // The representation stage solves one least-squares system per
        // surviving event; define solves one per signature.
        assert_eq!(trace.counter_value("represent.lstsq_solves"), Some(5));
        assert_eq!(trace.counter_value("define.lstsq_solves"), Some(7));
        assert!(trace.counter_value("linalg.lstsq_solves").unwrap() >= 12);
        assert_eq!(trace.counter_value("linalg.spqrcp_runs"), Some(1));
        // Each hot stage factors its matrix and takes its spectral norm
        // exactly once; every further solve reuses both.
        assert_eq!(trace.counter_value("represent.qr_factorizations"), Some(1));
        assert_eq!(trace.counter_value("represent.spectral_norms"), Some(1));
        assert_eq!(trace.counter_value("define.qr_factorizations"), Some(1));
        assert_eq!(trace.counter_value("define.spectral_norms"), Some(1));
        // 4 reuses in represent (5 solves) + 6 in define (7 solves).
        assert!(trace.counter_value("linalg.qr_factorizations_avoided").unwrap() >= 10);
        assert!(trace.counter_value("linalg.spectral_norms_cached").unwrap() >= 10);
        // Tracing must not change the analysis itself.
        assert_eq!(report.metrics.len(), 7);
    }

    #[test]
    fn builder_shape_errors_are_recoverable() {
        let (names, runs) = synthetic_branch_runs();
        let b = branch_basis();
        let sigs = branch_signatures();

        let err = AnalysisRequest::new().events(&names).runs(&runs).run().unwrap_err();
        assert_eq!(err, AnalysisError::MissingBasis);

        let err = AnalysisRequest::new().events(&names).basis(&b).run().unwrap_err();
        assert_eq!(err, AnalysisError::EmptyRuns);

        let short = vec![names[0].clone()];
        let err = AnalysisRequest::new()
            .events(&short)
            .runs(&runs)
            .basis(&b)
            .signatures(&sigs)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, AnalysisError::Shape { context: "events per run", expected: 1, got: 7 }),
            "{err:?}"
        );

        let ragged = vec![vec![vec![1.0; 4]]];
        let one = vec!["X".to_string()];
        let err = AnalysisRequest::new().events(&one).runs(&ragged).basis(&b).run().unwrap_err();
        assert!(
            matches!(err, AnalysisError::Shape { expected: 11, got: 4, .. }),
            "points vs basis rows: {err:?}"
        );
    }

    #[test]
    fn config_presets() {
        assert_eq!(AnalysisConfig::cpu_flops().tau, 1e-10);
        assert_eq!(AnalysisConfig::dcache().tau, 1e-1);
        assert_eq!(AnalysisConfig::dcache().alpha, 5e-2);
        assert_eq!(AnalysisConfig::branch().alpha, 5e-4);
        assert_eq!(AnalysisConfig::gpu_flops().alpha, 5e-4);
        assert_eq!(AnalysisConfig::default(), AnalysisConfig::cpu_flops());
    }

    #[test]
    fn config_set_overrides() {
        let mut c = AnalysisConfig::branch();
        assert!(c.set("tau", 1e-3));
        assert!(c.set("alpha", 2e-2));
        assert!(c.set("representation_threshold", 0.5));
        assert!(c.set("rounding_tol", 0.1));
        assert!(c.set("composability_threshold", 1e-2));
        assert_eq!(c.tau, 1e-3);
        assert_eq!(c.alpha, 2e-2);
        assert_eq!(c.representation_threshold, 0.5);
        assert_eq!(c.rounding_tol, 0.1);
        assert_eq!(c.composability_threshold, 1e-2);
        assert!(!c.set("not_a_key", 1.0));
        assert_eq!(AnalysisConfig::keys().len(), 5);
    }
}
