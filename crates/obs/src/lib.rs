//! # catalyze-obs
//!
//! Structured observability for the CATalyze analysis pipeline. The paper's
//! pipeline is a funnel — hundreds of raw events in, a handful of defined
//! metrics out — and a performance study is only trustworthy when the
//! measurement harness instruments *itself*: how long each stage took, how
//! many events each stage dropped and why, and how many linear-algebra
//! solves ran underneath.
//!
//! The crate is dependency-free and exposes three pieces:
//!
//! * [`Observer`] — the instrumentation trait: nested spans (monotonic-clock
//!   timed), named counters, and per-stage [`FunnelRecord`]s
//!   (events in / kept / dropped-with-reason);
//! * [`NoopObserver`] — the zero-cost default; every method is an empty
//!   body, so uninstrumented runs pay nothing and produce byte-identical
//!   results;
//! * [`TraceCollector`] — records everything and renders both a human
//!   summary tree and a schema-stable JSON trace (see
//!   [`TraceCollector::render_json`] for the schema).
//!
//! ```
//! use catalyze_obs::{FunnelRecord, Observer, Span, TraceCollector};
//!
//! let trace = TraceCollector::new();
//! {
//!     let obs: &dyn Observer = &trace;
//!     let _root = Span::enter(obs, "analyze/demo");
//!     {
//!         let _stage = Span::enter(obs, "noise");
//!         obs.counter("events.scanned", 7);
//!     }
//!     obs.funnel(FunnelRecord::new("noise", 7, 5).dropped("noisy", 1).dropped("zero", 1));
//! }
//! let json = trace.render_json();
//! assert!(json.contains("\"analyze/demo\""));
//! assert!(trace.funnel_records().iter().all(|f| f.reconciles()));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod collector;
mod diff;
mod expo;
mod histogram;
mod json;
mod registry;

pub use collector::{SpanRecord, TraceCollector};
pub use diff::{diff, DiffConfig, DiffReport, Snapshot};
pub use expo::{render_exposition, render_metrics_json};
pub use histogram::{Histogram, NUM_BUCKETS};
pub use registry::{FunnelAggregate, MetricsRegistry};

/// Opaque handle to a started span, returned by [`Observer::span_start`]
/// and consumed by [`Observer::span_end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(pub u64);

/// How many measurements entered a pipeline stage, how many survived, and
/// where the rest went. A well-formed record *reconciles*:
/// `kept + Σ dropped == events_in`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunnelRecord {
    /// Stage label (e.g. `"noise"`, `"represent"`).
    pub stage: String,
    /// Measurements entering the stage.
    pub events_in: usize,
    /// Measurements surviving the stage.
    pub kept: usize,
    /// `(reason, count)` pairs for everything the stage discarded, in the
    /// order the reasons were attached.
    pub dropped: Vec<(String, usize)>,
}

impl FunnelRecord {
    /// A record with no drop reasons attached yet.
    pub fn new(stage: &str, events_in: usize, kept: usize) -> Self {
        Self { stage: stage.to_string(), events_in, kept, dropped: Vec::new() }
    }

    /// Attaches a drop reason (builder style). Zero-count reasons are kept:
    /// a stage that *could* drop for a reason but didn't is still
    /// information.
    pub fn dropped(mut self, reason: &str, count: usize) -> Self {
        self.dropped.push((reason.to_string(), count));
        self
    }

    /// Total measurements dropped across all reasons (saturating, so a
    /// corrupt record cannot panic the accounting).
    pub fn total_dropped(&self) -> usize {
        self.dropped.iter().fold(0usize, |acc, (_, n)| acc.saturating_add(*n))
    }

    /// True when `kept + dropped == events_in` — every input is accounted
    /// for. Well-defined on the edges: a zero-event stage
    /// (`in == kept == 0`, any number of zero-count reasons) reconciles,
    /// and an over-reporting record (`kept + dropped > events_in`, even at
    /// the brink of `usize` overflow) is `false` rather than a panic.
    pub fn reconciles(&self) -> bool {
        self.kept.checked_add(self.total_dropped()) == Some(self.events_in)
    }

    /// True when the record claims more outcomes than inputs
    /// (`kept + dropped > events_in`) — the specific way a stage's
    /// bookkeeping goes wrong that [`FunnelRecord::reconciles`] cannot
    /// distinguish from under-reporting.
    pub fn over_reported(&self) -> bool {
        match self.kept.checked_add(self.total_dropped()) {
            Some(total) => total > self.events_in,
            None => true,
        }
    }

    /// Fraction of inputs the stage discarded, in `0.0..=1.0`. A
    /// zero-event stage has a drop rate of `0.0` (nothing entered, so
    /// nothing was lost); the rate is capped at `1.0` for over-reporting
    /// records.
    pub fn drop_rate(&self) -> f64 {
        if self.events_in == 0 {
            return 0.0;
        }
        (self.total_dropped() as f64 / self.events_in as f64).min(1.0)
    }
}

/// The instrumentation sink threaded through the pipeline.
///
/// Implementations use interior mutability (`&self` everywhere) so a single
/// observer can be shared by reference across the stages of one analysis.
/// All methods must be cheap; the pipeline calls them on its hot path.
pub trait Observer {
    /// Opens a span. Nesting is by call order: a span started while another
    /// is open becomes its child.
    fn span_start(&self, name: &str) -> SpanId;

    /// Closes the span `id`. Out-of-order closes are tolerated (the
    /// collector unwinds to the matching span).
    fn span_end(&self, id: SpanId);

    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);

    /// Records a per-stage funnel observation.
    fn funnel(&self, record: FunnelRecord);
}

/// RAII guard for a span: [`Span::enter`] opens it, dropping the guard
/// closes it, so early returns and `?` propagation cannot leak an open
/// span.
pub struct Span<'a> {
    obs: &'a dyn Observer,
    id: SpanId,
}

impl<'a> Span<'a> {
    /// Opens a span on `obs` and returns the guard that closes it.
    pub fn enter(obs: &'a dyn Observer, name: &str) -> Self {
        Self { obs, id: obs.span_start(name) }
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        self.obs.span_end(self.id);
    }
}

/// The zero-cost default observer: every method is an empty body the
/// optimizer erases, so `NoopObserver` runs are byte-identical to — and no
/// slower than — uninstrumented ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopObserver;

impl Observer for NoopObserver {
    fn span_start(&self, _name: &str) -> SpanId {
        SpanId(0)
    }

    fn span_end(&self, _id: SpanId) {}

    fn counter(&self, _name: &str, _delta: u64) {}

    fn funnel(&self, _record: FunnelRecord) {}
}

/// A shared `&'static` noop observer, convenient as a default for builder
/// APIs that hold `&dyn Observer`.
pub static NOOP: NoopObserver = NoopObserver;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn funnel_reconciliation() {
        let ok = FunnelRecord::new("noise", 7, 5).dropped("noisy", 1).dropped("zero", 1);
        assert!(ok.reconciles());
        assert_eq!(ok.total_dropped(), 2);
        let bad = FunnelRecord::new("noise", 7, 5).dropped("noisy", 1);
        assert!(!bad.reconciles());
        let exact = FunnelRecord::new("select", 5, 5).dropped("dependent", 0);
        assert!(exact.reconciles());
    }

    #[test]
    fn zero_event_stages_are_well_defined() {
        let empty = FunnelRecord::new("gpu", 0, 0);
        assert!(empty.reconciles());
        assert!(!empty.over_reported());
        assert_eq!(empty.drop_rate(), 0.0);
        let with_reasons = FunnelRecord::new("gpu", 0, 0).dropped("nan", 0).dropped("zero", 0);
        assert!(with_reasons.reconciles());
        assert_eq!(with_reasons.drop_rate(), 0.0);
        // Outcomes claimed out of thin air: not reconciled, over-reported.
        let phantom = FunnelRecord::new("gpu", 0, 1);
        assert!(!phantom.reconciles());
        assert!(phantom.over_reported());
    }

    #[test]
    fn over_reporting_is_detected_without_overflow() {
        let over = FunnelRecord::new("noise", 5, 4).dropped("noisy", 3);
        assert!(!over.reconciles());
        assert!(over.over_reported());
        assert_eq!(over.drop_rate(), 0.6);
        // kept + dropped overflows usize: still false/true, never a panic.
        let huge = FunnelRecord::new("noise", 10, usize::MAX).dropped("noisy", usize::MAX);
        assert!(!huge.reconciles());
        assert!(huge.over_reported());
        assert_eq!(huge.drop_rate(), 1.0, "capped");
        // Under-reporting is not over-reporting.
        let under = FunnelRecord::new("noise", 7, 5).dropped("noisy", 1);
        assert!(!under.reconciles());
        assert!(!under.over_reported());
    }

    #[test]
    fn noop_observer_is_inert() {
        let obs: &dyn Observer = &NOOP;
        let _span = Span::enter(obs, "anything");
        obs.counter("x", 3);
        obs.funnel(FunnelRecord::new("s", 1, 1));
        assert_eq!(obs.span_start("y"), SpanId(0));
    }
}
