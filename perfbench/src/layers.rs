//! The traced pass: per-layer times and exact counts.
//!
//! A traced pass runs every request of a workload once with a
//! `TraceCollector` attached and reads the spans, counters and funnel
//! records the program already emits. It adds the bench's own timers around
//! the two public entry points and the process-wide linalg counters. A
//! separate bench-side replay of every sweep point's public program gives
//! the simulator's instruction throughput.

use crate::workload::{Reference, Setup};
use catalyze_cat::{branch, dcache, dstore, dtlb, flops_cpu, Domain, RunnerConfig};
use catalyze_linalg::stats;
use catalyze_obs::TraceCollector;
use catalyze_sim::{Cpu, KernelTrace, StreamStats};
use std::collections::BTreeMap;
use std::time::Instant;

/// Span names that are one layer's work, and the per-layer metric each
/// feeds.
pub const LAYER_SPANS: [(&str, &str); 8] = [
    ("record", "simarch.record_ms"),
    ("replay", "simarch.replay_ms"),
    ("read-counters", "pmu.read_ms"),
    ("median", "cat.median_ms"),
    ("noise", "core.noise_ms"),
    ("represent", "core.represent_ms"),
    ("select", "core.select_ms"),
    ("define", "core.define_ms"),
];

/// One traced pass over a workload.
#[derive(Debug, Default)]
pub struct TracedPass {
    /// Σ request wall time (bench timers), ns.
    pub pass_ns: u64,
    pub sim_ns: u64,
    pub analysis_ns: u64,
    /// Σ span duration by span name, ns.
    pub span_ns: BTreeMap<String, u64>,
    /// Σ duration of spans that have no child span, ns.
    pub leaf_ns: u64,
    /// Counter values read by `read-counters`: events × points ×
    /// repetitions (× threads on dcache), summed over requests.
    pub values_read: u64,
    pub lstsq_ns: u64,
    pub spqrcp_ns: u64,
    /// Every count the pass reports; these must repeat exactly.
    pub counts: BTreeMap<String, u64>,
    pub attempted: usize,
    pub failed: usize,
}

/// Σ duration of the spans with no child. Spans come in start order, so a
/// span has a child exactly when the next span sits one level deeper.
fn leaf_ns(spans: &[catalyze_obs::SpanRecord]) -> u64 {
    spans
        .iter()
        .enumerate()
        .filter(|(i, s)| spans.get(i + 1).is_none_or(|next| next.depth <= s.depth))
        .map(|(_, s)| s.duration_ns.unwrap_or(0))
        .sum()
}

/// Warmup plus measurement passes a chase domain replays per point.
fn chase_passes(domain: Domain) -> u64 {
    match domain {
        Domain::Dcache => dcache::WARMUP_PASSES + dcache::MEASURE_PASSES,
        Domain::Dstore => dstore::WARMUP_PASSES + dstore::MEASURE_PASSES,
        Domain::Dtlb => dtlb::WARMUP_PASSES + dtlb::MEASURE_PASSES,
        Domain::CpuFlops | Domain::Branch | Domain::GpuFlops => 0,
    }
}

/// Runs one traced pass, checking every output against `reference`.
pub fn traced_pass(setup: &Setup, reference: &Reference) -> TracedPass {
    let mut pass = TracedPass::default();
    let before = stats::snapshot();
    for i in 0..setup.requests.len() {
        let trace = TraceCollector::new();
        pass.attempted += 1;
        let out = match setup.run(i, &trace) {
            Ok(out) => out,
            Err(e) => {
                eprintln!("traced request failed: {e}");
                pass.failed += 1;
                continue;
            }
        };
        if !reference.matches(i, &out) {
            eprintln!("traced request {} differs from the reference", setup.requests[i].label);
            pass.failed += 1;
        }
        pass.pass_ns += out.total_ns();
        pass.sim_ns += out.sim_ns;
        pass.analysis_ns += out.analysis_ns;
        let spans = trace.span_records();
        pass.leaf_ns += leaf_ns(&spans);
        for s in &spans {
            *pass.span_ns.entry(s.name.clone()).or_default() += s.duration_ns.unwrap_or(0);
        }
        let counter = |name: &str| trace.counter_value(name).unwrap_or(0);
        let points =
            counter("runner.points") * trace.counter_value("runner.dcache_threads").unwrap_or(1);
        pass.values_read += points * counter("runner.events") * counter("runner.repetitions");
        let domain = setup.requests[i].domain;
        if !domain.is_gpu() {
            *pass.counts.entry("runner.replay_points".into()).or_default() += points;
        }
        *pass.counts.entry("stream.passes_replayed".into()).or_default() +=
            points * chase_passes(domain);
        for (name, value) in trace.counters() {
            if !name.ends_with("_nanos") {
                *pass.counts.entry(name).or_default() += value;
            }
        }
        for f in trace.funnel_records() {
            *pass.counts.entry(format!("core.{}_in", f.stage)).or_default() += f.events_in as u64;
            *pass.counts.entry(format!("core.{}_kept", f.stage)).or_default() += f.kept as u64;
            for (reason, n) in &f.dropped {
                *pass.counts.entry(format!("core.{}_dropped.{reason}", f.stage)).or_default() +=
                    *n as u64;
            }
        }
    }
    let delta = stats::snapshot().delta_since(&before);
    pass.lstsq_ns = delta.lstsq_nanos;
    pass.spqrcp_ns = delta.spqrcp_nanos;
    for (name, value) in [
        ("linalg.delta.qr_factorizations", delta.qr_factorizations),
        ("linalg.delta.qrcp_runs", delta.qrcp_runs),
        ("linalg.delta.spqrcp_runs", delta.spqrcp_runs),
        ("linalg.delta.lstsq_solves", delta.lstsq_solves),
        ("linalg.delta.spectral_norms", delta.spectral_norms),
        ("linalg.delta.qr_factorizations_avoided", delta.qr_factorizations_avoided),
        ("linalg.delta.spectral_norms_cached", delta.spectral_norms_cached),
    ] {
        pass.counts.insert(name.to_string(), value);
    }
    pass.counts.insert("runner.values_read".to_string(), pass.values_read);
    pass
}

/// The bench's own replay of every sweep point's public program.
#[derive(Debug, Default, Clone, Copy)]
pub struct BenchReplay {
    /// Σ `ExecStats::instructions` over warmup and measurement phases.
    pub instructions: u64,
    /// Time spent in `Cpu::replay`/`Cpu::replay_passes`, ns.
    pub replay_ns: u64,
    /// Sweep points replayed.
    pub points: u64,
    /// The stream engine's memo and collapse counts.
    pub stream: StreamStats,
}

impl BenchReplay {
    fn replay(&mut self, cfg: &RunnerConfig, trace: &KernelTrace) {
        let mut cpu = Cpu::new(cfg.core);
        let start = Instant::now();
        cpu.replay(trace);
        self.replay_ns += elapsed_ns(start);
        self.instructions += cpu.stats().instructions;
        self.points += 1;
        self.stream.merge(cpu.stream_stats());
    }

    /// Warmup then measurement, as the chase runners drive one recording.
    fn chase(&mut self, cfg: &RunnerConfig, trace: &KernelTrace, warmup: u64, measure: u64) {
        let mut cpu = Cpu::new(cfg.core);
        let start = Instant::now();
        cpu.replay_passes(trace, warmup);
        let warm = cpu.stats().instructions;
        cpu.reset_stats();
        cpu.replay_passes(trace, measure);
        self.replay_ns += elapsed_ns(start);
        self.instructions += warm + cpu.stats().instructions;
        self.points += 1;
        self.stream.merge(cpu.stream_stats());
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Records and replays, one point at a time on this thread, the programs
/// the runners simulate for every request of the workload, for the
/// simulator's instruction throughput. The programs, seeds and pass counts
/// mirror `catalyze_cat::runner`; `main` checks the mirror against the
/// traced program's replayed points and stream counts, so a drift in the
/// sweeps, programs or pass counts fails the run.
pub fn bench_replay(setup: &Setup) -> BenchReplay {
    let mut r = BenchReplay::default();
    for req in &setup.requests {
        let cfg = &req.config;
        match req.domain {
            Domain::CpuFlops => {
                for k in flops_cpu::kernel_space() {
                    for l in 0..3 {
                        r.replay(cfg, &KernelTrace::record(&k.program(l, cfg.flops_trips)));
                    }
                }
            }
            Domain::Branch => {
                for k in branch::kernel_space() {
                    r.replay(cfg, &KernelTrace::record(&k.program(cfg.branch_iterations)));
                }
            }
            Domain::Dcache => {
                let configs = dcache::sweep(&cfg.core.hierarchy);
                for thread in 0..cfg.dcache_threads {
                    let base = (thread as u64 + 1) << 40;
                    for (p, c) in configs.iter().enumerate() {
                        let seed = thread as u64 * 7919 + p as u64;
                        let program = c.program(base, seed, dcache::MEASURE_PASSES);
                        let trace = KernelTrace::record(&program);
                        r.chase(cfg, &trace, dcache::WARMUP_PASSES, dcache::MEASURE_PASSES);
                    }
                }
            }
            Domain::Dstore => {
                for (p, c) in dstore::sweep(&cfg.core.hierarchy).iter().enumerate() {
                    let program = c.program(0, 9000 + p as u64, dstore::MEASURE_PASSES);
                    let trace = KernelTrace::record(&program);
                    r.chase(cfg, &trace, dstore::WARMUP_PASSES, dstore::MEASURE_PASSES);
                }
            }
            Domain::Dtlb => {
                for (p, c) in dtlb::sweep(&cfg.core.tlb).iter().enumerate() {
                    let program = c.program(0, 4242 + p as u64, dtlb::MEASURE_PASSES);
                    let trace = KernelTrace::record(&program);
                    r.chase(cfg, &trace, dtlb::WARMUP_PASSES, dtlb::MEASURE_PASSES);
                }
            }
            // GPU launches are analytic: no trace to replay.
            Domain::GpuFlops => {}
        }
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_obs::SpanRecord;

    fn span(name: &str, depth: usize, ns: u64) -> SpanRecord {
        SpanRecord { name: name.into(), depth, start_ns: 0, duration_ns: Some(ns) }
    }

    #[test]
    fn leaves_are_spans_without_a_deeper_successor() {
        let spans = [
            span("run/dcache", 0, 100),
            span("simulate", 1, 80),
            span("record", 2, 30),
            span("replay", 2, 45),
            span("read-counters", 1, 15),
            span("analyze/dcache", 0, 10),
            span("noise", 1, 6),
        ];
        assert_eq!(leaf_ns(&spans), 30 + 45 + 15 + 6);
    }
}
