//! The measurement runner: executes each CAT benchmark on the simulated
//! platform and reads every raw event, over several repetitions.
//!
//! Key behaviors mirroring the real toolkit:
//!
//! * every benchmark is run once per *counter group* (the PMU multiplexes),
//!   modeled by independent noise streams per group;
//! * workloads are warmed up before counters are armed (caches filled,
//!   predictors trained);
//! * the data-cache benchmark runs several threads on disjoint buffers and
//!   reports the per-thread **median**, the paper's noise-suppression
//!   device;
//! * measurements are normalized per loop iteration (CPU), per wavefront
//!   (GPU), or per access (cache), so they are directly comparable to the
//!   expectation bases.
//!
//! The entry points are [`crate::SimRequest`] and the `measure_*`
//! functions here, the per-domain runners it dispatches to.
//! Each CPU domain runs on one of two engines ([`SimEngine`]): the default
//! `Replay` engine runs every sweep point as one parallel task that builds
//! the point's program, records it once as a [`KernelTrace`] and replays
//! the trace (warmup and measurement phases alike), and it also
//! parallelizes the per-repetition counter reads; the `Direct` engine
//! executes every dynamic instruction sequentially and is kept as the
//! reference path for parity tests and the `BENCH_sim` speedup gate. Both
//! produce bit-identical [`MeasurementSet`]s — the noise streams are keyed
//! by `(event, repetition, point, group)`, never by wall-clock or thread
//! identity.

use crate::data::MeasurementSet;
use crate::request::SimEngine;
use crate::{branch, dcache, flops_cpu, flops_gpu};
use catalyze_events::EventId;
use catalyze_obs::{Observer, Span};
use catalyze_sim::{
    CoreConfig, Cpu, CpuEventSet, CpuPmu, ExecStats, GpuConfig, GpuDevice, GpuEventSet, GpuStats,
    KernelTrace, PmuConfig, Program, StreamStats,
};
use rayon::prelude::*;

/// Runner configuration.
///
/// Construct via [`RunnerConfig::default_sim`], [`RunnerConfig::fast_test`],
/// or the validating [`RunnerConfig::builder`].
#[derive(Debug, Clone, Copy)]
pub struct RunnerConfig {
    /// Simulated core configuration.
    pub core: CoreConfig,
    /// PMU configuration (counter count, noise seed).
    pub pmu: PmuConfig,
    /// Benchmark repetitions (the paper's multiple runs for RNMSE).
    pub repetitions: usize,
    /// Loop trip count for the CPU-FLOPs kernels.
    pub flops_trips: u64,
    /// Iterations for the branching kernels (must be even).
    pub branch_iterations: u64,
    /// GPU wavefronts per kernel launch.
    pub gpu_wavefronts: u64,
    /// GPU devices on the node.
    pub gpu_devices: u32,
    /// Threads for the data-cache benchmark.
    pub dcache_threads: usize,
}

impl RunnerConfig {
    /// Full-scale defaults (used by the reproduction harness).
    pub fn default_sim() -> Self {
        Self {
            core: CoreConfig::default_sim(),
            pmu: PmuConfig::default_sim(),
            repetitions: 5,
            flops_trips: flops_cpu::TRIPS,
            branch_iterations: branch::ITERATIONS,
            gpu_wavefronts: flops_gpu::WAVEFRONTS,
            gpu_devices: 8,
            dcache_threads: dcache::THREADS,
        }
    }

    /// Scaled-down configuration for fast tests.
    pub fn fast_test() -> Self {
        Self {
            repetitions: 3,
            flops_trips: 64,
            branch_iterations: 256,
            gpu_wavefronts: 16,
            gpu_devices: 2,
            dcache_threads: 2,
            ..Self::default_sim()
        }
    }
}

fn all_ids(n: usize) -> Vec<EventId> {
    (0..n).map(|i| EventId(i as u32)).collect()
}

/// Mixes repetition and point indices into one PMU run key, so every
/// (event, repetition, point, group) observation draws independent noise.
fn run_key(rep: usize, point: usize) -> usize {
    rep * 100_000 + point
}

/// Publishes the sweep shape of a finished benchmark run. Observer calls
/// stay on the calling thread, outside the rayon sections.
fn record_runner_counters(obs: &dyn Observer, points: usize, events: usize, repetitions: usize) {
    obs.counter("runner.points", points as u64);
    obs.counter("runner.events", events as u64);
    obs.counter("runner.repetitions", repetitions as u64);
}

/// Publishes which engine actually served a CPU runner, plus the stream
/// engine's memo counters summed over the sweep's cores.
///
/// Exactly one labelled counter is bumped by 1 per run, so summed traces
/// count runs per engine: `runner.engine.direct` for `Direct` reference
/// execution, `runner.engine.replay` for `Replay`.
fn record_engine_counters(obs: &dyn Observer, engine: SimEngine, stream: StreamStats) {
    let name = match engine {
        SimEngine::Direct => "runner.engine.direct",
        SimEngine::Replay => "runner.engine.replay",
    };
    obs.counter(name, 1);
    obs.counter("stream.memo_hits", stream.memo_hits);
    obs.counter("stream.memo_misses", stream.memo_misses);
    obs.counter("stream.passes_collapsed", stream.passes_collapsed);
}

/// Collects per-point stats and reads all events, normalized by `norm`.
///
/// The greedy counter scheduling is deterministic in `(set, events)`, so
/// it is computed once and the per-repetition reads — pure functions of
/// the run key — proceed in parallel. `key_offset` separates noise streams
/// that share a sweep (the per-thread cache chases).
fn read_all_cpu(
    set: &CpuEventSet,
    pmu: &CpuPmu,
    stats: &[ExecStats],
    norms: &[f64],
    repetitions: usize,
    key_offset: usize,
) -> Vec<Vec<Vec<f64>>> {
    let events = all_ids(set.len());
    let groups = pmu.schedule(set, &events);
    let reps: Vec<usize> = (0..repetitions).collect();
    reps.par_iter()
        .map(|&rep| {
            // counts[point][event] -> transpose into [event][point]
            let per_point: Vec<Vec<f64>> = stats
                .iter()
                .enumerate()
                .map(|(p, s)| {
                    pmu.read_cpu_scheduled(set, s, &events, &groups, run_key(rep, p) + key_offset)
                })
                .collect();
            (0..events.len())
                .map(|e| per_point.iter().zip(norms).map(|(counts, &n)| counts[e] / n).collect())
                .collect()
        })
        .collect()
}

/// Runs `simulate_point` for every point of a sweep on the selected engine,
/// returning per-point stats in point order and the stream counters summed
/// in point order.
///
/// `Replay` makes each point one task under a single `replay` span, handed
/// out dynamically across the worker pool: a task builds, records and
/// replays its point and drops the trace when it ends, so at most one
/// trace per worker is live. `Direct` executes every point sequentially
/// with no child spans.
fn simulate_points<F>(
    n_points: usize,
    obs: &dyn Observer,
    engine: SimEngine,
    simulate_point: F,
) -> (Vec<ExecStats>, StreamStats)
where
    F: Fn(usize) -> Cpu + Sync,
{
    let points: Vec<usize> = (0..n_points).collect();
    let run = |&p: &usize| {
        let cpu = simulate_point(p);
        (cpu.stats(), cpu.stream_stats())
    };
    let cpus: Vec<(ExecStats, StreamStats)> = match engine {
        SimEngine::Direct => points.iter().map(run).collect(),
        SimEngine::Replay => {
            let _s = Span::enter(obs, "replay");
            points.par_iter().map(run).collect()
        }
    };
    let mut stream = StreamStats::default();
    let stats = cpus
        .into_iter()
        .map(|(s, per_cpu)| {
            stream.merge(per_cpu);
            s
        })
        .collect();
    (stats, stream)
}

/// Simulates one program per sweep point on a fresh core: `Direct` runs
/// it, `Replay` records and replays it (see [`simulate_points`]).
fn simulate_sweep<F>(
    core: CoreConfig,
    n_points: usize,
    program_of: F,
    obs: &dyn Observer,
    engine: SimEngine,
) -> (Vec<ExecStats>, StreamStats)
where
    F: Fn(usize) -> Program + Sync,
{
    simulate_points(n_points, obs, engine, |p| {
        let mut cpu = Cpu::new(core);
        let program = program_of(p);
        match engine {
            SimEngine::Direct => cpu.run(&program),
            SimEngine::Replay => cpu.replay(&KernelTrace::record(&program)),
        }
        cpu
    })
}

/// Simulates a warmup-then-measure sweep (the memory-chase domains) on the
/// selected engine.
///
/// The warmup and measurement programs of a chase point differ only in the
/// top-level pass count, so `Replay` records the measurement program once
/// per point and drives both phases from the same trace via
/// `Cpu::replay_passes`, all inside the point's task.
fn simulate_chase_sweep<F>(
    core: CoreConfig,
    n_points: usize,
    program_of: F,
    warmup_passes: u64,
    measure_passes: u64,
    obs: &dyn Observer,
    engine: SimEngine,
) -> (Vec<ExecStats>, StreamStats)
where
    F: Fn(usize, u64) -> Program + Sync,
{
    simulate_points(n_points, obs, engine, |p| {
        let mut cpu = Cpu::new(core);
        match engine {
            SimEngine::Direct => {
                cpu.run(&program_of(p, warmup_passes));
                cpu.reset_stats();
                cpu.run(&program_of(p, measure_passes));
            }
            SimEngine::Replay => {
                let trace = KernelTrace::record(&program_of(p, measure_passes));
                cpu.replay_passes(&trace, warmup_passes);
                cpu.reset_stats();
                cpu.replay_passes(&trace, measure_passes);
            }
        }
        cpu
    })
}

/// Measures the CPU-FLOPs domain: spans around the simulation (with a
/// `replay` child on the default engine) and counter-read phases,
/// sweep-shape counters on `obs`.
// lint: contract(deterministic)
pub fn measure_cpu_flops(
    set: &CpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
) -> MeasurementSet {
    cpu_flops_with_engine(set, cfg, obs, SimEngine::default())
}

pub(crate) fn cpu_flops_with_engine(
    set: &CpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
    engine: SimEngine,
) -> MeasurementSet {
    let _root = Span::enter(obs, "run/cpu-flops");
    let kernels = flops_cpu::kernel_space();
    let points: Vec<(usize, usize)> =
        (0..kernels.len()).flat_map(|k| (0..3).map(move |l| (k, l))).collect();
    let (stats, stream) = {
        let _s = Span::enter(obs, "simulate");
        simulate_sweep(
            cfg.core,
            points.len(),
            |p| {
                let (k, l) = points[p];
                kernels[k].program(l, cfg.flops_trips)
            },
            obs,
            engine,
        )
    };
    let norms = vec![cfg.flops_trips as f64; points.len()];
    let pmu = CpuPmu::new(cfg.pmu);
    let runs = {
        let _s = Span::enter(obs, "read-counters");
        read_all_cpu(set, &pmu, &stats, &norms, cfg.repetitions, 0)
    };
    record_runner_counters(obs, points.len(), set.len(), cfg.repetitions);
    record_engine_counters(obs, engine, stream);
    MeasurementSet {
        domain: "cpu-flops".into(),
        point_labels: flops_cpu::point_labels(),
        events: set.iter().map(|(_, d)| d.info.name.to_string()).collect(),
        runs,
    }
}

/// Measures the branching domain.
// lint: contract(deterministic)
pub fn measure_branch(set: &CpuEventSet, cfg: &RunnerConfig, obs: &dyn Observer) -> MeasurementSet {
    branch_with_engine(set, cfg, obs, SimEngine::default())
}

pub(crate) fn branch_with_engine(
    set: &CpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
    engine: SimEngine,
) -> MeasurementSet {
    let _root = Span::enter(obs, "run/branch");
    let kernels = branch::kernel_space();
    let (stats, stream) = {
        let _s = Span::enter(obs, "simulate");
        simulate_sweep(
            cfg.core,
            kernels.len(),
            |p| kernels[p].program(cfg.branch_iterations),
            obs,
            engine,
        )
    };
    let norms = vec![cfg.branch_iterations as f64; kernels.len()];
    let pmu = CpuPmu::new(cfg.pmu);
    let runs = {
        let _s = Span::enter(obs, "read-counters");
        read_all_cpu(set, &pmu, &stats, &norms, cfg.repetitions, 0)
    };
    record_runner_counters(obs, kernels.len(), set.len(), cfg.repetitions);
    record_engine_counters(obs, engine, stream);
    MeasurementSet {
        domain: "branch".into(),
        point_labels: branch::point_labels(),
        events: set.iter().map(|(_, d)| d.info.name.to_string()).collect(),
        runs,
    }
}

/// Measures the data-cache domain with per-thread medians (the default).
///
/// Span tree: `run/dcache` → `simulate` (with one `replay` child on the
/// default engine, covering every thread's points), then `read-counters`
/// and `median`.
// lint: contract(deterministic)
pub fn measure_dcache(set: &CpuEventSet, cfg: &RunnerConfig, obs: &dyn Observer) -> MeasurementSet {
    dcache_with_engine(set, cfg, obs, SimEngine::default())
}

pub(crate) fn dcache_with_engine(
    set: &CpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
    engine: SimEngine,
) -> MeasurementSet {
    let _root = Span::enter(obs, "run/dcache");
    let per_thread = dcache_threads_with_engine(set, cfg, obs, engine);
    let median = {
        let _s = Span::enter(obs, "median");
        median_across_threads(&per_thread)
    };
    record_runner_counters(obs, median.num_points(), set.len(), cfg.repetitions);
    obs.counter("runner.dcache_threads", cfg.dcache_threads as u64);
    median
}

/// Measures the data-cache domain keeping every thread's measurements
/// (used by the median-suppression ablation). Result: one `MeasurementSet`
/// per thread.
// lint: contract(deterministic)
pub fn measure_dcache_threads(
    set: &CpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
) -> Vec<MeasurementSet> {
    dcache_threads_with_engine(set, cfg, obs, SimEngine::default())
}

pub(crate) fn dcache_threads_with_engine(
    set: &CpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
    engine: SimEngine,
) -> Vec<MeasurementSet> {
    let h = cfg.core.hierarchy;
    let configs = dcache::sweep(&h);
    let (all_stats, stream) = {
        let _s = Span::enter(obs, "simulate");
        dcache_sweep(cfg, &configs, obs, engine)
    };
    record_engine_counters(obs, engine, stream);
    let norms: Vec<f64> =
        configs.iter().map(|c| (c.pointers * dcache::MEASURE_PASSES) as f64).collect();
    let pmu = CpuPmu::new(cfg.pmu);
    let _s = Span::enter(obs, "read-counters");
    all_stats
        .iter()
        .enumerate()
        .map(|(thread, stats)| MeasurementSet {
            domain: format!("dcache/thread={thread}"),
            point_labels: dcache::point_labels(&h),
            events: set.iter().map(|(_, d)| d.info.name.to_string()).collect(),
            runs: read_all_cpu(set, &pmu, stats, &norms, cfg.repetitions, thread * 31_000_000),
        })
        .collect()
}

/// Simulates every chasing thread's sweep as one flattened sweep of
/// `threads × points` chase points (point `i` is thread `i / points`,
/// sweep point `i % points`), so the largest points of all threads share
/// one work queue. Each thread chases its own permutation over a disjoint
/// buffer. Returns the stats split back per thread.
fn dcache_sweep(
    cfg: &RunnerConfig,
    configs: &[dcache::ChaseConfig],
    obs: &dyn Observer,
    engine: SimEngine,
) -> (Vec<Vec<ExecStats>>, StreamStats) {
    let n = configs.len();
    let (stats, stream) = simulate_chase_sweep(
        cfg.core,
        cfg.dcache_threads * n,
        |i, passes| {
            let (thread, p) = (i / n, i % n);
            let base = (thread as u64 + 1) << 40;
            let seed = (thread as u64) * 7919 + p as u64;
            configs[p].program(base, seed, passes)
        },
        dcache::WARMUP_PASSES,
        dcache::MEASURE_PASSES,
        obs,
        engine,
    );
    let mut stats = stats.into_iter();
    ((0..cfg.dcache_threads).map(|_| stats.by_ref().take(n).collect()).collect(), stream)
}

/// Element-wise median across per-thread measurement sets.
pub fn median_across_threads(threads: &[MeasurementSet]) -> MeasurementSet {
    assert!(!threads.is_empty(), "median_across_threads: no threads");
    let first = &threads[0];
    let mut out = first.clone();
    out.domain = "dcache".into();
    for r in 0..first.num_runs() {
        for e in 0..first.num_events() {
            for p in 0..first.num_points() {
                let vals: Vec<f64> = threads.iter().map(|t| t.runs[r][e][p]).collect();
                out.runs[r][e][p] =
                    // lint: allow(panic, reachable_panic): per-thread runs always produce at least one sample
                    catalyze_linalg::vector::median(&vals).expect("non-empty thread set");
            }
        }
    }
    out
}

/// Measures the data-TLB domain (the extension domain).
// lint: contract(deterministic)
pub fn measure_dtlb(set: &CpuEventSet, cfg: &RunnerConfig, obs: &dyn Observer) -> MeasurementSet {
    dtlb_with_engine(set, cfg, obs, SimEngine::default())
}

pub(crate) fn dtlb_with_engine(
    set: &CpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
    engine: SimEngine,
) -> MeasurementSet {
    let _root = Span::enter(obs, "run/dtlb");
    let tlb = cfg.core.tlb;
    let configs = crate::dtlb::sweep(&tlb);
    let (stats, stream) = {
        let _s = Span::enter(obs, "simulate");
        simulate_chase_sweep(
            cfg.core,
            configs.len(),
            |p, passes| configs[p].program(0, 4242 + p as u64, passes),
            crate::dtlb::WARMUP_PASSES,
            crate::dtlb::MEASURE_PASSES,
            obs,
            engine,
        )
    };
    let norms: Vec<f64> =
        configs.iter().map(|c| (c.slots() * crate::dtlb::MEASURE_PASSES) as f64).collect();
    let pmu = CpuPmu::new(cfg.pmu);
    let runs = {
        let _s = Span::enter(obs, "read-counters");
        read_all_cpu(set, &pmu, &stats, &norms, cfg.repetitions, 0)
    };
    record_runner_counters(obs, configs.len(), set.len(), cfg.repetitions);
    record_engine_counters(obs, engine, stream);
    MeasurementSet {
        domain: "dtlb".into(),
        point_labels: crate::dtlb::point_labels(&tlb),
        events: set.iter().map(|(_, d)| d.info.name.to_string()).collect(),
        runs,
    }
}

/// Measures the store-path (write) cache domain (extension domain).
// lint: contract(deterministic)
pub fn measure_dstore(set: &CpuEventSet, cfg: &RunnerConfig, obs: &dyn Observer) -> MeasurementSet {
    dstore_with_engine(set, cfg, obs, SimEngine::default())
}

pub(crate) fn dstore_with_engine(
    set: &CpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
    engine: SimEngine,
) -> MeasurementSet {
    let _root = Span::enter(obs, "run/dstore");
    let h = cfg.core.hierarchy;
    let configs = crate::dstore::sweep(&h);
    let (stats, stream) = {
        let _s = Span::enter(obs, "simulate");
        simulate_chase_sweep(
            cfg.core,
            configs.len(),
            |p, passes| configs[p].program(0, 9000 + p as u64, passes),
            crate::dstore::WARMUP_PASSES,
            crate::dstore::MEASURE_PASSES,
            obs,
            engine,
        )
    };
    let norms: Vec<f64> =
        configs.iter().map(|c| (c.lines * crate::dstore::MEASURE_PASSES) as f64).collect();
    let pmu = CpuPmu::new(cfg.pmu);
    let runs = {
        let _s = Span::enter(obs, "read-counters");
        read_all_cpu(set, &pmu, &stats, &norms, cfg.repetitions, 0)
    };
    record_runner_counters(obs, configs.len(), set.len(), cfg.repetitions);
    record_engine_counters(obs, engine, stream);
    MeasurementSet {
        domain: "dstore".into(),
        point_labels: crate::dstore::point_labels(&h),
        events: set.iter().map(|(_, d)| d.info.name.to_string()).collect(),
        runs,
    }
}

/// Measures the GPU-FLOPs domain. Kernels execute on device 0 of
/// `cfg.gpu_devices`; events bound to other devices read their idle
/// telemetry. GPU launches are analytic, so there is no record/replay
/// split on this domain.
// lint: contract(deterministic)
pub fn measure_gpu_flops(
    set: &GpuEventSet,
    cfg: &RunnerConfig,
    obs: &dyn Observer,
) -> MeasurementSet {
    let _root = Span::enter(obs, "run/gpu-flops");
    let kernels = flops_gpu::kernel_space();
    let points: Vec<(usize, usize)> =
        (0..kernels.len()).flat_map(|k| (0..3).map(move |l| (k, l))).collect();
    let device_stats: Vec<Vec<GpuStats>> = {
        let _s = Span::enter(obs, "simulate");
        points
            .par_iter()
            .map(|&(k, l)| {
                let mut dev = GpuDevice::new(GpuConfig::default_sim());
                dev.launch(&kernels[k].kernel(l, cfg.gpu_wavefronts));
                let mut all = vec![GpuStats::default(); cfg.gpu_devices as usize];
                all[0] = dev.stats;
                all
            })
            .collect()
    };
    let events = all_ids(set.len());
    let pmu = CpuPmu::new(cfg.pmu);
    let norm = cfg.gpu_wavefronts as f64;
    let runs = {
        let _s = Span::enter(obs, "read-counters");
        let reps: Vec<usize> = (0..cfg.repetitions).collect();
        reps.par_iter()
            .map(|&rep| {
                let per_point: Vec<Vec<f64>> = device_stats
                    .iter()
                    .enumerate()
                    .map(|(p, devs)| pmu.read_gpu(set, devs, &events, run_key(rep, p)))
                    .collect();
                (0..events.len())
                    .map(|e| per_point.iter().map(|counts| counts[e] / norm).collect())
                    .collect()
            })
            .collect()
    };
    record_runner_counters(obs, points.len(), set.len(), cfg.repetitions);
    MeasurementSet {
        domain: "gpu-flops".into(),
        point_labels: flops_gpu::point_labels(),
        events: set.iter().map(|(_, d)| d.info.name.to_string()).collect(),
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_obs::NoopObserver;
    use catalyze_sim::{mi250x_like, sapphire_rapids_like};

    #[test]
    fn cpu_flops_measurements_are_exact_for_fp_events() {
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let ms = measure_cpu_flops(&set, &cfg, &NoopObserver);
        ms.validate().unwrap();
        assert_eq!(ms.num_points(), 48);
        assert_eq!(ms.num_runs(), 3);
        let e = ms.event_index("FP_ARITH_INST_RETIRED:SCALAR_DOUBLE").unwrap();
        let v = ms.mean_vector(e);
        // DSCAL kernel occupies points 12..15 (kernel index 4), values 24/48/96.
        assert_eq!(&v[12..15], &[24.0, 48.0, 96.0]);
        // DSCAL_FMA kernel (index 12): 12/24/48 FMA instructions counted twice.
        assert_eq!(&v[36..39], &[24.0, 48.0, 96.0]);
        // Identical across runs (architectural counter).
        let vecs = ms.vectors_for_event(e);
        assert_eq!(vecs[0], vecs[1]);
    }

    #[test]
    fn branch_measurements_match_expectation_rows() {
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let ms = measure_branch(&set, &cfg, &NoopObserver);
        ms.validate().unwrap();
        assert_eq!(ms.num_points(), 11);
        let cond = ms.event_index("BR_INST_RETIRED:COND").unwrap();
        let v = ms.mean_vector(cond);
        let expect: Vec<f64> = branch::kernel_space().iter().map(|k| k.expectation[1]).collect();
        assert_eq!(v, expect, "COND matches CR row exactly");
        let misp = ms.event_index("BR_MISP_RETIRED:ALL_BRANCHES").unwrap();
        let v = ms.mean_vector(misp);
        let expect: Vec<f64> = branch::kernel_space().iter().map(|k| k.expectation[4]).collect();
        assert_eq!(v, expect, "MISP matches M row exactly");
    }

    #[test]
    fn gpu_measurements_structure() {
        let set = mi250x_like(2);
        let cfg = RunnerConfig::fast_test();
        let ms = measure_gpu_flops(&set, &cfg, &NoopObserver);
        ms.validate().unwrap();
        assert_eq!(ms.num_points(), 45);
        let add = ms.event_index("rocm:::SQ_INSTS_VALU_ADD_F16:device=0").unwrap();
        let v = ms.mean_vector(add);
        // AH kernel: points 0..3 at 256/512/1024; SH kernel points 9..12.
        assert_eq!(&v[0..3], &[256.0, 512.0, 1024.0]);
        assert_eq!(&v[9..12], &[256.0, 512.0, 1024.0], "SUB feeds the ADD counter");
        assert_eq!(v[3], 0.0, "AS kernel does not touch F16 counter");
        // Idle device's counter reads zero everywhere.
        let add1 = ms.event_index("rocm:::SQ_INSTS_VALU_ADD_F16:device=1").unwrap();
        assert!(ms.mean_vector(add1).iter().all(|&x| x == 0.0));
    }

    #[test]
    fn dcache_median_suppresses_outliers() {
        let set = sapphire_rapids_like();
        let mut cfg = RunnerConfig::fast_test();
        cfg.dcache_threads = 3;
        let per_thread = measure_dcache_threads(&set, &cfg, &NoopObserver);
        assert_eq!(per_thread.len(), 3);
        for t in &per_thread {
            t.validate().unwrap();
        }
        let median = median_across_threads(&per_thread);
        median.validate().unwrap();
        assert_eq!(median.domain, "dcache");
        // The median at every cell lies between the per-thread min and max.
        for e in 0..median.num_events().min(20) {
            for p in 0..median.num_points() {
                let vals: Vec<f64> = per_thread.iter().map(|t| t.runs[0][e][p]).collect();
                let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let m = median.runs[0][e][p];
                assert!(m >= lo && m <= hi);
            }
        }
    }

    #[test]
    fn traced_runner_records_spans_and_counters() {
        use catalyze_obs::TraceCollector;
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let trace = TraceCollector::new();
        let ms = measure_branch(&set, &cfg, &trace);
        ms.validate().unwrap();
        // Root + simulate (+ one replay child) + read-counters spans.
        assert_eq!(trace.span_count(), 4);
        assert_eq!(trace.counter_value("runner.points"), Some(11));
        assert_eq!(trace.counter_value("runner.repetitions"), Some(3));
        assert!(trace.counter_value("runner.events").unwrap() > 0);
        // Default engine is Replay: one run.
        assert_eq!(trace.counter_value("runner.engine.replay"), Some(1));
        assert_eq!(trace.counter_value("runner.engine.direct"), None);
        assert!(trace.counter_value("stream.memo_hits").is_some());
        assert!(trace.counter_value("stream.memo_misses").is_some());
        assert!(trace.counter_value("stream.passes_collapsed").is_some());
        // The noop-observer path produces the same measurements.
        let plain = measure_branch(&set, &cfg, &NoopObserver);
        assert_eq!(plain.runs, ms.runs);
    }

    #[test]
    fn traced_dcache_has_one_flattened_replay_span() {
        use catalyze_obs::TraceCollector;
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let trace = TraceCollector::new();
        let ms = measure_dcache(&set, &cfg, &trace);
        ms.validate().unwrap();
        // run/dcache + simulate + replay (both threads' points in one
        // sweep) + read-counters + median.
        assert_eq!(trace.span_count(), 5);
        assert_eq!(trace.counter_value("runner.dcache_threads"), Some(2));
        // The chase sweeps are long enough to exercise collapse and the
        // cross-call memo: every point's measure phase hits the fixed
        // point its warmup phase memoized.
        assert_eq!(trace.counter_value("runner.engine.replay"), Some(1));
        assert!(trace.counter_value("stream.passes_collapsed").unwrap() > 0);
        assert!(trace.counter_value("stream.memo_hits").unwrap() > 0);
    }

    #[test]
    fn dcache_l1_region_hit_rate() {
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let ms = measure_dcache(&set, &cfg, &NoopObserver);
        let l1hit = ms.event_index("MEM_LOAD_RETIRED:L1_HIT").unwrap();
        let v = ms.mean_vector(l1hit);
        // First two points are L1-resident: ~1 hit per access.
        assert!(v[0] > 0.97, "L1-resident hit rate {}", v[0]);
        assert!(v[1] > 0.97);
        // Memory-sized points: near zero.
        assert!(v[7] < 0.05, "memory-resident L1 hit rate {}", v[7]);
    }

    #[test]
    fn flattened_dcache_sweep_matches_nested_per_thread_runs() {
        let mut cfg = RunnerConfig::fast_test();
        cfg.dcache_threads = 3;
        let configs = dcache::sweep(&cfg.core.hierarchy);
        // The reference: one sweep per thread, nested, on the direct engine.
        let nested: Vec<Vec<ExecStats>> = (0..cfg.dcache_threads)
            .map(|t| {
                let base = (t as u64 + 1) << 40;
                configs
                    .iter()
                    .enumerate()
                    .map(|(p, c)| {
                        let seed = t as u64 * 7919 + p as u64;
                        let mut cpu = Cpu::new(cfg.core);
                        cpu.run(&c.program(base, seed, dcache::WARMUP_PASSES));
                        cpu.reset_stats();
                        cpu.run(&c.program(base, seed, dcache::MEASURE_PASSES));
                        cpu.stats()
                    })
                    .collect()
            })
            .collect();
        for engine in [SimEngine::Direct, SimEngine::Replay] {
            let (flat, _) = dcache_sweep(&cfg, &configs, &NoopObserver, engine);
            assert_eq!(flat, nested, "{engine:?} flattened indexing drifted");
        }
    }

    #[test]
    fn engines_agree_on_every_cpu_domain() {
        use crate::request::SimEngine;
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let obs = &NoopObserver;
        let pairs = [
            (
                cpu_flops_with_engine(&set, &cfg, obs, SimEngine::Direct),
                cpu_flops_with_engine(&set, &cfg, obs, SimEngine::Replay),
            ),
            (
                branch_with_engine(&set, &cfg, obs, SimEngine::Direct),
                branch_with_engine(&set, &cfg, obs, SimEngine::Replay),
            ),
            (
                dcache_with_engine(&set, &cfg, obs, SimEngine::Direct),
                dcache_with_engine(&set, &cfg, obs, SimEngine::Replay),
            ),
            (
                dtlb_with_engine(&set, &cfg, obs, SimEngine::Direct),
                dtlb_with_engine(&set, &cfg, obs, SimEngine::Replay),
            ),
            (
                dstore_with_engine(&set, &cfg, obs, SimEngine::Direct),
                dstore_with_engine(&set, &cfg, obs, SimEngine::Replay),
            ),
        ];
        for (direct, replay) in &pairs {
            assert_eq!(direct.domain, replay.domain);
            assert_eq!(direct.runs, replay.runs, "{} engines disagree", direct.domain);
        }
    }
}
