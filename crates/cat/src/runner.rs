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
//! Every domain runs through one path, [`measure`], the body of
//! [`crate::SimRequest::run`]. A domain is one sweep descriptor
//! ([`Sweep`]): its labels, per-point normalizers, thread fan-out and how
//! each point is simulated. The [`Platform`] it runs on, the CPU [`Core`]
//! or the GPU [`Node`], simulates the points and reads every event back
//! through the PMU.
//!
//! CPU points run on one of two engines ([`SimEngine`]): the default
//! `Replay` engine runs every sweep point as one parallel task that builds
//! the point's [`KernelTrace`] once (recorded from its program, or for the
//! memory chases built straight from the chase addresses) and replays the
//! trace (warmup and measurement phases alike), and it also
//! parallelizes the per-repetition counter reads; the `Direct` engine
//! executes every dynamic instruction sequentially and is kept as the
//! reference path for parity tests and the `repro perf` engine rows. Both
//! produce bit-identical [`MeasurementSet`]s — the noise streams are keyed
//! by `(event, repetition, point, group)`, never by wall-clock or thread
//! identity.

use crate::data::MeasurementSet;
use crate::request::{Domain, SimEngine, SimRequest};
use crate::{branch, dcache, dstore, dtlb, flops_cpu, flops_gpu};
use catalyze_events::EventId;
use catalyze_linalg::vector::median_in_place;
use catalyze_obs::{Observer, Span};
use catalyze_sim::gpu::GpuEventDef;
use catalyze_sim::{
    CoreConfig, CountedStats, Cpu, CpuEventDef, CpuEventSet, CpuPmu, ExecStats, GpuConfig,
    GpuDevice, GpuEventSet, GpuStats, KernelTrace, PmuConfig, Program, Reading, StreamStats,
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

/// One read of a sweep, `runs[repetition][event][point]`.
type Runs = Vec<Vec<Vec<f64>>>;

/// Run-key stride between repetitions (see [`run_key`]).
const REPETITION_KEY_STRIDE: usize = 100_000;

/// Run-key offset between data-cache threads: thread `t` reads under
/// `run_key(rep, point) + t * THREAD_KEY_STRIDE`.
const THREAD_KEY_STRIDE: usize = 31_000_000;

/// The most repetitions whose run keys stay below the next thread's
/// offset; past it, thread `t + 1`'s first repetition reuses a key of
/// thread `t`'s (see [`ConfigError::ThreadNoiseKeysAlias`]).
///
/// [`ConfigError::ThreadNoiseKeysAlias`]: crate::ConfigError::ThreadNoiseKeysAlias
pub(crate) const MAX_THREADED_REPETITIONS: usize = THREAD_KEY_STRIDE / REPETITION_KEY_STRIDE;

/// Mixes repetition and point indices into one PMU run key, so every
/// (event, repetition, point, group) observation draws independent noise.
fn run_key(rep: usize, point: usize) -> usize {
    rep * REPETITION_KEY_STRIDE + point
}

/// Publishes the sweep shape of a finished benchmark run. Observer calls
/// stay on the calling thread, outside the rayon sections.
fn record_runner_counters(obs: &dyn Observer, points: usize, events: usize, repetitions: usize) {
    obs.counter("runner.points", points as u64);
    obs.counter("runner.events", events as u64);
    obs.counter("runner.repetitions", repetitions as u64);
}

/// The stream engine's counters, summed over a sweep's cores.
#[derive(Debug, Default, Clone, Copy)]
struct EngineCounts {
    /// Memo and collapse counters (`Cpu::stream_stats`).
    stream: StreamStats,
    /// Counted-pass counters (`Cpu::counted_stats`).
    counted: CountedStats,
}

impl EngineCounts {
    fn of(cpu: &Cpu) -> Self {
        Self { stream: cpu.stream_stats(), counted: cpu.counted_stats() }
    }

    fn merge(&mut self, other: Self) {
        self.stream.merge(other.stream);
        self.counted.merge(other.counted);
    }
}

/// Publishes which engine actually served a CPU runner, plus the stream
/// engine's counters summed over the sweep's cores.
///
/// Exactly one labelled counter is bumped by 1 per run, so summed traces
/// count runs per engine: `runner.engine.direct` for `Direct` reference
/// execution, `runner.engine.replay` for `Replay`. `stream.rows_kept`
/// sums the kept levels, L1 included.
fn record_engine_counters(obs: &dyn Observer, engine: SimEngine, counts: EngineCounts) {
    let name = match engine {
        SimEngine::Direct => "runner.engine.direct",
        SimEngine::Replay => "runner.engine.replay",
    };
    obs.counter(name, 1);
    obs.counter("stream.memo_hits", counts.stream.memo_hits);
    obs.counter("stream.memo_misses", counts.stream.memo_misses);
    obs.counter("stream.passes_collapsed", counts.stream.passes_collapsed);
    obs.counter("stream.passes_counted", counts.counted.passes);
    obs.counter("stream.tlb_passes_settled", counts.counted.tlb_passes_settled);
    obs.counter("stream.passes_thrashed", counts.counted.passes_thrashed);
    obs.counter("stream.rows_kept", counts.counted.rows_kept.iter().sum());
}

/// Reads every event at every point of a sweep, for each repetition,
/// straight into the `[rep][event][point]` layout, normalized by
/// `norms[point]`. Also returns how many reads ran the full noise
/// transform.
///
/// `truths[e][p]` is event `e`'s true count at point `p`, evaluated once
/// for all repetitions; `reader(e)` is the PMU's read-back of event `e`,
/// built once per (repetition, event) cell: `read(truth, run)` under run
/// key `run`. Reads are pure functions of the run key, so the cells
/// proceed in parallel; each counts its own full draws, summed after the
/// cells join. `key_offset` separates noise streams that share a sweep
/// (the per-thread cache chases).
fn read_runs<R, O>(
    truths: &[Vec<f64>],
    norms: &[f64],
    repetitions: usize,
    key_offset: usize,
    reader: R,
) -> (Runs, u64)
where
    R: Fn(usize) -> O + Sync,
    O: Fn(f64, usize) -> Reading,
{
    let cells: Vec<(usize, usize)> =
        (0..repetitions).flat_map(|rep| (0..truths.len()).map(move |e| (rep, e))).collect();
    let rows: Vec<(Vec<f64>, u64)> = cells
        .par_iter()
        .map(|&(rep, e)| {
            let (read, mut draws) = (reader(e), 0);
            let counts = truths[e].iter().zip(norms).enumerate();
            let row = counts
                .map(|(p, (&truth, &n))| {
                    let reading = read(truth, run_key(rep, p) + key_offset);
                    draws += u64::from(reading.full_draw);
                    reading.value / n
                })
                .collect();
            (row, draws)
        })
        .collect();
    let draws = rows.iter().map(|&(_, d)| d).sum();
    let mut rows = rows.into_iter().map(|(row, _)| row);
    let runs = (0..repetitions).map(|_| rows.by_ref().take(truths.len()).collect()).collect();
    (runs, draws)
}

/// One domain's sweep descriptor: what [`measure`] simulates at each
/// point, and how the readings are labelled and normalized.
///
/// Each domain's descriptor function builds `simulate` in its own body
/// and `measure` calls that function directly: the `xtask` call graph
/// follows only calls written out in a function body, and this is how
/// its reachable-panic and determinism rules reach the kernel and chase
/// builders from `SimRequest::run`.
struct Sweep<F> {
    /// The domain label: the measurement set's `domain` and the root span
    /// `run/<label>`.
    label: &'static str,
    /// One label per sweep point.
    point_labels: Vec<String>,
    /// Per-point normalizer: loop iterations, wavefronts, or accesses.
    /// The chases' normalizers grow with their simulation cost, so the
    /// `Replay` engine schedules points by them.
    norms: Vec<f64>,
    /// The data-cache fan-out: `Some(t)` chases the sweep on `t` threads,
    /// reads each thread under its own noise key offset and reports the
    /// per-thread median; `None` runs the sweep once.
    threads: Option<usize>,
    /// Simulates point `i` of the flattened sweep, which for `n` sweep
    /// points is thread `i / n`'s sweep point `i % n`.
    simulate: F,
}

/// The simulated platform a sweep runs on: the CPU [`Core`] or the GPU
/// [`Node`].
trait Platform: Sync {
    /// What the sweep's `simulate` returns for one point.
    type Point: Send;
    /// What reading one point needs.
    type Stats: Send + Sync;
    /// One event to read: its id, its definition, and its counter slot.
    type Event: Sync;

    /// Simulates every point of the flattened sweep; stats in point order.
    fn simulate<F>(&self, sweep: &Sweep<F>, obs: &dyn Observer) -> Vec<Self::Stats>
    where
        F: Fn(usize) -> Self::Point + Sync;

    /// The events read, in read order.
    fn events(&self) -> &[Self::Event];

    /// An event's name.
    fn name(&self, event: &Self::Event) -> String;

    /// An event's true count at a point.
    fn truth(&self, event: &Self::Event, stats: &Self::Stats) -> f64;

    /// The PMU's read-back of an event: `read(truth, run)` with true count
    /// `truth` under run key `run`.
    fn reader(&self, event: &Self::Event) -> impl Fn(f64, usize) -> Reading;
}

/// The CPU platform: a fresh core per point on the request's engine, and
/// every event of the CPU inventory read in its counter group.
struct Core<'a> {
    engine: SimEngine,
    pmu: CpuPmu,
    /// The greedy counter scheduling is deterministic in the event set, so
    /// each event's group is computed once per sweep.
    events: Vec<(EventId, &'a CpuEventDef, usize)>,
}

impl<'a> Core<'a> {
    /// Reads every event of `set`, which `SimRequest::validate` has checked
    /// is attached to a CPU request.
    fn new(set: Option<&'a CpuEventSet>, pmu: CpuPmu, engine: SimEngine) -> Self {
        let defs: Vec<_> = set.into_iter().flat_map(CpuEventSet::iter).collect();
        let ids: Vec<EventId> = defs.iter().map(|&(id, _)| id).collect();
        let groups = set.map_or_else(Vec::new, |set| pmu.schedule(set, &ids));
        let events = defs.into_iter().zip(groups).map(|((id, def), g)| (id, def, g)).collect();
        Self { engine, pmu, events }
    }
}

impl<'a> Platform for Core<'a> {
    type Point = Cpu;
    type Stats = ExecStats;
    type Event = (EventId, &'a CpuEventDef, usize);

    /// `Replay` makes each point one task under a single `replay` span,
    /// handed out dynamically across the worker pool largest normalizer
    /// first (ties in point order), so the longest chases start at once
    /// instead of running alone at the end of the sweep. A task simulates
    /// its point and keeps only the core's stats, so at most one core and
    /// trace per worker is live. `Direct` executes every point sequentially
    /// in point order with no child spans. Either way the stream counters
    /// are summed in point order and published with the engine's label.
    fn simulate<F>(&self, sweep: &Sweep<F>, obs: &dyn Observer) -> Vec<ExecStats>
    where
        F: Fn(usize) -> Cpu + Sync,
    {
        let n = sweep.norms.len();
        let mut points: Vec<usize> = (0..n * sweep.threads.unwrap_or(1)).collect();
        let run = |&i: &usize| {
            let cpu = (sweep.simulate)(i);
            (i, cpu.stats(), EngineCounts::of(&cpu))
        };
        let mut cpus: Vec<(usize, ExecStats, EngineCounts)> = match self.engine {
            SimEngine::Direct => points.iter().map(run).collect(),
            SimEngine::Replay => {
                let _s = Span::enter(obs, "replay");
                points.sort_by(|&a, &b| sweep.norms[b % n].total_cmp(&sweep.norms[a % n]));
                points.par_iter().map(run).collect()
            }
        };
        cpus.sort_by_key(|&(i, ..)| i);
        let mut counts = EngineCounts::default();
        let stats = cpus
            .into_iter()
            .map(|(_, s, per_cpu)| {
                counts.merge(per_cpu);
                s
            })
            .collect();
        record_engine_counters(obs, self.engine, counts);
        stats
    }

    fn events(&self) -> &[Self::Event] {
        &self.events
    }

    fn name(&self, &(_, def, _): &Self::Event) -> String {
        def.info.name.to_string()
    }

    fn truth(&self, &(_, def, _): &Self::Event, stats: &ExecStats) -> f64 {
        def.true_count(stats)
    }

    fn reader(&self, &(id, def, group): &Self::Event) -> impl Fn(f64, usize) -> Reading {
        self.pmu.cpu_reader(def, id, group)
    }
}

/// The GPU platform: one analytic launch per point, every point in
/// parallel. Launches have no record/replay split, so the engine does not
/// apply.
struct Node<'a> {
    set: Option<&'a GpuEventSet>,
    pmu: CpuPmu,
    /// Each event with its position in the read list.
    events: Vec<(EventId, &'a GpuEventDef, usize)>,
}

impl<'a> Node<'a> {
    /// Reads every event of `set`, which `SimRequest::validate` has checked
    /// is attached to a GPU request.
    fn new(set: Option<&'a GpuEventSet>, pmu: CpuPmu) -> Self {
        let defs = set.into_iter().flat_map(GpuEventSet::iter);
        Self { set, pmu, events: defs.enumerate().map(|(e, (id, def))| (id, def, e)).collect() }
    }
}

impl<'a> Platform for Node<'a> {
    type Point = Vec<GpuStats>;
    type Stats = Vec<GpuStats>;
    type Event = (EventId, &'a GpuEventDef, usize);

    fn simulate<F>(&self, sweep: &Sweep<F>, _obs: &dyn Observer) -> Vec<Vec<GpuStats>>
    where
        F: Fn(usize) -> Vec<GpuStats> + Sync,
    {
        let points: Vec<usize> = (0..sweep.norms.len()).collect();
        points.par_iter().map(|&p| (sweep.simulate)(p)).collect()
    }

    fn events(&self) -> &[Self::Event] {
        &self.events
    }

    fn name(&self, &(_, def, _): &Self::Event) -> String {
        def.info.name.to_string()
    }

    fn truth(&self, &(id, ..): &Self::Event, devices: &Vec<GpuStats>) -> f64 {
        self.set.and_then(|set| set.true_count(id, devices)).unwrap_or(0.0)
    }

    fn reader(&self, &(id, def, pos): &Self::Event) -> impl Fn(f64, usize) -> Reading {
        self.pmu.gpu_reader(def, id, pos)
    }
}

/// Runs one domain's benchmark: the single path behind
/// [`crate::SimRequest::run`], which has validated `req` for `domain`.
///
/// Span tree: `run/<domain>` → `simulate` (with one `replay` child on the
/// default engine, covering every thread's points), `read-counters`, and
/// for the data cache `median`. Sweep-shape and engine counters go to the
/// request's observer.
// lint: contract(deterministic)
pub(crate) fn measure(domain: Domain, req: &SimRequest<'_>) -> MeasurementSet {
    let (cfg, engine) = (&req.config, req.engine);
    let core = || Core::new(req.cpu_events, CpuPmu::new(cfg.pmu), engine);
    match domain {
        Domain::CpuFlops => run(cpu_flops_sweep(cfg, engine), &core(), req),
        Domain::Branch => run(branch_sweep(cfg, engine), &core(), req),
        Domain::Dcache => run(dcache_sweep(cfg, engine), &core(), req),
        Domain::Dtlb => run(dtlb_sweep(cfg, engine), &core(), req),
        Domain::Dstore => run(dstore_sweep(cfg, engine), &core(), req),
        Domain::GpuFlops => {
            run(gpu_flops_sweep(cfg), &Node::new(req.gpu_events, CpuPmu::new(cfg.pmu)), req)
        }
    }
}

/// Simulates and reads one sweep, then folds the data-cache threads into
/// their median.
fn run<P: Platform, F>(sweep: Sweep<F>, platform: &P, req: &SimRequest<'_>) -> MeasurementSet
where
    F: Fn(usize) -> P::Point + Sync,
{
    let obs = req.observer;
    let _root = Span::enter(obs, &format!("run/{}", sweep.label));
    let mut per_thread = thread_runs(&sweep, platform, req.config.repetitions, obs);
    let runs = match sweep.threads {
        Some(threads) => {
            obs.counter("runner.dcache_threads", threads as u64);
            let _s = Span::enter(obs, "median");
            median_across_threads(&per_thread)
        }
        None => per_thread.pop().unwrap_or_default(),
    };
    let events: Vec<String> = platform.events().iter().map(|e| platform.name(e)).collect();
    record_runner_counters(obs, sweep.norms.len(), events.len(), req.config.repetitions);
    MeasurementSet { domain: sweep.label.into(), point_labels: sweep.point_labels, events, runs }
}

/// Simulates a sweep and reads every event at every point of each
/// thread's share of it: one [`Runs`] per thread, in thread order. Thread
/// `t` reads under noise key offset `t * THREAD_KEY_STRIDE`. Publishes
/// `pmu.noise_draws`, the reads that ran the full noise transform, summed
/// over threads.
fn thread_runs<P: Platform, F>(
    sweep: &Sweep<F>,
    platform: &P,
    repetitions: usize,
    obs: &dyn Observer,
) -> Vec<Runs>
where
    F: Fn(usize) -> P::Point + Sync,
{
    let stats = {
        let _s = Span::enter(obs, "simulate");
        platform.simulate(sweep, obs)
    };
    let _s = Span::enter(obs, "read-counters");
    let events = platform.events();
    let threads = stats.chunks(sweep.norms.len()).enumerate();
    let mut draws = 0;
    let runs = threads
        .map(|(thread, stats)| {
            let truths: Vec<Vec<f64>> = events
                .iter()
                .map(|event| stats.iter().map(|s| platform.truth(event, s)).collect())
                .collect();
            let offset = thread * THREAD_KEY_STRIDE;
            let (runs, thread_draws) = read_runs(&truths, &sweep.norms, repetitions, offset, |e| {
                platform.reader(&events[e])
            });
            draws += thread_draws;
            runs
        })
        .collect();
    obs.counter("pmu.noise_draws", draws);
    runs
}

/// Element-wise median across per-thread runs.
pub(crate) fn median_across_threads(threads: &[Runs]) -> Runs {
    assert!(!threads.is_empty(), "median_across_threads: no threads");
    let mut out = threads[0].clone();
    let mut vals = Vec::with_capacity(threads.len());
    for (r, run) in out.iter_mut().enumerate() {
        for (e, row) in run.iter_mut().enumerate() {
            for (p, cell) in row.iter_mut().enumerate() {
                vals.clear();
                vals.extend(threads.iter().map(|t| t[r][e][p]));
                // lint: allow(panic, reachable_panic): per-thread runs always produce at least one sample
                *cell = median_in_place(&mut vals).expect("non-empty thread set");
            }
        }
    }
    out
}

/// Runs one kernel program on a fresh core: `Direct` executes it, `Replay`
/// records and replays it.
fn run_kernel(core: CoreConfig, engine: SimEngine, program: &Program) -> Cpu {
    let mut cpu = Cpu::new(core);
    match engine {
        SimEngine::Direct => cpu.run(program),
        SimEngine::Replay => cpu.replay(&KernelTrace::record(program)),
    }
    cpu
}

/// Runs one memory chase on a fresh core: `warmup` passes, then `measure`
/// passes on fresh statistics.
///
/// `program(passes)` and `trace(passes)` are the chase's program and the
/// trace [`KernelTrace::record`] makes of it. `Direct` runs the warmup and
/// measurement programs; `Replay` builds the measurement trace once,
/// straight from its addresses, and drives both phases from it via
/// `Cpu::replay_passes` (the two phases differ only in the top-level pass
/// count).
fn run_chase<P, T>(
    core: CoreConfig,
    engine: SimEngine,
    (warmup, measure): (u64, u64),
    program: P,
    trace: T,
) -> Cpu
where
    P: Fn(u64) -> Program,
    T: FnOnce(u64) -> KernelTrace,
{
    let mut cpu = Cpu::new(core);
    match engine {
        SimEngine::Direct => {
            cpu.run(&program(warmup));
            cpu.reset_stats();
            cpu.run(&program(measure));
        }
        SimEngine::Replay => {
            let trace = trace(measure);
            cpu.replay_passes(&trace, warmup);
            cpu.reset_stats();
            cpu.replay_passes(&trace, measure);
        }
    }
    cpu
}

/// The CPU-FLOPs sweep: every kernel at each of its three loop sizes.
fn cpu_flops_sweep(
    cfg: &RunnerConfig,
    engine: SimEngine,
) -> Sweep<impl Fn(usize) -> Cpu + Sync + '_> {
    let kernels = flops_cpu::kernel_space();
    let points: Vec<(usize, usize)> =
        (0..kernels.len()).flat_map(|k| (0..3).map(move |l| (k, l))).collect();
    Sweep {
        label: "cpu-flops",
        point_labels: flops_cpu::point_labels(),
        norms: vec![cfg.flops_trips as f64; points.len()],
        threads: None,
        simulate: move |p: usize| {
            let (k, l) = points[p];
            run_kernel(cfg.core, engine, &kernels[k].program(l, cfg.flops_trips))
        },
    }
}

/// The branching sweep: one point per kernel.
fn branch_sweep(cfg: &RunnerConfig, engine: SimEngine) -> Sweep<impl Fn(usize) -> Cpu + Sync + '_> {
    let kernels = branch::kernel_space();
    Sweep {
        label: "branch",
        point_labels: branch::point_labels(),
        norms: vec![cfg.branch_iterations as f64; kernels.len()],
        threads: None,
        simulate: move |p: usize| {
            run_kernel(cfg.core, engine, &kernels[p].program(cfg.branch_iterations))
        },
    }
}

/// The data-cache sweep on `cfg.dcache_threads` chasing threads, flattened
/// into one sweep of `threads × points` chases so the largest points of
/// all threads share one work queue. Each thread chases its own
/// permutation over a disjoint buffer.
fn dcache_sweep(cfg: &RunnerConfig, engine: SimEngine) -> Sweep<impl Fn(usize) -> Cpu + Sync + '_> {
    let h = cfg.core.hierarchy;
    let configs = dcache::sweep(&h);
    let n = configs.len();
    Sweep {
        label: "dcache",
        point_labels: dcache::point_labels(&h),
        norms: configs.iter().map(|c| (c.pointers * dcache::MEASURE_PASSES) as f64).collect(),
        threads: Some(cfg.dcache_threads),
        simulate: move |i: usize| {
            let (thread, p) = ((i / n) as u64, i % n);
            let (c, base, seed) = (&configs[p], (thread + 1) << 40, thread * 7919 + p as u64);
            run_chase(
                cfg.core,
                engine,
                (dcache::WARMUP_PASSES, dcache::MEASURE_PASSES),
                |passes| c.program(base, seed, passes),
                |passes| c.trace(base, seed, passes),
            )
        },
    }
}

/// The data-TLB page-chase sweep.
fn dtlb_sweep(cfg: &RunnerConfig, engine: SimEngine) -> Sweep<impl Fn(usize) -> Cpu + Sync + '_> {
    let tlb = cfg.core.tlb;
    let configs = dtlb::sweep(&tlb);
    Sweep {
        label: "dtlb",
        point_labels: dtlb::point_labels(&tlb),
        norms: configs.iter().map(|c| (c.slots() * dtlb::MEASURE_PASSES) as f64).collect(),
        threads: None,
        simulate: move |p: usize| {
            let (c, seed) = (&configs[p], 4242 + p as u64);
            run_chase(
                cfg.core,
                engine,
                (dtlb::WARMUP_PASSES, dtlb::MEASURE_PASSES),
                |passes| c.program(0, seed, passes),
                |passes| c.trace(0, seed, passes),
            )
        },
    }
}

/// The store-path cache sweep.
fn dstore_sweep(cfg: &RunnerConfig, engine: SimEngine) -> Sweep<impl Fn(usize) -> Cpu + Sync + '_> {
    let h = cfg.core.hierarchy;
    let configs = dstore::sweep(&h);
    Sweep {
        label: "dstore",
        point_labels: dstore::point_labels(&h),
        norms: configs.iter().map(|c| (c.lines * dstore::MEASURE_PASSES) as f64).collect(),
        threads: None,
        simulate: move |p: usize| {
            let (c, seed) = (&configs[p], 9000 + p as u64);
            run_chase(
                cfg.core,
                engine,
                (dstore::WARMUP_PASSES, dstore::MEASURE_PASSES),
                |passes| c.program(0, seed, passes),
                |passes| c.trace(0, seed, passes),
            )
        },
    }
}

/// The GPU-FLOPs sweep: every kernel at each of its three sizes, launched
/// on device 0 of `cfg.gpu_devices`; events bound to the other devices
/// read their idle telemetry.
fn gpu_flops_sweep(cfg: &RunnerConfig) -> Sweep<impl Fn(usize) -> Vec<GpuStats> + Sync + '_> {
    let kernels = flops_gpu::kernel_space();
    let points: Vec<(usize, usize)> =
        (0..kernels.len()).flat_map(|k| (0..3).map(move |l| (k, l))).collect();
    Sweep {
        label: "gpu-flops",
        point_labels: flops_gpu::point_labels(),
        norms: vec![cfg.gpu_wavefronts as f64; points.len()],
        threads: None,
        simulate: move |p: usize| {
            let (k, l) = points[p];
            let mut dev = GpuDevice::new(GpuConfig::default_sim());
            dev.launch(&kernels[k].kernel(l, cfg.gpu_wavefronts));
            let mut all = vec![GpuStats::default(); cfg.gpu_devices as usize];
            all[0] = dev.stats;
            all
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_obs::NoopObserver;
    use catalyze_sim::{mi250x_like, sapphire_rapids_like};

    fn cpu_run(domain: Domain, set: &CpuEventSet, cfg: &RunnerConfig) -> MeasurementSet {
        SimRequest::new().domain(domain).events(set).config(cfg).run().unwrap()
    }

    /// The crate-private per-thread path: every dcache thread's runs,
    /// before the median.
    fn dcache_thread_runs(set: &CpuEventSet, cfg: &RunnerConfig) -> Vec<Runs> {
        let core = Core::new(Some(set), CpuPmu::new(cfg.pmu), SimEngine::default());
        let sweep = dcache_sweep(cfg, SimEngine::default());
        thread_runs(&sweep, &core, cfg.repetitions, &NoopObserver)
    }

    #[test]
    fn cpu_flops_measurements_are_exact_for_fp_events() {
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let ms = cpu_run(Domain::CpuFlops, &set, &cfg);
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
        let ms = cpu_run(Domain::Branch, &set, &cfg);
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
        let request = SimRequest::new().domain(Domain::GpuFlops).gpu_events(&set).config(&cfg);
        let ms = request.run().unwrap();
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
        let per_thread = dcache_thread_runs(&set, &cfg);
        assert_eq!(per_thread.len(), 3);
        let median = median_across_threads(&per_thread);
        // The request reports exactly the median of its threads.
        assert_eq!(cpu_run(Domain::Dcache, &set, &cfg).runs, median);
        // The median at every cell lies between the per-thread min and max.
        for e in 0..median[0].len().min(20) {
            for p in 0..median[0][e].len() {
                let vals: Vec<f64> = per_thread.iter().map(|t| t[0][e][p]).collect();
                let lo = vals.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let m = median[0][e][p];
                assert!(m >= lo && m <= hi);
            }
        }
    }

    #[test]
    fn one_thread_dcache_request_reads_thread_zero_of_any_fan_out() {
        // Thread 0 chases the same buffer and seeds and reads under key
        // offset 0 at every fan-out, and the median of one value is that
        // value, so a one-thread request reports thread 0's readings.
        let set = sapphire_rapids_like();
        let mut cfg = RunnerConfig::fast_test();
        cfg.dcache_threads = 1;
        let single = cpu_run(Domain::Dcache, &set, &cfg);
        for threads in [2, 4] {
            cfg.dcache_threads = threads;
            let fanned = cpu_run(Domain::Dcache, &set, &cfg);
            assert_eq!(single.runs, dcache_thread_runs(&set, &cfg)[0], "{threads} threads");
            assert_eq!(single.events, fanned.events);
            assert_eq!(single.point_labels, fanned.point_labels);
        }
    }

    #[test]
    fn traced_runner_records_spans_and_counters() {
        use catalyze_obs::TraceCollector;
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let trace = TraceCollector::new();
        let request = SimRequest::new().domain(Domain::Branch).events(&set).config(&cfg);
        let ms = request.observer(&trace).run().unwrap();
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
        // Branch kernels have no memory stream, so nothing is counted.
        for name in [
            "stream.passes_counted",
            "stream.tlb_passes_settled",
            "stream.passes_thrashed",
            "stream.rows_kept",
        ] {
            assert_eq!(trace.counter_value(name).unwrap_or(0), 0, "{name}");
        }
        // The noop-observer path produces the same measurements.
        assert_eq!(request.run().unwrap().runs, ms.runs);
    }

    #[test]
    fn noise_draws_count_full_transforms_on_either_engine() {
        use catalyze_obs::TraceCollector;
        let cfg = RunnerConfig::fast_test();
        let (cpu, gpu) = (sapphire_rapids_like(), mi250x_like(cfg.gpu_devices));
        // The draws counted in one traced request, and the values it read.
        let draws = |domain: Domain, engine: SimEngine| {
            let trace = TraceCollector::new();
            let request = SimRequest::new().domain(domain).events(&cpu).gpu_events(&gpu);
            let ms = request.config(&cfg).engine(engine).observer(&trace).run().unwrap();
            let threads = trace.counter_value("runner.dcache_threads").unwrap_or(1);
            let read = (ms.num_points() * ms.events.len() * ms.num_runs()) as u64 * threads;
            (trace.counter_value("pmu.noise_draws").unwrap(), read)
        };
        for domain in Domain::ALL {
            let (replay, read) = draws(domain, SimEngine::Replay);
            assert!(replay < read, "{domain}: {replay} of {read} values drew");
            if domain.is_gpu() {
                assert!(replay > 0, "{domain}");
            } else {
                assert_eq!(draws(domain, SimEngine::Direct), (replay, read), "{domain}");
            }
        }
    }

    #[test]
    fn traced_dcache_has_one_flattened_replay_span() {
        use catalyze_obs::TraceCollector;
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let trace = TraceCollector::new();
        let request = SimRequest::new().domain(Domain::Dcache).events(&set).config(&cfg);
        let ms = request.observer(&trace).run().unwrap();
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
        // The large points' cold warmup passes on the stock LRU core are
        // counted rather than driven, and their second passes take each
        // shortcut: the TLB past its fill point, the memory points'
        // thrash, and the levels every access reached.
        for name in [
            "stream.passes_counted",
            "stream.tlb_passes_settled",
            "stream.passes_thrashed",
            "stream.rows_kept",
        ] {
            assert!(trace.counter_value(name).unwrap() > 0, "{name}");
        }
    }

    #[test]
    fn dcache_l1_region_hit_rate() {
        let set = sapphire_rapids_like();
        let cfg = RunnerConfig::fast_test();
        let ms = cpu_run(Domain::Dcache, &set, &cfg);
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
        let nested: Vec<ExecStats> = (0..cfg.dcache_threads)
            .flat_map(|t| {
                let base = (t as u64 + 1) << 40;
                configs.iter().enumerate().map(move |(p, c)| {
                    let seed = t as u64 * 7919 + p as u64;
                    let mut cpu = Cpu::new(cfg.core);
                    cpu.run(&c.program(base, seed, dcache::WARMUP_PASSES));
                    cpu.reset_stats();
                    cpu.run(&c.program(base, seed, dcache::MEASURE_PASSES));
                    cpu.stats()
                })
            })
            .collect();
        for engine in [SimEngine::Direct, SimEngine::Replay] {
            let core = Core::new(None, CpuPmu::new(cfg.pmu), engine);
            let flat = core.simulate(&dcache_sweep(&cfg, engine), &NoopObserver);
            assert_eq!(flat, nested, "{engine:?} flattened indexing drifted");
        }
    }
}
