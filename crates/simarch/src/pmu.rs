//! The performance-monitoring unit: programs counter groups and reads
//! events back, applying per-read observation noise.
//!
//! Real machines have *far fewer physical counters than events* (the paper's
//! motivation), so measuring hundreds of events requires multiplexing the
//! workload across many runs, each programming one group of counters. The
//! simulated PMU models exactly that: events are partitioned into groups of
//! `counters` and each group is conceptually a separate run of the
//! (deterministic) workload, with its own noise stream.

use crate::cpu::ExecStats;
use crate::events_cpu::{CpuBase, CpuEventDef, CpuEventSet};
use crate::gpu::{GpuEventDef, GpuEventSet, GpuStats};
use crate::noise::EventNoise;
use catalyze_events::EventId;
use serde::{Deserialize, Serialize};

/// Which physical counter(s) can host an event — the scheduling constraint
/// real PMUs impose on measurement tools.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterSlot {
    /// A dedicated fixed counter (`INST_RETIRED`, core cycles, ...): never
    /// consumes a programmable slot, but only one event per fixed id fits
    /// in a group.
    Fixed(u8),
    /// Restricted to the low half of the programmable counters (many
    /// memory-pipeline events on real Intel cores).
    LowHalf,
    /// Any programmable counter.
    AnyProgrammable,
}

/// Derives the scheduling constraint of one CPU event from its semantics,
/// mirroring real hardware: instruction and cycle counts live on fixed
/// counters; load-attribution (PEBS-capable) events are restricted to the
/// low programmable counters; everything else schedules freely.
pub fn slot_for(def: &CpuEventDef) -> CounterSlot {
    match def.base {
        CpuBase::Instructions => CounterSlot::Fixed(0),
        CpuBase::Cycles => CounterSlot::Fixed(1),
        CpuBase::L1Hit
        | CpuBase::L1Miss
        | CpuBase::L2Hit
        | CpuBase::L2Miss
        | CpuBase::L3Hit
        | CpuBase::L3Miss => CounterSlot::LowHalf,
        _ => CounterSlot::AnyProgrammable,
    }
}

/// PMU configuration shared by CPU and GPU measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PmuConfig {
    /// Physical programmable counters per group (8 on modern Intel cores).
    pub counters: usize,
    /// Base seed for all observation-noise streams.
    pub seed: u64,
}

impl PmuConfig {
    /// Eight counters, fixed default seed.
    pub fn default_sim() -> Self {
        Self { counters: 8, seed: 0xCA7A_1F2E }
    }

    /// Number of measurement groups (multiplexed runs) needed for `n`
    /// events.
    pub fn groups_for(&self, n: usize) -> usize {
        n.div_ceil(self.counters.max(1))
    }
}

/// The PMU: schedules CPU events onto counter groups and reads CPU and GPU
/// events back. Every read goes through a [`RowReader`], which reads a
/// whole row of one event's counts at once; [`CpuPmu::read_cpu`] and
/// [`CpuPmu::read_gpu`] read rows of one.
#[derive(Debug, Clone)]
pub struct CpuPmu {
    cfg: PmuConfig,
}

impl CpuPmu {
    /// Creates a PMU.
    pub fn new(cfg: PmuConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> PmuConfig {
        self.cfg
    }

    /// Schedules the requested events onto counter groups, honoring the
    /// per-event constraints ([`slot_for`]): greedy first-fit — an event
    /// opens a new group (another multiplexed run of the workload) only
    /// when no compatible counter is free in the current one.
    ///
    /// Returns, for each requested event position, its group index.
    pub fn schedule(&self, set: &CpuEventSet, events: &[EventId]) -> Vec<usize> {
        let programmable = self.cfg.counters.max(1);
        let low_half = programmable.div_ceil(2);
        // Per open group: programmable slots used, low-half slots used,
        // fixed counters occupied (bitmask).
        struct Group {
            used: usize,
            low_used: usize,
            fixed: u8,
        }
        let mut groups: Vec<Group> = Vec::new();
        let mut assignment = Vec::with_capacity(events.len());
        for &id in events {
            let def = set
                .def(id)
                // lint: allow(panic, reachable_panic): scheduling an id outside the event set is a programming error
                .unwrap_or_else(|| panic!("unknown CPU event id {}", id.index()));
            let slot = slot_for(def);
            let fits = |g: &Group| match slot {
                CounterSlot::Fixed(i) => g.fixed & (1 << i) == 0,
                CounterSlot::LowHalf => g.low_used < low_half && g.used < programmable,
                CounterSlot::AnyProgrammable => g.used < programmable,
            };
            let gi = match groups.iter().position(fits) {
                Some(gi) => gi,
                None => {
                    groups.push(Group { used: 0, low_used: 0, fixed: 0 });
                    groups.len() - 1
                }
            };
            let g = &mut groups[gi];
            match slot {
                CounterSlot::Fixed(i) => g.fixed |= 1 << i,
                CounterSlot::LowHalf => {
                    g.low_used += 1;
                    g.used += 1;
                }
                CounterSlot::AnyProgrammable => g.used += 1,
            }
            assignment.push(gi);
        }
        assignment
    }

    /// Reads `events` for a workload whose deterministic execution produced
    /// `stats`. `run` indexes the benchmark repetition; every (event, run,
    /// group) triple gets an independent noise stream.
    ///
    /// Events are read in multiplexed groups of `cfg.counters`; the group
    /// index perturbs the noise stream exactly as re-running the workload
    /// would on real hardware. Each event is a row of one read through its
    /// [`CpuPmu::cpu_reader`].
    pub fn read_cpu(
        &self,
        set: &CpuEventSet,
        stats: &ExecStats,
        events: &[EventId],
        run: usize,
    ) -> Vec<f64> {
        let groups = self.schedule(set, events);
        events
            .iter()
            .zip(groups)
            .map(|(&id, group)| {
                // lint: allow(panic): ids were validated when the schedule was built
                let def = set.def(id).expect("validated by schedule");
                self.cpu_reader(def, id, group).read_one(def.true_count(stats), run)
            })
            .collect()
    }

    /// How CPU event `id` (definition `def`) in counter group `group` reads
    /// back, a row at a time: what [`CpuPmu::read_cpu`] reports for it in
    /// each repetition. Lets a sweep evaluate each true count once and
    /// build one reader per row of reads.
    pub fn cpu_reader(&self, def: &CpuEventDef, id: EventId, group: usize) -> RowReader {
        RowReader { noise: def.noise.for_event(self.cfg.seed, id.index()), group }
    }

    /// How GPU event `id` (definition `def`) at position `pos` of the read
    /// list reads back, a row at a time: what [`CpuPmu::read_gpu`] reports
    /// for it in each repetition.
    pub fn gpu_reader(&self, def: &GpuEventDef, id: EventId, pos: usize) -> RowReader {
        let group = pos / self.cfg.counters.max(1);
        RowReader { noise: def.noise.for_event(self.cfg.seed ^ 0x6770, id.index()), group }
    }

    /// Reads GPU `events` against per-device statistics, each as a row of
    /// one read through its [`CpuPmu::gpu_reader`].
    pub fn read_gpu(
        &self,
        set: &GpuEventSet,
        devices: &[GpuStats],
        events: &[EventId],
        run: usize,
    ) -> Vec<f64> {
        events
            .iter()
            .enumerate()
            .map(|(pos, &id)| {
                let def = set
                    .def(id)
                    // lint: allow(panic): scheduling an id outside the event set is a programming error
                    .unwrap_or_else(|| panic!("unknown GPU event id {}", id.index()));
                let truth = set.true_count(id, devices).unwrap_or(0.0);
                self.gpu_reader(def, id, pos).read_one(truth, run)
            })
            .collect()
    }
}

/// One event's read-back in its counter group (see [`CpuPmu::cpu_reader`]
/// and [`CpuPmu::gpu_reader`]): repetition `run` reads under noise run key
/// `run * 1_000_003 + group`.
#[derive(Debug, Clone, Copy)]
pub struct RowReader {
    noise: EventNoise,
    group: usize,
}

impl RowReader {
    /// Reads a row: `out[i]` becomes the read-back of true count
    /// `truths[i]` in repetition `run(i)`. Returns how many reads ran the
    /// full noise transform, rather than settling from the noise model, the
    /// count and at most the first uniform of its stream.
    ///
    /// # Panics
    /// If `truths` and `out` differ in length.
    pub fn read(&self, truths: &[f64], run: impl Fn(usize) -> usize, out: &mut [f64]) -> u64 {
        self.noise.read_row(truths, |i| run(i) * 1_000_003 + self.group, out)
    }

    /// The read-back of one true count in repetition `run`: a row of one.
    fn read_one(&self, truth: f64, run: usize) -> f64 {
        let mut value = [0.0];
        self.read(&[truth], |_| run, &mut value);
        value[0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CoreConfig, Cpu};
    use crate::events_cpu::sapphire_rapids_like;
    use crate::gpu::{mi250x_like, GpuConfig, GpuDevice, GpuKernel};
    use crate::isa::{FpKind, Instruction, Precision, VecWidth};
    use crate::program::{Block, Program};

    fn flops_stats() -> ExecStats {
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        let b = Block::new()
            .repeat(Instruction::fp(Precision::Double, VecWidth::Scalar, FpKind::Add), 24);
        cpu.run(&Program::new().counted_loop(b, 100, 0));
        cpu.stats()
    }

    #[test]
    fn group_math() {
        let cfg = PmuConfig { counters: 8, seed: 1 };
        assert_eq!(cfg.groups_for(0), 0);
        assert_eq!(cfg.groups_for(8), 1);
        assert_eq!(cfg.groups_for(9), 2);
        assert_eq!(cfg.groups_for(300), 38);
    }

    #[test]
    fn exact_events_read_exactly_and_reproducibly() {
        let set = sapphire_rapids_like();
        let pmu = CpuPmu::new(PmuConfig::default_sim());
        let stats = flops_stats();
        let id = set.id_of("FP_ARITH_INST_RETIRED:SCALAR_DOUBLE").unwrap();
        let a = pmu.read_cpu(&set, &stats, &[id], 0);
        let b = pmu.read_cpu(&set, &stats, &[id], 1);
        assert_eq!(a, vec![2400.0]);
        assert_eq!(a, b, "architectural counter identical across runs");
    }

    #[test]
    fn noisy_events_vary_across_runs_but_not_within() {
        let set = sapphire_rapids_like();
        let pmu = CpuPmu::new(PmuConfig::default_sim());
        let stats = flops_stats();
        let id = set.id_of("CPU_CLK_UNHALTED:THREAD").unwrap();
        let a = pmu.read_cpu(&set, &stats, &[id], 0);
        let b = pmu.read_cpu(&set, &stats, &[id], 1);
        let a2 = pmu.read_cpu(&set, &stats, &[id], 0);
        assert_ne!(a, b, "cycles must jitter across repetitions");
        assert_eq!(a, a2, "same repetition reads identically");
        let truth = set.true_count(id, &stats).unwrap();
        assert!((a[0] - truth).abs() / truth < 0.01);
    }

    #[test]
    fn group_index_perturbs_noise() {
        let set = sapphire_rapids_like();
        let pmu = CpuPmu::new(PmuConfig { counters: 1, seed: 7 });
        let stats = flops_stats();
        // Two programmable noisy events on a one-counter PMU: the second
        // request lands in a different group (= a different multiplexed
        // run), so its noise stream differs.
        let noisy = set.id_of("IDQ:DSB_UOPS").unwrap();
        let filler = set.id_of("IDQ:MITE_UOPS").unwrap();
        let in_group0 = pmu.read_cpu(&set, &stats, &[noisy], 0)[0];
        let in_group1 = pmu.read_cpu(&set, &stats, &[filler, noisy], 0)[1];
        assert_ne!(in_group0, in_group1);
    }

    #[test]
    fn scheduler_honors_constraints() {
        let set = sapphire_rapids_like();
        let pmu = CpuPmu::new(PmuConfig { counters: 4, seed: 7 });
        let inst = set.id_of("INST_RETIRED:ANY").unwrap(); // Fixed(0)
        let cyc = set.id_of("CPU_CLK_UNHALTED:THREAD").unwrap(); // Fixed(1)
        let l1 = set.id_of("MEM_LOAD_RETIRED:L1_HIT").unwrap(); // LowHalf
        let l1m = set.id_of("MEM_LOAD_RETIRED:L1_MISS").unwrap(); // LowHalf
        let l2 = set.id_of("MEM_LOAD_RETIRED:L2_HIT").unwrap(); // LowHalf
        let idq = set.id_of("IDQ:DSB_UOPS").unwrap(); // Any

        // Fixed counters ride along without consuming programmable slots:
        // 4 programmable + 2 fixed fit one group.
        let g = pmu.schedule(&set, &[inst, cyc, idq, idq, idq, idq]);
        assert_eq!(g, vec![0; 6]);

        // Two copies of the same fixed counter conflict.
        let g = pmu.schedule(&set, &[inst, inst]);
        assert_eq!(g, vec![0, 1]);

        // LowHalf events: only 2 of the 4 programmable counters qualify,
        // so a third load-attribution event spills to a new group while a
        // free Any event still fits the first.
        let g = pmu.schedule(&set, &[l1, l1m, l2, idq]);
        assert_eq!(g, vec![0, 0, 1, 0]);
    }

    #[test]
    fn schedule_matches_read_grouping_determinism() {
        let set = sapphire_rapids_like();
        let pmu = CpuPmu::new(PmuConfig::default_sim());
        let stats = flops_stats();
        let ids: Vec<EventId> = (0..set.len()).map(|i| EventId(i as u32)).collect();
        let a = pmu.read_cpu(&set, &stats, &ids, 3);
        let b = pmu.read_cpu(&set, &stats, &ids, 3);
        assert_eq!(a, b);
        // The schedule needs at least enough groups for the programmable
        // events (fixed-counter events ride along for free).
        let groups = pmu.schedule(&set, &ids);
        let programmable = ids
            .iter()
            .filter(|&&id| !matches!(slot_for(set.def(id).unwrap()), CounterSlot::Fixed(_)))
            .count();
        let num_groups = groups.iter().max().unwrap() + 1;
        assert!(
            num_groups >= programmable.div_ceil(pmu.config().counters),
            "{num_groups} groups for {programmable} programmable events"
        );
        assert_eq!(pmu.schedule(&set, &ids), groups, "scheduling is deterministic");
    }

    #[test]
    fn gpu_reads() {
        let set = mi250x_like(2);
        let pmu = CpuPmu::new(PmuConfig::default_sim());
        let mut dev = GpuDevice::new(GpuConfig::default_sim());
        dev.launch(&GpuKernel {
            name: "add".into(),
            op: FpKind::Add,
            prec: Precision::Half,
            instructions: 10,
            wavefronts: 10,
        });
        let devices = [dev.stats, GpuStats::default()];
        let id0 = set.id_of("rocm:::SQ_INSTS_VALU_ADD_F16:device=0").unwrap();
        let id1 = set.id_of("rocm:::SQ_INSTS_VALU_ADD_F16:device=1").unwrap();
        let v = pmu.read_gpu(&set, &devices, &[id0, id1], 0);
        assert_eq!(v, vec![100.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "unknown CPU event")]
    fn unknown_event_panics() {
        let set = sapphire_rapids_like();
        let pmu = CpuPmu::new(PmuConfig::default_sim());
        let stats = ExecStats::default();
        pmu.read_cpu(&set, &stats, &[EventId(u32::MAX)], 0);
    }
}
