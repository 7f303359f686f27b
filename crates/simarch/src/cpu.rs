//! The simulated CPU core: executes programs and accumulates the
//! microarchitectural statistics that raw events are defined over.
//!
//! [`Cpu::run`] executes every dynamic instruction and is the reference.
//! [`Cpu::replay`] re-drives a recorded [`KernelTrace`] and produces the
//! same statistics; its memory stream always goes through the stream
//! engine, whatever the cache geometry or policy.

use crate::branch::{BranchStats, Predictor, PredictorConfig};
use crate::cache::AccessKind;
use crate::hierarchy::{Hierarchy, HierarchyConfig, HierarchyStats};
use crate::isa::{FpKind, Instruction, IntKind, Precision, VecWidth};
use crate::program::Program;
use crate::tlb::{Tlb, TlbConfig, TlbStats};
use crate::trace::{KernelTrace, Segment};
use serde::{Deserialize, Serialize};

/// Dense index for `(precision, width, kind)` FP instruction classes.
pub(crate) fn fp_index(prec: Precision, width: VecWidth, kind: FpKind) -> usize {
    let p = match prec {
        Precision::Half => 0,
        Precision::Single => 1,
        Precision::Double => 2,
    };
    let w = match width {
        VecWidth::Scalar => 0,
        VecWidth::V128 => 1,
        VecWidth::V256 => 2,
        VecWidth::V512 => 3,
    };
    let k = match kind {
        FpKind::Add => 0,
        FpKind::Sub => 1,
        FpKind::Mul => 2,
        FpKind::Div => 3,
        FpKind::Sqrt => 4,
        FpKind::Fma => 5,
    };
    (p * 4 + w) * 6 + k
}

/// Everything the PMU can observe after a program executes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Retired FP instructions per `(precision, width, kind)` class.
    fp: Vec<u64>,
    /// Integer ALU instructions per kind (Add, Mul, Cmp, Logic).
    pub int_ops: [u64; 4],
    /// Retired loads.
    pub loads: u64,
    /// Retired stores.
    pub stores: u64,
    /// Retired no-ops.
    pub nops: u64,
    /// All retired instructions.
    pub instructions: u64,
    /// Issued micro-ops (simple per-class expansion).
    pub uops: u64,
    /// Branch statistics.
    pub branch: BranchStats,
    /// Memory-hierarchy statistics.
    pub memory: HierarchyStats,
    /// TLB statistics.
    pub tlb: TlbStats,
    /// Core cycles from the timing model.
    pub cycles: u64,
}

impl Default for ExecStats {
    fn default() -> Self {
        Self {
            fp: vec![0; 3 * 4 * 6],
            int_ops: [0; 4],
            loads: 0,
            stores: 0,
            nops: 0,
            instructions: 0,
            uops: 0,
            branch: BranchStats::default(),
            memory: HierarchyStats::default(),
            tlb: TlbStats::default(),
            cycles: 0,
        }
    }
}

impl ExecStats {
    /// Retired FP instructions of one exact class.
    pub fn fp_class(&self, prec: Precision, width: VecWidth, kind: FpKind) -> u64 {
        // lint: allow(reachable_panic): fp_index enumerates the fixed class grid
        self.fp[fp_index(prec, width, kind)]
    }

    /// Retired FP instructions matching optional filters, with FMA
    /// instructions weighted by `fma_weight` (real Intel
    /// `FP_ARITH_INST_RETIRED` events count an FMA as **two**; pass 2 to
    /// model that, 1 for plain instruction counting).
    pub fn fp_filtered(
        &self,
        prec: Option<Precision>,
        width: Option<VecWidth>,
        fma_weight: u64,
    ) -> u64 {
        let mut total = 0;
        for p in Precision::ALL {
            if prec.is_some_and(|want| want != p) {
                continue;
            }
            for w in VecWidth::ALL {
                if width.is_some_and(|want| want != w) {
                    continue;
                }
                for k in [FpKind::Add, FpKind::Sub, FpKind::Mul, FpKind::Div, FpKind::Sqrt] {
                    total += self.fp_class(p, w, k);
                }
                total += self.fp_class(p, w, FpKind::Fma) * fma_weight;
            }
        }
        total
    }

    /// True floating-point *operations* (elements x ops-per-element) for a
    /// precision — the ground-truth quantity metrics try to compose.
    pub fn flops(&self, prec: Precision) -> u64 {
        let mut total = 0;
        for w in VecWidth::ALL {
            for k in [FpKind::Add, FpKind::Sub, FpKind::Mul, FpKind::Div, FpKind::Sqrt, FpKind::Fma]
            {
                total += self.fp_class(prec, w, k) * w.lanes(prec) * k.ops_per_element();
            }
        }
        total
    }

    /// Total integer ALU instructions.
    pub fn int_total(&self) -> u64 {
        self.int_ops.iter().sum()
    }

    /// True floating-point operations of the given kinds, summed over all
    /// precisions and widths (the granularity of AMD-style
    /// `RETIRED_SSE_AVX_FLOPS` counters, which count *operations* with no
    /// precision split).
    pub fn fp_ops_by_kind(&self, kinds: &[FpKind]) -> u64 {
        let mut total = 0;
        for p in Precision::ALL {
            for w in VecWidth::ALL {
                for &k in kinds {
                    total += self.fp_class(p, w, k) * w.lanes(p) * k.ops_per_element();
                }
            }
        }
        total
    }
}

/// Latency/width parameters of the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Sustained issue width (instructions per cycle upper bound).
    pub issue_width: u64,
    /// Cycles lost per branch misprediction.
    pub mispredict_penalty: u64,
    /// Extra load-to-use cycles for an L2 hit.
    pub l2_latency: u64,
    /// Extra cycles for an L3 hit.
    pub l3_latency: u64,
    /// Extra cycles for a memory access.
    pub memory_latency: u64,
    /// Extra cycles per TLB miss (page walk).
    pub tlb_walk_latency: u64,
}

impl TimingConfig {
    /// Plausible big-core parameters.
    pub fn default_sim() -> Self {
        Self {
            issue_width: 4,
            mispredict_penalty: 17,
            l2_latency: 12,
            l3_latency: 40,
            memory_latency: 180,
            tlb_walk_latency: 25,
        }
    }
}

/// Full core configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Cache hierarchy geometry.
    pub hierarchy: HierarchyConfig,
    /// TLB geometry.
    pub tlb: TlbConfig,
    /// Branch predictor geometry.
    pub predictor: PredictorConfig,
    /// Timing parameters.
    pub timing: TimingConfig,
}

impl CoreConfig {
    /// The default simulated core.
    pub fn default_sim() -> Self {
        Self {
            hierarchy: HierarchyConfig::default_sim(),
            tlb: TlbConfig::default_sim(),
            predictor: PredictorConfig::default_sim(),
            timing: TimingConfig::default_sim(),
        }
    }
}

/// One simulated core: caches, TLB, predictor, and retirement counters.
#[derive(Debug, Clone)]
pub struct Cpu {
    cfg: CoreConfig,
    hierarchy: Hierarchy,
    tlb: Tlb,
    predictor: Predictor,
    stats: ExecStats,
    /// Extra cycles accumulated from memory/branch penalties.
    penalty_cycles: u64,
    /// The stream engine's cross-call memo of the last driven pass, which
    /// lets a measure-phase replay collapse against the fixed point a
    /// warmup-phase replay already witnessed.
    stream_memo: crate::stream::StreamMemo,
}

impl Cpu {
    /// Creates a cold core.
    pub fn new(cfg: CoreConfig) -> Self {
        Self {
            cfg,
            hierarchy: Hierarchy::new(cfg.hierarchy),
            tlb: Tlb::new(cfg.tlb),
            predictor: Predictor::new(cfg.predictor),
            stats: ExecStats::default(),
            penalty_cycles: 0,
            stream_memo: crate::stream::StreamMemo::default(),
        }
    }

    /// The core configuration.
    pub fn config(&self) -> CoreConfig {
        self.cfg
    }

    /// Executes a program, accumulating statistics on top of current state.
    pub fn run(&mut self, program: &Program) {
        let mut visitor = |i: Instruction| self.execute(i);
        // Split borrow: `visit` needs `&mut` access to `self` via the
        // closure, so route through a raw method instead.
        program.visit(&mut visitor);
        self.finalize_cycles();
    }

    /// Replays a recorded trace at its recorded trip counts, producing
    /// [`ExecStats`] bit-identical to [`Cpu::run`] on the source program.
    ///
    /// Analytic counts (FP/integer/nop retirement, uops, forced-outcome
    /// branch verdicts) are multiplied by the trip count; only the
    /// stateful units — TLB, cache hierarchy, and (when a branch consults
    /// it) the predictor — are actually re-driven, in the original stream
    /// order, so their statistics and penalties accumulate exactly as
    /// under direct execution.
    pub fn replay(&mut self, trace: &KernelTrace) {
        for seg in &trace.segments {
            self.replay_segment(seg, seg.trips);
        }
        self.finalize_cycles();
    }

    /// Replays a trace with every top-level loop's trip count overridden
    /// to `passes` (straight-line segments are unaffected).
    ///
    /// This is how one recording serves both warmup and measurement when
    /// the two differ only in pass count (the stream of one pass is
    /// identical): record the kernel once, replay it at each pass count.
    pub fn replay_passes(&mut self, trace: &KernelTrace, passes: u64) {
        for seg in &trace.segments {
            let trips = if seg.looped { passes } else { seg.trips };
            self.replay_segment(seg, trips);
        }
        self.finalize_cycles();
    }

    fn replay_segment(&mut self, seg: &Segment, trips: u64) {
        if trips == 0 {
            return;
        }
        let c = &seg.counts;
        for (slot, &n) in self.stats.fp.iter_mut().zip(&c.fp) {
            *slot += n * trips;
        }
        for (slot, &n) in self.stats.int_ops.iter_mut().zip(&c.int_ops) {
            *slot += n * trips;
        }
        self.stats.loads += c.loads * trips;
        self.stats.stores += c.stores * trips;
        self.stats.nops += c.nops * trips;
        self.stats.instructions += c.instructions * trips;
        self.stats.uops += c.uops * trips;
        let bs = &mut self.predictor.stats;
        bs.uncond_retired += c.uncond * trips;
        bs.calls += c.calls * trips;
        bs.rets += c.rets * trips;
        if seg.overhead {
            // Synthesized counted-loop control: add + cmp + back-edge per
            // iteration; the back-edge is taken except on the last trip.
            self.stats.int_ops[0] += trips;
            self.stats.int_ops[2] += trips;
            self.stats.instructions += 3 * trips;
            self.stats.uops += 3 * trips;
        }
        if seg.needs_predictor {
            // At least one branch consults the live predictor: replay every
            // conditional branch in order (global history couples them all),
            // including the synthesized back-edge.
            for iter in 0..trips {
                for cb in &seg.cond {
                    if self.predictor.retire_cond(cb.site, cb.taken, cb.forced_mispredict) {
                        self.penalty_cycles += self.cfg.timing.mispredict_penalty;
                    }
                }
                if seg.overhead {
                    self.predictor.retire_cond(seg.site, iter + 1 != trips, Some(false));
                }
            }
        } else {
            // All outcomes forced: verdicts and tallies are state-independent.
            let bs = &mut self.predictor.stats;
            bs.cond_retired += c.cond_retired * trips;
            bs.cond_taken += c.cond_taken * trips;
            bs.cond_not_taken += c.cond_not_taken * trips;
            bs.mispredicted += c.mispredicted * trips;
            bs.mispredicted_taken += c.mispredicted_taken * trips;
            self.penalty_cycles += c.mispredicted * trips * self.cfg.timing.mispredict_penalty;
            if seg.overhead {
                bs.cond_retired += trips;
                bs.cond_taken += trips - 1;
                bs.cond_not_taken += 1;
            }
        }
        // The stateful residue: the stream engine drives the TLB and
        // hierarchy with the recorded stream, hoisting per-access
        // bookkeeping and collapsing steady-state passes analytically.
        self.penalty_cycles += crate::stream::replay_mem(
            &mut self.tlb,
            &mut self.hierarchy,
            &seg.mem,
            trips,
            &self.cfg.timing,
            &mut self.stream_memo,
        );
    }

    fn execute(&mut self, i: Instruction) {
        self.stats.instructions += 1;
        match i {
            Instruction::Fp { prec, width, kind } => {
                self.stats.fp[fp_index(prec, width, kind)] += 1;
                self.stats.uops += 1;
            }
            Instruction::Int(kind) => {
                let idx = match kind {
                    IntKind::Add => 0,
                    IntKind::Mul => 1,
                    IntKind::Cmp => 2,
                    IntKind::Logic => 3,
                };
                self.stats.int_ops[idx] += 1;
                self.stats.uops += 1;
            }
            Instruction::Load { addr, .. } => {
                self.stats.loads += 1;
                self.stats.uops += 1;
                if !self.tlb.translate(addr) {
                    self.penalty_cycles += self.cfg.timing.tlb_walk_latency;
                }
                let level = self.hierarchy.access(addr, AccessKind::Read);
                self.penalty_cycles += match level {
                    crate::hierarchy::MemLevel::L1 => 0,
                    crate::hierarchy::MemLevel::L2 => self.cfg.timing.l2_latency,
                    crate::hierarchy::MemLevel::L3 => self.cfg.timing.l3_latency,
                    crate::hierarchy::MemLevel::Memory => self.cfg.timing.memory_latency,
                };
            }
            Instruction::Store { addr, .. } => {
                self.stats.stores += 1;
                self.stats.uops += 2; // store address + store data
                if !self.tlb.translate(addr) {
                    self.penalty_cycles += self.cfg.timing.tlb_walk_latency;
                }
                self.hierarchy.access(addr, AccessKind::Write);
            }
            Instruction::CondBranch(cb) => {
                self.stats.uops += 1;
                let mispredicted =
                    self.predictor.retire_cond(cb.site, cb.taken, cb.forced_mispredict);
                if mispredicted {
                    self.penalty_cycles += self.cfg.timing.mispredict_penalty;
                }
            }
            Instruction::UncondBranch => {
                self.stats.uops += 1;
                self.predictor.retire_uncond();
            }
            Instruction::Call => {
                self.stats.uops += 2;
                self.predictor.retire_call();
            }
            Instruction::Ret => {
                self.stats.uops += 1;
                self.predictor.retire_ret();
            }
            Instruction::Nop => {
                self.stats.nops += 1;
                self.stats.uops += 1;
            }
        }
    }

    fn finalize_cycles(&mut self) {
        let issue = self.stats.uops.div_ceil(self.cfg.timing.issue_width);
        self.stats.cycles = issue + self.penalty_cycles;
    }

    /// A snapshot of the statistics including sub-unit counters.
    pub fn stats(&self) -> ExecStats {
        let mut s = self.stats.clone();
        s.branch = self.predictor.stats;
        s.memory = self.hierarchy.stats();
        s.tlb = self.tlb.stats;
        s
    }

    /// Stream-engine counters (memo hits/misses, collapsed passes) for the
    /// observer layer — separate from [`Cpu::stats`] because they describe
    /// the *engine*, not the simulated hardware, and must never enter a
    /// `MeasurementSet`.
    pub fn stream_stats(&self) -> crate::stream::StreamStats {
        self.stream_memo.stats()
    }

    /// Clears statistics but keeps microarchitectural state (warm caches,
    /// trained predictor) — called between warmup and measurement.
    pub fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
        self.penalty_cycles = 0;
        self.hierarchy.reset_stats();
        self.tlb.reset_stats();
        self.predictor.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Block;

    fn fp_block(n: usize) -> Block {
        Block::new().repeat(Instruction::fp(Precision::Double, VecWidth::Scalar, FpKind::Add), n)
    }

    #[test]
    fn counts_fp_instructions_exactly() {
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        let p = Program::new().counted_loop(fp_block(24), 10, 0);
        cpu.run(&p);
        let s = cpu.stats();
        assert_eq!(s.fp_class(Precision::Double, VecWidth::Scalar, FpKind::Add), 240);
        assert_eq!(s.fp_filtered(Some(Precision::Double), Some(VecWidth::Scalar), 2), 240);
        assert_eq!(s.fp_filtered(Some(Precision::Single), None, 2), 0);
        assert_eq!(s.flops(Precision::Double), 240);
    }

    #[test]
    fn fma_weighting() {
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        let b = Block::new()
            .repeat(Instruction::fp(Precision::Double, VecWidth::V256, FpKind::Fma), 12);
        let p = Program::new().counted_loop(b, 1, 0);
        cpu.run(&p);
        let s = cpu.stats();
        // Intel-style event: 12 FMA instructions counted twice.
        assert_eq!(s.fp_filtered(Some(Precision::Double), Some(VecWidth::V256), 2), 24);
        // Plain instruction count.
        assert_eq!(s.fp_filtered(Some(Precision::Double), Some(VecWidth::V256), 1), 12);
        // FLOPs: 12 instr x 4 lanes x 2 ops = 96 (paper's K256_FMA example).
        assert_eq!(s.flops(Precision::Double), 96);
    }

    #[test]
    fn loop_overhead_produces_int_and_branches() {
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        let p = Program::new().counted_loop(fp_block(4), 100, 0);
        cpu.run(&p);
        let s = cpu.stats();
        assert_eq!(s.int_total(), 200); // add + cmp per iteration
        assert_eq!(s.branch.cond_retired, 100);
        assert_eq!(s.branch.cond_taken, 99); // final iteration falls through
        assert_eq!(s.branch.mispredicted, 0);
        assert_eq!(s.instructions, 4 * 100 + 3 * 100);
    }

    #[test]
    fn loads_drive_the_hierarchy_and_tlb() {
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        let mut b = Block::new();
        for i in 0..64u64 {
            b = b.push(Instruction::Load { addr: i * 64, size: 8 });
        }
        let p = Program::new().bare_loop(b, 2);
        cpu.run(&p);
        let s = cpu.stats();
        assert_eq!(s.loads, 128);
        assert_eq!(s.memory.loads_miss_l1, 64, "first pass misses");
        assert_eq!(s.memory.loads_hit_l1, 64, "second pass hits (fits in 16 KiB L1)");
        assert_eq!(s.tlb.misses, 1, "single 4 KiB page");
    }

    #[test]
    fn cycles_increase_with_misses() {
        let cfg = CoreConfig::default_sim();
        let mut hit_cpu = Cpu::new(cfg);
        let mut miss_cpu = Cpu::new(cfg);
        let same_line = Block::new().repeat(Instruction::Load { addr: 0, size: 8 }, 64);
        let mut spread = Block::new();
        for i in 0..64u64 {
            // Distinct pages: every load misses TLB and caches.
            spread = spread.push(Instruction::Load { addr: i * 1024 * 1024, size: 8 });
        }
        hit_cpu.run(&Program::new().bare_loop(same_line, 1));
        miss_cpu.run(&Program::new().bare_loop(spread, 1));
        assert!(miss_cpu.stats().cycles > hit_cpu.stats().cycles * 5);
    }

    #[test]
    fn reset_stats_keeps_warm_state() {
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        let b = Block::new().push(Instruction::Load { addr: 0, size: 8 });
        cpu.run(&Program::new().bare_loop(b.clone(), 1));
        cpu.reset_stats();
        cpu.run(&Program::new().bare_loop(b, 1));
        let s = cpu.stats();
        assert_eq!(s.memory.loads_hit_l1, 1, "cache stayed warm across reset_stats");
        assert_eq!(s.loads, 1);
    }

    /// Runs `p` directly and via record/replay on two cold cores and
    /// asserts the resulting statistics are bit-identical.
    fn assert_replay_parity(p: &Program) {
        let mut direct = Cpu::new(CoreConfig::default_sim());
        direct.run(p);
        let mut replayed = Cpu::new(CoreConfig::default_sim());
        replayed.replay(&KernelTrace::record(p));
        assert_eq!(direct.stats(), replayed.stats());
    }

    #[test]
    fn replay_matches_run_for_fp_kernels() {
        assert_replay_parity(&Program::new().counted_loop(fp_block(24), 10, 0));
    }

    #[test]
    fn replay_matches_run_for_memory_kernels() {
        let mut b = Block::new();
        for i in 0..300u64 {
            // Stride past L1 capacity so every level and the TLB engage.
            b = b.push(Instruction::Load { addr: (i * 97 % 256) * 4096, size: 8 });
        }
        b = b.push(Instruction::Store { addr: 64, size: 8 });
        b = b.push(Instruction::Load { addr: 128, size: 8 });
        assert_replay_parity(&Program::new().counted_loop(b, 3, 5));
    }

    #[test]
    fn replay_matches_run_for_predictor_branches() {
        let mut b = Block::new();
        for i in 0..32u32 {
            // Live predictor branches with a data-like pattern plus forced
            // ones interleaved: the whole stream must replay in order.
            b = b.push(Instruction::cond(i % 5, i % 3 == 0));
            b = b.push(Instruction::cond_forced(9, i % 2 == 0, i % 7 == 0));
        }
        assert_replay_parity(&Program::new().counted_loop(b, 7, 2));
    }

    #[test]
    fn replay_matches_run_for_nested_loops_and_misc() {
        let inner = crate::program::Item::Loop {
            body: vec![crate::program::Item::Block(
                Block::new()
                    .push(Instruction::Load { addr: 0, size: 8 })
                    .push(Instruction::Call)
                    .push(Instruction::Ret)
                    .push(Instruction::UncondBranch)
                    .push(Instruction::Nop),
            )],
            trips: 4,
            overhead: true,
            site: 1,
        };
        let p = Program::new().item(crate::program::Item::Loop {
            body: vec![inner],
            trips: 6,
            overhead: true,
            site: 0,
        });
        assert_replay_parity(&p);
    }

    #[test]
    fn replay_passes_overrides_loop_trips() {
        let mut b = Block::new();
        for i in 0..16u64 {
            b = b.push(Instruction::Load { addr: i * 4096, size: 8 });
        }
        let trace = KernelTrace::record(&Program::new().counted_loop(b.clone(), 4, 0));
        let mut direct = Cpu::new(CoreConfig::default_sim());
        direct.run(&Program::new().counted_loop(b, 9, 0));
        let mut replayed = Cpu::new(CoreConfig::default_sim());
        replayed.replay_passes(&trace, 9);
        assert_eq!(direct.stats(), replayed.stats());
    }

    #[test]
    fn replay_preserves_warm_state_across_reset_stats() {
        let mut b = Block::new();
        for i in 0..64u64 {
            b = b.push(Instruction::Load { addr: i * 64, size: 8 });
        }
        let warm = Program::new().counted_loop(b.clone(), 2, 0);
        let meas = Program::new().counted_loop(b, 2, 0);
        let mut direct = Cpu::new(CoreConfig::default_sim());
        direct.run(&warm);
        direct.reset_stats();
        direct.run(&meas);
        let trace = KernelTrace::record(&meas);
        let mut replayed = Cpu::new(CoreConfig::default_sim());
        replayed.replay_passes(&trace, 2);
        replayed.reset_stats();
        replayed.replay_passes(&trace, 2);
        assert_eq!(direct.stats(), replayed.stats());
    }

    #[test]
    fn stores_and_misc_instructions() {
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        let b = Block::new()
            .push(Instruction::Store { addr: 64, size: 8 })
            .push(Instruction::UncondBranch)
            .push(Instruction::Call)
            .push(Instruction::Ret)
            .push(Instruction::Nop)
            .push(Instruction::Int(IntKind::Logic));
        cpu.run(&Program::new().bare_loop(b, 3));
        let s = cpu.stats();
        assert_eq!(s.stores, 3);
        assert_eq!(s.branch.uncond_retired, 3);
        assert_eq!(s.branch.calls, 3);
        assert_eq!(s.branch.rets, 3);
        assert_eq!(s.nops, 3);
        assert_eq!(s.int_ops[3], 3);
        assert_eq!(s.branch.all_branches(), 9);
    }
}
