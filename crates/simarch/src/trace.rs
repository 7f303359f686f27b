//! Memoized kernel traces: record a program's deterministic instruction
//! stream once, replay it cheaply many times.
//!
//! Every CAT kernel is a counted loop whose body retires the *same*
//! dynamic stream on every iteration — the programs are deterministic by
//! construction (no data-dependent control flow). [`KernelTrace::record`]
//! exploits that: it walks each top-level item **once**, flattening a
//! single iteration into
//!
//! * analytic per-iteration retirement counts (`BodyCounts`) for every
//!   unit whose statistics don't depend on mutable state (FP/integer/nop
//!   retirement, uop expansion, forced-outcome branch verdicts), and
//! * the stateful residue that must actually be re-executed: the ordered
//!   memory-access stream (coalesced into same-kind `MemRun`s) and, when
//!   any branch consults the real predictor, the ordered conditional
//!   branches.
//!
//! [`crate::cpu::Cpu::replay`] then multiplies the analytic counts by the
//! trip count and re-drives only the TLB/cache/predictor state machines,
//! producing [`crate::cpu::ExecStats`] bit-identical to direct
//! [`crate::cpu::Cpu::run`] execution (pinned by this module's tests and
//! the cross-crate parity suites). Replay is where the measurement sweeps
//! spend their time, so the hot loops run over dense address arrays
//! instead of re-walking program structure per instruction.
//!
//! A segment's stream is an immutable `Arc<[MemRun]>`: the stream memo
//! of `crate::stream` holds a reference to it instead of a copy. The
//! memory-chase kernels, one counted loop of same-kind accesses, skip the
//! recording altogether: [`KernelTrace::counted_accesses`] builds their
//! trace from the address vector, equal to what `record` would make.
//!
//! Memoization keying is the caller's job: a trace is valid for exactly
//! the `(program structure, address stream)` it recorded, so runners key
//! traces by the kernel parameters that generated the program (sweep
//! point, seed, pass count — see `replay_passes` for the one exception:
//! a top-level counted loop's trip count may be overridden at replay
//! time, which is how one recording serves both warmup and measurement).

use crate::cache::AccessKind;
use crate::cpu::fp_index;
use crate::isa::{CondBranch, Instruction, IntKind};
use crate::program::{Item, Program};
use std::sync::Arc;

/// Per-iteration retirement counts of one segment's body — everything
/// about an iteration that does not depend on mutable hardware state.
///
/// The branch fields hold the *forced-outcome* analytic tallies; they are
/// only meaningful when the owning segment's `needs_predictor` is false
/// (otherwise every conditional branch is replayed through the live
/// predictor and these fields are ignored).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct BodyCounts {
    /// FP retirements per `(precision, width, kind)` class (dense grid).
    pub(crate) fp: Vec<u64>,
    /// Integer retirements per kind (Add, Mul, Cmp, Logic).
    pub(crate) int_ops: [u64; 4],
    /// Loads retired.
    pub(crate) loads: u64,
    /// Stores retired.
    pub(crate) stores: u64,
    /// No-ops retired.
    pub(crate) nops: u64,
    /// Unconditional direct branches retired.
    pub(crate) uncond: u64,
    /// Calls retired.
    pub(crate) calls: u64,
    /// Returns retired.
    pub(crate) rets: u64,
    /// All instructions retired.
    pub(crate) instructions: u64,
    /// Micro-ops issued.
    pub(crate) uops: u64,
    /// Conditional branches retired (forced-outcome analytic tally).
    pub(crate) cond_retired: u64,
    /// ... of which taken.
    pub(crate) cond_taken: u64,
    /// ... of which not taken.
    pub(crate) cond_not_taken: u64,
    /// ... of which mispredicted (forced verdicts are state-independent).
    pub(crate) mispredicted: u64,
    /// ... mispredicted *and* taken.
    pub(crate) mispredicted_taken: u64,
}

impl BodyCounts {
    /// All counts zero, with the dense FP grid allocated.
    fn zero() -> Self {
        Self { fp: vec![0; 3 * 4 * 6], ..Self::default() }
    }

    /// Counts `n` retired loads (`Read`) or stores (`Write`) and their
    /// uops: one per load, two per store (store address + store data).
    fn add_accesses(&mut self, kind: AccessKind, n: u64) {
        match kind {
            AccessKind::Read => {
                self.loads += n;
                self.uops += n;
            }
            AccessKind::Write => {
                self.stores += n;
                self.uops += 2 * n;
            }
        }
    }
}

/// A maximal run of same-kind memory accesses, in stream order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MemRun {
    /// Load or store.
    pub(crate) kind: AccessKind,
    /// Virtual addresses, in access order.
    pub(crate) addrs: Vec<u64>,
}

/// One top-level program item, flattened: a single recorded iteration
/// plus the trip count to replay it at.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Segment {
    /// Trip count recorded from the program (1 for straight-line blocks).
    pub(crate) trips: u64,
    /// Whether this segment came from a top-level loop (and its trip count
    /// may therefore be overridden by `Cpu::replay_passes`).
    pub(crate) looped: bool,
    /// Whether the loop synthesizes counted-loop control overhead.
    pub(crate) overhead: bool,
    /// Predictor site of the synthesized back-edge branch.
    pub(crate) site: u32,
    /// Analytic per-iteration counts (body only; overhead is added
    /// separately at replay).
    pub(crate) counts: BodyCounts,
    /// Ordered per-iteration memory stream, coalesced by access kind.
    /// Immutable once built and shared, not copied, with the stream memo
    /// (`crate::stream::StreamMemo`).
    pub(crate) mem: Arc<[MemRun]>,
    /// Ordered per-iteration conditional branches (body only). Replayed
    /// through the live predictor iff `needs_predictor`.
    pub(crate) cond: Vec<CondBranch>,
    /// True when any body branch leaves its verdict to the predictor, in
    /// which case branch state/statistics cannot be computed analytically.
    pub(crate) needs_predictor: bool,
}

/// A recorded kernel: the compact, replayable form of a [`Program`].
#[derive(Debug, Clone, PartialEq)]
pub struct KernelTrace {
    /// One segment per top-level program item, in order.
    pub(crate) segments: Vec<Segment>,
}

impl KernelTrace {
    /// Records `program` by walking each top-level item once.
    pub fn record(program: &Program) -> Self {
        Self { segments: program.items.iter().map(Segment::record).collect() }
    }

    /// The trace of a counted loop whose body accesses each of `addrs` once,
    /// in order, with `kind` — equal to [`KernelTrace::record`] of
    /// `Program::new().counted_loop(block, trips, site)` for a block of one
    /// load (`Read`) or store (`Write`) per address.
    ///
    /// The chase kernels are exactly this shape, and their streams run to
    /// hundreds of thousands of addresses per sweep point. Building the
    /// trace here moves `addrs` into the segment's stream and fills the
    /// counts analytically, where recording would first expand every
    /// address into an instruction and then copy it back out.
    pub fn counted_accesses(kind: AccessKind, addrs: Vec<u64>, trips: u64, site: u32) -> Self {
        let mut counts = BodyCounts::zero();
        let n = addrs.len() as u64;
        counts.instructions = n;
        counts.add_accesses(kind, n);
        let mem = if addrs.is_empty() { Vec::new() } else { vec![MemRun { kind, addrs }] };
        let seg = Segment {
            trips,
            looped: true,
            overhead: true,
            site,
            counts,
            mem: mem.into(),
            cond: Vec::new(),
            needs_predictor: false,
        };
        Self { segments: vec![seg] }
    }

    /// Dynamic instructions one replay retires (matches
    /// [`Program::dynamic_length`] for the recorded trip counts).
    pub fn dynamic_length(&self) -> u64 {
        self.segments
            .iter()
            .map(|s| (s.counts.instructions + if s.overhead { 3 } else { 0 }) * s.trips)
            .sum()
    }
}

impl Segment {
    fn record(item: &Item) -> Self {
        let (trips, looped, overhead, site, unit): (u64, bool, bool, u32, &[Item]) = match item {
            Item::Block(_) => (1, false, false, 0, std::slice::from_ref(item)),
            Item::Loop { body, trips, overhead, site } => {
                (*trips, true, *overhead, *site, body.as_slice())
            }
        };
        let mut seg = Segment {
            trips,
            looped,
            overhead,
            site,
            counts: BodyCounts::zero(),
            mem: Arc::new([]),
            cond: Vec::new(),
            needs_predictor: false,
        };
        let mut mem = Vec::new();
        // One iteration of the body: nested loops are fully unrolled here
        // (their per-iteration stream repeats identically across outer
        // iterations, including nested back-edge taken/fall-through flags).
        for sub in unit {
            crate::program::visit_item(sub, &mut |i| seg.absorb(i, &mut mem));
        }
        seg.mem = mem.into();
        seg
    }

    /// Counts `i` and appends its access, if any, to `mem`.
    fn absorb(&mut self, i: Instruction, mem: &mut Vec<MemRun>) {
        let c = &mut self.counts;
        c.instructions += 1;
        match i {
            Instruction::Fp { prec, width, kind } => {
                c.fp[fp_index(prec, width, kind)] += 1;
                c.uops += 1;
            }
            Instruction::Int(kind) => {
                let idx = match kind {
                    IntKind::Add => 0,
                    IntKind::Mul => 1,
                    IntKind::Cmp => 2,
                    IntKind::Logic => 3,
                };
                c.int_ops[idx] += 1;
                c.uops += 1;
            }
            Instruction::Load { addr, .. } => {
                c.add_accesses(AccessKind::Read, 1);
                push_mem(mem, AccessKind::Read, addr);
            }
            Instruction::Store { addr, .. } => {
                c.add_accesses(AccessKind::Write, 1);
                push_mem(mem, AccessKind::Write, addr);
            }
            Instruction::CondBranch(cb) => {
                c.uops += 1;
                self.cond.push(cb);
                match cb.forced_mispredict {
                    None => self.needs_predictor = true,
                    Some(mispredict) => {
                        c.cond_retired += 1;
                        if cb.taken {
                            c.cond_taken += 1;
                        } else {
                            c.cond_not_taken += 1;
                        }
                        if mispredict {
                            c.mispredicted += 1;
                            if cb.taken {
                                c.mispredicted_taken += 1;
                            }
                        }
                    }
                }
            }
            Instruction::UncondBranch => {
                c.uncond += 1;
                c.uops += 1;
            }
            Instruction::Call => {
                c.calls += 1;
                c.uops += 2;
            }
            Instruction::Ret => {
                c.rets += 1;
                c.uops += 1;
            }
            Instruction::Nop => {
                c.nops += 1;
                c.uops += 1;
            }
        }
    }

    #[cfg(test)]
    fn body_instructions(&self) -> u64 {
        self.counts.instructions
    }
}

/// Appends one access to `mem`, extending the last run when it has the
/// same kind.
fn push_mem(mem: &mut Vec<MemRun>, kind: AccessKind, addr: u64) {
    match mem.last_mut() {
        Some(run) if run.kind == kind => run.addrs.push(addr),
        _ => mem.push(MemRun { kind, addrs: vec![addr] }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::{FpKind, Precision, VecWidth};
    use crate::program::Block;

    fn fp() -> Instruction {
        Instruction::fp(Precision::Double, VecWidth::Scalar, FpKind::Add)
    }

    #[test]
    fn records_one_iteration_per_segment() {
        let p = Program::new().counted_loop(Block::new().repeat(fp(), 24), 10, 0);
        let t = KernelTrace::record(&p);
        assert_eq!(t.segments.len(), 1);
        let s = &t.segments[0];
        assert_eq!(s.trips, 10);
        assert!(s.overhead && s.looped);
        assert_eq!(s.body_instructions(), 24);
        assert_eq!(t.dynamic_length(), p.dynamic_length());
    }

    #[test]
    fn straight_line_block_is_a_single_trip_segment() {
        let p = Program::new().item(Item::Block(Block::new().repeat(Instruction::Nop, 5)));
        let t = KernelTrace::record(&p);
        assert_eq!(t.segments[0].trips, 1);
        assert!(!t.segments[0].looped);
        assert_eq!(t.dynamic_length(), 5);
    }

    #[test]
    fn memory_stream_coalesces_same_kind_runs() {
        let b = Block::new()
            .push(Instruction::Load { addr: 0, size: 8 })
            .push(Instruction::Load { addr: 64, size: 8 })
            .push(Instruction::Store { addr: 128, size: 8 })
            .push(Instruction::Load { addr: 192, size: 8 });
        let t = KernelTrace::record(&Program::new().bare_loop(b, 2));
        let s = &t.segments[0];
        assert_eq!(s.mem.len(), 3, "load run / store run / load run");
        assert_eq!(s.mem[0].addrs, vec![0, 64]);
        assert_eq!(s.mem[1].addrs, vec![128]);
        assert_eq!(s.mem[2].addrs, vec![192]);
        assert_eq!(s.counts.loads, 3);
        assert_eq!(s.counts.stores, 1);
    }

    #[test]
    fn counted_accesses_equals_the_recorded_counted_loop() {
        let addrs: Vec<u64> = (0..37u64).map(|i| i * 4160 + i % 3 * 8).collect();
        for kind in [AccessKind::Read, AccessKind::Write] {
            for addrs in [addrs.clone(), Vec::new()] {
                for trips in [0, 1, 8] {
                    let access = |addr| match kind {
                        AccessKind::Read => Instruction::Load { addr, size: 8 },
                        AccessKind::Write => Instruction::Store { addr, size: 8 },
                    };
                    let block = Block::from(addrs.iter().map(|&a| access(a)).collect());
                    let recorded =
                        KernelTrace::record(&Program::new().counted_loop(block, trips, 5));
                    let built = KernelTrace::counted_accesses(kind, addrs.clone(), trips, 5);
                    let tag = format!("{kind:?}, {} addresses, {trips} trips", addrs.len());
                    assert_eq!(built, recorded, "{tag}");
                }
            }
        }
    }

    #[test]
    fn predictor_branches_flip_needs_predictor() {
        let forced = Block::new().push(Instruction::cond_forced(1, true, false));
        let live = Block::new().push(Instruction::cond(1, true));
        let tf = KernelTrace::record(&Program::new().bare_loop(forced, 4));
        let tl = KernelTrace::record(&Program::new().bare_loop(live, 4));
        assert!(!tf.segments[0].needs_predictor);
        assert_eq!(tf.segments[0].counts.cond_retired, 1);
        assert!(tl.segments[0].needs_predictor);
        assert_eq!(tl.segments[0].cond.len(), 1);
    }

    #[test]
    fn nested_loops_unroll_into_the_body() {
        let inner = Item::Loop {
            body: vec![Item::Block(Block::new().push(fp()))],
            trips: 4,
            overhead: true,
            site: 1,
        };
        let p = Program::new().item(Item::Loop {
            body: vec![inner],
            trips: 2,
            overhead: true,
            site: 0,
        });
        let t = KernelTrace::record(&p);
        let s = &t.segments[0];
        // Inner loop unrolled: 4 x (fp + add + cmp + branch) = 16 per outer
        // iteration; the outer overhead is synthesized at replay time.
        assert_eq!(s.body_instructions(), 16);
        assert_eq!(s.counts.cond_retired, 4, "nested back-edges are forced");
        assert_eq!(s.counts.cond_taken, 3);
        assert_eq!(t.dynamic_length(), p.dynamic_length());
    }
}
