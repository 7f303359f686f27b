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

/// Per-iteration retirement counts of one segment's body — everything
/// about an iteration that does not depend on mutable hardware state.
///
/// The branch fields hold the *forced-outcome* analytic tallies; they are
/// only meaningful when the owning segment's `needs_predictor` is false
/// (otherwise every conditional branch is replayed through the live
/// predictor and these fields are ignored).
#[derive(Debug, Clone, Default)]
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

/// A maximal run of same-kind memory accesses, in stream order.
#[derive(Debug, Clone)]
pub(crate) struct MemRun {
    /// Load or store.
    pub(crate) kind: AccessKind,
    /// Virtual addresses, in access order.
    pub(crate) addrs: Vec<u64>,
}

/// One top-level program item, flattened: a single recorded iteration
/// plus the trip count to replay it at.
#[derive(Debug, Clone)]
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
    pub(crate) mem: Vec<MemRun>,
    /// Ordered per-iteration conditional branches (body only). Replayed
    /// through the live predictor iff `needs_predictor`.
    pub(crate) cond: Vec<CondBranch>,
    /// True when any body branch leaves its verdict to the predictor, in
    /// which case branch state/statistics cannot be computed analytically.
    pub(crate) needs_predictor: bool,
}

/// A recorded kernel: the compact, replayable form of a [`Program`].
#[derive(Debug, Clone)]
pub struct KernelTrace {
    /// One segment per top-level program item, in order.
    pub(crate) segments: Vec<Segment>,
}

impl KernelTrace {
    /// Records `program` by walking each top-level item once.
    pub fn record(program: &Program) -> Self {
        Self { segments: program.items.iter().map(Segment::record).collect() }
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
            counts: BodyCounts { fp: vec![0; 3 * 4 * 6], ..BodyCounts::default() },
            mem: Vec::new(),
            cond: Vec::new(),
            needs_predictor: false,
        };
        // One iteration of the body: nested loops are fully unrolled here
        // (their per-iteration stream repeats identically across outer
        // iterations, including nested back-edge taken/fall-through flags).
        for sub in unit {
            crate::program::visit_item(sub, &mut |i| seg.absorb(i));
        }
        seg
    }

    fn absorb(&mut self, i: Instruction) {
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
                c.loads += 1;
                c.uops += 1;
                self.push_mem(AccessKind::Read, addr);
            }
            Instruction::Store { addr, .. } => {
                c.stores += 1;
                c.uops += 2; // store address + store data
                self.push_mem(AccessKind::Write, addr);
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

    fn push_mem(&mut self, kind: AccessKind, addr: u64) {
        match self.mem.last_mut() {
            Some(run) if run.kind == kind => run.addrs.push(addr),
            _ => self.mem.push(MemRun { kind, addrs: vec![addr] }),
        }
    }

    #[cfg(test)]
    fn body_instructions(&self) -> u64 {
        self.counts.instructions
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
