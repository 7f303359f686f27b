//! Fast-path replay of recorded memory streams.
//!
//! [`crate::cpu::Cpu::replay_passes`] spends almost all of its time
//! re-driving the TLB and cache hierarchy with a recorded address stream,
//! one pass per loop trip. This module replays that stream with three
//! exact optimizations:
//!
//! * **Hoisted bookkeeping.** Each access runs the same per-set lookup and
//!   install as [`crate::hierarchy::Hierarchy::access`], but the
//!   per-access statistics dispatch, load-level attribution, and latency
//!   arithmetic are replaced by bulk counters (accesses satisfied per
//!   level, split by kind, plus prefetch fills) flushed once per pass.
//! * **Steady-state pass collapse.** Unit state is folded to a *canonical
//!   form* capturing exactly what a future stream can observe — the slot
//!   rows themselves (recency order under LRU and in the TLB, way order
//!   under TreePlru and Random), plus the pLRU bit words under TreePlru or
//!   the xorshift state under Random (see `Cache::canonical_into`). When
//!   the canonical state before a pass equals the canonical state before
//!   the previous pass, every remaining pass must repeat that pass's
//!   decisions exactly, so the remaining trips are settled analytically:
//!   stats and penalties are multiplied out and the stream is never
//!   touched again.
//! * **Cross-call memoization.** In-call collapse still needs one driven
//!   pass as its comparison point, so the warmup-then-measure call pair
//!   every runner issues would drive a measured pass anyway. The
//!   [`StreamMemo`] carries driven fixed-point candidates (stream copy,
//!   canonical pre-state, tally) across calls in a small table keyed by
//!   stream identity: a call whose entry state matches the canonical
//!   state a previous driven pass over the same stream started from
//!   collapses all of its trips without touching the stream once. The
//!   table holds [`MEMO_CAPACITY`] streams so multi-segment kernels
//!   (dstore's mixed load/store program) keep one entry per segment
//!   instead of thrashing a single slot.
//!
//! This is the only memory path of replay: it covers every cache geometry,
//! replacement policy and the next-line prefetcher. The parity tests below
//! pin bit-identical statistics, penalties, prefetch fills, and future
//! behavior against per-address `Tlb::translate` + `Hierarchy::access` —
//! the calls `Cpu::run` makes — for fitting, thrashing, and mixed streams
//! under every policy × prefetch combination and the widest (64-way)
//! pseudo-LRU tree.

use crate::cache::AccessKind;
use crate::cpu::TimingConfig;
use crate::hierarchy::{Hierarchy, MemLevel};
use crate::tlb::Tlb;
use crate::trace::MemRun;

/// Minimum accesses per pass before canonicalization is attempted: below
/// this, copying and comparing ~19k state slots per pass costs more than
/// driving the stream. Purely a performance threshold — results are identical
/// either way.
const COLLAPSE_MIN_ACCESSES: u64 = 2048;

/// Memoized streams kept per [`StreamMemo`]. The runners' kernels have at
/// most a handful of distinct segments (dstore interleaves two), so a
/// small table already removes all cross-segment thrashing; the bound
/// keeps the per-pass lookup a short linear scan and the per-`Cpu`
/// footprint predictable.
const MEMO_CAPACITY: usize = 8;

/// Everything one pass over the stream did, bucketed by the level that
/// satisfied each access and by access kind. All derived statistics
/// (per-level hit/miss splits, load attribution, prefetch fills, and
/// latency penalties) are linear in these buckets, which is what makes
/// collapsed passes exact.
#[derive(Debug, Default, Clone, Copy)]
struct PassTally {
    /// Demand reads satisfied at L1/L2/L3/memory.
    read_lv: [u64; 4],
    /// Writes satisfied at L1/L2/L3/memory.
    write_lv: [u64; 4],
    /// TLB hits.
    tlb_hits: u64,
    /// TLB misses (page walks).
    tlb_misses: u64,
    /// Prefetch probes that missed L1 and filled it.
    prefetch_fills: u64,
}

/// Observer-facing counters for the stream engine, accumulated on the
/// `StreamMemo` that lives with each `Cpu`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamStats {
    /// Replay calls that collapsed straight off a memoized cross-call
    /// fixed point.
    pub memo_hits: u64,
    /// Replay calls whose entry state matched no memo entry (the stream
    /// had to be driven at least once).
    pub memo_misses: u64,
    /// Passes settled analytically instead of being driven.
    pub passes_collapsed: u64,
}

impl StreamStats {
    /// Accumulates another core's counters — runners sum the per-`Cpu`
    /// stats across a sweep before publishing them to the observer.
    pub fn merge(&mut self, other: StreamStats) {
        self.memo_hits += other.memo_hits;
        self.memo_misses += other.memo_misses;
        self.passes_collapsed += other.passes_collapsed;
    }
}

/// One memoized driven pass: the stream it drove, the canonical unit
/// state it started from, and its tally.
#[derive(Debug, Clone)]
struct MemoEntry {
    /// Per-run kind and length of the memoized stream.
    runs: Vec<(AccessKind, usize)>,
    /// All run addresses, concatenated in stream order.
    addrs: Vec<u64>,
    /// Canonical TLB + hierarchy state before the memoized pass.
    canon: Vec<u64>,
    /// What that pass did.
    tally: PassTally,
    /// Logical timestamp of the last hit or store, for LRU eviction.
    last_used: u64,
}

impl MemoEntry {
    fn matches_stream(&self, mem: &[MemRun]) -> bool {
        if self.runs.len() != mem.len()
            || !self
                .runs
                .iter()
                .zip(mem)
                .all(|(&(kind, len), run)| kind == run.kind && len == run.addrs.len())
        {
            return false;
        }
        let mut off = 0usize;
        mem.iter().all(|run| {
            let next = off + run.addrs.len();
            let eq = self.addrs[off..next] == run.addrs[..];
            off = next;
            eq
        })
    }
}

/// A cross-call memo of driven fixed-point candidates, keyed by stream
/// identity.
///
/// Steady-state collapse inside one [`replay_mem`] call needs at least one
/// driven pass to compare against, so a warmup call followed by a measure
/// call over the same stream (the runners' universal shape) still drives
/// one measured pass. The memo carries the comparison point *across*
/// calls: when a pass's entry state matches the canonical state a previous
/// driven pass started from — meaning that pass was a behavioral fixed
/// point — and the stream is byte-identical, every remaining trip
/// collapses without touching the stream.
///
/// The table holds up to [`MEMO_CAPACITY`] streams, replacing an entry
/// in-place when its stream recurs and evicting the least-recently-used
/// entry when a new stream arrives at capacity (logical `last_used`
/// timestamps, no wall clock). Multi-segment kernels that alternate
/// between segments therefore keep one entry per segment alive.
///
/// Soundness does not rest on hashing or identity heuristics: each entry
/// stores a full copy of the stream and the full canonical state, and a
/// hit requires both to compare equal. Any interleaved activity that
/// perturbs unit state changes the canonical form and simply misses.
#[derive(Debug, Clone, Default)]
pub(crate) struct StreamMemo {
    entries: Vec<MemoEntry>,
    /// Logical clock for `last_used` stamps.
    tick: u64,
    /// Hit/miss/collapse counters surfaced to the observer layer.
    stats: StreamStats,
}

impl StreamMemo {
    /// Finds a memoized pass over `mem` that started from exactly `canon`.
    fn lookup(&mut self, mem: &[MemRun], canon: &[u64]) -> Option<PassTally> {
        for entry in &mut self.entries {
            if entry.canon == canon && entry.matches_stream(mem) {
                self.tick += 1;
                entry.last_used = self.tick;
                return Some(entry.tally);
            }
        }
        None
    }

    /// Memoizes a driven pass, replacing this stream's entry if present,
    /// otherwise evicting the least-recently-used entry at capacity.
    fn store(&mut self, mem: &[MemRun], canon: &[u64], tally: PassTally) {
        self.tick += 1;
        if let Some(entry) = self.entries.iter_mut().find(|e| e.matches_stream(mem)) {
            entry.canon.clear();
            entry.canon.extend_from_slice(canon);
            entry.tally = tally;
            entry.last_used = self.tick;
            return;
        }
        if self.entries.len() >= MEMO_CAPACITY {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .unwrap_or(0);
            self.entries.swap_remove(victim);
        }
        let mut runs = Vec::with_capacity(mem.len());
        let mut addrs = Vec::new();
        for run in mem {
            runs.push((run.kind, run.addrs.len()));
            addrs.extend_from_slice(&run.addrs);
        }
        self.entries.push(MemoEntry {
            runs,
            addrs,
            canon: canon.to_vec(),
            tally,
            last_used: self.tick,
        });
    }

    /// Counter snapshot for the observer layer.
    pub(crate) fn stats(&self) -> StreamStats {
        self.stats
    }
}

fn level_index(level: MemLevel) -> usize {
    match level {
        MemLevel::L1 => 0,
        MemLevel::L2 => 1,
        MemLevel::L3 => 2,
        MemLevel::Memory => 3,
    }
}

impl PassTally {
    /// Penalty cycles one such pass contributes — identical arithmetic to
    /// direct execution: read latencies by satisfying level plus page
    /// walks (writes are penalized for walks but not for hierarchy
    /// latency; prefetches are free).
    fn penalty(&self, t: &TimingConfig) -> u64 {
        self.read_lv[1] * t.l2_latency
            + self.read_lv[2] * t.l3_latency
            + self.read_lv[3] * t.memory_latency
            + self.tlb_misses * t.tlb_walk_latency
    }

    /// Flushes `times` repetitions of this pass into unit statistics.
    fn flush(&self, tlb: &mut Tlb, hierarchy: &mut Hierarchy, times: u64) {
        let scale = |lv: [u64; 4]| lv.map(|n| n * times);
        tlb.add_stats(self.tlb_hits * times, self.tlb_misses * times);
        hierarchy.add_bulk_stats(scale(self.read_lv), scale(self.write_lv));
        hierarchy.add_prefetch_fills(self.prefetch_fills * times);
    }
}

/// Drives one full pass of the stream, mirroring direct execution's
/// per-address call sequence exactly, including the next-line prefetch
/// after every access satisfied below L1.
fn drive_pass(tlb: &mut Tlb, hierarchy: &mut Hierarchy, mem: &[MemRun]) -> PassTally {
    let mut tally = PassTally::default();
    let prefetch = hierarchy.prefetch_enabled();
    for run in mem {
        let is_read = run.kind == AccessKind::Read;
        if prefetch {
            for &addr in &run.addrs {
                if tlb.translate_fast(addr) {
                    tally.tlb_hits += 1;
                } else {
                    tally.tlb_misses += 1;
                }
                let level = hierarchy.access_fast(addr);
                let lv = if is_read { &mut tally.read_lv } else { &mut tally.write_lv };
                lv[level_index(level)] += 1;
                if level != MemLevel::L1 && hierarchy.prefetch_fast(addr) {
                    tally.prefetch_fills += 1;
                }
            }
        } else {
            let lv = if is_read { &mut tally.read_lv } else { &mut tally.write_lv };
            for &addr in &run.addrs {
                if tlb.translate_fast(addr) {
                    tally.tlb_hits += 1;
                } else {
                    tally.tlb_misses += 1;
                }
                // lint: allow(reachable_panic): level_index maps the four MemLevel variants to 0..4
                lv[level_index(hierarchy.access_fast(addr))] += 1;
            }
        }
    }
    tally
}

/// Replays `trips` passes of a recorded memory stream against the TLB and
/// hierarchy, returning the penalty cycles accrued. Statistics, penalties,
/// prefetch fills, and all future unit behavior are bit-identical to
/// calling `Tlb::translate` and `Hierarchy::access` per address, `trips`
/// times.
pub(crate) fn replay_mem(
    tlb: &mut Tlb,
    hierarchy: &mut Hierarchy,
    mem: &[MemRun],
    trips: u64,
    timing: &TimingConfig,
    memo: &mut StreamMemo,
) -> u64 {
    replay_mem_counted(tlb, hierarchy, mem, trips, timing, memo).0
}

/// [`replay_mem`] plus the number of passes actually driven (the rest
/// were collapsed analytically) — exposed for the collapse tests.
fn replay_mem_counted(
    tlb: &mut Tlb,
    hierarchy: &mut Hierarchy,
    mem: &[MemRun],
    trips: u64,
    timing: &TimingConfig,
    memo: &mut StreamMemo,
) -> (u64, u64) {
    let accesses_per_pass: u64 = mem.iter().map(|r| r.addrs.len() as u64).sum();
    if accesses_per_pass == 0 || trips == 0 {
        return (0, 0);
    }
    let try_collapse = accesses_per_pass >= COLLAPSE_MIN_ACCESSES;
    let mut canon_prev: Vec<u64> = Vec::new();
    let mut canon_cur: Vec<u64> = Vec::new();
    let mut have_prev = false;
    let mut penalty = 0u64;
    let mut last = PassTally::default();
    let mut driven = 0u64;
    let mut pass = 0u64;
    while pass < trips {
        let remaining = trips - pass;
        if try_collapse {
            canon_cur.clear();
            tlb.canonical_into(&mut canon_cur);
            hierarchy.canonical_into(&mut canon_cur);
            // A fixed point witnessed either within this call (the previous
            // driven pass started from this exact state) or by the memo (a
            // driven pass from an earlier call did, over the same stream):
            // every remaining pass must repeat that pass's decisions. The
            // memo is consulted on *every* pass, not just the first, so a
            // multi-segment kernel that re-enters a memoized steady state
            // after one transition pass still collapses the rest.
            let hit = if have_prev && canon_cur == canon_prev {
                Some(last)
            } else if let Some(tally) = memo.lookup(mem, &canon_cur) {
                memo.stats.memo_hits += 1;
                Some(tally)
            } else {
                if pass == 0 {
                    memo.stats.memo_misses += 1;
                }
                None
            };
            if let Some(tally) = hit {
                tally.flush(tlb, hierarchy, remaining);
                penalty += tally.penalty(timing) * remaining;
                memo.stats.passes_collapsed += remaining;
                // Collapsing repeats the fixed point, so the canonical
                // state is unchanged and `canon_cur` remains this stream's
                // valid entry state.
                memo.store(mem, &canon_cur, tally);
                return (penalty, driven);
            }
            std::mem::swap(&mut canon_prev, &mut canon_cur);
            have_prev = true;
        }
        last = drive_pass(tlb, hierarchy, mem);
        last.flush(tlb, hierarchy, 1);
        penalty += last.penalty(timing);
        driven += 1;
        pass += 1;
    }
    if try_collapse && have_prev {
        // `canon_prev` is the state the final driven pass started from;
        // memoize it so a subsequent call over the same stream can collapse
        // immediately if that pass turns out to have been a fixed point.
        memo.store(mem, &canon_prev, last);
    }
    (penalty, driven)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{AccessKind, CacheConfig, ReplacementPolicy};
    use crate::hierarchy::HierarchyConfig;
    use crate::tlb::TlbConfig;

    fn hierarchy_with(policy: ReplacementPolicy, prefetch: bool) -> HierarchyConfig {
        // Small geometry so fitting/thrashing regimes are cheap to hit.
        HierarchyConfig {
            l1: CacheConfig::with_policy(4 * 1024, 64, 8, policy),
            l2: CacheConfig::with_policy(16 * 1024, 64, 8, policy),
            l3: CacheConfig::with_policy(64 * 1024, 64, 16, policy),
            prefetch_next_line: prefetch,
        }
    }

    fn units_on(h: HierarchyConfig) -> (Tlb, Hierarchy) {
        let t = TlbConfig { entries: 16, associativity: 4, page_bytes: 4096 };
        (Tlb::new(t), Hierarchy::new(h))
    }

    fn units_with(policy: ReplacementPolicy, prefetch: bool) -> (Tlb, Hierarchy) {
        units_on(hierarchy_with(policy, prefetch))
    }

    fn units() -> (Tlb, Hierarchy) {
        units_with(ReplacementPolicy::Lru, false)
    }

    /// The reference semantics: the per-address `Tlb::translate` +
    /// `Hierarchy::access` calls and penalty arithmetic of `Cpu::execute`.
    fn reference_replay(
        tlb: &mut Tlb,
        hierarchy: &mut Hierarchy,
        mem: &[MemRun],
        trips: u64,
        timing: &TimingConfig,
    ) -> u64 {
        let mut penalty = 0u64;
        for _ in 0..trips {
            for run in mem {
                for &addr in &run.addrs {
                    if !tlb.translate(addr) {
                        penalty += timing.tlb_walk_latency;
                    }
                    let level = hierarchy.access(addr, run.kind);
                    if run.kind == AccessKind::Read {
                        penalty += match level {
                            MemLevel::L1 => 0,
                            MemLevel::L2 => timing.l2_latency,
                            MemLevel::L3 => timing.l3_latency,
                            MemLevel::Memory => timing.memory_latency,
                        };
                    }
                }
            }
        }
        penalty
    }

    fn assert_parity_under(policy: ReplacementPolicy, prefetch: bool, mem: &[MemRun], trips: u64) {
        assert_parity_on(hierarchy_with(policy, prefetch), mem, trips);
    }

    fn assert_parity_on(h: HierarchyConfig, mem: &[MemRun], trips: u64) {
        let timing = TimingConfig::default_sim();
        let (mut tlb_a, mut hier_a) = units_on(h);
        let (mut tlb_b, mut hier_b) = units_on(h);
        let pen_a = reference_replay(&mut tlb_a, &mut hier_a, mem, trips, &timing);
        let pen_b =
            replay_mem(&mut tlb_b, &mut hier_b, mem, trips, &timing, &mut StreamMemo::default());
        let tag = format!("{h:?}");
        assert_eq!(pen_a, pen_b, "{tag}: penalty cycles diverged");
        assert_eq!(tlb_a.stats, tlb_b.stats, "{tag}: TLB stats diverged");
        assert_eq!(hier_a.stats(), hier_b.stats(), "{tag}: hierarchy stats diverged");
        // Future behavior must match too: hit the same probe stream on
        // both and require identical outcomes (state equivalence).
        let probes: Vec<u64> = (0..512u64).map(|i| i * 4096 + (i % 7) * 64).collect();
        let levels = |h: &mut Hierarchy| -> Vec<MemLevel> {
            probes.iter().map(|&addr| h.access(addr, AccessKind::Read)).collect()
        };
        assert_eq!(
            levels(&mut hier_a),
            levels(&mut hier_b),
            "{tag}: post-replay hierarchy behavior diverged"
        );
        assert_eq!(
            hier_a.stats(),
            hier_b.stats(),
            "{tag}: post-replay stats (incl. prefetch fills) diverged"
        );
        let hits =
            |t: &mut Tlb| -> Vec<bool> { probes.iter().map(|&addr| t.translate(addr)).collect() };
        assert_eq!(hits(&mut tlb_a), hits(&mut tlb_b), "{tag}: post-replay TLB behavior diverged");
    }

    fn every_config() -> impl Iterator<Item = (ReplacementPolicy, bool)> {
        [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random]
            .into_iter()
            .flat_map(|p| [(p, false), (p, true)])
    }

    /// Deterministic pseudo-random addresses (xorshift, no deps).
    fn scramble(mut x: u64) -> u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    }

    fn chase(lines: u64, seed: u64) -> MemRun {
        let mut addrs: Vec<u64> = (0..lines).map(|i| i * 64).collect();
        let mut state = seed | 1;
        for i in (1..lines as usize).rev() {
            state = scramble(state);
            addrs.swap(i, (state % i as u64) as usize);
        }
        MemRun { kind: AccessKind::Read, addrs }
    }

    #[test]
    fn parity_for_fitting_working_set() {
        for (policy, prefetch) in every_config() {
            assert_parity_under(policy, prefetch, &[chase(32, 5)], 6);
        }
    }

    #[test]
    fn parity_for_thrashing_working_set() {
        // 4x the L3 line capacity: steady-state misses at every level.
        for (policy, prefetch) in every_config() {
            assert_parity_under(policy, prefetch, &[chase(4096, 9)], 4);
        }
    }

    #[test]
    fn parity_for_mixed_kind_runs_with_repeats() {
        // Repeated addresses within a pass and interleaved store runs.
        let loads = MemRun {
            kind: AccessKind::Read,
            addrs: (0..3000u64).map(|i| scramble(i + 11) % 2048 * 64).collect(),
        };
        let stores = MemRun {
            kind: AccessKind::Write,
            addrs: (0..600u64).map(|i| scramble(i + 29) % 512 * 64).collect(),
        };
        let tail = MemRun {
            kind: AccessKind::Read,
            addrs: (0..900u64).map(|i| scramble(i + 3) % 4096 * 64).collect(),
        };
        for (policy, prefetch) in every_config() {
            assert_parity_under(
                policy,
                prefetch,
                &[loads.clone(), stores.clone(), tail.clone()],
                3,
            );
        }
    }

    #[test]
    fn parity_for_a_64_way_plru_l3() {
        // The widest tree the per-set pLRU word holds: a stream four times
        // L3's capacity evicts through every node of the 64-way tree.
        for prefetch in [false, true] {
            let h = HierarchyConfig {
                l3: CacheConfig::with_policy(64 * 1024, 64, 64, ReplacementPolicy::TreePlru),
                ..hierarchy_with(ReplacementPolicy::Lru, prefetch)
            };
            assert_parity_on(h, &[chase(4096, 9)], 4);
            assert_parity_on(h, &[chase(32, 5)], 6);
        }
    }

    #[test]
    fn parity_below_the_collapse_threshold() {
        for (policy, prefetch) in every_config() {
            assert_parity_under(policy, prefetch, &[chase(8, 2)], 10);
        }
    }

    #[test]
    fn parity_for_l2_resident_prefetch_stream() {
        // Sequential-ish stream larger than L1 but inside L2, the regime
        // where the next-line prefetcher actually fires and hits.
        let mem = [MemRun {
            kind: AccessKind::Read,
            addrs: (0..4096u64).map(|i| (i % 128) * 64).collect(),
        }];
        for policy in
            [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random]
        {
            assert_parity_under(policy, true, &mem, 5);
        }
    }

    #[test]
    fn parity_across_warmup_reset_measure_sequences() {
        // The runner's shape: warmup passes, stats reset, measured passes.
        let timing = TimingConfig::default_sim();
        let mem = [chase(2048, 7)];
        for (policy, prefetch) in every_config() {
            let (mut tlb_a, mut hier_a) = units_with(policy, prefetch);
            let (mut tlb_b, mut hier_b) = units_with(policy, prefetch);
            // One memo across both calls, as in the Cpu: the measure call
            // may collapse straight off the warmup call's memoized fixed
            // point.
            let mut memo = StreamMemo::default();
            reference_replay(&mut tlb_a, &mut hier_a, &mem, 2, &timing);
            replay_mem(&mut tlb_b, &mut hier_b, &mem, 2, &timing, &mut memo);
            tlb_a.reset_stats();
            hier_a.reset_stats();
            tlb_b.reset_stats();
            hier_b.reset_stats();
            let pen_a = reference_replay(&mut tlb_a, &mut hier_a, &mem, 4, &timing);
            let pen_b = replay_mem(&mut tlb_b, &mut hier_b, &mem, 4, &timing, &mut memo);
            let tag = format!("{policy:?}/prefetch={prefetch}");
            assert_eq!(pen_a, pen_b, "{tag}");
            assert_eq!(tlb_a.stats, tlb_b.stats, "{tag}");
            assert_eq!(hier_a.stats(), hier_b.stats(), "{tag}");
        }
    }

    #[test]
    fn steady_passes_are_collapsed_not_driven() {
        let timing = TimingConfig::default_sim();
        let mem = [chase(2048, 13)];
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru] {
            let (mut tlb, mut hier) = units_with(policy, false);
            let mut memo = StreamMemo::default();
            let (_, driven) = replay_mem_counted(&mut tlb, &mut hier, &mem, 64, &timing, &mut memo);
            assert!(driven < 8, "{policy:?}: expected collapse, drove {driven}/64 passes");
            assert!(memo.stats().passes_collapsed >= 56, "{policy:?}: collapse counter");
        }
        // A *fitting* Random stream also collapses (no evictions, so the
        // xorshift state in the canonical form stays put); the thrashing
        // stream above would not, since every eviction advances the RNG.
        let fitting = [MemRun {
            kind: AccessKind::Read,
            addrs: (0..2048u64).map(|i| (i % 32) * 64).collect(),
        }];
        let (mut tlb, mut hier) = units_with(ReplacementPolicy::Random, false);
        let mut memo = StreamMemo::default();
        let (_, driven) = replay_mem_counted(&mut tlb, &mut hier, &fitting, 64, &timing, &mut memo);
        assert!(driven < 8, "Random fitting stream should collapse, drove {driven}/64");
    }

    #[test]
    fn memoized_fixed_point_collapses_across_calls() {
        // The runner's warmup/measure split: the warmup call memoizes its
        // last driven pass; the measure call starts from the same state
        // with the same stream and must not drive the stream at all.
        let timing = TimingConfig::default_sim();
        let mem = [chase(2048, 21)];
        let (mut tlb, mut hier) = units();
        let mut memo = StreamMemo::default();
        replay_mem_counted(&mut tlb, &mut hier, &mem, 4, &timing, &mut memo);
        tlb.reset_stats();
        hier.reset_stats();
        let (_, driven) = replay_mem_counted(&mut tlb, &mut hier, &mem, 8, &timing, &mut memo);
        assert_eq!(driven, 0, "measure call should collapse from the cross-call memo");
        assert!(memo.stats().memo_hits >= 1);
        // And the memo must not fire for a different stream.
        let other = [chase(2048, 33)];
        let (_, driven) = replay_mem_counted(&mut tlb, &mut hier, &other, 2, &timing, &mut memo);
        assert!(driven > 0, "a different stream must miss the memo");
        assert!(memo.stats().memo_misses >= 1);
    }

    #[test]
    fn keyed_memo_survives_alternating_segments() {
        // dstore's shape: two distinct segments (loads over one footprint,
        // stores over another) replayed alternately, each fitting L1
        // together. A single-slot memo thrashes — every call overwrites
        // the other segment's entry and drives two passes (one to seed the
        // in-call comparison point, one to witness the fixed point). The
        // keyed table keeps both entries, so after one full A/B cycle each
        // call drives at most the single transition pass that moves the
        // recency order from "other segment MRU" back to this segment's
        // memoized fixed point.
        let timing = TimingConfig::default_sim();
        let seg_a = [MemRun {
            kind: AccessKind::Read,
            addrs: (0..2048u64).map(|i| (i % 32) * 64).collect(),
        }];
        let seg_b = [MemRun {
            kind: AccessKind::Write,
            addrs: (0..2048u64).map(|i| (1000 + i % 32) * 64).collect(),
        }];
        let (mut tlb, mut hier) = units();
        let mut memo = StreamMemo::default();
        // Warmup cycle: fills both footprints and memoizes both segments.
        replay_mem_counted(&mut tlb, &mut hier, &seg_a, 4, &timing, &mut memo);
        replay_mem_counted(&mut tlb, &mut hier, &seg_b, 4, &timing, &mut memo);
        replay_mem_counted(&mut tlb, &mut hier, &seg_a, 4, &timing, &mut memo);
        replay_mem_counted(&mut tlb, &mut hier, &seg_b, 4, &timing, &mut memo);
        // Steady alternation: at most one driven (transition) pass per
        // call, the rest collapse off this segment's memo entry.
        for round in 0..4 {
            let (_, driven_a) =
                replay_mem_counted(&mut tlb, &mut hier, &seg_a, 6, &timing, &mut memo);
            assert!(driven_a <= 1, "round {round}: segment A drove {driven_a} passes");
            let (_, driven_b) =
                replay_mem_counted(&mut tlb, &mut hier, &seg_b, 6, &timing, &mut memo);
            assert!(driven_b <= 1, "round {round}: segment B drove {driven_b} passes");
        }
        assert!(memo.stats().memo_hits >= 8, "alternating segments must hit the keyed memo");
    }

    #[test]
    fn memo_table_is_bounded_and_evicts_lru() {
        let timing = TimingConfig::default_sim();
        let (mut tlb, mut hier) = units();
        let mut memo = StreamMemo::default();
        for seed in 0..12u64 {
            let mem = [chase(2048, 100 + seed * 2)];
            replay_mem_counted(&mut tlb, &mut hier, &mem, 2, &timing, &mut memo);
        }
        assert!(memo.entries.len() <= MEMO_CAPACITY, "table grew past capacity");
        assert_eq!(memo.entries.len(), MEMO_CAPACITY, "distinct streams should fill the table");
    }

    #[test]
    fn empty_stream_is_a_no_op() {
        let timing = TimingConfig::default_sim();
        let (mut tlb, mut hier) = units();
        let mut memo = StreamMemo::default();
        assert_eq!(replay_mem(&mut tlb, &mut hier, &[], 5, &timing, &mut memo), 0);
        assert_eq!(hier.stats().l1.accesses(), 0);
    }
}
