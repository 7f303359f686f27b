//! A data-TLB benchmark — an *extension* beyond the paper's four domains,
//! exercising the methodology on a new hardware attribute (the paper's
//! future work: "different measures ... for other hardware components").
//!
//! The kernel chases pointers across a set of pages. Two parameters are
//! swept independently so that TLB behavior and cache behavior *decouple*
//! (the benchmark-design discipline behind all CAT kernels — attributes
//! that move together cannot be told apart by any analysis):
//!
//! * the **page count** drives the TLB: well inside the TLB's reach every
//!   translation hits, far beyond it every translation misses;
//! * the **lines touched per page** drive the caches: the same TLB-resident
//!   page count is run both cache-light (few lines) and cache-heavy (many
//!   lines, thrashing L1), so no cache event's curve matches the TLB step.
//!
//! The expectation basis has two ideal events — per-access TLB misses and
//! TLB hits — and the interesting discovery mirrors the paper's: no raw
//! event counts TLB *hits* directly, but the pipeline composes them as
//! `loads − page walks`.

use catalyze_sim::cache::AccessKind;
use catalyze_sim::program::Block;
use catalyze_sim::tlb::TlbConfig;
use catalyze_sim::{Instruction, KernelTrace, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Predictor site of the chase loop's back-edge branch.
const LOOP_SITE: u32 = 11;

/// One TLB-chase configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbChaseConfig {
    /// Number of distinct pages in the chain.
    pub pages: u64,
    /// Distinct cache lines touched per page (1..=64 for 4 KiB pages).
    pub lines_per_page: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl TlbChaseConfig {
    /// Total chase slots (distinct addresses) per pass.
    pub fn slots(&self) -> u64 {
        self.pages * self.lines_per_page
    }

    /// Whether this configuration lives in the TLB-hit region for `tlb`.
    pub fn is_hit_region(&self, tlb: &TlbConfig) -> bool {
        self.pages <= u64::from(tlb.entries) / 2
    }

    /// Point label.
    pub fn label(&self, tlb: &TlbConfig) -> String {
        let region = if self.is_hit_region(tlb) { "hit" } else { "miss" };
        format!("pages={}/lpp={}/{}", self.pages, self.lines_per_page, region)
    }

    /// Chase addresses: a single-cycle random permutation over all
    /// `(page, line)` slots. Line indices are offset by the page index so
    /// that even single-line-per-page configurations spread across cache
    /// sets instead of aliasing onto one.
    ///
    /// The permutation is held as `u32` slot indices, so a chain has at
    /// most `u32::MAX` slots; [`crate::RunnerConfig::validate`] rejects
    /// sweeps with longer ones.
    pub fn chase_addresses(&self, base: u64, seed: u64) -> Vec<u64> {
        let n = self.slots() as usize;
        let mut perm: Vec<u32> = (0..u32::MAX).take(n).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i);
            perm.swap(i, j);
        }
        let lines_in_page = (self.page_bytes / 64).max(1);
        let mut addrs = Vec::with_capacity(n);
        let mut slot = 0u32;
        for _ in 0..n {
            let page = u64::from(slot) % self.pages;
            let k = u64::from(slot) / self.pages;
            // Multiplicative hash of the page index decorrelates the line
            // offset from the page's own low bits; a plain `page % lines`
            // offset would leave the cache-set index a function of
            // `page mod 64` and re-create the aliasing this spread exists
            // to avoid.
            let spread = (page.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 40;
            let line = (k + spread) % lines_in_page;
            addrs.push(base + page * self.page_bytes + line * 64);
            slot = perm[slot as usize];
        }
        addrs
    }

    /// Program performing `passes` passes over the chain.
    pub fn program(&self, base: u64, seed: u64, passes: u64) -> Program {
        let addrs = self.chase_addresses(base, seed);
        let instructions = addrs.iter().map(|&addr| Instruction::Load { addr, size: 8 }).collect();
        let block = Block { instructions };
        Program::new().counted_loop(block, passes, LOOP_SITE)
    }

    /// The trace [`KernelTrace::record`] makes of [`Self::program`], built
    /// straight from the chase addresses.
    pub fn trace(&self, base: u64, seed: u64, passes: u64) -> KernelTrace {
        let addrs = self.chase_addresses(base, seed);
        KernelTrace::counted_accesses(AccessKind::Read, addrs, passes, LOOP_SITE)
    }
}

/// The benchmark sweep: three cache-light TLB-hit points, two cache-heavy
/// TLB-hit points (same page counts, many lines per page), and three
/// TLB-miss points. Page counts near the TLB capacity are deliberately
/// excluded — their behavior is conflict-dependent.
pub fn sweep(tlb: &TlbConfig) -> Vec<TlbChaseConfig> {
    let e = u64::from(tlb.entries);
    let pb = tlb.page_bytes;
    let mk = |pages: u64, lpp: u64| TlbChaseConfig {
        pages: pages.max(2),
        lines_per_page: lpp,
        page_bytes: pb,
    };
    vec![
        mk(e / 8, 2),
        mk(e / 4, 2),
        mk(e / 2, 2),
        mk(e / 4, 64),
        mk(e / 2, 32),
        mk(e * 16, 1),
        mk(e * 32, 1),
        mk(e * 64, 1),
    ]
}

/// Point labels for the sweep.
pub fn point_labels(tlb: &TlbConfig) -> Vec<String> {
    sweep(tlb).iter().map(|c| c.label(tlb)).collect()
}

/// Per-point hit-region flags (the structural input to the basis).
pub fn point_hit_regions(tlb: &TlbConfig) -> Vec<bool> {
    sweep(tlb).iter().map(|c| c.is_hit_region(tlb)).collect()
}

/// Warmup passes.
pub const WARMUP_PASSES: u64 = 2;
/// Measured passes.
pub const MEASURE_PASSES: u64 = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_sim::{CoreConfig, Cpu};

    fn tlb() -> TlbConfig {
        TlbConfig::default_sim()
    }

    #[test]
    fn sweep_regions() {
        let t = tlb();
        let regions = point_hit_regions(&t);
        assert_eq!(regions.len(), 8);
        assert_eq!(regions.iter().filter(|&&h| h).count(), 5);
        assert!(point_labels(&t)[0].ends_with("/hit"));
        assert!(point_labels(&t)[7].ends_with("/miss"));
    }

    #[test]
    fn hit_region_hits_after_warmup() {
        let t = tlb();
        let cfg = sweep(&t)[1];
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 3, WARMUP_PASSES));
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 3, MEASURE_PASSES));
        let s = cpu.stats();
        assert_eq!(s.tlb.misses, 0, "fully TLB-resident chain");
        assert_eq!(s.tlb.hits, cfg.slots() * MEASURE_PASSES);
    }

    #[test]
    fn cache_heavy_hit_point_thrashes_l1_but_not_tlb() {
        let t = tlb();
        let cfg = sweep(&t)[3]; // pages = e/4, lpp = 64
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 9, WARMUP_PASSES));
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 9, MEASURE_PASSES));
        let s = cpu.stats();
        assert_eq!(s.tlb.misses, 0, "pages fit the TLB");
        let accesses = (cfg.slots() * MEASURE_PASSES) as f64;
        let l1_hit_rate = s.memory.loads_hit_l1 as f64 / accesses;
        assert!(l1_hit_rate < 0.1, "L1 must thrash here, hit rate {l1_hit_rate}");
    }

    #[test]
    fn miss_region_mostly_misses_tlb() {
        let t = tlb();
        let cfg = *sweep(&t).last().unwrap();
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 5, 1));
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 5, 2));
        let s = cpu.stats();
        let accesses = (cfg.slots() * 2) as f64;
        let miss_rate = s.tlb.misses as f64 / accesses;
        assert!(miss_rate > 0.95, "TLB miss rate {miss_rate}");
    }

    #[test]
    fn miss_region_spreads_cache_sets() {
        // Single-line-per-page points must not alias onto one cache set:
        // the smallest miss point stays L2-resident.
        let t = tlb();
        let cfg = sweep(&t)[5]; // e*16 pages, 1 line each
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 5, WARMUP_PASSES));
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 5, MEASURE_PASSES));
        let s = cpu.stats();
        let accesses = (cfg.slots() * MEASURE_PASSES) as f64;
        let l3_plus_mem = (s.memory.loads_hit_l3 + s.memory.loads_miss_l3) as f64 / accesses;
        assert!(l3_plus_mem < 0.1, "1024 spread lines must fit L2, beyond-L2 rate {l3_plus_mem}");
    }

    #[test]
    fn trace_equals_the_recorded_program_at_every_point() {
        for (p, cfg) in sweep(&tlb()).iter().enumerate() {
            let seed = 4242 + p as u64;
            assert_eq!(
                cfg.trace(0, seed, MEASURE_PASSES),
                KernelTrace::record(&cfg.program(0, seed, MEASURE_PASSES)),
                "point {p}"
            );
        }
    }

    #[test]
    fn chase_visits_each_slot_once() {
        let cfg = TlbChaseConfig { pages: 16, lines_per_page: 4, page_bytes: 4096 };
        let addrs = cfg.chase_addresses(0, 7);
        assert_eq!(addrs.len(), 64);
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 64, "distinct (page, line) slots");
        let mut pages: Vec<u64> = addrs.iter().map(|a| a / 4096).collect();
        pages.sort_unstable();
        pages.dedup();
        assert_eq!(pages.len(), 16);
    }
}
