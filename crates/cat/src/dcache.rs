//! The CAT data-cache benchmark: a pointer chase over buffers sized to land
//! in each level of the hierarchy.
//!
//! Each configuration chases a random single-cycle permutation (Sattolo's
//! algorithm) of `P` pointers spaced `stride` bytes apart. The cache
//! *footprint* is `P` lines regardless of stride, so the sweep is defined by
//! footprint targets placed well inside the L1 / L2 / L3 / memory regions —
//! the x-axis of the paper's Figure 3. Multiple threads chase disjoint
//! buffers concurrently (the paper uses the per-thread *median* to suppress
//! noise).

use catalyze_sim::cache::AccessKind;
use catalyze_sim::hierarchy::HierarchyConfig;
use catalyze_sim::program::Block;
use catalyze_sim::{Instruction, KernelTrace, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

// The sweep reports `catalyze_events::CacheRegion`, the type the bases take;
// the `Region` name stays because the benchmark package `perfbench/` names it.
pub use catalyze_events::CacheRegion as Region;

/// Predictor site of the chase loop's back-edge branch.
const LOOP_SITE: u32 = 7;

/// One pointer-chase configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChaseConfig {
    /// Distance between consecutive pointer slots in bytes.
    pub stride: u64,
    /// Number of pointers in the chain.
    pub pointers: u64,
    /// Cache-line size (for footprint computation).
    pub line_bytes: u64,
}

impl ChaseConfig {
    /// Bytes of cache the chain occupies (`pointers` distinct lines).
    pub fn footprint_bytes(&self) -> u64 {
        self.pointers * self.line_bytes
    }

    /// Buffer extent in bytes.
    pub fn buffer_bytes(&self) -> u64 {
        self.pointers * self.stride
    }

    /// The region this footprint lands in for a given hierarchy.
    pub fn region(&self, h: &HierarchyConfig) -> Region {
        let f = self.footprint_bytes();
        if f <= h.l1.size_bytes {
            Region::L1
        } else if f <= h.l2.size_bytes {
            Region::L2
        } else if f <= h.l3.size_bytes {
            Region::L3
        } else {
            Region::Memory
        }
    }

    /// Point label, e.g. `stride=64B/ppb=512/L2`.
    pub fn label(&self, h: &HierarchyConfig) -> String {
        format!("stride={}B/ptrs={}/{}", self.stride, self.pointers, self.region(h).label())
    }

    /// Builds the chase address sequence for one full pass: a single-cycle
    /// random permutation (Sattolo), so every pointer is visited exactly
    /// once per pass with no locality the prefetcher could exploit.
    ///
    /// The permutation is held as `u32` slot indices, so a chain has at
    /// most `u32::MAX` pointers; [`crate::RunnerConfig::validate`] rejects
    /// sweeps with longer ones.
    pub fn chase_addresses(&self, base: u64, seed: u64) -> Vec<u64> {
        let p = self.pointers as usize;
        let mut perm: Vec<u32> = (0..u32::MAX).take(p).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        // Sattolo's algorithm: uniform single-cycle permutation.
        for i in (1..p).rev() {
            let j = rng.gen_range(0..i);
            perm.swap(i, j);
        }
        // Follow the cycle from slot 0.
        let mut addrs = Vec::with_capacity(p);
        let mut idx = 0u32;
        for _ in 0..p {
            addrs.push(base + u64::from(idx) * self.stride);
            idx = perm[idx as usize];
        }
        addrs
    }

    /// Builds the program for `passes` full passes over the chain.
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

/// The benchmark sweep for a hierarchy: two strides (64 B, 128 B — the
/// paper's two panels) by eight footprints, two per region. The memory
/// footprints saturate, so an L3 too large to chase four times over
/// yields a chain that [`crate::RunnerConfig::validate`] rejects.
pub fn sweep(h: &HierarchyConfig) -> Vec<ChaseConfig> {
    let line = h.l1.line_bytes;
    let footprints = [
        h.l1.size_bytes / 4,
        h.l1.size_bytes / 2,
        h.l2.size_bytes / 4,
        h.l2.size_bytes / 2,
        h.l3.size_bytes / 4,
        h.l3.size_bytes / 2,
        h.l3.size_bytes.saturating_mul(2),
        h.l3.size_bytes.saturating_mul(4),
    ];
    let mut configs = Vec::new();
    for stride in [64u64, 128] {
        for f in footprints {
            configs.push(ChaseConfig { stride, pointers: f / line, line_bytes: line });
        }
    }
    configs
}

/// Point labels for the sweep.
pub fn point_labels(h: &HierarchyConfig) -> Vec<String> {
    sweep(h).iter().map(|c| c.label(h)).collect()
}

/// Regions per point (the structural input to the expectation basis).
pub fn point_regions(h: &HierarchyConfig) -> Vec<Region> {
    sweep(h).iter().map(|c| c.region(h)).collect()
}

/// Warmup passes before counters are armed.
pub const WARMUP_PASSES: u64 = 2;
/// Measured passes. The chase is steady-state after warmup, so per-access
/// rates are window-length independent; a longer window matches the
/// paper's long measured runs and suppresses any residual transient share.
/// Replay cost does not scale with this constant (steady passes collapse),
/// so it prices direct execution honestly without slowing replay.
pub const MEASURE_PASSES: u64 = 8;
/// Concurrent chasing threads (disjoint buffers).
pub(crate) const THREADS: usize = 4;

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_sim::hierarchy::Hierarchy;
    use catalyze_sim::{CoreConfig, Cpu};

    fn hier() -> HierarchyConfig {
        HierarchyConfig::default_sim()
    }

    #[test]
    fn sweep_covers_all_regions_twice_per_stride() {
        let h = hier();
        let regions = point_regions(&h);
        assert_eq!(regions.len(), 16);
        for r in [Region::L1, Region::L2, Region::L3, Region::Memory] {
            let count = regions.iter().filter(|&&x| x == r).count();
            assert_eq!(count, 4, "{r:?} twice per stride");
        }
    }

    #[test]
    fn footprint_independent_of_stride() {
        let h = hier();
        let cfgs = sweep(&h);
        for i in 0..8 {
            assert_eq!(cfgs[i].footprint_bytes(), cfgs[i + 8].footprint_bytes());
            assert_ne!(cfgs[i].buffer_bytes(), cfgs[i + 8].buffer_bytes());
        }
    }

    #[test]
    fn chase_is_single_cycle() {
        let cfg = ChaseConfig { stride: 64, pointers: 128, line_bytes: 64 };
        let addrs = cfg.chase_addresses(0, 9);
        assert_eq!(addrs.len(), 128);
        let mut sorted = addrs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 128, "every pointer visited exactly once");
        assert_eq!(addrs[0], 0, "cycle starts at slot 0");
    }

    #[test]
    fn l1_sized_chase_hits_after_warmup() {
        let h = hier();
        let cfg = ChaseConfig { stride: 64, pointers: h.l1.size_bytes / 4 / 64, line_bytes: 64 };
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 1, 1)); // warmup pass
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 1, 2)); // measured
        let s = cpu.stats();
        let accesses = (cfg.pointers * 2) as f64;
        let hit_rate = s.memory.loads_hit_l1 as f64 / accesses;
        assert!(hit_rate > 0.99, "hit rate {hit_rate}");
    }

    #[test]
    fn memory_sized_chase_misses_l3() {
        let h = hier();
        let cfg = ChaseConfig { stride: 64, pointers: h.l3.size_bytes * 2 / 64, line_bytes: 64 };
        let mut hierarchy = Hierarchy::new(h);
        // Drive the hierarchy directly (cheaper than a full CPU here).
        let addrs = cfg.chase_addresses(0, 3);
        for &a in &addrs {
            hierarchy.access(a, AccessKind::Read);
        }
        hierarchy.reset_stats();
        for &a in &addrs {
            hierarchy.access(a, AccessKind::Read);
        }
        let misses = hierarchy.stats().loads_miss_l3 as f64 / addrs.len() as f64;
        assert!(misses > 0.9, "L3 miss rate {misses}");
    }

    #[test]
    fn l2_region_hits_l2() {
        let h = hier();
        let cfg = ChaseConfig { stride: 64, pointers: h.l2.size_bytes / 4 / 64, line_bytes: 64 };
        assert_eq!(cfg.region(&h), Region::L2);
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 5, 2));
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 5, 2));
        let s = cpu.stats();
        let accesses = (cfg.pointers * 2) as f64;
        let l2_rate = s.memory.loads_hit_l2 as f64 / accesses;
        assert!(l2_rate > 0.95, "L2 hit rate {l2_rate}");
        assert!(s.memory.loads_hit_l3 as f64 / accesses < 0.05);
    }

    #[test]
    fn labels_include_region() {
        let h = hier();
        let labels = point_labels(&h);
        assert!(labels[0].ends_with("/L1"), "{}", labels[0]);
        assert!(labels[7].ends_with("/M"), "{}", labels[7]);
    }

    #[test]
    fn trace_equals_the_recorded_program_at_every_point() {
        for (p, cfg) in sweep(&hier()).iter().enumerate() {
            let (base, seed) = (1 << 40, p as u64);
            assert_eq!(
                cfg.trace(base, seed, MEASURE_PASSES),
                KernelTrace::record(&cfg.program(base, seed, MEASURE_PASSES)),
                "point {p}"
            );
        }
    }

    #[test]
    fn different_threads_get_different_chains() {
        let cfg = ChaseConfig { stride: 64, pointers: 64, line_bytes: 64 };
        let a = cfg.chase_addresses(0, 1);
        let b = cfg.chase_addresses(0, 2);
        assert_ne!(a, b);
    }
}
