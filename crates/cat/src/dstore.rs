//! A store-path (write) cache benchmark — a second extension domain: the
//! same footprint-sweep idea as the load benchmark, applied to the cache
//! hierarchy's *write* side (read-for-ownership traffic).
//!
//! The interesting per-architecture discoveries on the SPR-like machine:
//! no raw event attributes retired stores to a cache level the way
//! `MEM_LOAD_RETIRED:*` does for loads, so L1 store hits must be *composed*
//! (`stores − RFOs`); and nothing counts L3-level store hits at all, so
//! that metric is honestly non-composable (backward error 1).

use catalyze_sim::cache::AccessKind;
use catalyze_sim::hierarchy::HierarchyConfig;
use catalyze_sim::program::Block;
use catalyze_sim::{Instruction, KernelTrace, Program};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

pub use crate::dcache::Region;

/// Predictor site of the store loop's back-edge branch.
const LOOP_SITE: u32 = 13;

/// One store-sweep configuration: `lines` cache lines written per pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreConfig {
    /// Number of distinct lines stored to.
    pub lines: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl StoreConfig {
    /// Footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.lines * self.line_bytes
    }

    /// Region for a hierarchy.
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

    /// Point label.
    pub fn label(&self, h: &HierarchyConfig) -> String {
        format!("stores/lines={}/{}", self.lines, self.region(h).label())
    }

    /// Store addresses: a seeded permutation of the line set.
    pub fn addresses(&self, base: u64, seed: u64) -> Vec<u64> {
        let n = self.lines as usize;
        let mut order: Vec<u64> = (0..self.lines).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            order.swap(i, j);
        }
        order.into_iter().map(|l| base + l * self.line_bytes).collect()
    }

    /// Program performing `passes` full write passes.
    pub fn program(&self, base: u64, seed: u64, passes: u64) -> Program {
        let addrs = self.addresses(base, seed);
        let instructions = addrs.iter().map(|&addr| Instruction::Store { addr, size: 8 }).collect();
        let block = Block { instructions };
        Program::new().counted_loop(block, passes, LOOP_SITE)
    }

    /// The trace [`KernelTrace::record`] makes of [`Self::program`], built
    /// straight from the store addresses.
    pub fn trace(&self, base: u64, seed: u64, passes: u64) -> KernelTrace {
        let addrs = self.addresses(base, seed);
        KernelTrace::counted_accesses(AccessKind::Write, addrs, passes, LOOP_SITE)
    }
}

/// The sweep: two footprints per region (like the load benchmark, one
/// stride).
pub fn sweep(h: &HierarchyConfig) -> Vec<StoreConfig> {
    let line = h.l1.line_bytes;
    [
        h.l1.size_bytes / 4,
        h.l1.size_bytes / 2,
        h.l2.size_bytes / 4,
        h.l2.size_bytes / 2,
        h.l3.size_bytes / 4,
        h.l3.size_bytes / 2,
        h.l3.size_bytes * 2,
        h.l3.size_bytes * 4,
    ]
    .into_iter()
    .map(|f| StoreConfig { lines: f / line, line_bytes: line })
    .collect()
}

/// Point labels.
pub fn point_labels(h: &HierarchyConfig) -> Vec<String> {
    sweep(h).iter().map(|c| c.label(h)).collect()
}

/// Regions per point.
pub fn point_regions(h: &HierarchyConfig) -> Vec<Region> {
    sweep(h).iter().map(|c| c.region(h)).collect()
}

/// Warmup passes.
pub const WARMUP_PASSES: u64 = 2;
/// Measured passes. Normalized per-store rates are window-independent in
/// steady state, and the replay engine's keyed memo collapses measured
/// passes without re-driving the stream, so a longer window costs replay
/// nothing while amortizing the direct engine's per-pass work — the same
/// lever the dcache domain uses, stretched further because this domain's
/// footprints are smaller.
pub const MEASURE_PASSES: u64 = 16;

#[cfg(test)]
mod tests {
    use super::*;
    use catalyze_sim::{CoreConfig, Cpu};

    fn h() -> HierarchyConfig {
        HierarchyConfig::default_sim()
    }

    #[test]
    fn sweep_covers_regions() {
        let regions = point_regions(&h());
        assert_eq!(regions.len(), 8);
        for r in [Region::L1, Region::L2, Region::L3, Region::Memory] {
            assert_eq!(regions.iter().filter(|&&x| x == r).count(), 2, "{r:?}");
        }
    }

    #[test]
    fn l1_resident_stores_hit_l1() {
        let cfg = sweep(&h())[0];
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 3, WARMUP_PASSES));
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 3, MEASURE_PASSES));
        let s = cpu.stats();
        let accesses = cfg.lines * MEASURE_PASSES;
        assert_eq!(s.stores, accesses);
        assert_eq!(s.memory.l1.write_misses, 0, "fully L1-resident write set");
        assert_eq!(s.memory.l2.write_hits + s.memory.l2.write_misses, 0);
    }

    #[test]
    fn l2_resident_stores_rfo_into_l2() {
        let cfg = sweep(&h())[2];
        assert_eq!(cfg.region(&h()), Region::L2);
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 3, WARMUP_PASSES));
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 3, MEASURE_PASSES));
        let s = cpu.stats();
        let accesses = (cfg.lines * MEASURE_PASSES) as f64;
        let l1_miss_rate = s.memory.l1.write_misses as f64 / accesses;
        let l2_hit_rate = s.memory.l2.write_hits as f64 / accesses;
        assert!(l1_miss_rate > 0.99, "{l1_miss_rate}");
        assert!(l2_hit_rate > 0.95, "{l2_hit_rate}");
    }

    #[test]
    fn memory_sized_stores_miss_everywhere() {
        let cfg = *sweep(&h()).last().unwrap();
        let mut cpu = Cpu::new(CoreConfig::default_sim());
        cpu.run(&cfg.program(0, 3, 1));
        cpu.reset_stats();
        cpu.run(&cfg.program(0, 3, 1));
        let s = cpu.stats();
        let accesses = cfg.lines as f64;
        assert!(s.memory.l2.write_misses as f64 / accesses > 0.95);
        assert!(s.memory.l3.write_misses as f64 / accesses > 0.9);
    }

    #[test]
    fn trace_equals_the_recorded_program_at_every_point() {
        for (p, cfg) in sweep(&h()).iter().enumerate() {
            let seed = 9000 + p as u64;
            assert_eq!(
                cfg.trace(0, seed, MEASURE_PASSES),
                KernelTrace::record(&cfg.program(0, seed, MEASURE_PASSES)),
                "point {p}"
            );
        }
    }

    #[test]
    fn addresses_are_a_permutation() {
        let cfg = StoreConfig { lines: 100, line_bytes: 64 };
        let a = cfg.addresses(0, 9);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100);
        assert_eq!(cfg.addresses(0, 9), a, "deterministic");
        assert_ne!(cfg.addresses(0, 10), a);
    }
}
