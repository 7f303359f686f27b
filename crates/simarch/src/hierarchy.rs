//! Three-level data-cache hierarchy with a next-line prefetcher.
//!
//! [`Hierarchy::access`] is the per-address path direct execution drives.
//! The crate-private `*_fast` methods make the same lookups and fills
//! without per-access statistics, which the stream replay engine tallies
//! in bulk.

use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats, Lookup};
use serde::{Deserialize, Serialize};

/// Where in the hierarchy a demand access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemLevel {
    /// L1 data cache.
    L1,
    /// Unified L2.
    L2,
    /// Last-level cache.
    L3,
    /// Main memory.
    Memory,
}

/// Hierarchy geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierarchyConfig {
    /// L1 data-cache geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// L3 geometry.
    pub l3: CacheConfig,
    /// Enable the L1 next-line prefetcher.
    pub prefetch_next_line: bool,
}

impl HierarchyConfig {
    /// The default simulated core: 16 KiB / 8-way L1, 128 KiB / 8-way L2,
    /// 1 MiB / 16-way L3, 64-byte lines everywhere. Deliberately smaller
    /// than physical Sapphire Rapids so pointer-chase sweeps across all
    /// levels stay fast; the analysis only depends on the *relative*
    /// capacities.
    pub fn default_sim() -> Self {
        Self {
            l1: CacheConfig::new(16 * 1024, 64, 8),
            l2: CacheConfig::new(128 * 1024, 64, 8),
            l3: CacheConfig::new(1024 * 1024, 64, 16),
            prefetch_next_line: false,
        }
    }
}

/// Per-level demand statistics plus derived counters the PMU exposes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
// lint: allow(dead_api): stats type returned by the hierarchy model
pub struct HierarchyStats {
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// L3 statistics.
    pub l3: CacheStats,
    /// Demand loads satisfied from each level (retired-load attribution,
    /// the `MEM_LOAD_RETIRED:*` view).
    pub loads_hit_l1: u64,
    /// Loads that missed L1 (satisfied anywhere below).
    pub loads_miss_l1: u64,
    /// Loads satisfied in L2.
    pub loads_hit_l2: u64,
    /// Loads that missed both L1 and L2.
    pub loads_miss_l2: u64,
    /// Loads satisfied in L3.
    pub loads_hit_l3: u64,
    /// Loads that went to memory.
    pub loads_miss_l3: u64,
    /// Prefetch fills issued.
    pub prefetch_fills: u64,
}

/// A private three-level hierarchy (one per simulated core).
///
/// Per-level [`CacheStats`] live inside the member caches and are copied
/// into the returned snapshot only when [`Hierarchy::stats`] is called —
/// not on every access, which used to dominate the lookup cost.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Cache,
    l2: Cache,
    l3: Cache,
    prefetch: bool,
    /// Load-attribution counters; the per-level fields are stale until
    /// [`Hierarchy::stats`] syncs them.
    stats: HierarchyStats,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    pub fn new(cfg: HierarchyConfig) -> Self {
        Self {
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            l3: Cache::new(cfg.l3),
            prefetch: cfg.prefetch_next_line,
            stats: HierarchyStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> HierarchyConfig {
        HierarchyConfig {
            l1: self.l1.config(),
            l2: self.l2.config(),
            l3: self.l3.config(),
            prefetch_next_line: self.prefetch,
        }
    }

    /// Performs a demand access, updating all levels (allocate-on-miss at
    /// every level, non-inclusive victim behavior kept simple: misses fill
    /// every level on the way down, like a mostly-inclusive hierarchy).
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> MemLevel {
        let level = if self.l1.access(addr, kind) {
            MemLevel::L1
        } else if self.l2.access(addr, kind) {
            self.l1.fill(addr);
            MemLevel::L2
        } else if self.l3.access(addr, kind) {
            self.l2.fill(addr);
            self.l1.fill(addr);
            MemLevel::L3
        } else {
            self.l3.fill(addr);
            self.l2.fill(addr);
            self.l1.fill(addr);
            MemLevel::Memory
        };
        if kind == AccessKind::Read {
            match level {
                MemLevel::L1 => self.stats.loads_hit_l1 += 1,
                MemLevel::L2 => {
                    self.stats.loads_miss_l1 += 1;
                    self.stats.loads_hit_l2 += 1;
                }
                MemLevel::L3 => {
                    self.stats.loads_miss_l1 += 1;
                    self.stats.loads_miss_l2 += 1;
                    self.stats.loads_hit_l3 += 1;
                }
                MemLevel::Memory => {
                    self.stats.loads_miss_l1 += 1;
                    self.stats.loads_miss_l2 += 1;
                    self.stats.loads_miss_l3 += 1;
                }
            }
        }
        if self.prefetch && level != MemLevel::L1 {
            // Next-line prefetch into L1 only. The probe is stats-silent so
            // demand counters stay demand-only: the old `access`-then-
            // compensate scheme charged a phantom read hit when the next
            // line was resident and swallowed a real demand miss when the
            // compensation fired against the wrong bucket.
            let next = addr + self.l1.config().line_bytes;
            if !self.l1.probe_silent(next) {
                self.l1.fill(next);
                self.stats.prefetch_fills += 1;
            }
        }
        level
    }

    /// Whether the next-line prefetcher is enabled — hoisted by the stream
    /// engine so the per-access loop branches on a local.
    pub(crate) fn prefetch_enabled(&self) -> bool {
        self.prefetch
    }

    /// Fast-path next-line prefetch after a demand access satisfied below
    /// L1: look up `addr`'s successor line in L1 and install it on a miss.
    /// Returns `true` when a fill was issued so the stream engine can tally
    /// it. State-identical to the reference prefetch block in
    /// [`Hierarchy::access`] (`probe_silent` + `fill` there), minus the
    /// evicted-address reconstruction and the `prefetch_fills` bump, which
    /// the tally flushes in bulk.
    #[inline]
    pub(crate) fn prefetch_fast(&mut self, addr: u64) -> bool {
        let next = addr + self.l1.config().line_bytes;
        match self.l1.lookup_fast(next) {
            Lookup::Hit => false,
            Lookup::Miss(miss) => {
                self.l1.install_fast(miss);
                true
            }
        }
    }

    /// Bulk `prefetch_fills` flush from the stream replay engine.
    pub(crate) fn add_prefetch_fills(&mut self, n: u64) {
        self.stats.prefetch_fills += n;
    }

    /// Fast-path access: the exact lookup/fill sequence of
    /// [`Hierarchy::access`] minus statistics (tallied in bulk by the
    /// stream replay engine via [`Hierarchy::add_bulk_stats`]). A missing
    /// level's lookup hands its set and tag to that level's install, so the
    /// address is split once per level; no level's set changes in between
    /// (each install touches only its own level).
    #[inline]
    pub(crate) fn access_fast(&mut self, addr: u64) -> MemLevel {
        let Lookup::Miss(l1) = self.l1.lookup_fast(addr) else {
            return MemLevel::L1;
        };
        let Lookup::Miss(l2) = self.l2.lookup_fast(addr) else {
            self.l1.install_fast(l1);
            return MemLevel::L2;
        };
        let Lookup::Miss(l3) = self.l3.lookup_fast(addr) else {
            self.l2.install_fast(l2);
            self.l1.install_fast(l1);
            return MemLevel::L3;
        };
        self.l3.install_fast(l3);
        self.l2.install_fast(l2);
        self.l1.install_fast(l1);
        MemLevel::Memory
    }

    /// Appends all three levels' canonical state (see
    /// `Cache::canonical_into`).
    pub(crate) fn canonical_into(&self, out: &mut Vec<u64>) {
        self.l1.canonical_into(out);
        self.l2.canonical_into(out);
        self.l3.canonical_into(out);
    }

    /// Bulk statistics flush from the stream replay engine: accesses
    /// satisfied per level, split by kind. Produces exactly the per-level
    /// hit/miss splits and retired-load attribution that the per-access
    /// path accumulates incrementally.
    pub(crate) fn add_bulk_stats(&mut self, read_lv: [u64; 4], write_lv: [u64; 4]) {
        let r = read_lv;
        let w = write_lv;
        self.l1.stats.read_hits += r[0];
        self.l1.stats.read_misses += r[1] + r[2] + r[3];
        self.l1.stats.write_hits += w[0];
        self.l1.stats.write_misses += w[1] + w[2] + w[3];
        self.l2.stats.read_hits += r[1];
        self.l2.stats.read_misses += r[2] + r[3];
        self.l2.stats.write_hits += w[1];
        self.l2.stats.write_misses += w[2] + w[3];
        self.l3.stats.read_hits += r[2];
        self.l3.stats.read_misses += r[3];
        self.l3.stats.write_hits += w[2];
        self.l3.stats.write_misses += w[3];
        self.stats.loads_hit_l1 += r[0];
        self.stats.loads_miss_l1 += r[1] + r[2] + r[3];
        self.stats.loads_hit_l2 += r[1];
        self.stats.loads_miss_l2 += r[2] + r[3];
        self.stats.loads_hit_l3 += r[2];
        self.stats.loads_miss_l3 += r[3];
    }

    /// A snapshot of accumulated statistics with the per-level cache stats
    /// synced from the member caches.
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats { l1: self.l1.stats, l2: self.l2.stats, l3: self.l3.stats, ..self.stats }
    }

    /// Clears statistics but keeps cache contents (post-warmup).
    pub fn reset_stats(&mut self) {
        self.l1.reset_stats();
        self.l2.reset_stats();
        self.l3.reset_stats();
        self.stats = HierarchyStats::default();
    }

    /// Invalidates all levels and clears statistics.
    pub fn reset(&mut self) {
        self.l1.reset();
        self.l2.reset();
        self.l3.reset();
        self.stats = HierarchyStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Hierarchy {
        Hierarchy::new(HierarchyConfig {
            l1: CacheConfig::new(512, 64, 2),  // 8 lines
            l2: CacheConfig::new(2048, 64, 4), // 32 lines
            l3: CacheConfig::new(8192, 64, 8), // 128 lines
            prefetch_next_line: false,
        })
    }

    #[test]
    fn cold_miss_goes_to_memory_then_hits_l1() {
        let mut h = tiny();
        assert_eq!(h.access(0x40, AccessKind::Read), MemLevel::Memory);
        assert_eq!(h.access(0x40, AccessKind::Read), MemLevel::L1);
        assert_eq!(h.stats().loads_miss_l3, 1);
        assert_eq!(h.stats().loads_hit_l1, 1);
    }

    #[test]
    fn l1_evicted_line_hits_l2() {
        let mut h = tiny();
        // Fill L1's set 0 beyond its 2 ways: set stride = 4 sets * 64 = 256.
        for i in 0..3u64 {
            h.access(i * 256, AccessKind::Read);
        }
        // First line was LRU-evicted from L1 but still lives in L2.
        assert_eq!(h.access(0, AccessKind::Read), MemLevel::L2);
        assert_eq!(h.stats().loads_hit_l2, 1);
    }

    #[test]
    fn working_set_regions() {
        let mut h = tiny();
        // Working set of 4 lines (fits L1): after warmup, all L1 hits.
        let ws: Vec<u64> = (0..4).map(|i| i * 64).collect();
        for &a in &ws {
            h.access(a, AccessKind::Read);
        }
        h.reset_stats();
        for _ in 0..8 {
            for &a in &ws {
                assert_eq!(h.access(a, AccessKind::Read), MemLevel::L1);
            }
        }
        assert_eq!(h.stats().loads_miss_l1, 0);

        // Working set of 16 lines (fits L2, exceeds L1 capacity 8): a
        // sequential LRU sweep always misses L1 but hits L2 after warmup.
        let mut h = tiny();
        let ws: Vec<u64> = (0..16).map(|i| i * 64).collect();
        for _ in 0..2 {
            for &a in &ws {
                h.access(a, AccessKind::Read);
            }
        }
        h.reset_stats();
        for _ in 0..4 {
            for &a in &ws {
                let lvl = h.access(a, AccessKind::Read);
                assert!(lvl == MemLevel::L2 || lvl == MemLevel::L1, "got {lvl:?}");
            }
        }
        assert!(h.stats().loads_hit_l2 > 0);
        assert_eq!(h.stats().loads_miss_l2, 0);
    }

    #[test]
    fn prefetcher_counts_fills() {
        let mut h = Hierarchy::new(HierarchyConfig { prefetch_next_line: true, ..tiny().config() });
        h.access(0, AccessKind::Read);
        assert!(h.stats().prefetch_fills >= 1);
        // The next line was prefetched into L1.
        assert_eq!(h.access(64, AccessKind::Read), MemLevel::L1);
    }

    #[test]
    fn prefetch_probe_leaves_demand_counters_pure() {
        let mut h = Hierarchy::new(HierarchyConfig { prefetch_next_line: true, ..tiny().config() });
        // Make line 256's line resident (and its successor 320 via prefetch),
        // then demand-miss on 192 so the prefetch probe *hits* on 256. The
        // probe must not record a phantom read hit or eat the demand miss.
        h.access(256, AccessKind::Read);
        h.access(192, AccessKind::Read);
        let s = h.stats();
        assert_eq!(s.l1.read_misses, 2, "two demand misses, nothing else");
        assert_eq!(s.l1.read_hits, 0, "prefetch probes are stats-silent");
        assert_eq!(s.loads_miss_l1, 2);
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut h = tiny();
        h.access(0, AccessKind::Read);
        h.reset_stats();
        assert_eq!(h.stats().loads_miss_l3, 0);
        assert_eq!(h.access(0, AccessKind::Read), MemLevel::L1);
    }

    #[test]
    fn full_reset_invalidates() {
        let mut h = tiny();
        h.access(0, AccessKind::Read);
        h.reset();
        assert_eq!(h.access(0, AccessKind::Read), MemLevel::Memory);
    }

    #[test]
    fn writes_do_not_count_as_retired_loads() {
        let mut h = tiny();
        h.access(0, AccessKind::Write);
        assert_eq!(h.stats().loads_miss_l1, 0);
        assert_eq!(h.stats().loads_hit_l1, 0);
        assert_eq!(h.stats().l1.write_misses, 1);
    }
}
