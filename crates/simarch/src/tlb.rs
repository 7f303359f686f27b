//! Data TLB model: a small set-associative translation cache.

use serde::{Deserialize, Serialize};

/// TLB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    /// Number of entries.
    pub entries: u32,
    /// Associativity.
    pub associativity: u32,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl TlbConfig {
    /// 64-entry, 4-way, 4 KiB pages — a typical first-level DTLB.
    pub fn default_sim() -> Self {
        Self { entries: 64, associativity: 4, page_bytes: 4096 }
    }

    fn num_sets(&self) -> u64 {
        u64::from(self.entries / self.associativity)
    }
}

/// TLB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
// lint: allow(dead_api): stats type returned by the TLB model; fields are the catalog's read surface
pub struct TlbStats {
    /// Translation hits.
    pub hits: u64,
    /// Translation misses (page-walks).
    pub misses: u64,
}

/// A data TLB.
///
/// Like [`crate::cache::Cache`], state is struct-of-arrays: parallel
/// `vpns`/`lru` vectors indexed by `set * ways + way`, with `lru == 0`
/// marking an invalid entry (the clock pre-increments, so live entries
/// always stamp ≥ 1 and the sentinel is the natural eviction minimum).
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `log2(page_bytes)` — folded from the power-of-two geometry so the
    /// per-translation address decomposition is shifts and masks.
    page_shift: u32,
    /// `num_sets - 1`.
    set_mask: u64,
    /// Virtual page numbers, `set * ways + way` layout.
    vpns: Vec<u64>,
    /// LRU stamps, same layout; 0 means the entry is invalid.
    lru: Vec<u64>,
    clock: u64,
    /// Accumulated statistics.
    pub stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    /// Panics when the geometry does not divide into power-of-two sets.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.associativity > 0 && cfg.entries % cfg.associativity == 0);
        assert!(cfg.num_sets().is_power_of_two());
        assert!(cfg.page_bytes.is_power_of_two());
        Self {
            cfg,
            page_shift: cfg.page_bytes.trailing_zeros(),
            set_mask: cfg.num_sets() - 1,
            vpns: vec![0; cfg.entries as usize],
            lru: vec![0; cfg.entries as usize],
            clock: 0,
            stats: TlbStats::default(),
        }
    }

    /// Translates an address; returns `true` on TLB hit. Misses install the
    /// translation (after the implied page walk).
    pub fn translate(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let vpn = addr >> self.page_shift;
        let set = (vpn & self.set_mask) as usize;
        let ways = self.cfg.associativity as usize;
        let base = set * ways;
        for w in 0..ways {
            if self.lru[base + w] != 0 && self.vpns[base + w] == vpn {
                self.lru[base + w] = self.clock;
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        // Install, evicting the LRU way; an invalid way's zero stamp makes
        // it the unconditional first-wins minimum.
        let mut victim = base;
        let mut best = u64::MAX;
        for w in 0..ways {
            if self.lru[base + w] < best {
                best = self.lru[base + w];
                victim = base + w;
            }
        }
        self.vpns[victim] = vpn;
        self.lru[victim] = self.clock;
        false
    }

    /// Translates a batch of addresses in order, returning the number of
    /// misses added. Equivalent to calling [`Tlb::translate`] per address —
    /// translation state depends only on the address sequence — but keeps
    /// the loop over the dense SoA rows in one place.
    pub fn translate_batch(&mut self, addrs: &[u64]) -> u64 {
        let before = self.stats.misses;
        for &addr in addrs {
            self.translate(addr);
        }
        self.stats.misses - before
    }

    /// Fast-path translation for the stream replay engine: the exact
    /// hit/install/stamp behavior of [`Tlb::translate`] minus statistics
    /// (tallied in bulk by the caller), in one scan over the set — the
    /// first-wins LRU argmin is tracked alongside the hit check, so a miss
    /// installs without rescanning.
    #[inline]
    pub(crate) fn translate_fast(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let vpn = addr >> self.page_shift;
        let ways = self.cfg.associativity as usize;
        let base = (vpn & self.set_mask) as usize * ways;
        let lru = &mut self.lru[base..base + ways];
        let vpns = &mut self.vpns[base..base + ways];
        let mut victim = 0;
        let mut best = u64::MAX;
        for (w, (stamp, &entry)) in lru.iter_mut().zip(vpns.iter()).enumerate() {
            if *stamp != 0 && entry == vpn {
                *stamp = self.clock;
                return true;
            }
            if *stamp < best {
                best = *stamp;
                victim = w;
            }
        }
        vpns[victim] = vpn;
        lru[victim] = self.clock;
        false
    }

    /// Appends the behavioral state: per set, the valid-entry count then
    /// VPNs in LRU-to-MRU stamp order. The TLB is always true-LRU, so its
    /// canonical form needs no policy branch — contrast with the
    /// policy-dependent forms in `Cache::canonical_into`.
    pub(crate) fn canonical_into(&self, out: &mut Vec<u64>) {
        let ways = self.cfg.associativity as usize;
        let mut set_buf: Vec<(u64, u64)> = Vec::with_capacity(ways);
        for set in 0..self.cfg.num_sets() as usize {
            let base = set * ways;
            set_buf.clear();
            for w in 0..ways {
                if self.lru[base + w] != 0 {
                    set_buf.push((self.lru[base + w], self.vpns[base + w]));
                }
            }
            set_buf.sort_unstable();
            out.push(set_buf.len() as u64);
            out.extend(set_buf.iter().map(|&(_, vpn)| vpn));
        }
    }

    /// Advances the stamp clock as if `n` translations happened — used
    /// when replay collapses steady-state passes without driving them.
    pub(crate) fn advance_clock(&mut self, n: u64) {
        self.clock += n;
    }

    /// Bulk statistics flush from the stream replay engine.
    pub(crate) fn add_stats(&mut self, hits: u64, misses: u64) {
        self.stats.hits += hits;
        self.stats.misses += misses;
    }

    /// Clears statistics, keeping translations (post-warmup).
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Invalidates everything.
    pub fn reset(&mut self) {
        self.vpns.fill(0);
        self.lru.fill(0);
        self.clock = 0;
        self.stats = TlbStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_install() {
        let mut t = Tlb::new(TlbConfig::default_sim());
        assert!(!t.translate(0x1000));
        assert!(t.translate(0x1abc), "same page");
        assert!(!t.translate(0x5000), "different page");
        assert_eq!(t.stats.hits, 1);
        assert_eq!(t.stats.misses, 2);
    }

    #[test]
    fn capacity_thrash() {
        let cfg = TlbConfig { entries: 4, associativity: 2, page_bytes: 4096 };
        let mut t = Tlb::new(cfg);
        // 8 pages cycling through 4 entries sequentially: all misses.
        for _ in 0..3 {
            for p in 0..8u64 {
                t.translate(p * 4096);
            }
        }
        assert_eq!(t.stats.hits, 0);
    }

    #[test]
    fn small_working_set_all_hits_after_warmup() {
        let mut t = Tlb::new(TlbConfig::default_sim());
        for p in 0..16u64 {
            t.translate(p * 4096);
        }
        t.reset_stats();
        for _ in 0..4 {
            for p in 0..16u64 {
                assert!(t.translate(p * 4096));
            }
        }
        assert_eq!(t.stats.misses, 0);
    }

    #[test]
    fn reset_invalidates() {
        let mut t = Tlb::new(TlbConfig::default_sim());
        t.translate(0);
        t.reset();
        assert!(!t.translate(0));
    }
}

#[cfg(test)]
mod fast_path_parity {
    use super::*;

    #[test]
    fn fused_translate_matches_reference() {
        // 4 sets x 4 ways; 48 distinct pages overflow every set, while the
        // skewed draw keeps a hot subset resident.
        let cfg = TlbConfig { entries: 16, associativity: 4, page_bytes: 4096 };
        for seed in [1u64, 0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF] {
            let (mut reference, mut fast) = (Tlb::new(cfg), Tlb::new(cfg));
            let mut state = seed;
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            let (mut hits, mut misses) = (0, 0);
            for i in 0..5_000 {
                let page = if next(4) != 0 { next(12) } else { next(48) };
                let addr = page * 4096 + next(4096);
                let fast_hit = fast.translate_fast(addr);
                assert_eq!(fast_hit, reference.translate(addr), "seed {seed}: access {i}");
                if fast_hit {
                    hits += 1;
                } else {
                    misses += 1;
                }
            }
            assert!(hits > 0 && misses > 0, "stream must both hit and miss");
            // The bulk flush the stream engine performs.
            fast.add_stats(hits, misses);
            assert_eq!(fast.stats, reference.stats, "seed {seed}: statistics");
            let canonical = |t: &Tlb| {
                let mut out = Vec::new();
                t.canonical_into(&mut out);
                out
            };
            assert_eq!(canonical(&fast), canonical(&reference), "seed {seed}: state");
            assert_eq!(fast.vpns, reference.vpns, "seed {seed}: VPNs");
            assert_eq!(fast.lru, reference.lru, "seed {seed}: stamps");
            assert_eq!(fast.clock, reference.clock, "seed {seed}: clock");
        }
    }
}
