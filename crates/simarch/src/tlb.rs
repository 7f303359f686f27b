//! Data TLB model: a small set-associative translation cache.
//!
//! Always true LRU, stored like an LRU cache set: a row of VPN slots per
//! set, most recent first. `translate_fast` is the one per-set
//! implementation; `translate` adds statistics to it. Like the cache's
//! `probe`/`install`, it is generic over a const way count, 0 meaning
//! "read it from the config".

use crate::cache::{find_slot, promote, EMPTY};
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
pub struct TlbStats {
    /// Translation hits.
    pub hits: u64,
    /// Translation misses (page-walks).
    pub misses: u64,
}

/// A data TLB.
///
/// Like an LRU [`crate::cache::Cache`] set, a TLB set's state is its slot
/// order: `vpns` holds `ways` slots per set, indexed `set * ways + slot`,
/// valid entries most-recent first and `EMPTY` in the free slots after
/// them.
#[derive(Debug, Clone)]
pub struct Tlb {
    cfg: TlbConfig,
    /// `log2(page_bytes)` — folded from the power-of-two geometry so the
    /// per-translation address decomposition is shifts and masks.
    page_shift: u32,
    /// `num_sets - 1`.
    set_mask: u64,
    /// Virtual page numbers, `set * ways + slot` layout, most recent first;
    /// [`EMPTY`] marks a free slot.
    vpns: Vec<u64>,
    /// Accumulated statistics.
    pub stats: TlbStats,
}

impl Tlb {
    /// Creates an empty TLB.
    ///
    /// # Panics
    /// Panics when the geometry does not divide into power-of-two sets, and
    /// for one-byte pages, whose VPNs could collide with the empty-slot
    /// sentinel.
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.associativity > 0 && cfg.entries % cfg.associativity == 0);
        assert!(cfg.num_sets().is_power_of_two());
        assert!(cfg.page_bytes.is_power_of_two());
        assert!(cfg.page_bytes > 1, "one-byte pages leave no VPN bit for the empty-slot sentinel");
        Self {
            cfg,
            page_shift: cfg.page_bytes.trailing_zeros(),
            set_mask: cfg.num_sets() - 1,
            vpns: vec![EMPTY; cfg.entries as usize],
            stats: TlbStats::default(),
        }
    }

    /// Translates an address; returns `true` on TLB hit. Misses install the
    /// translation (after the implied page walk).
    pub fn translate(&mut self, addr: u64) -> bool {
        let hit = self.translate_fast::<0>(addr);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }

    /// [`Tlb::translate`] minus statistics, which the stream replay engine
    /// tallies in bulk — the one per-set implementation behind both. A hit
    /// moves the entry to slot 0; a miss moves the whole set down one slot,
    /// dropping the LRU entry (or a free slot), and installs in slot 0.
    /// A nonzero `W` must equal the associativity.
    #[inline(always)]
    pub(crate) fn translate_fast<const W: usize>(&mut self, addr: u64) -> bool {
        debug_assert!(W == 0 || self.ways() == W, "stock ways on a non-stock TLB");
        let vpn = addr >> self.page_shift;
        let ways = if W == 0 { self.ways() } else { W };
        let base = (vpn & self.set_mask) as usize * ways;
        let set = &mut self.vpns[base..base + ways];
        match find_slot::<W>(set, vpn) {
            Some(slot) => {
                promote::<W>(set, slot, vpn);
                true
            }
            None => {
                set.copy_within(..ways - 1, 1);
                set[0] = vpn;
                false
            }
        }
    }

    /// Ways per set.
    pub(crate) fn ways(&self) -> usize {
        self.cfg.associativity as usize
    }

    /// Whether no slot holds a translation.
    pub(crate) fn is_empty(&self) -> bool {
        self.vpns.iter().all(|&vpn| vpn == EMPTY)
    }

    /// Whether every slot holds a translation. Valid slots are a prefix of
    /// each set, so each set's last slot decides.
    pub(crate) fn is_full(&self) -> bool {
        let ways = self.ways();
        self.vpns.iter().skip(ways - 1).step_by(ways).all(|&vpn| vpn != EMPTY)
    }

    /// The slot rows, `set * ways + slot`. Each set must stay a prefix of
    /// distinct VPNs, most recent first, then [`EMPTY`] slots.
    pub(crate) fn rows_mut(&mut self) -> &mut [u64] {
        &mut self.vpns
    }

    /// Appends the behavioral state: the slot row itself, valid VPNs most
    /// recent first in each set. The TLB is always true-LRU, so its
    /// canonical form needs no policy branch — contrast with
    /// `Cache::canonical_into`.
    pub(crate) fn canonical_into(&self, out: &mut Vec<u64>) {
        out.extend_from_slice(&self.vpns);
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
        self.vpns.fill(EMPTY);
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
mod differential {
    use super::*;

    /// The stamp-and-clock TLB that slot order replaced, kept as the
    /// oracle: a clock bumped on every translation, one LRU stamp per way
    /// (zero marks an invalid way) and a first-wins stamp argmin victim.
    struct StampTlb {
        cfg: TlbConfig,
        vpns: Vec<u64>,
        lru: Vec<u64>,
        clock: u64,
        stats: TlbStats,
    }

    impl StampTlb {
        fn translate(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let vpn = addr / self.cfg.page_bytes;
            let ways = self.cfg.associativity as usize;
            let base = (vpn % self.cfg.num_sets()) as usize * ways;
            let set = base..base + ways;
            if let Some(i) = set.clone().find(|&i| self.lru[i] != 0 && self.vpns[i] == vpn) {
                self.lru[i] = self.clock;
                self.stats.hits += 1;
                return true;
            }
            self.stats.misses += 1;
            let victim = set.fold(base, |v, i| if self.lru[i] < self.lru[v] { i } else { v });
            self.vpns[victim] = vpn;
            self.lru[victim] = self.clock;
            false
        }

        fn reset(&mut self) {
            self.vpns.fill(0);
            self.lru.fill(0);
            self.clock = 0;
            self.stats = TlbStats::default();
        }
    }

    #[test]
    fn slot_order_matches_the_stamp_model() {
        for seed in 1..=60u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |bound: u64| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % bound
            };
            // 1–8 sets of 1–16 ways, 2 B–8 KiB pages.
            let (sets, ways) = (1u32 << next(4), 1 + next(16) as u32);
            let cfg =
                TlbConfig { entries: sets * ways, associativity: ways, page_bytes: 2 << next(13) };
            let mut tlb = Tlb::new(cfg);
            let n = cfg.entries as usize;
            let mut model = StampTlb {
                cfg,
                vpns: vec![0; n],
                lru: vec![0; n],
                clock: 0,
                stats: TlbStats::default(),
            };
            let entries = u64::from(cfg.entries);
            for i in 0..4_000 {
                // A hot pool that fits plus a cold pool twice the capacity.
                let page = if next(3) != 0 { next(entries) } else { next(3 * entries) };
                let addr = page * cfg.page_bytes + next(cfg.page_bytes);
                let at = format!("seed {seed} {cfg:?}: op {i} at {addr:#x}");
                match next(100) {
                    0 => {
                        tlb.reset();
                        model.reset();
                    }
                    1 | 2 => {
                        tlb.reset_stats();
                        model.stats = TlbStats::default();
                    }
                    3..=40 => {
                        // The stream engine's shape: no per-access stats,
                        // then a bulk flush.
                        // The stock 4-way TLB runs the const-ways
                        // instantiation, as in the stream engine.
                        let hit = if ways == 4 {
                            tlb.translate_fast::<4>(addr)
                        } else {
                            tlb.translate_fast::<0>(addr)
                        };
                        tlb.add_stats(u64::from(hit), u64::from(!hit));
                        assert_eq!(hit, model.translate(addr), "{at}: fast path");
                    }
                    _ => assert_eq!(tlb.translate(addr), model.translate(addr), "{at}"),
                }
            }
            assert_eq!(tlb.stats, model.stats, "seed {seed}: statistics");
            let valid = tlb.vpns.iter().filter(|&&vpn| vpn != EMPTY).count();
            let model_valid = model.lru.iter().filter(|&&stamp| stamp != 0).count();
            assert_eq!(valid, model_valid, "seed {seed}: valid entries");
        }
    }

    #[test]
    #[should_panic(expected = "empty-slot sentinel")]
    fn one_byte_pages_are_rejected() {
        Tlb::new(TlbConfig { entries: 4, associativity: 4, page_bytes: 1 });
    }
}
