//! Set-associative cache model with configurable replacement (true LRU,
//! tree pseudo-LRU, or seeded random).
//!
//! Each set is a row of tag slots whose order is the set's whole state:
//! valid lines form a prefix, kept most-recent first under LRU. One
//! private `probe`/`install` pair per cache serves both the reference path
//! (`access`/`fill`) and the stream engine's fast path
//! (`lookup_fast`/`install_fast`). The pair is generic over a const way
//! count `W`: `W = 0` reads ways and policy from the config (every caller
//! but one), and a nonzero `W` is the stream engine's stock all-LRU
//! instantiation, where the scans have constant length and the policy
//! branch folds away.

use serde::{Deserialize, Serialize};

/// Victim-selection policy.
///
/// Real L1/L2 caches implement tree pseudo-LRU (cheaper than true LRU and
/// close in behavior); some last-level caches use quasi-random policies.
/// The benchmark sweeps stay crisp under any of these because their working
/// sets sit well inside or well outside each capacity — which the
/// replacement-policy robustness test pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// True least-recently-used.
    #[default]
    Lru,
    /// Binary-tree pseudo-LRU (associativity must be a power of two, at
    /// most 64).
    TreePlru,
    /// Deterministic pseudo-random victim (xorshift on an internal state).
    Random,
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
    /// Associativity (ways per set).
    pub associativity: u32,
    /// Victim-selection policy.
    pub policy: ReplacementPolicy,
}

impl CacheConfig {
    /// Creates a config, validating the geometry.
    ///
    /// # Panics
    /// Panics when sizes are not powers of two or do not divide evenly —
    /// cache geometry is static configuration, so this is a programming
    /// error, not a runtime condition.
    pub fn new(size_bytes: u64, line_bytes: u64, associativity: u32) -> Self {
        Self::with_policy(size_bytes, line_bytes, associativity, ReplacementPolicy::Lru)
    }

    /// Creates a config with an explicit replacement policy.
    ///
    /// # Panics
    /// Panics on invalid geometry, or when `TreePlru` is requested with a
    /// non-power-of-two associativity or more than 64 ways.
    pub fn with_policy(
        size_bytes: u64,
        line_bytes: u64,
        associativity: u32,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(
            size_bytes % (line_bytes * u64::from(associativity)) == 0,
            "size must divide into sets"
        );
        let cfg = Self { size_bytes, line_bytes, associativity, policy };
        cfg.assert_plru_tree_fits();
        assert!(cfg.num_sets().is_power_of_two(), "set count must be a power of two");
        cfg
    }

    /// Under `TreePlru`, the ways must be the leaves of a complete binary
    /// tree whose internal nodes fit the per-set `u64` bit word.
    fn assert_plru_tree_fits(&self) {
        if self.policy == ReplacementPolicy::TreePlru {
            assert!(self.associativity.is_power_of_two(), "tree pLRU needs power-of-two ways");
            assert!(self.associativity <= 64, "tree pLRU supports at most 64 ways");
        }
    }

    /// Number of sets.
    pub fn num_sets(&self) -> u64 {
        self.size_bytes / (self.line_bytes * u64::from(self.associativity))
    }
}

/// Per-level hit/miss statistics, split by demand reads and writes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand-read hits.
    pub read_hits: u64,
    /// Demand-read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.read_hits + self.write_hits
    }
}

/// Outcome of [`Cache::lookup_fast`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Lookup {
    /// The line was resident; its recency is already updated.
    Hit,
    /// The line was absent; pass the miss to [`Cache::install_fast`].
    Miss(Miss),
}

/// A fast-path miss: the set and the tag that [`Cache::install_fast`]
/// installs, so the install does not split the address again.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Miss {
    /// First slot of the set in `tags`.
    base: usize,
    tag: u64,
}

/// How a cache splits a line number (`addr >> line_shift`) into a set and
/// a tag, and how many ways each set has.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SetMap {
    /// `log2(line_bytes)`.
    pub(crate) line_shift: u32,
    /// `num_sets - 1`.
    pub(crate) set_mask: u64,
    /// `log2(num_sets)`.
    pub(crate) set_shift: u32,
    /// Ways per set.
    pub(crate) ways: usize,
}

impl SetMap {
    /// Number of sets.
    pub(crate) fn sets(&self) -> usize {
        self.set_mask as usize + 1
    }

    /// The set of a line number.
    #[inline(always)]
    pub(crate) fn set(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    /// The tag of a line number.
    #[inline(always)]
    pub(crate) fn tag(&self, line: u64) -> u64 {
        line >> self.set_shift
    }
}

/// Access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load.
    Read,
    /// Store.
    Write,
}

/// Tag of an empty slot. A tag is `addr >> (line_shift + set_shift)`, so it
/// can equal `u64::MAX` only when both shifts are zero — one-byte lines in
/// a single set — which [`Cache::new`] rejects. The same holds for VPNs and
/// one-byte pages in [`crate::tlb::Tlb`].
pub(crate) const EMPTY: u64 = u64::MAX;

/// One level of set-associative cache.
///
/// A set's state is its slot order. `tags` holds `ways` slots per set,
/// indexed `set * ways + slot`, with `EMPTY` in free slots. Every policy
/// fills the first free slot and nothing invalidates a single line, so a
/// set's valid lines are always a prefix of its slots.
///
/// * Under LRU the prefix is kept most-recent first: a hit at slot `k`
///   moves slots `0..k` down one and puts the line in slot 0; a miss moves
///   the whole set down one, dropping the last slot (the LRU line or a free
///   slot).
/// * Under TreePlru and Random a slot is a way index, since the bit tree
///   and the random draw name ways by position.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// The address split — it runs on every probe, so the power-of-two
    /// geometry is folded to shifts and masks up front.
    map: SetMap,
    /// Line tags, `set * ways + slot` layout; [`EMPTY`] marks a free slot.
    tags: Vec<u64>,
    /// Tree-pLRU state: one bit-tree word per set, kept under TreePlru only.
    /// A `u64` holds the 63 internal nodes of a 64-way tree.
    plru: Vec<u64>,
    /// Xorshift state for the random policy.
    rng_state: u64,
    /// Accumulated statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    /// Panics when the line size or set count is not a power of two, or a
    /// `TreePlru` level has a non-power-of-two associativity or more than
    /// 64 ways (the [`CacheConfig`] constructors already enforce these; the
    /// asserts guard configs built as struct literals), and for one-byte
    /// lines in a single set, whose tags could collide with the empty-slot
    /// sentinel.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.num_sets().is_power_of_two(), "set count must be a power of two");
        cfg.assert_plru_tree_fits();
        assert!(
            cfg.line_bytes * cfg.num_sets() > 1,
            "one-byte lines in one set leave no tag bit for the empty-slot sentinel"
        );
        let n = (cfg.num_sets() * u64::from(cfg.associativity)) as usize;
        Self {
            cfg,
            map: SetMap {
                line_shift: cfg.line_bytes.trailing_zeros(),
                set_mask: cfg.num_sets() - 1,
                set_shift: cfg.num_sets().trailing_zeros(),
                ways: cfg.associativity as usize,
            },
            tags: vec![EMPTY; n],
            plru: vec![0; cfg.num_sets() as usize],
            rng_state: 0x2545_F491_4F6C_DD1D,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Ways per set: `W` when nonzero, else the configured associativity.
    #[inline(always)]
    fn ways<const W: usize>(&self) -> usize {
        if W == 0 {
            self.cfg.associativity as usize
        } else {
            W
        }
    }

    #[inline(always)]
    fn set_range<const W: usize>(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.map.line_shift;
        (self.map.set(line) * self.ways::<W>(), self.map.tag(line))
    }

    /// Looks up `addr`; on hit refreshes LRU and returns `true`. Does not
    /// allocate on miss (use [`Cache::fill`]).
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        let (base, tag) = self.set_range::<0>(addr);
        let hit = self.probe::<0>(base, tag);
        match (kind, hit) {
            (AccessKind::Read, true) => self.stats.read_hits += 1,
            (AccessKind::Read, false) => self.stats.read_misses += 1,
            (AccessKind::Write, true) => self.stats.write_hits += 1,
            (AccessKind::Write, false) => self.stats.write_misses += 1,
        }
        hit
    }

    /// Installs the line containing `addr`, evicting per the policy if the
    /// set is full. Returns the evicted line's address when a valid line
    /// was displaced. The line must not be resident: every caller fills
    /// only after a miss.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        let (base, tag) = self.set_range::<0>(addr);
        let evicted = self.install::<0>(base, tag);
        let set = (base / self.cfg.associativity as usize) as u64;
        (evicted != EMPTY).then(|| (evicted * self.cfg.num_sets() + set) * self.cfg.line_bytes)
    }

    /// Looks `tag` up in the set at `base` and, on a hit, applies the
    /// policy's recency update: under LRU the line moves to slot 0, under
    /// TreePlru its way is touched in the bit tree, and Random keeps no
    /// recency. The one hit path behind [`Cache::access`],
    /// [`Cache::probe_silent`] and [`Cache::lookup_fast`]. A nonzero `W`
    /// must equal the associativity of an LRU cache.
    #[inline(always)]
    fn probe<const W: usize>(&mut self, base: usize, tag: u64) -> bool {
        let ways = self.ways::<W>();
        // lint: allow(reachable_panic): base is a set index times associativity, in range by construction
        let set = &mut self.tags[base..base + ways];
        let Some(slot) = find_slot::<W>(set, tag) else {
            return false;
        };
        let policy = if W == 0 { self.cfg.policy } else { ReplacementPolicy::Lru };
        match policy {
            ReplacementPolicy::Lru => promote::<W>(set, slot, tag),
            ReplacementPolicy::TreePlru => touch_plru(
                // lint: allow(reachable_panic): base/ways is the set index, in range by construction
                &mut self.plru[base / ways],
                slot as u32,
                self.cfg.associativity,
            ),
            ReplacementPolicy::Random => {}
        }
        true
    }

    /// Installs `tag`, which must not be resident, in the set at `base` and
    /// returns the displaced tag ([`EMPTY`] when a free slot took it). The
    /// one install path behind [`Cache::fill`] and [`Cache::install_fast`].
    /// Under LRU the set moves down one slot and the line takes slot 0.
    /// Under TreePlru and Random the line takes the first free slot, or the
    /// policy's victim when the set is full; the victim is drawn only then,
    /// so the bit tree and the xorshift state advance once per eviction.
    /// A nonzero `W` must equal the associativity of an LRU cache.
    #[inline(always)]
    fn install<const W: usize>(&mut self, base: usize, tag: u64) -> u64 {
        let ways = self.ways::<W>();
        // lint: allow(reachable_panic): base is a set index times associativity, in range by construction
        let set = &mut self.tags[base..base + ways];
        if W != 0 || self.cfg.policy == ReplacementPolicy::Lru {
            let evicted = set[ways - 1];
            set.copy_within(..ways - 1, 1);
            set[0] = tag;
            return evicted;
        }
        let way = match set.iter().position(|&line| line == EMPTY) {
            Some(free) => free,
            None => self.policy_victim(base / ways),
        };
        // lint: allow(reachable_panic): base + way is a slot of this set, in range by construction
        let evicted = std::mem::replace(&mut self.tags[base + way], tag);
        if self.cfg.policy == ReplacementPolicy::TreePlru {
            // lint: allow(reachable_panic): base/ways is the set index, in range by construction
            touch_plru(&mut self.plru[base / ways], way as u32, self.cfg.associativity);
        }
        evicted
    }

    /// Victim way in a *full* set for the non-LRU policies. Out of line on
    /// purpose: inlining the pLRU tree walk and the xorshift draw into the
    /// install hot path costs the dominant LRU configuration even when the
    /// policy branch is never taken.
    #[inline(never)]
    fn policy_victim(&mut self, set: usize) -> usize {
        let ways = self.cfg.associativity as usize;
        match self.cfg.policy {
            // Unreachable from `install`; kept total so this stays a plain
            // function of the policy (the last slot holds the LRU line).
            ReplacementPolicy::Lru => ways - 1,
            ReplacementPolicy::TreePlru => {
                // lint: allow(reachable_panic): set is a set index, in range by construction
                plru_victim(self.plru[set], self.cfg.associativity) as usize
            }
            ReplacementPolicy::Random => {
                // xorshift64*
                self.rng_state ^= self.rng_state >> 12;
                self.rng_state ^= self.rng_state << 25;
                self.rng_state ^= self.rng_state >> 27;
                (self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % ways
            }
        }
    }

    /// Fast-path lookup for the stream replay engine: [`Cache::access`]
    /// minus statistics, which the caller tallies in bulk. A miss carries
    /// the set and tag to [`Cache::install_fast`], so the hierarchy can
    /// look further down before installing without splitting the address
    /// again. `W` is the associativity of an LRU cache, or 0 for any cache
    /// (see the module docs).
    #[inline(always)]
    pub(crate) fn lookup_fast<const W: usize>(&mut self, addr: u64) -> Lookup {
        debug_assert!(W == 0 || self.is_lru_with_ways(W), "stock ways on a non-stock cache");
        let (base, tag) = self.set_range::<W>(addr);
        if self.probe::<W>(base, tag) {
            Lookup::Hit
        } else {
            Lookup::Miss(Miss { base, tag })
        }
    }

    /// Fast-path install of a [`Cache::lookup_fast`] miss: [`Cache::fill`]
    /// minus the evicted-address reconstruction. Nothing touches the set
    /// between the lookup and the install, so the line is still absent.
    /// `W` is the one the lookup used.
    #[inline(always)]
    pub(crate) fn install_fast<const W: usize>(&mut self, miss: Miss) {
        self.install::<W>(miss.base, miss.tag);
    }

    /// Whether this is an LRU cache with exactly `ways` ways — the
    /// condition for running it through a nonzero-`W` instantiation.
    pub(crate) fn is_lru_with_ways(&self, ways: usize) -> bool {
        self.cfg.policy == ReplacementPolicy::Lru && self.cfg.associativity as usize == ways
    }

    /// The address split of an LRU cache that holds no line, else `None` —
    /// the stream engine's counted passes write such a cache's slot rows
    /// directly (see [`Cache::rows_mut`]).
    pub(crate) fn empty_lru_sets(&self) -> Option<SetMap> {
        let empty = self.tags.iter().all(|&line| line == EMPTY);
        (self.cfg.policy == ReplacementPolicy::Lru && empty).then_some(self.map)
    }

    /// The slot rows, `set * ways + slot`. Under LRU each set must stay a
    /// prefix of distinct tags, most recent first, then [`EMPTY`] slots.
    pub(crate) fn rows_mut(&mut self) -> &mut [u64] {
        &mut self.tags
    }

    /// Exact state transition of [`Cache::access`] with no statistics at
    /// all — the reference prefetcher's probe, which must not perturb
    /// demand hit/miss counters.
    #[inline]
    pub(crate) fn probe_silent(&mut self, addr: u64) -> bool {
        let (base, tag) = self.set_range::<0>(addr);
        self.probe::<0>(base, tag)
    }

    /// Appends this cache's behavioral state — everything a future access
    /// stream can observe, and nothing it cannot. The slot row already is
    /// that state under LRU (valid tags most-recent first, then free
    /// slots). TreePlru adds the per-set bit-tree words and Random the
    /// xorshift state, the other inputs to their victim choice.
    pub(crate) fn canonical_into(&self, out: &mut Vec<u64>) {
        match self.cfg.policy {
            ReplacementPolicy::Lru => {}
            ReplacementPolicy::TreePlru => out.extend_from_slice(&self.plru),
            ReplacementPolicy::Random => out.push(self.rng_state),
        }
        out.extend_from_slice(&self.tags);
    }

    /// Invalidates everything and clears statistics.
    pub fn reset(&mut self) {
        self.tags.fill(EMPTY);
        self.plru.fill(0);
        self.stats = CacheStats::default();
    }

    /// Clears statistics only (keeps cache contents — used after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&line| line != EMPTY).count()
    }
}

/// The slot of `set` holding `key`, if any. Keys are unique within a set.
/// With a const `W` the scan is branch-free: all `W` slots are compared and
/// the first match is read off a bit mask. `W = 0` keeps an early-exit
/// scan, which serves sets of any width.
#[inline(always)]
pub(crate) fn find_slot<const W: usize>(set: &[u64], key: u64) -> Option<usize> {
    if W == 0 {
        return set.iter().position(|&slot| slot == key);
    }
    const { assert!(W <= 64, "the match mask is one u64") };
    let mut matches = 0u64;
    for (i, &slot) in set.iter().enumerate() {
        matches |= u64::from(slot == key) << i;
    }
    (matches != 0).then(|| matches.trailing_zeros() as usize)
}

/// Moves the line at `slot` of a most-recent-first set to slot 0 as `tag`,
/// shifting slots `0..slot` down one. With `slot` the last slot this is an
/// LRU install: the last line (or free slot) drops out. A const `W` shifts
/// with a short loop, which beats a `memmove` call at the stock widths.
#[inline(always)]
pub(crate) fn promote<const W: usize>(set: &mut [u64], slot: usize, tag: u64) {
    if W == 0 {
        set.copy_within(..slot, 1);
    } else {
        for i in (0..slot).rev() {
            set[i + 1] = set[i];
        }
    }
    set[0] = tag;
}

/// Marks way `w` most-recently-used in a tree-pLRU bit word: walk from the
/// root, flipping each internal node to point *away* from the taken path.
/// Out of line so the tree walk's code stays out of `probe`/`install`,
/// whose scan loops would otherwise pay a codegen penalty under every
/// policy for maintenance only tree-pLRU needs.
#[inline(never)]
fn touch_plru(state: &mut u64, w: u32, ways: u32) {
    if ways < 2 {
        return;
    }
    let levels = ways.trailing_zeros();
    let mut node = 0u32; // root at index 0, children of n at 2n+1 / 2n+2
    for level in (0..levels).rev() {
        let bit = (w >> level) & 1;
        if bit == 0 {
            *state |= 1 << node; // point to the right subtree
        } else {
            *state &= !(1 << node); // point to the left subtree
        }
        node = 2 * node + 1 + bit;
    }
}

/// Follows the tree-pLRU pointers to the pseudo-least-recently-used way.
fn plru_victim(state: u64, ways: u32) -> u32 {
    if ways < 2 {
        return 0;
    }
    let levels = ways.trailing_zeros();
    let mut node = 0u32;
    let mut w = 0u32;
    for _ in 0..levels {
        let bit = ((state >> node) & 1) as u32;
        w = (w << 1) | bit;
        node = 2 * node + 1 + bit;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn geometry() {
        let c = CacheConfig::new(32 * 1024, 64, 8);
        assert_eq!(c.num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_line_size_panics() {
        CacheConfig::new(512, 48, 2);
    }

    #[test]
    fn miss_then_hit_after_fill() {
        let mut c = small();
        assert!(!c.access(0x1000, AccessKind::Read));
        c.fill(0x1000);
        assert!(c.access(0x1000, AccessKind::Read));
        assert!(c.access(0x1030, AccessKind::Read), "same 64B line");
        assert_eq!(c.stats.read_misses, 1);
        assert_eq!(c.stats.read_hits, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Three lines mapping to the same set (set stride = 4 sets * 64 B = 256 B).
        let (a, b, d) = (0x0000u64, 0x0100, 0x0200);
        c.fill(a);
        c.fill(b);
        // Touch `a` so `b` becomes LRU.
        assert!(c.access(a, AccessKind::Read));
        let evicted = c.fill(d);
        assert_eq!(evicted, Some(b), "LRU way must be displaced");
        assert!(c.access(a, AccessKind::Read));
        assert!(!c.access(b, AccessKind::Read));
        assert!(c.access(d, AccessKind::Read));
    }

    #[test]
    fn evicted_address_reconstruction() {
        let mut c = small();
        let addr = 0x1234u64;
        c.fill(addr);
        // Force eviction by filling the same set with 2 more lines.
        let set_stride = 256u64;
        let base = addr & !(64 - 1) & (set_stride - 1); // same set index bits
        let e1 = c.fill(base + set_stride * 100);
        assert_eq!(e1, None); // second way was free
        let e2 = c.fill(base + set_stride * 200);
        assert_eq!(e2, Some(addr & !(64 - 1)), "evicted line address rounds to line start");
    }

    #[test]
    fn working_set_within_capacity_all_hits() {
        let mut c = small();
        let lines: Vec<u64> = (0..8).map(|i| i * 64).collect(); // exactly capacity
        for &a in &lines {
            if !c.access(a, AccessKind::Read) {
                c.fill(a);
            }
        }
        c.reset_stats();
        for _ in 0..10 {
            for &a in &lines {
                assert!(c.access(a, AccessKind::Read));
            }
        }
        assert_eq!(c.stats.read_misses, 0);
        assert_eq!(c.stats.read_hits, 80);
    }

    #[test]
    fn working_set_twice_capacity_thrashes() {
        let mut c = small();
        // 16 lines cycling through a 8-line LRU cache sequentially: always miss.
        let lines: Vec<u64> = (0..16).map(|i| i * 64).collect();
        for _ in 0..4 {
            for &a in &lines {
                if !c.access(a, AccessKind::Read) {
                    c.fill(a);
                }
            }
        }
        // After warmup round, sequential sweep over 2x capacity with LRU
        // evicts every line before reuse: hit rate 0.
        assert_eq!(c.stats.read_hits, 0);
    }

    #[test]
    fn writes_tracked_separately() {
        let mut c = small();
        assert!(!c.access(0, AccessKind::Write));
        c.fill(0);
        assert!(c.access(0, AccessKind::Write));
        assert_eq!(c.stats.write_misses, 1);
        assert_eq!(c.stats.write_hits, 1);
        assert_eq!(c.stats.accesses(), 2);
        assert_eq!(c.stats.hits(), 1);
        assert_eq!(c.stats.misses(), 1);
    }

    #[test]
    fn reset_clears_contents() {
        let mut c = small();
        c.fill(0);
        assert_eq!(c.valid_lines(), 1);
        c.reset();
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.access(0, AccessKind::Read));
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    fn cache_with(policy: ReplacementPolicy) -> Cache {
        Cache::new(CacheConfig::with_policy(512, 64, 4, policy)) // 2 sets x 4 ways
    }

    #[test]
    fn plru_touch_and_victim_are_consistent() {
        // After touching ways 0..3 in order, the pseudo-LRU victim must be
        // way 0 (the least recently touched under the tree approximation).
        let mut state = 0u64;
        for w in 0..4 {
            touch_plru(&mut state, w, 4);
        }
        assert_eq!(plru_victim(state, 4), 0);
        // Touch way 0 again: victim moves to the other subtree.
        touch_plru(&mut state, 0, 4);
        let v = plru_victim(state, 4);
        assert!(v == 2 || v == 3, "victim {v} must leave the recently-used pair");
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        for ways in [4u32, 64] {
            // Each pattern way `w` stands for the last way of quarter `w`,
            // so at 64 ways the walk reaches the deepest tree nodes.
            let quarter = ways / 4;
            let mut state = 0u64;
            for pattern in [[3u32, 1, 2, 0], [0, 0, 1, 3], [2, 2, 2, 1]] {
                for &w in &pattern {
                    touch_plru(&mut state, w * quarter + quarter - 1, ways);
                }
                let last = *pattern.last().unwrap() * quarter + quarter - 1;
                assert_ne!(plru_victim(state, ways), last, "{ways} ways: MRU way must survive");
            }
            for w in 0..ways {
                touch_plru(&mut state, w, ways);
                assert_ne!(plru_victim(state, ways), w, "{ways} ways: way {w} just touched");
            }
        }
    }

    #[test]
    fn working_set_within_capacity_hits_under_every_policy() {
        for policy in
            [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random]
        {
            let mut c = cache_with(policy);
            let lines: Vec<u64> = (0..8).map(|i| i * 64).collect(); // exactly capacity
            for _ in 0..4 {
                for &a in &lines {
                    if !c.access(a, AccessKind::Read) {
                        c.fill(a);
                    }
                }
            }
            c.reset_stats();
            for _ in 0..4 {
                for &a in &lines {
                    c.access(a, AccessKind::Read);
                }
            }
            assert_eq!(c.stats.misses(), 0, "{policy:?}: resident set must hit");
        }
    }

    #[test]
    fn oversized_set_thrashes_under_every_policy() {
        for policy in
            [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random]
        {
            let mut c = cache_with(policy);
            let lines: Vec<u64> = (0..32).map(|i| i * 64).collect(); // 4x capacity
            for _ in 0..4 {
                for &a in &lines {
                    if !c.access(a, AccessKind::Read) {
                        c.fill(a);
                    }
                }
            }
            c.reset_stats();
            for &a in &lines {
                if !c.access(a, AccessKind::Read) {
                    c.fill(a);
                }
            }
            let miss_rate = c.stats.misses() as f64 / 32.0;
            assert!(miss_rate > 0.5, "{policy:?}: miss rate {miss_rate}");
        }
    }

    #[test]
    fn random_policy_is_deterministic() {
        let run = || {
            let mut c = cache_with(ReplacementPolicy::Random);
            for i in 0..100u64 {
                let a = (i * 37 % 64) * 64;
                if !c.access(a, AccessKind::Read) {
                    c.fill(a);
                }
            }
            c.stats
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "power-of-two ways")]
    fn plru_rejects_odd_associativity() {
        CacheConfig::with_policy(576, 64, 3, ReplacementPolicy::TreePlru);
    }

    /// A 3-way tree has no levels, so every eviction would pick way 0.
    #[test]
    #[should_panic(expected = "power-of-two ways")]
    fn cache_new_rejects_struct_literal_odd_plru() {
        let policy = ReplacementPolicy::TreePlru;
        Cache::new(CacheConfig { size_bytes: 768, line_bytes: 64, associativity: 3, policy });
    }

    #[test]
    #[should_panic(expected = "at most 64 ways")]
    fn cache_new_rejects_plru_wider_than_64_ways() {
        let policy = ReplacementPolicy::TreePlru;
        Cache::new(CacheConfig {
            size_bytes: 4 * 128 * 64,
            line_bytes: 64,
            associativity: 128,
            policy,
        });
    }
}

#[cfg(test)]
mod differential {
    use super::*;

    /// Seeded xorshift64 stream of small integers.
    struct Draw(u64);

    impl Draw {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// The stamp-and-clock cache that slot order replaced, kept as the
    /// oracle: a clock bumped on every lookup and fill, one LRU stamp per
    /// way (zero marks an invalid way), a first-wins stamp argmin for the
    /// victim, and the same pLRU word and xorshift draw.
    struct StampCache {
        cfg: CacheConfig,
        tags: Vec<u64>,
        lru: Vec<u64>,
        plru: Vec<u64>,
        rng: u64,
        clock: u64,
        stats: CacheStats,
    }

    impl StampCache {
        fn new(cfg: CacheConfig) -> Self {
            let n = (cfg.num_sets() * u64::from(cfg.associativity)) as usize;
            let (tags, lru, plru) = (vec![0; n], vec![0; n], vec![0; cfg.num_sets() as usize]);
            Self {
                cfg,
                tags,
                lru,
                plru,
                rng: 0x2545_F491_4F6C_DD1D,
                clock: 0,
                stats: Default::default(),
            }
        }

        /// `(first way of the set, tag)`.
        fn split(&self, addr: u64) -> (usize, u64) {
            let line = addr / self.cfg.line_bytes;
            let sets = self.cfg.num_sets();
            ((line % sets) as usize * self.cfg.associativity as usize, line / sets)
        }

        fn find(&self, addr: u64) -> Option<usize> {
            let (base, tag) = self.split(addr);
            (base..base + self.cfg.associativity as usize)
                .find(|&i| self.lru[i] != 0 && self.tags[i] == tag)
        }

        fn probe(&mut self, addr: u64) -> bool {
            self.clock += 1;
            let ways = self.cfg.associativity;
            let Some(i) = self.find(addr) else { return false };
            self.lru[i] = self.clock;
            touch_plru(&mut self.plru[i / ways as usize], i as u32 % ways, ways);
            true
        }

        fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
            let hit = self.probe(addr);
            match (kind, hit) {
                (AccessKind::Read, true) => self.stats.read_hits += 1,
                (AccessKind::Read, false) => self.stats.read_misses += 1,
                (AccessKind::Write, true) => self.stats.write_hits += 1,
                (AccessKind::Write, false) => self.stats.write_misses += 1,
            }
            hit
        }

        fn fill(&mut self, addr: u64) -> Option<u64> {
            self.clock += 1;
            let (base, tag) = self.split(addr);
            let ways = self.cfg.associativity;
            let mut victim = base;
            for i in base..base + ways as usize {
                if self.lru[i] < self.lru[victim] {
                    victim = i;
                }
            }
            if self.lru[victim] != 0 {
                match self.cfg.policy {
                    ReplacementPolicy::Lru => {}
                    ReplacementPolicy::TreePlru => {
                        victim = base + plru_victim(self.plru[base / ways as usize], ways) as usize;
                    }
                    ReplacementPolicy::Random => {
                        self.rng ^= self.rng >> 12;
                        self.rng ^= self.rng << 25;
                        self.rng ^= self.rng >> 27;
                        let draw = self.rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33;
                        victim = base + (draw % u64::from(ways)) as usize;
                    }
                }
            }
            let set = (base / ways as usize) as u64;
            let evicted = (self.lru[victim] != 0)
                .then(|| (self.tags[victim] * self.cfg.num_sets() + set) * self.cfg.line_bytes);
            self.tags[victim] = tag;
            self.lru[victim] = self.clock;
            touch_plru(&mut self.plru[base / ways as usize], (victim - base) as u32, ways);
            evicted
        }

        fn reset(&mut self) {
            self.tags.fill(0);
            self.lru.fill(0);
            self.plru.fill(0);
            self.clock = 0;
            self.stats = CacheStats::default();
        }
    }

    /// A seeded geometry: 1–8 sets, 1–16 ways (powers of two up to 64
    /// under TreePlru), 4–64-byte lines.
    fn geometry(draw: &mut Draw, policy: ReplacementPolicy) -> CacheConfig {
        let sets = 1 << draw.next(4);
        let ways = match policy {
            ReplacementPolicy::TreePlru => 1 << draw.next(7),
            _ => 1 + draw.next(16),
        };
        let line = 4 << draw.next(5);
        CacheConfig::with_policy(sets * ways * line, line, ways as u32, policy)
    }

    /// The fast-path lookup and install on the instantiation the stream
    /// engine picks for these ways: the stock LRU widths 8 and 16 as
    /// constants, anything else read from the config.
    fn fast_access(cache: &mut Cache, addr: u64) -> bool {
        fn on<const W: usize>(cache: &mut Cache, addr: u64) -> bool {
            match cache.lookup_fast::<W>(addr) {
                Lookup::Hit => true,
                Lookup::Miss(miss) => {
                    cache.install_fast::<W>(miss);
                    false
                }
            }
        }
        match cache.cfg.associativity {
            8 if cache.is_lru_with_ways(8) => on::<8>(cache, addr),
            16 if cache.is_lru_with_ways(16) => on::<16>(cache, addr),
            _ => on::<0>(cache, addr),
        }
    }

    /// Drives the slot-order cache and the stamp model side by side over a
    /// seeded mix of `access`, `fill`, `probe_silent`, the fast-path
    /// lookup/install pair, `reset` and `reset_stats`, comparing every hit
    /// and every evicted address. A fill only targets an absent line, the
    /// contract every caller keeps: filling a resident line would leave a
    /// duplicate, a state neither model defines.
    fn assert_agrees(policy: ReplacementPolicy, seed: u64) {
        let mut draw = Draw(seed);
        let cfg = geometry(&mut draw, policy);
        let (mut cache, mut model) = (Cache::new(cfg), StampCache::new(cfg));
        let capacity = cfg.num_sets() * u64::from(cfg.associativity);
        let tag = format!("{policy:?} seed {seed:#x} {cfg:?}");
        for i in 0..4_000 {
            // A hot pool that fits plus a cold pool twice the capacity.
            let line =
                if draw.next(3) != 0 { draw.next(capacity) } else { draw.next(3 * capacity) };
            let addr = line * cfg.line_bytes + draw.next(cfg.line_bytes);
            let kind = if draw.next(3) == 0 { AccessKind::Write } else { AccessKind::Read };
            let at = format!("{tag}: op {i} at {addr:#x}");
            match draw.next(100) {
                0 => {
                    cache.reset();
                    model.reset();
                }
                1 | 2 => {
                    cache.reset_stats();
                    model.stats = CacheStats::default();
                }
                3..=22 if model.find(addr).is_none() => {
                    assert_eq!(cache.fill(addr), model.fill(addr), "{at}: fill eviction");
                }
                23..=37 => assert_eq!(cache.probe_silent(addr), model.probe(addr), "{at}: probe"),
                38..=57 => {
                    let hit = fast_access(&mut cache, addr);
                    let want = model.probe(addr);
                    if !want {
                        model.fill(addr);
                    }
                    assert_eq!(hit, want, "{at}: fast path");
                }
                _ => {
                    let hit = cache.access(addr, kind);
                    assert_eq!(hit, model.access(addr, kind), "{at}: access");
                    if !hit {
                        assert_eq!(cache.fill(addr), model.fill(addr), "{at}: fill after miss");
                    }
                }
            }
        }
        assert_eq!(cache.stats, model.stats, "{tag}: statistics");
        let model_valid = model.lru.iter().filter(|&&stamp| stamp != 0).count();
        assert_eq!(cache.valid_lines(), model_valid, "{tag}: valid lines");
    }

    #[test]
    fn slot_order_matches_the_stamp_model_under_every_policy() {
        for policy in
            [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random]
        {
            for seed in 1..=40u64 {
                assert_agrees(policy, seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty-slot sentinel")]
    fn one_byte_single_set_geometry_is_rejected() {
        Cache::new(CacheConfig::new(4, 1, 4));
    }
}
