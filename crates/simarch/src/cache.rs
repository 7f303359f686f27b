//! Set-associative cache model with configurable replacement (true LRU,
//! tree pseudo-LRU, or seeded random).

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
    /// Binary-tree pseudo-LRU (associativity must be a power of two).
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
    /// non-power-of-two associativity.
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
        if policy == ReplacementPolicy::TreePlru {
            assert!(associativity.is_power_of_two(), "tree pLRU needs power-of-two ways");
        }
        let cfg = Self { size_bytes, line_bytes, associativity, policy };
        assert!(cfg.num_sets().is_power_of_two(), "set count must be a power of two");
        cfg
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
    /// The line was resident; its way is stamped most-recently-used.
    Hit,
    /// The line was absent; pass the miss to [`Cache::install_fast`].
    Miss(Miss),
}

/// A fast-path miss: the set, the way an install fills when the policy
/// does not override it, and the tag to install.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Miss {
    /// First slot of the set in the SoA rows.
    base: usize,
    /// First-wins stamp argmin within the set (an invalid way if any).
    way: usize,
    tag: u64,
    /// Every way was valid, so a non-LRU policy picks the victim.
    full: bool,
}

/// Access type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load.
    Read,
    /// Store.
    Write,
}

/// One level of set-associative cache.
///
/// State is struct-of-arrays: parallel `tags`/`lru` vectors indexed by
/// `set * ways + way`. A line is valid iff its LRU stamp is non-zero —
/// the clock pre-increments before every touch or fill, so live lines
/// always carry a stamp ≥ 1, and the sentinel doubles as the victim key
/// (an invalid way is the unconditional LRU minimum). This keeps the hot
/// lookup scanning two dense `u64` rows instead of a padded struct array.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    /// `log2(line_bytes)` — address decomposition runs on every probe, so
    /// the power-of-two geometry is folded to shifts and masks up front.
    line_shift: u32,
    /// `num_sets - 1`.
    set_mask: u64,
    /// `log2(num_sets)`.
    set_shift: u32,
    /// Line tags, `set * ways + way` layout.
    tags: Vec<u64>,
    /// LRU stamps, same layout; 0 means the way is invalid.
    lru: Vec<u64>,
    /// Tree-pLRU state: one bit-tree word per set.
    plru: Vec<u32>,
    /// Xorshift state for the random policy.
    rng_state: u64,
    clock: u64,
    /// Accumulated statistics.
    pub stats: CacheStats,
}

impl Cache {
    /// Creates an empty (all-invalid) cache.
    ///
    /// # Panics
    /// Panics when the line size or set count is not a power of two (the
    /// [`CacheConfig`] constructors already enforce this; the assert guards
    /// configs built as struct literals).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.line_bytes.is_power_of_two(), "line size must be a power of two");
        assert!(cfg.num_sets().is_power_of_two(), "set count must be a power of two");
        let n = (cfg.num_sets() * u64::from(cfg.associativity)) as usize;
        Self {
            cfg,
            line_shift: cfg.line_bytes.trailing_zeros(),
            set_mask: cfg.num_sets() - 1,
            set_shift: cfg.num_sets().trailing_zeros(),
            tags: vec![0; n],
            lru: vec![0; n],
            plru: vec![0; cfg.num_sets() as usize],
            rng_state: 0x2545_F491_4F6C_DD1D,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    #[inline]
    fn set_range(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr & self.set_mask) as usize;
        let tag = line_addr >> self.set_shift;
        (set * self.cfg.associativity as usize, tag)
    }

    /// Looks up `addr`; on hit refreshes LRU and returns `true`. Does not
    /// allocate on miss (use [`Cache::fill`]).
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.clock += 1;
        let (base, tag) = self.set_range(addr);
        let ways = self.cfg.associativity as usize;
        let mut hit = false;
        for w in 0..ways {
            if self.lru[base + w] != 0 && self.tags[base + w] == tag {
                self.lru[base + w] = self.clock;
                hit = true;
                let set = base / ways;
                let ways_u32 = self.cfg.associativity;
                touch_plru(&mut self.plru[set], w as u32, ways_u32);
                break;
            }
        }
        match (kind, hit) {
            (AccessKind::Read, true) => self.stats.read_hits += 1,
            (AccessKind::Read, false) => self.stats.read_misses += 1,
            (AccessKind::Write, true) => self.stats.write_hits += 1,
            (AccessKind::Write, false) => self.stats.write_misses += 1,
        }
        hit
    }

    /// Installs the line containing `addr`, evicting the LRU way if needed.
    /// Returns the evicted line's address when a valid line was displaced.
    pub fn fill(&mut self, addr: u64) -> Option<u64> {
        self.clock += 1;
        let (base, tag) = self.set_range(addr);
        let ways = self.cfg.associativity as usize;
        let num_sets = self.cfg.num_sets();
        let set_index = (base / ways) as u64;
        let set = base / ways;
        let victim = self.select_victim(base);
        let evicted = if self.lru[victim] != 0 {
            Some((self.tags[victim] * num_sets + set_index) * self.cfg.line_bytes)
        } else {
            None
        };
        self.tags[victim] = tag;
        self.lru[victim] = self.clock;
        touch_plru(&mut self.plru[set], (victim - base) as u32, self.cfg.associativity);
        evicted
    }

    /// Picks the way to displace in the set starting at `base` (prefer an
    /// invalid way; otherwise evict per the configured policy). The stamp
    /// argmin scan is shared by every policy: an invalid way's zero stamp
    /// is the unconditional minimum and first-wins tiebreaking matches the
    /// first-free-way preference, so [`Cache::policy_victim`] only runs
    /// when the set is full (`best_lru != 0`). [`Cache::lookup_fast`]
    /// folds the same argmin into its hit scan, and [`Cache::install_fast`]
    /// calls [`Cache::policy_victim`] under the same condition, so both
    /// engines draw from the same xorshift sequence.
    #[inline]
    fn select_victim(&mut self, base: usize) -> usize {
        let ways = self.cfg.associativity as usize;
        let mut victim = base;
        let mut best_lru = u64::MAX;
        // lint: allow(reachable_panic): base is a set index times associativity, in range by construction
        for (i, &stamp) in self.lru[base..base + ways].iter().enumerate() {
            if stamp < best_lru {
                best_lru = stamp;
                victim = base + i;
            }
        }
        if best_lru != 0 && self.cfg.policy != ReplacementPolicy::Lru {
            victim = self.policy_victim(base);
        }
        victim
    }

    /// Victim choice in a *full* set for the non-LRU policies. Out of line
    /// on purpose: inlining the pLRU tree walk and the xorshift draw into
    /// the fill hot loops costs the dominant LRU configuration ~40% on the
    /// dcache replay even when the policy branch is never taken.
    #[inline(never)]
    fn policy_victim(&mut self, base: usize) -> usize {
        let ways = self.cfg.associativity as usize;
        let w = match self.cfg.policy {
            // Unreachable from `select_victim`; kept total so this stays a
            // plain function of the policy (the argmin is the LRU victim).
            ReplacementPolicy::Lru => {
                // lint: allow(reachable_panic): base is a set index times associativity, in range by construction
                let lru = &self.lru[base..base + ways];
                (0..ways).min_by_key(|&i| lru[i]).unwrap_or(0)
            }
            ReplacementPolicy::TreePlru => {
                // lint: allow(reachable_panic): base/ways is the set index, in range by construction
                plru_victim(self.plru[base / ways], self.cfg.associativity) as usize
            }
            ReplacementPolicy::Random => {
                // xorshift64*
                self.rng_state ^= self.rng_state >> 12;
                self.rng_state ^= self.rng_state << 25;
                self.rng_state ^= self.rng_state >> 27;
                (self.rng_state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % ways
            }
        };
        base + w
    }

    /// Fast-path lookup for the stream replay engine: one scan over the
    /// set that either stamps the hit way — the exact hit behavior of
    /// [`Cache::access`] minus statistics, which the caller tallies in bulk
    /// — or, on a miss, returns the first-wins stamp argmin that
    /// [`Cache::fill`] would pick, for [`Cache::install_fast`] to apply.
    /// The pLRU word is maintained only under
    /// [`ReplacementPolicy::TreePlru`] — the one policy that consults it —
    /// so LRU/Random lookups skip the tree walk without changing any
    /// observable state.
    #[inline]
    pub(crate) fn lookup_fast(&mut self, addr: u64) -> Lookup {
        self.clock += 1;
        let (base, tag) = self.set_range(addr);
        let ways = self.cfg.associativity as usize;
        let mut victim = 0;
        let mut best_lru = u64::MAX;
        let set = self.lru[base..base + ways].iter_mut().zip(&self.tags[base..base + ways]);
        for (w, (stamp, &line)) in set.enumerate() {
            if *stamp != 0 && line == tag {
                *stamp = self.clock;
                if self.cfg.policy == ReplacementPolicy::TreePlru {
                    touch_plru_outlined(
                        &mut self.plru[base / ways],
                        w as u32,
                        self.cfg.associativity,
                    );
                }
                return Lookup::Hit;
            }
            if *stamp < best_lru {
                best_lru = *stamp;
                victim = w;
            }
        }
        Lookup::Miss(Miss { base, way: victim, tag, full: best_lru != 0 })
    }

    /// Fast-path install of a [`Cache::lookup_fast`] miss: the exact victim
    /// choice and stamping of [`Cache::fill`] under every policy, minus the
    /// evicted address reconstruction. The set is untouched between the
    /// lookup and the install, so the scanned argmin still stands; the
    /// non-LRU policies draw their victim here, at install, exactly as
    /// `fill` does, so the pLRU and xorshift sequences are unchanged. The
    /// pLRU touch runs only when the policy reads it.
    #[inline]
    pub(crate) fn install_fast(&mut self, miss: Miss) {
        self.clock += 1;
        let Miss { base, way, tag, full } = miss;
        let victim = if full && self.cfg.policy != ReplacementPolicy::Lru {
            self.policy_victim(base)
        } else {
            base + way
        };
        self.tags[victim] = tag;
        self.lru[victim] = self.clock;
        if self.cfg.policy == ReplacementPolicy::TreePlru {
            touch_plru_outlined(
                &mut self.plru[base / self.cfg.associativity as usize],
                (victim - base) as u32,
                self.cfg.associativity,
            );
        }
    }

    /// Exact state transition of [`Cache::access`] with no statistics at
    /// all — the reference prefetcher's probe, which must not perturb
    /// demand hit/miss counters.
    #[inline]
    pub(crate) fn probe_silent(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let (base, tag) = self.set_range(addr);
        let ways = self.cfg.associativity as usize;
        for w in 0..ways {
            if self.lru[base + w] != 0 && self.tags[base + w] == tag {
                self.lru[base + w] = self.clock;
                touch_plru(&mut self.plru[base / ways], w as u32, self.cfg.associativity);
                return true;
            }
        }
        false
    }

    /// Appends this cache's behavioral state — everything a future access
    /// stream can observe, and nothing it cannot. The form depends on the
    /// policy because each policy observes different parts of the state:
    ///
    /// * **LRU** — per set, the number of valid ways followed by their tags
    ///   in LRU-to-MRU stamp order. Absolute stamp values and way
    ///   *positions* are unobservable (hits scan all ways; the victim is a
    ///   stamp argmin), so recency order is the whole story.
    /// * **TreePlru** — the per-set pLRU bit-tree word, then per way a
    ///   `(valid, tag)` pair in way order. Positions *are* observable
    ///   (free-way search is by position; `plru_victim` returns a way
    ///   index), while stamps matter only through validity.
    /// * **Random** — the xorshift state once, then per-way `(valid, tag)`
    ///   pairs in way order, same observability argument as TreePlru with
    ///   the RNG standing in for the tree word.
    pub(crate) fn canonical_into(&self, out: &mut Vec<u64>) {
        let ways = self.cfg.associativity as usize;
        match self.cfg.policy {
            ReplacementPolicy::Lru => {
                let mut set_buf: Vec<(u64, u64)> = Vec::with_capacity(ways);
                for set in 0..self.cfg.num_sets() as usize {
                    let base = set * ways;
                    set_buf.clear();
                    for w in 0..ways {
                        if self.lru[base + w] != 0 {
                            set_buf.push((self.lru[base + w], self.tags[base + w]));
                        }
                    }
                    set_buf.sort_unstable();
                    out.push(set_buf.len() as u64);
                    out.extend(set_buf.iter().map(|&(_, tag)| tag));
                }
            }
            ReplacementPolicy::TreePlru | ReplacementPolicy::Random => {
                if self.cfg.policy == ReplacementPolicy::Random {
                    out.push(self.rng_state);
                }
                for set in 0..self.cfg.num_sets() as usize {
                    let base = set * ways;
                    if self.cfg.policy == ReplacementPolicy::TreePlru {
                        out.push(u64::from(self.plru[set]));
                    }
                    for w in 0..ways {
                        let valid = self.lru[base + w] != 0;
                        out.push(u64::from(valid));
                        out.push(if valid { self.tags[base + w] } else { 0 });
                    }
                }
            }
        }
    }

    /// Advances the stamp clock as if `n` touches happened — used when
    /// replay collapses steady-state passes without driving them.
    pub(crate) fn advance_clock(&mut self, n: u64) {
        self.clock += n;
    }

    /// Invalidates everything and clears statistics.
    pub fn reset(&mut self) {
        self.tags.fill(0);
        self.lru.fill(0);
        self.plru.fill(0);
        self.clock = 0;
        self.stats = CacheStats::default();
    }

    /// Clears statistics only (keeps cache contents — used after warmup).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.lru.iter().filter(|&&s| s != 0).count()
    }
}

/// Marks way `w` most-recently-used in a tree-pLRU bit word: walk from the
/// root, flipping each internal node to point *away* from the taken path.
/// Out-of-line [`touch_plru`] for the fast-path hot loops: keeps the tree
/// walk's code out of `lookup_fast`/`install_fast`, whose scan loops would
/// otherwise pay a codegen penalty on every policy for maintenance only
/// tree-pLRU needs (measured ~40% on the LRU dcache replay when inlined).
#[inline(never)]
fn touch_plru_outlined(state: &mut u32, w: u32, ways: u32) {
    touch_plru(state, w, ways);
}

fn touch_plru(state: &mut u32, w: u32, ways: u32) {
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
fn plru_victim(state: u32, ways: u32) -> u32 {
    if ways < 2 {
        return 0;
    }
    let levels = ways.trailing_zeros();
    let mut node = 0u32;
    let mut w = 0u32;
    for _ in 0..levels {
        let bit = (state >> node) & 1;
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
        let mut state = 0u32;
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
        let mut state = 0u32;
        for pattern in [[3u32, 1, 2, 0], [0, 0, 1, 3], [2, 2, 2, 1]] {
            for &w in &pattern {
                touch_plru(&mut state, w, 4);
            }
            let last = *pattern.last().unwrap();
            assert_ne!(plru_victim(state, 4), last, "MRU way must survive");
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
}

#[cfg(test)]
mod fast_path_parity {
    use super::*;

    /// Seeded xorshift64 stream of small integers.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self, bound: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % bound
        }
    }

    /// Drives the reference `access`+`fill` pair and the fused
    /// `lookup_fast`+`install_fast` pair side by side over one seeded
    /// stream, then checks that the two caches cannot be told apart.
    fn assert_parity(policy: ReplacementPolicy, seed: u64) {
        // 4 sets x 4 ways x 64 B; 40 distinct lines overflow every set,
        // while the skewed draw keeps a hot subset resident.
        let cfg = CacheConfig::with_policy(1024, 64, 4, policy);
        let (mut reference, mut fast) = (Cache::new(cfg), Cache::new(cfg));
        let mut stream = Stream(seed);
        let mut tally = CacheStats::default();
        for i in 0..5_000 {
            let hot = stream.next(4) != 0;
            let line = if hot { stream.next(10) } else { stream.next(40) };
            let addr = line * 64 + stream.next(64);
            let kind = if stream.next(3) == 0 { AccessKind::Write } else { AccessKind::Read };
            let ref_hit = reference.access(addr, kind);
            if !ref_hit {
                reference.fill(addr);
            }
            let fast_hit = match fast.lookup_fast(addr) {
                Lookup::Hit => true,
                Lookup::Miss(miss) => {
                    fast.install_fast(miss);
                    false
                }
            };
            assert_eq!(fast_hit, ref_hit, "{policy:?} seed {seed}: access {i} at {addr:#x}");
            match (kind, fast_hit) {
                (AccessKind::Read, true) => tally.read_hits += 1,
                (AccessKind::Read, false) => tally.read_misses += 1,
                (AccessKind::Write, true) => tally.write_hits += 1,
                (AccessKind::Write, false) => tally.write_misses += 1,
            }
        }
        // The bulk flush the stream engine performs.
        fast.stats = tally;
        assert_eq!(fast.stats, reference.stats, "{policy:?} seed {seed}: statistics");
        assert!(tally.read_hits > 0 && tally.read_misses > 0, "stream must both hit and miss");
        let canonical = |c: &Cache| {
            let mut out = Vec::new();
            c.canonical_into(&mut out);
            out
        };
        assert_eq!(canonical(&fast), canonical(&reference), "{policy:?} seed {seed}: state");
        assert_eq!(fast.tags, reference.tags, "{policy:?} seed {seed}: tags");
        assert_eq!(fast.lru, reference.lru, "{policy:?} seed {seed}: stamps");
        assert_eq!(fast.clock, reference.clock, "{policy:?} seed {seed}: clock");
        assert_eq!(fast.rng_state, reference.rng_state, "{policy:?} seed {seed}: rng");
        if policy == ReplacementPolicy::TreePlru {
            assert_eq!(fast.plru, reference.plru, "seed {seed}: pLRU words");
        }
    }

    #[test]
    fn fused_lookup_install_matches_access_fill_under_every_policy() {
        for policy in
            [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Random]
        {
            for seed in [1, 0x9E37_79B9_7F4A_7C15, 0xDEAD_BEEF] {
                assert_parity(policy, seed);
            }
        }
    }
}
