//! Set-associative cache model with interleave-aware aging.
//!
//! # Why aging, not just LRU
//!
//! The simulator executes each warp to completion before the next one, but a
//! real SM interleaves tens of warps instruction by instruction. Running a
//! warp straight through would give it perfect temporal locality its hardware
//! counterpart never sees — and would erase the very effect Shared Memory
//! Prefetch exploits (keeping a vertex's neighbor sectors live across its K
//! loads).
//!
//! We recover interleaving pressure with a logical clock: every warp memory
//! instruction advances the owning cache's clock by the number of co-resident
//! warps (each of our instructions stands for that many device instructions
//! in the interleaved schedule, each inserting roughly one line). A cached
//! line older than the cache's `retention` (≈ its total line count) is
//! treated as evicted by that interleaved traffic. Burst accesses (SMP)
//! advance the clock by **one** per step instead, modelling the back-to-back
//! unrolled loads the paper generates — which is exactly why SMP preserves
//! sector reuse while the one-neighbor-at-a-time loop does not.

/// Configuration of one cache level.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line (sector) size in bytes.
    pub line_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Logical-clock ticks after which an untouched line counts as evicted
    /// by interleaved traffic from other warps/SMs.
    pub retention: u64,
}

impl CacheConfig {
    /// Lines held by the whole cache.
    pub fn lines(&self) -> u64 {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets.
    fn sets(&self) -> usize {
        (self.lines() as usize / self.ways).max(1)
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub hits: u64,
    pub misses: u64,
}

impl CacheStats {
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    pub fn hit_rate(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.hits as f64 / self.accesses() as f64
        }
    }

    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// A set-associative cache keyed by line (sector) ID.
///
/// # Set layout
///
/// A set is `ways` tags and, parallel to them, `ways` *recency keys*. The
/// key of a valid way is `(last_touch + 1) << way_bits | way`; that of an
/// invalid way is `ways - 1 - way`, which is below every valid key. Keys of
/// one set are distinct, and their minimum is exactly the victim rule — the
/// last invalid way, else the least recently touched way, the first on a
/// tie — so a miss is one minimum over the keys, with no per-way branch.
///
/// Fills take the last invalid way, so the invalid ways of a set are always
/// its first ones. The tag scan leans on that: it keeps the *last* way whose
/// tag matches, which is the valid holder if there is one (a stale tag of an
/// invalid way sits before it), and checks that one way's key for validity.
///
/// `last_touch + 1` must fit in `64 - way_bits` bits: [`Cache::tick`] panics
/// rather than let the clock pass `(u64::MAX >> way_bits) - 1` — 2^60 − 2
/// for 16 ways, which no run can reach.
///
/// # Flush validity
///
/// [`Cache::flush`] is O(1): it bumps `epoch`. Each set records the epoch
/// its keys belong to, and [`Cache::access`] brings the set it probes up to
/// date first: keys of an older epoch are reset to "all invalid" — the state
/// a clear of every line would leave. The tags stay, stale; a tag is only
/// believed when its way's key is valid. A set no probe reaches keeps its
/// old keys, which nothing reads. The epoch is a `u64` bumped once per
/// flush, so it cannot wrap within a process lifetime.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    /// `sets * ways` tags, set-major.
    tags: Vec<u64>,
    /// Recency keys, parallel to `tags`.
    keys: Vec<u64>,
    /// The flush generation each set's keys belong to (0: never touched).
    set_epoch: Vec<u64>,
    /// Bits of a key holding the way index; valid keys are `>= 1 << way_bits`.
    way_bits: u32,
    clock: u64,
    /// Flush generation, starting at 1.
    epoch: u64,
    stats: CacheStats,
}

impl Cache {
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.ways >= 1, "cache needs at least one way");
        assert!(
            cfg.size_bytes >= cfg.line_bytes * cfg.ways as u64,
            "cache smaller than one set"
        );
        let sets = cfg.sets();
        let way_bits = usize::BITS - (cfg.ways - 1).leading_zeros();
        Cache {
            cfg,
            sets,
            tags: vec![0; sets * cfg.ways],
            keys: vec![0; sets * cfg.ways],
            set_epoch: vec![0; sets],
            way_bits,
            clock: 0,
            epoch: 1,
            stats: CacheStats::default(),
        }
    }

    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Invalidates all contents (new kernel launch) without clearing stats
    /// or the clock. O(1): see the type's "Flush validity" contract.
    pub fn flush(&mut self) {
        self.epoch += 1;
    }

    /// Advances the interleaving clock by `ticks` logical instructions.
    pub fn tick(&mut self, ticks: u64) {
        self.clock = self.clock.saturating_add(ticks);
        assert!(
            self.clock <= self.max_clock(),
            "cache clock past the recency-key range"
        );
    }

    /// The last clock value whose `last_touch + 1` fits above the way bits.
    fn max_clock(&self) -> u64 {
        (u64::MAX >> self.way_bits) - 1
    }

    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Probes the cache for `line_id` (a sector ID). Returns `true` on hit.
    ///
    /// On miss the line is installed in the last invalid way of its set,
    /// else over the least recently touched way (the first on a tie). A
    /// resident line whose age exceeds `retention` counts as a miss: the
    /// interleaved traffic of co-resident warps is assumed to have evicted it.
    pub fn access(&mut self, line_id: u64) -> bool {
        let ways = self.cfg.ways;
        let set = (line_id as usize) % self.sets;
        let base = set * ways;
        let tags = &mut self.tags[base..base + ways];
        let keys = &mut self.keys[base..base + ways];
        if self.set_epoch[set] != self.epoch {
            self.set_epoch[set] = self.epoch;
            for (w, key) in keys.iter_mut().enumerate() {
                *key = (ways - 1 - w) as u64;
            }
        }
        let valid_floor = 1u64 << self.way_bits;
        let touched = (self.clock + 1) << self.way_bits;

        debug_assert!(
            keys.is_sorted_by_key(|&key| key >= valid_floor),
            "invalid ways come first"
        );
        // The last match is the valid holder if there is one (see "Set
        // layout"), so the scan needs neither an exit nor the keys.
        let mut hit = ways;
        for (w, &tag) in tags.iter().enumerate() {
            hit = if tag == line_id { w } else { hit };
        }
        if hit < ways && keys[hit] >= valid_floor {
            let last_touch = (keys[hit] >> self.way_bits) - 1;
            keys[hit] = touched | hit as u64;
            // Aged out: a miss, but the refill reuses this way.
            let fresh = self.clock - last_touch <= self.cfg.retention;
            self.stats.hits += fresh as u64;
            self.stats.misses += !fresh as u64;
            return fresh;
        }

        let mut least = [u64::MAX; 4];
        let mut quads = keys.chunks_exact(4);
        for quad in &mut quads {
            for (acc, &key) in least.iter_mut().zip(quad) {
                *acc = (*acc).min(key);
            }
        }
        for (acc, &key) in least.iter_mut().zip(quads.remainder()) {
            *acc = (*acc).min(key);
        }
        let least = least[0].min(least[1]).min(least[2].min(least[3]));
        let victim = if least < valid_floor {
            ways - 1 - least as usize
        } else {
            (least & (valid_floor - 1)) as usize
        };
        self.stats.misses += 1;
        tags[victim] = line_id;
        keys[victim] = touched | victim as u64;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_rng::Rng;

    fn small_cache(retention: u64) -> Cache {
        // 8 lines total, 2-way, 4 sets.
        Cache::new(CacheConfig {
            size_bytes: 8 * 32,
            line_bytes: 32,
            ways: 2,
            retention,
        })
    }

    #[test]
    fn repeat_access_hits() {
        let mut c = small_cache(u64::MAX);
        assert!(!c.access(5));
        assert!(c.access(5));
        assert!(c.access(5));
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 1 });
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small_cache(u64::MAX);
        for id in 0..4 {
            assert!(!c.access(id));
        }
        for id in 0..4 {
            assert!(c.access(id), "line {id} should still be resident");
        }
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = small_cache(u64::MAX);
        // ids 0, 4, 8 all map to set 0 in a 4-set cache (2 ways).
        c.access(0);
        c.tick(1);
        c.access(4);
        c.tick(1);
        c.access(8); // evicts 0 (LRU)
        c.tick(1);
        assert!(!c.access(0), "0 must have been evicted");
        assert!(c.access(8), "8 was just inserted");
    }

    #[test]
    fn aging_converts_hits_to_misses() {
        let mut c = small_cache(10);
        c.access(7);
        c.tick(5);
        assert!(c.access(7), "age 5 <= retention 10");
        c.tick(11);
        assert!(!c.access(7), "age 11 > retention 10 counts as evicted");
        // The refill renews the line.
        assert!(c.access(7));
    }

    #[test]
    fn stats_identity_holds() {
        let mut c = small_cache(4);
        let ids = [0u64, 1, 2, 9, 0, 0, 1, 17, 3, 3];
        for (i, &id) in ids.iter().enumerate() {
            c.access(id);
            if i % 2 == 0 {
                c.tick(3);
            }
        }
        assert_eq!(c.stats().accesses(), ids.len() as u64);
    }

    #[test]
    fn flush_invalidates_but_keeps_stats() {
        let mut c = small_cache(u64::MAX);
        c.access(1);
        c.access(1);
        let before = c.stats();
        c.flush();
        assert!(!c.access(1));
        assert_eq!(c.stats().hits, before.hits);
        assert_eq!(c.stats().misses, before.misses + 1);
    }

    /// The cache as it was before flush became O(1) — a `valid` bit per
    /// line, cleared by a fill of the whole tag array — kept as the
    /// differential oracle for [`Cache`].
    struct RefCache {
        cfg: CacheConfig,
        sets: usize,
        lines: Vec<RefLine>,
        clock: u64,
        stats: CacheStats,
    }

    #[derive(Clone, Copy)]
    struct RefLine {
        tag: u64,
        last_touch: u64,
        valid: bool,
    }

    const INVALID: RefLine = RefLine {
        tag: 0,
        last_touch: 0,
        valid: false,
    };

    impl RefCache {
        fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.sets();
            RefCache {
                cfg,
                sets,
                lines: vec![INVALID; sets * cfg.ways],
                clock: 0,
                stats: CacheStats::default(),
            }
        }

        fn flush(&mut self) {
            self.lines.fill(INVALID);
        }

        fn access(&mut self, line_id: u64) -> bool {
            let set = (line_id as usize) % self.sets;
            let base = set * self.cfg.ways;
            let ways = &mut self.lines[base..base + self.cfg.ways];
            let mut victim = 0usize;
            let mut victim_touch = u64::MAX;
            for (w, line) in ways.iter_mut().enumerate() {
                if line.valid && line.tag == line_id {
                    let age = self.clock.saturating_sub(line.last_touch);
                    line.last_touch = self.clock;
                    if age <= self.cfg.retention {
                        self.stats.hits += 1;
                        return true;
                    }
                    self.stats.misses += 1;
                    return false;
                }
                let touch = if line.valid { line.last_touch } else { 0 };
                if !line.valid {
                    victim = w;
                    victim_touch = 0;
                } else if touch < victim_touch {
                    victim = w;
                    victim_touch = touch;
                }
            }
            self.stats.misses += 1;
            ways[victim] = RefLine {
                tag: line_id,
                last_touch: self.clock,
                valid: true,
            };
            false
        }
    }

    /// The cache under test and the oracle, driven in lockstep.
    struct Pair {
        new: Cache,
        old: RefCache,
    }

    impl Pair {
        fn new(cfg: CacheConfig) -> Self {
            Pair {
                new: Cache::new(cfg),
                old: RefCache::new(cfg),
            }
        }

        fn access(&mut self, id: u64) {
            assert_eq!(self.new.access(id), self.old.access(id), "line {id}");
            self.assert_same();
        }

        fn tick(&mut self, ticks: u64) {
            self.new.tick(ticks);
            self.old.clock += ticks;
            self.assert_same();
        }

        fn flush(&mut self) {
            self.new.flush();
            self.old.flush();
            self.assert_same();
        }

        fn assert_same(&self) {
            assert_eq!(self.new.stats(), self.old.stats);
            assert_eq!(self.new.clock(), self.old.clock);
        }
    }

    /// One way; 2-way x 4 sets; ways that are no power of two (3 x 5 sets,
    /// 12 x 2 sets); a single 8-way set; the default preset's L1 and L2.
    fn geometries(retention: u64) -> [CacheConfig; 7] {
        let geometry = |size_bytes, ways| CacheConfig {
            size_bytes,
            line_bytes: 32,
            ways,
            retention,
        };
        [
            geometry(4 * 32, 1),
            geometry(8 * 32, 2),
            geometry(15 * 32, 3),
            geometry(24 * 32, 12),
            geometry(8 * 32, 8),
            geometry(48 * 1024, 8),
            geometry(2816 * 1024, 16),
        ]
    }

    #[test]
    fn flush_edges_match_fill_oracle() {
        for cfg in geometries(6).into_iter().chain(geometries(u64::MAX)) {
            let mut pair = Pair::new(cfg);
            // Flush on a never-ticked, never-filled cache, twice over.
            pair.flush();
            pair.flush();
            // Flush at the same clock as the last touch: the line is gone
            // although its age is 0.
            pair.access(3);
            pair.flush();
            pair.access(3);
            pair.access(3);
            // A stale line of an older epoch in every way of a set, then
            // refills: each must land where the cleared array puts it.
            let sets = cfg.sets() as u64;
            for w in 0..cfg.ways as u64 + 1 {
                pair.access(w * sets);
                pair.tick(1);
            }
            pair.flush();
            pair.flush();
            for w in (0..cfg.ways as u64 + 2).rev() {
                pair.access(w * sets);
                pair.tick(2);
                pair.access(1 + w * sets);
            }
            pair.tick(7);
            for w in 0..cfg.ways as u64 + 2 {
                pair.access(w * sets);
            }
            // Refill a flushed set without ticking: the invalid ways fill
            // from the last one down, which the tie on `last_touch` then
            // exposes — the overflow evicts way 0, the line filled last.
            pair.flush();
            for w in 0..cfg.ways as u64 + 1 {
                pair.access(w * sets);
            }
            pair.access((cfg.ways as u64 - 1) * sets);
            pair.access(0);
        }
    }

    #[test]
    fn differential_random_ops_match_fill_oracle() {
        for case in 0..420u64 {
            let mut rng = Rng(case);
            let retention = [0, 3, 40, 768, u64::MAX][rng.below(5)];
            let cfg = geometries(retention)[(case % 7) as usize];
            let mut pair = Pair::new(cfg);
            // A few hot sets, so ways fill, age, conflict and get reused;
            // every other case with line ids far above `u32::MAX`.
            let sets = cfg.sets() as u64;
            let span = cfg.ways + 3;
            let high = (case / 7 % 2) * sets * ((1 << 33) + 5);
            for _ in 0..400 {
                match rng.below(100) {
                    0..=69 => {
                        pair.access(high + rng.below(3) as u64 + sets * rng.below(span) as u64)
                    }
                    70..=89 => pair.tick(rng.below(2 * retention.clamp(1, 50) as usize) as u64),
                    90..=97 => pair.flush(),
                    _ => {
                        pair.flush();
                        pair.flush();
                    }
                }
            }
        }
    }

    /// The recency keys hold `last_touch + 1` above the way bits: the cache
    /// must agree with the oracle right up to the last clock value that
    /// fits, and refuse to tick past it.
    #[test]
    fn clock_at_the_key_bound_matches_fill_oracle() {
        for retention in [0, 3, u64::MAX] {
            for cfg in geometries(retention) {
                let mut pair = Pair::new(cfg);
                let sets = cfg.sets() as u64;
                pair.access(0);
                pair.tick(pair.new.max_clock() - 6);
                for step in 0..6 {
                    // Fill past the set's capacity, re-touch, age by one.
                    for w in 0..cfg.ways as u64 + 1 {
                        pair.access((w + step) * sets);
                    }
                    pair.access(step * sets);
                    pair.tick(1);
                }
                assert_eq!(pair.new.clock(), pair.new.max_clock());
                pair.access(0);
                pair.flush();
                pair.access(0);
                pair.access(sets);
            }
        }
    }

    #[test]
    #[should_panic(expected = "recency-key range")]
    fn ticking_past_the_key_bound_panics() {
        let mut c = small_cache(u64::MAX);
        c.tick(u64::MAX >> 1);
    }

    #[test]
    fn hit_rate_math() {
        let mut c = small_cache(u64::MAX);
        c.access(1);
        c.access(1);
        c.access(1);
        c.access(2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
    }
}
