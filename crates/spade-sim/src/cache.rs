use crate::{Line, LINE_BYTES};

/// Geometry of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// Creates a configuration. Capacities that are not a whole number of
    /// sets are *permitted* here (internal models round down — see
    /// [`CacheConfig::is_exact`]), but [`crate::MemConfig::validate`]
    /// rejects them so a user-facing hierarchy never silently models a
    /// smaller cache than requested.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is smaller than `ways` lines, or if `ways`
    /// exceeds 64 (sets are tracked with per-set 64-bit valid/dirty masks;
    /// the largest modeled associativity, the 20-way L2, is far below
    /// this).
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        assert!(ways > 0, "a cache needs at least one way");
        assert!(ways <= 64, "at most 64 ways per set (got {ways})");
        assert!(
            size_bytes >= ways * LINE_BYTES as usize,
            "cache of {size_bytes} B cannot hold {ways} ways"
        );
        CacheConfig { size_bytes, ways }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.size_bytes / LINE_BYTES as usize / self.ways).max(1)
    }

    /// Whether `size_bytes` is a whole (positive) number of
    /// `ways`-associative sets, i.e. the modeled capacity equals the
    /// requested capacity exactly.
    pub fn is_exact(&self) -> bool {
        let set_bytes = self.ways * LINE_BYTES as usize;
        self.size_bytes >= set_bytes && self.size_bytes.is_multiple_of(set_bytes)
    }

    /// Total lines the cache can hold.
    pub fn num_lines(&self) -> usize {
        self.num_sets() * self.ways
    }
}

/// A dirty line evicted by a fill; the caller must forward it down the
/// hierarchy as a write-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line address.
    pub line: Line,
    /// Whether the line was dirty (needs a write-back).
    pub dirty: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// The line was present.
    Hit,
    /// The line was absent; it has been filled, possibly evicting a victim.
    Miss {
        /// Line evicted to make room, if the set was full.
        victim: Option<Victim>,
    },
}

impl AccessOutcome {
    /// `true` for [`AccessOutcome::Hit`].
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit)
    }
}

const INVALID: Line = Line::MAX;

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement. Tag-only: it tracks presence, dirtiness and recency, not
/// data (functional values are computed by the caller).
///
/// Used for every cache-like structure in the modeled system: PE L1s, the
/// bypass-buffer victim cache, core L2s, LLC slices, and the baseline CPU
/// caches.
///
/// # Packed set storage
///
/// Each set's replacement state is packed for one cache-friendly pass:
/// tags are set-major (empty ways hold a sentinel that can never match),
/// valid and dirty bits live in one 64-bit mask per set, and recency is a
/// byte of *rank* per slot — 0 is the most recently used of the set's
/// valid ways, `n−1` the least. A lookup is a single tag scan; a fill
/// finds the first free way with one mask op instead of a second scan;
/// and the LRU victim is the way whose rank byte equals `ways − 1`.
///
/// Ranks replace the previous global-counter timestamps. The two encode
/// the same total order (ranks are the descending-stamp order of the
/// valid ways), so every hit/miss/eviction decision is unchanged; the
/// stamp-LRU reference model in `tests/cache_properties.rs` pins this.
/// Unlike stamps, re-touching the MRU way mutates nothing at all.
///
/// # Example
///
/// ```
/// use spade_sim::{Cache, CacheConfig};
///
/// let mut c = Cache::new(CacheConfig::new(1024, 2)); // 16 lines, 2-way
/// assert!(!c.access(3, false).is_hit()); // cold miss
/// assert!(c.access(3, false).is_hit());  // now resident
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// Per-slot tags, set-major; empty ways hold [`INVALID`].
    tags: Vec<Line>,
    /// Per-slot recency rank among the *valid* ways of its set (0 = MRU).
    /// Bytes of invalid slots are meaningless.
    rank: Vec<u8>,
    /// Per-set valid bitmask (bit `w` set ⇔ way `w` holds a line).
    valid: Vec<u64>,
    /// Per-set dirty bitmask; always a subset of `valid`.
    dirty: Vec<u64>,
    /// Mask covering all ways of one set.
    way_mask: u64,
    /// Valid-line count, kept incrementally so flushes of an empty cache
    /// are O(1).
    live: usize,
    /// Dirty-line count, kept incrementally so flushes of a clean cache
    /// skip the dirty-line collection entirely.
    dirty_n: usize,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.num_sets();
        let n = sets * config.ways;
        let way_mask = if config.ways == 64 {
            u64::MAX
        } else {
            (1u64 << config.ways) - 1
        };
        Cache {
            config,
            sets,
            tags: vec![INVALID; n],
            rank: vec![0; n],
            valid: vec![0; sets],
            dirty: vec![0; sets],
            way_mask,
            live: 0,
            dirty_n: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    #[inline]
    fn set_of(&self, line: Line) -> usize {
        (line % self.sets as u64) as usize
    }

    /// Makes way `w` the most recent of its set, shifting the valid ways
    /// that were more recent one step older. A no-op when `w` is already
    /// the MRU way.
    #[inline]
    fn promote(&mut self, set: usize, base: usize, w: usize) {
        let r = self.rank[base + w];
        if r == 0 {
            return;
        }
        let mut m = self.valid[set];
        while m != 0 {
            let v = m.trailing_zeros() as usize;
            m &= m - 1;
            if self.rank[base + v] < r {
                self.rank[base + v] += 1;
            }
        }
        self.rank[base + w] = 0;
    }

    /// Shifts every valid way of `set` one step older (ahead of inserting
    /// a fresh MRU line).
    #[inline]
    fn age_valid(&mut self, set: usize, base: usize) {
        let mut m = self.valid[set];
        while m != 0 {
            let v = m.trailing_zeros() as usize;
            m &= m - 1;
            self.rank[base + v] += 1;
        }
    }

    /// Looks up `line`, filling it on a miss (write-allocate). `is_write`
    /// marks the line dirty.
    pub fn access(&mut self, line: Line, is_write: bool) -> AccessOutcome {
        debug_assert_ne!(line, INVALID, "the sentinel line address is reserved");
        let set = self.set_of(line);
        let ways = self.config.ways;
        let base = set * ways;

        // One pass over the set's tags: empty ways hold the sentinel, so
        // this single scan decides hit vs miss (free-way choice comes from
        // the valid mask, victim choice from the rank bytes).
        for w in 0..ways {
            if self.tags[base + w] == line {
                self.promote(set, base, w);
                let bit = 1u64 << w;
                if is_write && self.dirty[set] & bit == 0 {
                    self.dirty[set] |= bit;
                    self.dirty_n += 1;
                }
                return AccessOutcome::Hit;
            }
        }

        // Miss: lowest-index free way straight from the mask, else the
        // LRU way (rank ways−1; ranks of a full set are a permutation).
        let free = !self.valid[set] & self.way_mask;
        let (w, victim) = if free != 0 {
            let w = free.trailing_zeros() as usize;
            self.live += 1;
            self.age_valid(set, base);
            (w, None)
        } else {
            let mut w = 0;
            for i in 0..ways {
                if self.rank[base + i] as usize == ways - 1 {
                    w = i;
                    break;
                }
            }
            debug_assert_eq!(self.rank[base + w] as usize, ways - 1);
            let bit = 1u64 << w;
            let was_dirty = self.dirty[set] & bit != 0;
            if was_dirty {
                self.dirty[set] &= !bit;
                self.dirty_n -= 1;
            }
            let victim = Victim {
                line: self.tags[base + w],
                dirty: was_dirty,
            };
            // The victim was the oldest way, so dropping it preserves the
            // relative order of the rest; age them and insert at rank 0.
            self.valid[set] &= !bit;
            self.age_valid(set, base);
            (w, Some(victim))
        };
        let bit = 1u64 << w;
        self.tags[base + w] = line;
        self.rank[base + w] = 0;
        self.valid[set] |= bit;
        if is_write {
            self.dirty[set] |= bit;
            self.dirty_n += 1;
        }
        AccessOutcome::Miss { victim }
    }

    /// Checks for presence without touching LRU state or filling.
    pub fn probe(&self, line: Line) -> bool {
        let set = self.set_of(line);
        let base = set * self.config.ways;
        self.tags[base..base + self.config.ways].contains(&line)
    }

    /// Invalidates `line` if present, returning whether it was dirty.
    pub fn invalidate(&mut self, line: Line) -> Option<bool> {
        let set = self.set_of(line);
        let base = set * self.config.ways;
        for w in 0..self.config.ways {
            if self.tags[base + w] == line {
                let bit = 1u64 << w;
                self.tags[base + w] = INVALID;
                self.valid[set] &= !bit;
                self.live -= 1;
                let was_dirty = self.dirty[set] & bit != 0;
                if was_dirty {
                    self.dirty[set] &= !bit;
                    self.dirty_n -= 1;
                }
                // Close the recency gap so surviving ranks stay a dense
                // permutation (their relative order is untouched).
                let r = self.rank[base + w];
                let mut m = self.valid[set];
                while m != 0 {
                    let v = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if self.rank[base + v] > r {
                        self.rank[base + v] -= 1;
                    }
                }
                return Some(was_dirty);
            }
        }
        None
    }

    /// Writes back and invalidates everything, returning the dirty lines
    /// (the mode-transition operation of §4.1). Convenience wrapper around
    /// [`Cache::writeback_invalidate_all_into`]; hot callers should pass a
    /// reusable buffer to that method instead.
    pub fn writeback_invalidate_all(&mut self) -> Vec<Line> {
        let mut dirty_lines = Vec::new();
        self.writeback_invalidate_all_into(&mut dirty_lines);
        dirty_lines
    }

    /// Writes back and invalidates everything, appending the dirty lines
    /// to `out` in ascending tag-index order (deterministic: the same
    /// order [`Cache::writeback_invalidate_all`] has always produced) and
    /// returning how many were appended.
    ///
    /// Allocation-free fast paths: a cache with no valid lines returns
    /// without touching any array, and a cache with valid-but-clean
    /// contents invalidates in bulk without collecting anything — the
    /// common cases on flush-heavy plans, where most per-tile flushes find
    /// the L1/BBF already clean. When there *are* dirty lines, only the
    /// per-set dirty masks are walked, not every slot.
    pub fn writeback_invalidate_all_into(&mut self, out: &mut Vec<Line>) -> usize {
        if self.live == 0 {
            debug_assert!(self.valid.iter().all(|&m| m == 0));
            debug_assert!(self.tags.iter().all(|&t| t == INVALID));
            return 0;
        }
        let n = self.dirty_n;
        if n == 0 {
            debug_assert!(self.dirty.iter().all(|&m| m == 0));
            self.tags.fill(INVALID);
            self.valid.fill(0);
            self.live = 0;
            return 0;
        }
        let ways = self.config.ways;
        let mut found = 0;
        for set in 0..self.sets {
            let mut m = self.dirty[set];
            while m != 0 {
                let w = m.trailing_zeros() as usize;
                m &= m - 1;
                out.push(self.tags[set * ways + w]);
                found += 1;
            }
            if found == n {
                break;
            }
        }
        debug_assert_eq!(found, n);
        self.tags.fill(INVALID);
        self.valid.fill(0);
        self.dirty.fill(0);
        self.live = 0;
        self.dirty_n = 0;
        n
    }

    /// Number of currently valid lines. The mask popcount doubles as an
    /// independent cross-check of the incremental counter (and of the tag
    /// sentinels) in debug builds.
    pub fn occupancy(&self) -> usize {
        let n: usize = self.valid.iter().map(|m| m.count_ones() as usize).sum();
        debug_assert_eq!(n, self.live);
        debug_assert_eq!(self.tags.iter().filter(|&&t| t != INVALID).count(), n);
        n
    }

    /// Number of currently dirty lines (mask-based cross-check, as with
    /// [`Cache::occupancy`]).
    pub fn dirty_count(&self) -> usize {
        let n: usize = self.dirty.iter().map(|m| m.count_ones() as usize).sum();
        debug_assert_eq!(n, self.dirty_n);
        debug_assert!(self
            .valid
            .iter()
            .zip(&self.dirty)
            .all(|(&v, &d)| d & !v == 0));
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines, 2 ways, 2 sets.
        Cache::new(CacheConfig::new(256, 2))
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let cfg = CacheConfig::new(48 * 1024, 12);
        assert_eq!(cfg.num_sets(), 64);
        assert_eq!(cfg.num_lines(), 768);
    }

    #[test]
    #[should_panic]
    fn undersized_cache_is_rejected() {
        let _ = CacheConfig::new(64, 2);
    }

    #[test]
    #[should_panic]
    fn overwide_sets_are_rejected() {
        let _ = CacheConfig::new(1 << 20, 65);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0, false).is_hit());
        assert!(c.access(0, false).is_hit());
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny(); // 2 sets; lines 0,2,4 map to set 0
        c.access(0, false);
        c.access(2, false);
        c.access(0, false); // 0 is now MRU
        let out = c.access(4, false); // must evict 2
        match out {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v.line, 2),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(c.probe(0));
        assert!(!c.probe(2));
    }

    #[test]
    fn dirty_victims_are_reported() {
        let mut c = tiny();
        c.access(0, true);
        c.access(2, false);
        c.access(4, false); // evicts 0 (LRU), which is dirty
        let out = c.access(6, false); // evicts 2, clean
        match out {
            AccessOutcome::Miss { victim: Some(v) } => {
                assert_eq!(v.line, 2);
                assert!(!v.dirty);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = tiny();
        c.access(0, false);
        c.access(0, true);
        assert_eq!(c.dirty_count(), 1);
    }

    #[test]
    fn probe_does_not_fill() {
        let c = tiny();
        assert!(!c.probe(0));
    }

    #[test]
    fn invalidate_reports_dirtiness() {
        let mut c = tiny();
        c.access(0, true);
        assert_eq!(c.invalidate(0), Some(true));
        assert_eq!(c.invalidate(0), None);
        assert!(!c.probe(0));
    }

    #[test]
    fn invalidate_compacts_recency_order() {
        let mut c = Cache::new(CacheConfig::new(4 * 256, 4)); // 4 ways, 4 sets
        for line in [0, 4, 8, 12] {
            c.access(line, false); // set 0 full; LRU order 0,4,8,12
        }
        c.invalidate(8);
        // Next two fills take the freed way then evict the true LRU (0).
        assert!(matches!(
            c.access(16, false),
            AccessOutcome::Miss { victim: None }
        ));
        match c.access(20, false) {
            AccessOutcome::Miss { victim: Some(v) } => assert_eq!(v.line, 0),
            other => panic!("expected eviction of line 0, got {other:?}"),
        }
    }

    #[test]
    fn writeback_invalidate_all_returns_only_dirty() {
        let mut c = tiny();
        c.access(0, true);
        c.access(1, false);
        c.access(2, true);
        let mut dirty = c.writeback_invalidate_all();
        dirty.sort_unstable();
        assert_eq!(dirty, vec![0, 2]);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn flush_into_reuses_the_buffer_and_preserves_order() {
        let mut c = tiny();
        c.access(2, true);
        c.access(0, true);
        c.access(1, false);
        let mut buf = Vec::with_capacity(8);
        let cap = buf.capacity();
        assert_eq!(c.writeback_invalidate_all_into(&mut buf), 2);
        // Tag-index order: set 0's ways hold [2, 0] in fill order.
        assert_eq!(buf, vec![2, 0]);
        assert_eq!(buf.capacity(), cap);
        // Flushing the now-empty cache is a no-op on the buffer.
        buf.clear();
        assert_eq!(c.writeback_invalidate_all_into(&mut buf), 0);
        assert!(buf.is_empty());
    }

    #[test]
    fn flush_of_clean_contents_collects_nothing_but_invalidates() {
        let mut c = tiny();
        c.access(0, false);
        c.access(1, false);
        let mut buf = Vec::new();
        assert_eq!(c.writeback_invalidate_all_into(&mut buf), 0);
        assert_eq!(buf.capacity(), 0); // never grew: clean fast path
        assert_eq!(c.occupancy(), 0);
        assert!(!c.probe(0) && !c.probe(1));
    }

    #[test]
    fn counters_survive_eviction_and_invalidate_churn() {
        let mut c = tiny();
        for i in 0..16u64 {
            c.access(i, i.is_multiple_of(3));
            // occupancy()/dirty_count() debug_assert the incremental
            // counters against the masks.
            let _ = (c.occupancy(), c.dirty_count());
        }
        c.invalidate(15);
        c.invalidate(14);
        let _ = (c.occupancy(), c.dirty_count());
        let flushed = c.writeback_invalidate_all();
        assert!(!flushed.is_empty());
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.dirty_count(), 0);
    }

    #[test]
    fn exactness_of_geometries_is_reported() {
        assert!(CacheConfig::new(48 * 1024, 12).is_exact());
        assert!(CacheConfig::new(256, 2).is_exact());
        // 9830 B over 12 ways is not a whole number of 768 B sets.
        assert!(!CacheConfig::new(9830, 12).is_exact());
    }

    #[test]
    fn occupancy_tracks_valid_lines() {
        let mut c = tiny();
        assert_eq!(c.occupancy(), 0);
        c.access(0, false);
        c.access(1, false);
        assert_eq!(c.occupancy(), 2);
    }

    #[test]
    fn sets_partition_the_line_space() {
        let mut c = tiny(); // 2 sets, 2 ways: even lines -> set 0, odd -> set 1
        c.access(0, false);
        c.access(1, false);
        c.access(2, false); // set 0 now holds {0, 2}
        c.access(3, false); // set 1 now holds {1, 3}
        assert!(c.probe(0) && c.probe(1) && c.probe(2) && c.probe(3));
    }

    #[test]
    fn mru_retouch_is_a_pure_no_op() {
        // Rank-based LRU: re-accessing the MRU way must leave the whole
        // cache state (not just decisions) unchanged.
        let mut c = tiny();
        c.access(0, false);
        c.access(2, true);
        let before = format!("{c:?}");
        c.access(2, true);
        assert_eq!(format!("{c:?}"), before);
    }
}
