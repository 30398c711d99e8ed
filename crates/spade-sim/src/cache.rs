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
    /// exceeds 64 (a tag word has six bits for its way; the largest
    /// modeled associativity, the 20-way L2, is far below this).
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

/// Tag-word layout: the line in the low 56 bits, then the physical way
/// (6 bits), the dirty bit and the valid bit. An empty slot is all zeros.
const WAY_SHIFT: u32 = 56;
const LINE_MASK: u64 = (1 << WAY_SHIFT) - 1;
const DIRTY: u64 = 1 << 62;
const VALID: u64 = 1 << 63;
/// The bits a lookup compares: valid and line, not way or dirty.
const KEY_MASK: u64 = VALID | LINE_MASK;

/// The word a lookup of `line` matches (before way and dirty bits).
#[inline]
fn key(line: Line) -> u64 {
    assert!(line <= LINE_MASK, "line {line:#x} is not below 2^56");
    VALID | line
}

/// The physical way a tag word occupies.
#[inline]
fn way_of(word: u64) -> u64 {
    (word >> WAY_SHIFT) & 63
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement. Tag-only: it tracks presence, dirtiness and recency, not
/// data (functional values are computed by the caller).
///
/// Used for every cache-like structure in the modeled system: PE L1s, the
/// bypass-buffer victim cache, core L2s, LLC slices, the STLBs (over page
/// numbers) and the baseline CPU caches.
///
/// # Recency-ordered sets
///
/// Each set is one run of `ways` tag words kept in recency order, most
/// recent first. A word packs the line, the physical way the line
/// occupies, a dirty bit and a valid bit; the set's empty slots are
/// all-zero words at its tail. A hit moves its word to the front. A miss
/// shifts the set back one slot and writes the new word at the front, in
/// the lowest physical way no word holds, so the victim of a full set is
/// its last word. One lookup reads only the set's own words: every set
/// starts on a 64-byte boundary, and its stride is `ways` rounded up to a
/// power of two (at most eight ways) or to a multiple of eight, so a set
/// of up to eight ways sits in one host cache line.
///
/// Physical ways only order flushes: [`Cache::writeback_invalidate_all`]
/// reports dirty lines by ascending set, then ascending way. Every
/// decision (hit or miss, victim and its dirtiness, the way a fill takes,
/// flush order) matches a cache that stamps each access with a global
/// tick and evicts the minimum stamp; the stamp-LRU reference model in
/// `tests/cache_properties.rs` pins this, `invalidate` included.
///
/// The backing vector is allocated zeroed, so a fresh cache is handed
/// over as zero pages with no fill pass.
///
/// # Panics
///
/// Line addresses must be below 2^56 (the six way bits and the two flag
/// bits sit above them); [`Cache::access`], [`Cache::probe`] and
/// [`Cache::invalidate`] assert it.
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
#[derive(Debug)]
pub struct Cache {
    config: CacheConfig,
    sets: usize,
    /// Words from one set's start to the next's.
    stride: usize,
    /// Index of the first word on a 64-byte boundary: set `s` occupies
    /// `words[off + s * stride..][..ways]`.
    off: usize,
    /// Tag words, set-major, in recency order within each set.
    words: Vec<u64>,
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
        let stride = if config.ways <= 8 {
            config.ways.next_power_of_two()
        } else {
            config.ways.next_multiple_of(8)
        };
        // Seven spare words let the sets start at the first 64-byte
        // boundary of the (8-byte-aligned) allocation.
        let words = vec![0u64; sets * stride + 7];
        let off = words.as_ptr().addr().wrapping_neg() % 64 / 8;
        Cache {
            config,
            sets,
            stride,
            off,
            words,
            live: 0,
            dirty_n: 0,
        }
    }

    /// The cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The word range of the set `line` maps to.
    #[inline]
    fn set_of(&self, line: Line) -> std::ops::Range<usize> {
        let base = self.off + (line % self.sets as u64) as usize * self.stride;
        base..base + self.config.ways
    }

    /// Looks up `line`, filling it on a miss (write-allocate). `is_write`
    /// marks the line dirty.
    pub fn access(&mut self, line: Line, is_write: bool) -> AccessOutcome {
        let key = key(line);
        let range = self.set_of(line);
        let set = &mut self.words[range];
        if let Some(i) = set.iter().position(|&w| w & KEY_MASK == key) {
            let mut word = set[i];
            if is_write && word & DIRTY == 0 {
                word |= DIRTY;
                self.dirty_n += 1;
            }
            set.copy_within(..i, 1);
            set[0] = word;
            return AccessOutcome::Hit;
        }

        // Miss: a set with an empty tail fills the lowest physical way no
        // word holds; a full set evicts its last (least recent) word.
        let last = set[set.len() - 1];
        let (way, victim) = if last & VALID == 0 {
            let held = set
                .iter()
                .take_while(|&&w| w != 0)
                .fold(0u64, |held, &w| held | 1 << way_of(w));
            self.live += 1;
            (u64::from((!held).trailing_zeros()), None)
        } else {
            let dirty = last & DIRTY != 0;
            self.dirty_n -= usize::from(dirty);
            let victim = Victim {
                line: last & LINE_MASK,
                dirty,
            };
            (way_of(last), Some(victim))
        };
        set.copy_within(..set.len() - 1, 1);
        set[0] = key | way << WAY_SHIFT | if is_write { DIRTY } else { 0 };
        self.dirty_n += usize::from(is_write);
        AccessOutcome::Miss { victim }
    }

    /// Checks for presence without touching LRU state or filling.
    pub fn probe(&self, line: Line) -> bool {
        let key = key(line);
        self.words[self.set_of(line)]
            .iter()
            .any(|&w| w & KEY_MASK == key)
    }

    /// Invalidates `line` if present, returning whether it was dirty. The
    /// surviving lines of its set keep their recency order.
    pub fn invalidate(&mut self, line: Line) -> Option<bool> {
        let key = key(line);
        let range = self.set_of(line);
        let set = &mut self.words[range];
        let i = set.iter().position(|&w| w & KEY_MASK == key)?;
        let dirty = set[i] & DIRTY != 0;
        set.copy_within(i + 1.., i);
        set[set.len() - 1] = 0;
        self.live -= 1;
        self.dirty_n -= usize::from(dirty);
        Some(dirty)
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
    /// to `out` by ascending set, then ascending physical way, and
    /// returning how many were appended.
    ///
    /// Allocation-free fast paths: a cache with no valid lines returns
    /// without touching its words, and a cache with valid-but-clean
    /// contents zeroes them without collecting anything — the common
    /// cases on flush-heavy plans, where most per-tile flushes find the
    /// L1/BBF already clean. Otherwise the walk stops at the set holding
    /// the last dirty line, and each set's few dirty words are sorted by
    /// way.
    pub fn writeback_invalidate_all_into(&mut self, out: &mut Vec<Line>) -> usize {
        if self.live == 0 {
            debug_assert!(self.words.iter().all(|&w| w == 0));
            return 0;
        }
        let n = self.dirty_n;
        let mut found = 0;
        let sets = &self.words[self.off..self.off + self.sets * self.stride];
        for set in sets.chunks_exact(self.stride) {
            if found == n {
                break;
            }
            let start = out.len();
            out.extend(set[..self.config.ways].iter().filter(|&&w| w & DIRTY != 0));
            out[start..].sort_unstable_by_key(|&w| way_of(w));
            for w in &mut out[start..] {
                *w &= LINE_MASK;
            }
            found += out.len() - start;
        }
        debug_assert_eq!(found, n);
        self.words.fill(0);
        self.live = 0;
        self.dirty_n = 0;
        n
    }

    /// Number of currently valid lines. Debug builds cross-check the
    /// incremental counter against the words, and that each set's valid
    /// words form a prefix.
    pub fn occupancy(&self) -> usize {
        debug_assert_eq!(
            self.words.iter().filter(|&&w| w & VALID != 0).count(),
            self.live
        );
        debug_assert!(self.words[self.off..]
            .chunks(self.stride)
            .all(|set| set.windows(2).all(|p| p[0] != 0 || p[1] == 0)));
        self.live
    }

    /// Number of currently dirty lines (cross-checked against the words in
    /// debug builds, as with [`Cache::occupancy`]).
    pub fn dirty_count(&self) -> usize {
        debug_assert_eq!(
            self.words.iter().filter(|&&w| w & DIRTY != 0).count(),
            self.dirty_n
        );
        debug_assert!(self.words.iter().all(|&w| w & DIRTY == 0 || w & VALID != 0));
        self.dirty_n
    }
}

impl Clone for Cache {
    /// Copies the sets into a fresh allocation aligned like the original.
    fn clone(&self) -> Self {
        let mut copy = Cache::new(self.config);
        let len = self.sets * self.stride;
        copy.words[copy.off..copy.off + len].copy_from_slice(&self.words[self.off..self.off + len]);
        copy.live = self.live;
        copy.dirty_n = self.dirty_n;
        copy
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
        // Way order: line 2 filled set 0's way 0, line 0 its way 1.
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
            // counters against the tag words.
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
        // Re-accessing the most recent line must leave the whole cache
        // state (not just decisions) unchanged.
        let mut c = tiny();
        c.access(0, false);
        c.access(2, true);
        let before = format!("{c:?}");
        c.access(2, true);
        assert_eq!(format!("{c:?}"), before);
    }

    #[test]
    fn sets_start_on_64_byte_boundaries() {
        for (size, ways) in [(256, 2), (3 * 1024, 3), (48 * 1024, 12), (20 * 1280, 20)] {
            let c = Cache::new(CacheConfig::new(size, ways));
            assert_eq!((c.words.as_ptr().addr() + 8 * c.off) % 64, 0);
            assert_eq!(c.stride.is_multiple_of(8), ways > 4, "{ways} ways");
            assert!(c.stride >= ways);
            let copy = c.clone();
            assert_eq!((copy.words.as_ptr().addr() + 8 * copy.off) % 64, 0);
        }
    }

    #[test]
    fn a_fill_after_invalidate_takes_the_freed_way() {
        let mut c = Cache::new(CacheConfig::new(4 * 64, 4)); // one 4-way set
        for line in [10, 11, 12, 13] {
            c.access(line, true); // ways 0..3 in fill order
        }
        c.invalidate(11); // frees way 1
        c.access(14, true); // most recent, but in way 1
        let copy = c.clone();
        assert_eq!(c.writeback_invalidate_all(), vec![10, 14, 12, 13]);
        assert_eq!(copy.occupancy(), 4);
        assert_eq!(copy.dirty_count(), 4);
    }
}
