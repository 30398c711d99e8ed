//! Randomized tests of the memory-system invariants, driven by a
//! deterministic SplitMix64 stream (spade-sim sits below the matrix crate,
//! so it carries its own tiny generator copy).

use spade_sim::{
    AccessOutcome, AccessPath, Cache, CacheConfig, DataClass, MemConfig, MemorySystem,
};

/// SplitMix64 — the same stream `spade_matrix::rng::Rng64` produces.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform value in `[0, n)` (rejection sampling).
    fn bounded(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        let zone = u64::MAX - u64::MAX % n;
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    fn gen_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// A cache never holds more lines than its capacity, never duplicates
/// a tag, and an access to a just-filled line always hits.
#[test]
fn cache_capacity_and_uniqueness() {
    let mut rng = Rng(0xcac4e);
    for case in 0..128 {
        let num_accesses = 1 + rng.bounded(299) as usize;
        let ways = 1 + rng.bounded(4) as usize;
        let config = CacheConfig::new(1024, ways); // 16 lines
        let mut cache = Cache::new(config);
        let mut resident: std::collections::HashSet<u64> = Default::default();
        for _ in 0..num_accesses {
            let line = rng.bounded(64);
            let write = rng.gen_bool();
            let out = cache.access(line, write);
            match out {
                AccessOutcome::Hit => assert!(resident.contains(&line), "case {case}"),
                AccessOutcome::Miss { victim } => {
                    assert!(!resident.contains(&line), "case {case}");
                    if let Some(v) = victim {
                        assert!(
                            resident.remove(&v.line),
                            "case {case}: victim {} was not resident",
                            v.line
                        );
                    }
                    resident.insert(line);
                }
            }
            assert!(cache.occupancy() <= config.num_lines());
            assert_eq!(cache.occupancy(), resident.len());
            assert!(cache.probe(line));
        }
    }
}

/// Write-back-invalidate returns exactly the lines written and not yet
/// evicted-with-writeback.
#[test]
fn writeback_invalidate_returns_all_dirty() {
    let mut rng = Rng(0xd124);
    for case in 0..128 {
        let writes: Vec<u64> = (0..rng.bounded(100)).map(|_| rng.bounded(32)).collect();
        let mut cache = Cache::new(CacheConfig::new(4096, 4)); // 64 lines >= universe
        for &line in &writes {
            cache.access(line, true);
        }
        let mut dirty = cache.writeback_invalidate_all();
        dirty.sort_unstable();
        let mut expected: Vec<u64> = writes.clone();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(dirty, expected, "case {case}");
        assert_eq!(cache.occupancy(), 0);
    }
}

/// Completion times from the hierarchy are never earlier than issue
/// time plus the L1 latency.
#[test]
fn hierarchy_latency_sanity() {
    let mut rng = Rng(0x1a7);
    for _ in 0..128 {
        let agent = rng.bounded(4) as usize;
        let num = 1 + rng.bounded(199) as usize;
        let mut mem = MemorySystem::new(MemConfig::small_test(4));
        let mut now = 0u64;
        for _ in 0..num {
            let line = rng.bounded(256);
            let done = mem.read(agent, line, AccessPath::Cached, DataClass::CMatrix, now);
            assert!(done >= now + mem.config().l1_latency);
            now = done;
        }
        // Conservation: every DRAM access was a miss somewhere above.
        let s = mem.stats();
        assert!(
            s.dram_accesses() <= s.requests_issued + s.level(spade_sim::LevelKind::Llc).writebacks
        );
    }
}

/// Bypass reads never change any cache state.
#[test]
fn bypass_reads_leave_caches_cold() {
    let mut rng = Rng(0xb497);
    for _ in 0..128 {
        let num = 1 + rng.bounded(99) as usize;
        let mut mem = MemorySystem::new(MemConfig::small_test(2));
        for _ in 0..num {
            let line = rng.bounded(1024);
            mem.read(0, line, AccessPath::Bypass, DataClass::SparseIn, 0);
        }
        assert_eq!(mem.l1_occupancy(0), 0);
        assert_eq!(mem.llc_occupancy(), 0);
        assert_eq!(mem.stats().dram_accesses(), mem.stats().requests_issued);
    }
}

/// A straightforward stamp-based LRU model: every hit or fill takes a
/// fresh global tick, misses fill the lowest-index free way first and
/// otherwise evict the minimum-stamp (least recent) way, and an
/// invalidation frees its slot. This is the behavior the recency-ordered
/// cache must reproduce decision for decision.
struct StampCache {
    sets: usize,
    ways: usize,
    slots: Vec<Option<StampLine>>,
    tick: u64,
}

#[derive(Clone, Copy)]
struct StampLine {
    line: u64,
    dirty: bool,
    stamp: u64,
}

impl StampCache {
    fn new(config: CacheConfig) -> Self {
        StampCache {
            sets: config.num_sets(),
            ways: config.ways,
            slots: vec![None; config.num_lines()],
            tick: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut [Option<StampLine>] {
        let base = (line % self.sets as u64) as usize * self.ways;
        &mut self.slots[base..base + self.ways]
    }

    fn access(&mut self, line: u64, is_write: bool) -> AccessOutcome {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set(line);
        if let Some(s) = set.iter_mut().flatten().find(|s| s.line == line) {
            s.stamp = tick;
            s.dirty |= is_write;
            return AccessOutcome::Hit;
        }
        let fill = StampLine {
            line,
            dirty: is_write,
            stamp: tick,
        };
        if let Some(free) = set.iter_mut().find(|s| s.is_none()) {
            *free = Some(fill);
            return AccessOutcome::Miss { victim: None };
        }
        let lru = set
            .iter_mut()
            .min_by_key(|s| s.unwrap().stamp)
            .expect("set has ways");
        let evicted = lru.unwrap();
        *lru = Some(fill);
        AccessOutcome::Miss {
            victim: Some(spade_sim::Victim {
                line: evicted.line,
                dirty: evicted.dirty,
            }),
        }
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let slot = self
            .set(line)
            .iter_mut()
            .find(|s| s.is_some_and(|s| s.line == line))?;
        slot.take().map(|s| s.dirty)
    }

    /// Dirty lines by slot: ascending set, then ascending way.
    fn dirty_lines(&self) -> Vec<u64> {
        self.slots
            .iter()
            .flatten()
            .filter(|s| s.dirty)
            .map(|s| s.line)
            .collect()
    }
}

/// The recency-ordered cache makes exactly the decisions of the
/// stamp-based LRU reference — same hit/miss outcome, same victim, same
/// invalidation result, same dirty lines in the same flush order — over
/// randomized streams with interleaved invalidations, on geometries up to
/// 24 ways, whose sets span several 64-byte blocks.
#[test]
fn packed_cache_matches_the_stamp_lru_reference() {
    let mut rng = Rng(0x4ef5_7a4b);
    for case in 0..192 {
        let ways = 1 + rng.bounded(24) as usize;
        let sets = 1 + rng.bounded(8) as usize;
        let config = CacheConfig::new(sets * ways * 64, ways);
        let mut packed = Cache::new(config);
        let mut reference = StampCache::new(config);
        let universe = 1 + rng.bounded(4 * config.num_lines() as u64);
        for op in 0..400 {
            let line = rng.bounded(universe);
            let ctx = format!("case {case} op {op} ({sets} sets x {ways} ways, line {line})");
            if rng.bounded(8) == 0 {
                let got = packed.invalidate(line);
                assert_eq!(got, reference.invalidate(line), "{ctx}: invalidate");
            } else {
                let write = rng.gen_bool();
                let got = packed.access(line, write);
                assert_eq!(got, reference.access(line, write), "{ctx}, write={write}");
            }
        }
        let want = reference.dirty_lines();
        assert_eq!(packed.dirty_count(), want.len(), "case {case}");
        assert_eq!(
            packed.writeback_invalidate_all(),
            want,
            "case {case}: flush order diverged"
        );
        assert_eq!(packed.occupancy(), 0, "case {case}");
    }
}

/// Tag words keep the line in 56 bits, so a larger line address is
/// refused instead of aliasing another line.
#[test]
#[should_panic(expected = "not below 2^56")]
fn lines_at_or_above_2_pow_56_are_rejected() {
    let mut cache = Cache::new(CacheConfig::new(1024, 2));
    cache.access((1 << 56) - 1, false);
    cache.access(1 << 56, false);
}

/// The flush operation leaves no dirty state behind: a second flush
/// returns zero lines.
#[test]
fn flush_is_idempotent() {
    let mut rng = Rng(0xf1a5);
    for case in 0..128 {
        let num = 1 + rng.bounded(149) as usize;
        let mut mem = MemorySystem::new(MemConfig::small_test(2));
        for _ in 0..num {
            let line = rng.bounded(128);
            let write = rng.gen_bool();
            let agent = rng.bounded(2) as usize;
            let path = if line.is_multiple_of(3) {
                AccessPath::BypassVictim
            } else {
                AccessPath::Cached
            };
            if write {
                mem.write(agent, line, path, DataClass::RMatrix, 0);
            } else {
                mem.read(agent, line, path, DataClass::RMatrix, 0);
            }
        }
        mem.flush_all(1_000);
        let again = mem.flush_all(2_000);
        assert_eq!(again, 0, "case {case}: second flush found dirty lines");
    }
}
