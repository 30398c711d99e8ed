use crate::{Cache, CacheConfig, Cycle, Line, LINE_BYTES};

/// Secondary-TLB configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StlbConfig {
    /// Number of entries.
    pub entries: usize,
    /// Associativity.
    pub ways: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Page-walk penalty in PE cycles on a miss.
    pub miss_penalty: Cycle,
}

impl StlbConfig {
    /// An Ice-Lake-like STLB: 2048 entries, 8-way, 4 KiB pages, ~150 ns
    /// walk.
    pub fn ice_lake() -> Self {
        StlbConfig {
            entries: 2048,
            ways: 8,
            page_bytes: 4096,
            miss_penalty: 120,
        }
    }
}

/// A secondary TLB shared by a CPU core and its SPADE PEs (§4.1: "the PEs
/// share the core's STLB, like the DMA engines in ref.\[24\] of the paper").
///
/// Pages of the matrix data structures are pinned before a SPADE-mode
/// section, so a miss costs a page walk but never a page fault. The TLB is
/// modeled as a small tag-only cache over page numbers.
///
/// # Example
///
/// ```
/// use spade_sim::{Stlb, StlbConfig};
///
/// let mut tlb = Stlb::new(StlbConfig::ice_lake());
/// let first = tlb.translate(0); // cold miss: page-walk penalty
/// let again = tlb.translate(1); // same page (line 1 is in page 0): hit
/// assert!(first > again);
/// ```
#[derive(Debug, Clone)]
pub struct Stlb {
    config: StlbConfig,
    entries: Cache,
    hits: u64,
    misses: u64,
}

impl Stlb {
    /// Creates an empty STLB.
    pub fn new(config: StlbConfig) -> Self {
        let size = config.entries * LINE_BYTES as usize; // one "line" per entry
        Stlb {
            config,
            entries: Cache::new(CacheConfig::new(size, config.ways)),
            hits: 0,
            misses: 0,
        }
    }

    /// Translates the page containing cache line `line`, returning the
    /// added latency in cycles (0 on a hit, the walk penalty on a miss).
    #[inline]
    pub fn translate(&mut self, line: Line) -> Cycle {
        let page = line * LINE_BYTES / self.config.page_bytes;
        if self.entries.access(page, false).is_hit() {
            self.hits += 1;
            0
        } else {
            self.misses += 1;
            self.config.miss_penalty
        }
    }

    /// Evicts the entry for the page containing `line`, if present.
    /// Returns whether an entry was actually dropped. Used by fault
    /// injection to model shoot-downs; the next translation of that page
    /// pays a full walk again.
    #[inline]
    pub fn evict_line(&mut self, line: Line) -> bool {
        let page = line * LINE_BYTES / self.config.page_bytes;
        self.entries.invalidate(page).is_some()
    }

    /// TLB hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// TLB misses (page walks) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Stlb {
        Stlb::new(StlbConfig {
            entries: 4,
            ways: 2,
            page_bytes: 4096,
            miss_penalty: 100,
        })
    }

    #[test]
    fn first_touch_walks_then_hits() {
        let mut tlb = small();
        assert_eq!(tlb.translate(0), 100);
        assert_eq!(tlb.translate(0), 0);
        assert_eq!(tlb.misses(), 1);
        assert_eq!(tlb.hits(), 1);
    }

    #[test]
    fn lines_in_same_page_share_entry() {
        let mut tlb = small();
        tlb.translate(0);
        // 4096 / 64 = 64 lines per page.
        assert_eq!(tlb.translate(63), 0);
        assert_eq!(tlb.translate(64), 100); // next page
    }

    #[test]
    fn capacity_misses_occur() {
        let mut tlb = small(); // 4 entries
        for page in 0..8u64 {
            tlb.translate(page * 64);
        }
        // Revisit page 0: evicted by now.
        assert_eq!(tlb.translate(0), 100);
    }
}
