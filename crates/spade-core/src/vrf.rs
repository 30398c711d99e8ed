//! The vector register file (VRF) and its tag CAM (§5.1 ④).
//!
//! Each vector register holds one cache line. The vOp generator tags
//! registers with the memory line they cache; before allocating, it checks
//! the tag CAM so that a line already resident (from a previous vOp) is
//! reused without a memory request. A status RAM tracks dirty/used bits,
//! and the write-back manager drains dirty registers between the
//! 25 % / 15 % occupancy thresholds (§5.1 ⑨).

use spade_sim::{Cycle, DataClass, Line};

use crate::bitset::{ones, BitSet};

/// Index of a vector register.
pub type VrId = usize;

const NO_TAG: Line = Line::MAX;

/// Result of a [`Vrf::lookup_or_alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocOutcome {
    /// The line was already tagged in a register — no memory request
    /// needed.
    Reused(VrId),
    /// A register was allocated; the caller must issue the fill (or mark
    /// the register ready for write-only destinations).
    Allocated(VrId),
    /// No register available: all are dirty, loading or referenced.
    Stall,
}

/// The vector register file.
///
/// Each register field is one array indexed by [`VrId`], and the status
/// RAM is four bitsets over register ids: invalid (no tag), resident
/// (data arrived), dirty and referenced (pending vOps hold it). A register
/// that is neither invalid nor resident is loading. The tag CAM is a
/// compare over the tag array, and the allocator's and write-back
/// manager's candidate sets are word-wise combinations of the bitsets, so
/// neither walks registers that cannot qualify.
///
/// # Example
///
/// ```
/// use spade_core::vrf::{AllocOutcome, Vrf};
/// use spade_sim::DataClass;
///
/// let mut vrf = Vrf::new(4);
/// let a = vrf.lookup_or_alloc(100, DataClass::CMatrix);
/// assert!(matches!(a, AllocOutcome::Allocated(_)));
/// let b = vrf.lookup_or_alloc(100, DataClass::CMatrix);
/// assert!(matches!(b, AllocOutcome::Reused(_)));
/// ```
#[derive(Debug, Clone)]
pub struct Vrf {
    /// The line each register caches; `NO_TAG` while invalid.
    tags: Vec<Line>,
    /// When each register has its data: `Cycle::MAX` while invalid, the
    /// fill completion while loading, 0 once resident.
    ready: Vec<Cycle>,
    /// Pending vOps referencing each register (operand or destination).
    refs: Vec<u32>,
    /// Completion time of the last vOp writing each register — the RAW
    /// chain for accumulations into the same line.
    last_write_done: Vec<Cycle>,
    /// LRU stamps for the eviction and write-back choices; the stamps of
    /// valid registers are unique, so "least recently used" never ties.
    last_use: Vec<u64>,
    class: Vec<DataClass>,
    invalid: BitSet,
    resident: BitSet,
    dirty: BitSet,
    referenced: BitSet,
    /// Registers in `dirty`, kept as they change: the write-back manager
    /// reads the dirty fraction every tick.
    dirty_regs: usize,
    tick: u64,
}

impl Vrf {
    /// Creates a VRF with `num_regs` registers.
    ///
    /// # Panics
    ///
    /// Panics if `num_regs` is zero.
    pub fn new(num_regs: usize) -> Self {
        assert!(num_regs > 0, "the VRF needs at least one register");
        Vrf {
            tags: vec![NO_TAG; num_regs],
            ready: vec![Cycle::MAX; num_regs],
            refs: vec![0; num_regs],
            last_write_done: vec![0; num_regs],
            last_use: vec![0; num_regs],
            class: vec![DataClass::RMatrix; num_regs],
            invalid: BitSet::full(num_regs),
            resident: BitSet::new(num_regs),
            dirty: BitSet::new(num_regs),
            referenced: BitSet::new(num_regs),
            dirty_regs: 0,
            tick: 0,
        }
    }

    /// Total registers.
    pub fn num_regs(&self) -> usize {
        self.tags.len()
    }

    /// Currently dirty registers.
    pub fn dirty_count(&self) -> usize {
        self.dirty_regs
    }

    /// Dirty fraction in `[0, 1]`.
    pub fn dirty_fraction(&self) -> f64 {
        self.dirty_count() as f64 / self.num_regs() as f64
    }

    /// `f(resident, dirty, referenced)` for each word of the status
    /// bitsets: a candidate set built word by word.
    fn status_words<'a>(
        &'a self,
        f: impl Fn(u64, u64, u64) -> u64 + 'a,
    ) -> impl Iterator<Item = u64> + 'a {
        let words = self.resident.words().iter().zip(self.dirty.words());
        words
            .zip(self.referenced.words())
            .map(move |((&res, &dirty), &refd)| f(res, dirty, refd))
    }

    /// The first register with the smallest `last_use` among the set bits
    /// of `candidates` that also pass `eligible`.
    fn least_recent(
        &self,
        candidates: impl IntoIterator<Item = u64>,
        eligible: impl Fn(VrId) -> bool,
    ) -> Option<VrId> {
        ones(candidates)
            .filter(|&id| eligible(id))
            .min_by_key(|&id| self.last_use[id])
    }

    /// Finds `line` in the tag CAM or allocates a register for it.
    ///
    /// Allocation prefers the lowest-numbered invalid register, then the
    /// least-recently-used clean, unreferenced, resident register
    /// (silently evicted — clean data needs no write-back). Returns
    /// [`AllocOutcome::Stall`] when nothing can be evicted.
    pub fn lookup_or_alloc(&mut self, line: Line, class: DataClass) -> AllocOutcome {
        debug_assert_ne!(line, NO_TAG, "line {line} is the invalid-register tag");
        self.tick += 1;
        if let Some(id) = self.tags.iter().position(|&t| t == line) {
            self.last_use[id] = self.tick;
            return AllocOutcome::Reused(id);
        }
        let clean_idle = self.status_words(|res, dirty, refd| res & !dirty & !refd);
        let Some(id) = self
            .invalid
            .first()
            .or_else(|| self.least_recent(clean_idle, |_| true))
        else {
            return AllocOutcome::Stall;
        };
        debug_assert!(!self.dirty.contains(id) && self.refs[id] == 0);
        self.tags[id] = line;
        self.ready[id] = Cycle::MAX;
        self.last_write_done[id] = 0;
        self.last_use[id] = self.tick;
        self.class[id] = class;
        self.invalid.remove(id);
        self.resident.remove(id);
        AllocOutcome::Allocated(id)
    }

    /// Marks a fill in flight, completing at `ready_at`.
    pub fn set_loading(&mut self, id: VrId, ready_at: Cycle) {
        self.ready[id] = ready_at;
        self.invalid.remove(id);
        self.resident.remove(id);
    }

    /// Marks the register resident: its fill has arrived (the PE's
    /// dense-load harvest), or it needs none (write-only destinations:
    /// SDDMM output lines are fully produced, never read, §5.1).
    pub fn set_ready(&mut self, id: VrId) {
        self.ready[id] = 0;
        self.invalid.remove(id);
        self.resident.insert(id);
    }

    /// Whether `id` holds its data: its fill arrived, or it needed none.
    pub(crate) fn is_resident(&self, id: VrId) -> bool {
        self.resident.contains(id)
    }

    /// The cycle at which `id` has its data (now or in the future);
    /// `Cycle::MAX` while invalid.
    pub fn ready_at(&self, id: VrId) -> Cycle {
        self.ready[id]
    }

    /// Adds a pending-vOp reference.
    pub fn add_ref(&mut self, id: VrId) {
        self.refs[id] += 1;
        self.referenced.insert(id);
    }

    /// Releases a pending-vOp reference. The caller (the PE retire stage)
    /// balances every `add_ref` with one release; an unbalanced release is
    /// a pipeline bug, checked in debug builds.
    pub fn release_ref(&mut self, id: VrId) {
        debug_assert!(self.refs[id] > 0, "unbalanced release on VR {id}");
        self.refs[id] = self.refs[id].saturating_sub(1);
        if self.refs[id] == 0 {
            self.referenced.remove(id);
        }
    }

    /// The RAW chain: when the last write to `id` completes.
    pub fn last_write_done(&self, id: VrId) -> Cycle {
        self.last_write_done[id]
    }

    /// Records a write to `id` completing at `done` and marks it dirty.
    pub fn record_write(&mut self, id: VrId, done: Cycle) {
        if self.dirty.insert(id) {
            self.dirty_regs += 1;
        }
        self.last_write_done[id] = self.last_write_done[id].max(done);
    }

    /// Picks a dirty register eligible for write-back: resident,
    /// unreferenced, and not written again in the future (`now` ≥ its last
    /// write completion). Least-recently-used dirty registers are drained
    /// first — they are the least likely to be written again.
    pub fn writeback_candidate(&self, now: Cycle) -> Option<VrId> {
        let dirty_idle = self.status_words(|res, dirty, refd| res & dirty & !refd);
        self.least_recent(dirty_idle, |id| self.last_write_done[id] <= now)
    }

    /// Cleans `id` after its write-back is issued, returning the line and
    /// data class to write. Only dirty registers are write-back
    /// candidates; cleaning a clean one is a pipeline bug, checked in
    /// debug builds.
    pub fn clean(&mut self, id: VrId) -> (Line, DataClass) {
        debug_assert!(self.dirty.contains(id), "cleaning a clean register");
        if self.dirty.remove(id) {
            self.dirty_regs -= 1;
        }
        (self.tags[id], self.class[id])
    }

    /// All dirty registers' (line, class), for the final VRF drain of a
    /// WB&Invalidate; the registers become clean and invalid.
    pub fn drain_dirty(&mut self) -> Vec<(Line, DataClass)> {
        let mut out = Vec::new();
        self.drain_dirty_into(&mut out);
        out
    }

    /// [`Vrf::drain_dirty`] into a caller-owned buffer (appending in
    /// register-index order, the same order `drain_dirty` produces), so a
    /// PE flushing repeatedly allocates nothing in steady state. Returns
    /// how many entries were appended.
    pub fn drain_dirty_into<B: Extend<(Line, DataClass)>>(&mut self, out: &mut B) -> usize {
        let n = self.dirty_count();
        out.extend(self.dirty.iter().map(|id| (self.tags[id], self.class[id])));
        self.tags.fill(NO_TAG);
        self.ready.fill(Cycle::MAX);
        self.refs.fill(0);
        self.last_write_done.fill(0);
        self.last_use.fill(0);
        self.class.fill(DataClass::RMatrix);
        self.invalid.insert_below(self.tags.len());
        self.resident.clear();
        self.dirty.clear();
        self.dirty_regs = 0;
        self.referenced.clear();
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CL: DataClass = DataClass::CMatrix;

    #[test]
    fn reuse_hits_the_cam() {
        let mut v = Vrf::new(2);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(5, CL) else {
            panic!()
        };
        assert_eq!(v.lookup_or_alloc(5, CL), AllocOutcome::Reused(a));
    }

    #[test]
    fn allocation_prefers_invalid_then_lru_clean() {
        let mut v = Vrf::new(2);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        let AllocOutcome::Allocated(b) = v.lookup_or_alloc(2, CL) else {
            panic!()
        };
        v.set_ready(b);
        // Touch line 1 to make register `a` MRU.
        v.lookup_or_alloc(1, CL);
        let AllocOutcome::Allocated(c) = v.lookup_or_alloc(3, CL) else {
            panic!()
        };
        assert_eq!(c, b, "LRU clean register must be evicted");
        // Line 2's tag must be gone from the CAM.
        assert!(matches!(
            v.lookup_or_alloc(2, CL),
            AllocOutcome::Stall | AllocOutcome::Allocated(_)
        ));
    }

    #[test]
    fn stall_when_all_regs_are_busy() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_loading(a, 100); // in flight -> not evictable
        assert_eq!(v.lookup_or_alloc(2, CL), AllocOutcome::Stall);
        v.set_ready(a); // the fill arrives
        v.add_ref(a); // referenced -> still not evictable
        assert_eq!(v.lookup_or_alloc(2, CL), AllocOutcome::Stall);
        v.release_ref(a);
        assert!(matches!(
            v.lookup_or_alloc(2, CL),
            AllocOutcome::Allocated(_)
        ));
    }

    #[test]
    fn dirty_registers_are_not_silently_evicted() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        v.record_write(a, 10);
        assert_eq!(v.lookup_or_alloc(2, CL), AllocOutcome::Stall);
    }

    #[test]
    fn load_completion_promotes_state() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_loading(a, 50);
        assert_eq!(v.ready_at(a), 50);
        assert!(!v.is_resident(a));
        v.set_ready(a);
        assert_eq!(v.ready_at(a), 0);
        assert!(v.is_resident(a));
    }

    #[test]
    fn raw_chain_tracks_last_writer() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        assert_eq!(v.last_write_done(a), 0);
        v.record_write(a, 20);
        v.record_write(a, 15); // out-of-order completion cannot regress
        assert_eq!(v.last_write_done(a), 20);
    }

    #[test]
    fn dirty_accounting_and_thresholds() {
        let mut v = Vrf::new(4);
        for line in 0..3 {
            let AllocOutcome::Allocated(id) = v.lookup_or_alloc(line, CL) else {
                panic!()
            };
            v.set_ready(id);
            v.record_write(id, 0);
        }
        assert_eq!(v.dirty_count(), 3);
        assert!((v.dirty_fraction() - 0.75).abs() < 1e-12);
        let c = v.writeback_candidate(10).unwrap();
        let (line, _) = v.clean(c);
        assert!(line < 3);
        assert_eq!(v.dirty_count(), 2);
    }

    #[test]
    fn writeback_waits_for_pending_writers() {
        let mut v = Vrf::new(1);
        let AllocOutcome::Allocated(a) = v.lookup_or_alloc(1, CL) else {
            panic!()
        };
        v.set_ready(a);
        v.record_write(a, 100); // write completes in the future
        assert_eq!(v.writeback_candidate(50), None);
        assert_eq!(v.writeback_candidate(100), Some(a));
    }

    #[test]
    fn drain_returns_all_dirty_lines_and_clears() {
        let mut v = Vrf::new(4);
        for line in 0..4 {
            let AllocOutcome::Allocated(id) = v.lookup_or_alloc(line, CL) else {
                panic!()
            };
            v.set_ready(id);
            if line % 2 == 0 {
                v.record_write(id, 0);
            }
        }
        let mut drained: Vec<Line> = v.drain_dirty().into_iter().map(|(l, _)| l).collect();
        drained.sort_unstable();
        assert_eq!(drained, vec![0, 2]);
        assert_eq!(v.dirty_count(), 0);
        assert!((0..4).all(|id| v.ready_at(id) == Cycle::MAX));
        // Every register is reusable again.
        for line in 10..14 {
            assert!(matches!(
                v.lookup_or_alloc(line, CL),
                AllocOutcome::Allocated(_)
            ));
        }
    }

    #[test]
    #[should_panic]
    fn zero_register_vrf_is_rejected() {
        let _ = Vrf::new(0);
    }
}
