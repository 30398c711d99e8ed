//! Randomized tests of the vector register file: CAM consistency,
//! reference counting, and write-back eligibility under arbitrary
//! operation sequences drawn from a deterministic RNG stream, and
//! choice-for-choice agreement with a reference model of the VRF.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use spade_core::vrf::{AllocOutcome, VrId, Vrf};
use spade_matrix::rng::Rng64;
use spade_sim::{Cycle, DataClass};

/// Fills in flight as (completion, register), earliest first: the PE's
/// dense-load heap.
type Fills = BinaryHeap<Reverse<(Cycle, VrId)>>;

/// Pops every fill that has arrived by `now`, earliest first, as the PE's
/// harvest does before it promotes each register with `set_ready`.
fn arrived(fills: &mut Fills, now: Cycle) -> Vec<VrId> {
    let mut out = Vec::new();
    while let Some(&Reverse((done, id))) = fills.peek() {
        if done > now {
            break;
        }
        fills.pop();
        out.push(id);
    }
    out
}

/// A randomized VRF workout: allocate/reuse lines, harvest arrived fills,
/// write, clean — mirroring what the vOp generator, the PE's dense-load
/// harvest and the write-back manager do.
#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    CompleteLoads(u64),
    Write(usize, u64),
    ReleaseOne,
    CleanCandidate(u64),
}

fn random_op(rng: &mut Rng64) -> Op {
    match rng.bounded(5) {
        0 => Op::Lookup(rng.gen_range(0..32u64)),
        1 => Op::CompleteLoads(rng.gen_range(0..2000u64)),
        2 => Op::Write(rng.gen_range(0..8usize), rng.gen_range(0..2000u64)),
        3 => Op::ReleaseOne,
        _ => Op::CleanCandidate(rng.gen_range(0..4000u64)),
    }
}

#[test]
fn vrf_invariants_hold_under_arbitrary_sequences() {
    let mut rng = Rng64::seed_from_u64(0x0e4f);
    for case in 0..256 {
        let num_ops = rng.gen_range(1usize..200);
        let ops: Vec<Op> = (0..num_ops).map(|_| random_op(&mut rng)).collect();

        let mut vrf = Vrf::new(8);
        // Shadow state: how many refs we have taken, per register.
        let mut refs_taken: Vec<u32> = vec![0; 8];
        let mut ready: Vec<bool> = vec![false; 8];
        let mut fills = Fills::new();
        let mut now = 0u64;

        for op in ops {
            match op {
                Op::Lookup(line) => {
                    match vrf.lookup_or_alloc(line, DataClass::CMatrix) {
                        AllocOutcome::Allocated(id) => {
                            // Caller contract: every allocation is followed
                            // by a fill (or immediate ready).
                            vrf.set_loading(id, now + 10);
                            fills.push(Reverse((now + 10, id)));
                            ready[id] = false;
                            vrf.add_ref(id);
                            refs_taken[id] += 1;
                            // A second lookup of the same line must reuse.
                            assert_eq!(
                                vrf.lookup_or_alloc(line, DataClass::CMatrix),
                                AllocOutcome::Reused(id),
                                "case {case}"
                            );
                        }
                        AllocOutcome::Reused(id) => {
                            vrf.add_ref(id);
                            refs_taken[id] += 1;
                        }
                        AllocOutcome::Stall => {
                            // Legal only when every register is pinned:
                            // loading, referenced, or dirty.
                            assert!(
                                (0..8).all(|i| refs_taken[i] > 0
                                    || vrf.ready_at(i) > 0
                                    || vrf.dirty_count() > 0),
                                "case {case}: stall with a free register"
                            );
                        }
                    }
                }
                Op::CompleteLoads(t) => {
                    now = now.max(t);
                    for id in arrived(&mut fills, now) {
                        vrf.set_ready(id);
                        assert_eq!(vrf.ready_at(id), 0, "case {case}");
                        ready[id] = true;
                    }
                }
                Op::Write(i, t) => {
                    let id = i % 8;
                    if ready[id] && vrf.ready_at(id) == 0 {
                        vrf.record_write(id, t);
                        assert!(vrf.last_write_done(id) >= t, "case {case}");
                    }
                }
                Op::ReleaseOne => {
                    if let Some(id) = (0..8).find(|&i| refs_taken[i] > 0) {
                        vrf.release_ref(id);
                        refs_taken[id] -= 1;
                    }
                }
                Op::CleanCandidate(t) => {
                    now = now.max(t);
                    if let Some(id) = vrf.writeback_candidate(now) {
                        // Eligibility contract.
                        assert_eq!(
                            refs_taken[id], 0,
                            "case {case}: writeback of a referenced register"
                        );
                        assert!(vrf.last_write_done(id) <= now, "case {case}");
                        let before = vrf.dirty_count();
                        vrf.clean(id);
                        assert_eq!(vrf.dirty_count(), before - 1, "case {case}");
                    }
                }
            }
            assert!(vrf.dirty_count() <= vrf.num_regs());
            let frac = vrf.dirty_fraction();
            assert!((0.0..=1.0).contains(&frac));
        }

        // Drain: afterwards the VRF is pristine.
        for (i, taken) in refs_taken.iter_mut().enumerate() {
            for _ in 0..*taken {
                vrf.release_ref(i);
            }
            *taken = 0;
        }
        let drained = vrf.drain_dirty();
        assert!(drained.len() <= 8);
        assert_eq!(vrf.dirty_count(), 0);
        assert!(
            (0..8).all(|id| vrf.ready_at(id) == Cycle::MAX),
            "case {case}: a register survived the drain"
        );
    }
}

/// The VRF as it was first written — one record per register and a hash
/// map as the tag CAM — kept as the reference model the array-and-bitset
/// [`Vrf`] must match choice for choice: the same register ids, the same
/// write-back picks and the same drain order, since a register id decides
/// flush write order.
mod reference {
    use std::collections::HashMap;

    use spade_core::vrf::{AllocOutcome, VrId};
    use spade_sim::{Cycle, DataClass, Line};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum VrState {
        Invalid,
        Loading { ready_at: Cycle },
        Ready,
    }

    #[derive(Debug, Clone, Copy)]
    struct Vr {
        tag: Line,
        state: VrState,
        dirty: bool,
        refs: u32,
        last_write_done: Cycle,
        last_use: u64,
        class: DataClass,
    }

    const NO_TAG: Line = Line::MAX;

    impl Vr {
        fn empty() -> Self {
            Vr {
                tag: NO_TAG,
                state: VrState::Invalid,
                dirty: false,
                refs: 0,
                last_write_done: 0,
                last_use: 0,
                class: DataClass::RMatrix,
            }
        }
    }

    pub struct RefVrf {
        regs: Vec<Vr>,
        cam: HashMap<Line, VrId>,
        tick: u64,
    }

    impl RefVrf {
        pub fn new(num_regs: usize) -> Self {
            RefVrf {
                regs: vec![Vr::empty(); num_regs],
                cam: HashMap::new(),
                tick: 0,
            }
        }

        pub fn dirty_count(&self) -> usize {
            self.regs.iter().filter(|r| r.dirty).count()
        }

        pub fn dirty_fraction(&self) -> f64 {
            self.dirty_count() as f64 / self.regs.len() as f64
        }

        pub fn lookup_or_alloc(&mut self, line: Line, class: DataClass) -> AllocOutcome {
            self.tick += 1;
            if let Some(&id) = self.cam.get(&line) {
                self.regs[id].last_use = self.tick;
                return AllocOutcome::Reused(id);
            }
            let slot = self.regs.iter().position(|r| r.state == VrState::Invalid);
            let slot = slot.or_else(|| {
                self.regs
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.state == VrState::Ready && !r.dirty && r.refs == 0)
                    .min_by_key(|(_, r)| r.last_use)
                    .map(|(i, _)| i)
            });
            let Some(id) = slot else {
                return AllocOutcome::Stall;
            };
            if self.regs[id].tag != NO_TAG {
                self.cam.remove(&self.regs[id].tag);
            }
            self.regs[id] = Vr {
                tag: line,
                state: VrState::Loading {
                    ready_at: Cycle::MAX,
                },
                dirty: false,
                refs: 0,
                last_write_done: 0,
                last_use: self.tick,
                class,
            };
            self.cam.insert(line, id);
            AllocOutcome::Allocated(id)
        }

        pub fn set_loading(&mut self, id: VrId, ready_at: Cycle) {
            self.regs[id].state = VrState::Loading { ready_at };
        }

        pub fn set_ready(&mut self, id: VrId) {
            self.regs[id].state = VrState::Ready;
        }

        pub fn ready_at(&self, id: VrId) -> Cycle {
            match self.regs[id].state {
                VrState::Invalid => Cycle::MAX,
                VrState::Loading { ready_at } => ready_at,
                VrState::Ready => 0,
            }
        }

        pub fn add_ref(&mut self, id: VrId) {
            self.regs[id].refs += 1;
        }

        pub fn release_ref(&mut self, id: VrId) {
            self.regs[id].refs = self.regs[id].refs.saturating_sub(1);
        }

        pub fn last_write_done(&self, id: VrId) -> Cycle {
            self.regs[id].last_write_done
        }

        pub fn record_write(&mut self, id: VrId, done: Cycle) {
            let r = &mut self.regs[id];
            r.dirty = true;
            r.last_write_done = r.last_write_done.max(done);
        }

        pub fn writeback_candidate(&self, now: Cycle) -> Option<VrId> {
            self.regs
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    r.dirty && r.refs == 0 && r.state == VrState::Ready && r.last_write_done <= now
                })
                .min_by_key(|(_, r)| r.last_use)
                .map(|(i, _)| i)
        }

        pub fn clean(&mut self, id: VrId) -> (Line, DataClass) {
            let r = &mut self.regs[id];
            r.dirty = false;
            (r.tag, r.class)
        }

        pub fn drain_dirty(&mut self) -> Vec<(Line, DataClass)> {
            let mut out = Vec::new();
            for r in &mut self.regs {
                if r.dirty {
                    out.push((r.tag, r.class));
                }
                if r.tag != NO_TAG {
                    self.cam.remove(&r.tag);
                }
                *r = Vr::empty();
            }
            out
        }
    }
}

/// Makes one call on both the VRF and the reference model, with the same
/// plain-value arguments, and checks that their dirty count and dirty
/// fraction still agree afterwards; evaluates to the pair of answers.
macro_rules! both {
    ($vrf:ident, $model:ident, $label:expr, $method:ident($($arg:expr),*)) => {{
        let answers = ($vrf.$method($($arg),*), $model.$method($($arg),*));
        let call = stringify!($method);
        assert_eq!(
            $vrf.dirty_count(),
            $model.dirty_count(),
            "{}: dirty count after {call}",
            $label
        );
        assert_eq!(
            $vrf.dirty_fraction().to_bits(),
            $model.dirty_fraction().to_bits(),
            "{}: dirty fraction after {call}",
            $label
        );
        answers
    }};
}

/// Drives [`Vrf`] and the reference model with one random operation
/// stream — the vOp generator's, dense-load harvest's and write-back
/// manager's calls, plus mid-stream flushes — and requires identical answers after every
/// operation, and an identical dirty count and dirty fraction after every
/// call, at register counts inside one bitset word, filling it, and
/// spanning two.
#[test]
fn vrf_matches_the_reference_model() {
    const CLASSES: [DataClass; 3] = [DataClass::RMatrix, DataClass::CMatrix, DataClass::SparseOut];
    let mut rng = Rng64::seed_from_u64(0x5eed_face);
    for num_regs in [8usize, 64, 100] {
        for case in 0..64 {
            let mut vrf = Vrf::new(num_regs);
            let mut model = reference::RefVrf::new(num_regs);
            // References taken, per register, so releases stay balanced.
            let mut held: Vec<VrId> = Vec::new();
            let mut fills = Fills::new();
            let mut now = 0u64;
            let lines = 3 * num_regs as u64;
            let num_ops = rng.gen_range(1usize..1500);
            for step in 0..num_ops {
                let label = format!("{num_regs} regs, case {case}, step {step}");
                match rng.bounded(16) {
                    0..=5 => {
                        let line = rng.gen_range(0..lines);
                        let class = CLASSES[rng.bounded(3) as usize];
                        let (got, want) = both!(vrf, model, label, lookup_or_alloc(line, class));
                        assert_eq!(got, want, "{label}");
                        match got {
                            AllocOutcome::Allocated(id) if rng.bounded(4) == 0 => {
                                both!(vrf, model, label, set_ready(id));
                            }
                            AllocOutcome::Allocated(id) => {
                                let t = now + rng.gen_range(1..300u64);
                                both!(vrf, model, label, set_loading(id, t));
                                fills.push(Reverse((t, id)));
                            }
                            AllocOutcome::Reused(_) | AllocOutcome::Stall => {}
                        }
                        if let AllocOutcome::Allocated(id) | AllocOutcome::Reused(id) = got {
                            if rng.bounded(2) == 0 {
                                both!(vrf, model, label, add_ref(id));
                                held.push(id);
                            }
                        }
                    }
                    6 | 7 => {
                        now += rng.gen_range(0..80u64);
                        for id in arrived(&mut fills, now) {
                            both!(vrf, model, label, set_ready(id));
                        }
                    }
                    8 | 9 => {
                        let id = rng.gen_range(0..num_regs);
                        if vrf.ready_at(id) == 0 {
                            let done = now + rng.gen_range(0..40u64);
                            both!(vrf, model, label, record_write(id, done));
                        }
                    }
                    10 | 11 => {
                        if !held.is_empty() {
                            let id = held.swap_remove(rng.gen_range(0..held.len()));
                            both!(vrf, model, label, release_ref(id));
                        }
                    }
                    12..=14 => {
                        now += rng.gen_range(0..20u64);
                        if let Some(id) = vrf.writeback_candidate(now) {
                            let (got, want) = both!(vrf, model, label, clean(id));
                            assert_eq!(got, want, "{label}");
                        }
                    }
                    _ => {
                        // A WB&Invalidate: the pipeline has drained first.
                        if rng.bounded(8) == 0 {
                            for id in held.drain(..) {
                                both!(vrf, model, label, release_ref(id));
                            }
                            now += 300;
                            for id in arrived(&mut fills, now) {
                                both!(vrf, model, label, set_ready(id));
                            }
                            assert!(fills.is_empty(), "{label}");
                            let (got, want) = both!(vrf, model, label, drain_dirty());
                            assert_eq!(got, want, "{label}");
                        }
                    }
                }
                assert_eq!(
                    vrf.writeback_candidate(now),
                    model.writeback_candidate(now),
                    "{label}"
                );
                for id in 0..num_regs {
                    assert_eq!(vrf.ready_at(id), model.ready_at(id), "{label}, VR {id}");
                    assert_eq!(
                        vrf.last_write_done(id),
                        model.last_write_done(id),
                        "{label}, VR {id}"
                    );
                }
            }
            let label = format!("{num_regs} regs, case {case}");
            for id in held.drain(..) {
                both!(vrf, model, label, release_ref(id));
            }
            let (got, want) = both!(vrf, model, label, drain_dirty());
            assert_eq!(got, want, "{label}");
        }
    }
}
