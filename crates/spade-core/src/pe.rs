//! The SPADE processing-element pipeline (§4.4, §5.1).
//!
//! Three logical stages, all latency-tolerant and decoupled by queues:
//!
//! * **Sparse front-end** — the Sparse Data Loader issues cache-line
//!   requests for the `r_ids`/`c_ids`/`vals` arrays into the sparse load
//!   queue (①), pops `(r_id, c_id, val)` tuples and generates tuple
//!   operations (tOps) carrying the dense row addresses (②–③).
//! * **vOp generator** — breaks each tOp into cache-line-sized vector
//!   operations, allocating vector registers through the VR tag CAM and
//!   issuing dense loads for operands not already resident (④–⑥).
//! * **Dense back-end** — vOps wait in reservation stations for their
//!   operands and RAW dependences, dispatch out of order into a pipelined
//!   SIMD unit, and a write-back manager drains dirty registers between
//!   the 25 %/15 % thresholds (⑦–⑨).
//!
//! The PE performs the *functional* arithmetic at vOp retirement, in the
//! exact (out-of-order, RAW-chained) order the timing model executes it, so
//! every simulated run is validated against the gold kernels.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use spade_matrix::{DenseMatrix, TiledCoo, FLOATS_PER_LINE};
use spade_sim::{AccessPath, Cycle, DataClass, Line, MemorySystem, TraceEvent};

use crate::vrf::{AllocOutcome, VrId, Vrf};
use crate::{AddressMap, CMatrixPolicy, PeCommand, PipelineConfig, Primitive, RMatrixPolicy};

/// Functional operand/result arrays for the kernel being simulated.
///
/// SpMM reads `B` and accumulates into `D`; SDDMM reads `B` and `Cᵀ` and
/// accumulates scalar partial dot products into the output values (indexed
/// in tiled order).
#[derive(Debug)]
pub enum KernelData<'a> {
    /// SpMM operands.
    Spmm {
        /// The cMatrix `B`.
        b: &'a DenseMatrix,
        /// The rMatrix `D` (accumulated in place).
        d: &'a mut DenseMatrix,
    },
    /// SDDMM operands.
    Sddmm {
        /// The rMatrix `B`.
        b: &'a DenseMatrix,
        /// The cMatrix `Cᵀ`.
        c_t: &'a DenseMatrix,
        /// Output values in tiled-array order.
        out: &'a mut [f32],
    },
}

impl KernelData<'_> {
    /// Applies one vOp's arithmetic: segment `seg` (one cache line) of the
    /// dense rows selected by non-zero `(row, col, val)`.
    fn apply_vop(&mut self, row: u32, col: u32, val: f32, seg: usize, func_out_idx: usize) {
        let lo = seg * FLOATS_PER_LINE;
        match self {
            KernelData::Spmm { b, d } => {
                let hi = (lo + FLOATS_PER_LINE).min(b.num_cols());
                if lo >= hi {
                    return;
                }
                let src = &b.row(col as usize)[lo..hi];
                let dst = &mut d.row_mut(row as usize)[lo..hi];
                for (o, i) in dst.iter_mut().zip(src) {
                    *o += val * i;
                }
            }
            KernelData::Sddmm { b, c_t, out } => {
                let hi = (lo + FLOATS_PER_LINE).min(b.num_cols());
                if lo >= hi {
                    return;
                }
                let x = &b.row(row as usize)[lo..hi];
                let y = &c_t.row(col as usize)[lo..hi];
                let dot: f32 = x.iter().zip(y).map(|(a, b)| a * b).sum();
                out[func_out_idx] += val * dot;
            }
        }
    }
}

/// Cross-PE scheduling-barrier coordination (§4.3): the CPE will not send
/// new tile instructions until every PE has read the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierSync {
    released: u32,
    arrived: u32,
    num_pes: u32,
}

impl BarrierSync {
    /// Creates the synchronizer for `num_pes` PEs.
    pub fn new(num_pes: usize) -> Self {
        BarrierSync {
            released: 0,
            arrived: 0,
            num_pes: num_pes as u32,
        }
    }

    /// A PE arrives at barrier `id`.
    ///
    /// The schedule construction guarantees every PE reaches barriers in
    /// release order, so out-of-order arrival is a pure internal invariant
    /// (checked in debug builds only).
    pub fn arrive(&mut self, id: u32) {
        debug_assert_eq!(id, self.released, "barriers must be reached in order");
        self.arrived += 1;
    }

    /// Barriers released so far.
    pub fn released(&self) -> u32 {
        self.released
    }

    /// PEs arrived at the current barrier.
    pub fn arrived(&self) -> u32 {
        self.arrived
    }

    /// Releases the current barrier once everyone arrived. Returns whether
    /// a release happened.
    pub fn try_release(&mut self) -> bool {
        if self.arrived == self.num_pes {
            self.arrived = 0;
            self.released += 1;
            true
        } else {
            false
        }
    }

    /// Whether barrier `id` has been released.
    pub fn passed(&self, id: u32) -> bool {
        self.released > id
    }
}

/// Per-kernel runtime parameters distilled from the Initialization
/// instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RuntimeParams {
    /// SpMM or SDDMM.
    pub primitive: Primitive,
    /// rMatrix cache policy.
    pub r_policy: RMatrixPolicy,
    /// cMatrix cache policy.
    pub c_policy: CMatrixPolicy,
    /// Cache lines per dense row (K / 16).
    pub lines_per_row: u32,
}

/// One sparse line-group fetch in flight: a contiguous range of non-zeros
/// whose `r_ids`/`c_ids`/`vals` lines arrive together at `ready_at`. The
/// tuples themselves are materialized lazily from the tiled arrays at pop
/// time, so the entry is a fixed-size record and the loader allocates
/// nothing in steady state.
#[derive(Debug, Clone, Copy)]
struct SparseEntry {
    ready_at: Cycle,
    /// Absolute index (into the tiled arrays) of the next tuple to pop;
    /// doubles as the functional output index.
    idx: u64,
    /// Padded-output index of the next tuple (for the output line address).
    out_idx: u64,
    /// Tuples remaining in this line group.
    remaining: u64,
}

/// A tuple operation: addresses resolved, awaiting vOp expansion.
#[derive(Debug, Clone, Copy)]
struct TOp {
    row: u32,
    col: u32,
    val: f32,
    func_out_idx: u64,
    out_line: Line,
    next_seg: u32,
}

/// A vOp waiting in a reservation-station slot.
#[derive(Debug, Clone, Copy)]
struct RsEntry {
    /// Program-order sequence number: dispatch takes the oldest ready
    /// entry, so slot indices carry no order.
    seq: u64,
    /// Operand fills this entry still waits for, one per `fill_waiters`
    /// listing; at zero the entry joins the ready set.
    fills_pending: u8,
    op1: VrId,
    op2: VrId,
    dest: VrId,
    row: u32,
    col: u32,
    val: f32,
    seg: u32,
    func_out_idx: u64,
}

impl RsEntry {
    /// The first cycle this vOp can dispatch at: both operands resident
    /// and the destination's previous write complete.
    fn ready_at(&self, vrf: &Vrf) -> Cycle {
        vrf.ready_at(self.op1)
            .max(vrf.ready_at(self.op2))
            .max(vrf.last_write_done(self.dest))
    }
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    done: Cycle,
    op1: VrId,
    op2: VrId,
    dest: VrId,
    row: u32,
    col: u32,
    val: f32,
    seg: u32,
    func_out_idx: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AfterDrain {
    Barrier(u32),
    Flush,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PeState {
    /// Ready to fetch the next command.
    Ready,
    /// Reading an input register (instruction delivery latency).
    Fetching { until: Cycle },
    /// Waiting for the pipeline to drain before a barrier or flush.
    WaitDrain(AfterDrain),
    /// Arrived at a barrier; waiting for release.
    AtBarrier(u32),
    /// Draining dirty VRs and flushing L1/BBF (WB&Invalidate).
    Flushing,
    /// Terminated.
    Done,
}

/// Per-PE event recorder for the instruction-lifecycle trace. Allocated
/// only when tracing is on; it observes control-state transitions and
/// never influences them.
#[derive(Debug, Default)]
struct PeTrace {
    events: Vec<TraceEvent>,
    /// Issue span of the tile currently being fetched: `(tile_idx, nnz,
    /// start, vops_before, tuples_before)`. Closed at the next command
    /// decode, so spans run issue-to-issue (the pipeline may still drain
    /// a tile's vOps while the next tile issues).
    open_tile: Option<(usize, u32, Cycle, u64, u64)>,
    /// Cycle at which the PE decoded a Barrier command (drain + wait span).
    barrier_from: Option<(u32, Cycle)>,
    /// Flush start cycle and dirty-line count at drain time.
    flush_from: Option<(Cycle, usize)>,
}

impl PeTrace {
    /// Closes the open tile-issue span, attributing the vOps/tuples
    /// executed since it opened.
    fn close_tile(&mut self, id: usize, now: Cycle, stats: &PeStats) {
        if let Some((tile_idx, nnz, from, vops0, tuples0)) = self.open_tile.take() {
            self.events.push(
                TraceEvent::complete(
                    format!("tile {tile_idx}"),
                    "tile",
                    from,
                    now.saturating_sub(from),
                    id as u64,
                )
                .arg("tile", tile_idx)
                .arg("nnz", nnz)
                .arg("vops", stats.vops.saturating_sub(vops0))
                .arg("tuples", stats.tuples.saturating_sub(tuples0)),
            );
        }
    }
}

/// What a PE reported for one tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TickResult {
    /// Did some work this cycle.
    Progressed,
    /// Nothing to do until the given cycle (`Cycle::MAX` = waiting on a
    /// barrier or external event).
    Waiting(Cycle),
    /// Terminated.
    Done,
}

/// Per-PE execution statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeStats {
    /// Tuples processed (equals the non-zeros assigned to this PE).
    pub tuples: u64,
    /// vOps executed.
    pub vops: u64,
    /// Cycles where the vOp generator stalled for a free vector register.
    /// Stalls accrue as elapsed cycles when they resolve (or change
    /// cause), so the totals are independent of how often the stalled PE
    /// was polled.
    pub stall_no_vr: u64,
    /// Cycles where the vOp generator stalled for a reservation-station
    /// slot.
    pub stall_no_rs: u64,
    /// Cycles where the vOp generator stalled for dense load-queue space.
    pub stall_no_dense_lq: u64,
    /// Cycle at which this PE finished all its work.
    pub finished_at: Cycle,
    /// Cycle at which this PE started its final WB&Invalidate (compute
    /// complete); 0 until then.
    pub flush_started_at: Cycle,
}

/// What the vOp generator is currently stalled on (see [`Pe::note_stall`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallCause {
    /// No free vector register (VRF allocation blocked).
    Vr,
    /// Reservation stations full.
    Rs,
    /// Dense load queue full.
    DenseLq,
}

/// One SPADE processing element.
#[derive(Debug)]
pub struct Pe {
    id: usize,
    cfg: PipelineConfig,
    params: RuntimeParams,
    commands: Vec<PeCommand>,
    cursor: usize,
    state: PeState,
    // Active tile fetch state.
    tile_next_nnz: u64,
    tile_remaining: u64,
    tile_out_next: u64,
    // Pipeline queues.
    sparse_lq: VecDeque<SparseEntry>,
    top_q: VecDeque<TOp>,
    /// Reservation stations: `rs_entries` fixed slots, `None` while free.
    rs: Vec<Option<RsEntry>>,
    /// Free reservation-station slots.
    rs_free: Vec<usize>,
    /// `(seq, slot)` of the entries whose operand fills have all arrived,
    /// in program order. Fill events keep it: the harvest of a register's
    /// fill moves every slot that fill completes here, so dispatch never
    /// looks at an entry still waiting for an operand.
    rs_ready: Vec<(u64, usize)>,
    /// Per vector register, the slots waiting for its fill.
    fill_waiters: Vec<Vec<usize>>,
    /// Sequence number of the next reservation-station entry.
    rs_seq: u64,
    /// In-flight SIMD operations. Dispatch happens at monotonically
    /// nondecreasing `now` with a fixed latency, so completions are FIFO.
    in_flight: VecDeque<InFlight>,
    vrf: Vrf,
    /// (completion, vr) heap for dense loads in flight; bounds the dense
    /// load queue.
    dense_loads: BinaryHeap<Reverse<(Cycle, VrId)>>,
    /// Completion heap for outstanding stores; bounds the store queue.
    stores: BinaryHeap<Reverse<Cycle>>,
    /// Dirty lines pending the final VRF drain of a WB&Invalidate.
    pending_flush: VecDeque<(Line, DataClass)>,
    /// Write-back manager hysteresis: currently draining toward `wb_lo`.
    wb_draining: bool,
    /// Whether dispatch selects from `rs_ready` (the default) or by
    /// [`Pe::scan_pick`], a plain scan of every live slot. The naive
    /// oracle loop selects by the scan, like a textbook cycle-by-cycle
    /// simulator, so the two drivers choose by different code (the
    /// `scheduler_equivalence` suite checks they choose alike, byte for
    /// byte).
    ready_set: bool,
    /// Set when the vOp generator stalled on VRF allocation; cleared by
    /// any event that frees a register (retire, write-back, load arrival).
    alloc_blocked: bool,
    /// Open vOp-generator stall: its cause and the cycle it began. Closed
    /// — accrued into `stats` as elapsed cycles — when the generator next
    /// acts, runs dry, or the cause changes. Accrual at transition points
    /// makes the totals identical under any polling discipline: re-observing
    /// an open stall (same cause) is a no-op, so an every-cycle poll loop
    /// and an event-driven scheduler report the same counts.
    stall_open: Option<(StallCause, Cycle)>,
    stats: PeStats,
    /// Lifecycle trace recorder; `None` (no allocation, no work) unless
    /// tracing was requested.
    trace: Option<Box<PeTrace>>,
}

impl Pe {
    /// Creates a PE with its command stream (ending in WB&Invalidate +
    /// Termination).
    pub fn new(
        id: usize,
        cfg: PipelineConfig,
        params: RuntimeParams,
        commands: Vec<PeCommand>,
    ) -> Self {
        Pe {
            id,
            cfg,
            params,
            commands,
            cursor: 0,
            state: PeState::Ready,
            tile_next_nnz: 0,
            tile_remaining: 0,
            tile_out_next: 0,
            sparse_lq: VecDeque::with_capacity(cfg.sparse_lq_entries),
            top_q: VecDeque::with_capacity(cfg.top_queue_entries),
            rs: vec![None; cfg.rs_entries],
            rs_free: (0..cfg.rs_entries).rev().collect(),
            rs_ready: Vec::with_capacity(cfg.rs_entries),
            fill_waiters: vec![Vec::new(); cfg.vrf_regs],
            rs_seq: 0,
            in_flight: VecDeque::new(),
            vrf: Vrf::new(cfg.vrf_regs),
            dense_loads: BinaryHeap::new(),
            stores: BinaryHeap::new(),
            pending_flush: VecDeque::new(),
            wb_draining: false,
            ready_set: true,
            alloc_blocked: false,
            stall_open: None,
            stats: PeStats::default(),
            trace: None,
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &PeStats {
        &self.stats
    }

    /// Observes the vOp generator stalled on `cause` at `now`. A repeat
    /// observation of the open stall is a no-op; a cause change closes the
    /// old stall (accruing its elapsed cycles) and opens the new one.
    fn note_stall(&mut self, cause: StallCause, now: Cycle) {
        match self.stall_open {
            Some((open, _)) if open == cause => {}
            _ => {
                self.close_stall(now);
                self.stall_open = Some((cause, now));
            }
        }
    }

    /// Closes any open stall at `now`, accruing the elapsed cycles
    /// (minimum one: a stall observed at all lasted at least the cycle it
    /// was observed in) into the per-cause counter.
    fn close_stall(&mut self, now: Cycle) {
        if let Some((cause, since)) = self.stall_open.take() {
            let elapsed = (now - since).max(1);
            match cause {
                StallCause::Vr => self.stats.stall_no_vr += elapsed,
                StallCause::Rs => self.stats.stall_no_rs += elapsed,
                StallCause::DenseLq => self.stats.stall_no_dense_lq += elapsed,
            }
        }
    }

    /// Selects dispatch from the ready set (default) or by the reference
    /// scan; see the `ready_set` field. The choice changes host cost only,
    /// never simulated behavior. The system selects the scan exactly when
    /// it runs the naive oracle loop
    /// ([`crate::SpadeSystem::set_fast_forward`]).
    pub(crate) fn set_ready_set(&mut self, enabled: bool) {
        self.ready_set = enabled;
    }

    /// Occupied reservation-station slots.
    fn rs_occupancy(&self) -> usize {
        self.rs.len() - self.rs_free.len()
    }

    /// The reference dispatch choice: a plain scan of every live slot for
    /// the oldest entry with [`RsEntry::ready_at`] `<= now`.
    fn scan_pick(&self, now: Cycle) -> Option<usize> {
        self.rs
            .iter()
            .enumerate()
            .filter_map(|(slot, e)| {
                e.filter(|e| e.ready_at(&self.vrf) <= now)
                    .map(|e| (e.seq, slot))
            })
            .min()
            .map(|(_, slot)| slot)
    }

    /// Enables or disables lifecycle tracing for this PE. Tracing is pure
    /// observation: it records command decodes, barrier waits and flushes
    /// but never changes pipeline behavior.
    pub fn set_trace(&mut self, enabled: bool) {
        self.trace = enabled.then(Box::default);
    }

    /// Takes the recorded trace events (lane id = PE id), disabling the
    /// recorder.
    pub fn take_trace_events(&mut self) -> Vec<TraceEvent> {
        self.trace.take().map(|t| t.events).unwrap_or_default()
    }

    /// Reads currently queued in this PE's load structures: outstanding
    /// dense-operand loads plus sparse line-group fetches not yet fully
    /// consumed. Used as the in-flight-reads telemetry gauge.
    pub fn load_queue_depth(&self) -> usize {
        self.dense_loads.len() + self.sparse_lq.len()
    }

    /// A diagnostic snapshot of this PE's control state and queue
    /// occupancies (the per-PE section of a
    /// [`crate::StallDiagnostics`]). `wake_at` is left `None`; the
    /// scheduler, which owns the wake times, fills it in.
    pub fn snapshot(&self) -> crate::PeSnapshot {
        crate::PeSnapshot {
            id: self.id,
            state: format!("{:?}", self.state),
            commands_done: self.cursor,
            commands_total: self.commands.len(),
            tile_remaining: self.tile_remaining,
            sparse_lq: self.sparse_lq.len(),
            top_q: self.top_q.len(),
            rs: self.rs_occupancy(),
            in_flight: self.in_flight.len(),
            dense_loads: self.dense_loads.len(),
            stores: self.stores.len(),
            pending_flush: self.pending_flush.len(),
            wake_at: None,
            stats: self.stats,
        }
    }

    /// Checks this PE's queue occupancies against the configured bounds
    /// (the PE half of the invariant auditor).
    pub fn check_invariants(&self) -> Result<(), String> {
        let bounds = [
            (
                "sparse_lq",
                self.sparse_lq.len(),
                self.cfg.sparse_lq_entries,
            ),
            ("top_q", self.top_q.len(), self.cfg.top_queue_entries),
            ("rs", self.rs_occupancy(), self.cfg.rs_entries),
            (
                "dense_loads",
                self.dense_loads.len(),
                self.cfg.dense_lq_entries,
            ),
            ("stores", self.stores.len(), self.cfg.store_queue_entries),
        ];
        for (name, occ, cap) in bounds {
            if occ > cap {
                return Err(format!(
                    "PE {}: {name} occupancy {occ} exceeds capacity {cap}",
                    self.id
                ));
            }
        }
        Ok(())
    }

    /// Whether this PE has terminated.
    pub fn is_done(&self) -> bool {
        self.state == PeState::Done
    }

    fn r_path(&self) -> AccessPath {
        match self.params.r_policy {
            RMatrixPolicy::Cache => AccessPath::Cached,
            RMatrixPolicy::Bypass => AccessPath::Bypass,
            RMatrixPolicy::BypassVictim => AccessPath::BypassVictim,
        }
    }

    fn c_path(&self) -> AccessPath {
        match self.params.c_policy {
            CMatrixPolicy::Cache => AccessPath::Cached,
            CMatrixPolicy::Bypass => AccessPath::Bypass,
        }
    }

    fn sparse_path(&self) -> AccessPath {
        if self.cfg.sparse_bypass {
            AccessPath::Bypass
        } else {
            AccessPath::Cached
        }
    }

    fn path_for_class(&self, class: DataClass) -> AccessPath {
        match class {
            DataClass::RMatrix => self.r_path(),
            DataClass::CMatrix => self.c_path(),
            DataClass::SparseIn => self.sparse_path(),
            // SDDMM output always bypasses (§5.2).
            DataClass::SparseOut => AccessPath::Bypass,
        }
    }

    fn pipeline_empty(&self) -> bool {
        self.tile_remaining == 0
            && self.sparse_lq.is_empty()
            && self.top_q.is_empty()
            && self.rs_occupancy() == 0
            && self.in_flight.is_empty()
            && self.dense_loads.is_empty()
    }

    /// Advances this PE by one pipeline step at `now`.
    #[allow(clippy::too_many_arguments)]
    pub fn tick(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        barriers: &mut BarrierSync,
        addr: &AddressMap,
        tiled: &TiledCoo,
        data: &mut KernelData<'_>,
    ) -> TickResult {
        if self.state == PeState::Done {
            return TickResult::Done;
        }
        let mut progressed = false;

        // ─ Completion harvesting ─
        while let Some(&Reverse((done, vr))) = self.dense_loads.peek() {
            if done > now {
                break;
            }
            self.dense_loads.pop();
            self.vrf.set_ready(vr);
            for slot in self.fill_waiters[vr].drain(..) {
                let e = self.rs[slot].as_mut().expect("a fill waiter is live");
                e.fills_pending -= 1;
                if e.fills_pending == 0 {
                    let seq = e.seq;
                    let at = self.rs_ready.partition_point(|&(s, _)| s < seq);
                    self.rs_ready.insert(at, (seq, slot));
                }
            }
            self.alloc_blocked = false;
            progressed = true;
        }
        while let Some(&Reverse(done)) = self.stores.peek() {
            if done > now {
                break;
            }
            self.stores.pop();
            progressed = true;
        }

        // ─ ⑧ Retire finished vOps (pipelined SIMD; completions are FIFO) ─
        while self.in_flight.front().is_some_and(|f| f.done <= now) {
            let f = self.in_flight.pop_front().expect("front checked");
            data.apply_vop(f.row, f.col, f.val, f.seg as usize, f.func_out_idx as usize);
            self.vrf.release_ref(f.op1);
            self.vrf.release_ref(f.op2);
            self.vrf.release_ref(f.dest);
            self.stats.vops += 1;
            self.alloc_blocked = false;
            progressed = true;
        }

        // ─ ⑨ Write-back manager ─
        if self.wb_draining || self.vrf.dirty_fraction() >= self.cfg.wb_hi {
            self.wb_draining = self.vrf.dirty_fraction() > self.cfg.wb_lo;
            if self.wb_draining && self.stores.len() < self.cfg.store_queue_entries {
                if let Some(vr) = self.vrf.writeback_candidate(now) {
                    let (line, class) = self.vrf.clean(vr);
                    let accept = mem.write(self.id, line, self.path_for_class(class), class, now);
                    self.stores.push(Reverse(accept));
                    self.alloc_blocked = false;
                    progressed = true;
                    self.wb_draining = self.vrf.dirty_fraction() > self.cfg.wb_lo;
                }
            }
        }

        // ─ ⑦ Dispatch one ready vOp, oldest first. The ready set holds the
        //     entries whose operands are resident, in program order; the
        //     first one whose destination's previous write has completed
        //     goes. One per pipeline step; the next step may dispatch
        //     again, in this same cycle when `clock_mult > 1`. ─
        let pick = if self.ready_set {
            let at = self.rs_ready.iter().position(|&(_, slot)| {
                let e = self.rs[slot].as_ref().expect("a ready slot is live");
                self.vrf.last_write_done(e.dest) <= now
            });
            debug_assert_eq!(
                at.map(|i| self.rs_ready[i].1),
                self.scan_pick(now),
                "the ready set and the reference scan disagree (cycle {now})"
            );
            at.map(|i| self.rs_ready.remove(i).1)
        } else {
            self.scan_pick(now).inspect(|&slot| {
                let at = self.rs_ready.iter().position(|&(_, s)| s == slot);
                self.rs_ready
                    .remove(at.expect("a ready entry is in the ready set"));
            })
        };
        if let Some(slot) = pick {
            let e = self.rs[slot].take().expect("the picked slot is live");
            self.rs_free.push(slot);
            let done = now + self.cfg.simd_latency;
            self.vrf.record_write(e.dest, done);
            self.in_flight.push_back(InFlight {
                done,
                op1: e.op1,
                op2: e.op2,
                dest: e.dest,
                row: e.row,
                col: e.col,
                val: e.val,
                seg: e.seg,
                func_out_idx: e.func_out_idx,
            });
            progressed = true;
        }

        // ─ ④–⑥ vOp generation: one vOp per cycle. Allocation retries are
        //     gated: a VRF stall can only clear after a retire, a
        //     write-back or a load arrival. ─
        if let Some(&top) = self.top_q.front() {
            // The `alloc_blocked` latch is checked first: while it is set
            // the generator cannot retry no matter what the queues look
            // like, so VRF allocation is the binding constraint. (It must
            // also come first for stable attribution: a failed `gen_vop`
            // may have issued its op1 dense load before stalling on op2,
            // so the dense-queue occupancy test can flip *after* the VR
            // stall latched.)
            if self.alloc_blocked {
                self.note_stall(StallCause::Vr, now);
            } else if self.rs_free.is_empty() {
                self.note_stall(StallCause::Rs, now);
            } else if self.dense_loads.len() + 2 > self.cfg.dense_lq_entries {
                self.note_stall(StallCause::DenseLq, now);
            } else if self.gen_vop(top, now, mem, addr) {
                self.close_stall(now);
                let t = self.top_q.front_mut().expect("tOp queue was non-empty");
                t.next_seg += 1;
                if t.next_seg >= self.params.lines_per_row {
                    self.top_q.pop_front();
                }
                progressed = true;
            } else {
                self.alloc_blocked = true;
                self.note_stall(StallCause::Vr, now);
            }
        } else {
            // The generator ran dry: close any stall left open by the
            // final tOp (it resolved the tick that tOp issued).
            self.close_stall(now);
        }

        // ─ ②–③ Pop one tuple into a tOp ─
        if self.top_q.len() < self.cfg.top_queue_entries {
            if let Some(entry) = self.sparse_lq.front_mut() {
                if entry.ready_at <= now {
                    if entry.remaining > 0 {
                        let i = entry.idx as usize;
                        let out_line = addr.sparse_out_line(entry.out_idx);
                        self.top_q.push_back(TOp {
                            row: tiled.r_ids()[i],
                            col: tiled.c_ids()[i],
                            val: tiled.vals()[i],
                            func_out_idx: entry.idx,
                            out_line,
                            next_seg: 0,
                        });
                        entry.idx += 1;
                        entry.out_idx += 1;
                        entry.remaining -= 1;
                        self.stats.tuples += 1;
                        progressed = true;
                    }
                    if self.sparse_lq.front().is_some_and(|e| e.remaining == 0) {
                        self.sparse_lq.pop_front();
                    }
                }
            }
        }

        // ─ ① Sparse data loader: one line-group request per cycle ─
        if self.tile_remaining > 0 && self.sparse_lq.len() < self.cfg.sparse_lq_entries {
            let idx = self.tile_next_nnz;
            let line_cap = FLOATS_PER_LINE as u64 - (idx % FLOATS_PER_LINE as u64);
            let chunk = self.tile_remaining.min(line_cap);
            let path = self.sparse_path();
            let t1 = mem.read(
                self.id,
                addr.r_ids_line(idx),
                path,
                DataClass::SparseIn,
                now,
            );
            let t2 = mem.read(
                self.id,
                addr.c_ids_line(idx),
                path,
                DataClass::SparseIn,
                now,
            );
            let t3 = mem.read(self.id, addr.vals_line(idx), path, DataClass::SparseIn, now);
            let ready_at = t1.max(t2).max(t3);
            self.sparse_lq.push_back(SparseEntry {
                ready_at,
                idx,
                out_idx: self.tile_out_next,
                remaining: chunk,
            });
            self.tile_next_nnz += chunk;
            self.tile_out_next += chunk;
            self.tile_remaining -= chunk;
            progressed = true;
        }

        // ─ Command handling ─
        progressed |= self.step_control(now, mem, barriers, tiled);

        if self.state == PeState::Done {
            self.stats.finished_at = now;
            return TickResult::Done;
        }
        if progressed {
            TickResult::Progressed
        } else {
            TickResult::Waiting(self.next_event(now))
        }
    }

    /// Generates one vOp for `top` (segment `top.next_seg`). Returns false
    /// on an allocation stall.
    fn gen_vop(&mut self, top: TOp, now: Cycle, mem: &mut MemorySystem, addr: &AddressMap) -> bool {
        let seg = top.next_seg as u64;
        let (op1_line, op1_class, op2_line, op2_class, dest_is_out) = match self.params.primitive {
            Primitive::Spmm => (
                addr.r_matrix_line(top.row as u64, seg),
                DataClass::RMatrix,
                addr.c_matrix_line(top.col as u64, seg),
                DataClass::CMatrix,
                false,
            ),
            Primitive::Sddmm => (
                addr.r_matrix_line(top.row as u64, seg),
                DataClass::RMatrix,
                addr.c_matrix_line(top.col as u64, seg),
                DataClass::CMatrix,
                true,
            ),
        };

        // Allocate / look up operand 1.
        let op1 = match self.vrf.lookup_or_alloc(op1_line, op1_class) {
            AllocOutcome::Reused(id) => id,
            AllocOutcome::Allocated(id) => {
                let done = mem.read(
                    self.id,
                    op1_line,
                    self.path_for_class(op1_class),
                    op1_class,
                    now,
                );
                self.vrf.set_loading(id, done);
                self.dense_loads.push(Reverse((done, id)));
                id
            }
            AllocOutcome::Stall => return false,
        };
        // Operand 2.
        let op2 = match self.vrf.lookup_or_alloc(op2_line, op2_class) {
            AllocOutcome::Reused(id) => id,
            AllocOutcome::Allocated(id) => {
                let done = mem.read(
                    self.id,
                    op2_line,
                    self.path_for_class(op2_class),
                    op2_class,
                    now,
                );
                self.vrf.set_loading(id, done);
                self.dense_loads.push(Reverse((done, id)));
                id
            }
            AllocOutcome::Stall => return false,
        };
        // Destination: the rMatrix operand for SpMM (read-modify-write), a
        // write-only output register for SDDMM.
        let dest = if dest_is_out {
            match self.vrf.lookup_or_alloc(top.out_line, DataClass::SparseOut) {
                AllocOutcome::Reused(id) => id,
                AllocOutcome::Allocated(id) => {
                    // Output tiles are cache-line aligned and fully
                    // produced: no fill needed (§4.3).
                    self.vrf.set_ready(id);
                    id
                }
                AllocOutcome::Stall => return false,
            }
        } else {
            op1
        };

        self.vrf.add_ref(op1);
        self.vrf.add_ref(op2);
        self.vrf.add_ref(dest);
        let slot = self
            .rs_free
            .pop()
            .expect("the generator checked for a free slot");
        let seq = self.rs_seq;
        self.rs_seq += 1;
        let mut fills_pending = 0;
        for op in [op1, op2] {
            if !self.vrf.is_resident(op) {
                self.fill_waiters[op].push(slot);
                fills_pending += 1;
            }
        }
        if fills_pending == 0 {
            // The newest entry: program order puts it last.
            self.rs_ready.push((seq, slot));
        }
        self.rs[slot] = Some(RsEntry {
            seq,
            fills_pending,
            op1,
            op2,
            dest,
            row: top.row,
            col: top.col,
            val: top.val,
            seg: top.next_seg,
            func_out_idx: top.func_out_idx,
        });
        true
    }

    /// Handles command fetch, barriers, and flushes. Returns whether it
    /// made progress.
    fn step_control(
        &mut self,
        now: Cycle,
        mem: &mut MemorySystem,
        barriers: &mut BarrierSync,
        tiled: &TiledCoo,
    ) -> bool {
        match self.state {
            PeState::Ready => {
                // Fetch the next command once the current tile's sparse
                // fetch has fully issued (tile processing may still drain).
                if self.tile_remaining == 0 && self.cursor < self.commands.len() {
                    self.state = PeState::Fetching {
                        until: now + self.cfg.instr_fetch_cycles,
                    };
                    return true;
                }
                false
            }
            PeState::Fetching { until } => {
                if now < until {
                    return false;
                }
                let cmd = self.commands[self.cursor];
                self.cursor += 1;
                if let Some(tr) = self.trace.as_deref_mut() {
                    // Any decode ends the previous tile's issue span.
                    tr.close_tile(self.id, now, &self.stats);
                }
                match cmd {
                    PeCommand::Tile { tile_idx } => {
                        // The tile-instruction arguments (sparse_in offset,
                        // sparse_out offset, NNZ_num) come from the tiling
                        // metadata of Appendix A.
                        let info = tiled.tiles()[tile_idx];
                        self.tile_next_nnz = info.sparse_in_start as u64;
                        self.tile_remaining = info.nnz as u64;
                        self.tile_out_next = info.sparse_out_start as u64;
                        self.state = PeState::Ready;
                        if let Some(tr) = self.trace.as_deref_mut() {
                            tr.open_tile = Some((
                                tile_idx,
                                info.nnz as u32,
                                now,
                                self.stats.vops,
                                self.stats.tuples,
                            ));
                        }
                    }
                    PeCommand::Barrier { id } => {
                        self.state = PeState::WaitDrain(AfterDrain::Barrier(id));
                        if let Some(tr) = self.trace.as_deref_mut() {
                            tr.barrier_from = Some((id, now));
                        }
                    }
                    PeCommand::WbInvalidate => {
                        self.state = PeState::WaitDrain(AfterDrain::Flush);
                    }
                    PeCommand::Terminate => {
                        self.state = PeState::Done;
                        if let Some(tr) = self.trace.as_deref_mut() {
                            tr.events.push(TraceEvent::instant(
                                "terminate",
                                "control",
                                now,
                                self.id as u64,
                            ));
                        }
                    }
                }
                true
            }
            PeState::WaitDrain(after) => {
                if !self.pipeline_empty() {
                    return false;
                }
                match after {
                    AfterDrain::Barrier(id) => {
                        barriers.arrive(id);
                        self.state = PeState::AtBarrier(id);
                    }
                    AfterDrain::Flush => {
                        self.pending_flush.clear();
                        self.vrf.drain_dirty_into(&mut self.pending_flush);
                        self.stats.flush_started_at = now;
                        self.state = PeState::Flushing;
                        if let Some(tr) = self.trace.as_deref_mut() {
                            tr.flush_from = Some((now, self.pending_flush.len()));
                        }
                    }
                }
                true
            }
            PeState::AtBarrier(id) => {
                if barriers.passed(id) {
                    self.state = PeState::Ready;
                    if let Some(tr) = self.trace.as_deref_mut() {
                        if let Some((bid, from)) = tr.barrier_from.take() {
                            tr.events.push(
                                TraceEvent::complete(
                                    format!("barrier {bid}"),
                                    "barrier",
                                    from,
                                    now.saturating_sub(from),
                                    self.id as u64,
                                )
                                .arg("barrier", bid),
                            );
                        }
                    }
                    true
                } else {
                    false
                }
            }
            PeState::Flushing => {
                if let Some(&(line, class)) = self.pending_flush.front() {
                    if self.stores.len() < self.cfg.store_queue_entries {
                        self.pending_flush.pop_front();
                        let accept =
                            mem.write(self.id, line, self.path_for_class(class), class, now);
                        self.stores.push(Reverse(accept));
                        return true;
                    }
                    false
                } else if self.stores.is_empty() {
                    let cache_lines = mem.flush_agent(self.id, now);
                    self.state = PeState::Ready;
                    if let Some(tr) = self.trace.as_deref_mut() {
                        if let Some((from, vr_lines)) = tr.flush_from.take() {
                            tr.events.push(
                                TraceEvent::complete(
                                    "flush",
                                    "flush",
                                    from,
                                    now.saturating_sub(from),
                                    self.id as u64,
                                )
                                .arg("vr_lines", vr_lines)
                                .arg("cache_lines", cache_lines),
                            );
                        }
                    }
                    true
                } else {
                    false
                }
            }
            PeState::Done => false,
        }
    }

    /// The earliest *future* event that can unblock this PE. Events at or
    /// before `now` were already harvested by this tick; one that is still
    /// pending (e.g. a ready sparse-LQ entry behind a full tOp queue) can
    /// only move when something else frees up, so it is not a wake source.
    /// Reporting it would make the scheduler busy-wait on a starved PE and
    /// mask genuine livelocks from the watchdog.
    fn next_event(&self, now: Cycle) -> Cycle {
        let mut next = Cycle::MAX;
        let mut fold = |t: Cycle| {
            if t > now {
                next = next.min(t);
            }
        };
        if let Some(&Reverse((t, _))) = self.dense_loads.peek() {
            fold(t);
        }
        if let Some(&Reverse(t)) = self.stores.peek() {
            fold(t);
        }
        if let Some(e) = self.sparse_lq.front() {
            fold(e.ready_at);
        }
        // Completions are FIFO (see `in_flight`), so the front is the
        // earliest.
        if let Some(f) = self.in_flight.front() {
            fold(f.done);
        }
        if let PeState::Fetching { until } = self.state {
            fold(until);
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AddressMap, BarrierPolicy, PlanSearchSpace, Schedule};
    use spade_matrix::{Coo, TiledCoo, TilingConfig};
    use spade_sim::{MemConfig, MemorySystem};

    fn fixture() -> (TiledCoo, AddressMap, DenseMatrix, DenseMatrix) {
        let mut t = Vec::new();
        for i in 0..32u32 {
            t.push((i, (i * 3) % 32, 1.0 + i as f32 * 0.1));
            t.push((i, (i + 1) % 32, 0.5));
        }
        let a = Coo::from_triplets(32, 32, &t).unwrap();
        let tiled = TiledCoo::new(&a, TilingConfig::new(8, 32).unwrap()).unwrap();
        let b = DenseMatrix::from_fn(32, 16, |r, c| (r + c) as f32 * 0.25);
        let d = DenseMatrix::zeros(32, 16);
        let addr = AddressMap::for_spmm(&tiled, &b, &d);
        (tiled, addr, b, d)
    }

    fn params() -> RuntimeParams {
        RuntimeParams {
            primitive: Primitive::Spmm,
            r_policy: RMatrixPolicy::Cache,
            c_policy: CMatrixPolicy::Cache,
            lines_per_row: 1,
        }
    }

    /// Drives a single PE to completion, returning the final cycle.
    fn drive(
        pe: &mut Pe,
        mem: &mut MemorySystem,
        barriers: &mut BarrierSync,
        addr: &AddressMap,
        tiled: &TiledCoo,
        data: &mut KernelData<'_>,
    ) -> Cycle {
        const BUDGET: u64 = 2_000_000;
        let mut now = 0;
        for _ in 0..BUDGET {
            match pe.tick(now, mem, barriers, addr, tiled, data) {
                TickResult::Done => return now,
                TickResult::Progressed => now += 1,
                TickResult::Waiting(t) => {
                    now = if t == Cycle::MAX {
                        now + 1
                    } else {
                        t.max(now + 1)
                    }
                }
            }
        }
        panic!(
            "PE did not terminate within {BUDGET} iterations (cycle {now});\nfinal state: {}",
            pe.snapshot()
        );
    }

    #[test]
    fn single_pe_processes_all_tiles_and_terminates() {
        let (tiled, addr, b, mut d) = fixture();
        let schedule = Schedule::build(&tiled, 1, Primitive::Spmm, BarrierPolicy::None);
        let mut pe = Pe::new(
            0,
            PipelineConfig::table1(),
            params(),
            schedule.commands(0).to_vec(),
        );
        let mut mem = MemorySystem::new(MemConfig::small_test(1));
        let mut barriers = BarrierSync::new(1);
        let mut data = KernelData::Spmm { b: &b, d: &mut d };
        drive(&mut pe, &mut mem, &mut barriers, &addr, &tiled, &mut data);
        assert!(pe.is_done());
        assert_eq!(pe.stats().tuples, tiled.nnz() as u64);
        assert_eq!(pe.stats().vops, tiled.nnz() as u64); // K=16 -> 1 vOp/nnz
                                                         // All dirty state flushed at termination.
        assert_eq!(mem.l1_occupancy(0), 0);
    }

    #[test]
    fn in_order_pe_still_completes() {
        // rs_entries = 1 models the in-order miniSPADE pipeline.
        let (tiled, addr, b, mut d) = fixture();
        let schedule = Schedule::build(&tiled, 1, Primitive::Spmm, BarrierPolicy::None);
        let mut cfg = PipelineConfig::table1();
        cfg.rs_entries = 1;
        cfg.vrf_regs = 8;
        let mut pe = Pe::new(0, cfg, params(), schedule.commands(0).to_vec());
        let mut mem = MemorySystem::new(MemConfig::small_test(1));
        let mut barriers = BarrierSync::new(1);
        let mut data = KernelData::Spmm { b: &b, d: &mut d };
        drive(&mut pe, &mut mem, &mut barriers, &addr, &tiled, &mut data);
        assert_eq!(pe.stats().vops, tiled.nnz() as u64);
    }

    #[test]
    fn out_of_order_pipeline_beats_in_order() {
        let (tiled, addr, b, _) = fixture();
        let schedule = Schedule::build(&tiled, 1, Primitive::Spmm, BarrierPolicy::None);
        let mut times = Vec::new();
        for rs in [1usize, 32] {
            let mut cfg = PipelineConfig::table1();
            cfg.rs_entries = rs;
            let mut d = DenseMatrix::zeros(32, 16);
            let mut pe = Pe::new(0, cfg, params(), schedule.commands(0).to_vec());
            let mut mem = MemorySystem::new(MemConfig::small_test(1));
            let mut barriers = BarrierSync::new(1);
            let mut data = KernelData::Spmm { b: &b, d: &mut d };
            times.push(drive(
                &mut pe,
                &mut mem,
                &mut barriers,
                &addr,
                &tiled,
                &mut data,
            ));
        }
        assert!(
            times[1] < times[0],
            "ooo {} vs in-order {}",
            times[1],
            times[0]
        );
    }

    #[test]
    fn barrier_sync_protocol() {
        let mut sync = BarrierSync::new(2);
        assert!(!sync.passed(0));
        sync.arrive(0);
        assert!(!sync.try_release());
        sync.arrive(0);
        assert!(sync.try_release());
        assert!(sync.passed(0));
        assert!(!sync.passed(1));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // the order check is a debug_assert
    fn out_of_order_barrier_arrival_is_rejected() {
        let mut sync = BarrierSync::new(2);
        sync.arrive(1);
    }

    #[test]
    fn pe_waits_at_barrier_until_release() {
        let (tiled, addr, b, mut d) = fixture();
        // Two PEs, barrier per column panel (single panel -> no barrier);
        // force barriers by tiling with 4 column panels.
        let tiled = {
            let a = tiled.to_coo();
            TiledCoo::new(&a, TilingConfig::new(8, 8).unwrap()).unwrap()
        };
        let addr2 = AddressMap::for_spmm(&tiled, &b, &d);
        let _ = addr;
        let schedule = Schedule::build(
            &tiled,
            2,
            Primitive::Spmm,
            BarrierPolicy::per_column_panel(),
        );
        assert!(schedule.num_barriers() > 0);
        let mut pe0 = Pe::new(
            0,
            PipelineConfig::table1(),
            params(),
            schedule.commands(0).to_vec(),
        );
        let mut pe1 = Pe::new(
            1,
            PipelineConfig::table1(),
            params(),
            schedule.commands(1).to_vec(),
        );
        let mut mem = MemorySystem::new(MemConfig::small_test(2));
        let mut barriers = BarrierSync::new(2);
        let mut data = KernelData::Spmm { b: &b, d: &mut d };
        let mut done = (false, false);
        for now in 0..5_000_000u64 {
            let r0 = pe0.tick(now, &mut mem, &mut barriers, &addr2, &tiled, &mut data);
            let r1 = pe1.tick(now, &mut mem, &mut barriers, &addr2, &tiled, &mut data);
            barriers.try_release();
            done = (pe0.is_done(), pe1.is_done());
            if done.0 && done.1 {
                break;
            }
            let _ = (r0, r1);
        }
        assert!(
            done.0 && done.1,
            "both PEs must pass the barrier and finish"
        );
        assert_eq!(pe0.stats().tuples + pe1.stats().tuples, tiled.nnz() as u64);
        let _ = PlanSearchSpace::table3(32);
    }

    #[test]
    fn sparse_loader_chunks_align_to_lines() {
        // A tile whose sparse_in offset is mid-line: the first chunk must
        // stop at the line boundary (16 entries).
        let mut t = Vec::new();
        for i in 0..40u32 {
            t.push((i % 8, i % 8, 1.0 + i as f32));
        }
        let a = Coo::from_triplets(8, 8, &t).unwrap();
        // 8x8 with row panels of 1: tiles start at arbitrary offsets.
        let tiled = TiledCoo::new(&a, TilingConfig::new(1, 8).unwrap()).unwrap();
        let starts: Vec<usize> = tiled.tiles().iter().map(|ti| ti.sparse_in_start).collect();
        assert!(starts.iter().any(|s| s % 16 != 0), "need a mid-line tile");
        let b = DenseMatrix::from_fn(8, 16, |r, c| (r * c) as f32);
        let mut d = DenseMatrix::zeros(8, 16);
        let addr = AddressMap::for_spmm(&tiled, &b, &d);
        let schedule = Schedule::build(&tiled, 1, Primitive::Spmm, BarrierPolicy::None);
        let mut pe = Pe::new(
            0,
            PipelineConfig::table1(),
            params(),
            schedule.commands(0).to_vec(),
        );
        let mut mem = MemorySystem::new(MemConfig::small_test(1));
        let mut barriers = BarrierSync::new(1);
        let mut data = KernelData::Spmm { b: &b, d: &mut d };
        drive(&mut pe, &mut mem, &mut barriers, &addr, &tiled, &mut data);
        assert_eq!(pe.stats().tuples, tiled.nnz() as u64);
    }
}
