//! The integrated SPADE system (§4.1): many PEs sharing the host memory
//! hierarchy, driven by the CPE's tile schedule.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use spade_matrix::{reference, Coo, DenseMatrix, TiledCoo, FLOATS_PER_LINE};
use spade_sim::{
    Cycle, LevelKind, MemorySystem, TelemetryCounters, TelemetryGauges, TelemetryRecorder,
    TelemetrySeries, TraceEvent, TraceLog,
};

use crate::bitset::BitSet;
use crate::pe::{BarrierSync, KernelData, Pe, PeStats, RuntimeParams, TickResult};
use crate::{
    AddressMap, ExecutionPlan, Primitive, RunReport, Schedule, SpadeError, StallDiagnostics,
    StallKind, SystemConfig, WatchdogConfig,
};

/// Result of an SpMM run: the output dense matrix and the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmmRun {
    /// `D = A × B`, computed in the pipeline's out-of-order retirement
    /// order.
    pub output: DenseMatrix,
    /// Timing and traffic metrics.
    pub report: RunReport,
}

/// Result of an SDDMM run: the output sparse matrix (same structure as the
/// input) and the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct SddmmRun {
    /// `D = A ∘ (B × Cᵀ)`.
    pub output: Coo,
    /// Timing and traffic metrics.
    pub report: RunReport,
}

/// Result of an SpMV run (§9): the output vector and the run report.
#[derive(Debug, Clone, PartialEq)]
pub struct SpmvRun {
    /// `d = A · x`.
    pub output: Vec<f32>,
    /// Timing and traffic metrics.
    pub report: RunReport,
}

/// A simulated SPADE system.
///
/// Each call to [`SpadeSystem::run_spmm`] / [`SpadeSystem::run_sddmm`]
/// executes one SPADE-mode section: Initialization broadcast, tile
/// instructions per the CPE schedule, optional scheduling barriers, and the
/// WB&Invalidate/Termination sequence. Caches start cold unless
/// [`SpadeSystem::keep_warm`] is enabled.
///
/// # Example
///
/// ```
/// use spade_core::{ExecutionPlan, SpadeSystem, SystemConfig};
/// use spade_matrix::{reference, Coo, DenseMatrix};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let a = Coo::from_triplets(64, 64, &[(0, 1, 2.0), (3, 2, 1.0), (63, 63, 1.0)])?;
/// let b = DenseMatrix::from_fn(64, 32, |r, c| (r + c) as f32);
/// let mut sys = SpadeSystem::new(SystemConfig::scaled(4));
/// let run = sys.run_spmm(&a, &b, &ExecutionPlan::spmm_base(&a)?)?;
/// assert!(reference::dense_close(&run.output, &reference::spmm(&a, &b), 1e-3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SpadeSystem {
    config: SystemConfig,
    mem: Option<MemorySystem>,
    keep_warm: bool,
    fast_forward: bool,
    watchdog: WatchdogConfig,
    /// Telemetry window in cycles; `None` disables sampling.
    telemetry_window: Option<Cycle>,
    /// Whether to record an event trace for the next run.
    trace_on: bool,
    /// Telemetry series from the most recent run (taken, not cloned).
    last_telemetry: Option<TelemetrySeries>,
    /// Event trace from the most recent run (taken, not cloned).
    last_trace: Option<TraceLog>,
}

impl SpadeSystem {
    /// Creates a system from `config`.
    pub fn new(config: SystemConfig) -> Self {
        SpadeSystem {
            config,
            mem: None,
            keep_warm: false,
            fast_forward: true,
            watchdog: WatchdogConfig::default(),
            telemetry_window: None,
            trace_on: false,
            last_telemetry: None,
            last_trace: None,
        }
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// When enabled, subsequent runs reuse the previous run's cache
    /// contents (timing queues and statistics still reset). Used to
    /// measure the cold-start overhead of §7.D.
    pub fn keep_warm(&mut self, warm: bool) -> &mut Self {
        self.keep_warm = warm;
        self
    }

    /// Selects the driver for the cycle loop (event-driven by default).
    ///
    /// When enabled, the loop is event-driven: each PE is due at its next
    /// wake cycle, only due PEs are ticked, and the clock jumps straight
    /// across idle gaps. Disabling it forces the naive loop that visits
    /// every cycle and polls every PE — kept purely as the behavioral
    /// oracle. Both drivers produce bit-identical outputs, reports,
    /// telemetry, and traces (see the `fast_forward` property tests and
    /// the `scheduler_equivalence` suite); the naive loop just spends host
    /// time proportional to simulated cycles × PEs (each poll also running
    /// the reservation-station scan — the per-PE event gates are disabled
    /// too) instead of to actual events.
    ///
    /// This is the oracle's only switch in `spade-core`. No CLI flag, wire
    /// field or environment variable reaches it: the callers are the
    /// equivalence tests and `bench-perf`'s driver comparison, through
    /// `Job::with_naive_loop` in `spade-bench`.
    pub fn set_fast_forward(&mut self, enabled: bool) -> &mut Self {
        self.fast_forward = enabled;
        self
    }

    /// Configures the deadlock watchdog: the idle budget before a run is
    /// declared livelocked, and an optional hard cycle ceiling. A tripped
    /// watchdog makes the run return [`SpadeError::Deadlock`] carrying a
    /// [`StallDiagnostics`] snapshot instead of aborting the process.
    pub fn set_watchdog(&mut self, watchdog: WatchdogConfig) -> &mut Self {
        self.watchdog = watchdog;
        self
    }

    /// The active watchdog configuration.
    pub fn watchdog(&self) -> WatchdogConfig {
        self.watchdog
    }

    /// Enables windowed telemetry sampling (window width in PE cycles) or
    /// disables it with `None`. Telemetry is pure observation: enabling it
    /// never changes a run's outputs, report, or cycle count. A zero
    /// window is rejected when the next run starts.
    pub fn set_telemetry(&mut self, window: Option<Cycle>) -> &mut Self {
        self.telemetry_window = window;
        self
    }

    /// Enables or disables event tracing (tile-instruction lifecycles,
    /// barriers, flushes, idle spans, fault firings, watchdog reports).
    /// Like telemetry, tracing never changes simulated behavior.
    pub fn set_trace(&mut self, enabled: bool) -> &mut Self {
        self.trace_on = enabled;
        self
    }

    /// Takes the telemetry series recorded by the most recent run (also
    /// populated when the run failed mid-way, e.g. on a watchdog trip).
    pub fn take_telemetry(&mut self) -> Option<TelemetrySeries> {
        self.last_telemetry.take()
    }

    /// Takes the event trace recorded by the most recent run (also
    /// populated when the run failed mid-way; a watchdog trip appears as
    /// its final event).
    pub fn take_trace(&mut self) -> Option<TraceLog> {
        self.last_trace.take()
    }

    /// Runs `D = A × B` under `plan`.
    ///
    /// # Errors
    ///
    /// Returns [`SpadeError::ShapeMismatch`] if `B` has fewer rows than `A`
    /// has columns, [`SpadeError::UnalignedK`] if `K` does not fill whole
    /// cache lines, and tiling errors from the plan.
    pub fn run_spmm(
        &mut self,
        a: &Coo,
        b: &DenseMatrix,
        plan: &ExecutionPlan,
    ) -> Result<SpmmRun, SpadeError> {
        self.validate_config()?;
        validate_k(b.num_cols())?;
        if b.num_rows() < a.num_cols() {
            return Err(SpadeError::ShapeMismatch {
                reason: format!(
                    "B has {} rows but A has {} columns",
                    b.num_rows(),
                    a.num_cols()
                ),
            });
        }
        let tiled = TiledCoo::new(a, plan.tiling)?;
        let mut d = DenseMatrix::zeros(a.num_rows(), b.num_cols());
        let addr = AddressMap::for_spmm(&tiled, b, &d);
        let schedule = Schedule::build(&tiled, self.config.num_pes, Primitive::Spmm, plan.barriers);
        let report = {
            let mut data = KernelData::Spmm { b, d: &mut d };
            self.simulate(Primitive::Spmm, plan, &tiled, &addr, &schedule, &mut data)?
        };
        Ok(SpmmRun { output: d, report })
    }

    /// Runs `D = A ∘ (B × Cᵀ)` under `plan`.
    ///
    /// # Errors
    ///
    /// Returns [`SpadeError::ShapeMismatch`] if `B` has fewer rows than `A`
    /// or `Cᵀ` fewer rows than `A` has columns or their `K` differs, and
    /// [`SpadeError::UnalignedK`] for a `K` that does not fill whole cache
    /// lines.
    pub fn run_sddmm(
        &mut self,
        a: &Coo,
        b: &DenseMatrix,
        c_t: &DenseMatrix,
        plan: &ExecutionPlan,
    ) -> Result<SddmmRun, SpadeError> {
        self.validate_config()?;
        validate_k(b.num_cols())?;
        if b.num_rows() < a.num_rows() || c_t.num_rows() < a.num_cols() {
            return Err(SpadeError::ShapeMismatch {
                reason: "B needs a row per row of A and Cᵀ a row per column of A".into(),
            });
        }
        if b.num_cols() != c_t.num_cols() {
            return Err(SpadeError::ShapeMismatch {
                reason: format!(
                    "B and Cᵀ disagree on K: {} vs {}",
                    b.num_cols(),
                    c_t.num_cols()
                ),
            });
        }
        let tiled = TiledCoo::new(a, plan.tiling)?;
        let addr = AddressMap::for_sddmm(&tiled, b, c_t);
        let schedule =
            Schedule::build(&tiled, self.config.num_pes, Primitive::Sddmm, plan.barriers);
        let mut out_tiled = vec![0f32; tiled.nnz()];
        let report = {
            let mut data = KernelData::Sddmm {
                b,
                c_t,
                out: &mut out_tiled,
            };
            self.simulate(Primitive::Sddmm, plan, &tiled, &addr, &schedule, &mut data)?
        };
        // Map tiled-order outputs back to the source row-major order.
        let triplets: Vec<(u32, u32, f32)> = (0..tiled.nnz())
            .map(|i| (tiled.r_ids()[i], tiled.c_ids()[i], out_tiled[i]))
            .collect();
        let output = Coo::from_triplets(a.num_rows(), a.num_cols(), &triplets)?;
        Ok(SddmmRun { output, report })
    }

    /// Runs sparse matrix × vector (`d = A · x`) — SpMM with a single
    /// dense column (§9: "SPADE can already support SpMV").
    ///
    /// The dense "matrix" is one element wide; rows still occupy whole
    /// cache lines per the SPADE layout rules, so each tuple generates one
    /// vOp.
    ///
    /// # Errors
    ///
    /// Returns [`SpadeError::ShapeMismatch`] if `x` is shorter than `A`'s
    /// column count, plus tiling errors from the plan.
    pub fn run_spmv(
        &mut self,
        a: &Coo,
        x: &[f32],
        plan: &ExecutionPlan,
    ) -> Result<SpmvRun, SpadeError> {
        self.validate_config()?;
        if x.len() < a.num_cols() {
            return Err(SpadeError::ShapeMismatch {
                reason: format!(
                    "x has {} entries but A has {} columns",
                    x.len(),
                    a.num_cols()
                ),
            });
        }
        let b = DenseMatrix::from_fn(a.num_cols(), 1, |r, _| x[r]);
        let tiled = TiledCoo::new(a, plan.tiling)?;
        let mut d = DenseMatrix::zeros(a.num_rows(), 1);
        let addr = AddressMap::for_spmm(&tiled, &b, &d);
        let schedule = Schedule::build(&tiled, self.config.num_pes, Primitive::Spmm, plan.barriers);
        let report = {
            let mut data = KernelData::Spmm { b: &b, d: &mut d };
            self.simulate(Primitive::Spmm, plan, &tiled, &addr, &schedule, &mut data)?
        };
        let output = (0..a.num_rows()).map(|r| d.get(r, 0)).collect();
        Ok(SpmvRun { output, report })
    }

    /// Runs sampled dense-vector × dense-vector (`d = A ∘ (x · yᵀ)`) — the
    /// SDDVV primitive of §9. For every non-zero `A[r, c]`, the output is
    /// `A[r, c] · x[r] · y[c]`.
    ///
    /// # Errors
    ///
    /// Returns [`SpadeError::ShapeMismatch`] when the vectors are shorter
    /// than `A`'s rows/columns, plus tiling errors from the plan.
    pub fn run_sddvv(
        &mut self,
        a: &Coo,
        x: &[f32],
        y: &[f32],
        plan: &ExecutionPlan,
    ) -> Result<SddmmRun, SpadeError> {
        self.validate_config()?;
        if x.len() < a.num_rows() || y.len() < a.num_cols() {
            return Err(SpadeError::ShapeMismatch {
                reason: "x needs an entry per row of A and y one per column".into(),
            });
        }
        let b = DenseMatrix::from_fn(a.num_rows(), 1, |r, _| x[r]);
        let c_t = DenseMatrix::from_fn(a.num_cols(), 1, |r, _| y[r]);
        let tiled = TiledCoo::new(a, plan.tiling)?;
        let addr = AddressMap::for_sddmm(&tiled, &b, &c_t);
        let schedule =
            Schedule::build(&tiled, self.config.num_pes, Primitive::Sddmm, plan.barriers);
        let mut out_tiled = vec![0f32; tiled.nnz()];
        let report = {
            let mut data = KernelData::Sddmm {
                b: &b,
                c_t: &c_t,
                out: &mut out_tiled,
            };
            self.simulate(Primitive::Sddmm, plan, &tiled, &addr, &schedule, &mut data)?
        };
        let triplets: Vec<(u32, u32, f32)> = (0..tiled.nnz())
            .map(|i| (tiled.r_ids()[i], tiled.c_ids()[i], out_tiled[i]))
            .collect();
        let output = Coo::from_triplets(a.num_rows(), a.num_cols(), &triplets)?;
        Ok(SddmmRun { output, report })
    }

    fn simulate(
        &mut self,
        primitive: Primitive,
        plan: &ExecutionPlan,
        tiled: &TiledCoo,
        addr: &AddressMap,
        schedule: &Schedule,
        data: &mut KernelData<'_>,
    ) -> Result<RunReport, SpadeError> {
        let host_start = std::time::Instant::now();
        // Artifacts describe exactly one run; drop any stale ones now so a
        // failure below cannot be mistaken for fresh observability data.
        self.last_telemetry = None;
        self.last_trace = None;
        if self.telemetry_window == Some(0) {
            return Err(SpadeError::InvalidConfig {
                reason: "telemetry window must be at least one cycle".into(),
            });
        }
        let num_pes = self.config.num_pes;
        let mut mem = match (self.keep_warm, self.mem.take()) {
            (true, Some(mut m)) if *m.config() == self.config.mem => {
                m.reset_stats();
                m
            }
            _ => MemorySystem::new(self.config.mem.clone()),
        };
        mem.set_trace(self.trace_on);
        let params = RuntimeParams {
            primitive,
            r_policy: plan.r_policy,
            c_policy: plan.c_policy,
            lines_per_row: (addr.dense_stride_bytes / 64) as u32,
        };
        let mut barriers = BarrierSync::new(num_pes);
        let mut pes: Vec<Pe> = (0..num_pes)
            .map(|i| {
                let mut pe = Pe::new(
                    i,
                    self.config.pipeline,
                    params,
                    schedule.commands(i).to_vec(),
                );
                pe.set_trace(self.trace_on);
                // The oracle loop models the textbook poll-everything
                // baseline: it re-runs the reservation-station ready scan
                // every polled cycle instead of trusting the event gate.
                pe.set_event_gates(self.fast_forward);
                pe
            })
            .collect();

        let clock_mult = self.config.pipeline.clock_mult.max(1);
        let watchdog = self.watchdog;
        let audit_on = mem.audit_active();
        // MSHR-style bound for in-flight read accounting: each PE holds at
        // most 3 sparse reads per sparse-LQ entry plus its dense LQ.
        let pipeline = self.config.pipeline;
        let read_bound = num_pes * (3 * pipeline.sparse_lq_entries + pipeline.dense_lq_entries);
        let mut now: Cycle = 0;
        // Per-PE wake times: a PE that reports Waiting(t) cannot change
        // state before its own next event at t (its queues are private), so
        // it is skipped until then. Barrier releases are the one external
        // wake source and reset every wake time.
        let mut wake: Vec<Cycle> = vec![0; num_pes];
        // Windowed telemetry: sampled at the top of every visited cycle,
        // before that cycle's activity, so window attribution is exact.
        let mut telemetry = self
            .telemetry_window
            .map(|w| TelemetryRecorder::new(w, num_pes));
        // Scheduler-level trace events (idle spans, barrier releases,
        // watchdog reports) on a dedicated lane after the per-PE lanes.
        let trace_on = self.trace_on;
        let sched_lane = num_pes as u64;
        let mut sched_events: Vec<TraceEvent> = Vec::new();
        // Error paths return the error through the driver instead of
        // bailing out of `simulate`, so the trace and telemetry collected
        // up to the failure are still assembled below — a deadlocked run's
        // trace is exactly the artifact one wants to look at.
        let env = LoopEnv {
            pes: &mut pes,
            mem: &mut mem,
            barriers: &mut barriers,
            addr,
            tiled,
            data,
            telemetry: &mut telemetry,
            sched_events: &mut sched_events,
            wake: &mut wake,
            now: &mut now,
            clock_mult,
            watchdog,
            audit_on,
            read_bound,
            trace_on,
            sched_lane,
        };
        let mut sim_err = if self.fast_forward {
            run_event_loop(env)
        } else {
            run_naive_loop(env)
        };
        if sim_err.is_none() && audit_on {
            if let Err(e) = audit_system(&mut mem, &pes, now, read_bound) {
                sim_err = Some(e);
            } else if let Err(reason) = mem.audit_final(now) {
                sim_err = Some(SpadeError::InvariantViolation { cycle: now, reason });
            }
        }

        // Assemble observability artifacts on success *and* failure.
        if let Some(rec) = telemetry.take() {
            self.last_telemetry = Some(rec.finish(now, |c| observe_into(&mem, &pes, c)));
        }
        if trace_on {
            let mut log = TraceLog::new();
            for i in 0..num_pes {
                log.set_lane(i as u64, format!("PE {i}"));
            }
            log.set_lane(sched_lane, "scheduler");
            if let Some(SpadeError::Deadlock { diagnostics }) = &sim_err {
                sched_events.push(diagnostics.to_trace_event(sched_lane));
            }
            for pe in pes.iter_mut() {
                log.events.append(&mut pe.take_trace_events());
            }
            log.events.append(&mut mem.take_trace_events());
            log.events.append(&mut sched_events);
            log.sort_by_time();
            self.last_trace = Some(log);
        }
        if let Some(e) = sim_err {
            return Err(e);
        }

        let pe_stats: Vec<PeStats> = pes.iter().map(|p| *p.stats()).collect();
        let mut report = RunReport::collect(
            now,
            mem.stats().clone(),
            mem.dram().achieved_gbps(now),
            mem.dram().utilization(now),
            &pe_stats,
            tiled.nnz() as u64,
            schedule.max_pe_nnz(tiled),
            schedule.num_barriers(),
        );
        report.host_wall_ns = host_start.elapsed().as_nanos() as f64;
        self.mem = Some(mem);
        Ok(report)
    }
}

impl SpadeSystem {
    fn validate_config(&self) -> Result<(), SpadeError> {
        self.config
            .pipeline
            .validate()
            .and_then(|()| self.config.mem.validate())
            .map_err(|reason| SpadeError::InvalidConfig { reason })?;
        if self.config.mem.num_agents < self.config.num_pes {
            return Err(SpadeError::InvalidConfig {
                reason: format!(
                    "memory system has {} agents but the system has {} PEs",
                    self.config.mem.num_agents, self.config.num_pes
                ),
            });
        }
        Ok(())
    }
}

/// Idle gaps at least this long (in cycles) are recorded as `idle` spans on
/// the scheduler trace lane; shorter gaps are elided so the trace size
/// stays bounded by real activity, not by cycle count.
const IDLE_TRACE_MIN: Cycle = 16;

/// The invariant auditor piggybacks on the cycle loop: every AUDIT_PERIOD
/// visited cycles it cross-checks the memory system and the PE queues.
/// Auditing is pure bookkeeping — it never feeds back into timing — so
/// enabling it cannot change a report.
const AUDIT_PERIOD: u64 = 4096;

/// Everything a cycle-loop driver needs, bundled so the event-driven and
/// naive drivers share one signature. `now` and `wake` stay borrowed from
/// `simulate` because artifact assembly and deadlock diagnostics read them
/// after the driver returns.
struct LoopEnv<'a, 'b> {
    pes: &'a mut [Pe],
    mem: &'a mut MemorySystem,
    barriers: &'a mut BarrierSync,
    addr: &'a AddressMap,
    tiled: &'a TiledCoo,
    data: &'a mut KernelData<'b>,
    telemetry: &'a mut Option<TelemetryRecorder>,
    sched_events: &'a mut Vec<TraceEvent>,
    wake: &'a mut [Cycle],
    now: &'a mut Cycle,
    clock_mult: u32,
    watchdog: WatchdogConfig,
    audit_on: bool,
    read_bound: usize,
    trace_on: bool,
    sched_lane: u64,
}

/// The event-driven cycle-loop driver (the default).
///
/// The PEs due at `now` and at `now + 1` are two bitsets over PE indices;
/// wakes further out sit in a lazy-deletion min-heap keyed by `(wake
/// cycle, PE index)`, where an entry is valid iff it still matches
/// `wake[i]` and the PE is live. Each iteration visits one cycle: it moves
/// the heap entries that came due into the current set, ticks its PEs in
/// ascending index order (the naive scan's shared-resource arbitration
/// order, and the heap's `(wake, index)` order), then either steps to the
/// next cycle or, when nothing is due there, jumps `now` to the heap's
/// next valid entry. A PE that progressed or waits for exactly the next
/// cycle — the common case — never touches the heap, and a barrier
/// release sets next-cycle bits. Host work per visited cycle follows the
/// due PEs instead of the naive loop's `O(num_pes)` per simulated cycle.
///
/// Equivalence with [`run_naive_loop`] rests on three facts. First, both
/// drivers tick exactly the PEs whose wake cycle has arrived, in index
/// order, with identical arguments — so PE and memory state evolve
/// identically. Second, cycles this driver skips are ones where the naive
/// loop ticks nothing (every live PE waiting) and the barrier cannot
/// release (arrivals only happen inside ticks), so no counter or queue can
/// change during them; telemetry windows crossed in a jump are emitted as
/// zero-delta samples, bit-identical to a cycle-by-cycle walk. Third, when
/// no finite wake remains the naive loop's idle spin is replayed
/// arithmetically, reproducing its watchdog trip cycle-for-cycle.
fn run_event_loop(env: LoopEnv<'_, '_>) -> Option<SpadeError> {
    let LoopEnv {
        pes,
        mem,
        barriers,
        addr,
        tiled,
        data,
        telemetry,
        sched_events,
        wake,
        now,
        clock_mult,
        watchdog,
        audit_on,
        read_bound,
        trace_on,
        sched_lane,
    } = env;
    let mut live = pes.iter().filter(|pe| !pe.is_done()).count();
    let mut due_now = BitSet::new(pes.len());
    let mut due_next = BitSet::new(pes.len());
    for (i, pe) in pes.iter().enumerate() {
        if !pe.is_done() {
            due_now.insert(i);
        }
    }
    let mut later: BinaryHeap<Reverse<(Cycle, usize)>> = BinaryHeap::new();
    let mut loop_iters = 0u64;
    loop {
        loop_iters += 1;
        if let Some(rec) = telemetry.as_mut() {
            rec.advance_to(*now, |c| observe_into(mem, pes, c));
        }
        if audit_on && loop_iters.is_multiple_of(AUDIT_PERIOD) {
            if let Err(e) = audit_system(mem, pes, *now, read_bound) {
                return Some(e);
            }
        }
        if let Some(max_cycles) = watchdog.max_cycles {
            if *now > max_cycles {
                return Some(deadlock(
                    StallKind::CycleBudgetExceeded,
                    *now,
                    0,
                    pes,
                    wake,
                    mem,
                    barriers,
                ));
            }
        }
        while let Some(&Reverse((w, i))) = later.peek() {
            if w > *now {
                break;
            }
            later.pop();
            // Superseded or dead entries are dropped (lazy deletion).
            if wake[i] == w && !pes[i].is_done() {
                debug_assert_eq!(w, *now, "the wake heap skipped a wake cycle");
                due_now.insert(i);
            }
        }
        let mut progressed = false;
        for i in due_now.iter() {
            let pe = &mut pes[i];
            let mut pe_next = Cycle::MAX;
            let mut pe_progressed = false;
            for _ in 0..clock_mult {
                match pe.tick(*now, mem, barriers, addr, tiled, data) {
                    TickResult::Progressed => pe_progressed = true,
                    TickResult::Waiting(t) => pe_next = pe_next.min(t),
                    TickResult::Done => break,
                }
            }
            if pe.is_done() {
                // `wake[i]` keeps its due value: deadlock snapshots show a
                // done PE's last wake, and the naive loop leaves it too.
                live -= 1;
                continue;
            }
            progressed |= pe_progressed;
            // Waiting(MAX) means blocked on a barrier; no wake entry — a
            // release sets the PE's next-cycle bit below.
            wake[i] = if pe_progressed {
                *now + 1
            } else if pe_next == Cycle::MAX {
                Cycle::MAX
            } else {
                pe_next.max(*now + 1)
            };
            if wake[i] == *now + 1 {
                due_next.insert(i);
            } else if wake[i] != Cycle::MAX {
                later.push(Reverse((wake[i], i)));
            }
        }
        due_now.clear();
        if barriers.try_release() {
            progressed = true;
            if trace_on {
                sched_events.push(
                    TraceEvent::instant("barrier release", "barrier", *now, sched_lane)
                        .arg("barrier", barriers.released().saturating_sub(1)),
                );
            }
            for (i, w) in wake.iter_mut().enumerate() {
                // Done PEs get their wake reset too (diagnostics snapshots
                // include them) but never a due bit.
                *w = *now + 1;
                if !pes[i].is_done() {
                    due_next.insert(i);
                }
            }
        }
        if live == 0 {
            return None;
        }
        std::mem::swap(&mut due_now, &mut due_next);
        if progressed || !due_now.is_empty() {
            *now += 1;
            continue;
        }
        let next = loop {
            match later.peek() {
                Some(&Reverse((w, i))) if wake[i] != w || pes[i].is_done() => {
                    later.pop();
                }
                Some(&Reverse((w, _))) => break Some(w),
                None => break None,
            }
        };
        match next {
            Some(next_event) => {
                debug_assert!(next_event > *now);
                if trace_on && next_event - *now >= IDLE_TRACE_MIN {
                    sched_events.push(TraceEvent::complete(
                        "idle",
                        "idle",
                        *now,
                        next_event - *now,
                        sched_lane,
                    ));
                }
                *now = next_event;
            }
            None => {
                // Every live PE is barrier-blocked with no finite wake, and
                // the barrier cannot release on its own: nothing can ever
                // change again. The naive loop spins one empty cycle at a
                // time until a watchdog trips; replay that spin in closed
                // form. At synthetic cycle `now + k` it first checks the
                // idle budget (trips once `k` reaches it), then the cycle
                // ceiling (trips once `now + k` exceeds it).
                let k_idle = Cycle::from(watchdog.idle_budget.max(1));
                let (kind, k) = match watchdog.max_cycles {
                    Some(mc) if mc - *now + 1 < k_idle => {
                        (StallKind::CycleBudgetExceeded, mc - *now + 1)
                    }
                    _ => (StallKind::IdleLivelock, k_idle),
                };
                *now += k;
                return Some(deadlock(kind, *now, k as u32, pes, wake, mem, barriers));
            }
        }
    }
}

/// The original cycle-by-cycle driver, kept as the behavioral oracle for
/// [`run_event_loop`]: every simulated cycle is visited and every live PE
/// polled, whether or not it can act. The PEs run with their dispatch-scan
/// event gate disabled (see [`Pe::set_event_gates`]), so every poll runs
/// the reservation-station scan; the scan itself, with its per-slot
/// bounds, is the same code under both drivers.
fn run_naive_loop(env: LoopEnv<'_, '_>) -> Option<SpadeError> {
    let LoopEnv {
        pes,
        mem,
        barriers,
        addr,
        tiled,
        data,
        telemetry,
        sched_events,
        wake,
        now,
        clock_mult,
        watchdog,
        audit_on,
        read_bound,
        trace_on,
        sched_lane,
    } = env;
    let mut loop_iters = 0u64;
    let mut idle_iters = 0u32;
    loop {
        loop_iters += 1;
        if let Some(rec) = telemetry.as_mut() {
            rec.advance_to(*now, |c| observe_into(mem, pes, c));
        }
        if audit_on && loop_iters.is_multiple_of(AUDIT_PERIOD) {
            if let Err(e) = audit_system(mem, pes, *now, read_bound) {
                return Some(e);
            }
        }
        if let Some(max_cycles) = watchdog.max_cycles {
            if *now > max_cycles {
                return Some(deadlock(
                    StallKind::CycleBudgetExceeded,
                    *now,
                    idle_iters,
                    pes,
                    wake,
                    mem,
                    barriers,
                ));
            }
        }
        let mut progressed = false;
        let mut all_done = true;
        let mut due_any = false;
        let mut next_event = Cycle::MAX;
        for (i, pe) in pes.iter_mut().enumerate() {
            if pe.is_done() {
                continue;
            }
            // Poll every live PE every cycle, whether or not it can act:
            // this loop is the textbook baseline the event-driven driver
            // is measured against, so it pays the full polling cost. A PE
            // with nothing due is inert under `tick` (every pipeline
            // stage is gated on a future event), so the extra polls
            // change no architectural state. `due` is recorded before the
            // tick only so the idle-gap trace span below is emitted on
            // the one cycle of the gap the event-driven driver visits.
            let due = wake[i] <= *now;
            due_any |= due;
            let mut pe_next = Cycle::MAX;
            let mut pe_progressed = false;
            for _ in 0..clock_mult {
                match pe.tick(*now, mem, barriers, addr, tiled, data) {
                    TickResult::Progressed => pe_progressed = true,
                    TickResult::Waiting(t) => pe_next = pe_next.min(t),
                    TickResult::Done => break,
                }
            }
            if pe.is_done() {
                continue;
            }
            all_done = false;
            if pe_progressed {
                debug_assert!(due, "a PE progressed on a poll it could not act in");
                progressed = true;
                wake[i] = *now + 1;
                next_event = next_event.min(*now + 1);
            } else {
                // Waiting(MAX) means blocked on a barrier; leave the
                // wake at infinity — a release resets it below.
                wake[i] = if pe_next == Cycle::MAX {
                    Cycle::MAX
                } else {
                    pe_next.max(*now + 1)
                };
                next_event = next_event.min(wake[i]);
            }
        }
        if barriers.try_release() {
            progressed = true;
            for w in wake.iter_mut() {
                *w = *now + 1;
            }
            next_event = next_event.min(*now + 1);
            if trace_on {
                sched_events.push(
                    TraceEvent::instant("barrier release", "barrier", *now, sched_lane)
                        .arg("barrier", barriers.released().saturating_sub(1)),
                );
            }
        }
        if all_done {
            return None;
        }
        if progressed {
            *now += 1;
            idle_iters = 0;
        } else if next_event != Cycle::MAX && next_event > *now {
            // Entering an idle gap: the cycles up to `next_event` are
            // walked one at a time, but nothing can change during them.
            // Record the span the event-driven driver would (`due_any`
            // limits this to the gap's first cycle — the only cycle the
            // event-driven driver visits — so the traces stay identical).
            if due_any && trace_on && next_event - *now >= IDLE_TRACE_MIN {
                sched_events.push(TraceEvent::complete(
                    "idle",
                    "idle",
                    *now,
                    next_event - *now,
                    sched_lane,
                ));
            }
            *now += 1;
            idle_iters = 0;
        } else {
            *now += 1;
            idle_iters += 1;
            if idle_iters >= watchdog.idle_budget {
                return Some(deadlock(
                    StallKind::IdleLivelock,
                    *now,
                    idle_iters,
                    pes,
                    wake,
                    mem,
                    barriers,
                ));
            }
        }
    }
}

/// Snapshots the cumulative counters and instantaneous gauges telemetry
/// samples are differenced from, reusing the recorder's scratch buffer so
/// the steady-state request path never allocates. Only called at window
/// boundaries — the recorder invokes it lazily through a closure.
fn observe_into(
    mem: &MemorySystem,
    pes: &[Pe],
    counters: &mut TelemetryCounters,
) -> TelemetryGauges {
    let stats = mem.stats();
    counters.requests_issued = stats.requests_issued;
    counters.tlb_misses = stats.tlb_misses;
    counters.faults_injected = stats.faults_injected;
    for (i, level) in LevelKind::ALL.iter().enumerate() {
        let s = stats.level(*level);
        counters.level_accesses[i] = s.accesses;
        counters.level_hits[i] = s.hits;
    }
    counters.vops = 0;
    counters.tuples = 0;
    counters.stall_no_vr = 0;
    counters.stall_no_rs = 0;
    counters.stall_no_dense_lq = 0;
    counters.pe_vops.clear();
    let mut gauges = TelemetryGauges::default();
    for pe in pes {
        let s = pe.stats();
        counters.vops += s.vops;
        counters.tuples += s.tuples;
        counters.stall_no_vr += s.stall_no_vr;
        counters.stall_no_rs += s.stall_no_rs;
        counters.stall_no_dense_lq += s.stall_no_dense_lq;
        counters.pe_vops.push(s.vops);
        gauges.in_flight_loads += pe.load_queue_depth() as u64;
        if !pe.is_done() {
            gauges.active_pes += 1;
        }
    }
    gauges
}

/// Runs the periodic invariant checks: memory-system audit (occupancy,
/// counters, in-flight reads) plus per-PE queue bounds.
fn audit_system(
    mem: &mut MemorySystem,
    pes: &[Pe],
    now: Cycle,
    read_bound: usize,
) -> Result<(), SpadeError> {
    if let Err(reason) = mem.audit(now, Some(read_bound)) {
        return Err(SpadeError::InvariantViolation { cycle: now, reason });
    }
    for pe in pes {
        if let Err(reason) = pe.check_invariants() {
            return Err(SpadeError::InvariantViolation { cycle: now, reason });
        }
    }
    Ok(())
}

/// Assembles a [`SpadeError::Deadlock`] from the stalled loop state.
fn deadlock(
    kind: StallKind,
    now: Cycle,
    idle_iters: u32,
    pes: &[Pe],
    wake: &[Cycle],
    mem: &mut MemorySystem,
    barriers: &BarrierSync,
) -> SpadeError {
    let earliest_wake = pes
        .iter()
        .zip(wake)
        .filter(|(pe, &w)| !pe.is_done() && w != Cycle::MAX)
        .map(|(_, &w)| w)
        .min();
    let snapshots = pes
        .iter()
        .zip(wake)
        .map(|(pe, &w)| {
            let mut s = pe.snapshot();
            s.wake_at = (w != Cycle::MAX).then_some(w);
            s
        })
        .collect();
    SpadeError::Deadlock {
        diagnostics: Box::new(StallDiagnostics {
            kind,
            cycle: now,
            idle_iters,
            earliest_wake,
            outstanding_reads: mem.outstanding_reads(now).map(|n| n as u64),
            barrier_released: barriers.released(),
            barrier_arrived: barriers.arrived(),
            pes: snapshots,
        }),
    }
}

fn validate_k(k: usize) -> Result<(), SpadeError> {
    if k == 0 || !k.is_multiple_of(FLOATS_PER_LINE) {
        return Err(SpadeError::UnalignedK { k });
    }
    Ok(())
}

/// Convenience: runs SpMM and checks the result against the gold kernel,
/// panicking on divergence. Used pervasively by tests and benches.
///
/// # Panics
///
/// Panics if the simulated output diverges from [`reference::spmm`] beyond
/// `1e-3` relative tolerance or the run fails.
pub fn run_spmm_checked(
    system: &mut SpadeSystem,
    a: &Coo,
    b: &DenseMatrix,
    plan: &ExecutionPlan,
) -> SpmmRun {
    let run = system.run_spmm(a, b, plan).expect("SpMM run failed");
    let gold = reference::spmm(a, b);
    assert!(
        reference::dense_close(&run.output, &gold, 1e-3),
        "simulated SpMM diverged from the gold kernel"
    );
    run
}

/// Convenience: runs SDDMM and checks the result against the gold kernel.
///
/// # Panics
///
/// Panics if the simulated output diverges from [`reference::sddmm`] beyond
/// `1e-3` relative tolerance or the run fails.
pub fn run_sddmm_checked(
    system: &mut SpadeSystem,
    a: &Coo,
    b: &DenseMatrix,
    c_t: &DenseMatrix,
    plan: &ExecutionPlan,
) -> SddmmRun {
    let run = system.run_sddmm(a, b, c_t, plan).expect("SDDMM run failed");
    let gold = reference::sddmm(a, b, c_t);
    assert!(
        reference::first_mismatch(run.output.vals(), &gold, 1e-3).is_none(),
        "simulated SDDMM diverged from the gold kernel"
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BarrierPolicy, CMatrixPolicy, RMatrixPolicy};
    use spade_matrix::TilingConfig;

    fn small_matrix() -> Coo {
        let mut t = Vec::new();
        // A ring plus some extra structure over 64 rows.
        for i in 0..64u32 {
            t.push((i, (i + 1) % 64, 1.0 + i as f32 * 0.1));
            t.push((i, (i * 7) % 64, 0.5));
            if i % 3 == 0 {
                t.push((i, i, 2.0));
            }
        }
        Coo::from_triplets(64, 64, &t).unwrap()
    }

    fn dense(k: usize) -> DenseMatrix {
        DenseMatrix::from_fn(64, k, |r, c| ((r * 13 + c * 7) % 32) as f32 * 0.125)
    }

    fn sys() -> SpadeSystem {
        SpadeSystem::new(SystemConfig::scaled(4))
    }

    #[test]
    fn spmm_matches_gold_kernel() {
        let a = small_matrix();
        let b = dense(32);
        let run = run_spmm_checked(&mut sys(), &a, &b, &ExecutionPlan::spmm_base(&a).unwrap());
        assert!(run.report.cycles > 0);
        assert_eq!(run.report.total_nnz, a.nnz() as u64);
        assert!(run.report.total_vops >= a.nnz() as u64 * 2); // K=32 -> 2 vOps/nnz
    }

    #[test]
    fn sddmm_matches_gold_kernel() {
        let a = small_matrix();
        let b = dense(32);
        let c_t = dense(32);
        let run = run_sddmm_checked(
            &mut sys(),
            &a,
            &b,
            &c_t,
            &ExecutionPlan::sddmm_base(&a).unwrap(),
        );
        assert!(run.report.cycles > 0);
        assert_eq!(run.output.nnz(), a.nnz());
    }

    #[test]
    fn spmm_with_tiling_and_barriers_matches_gold() {
        let a = small_matrix();
        let b = dense(32);
        let plan = ExecutionPlan {
            tiling: TilingConfig::new(8, 16).unwrap(),
            r_policy: RMatrixPolicy::Cache,
            c_policy: CMatrixPolicy::Cache,
            barriers: BarrierPolicy::per_column_panel(),
        };
        let run = run_spmm_checked(&mut sys(), &a, &b, &plan);
        assert!(run.report.num_barriers > 0);
    }

    #[test]
    fn spmm_with_all_bypass_policies_matches_gold() {
        let a = small_matrix();
        let b = dense(32);
        for r_policy in [
            RMatrixPolicy::Cache,
            RMatrixPolicy::Bypass,
            RMatrixPolicy::BypassVictim,
        ] {
            for c_policy in [CMatrixPolicy::Cache, CMatrixPolicy::Bypass] {
                let plan = ExecutionPlan {
                    tiling: TilingConfig::new(16, 64).unwrap(),
                    r_policy,
                    c_policy,
                    barriers: BarrierPolicy::None,
                };
                run_spmm_checked(&mut sys(), &a, &b, &plan);
            }
        }
    }

    #[test]
    fn k128_generates_eight_vops_per_nnz() {
        let a = small_matrix();
        let b = dense(128);
        let run = run_spmm_checked(&mut sys(), &a, &b, &ExecutionPlan::spmm_base(&a).unwrap());
        assert_eq!(run.report.total_vops, a.nnz() as u64 * 8);
    }

    #[test]
    fn unaligned_k_is_rejected() {
        let a = small_matrix();
        let b = DenseMatrix::zeros(64, 20);
        let err = sys()
            .run_spmm(&a, &b, &ExecutionPlan::spmm_base(&a).unwrap())
            .unwrap_err();
        assert!(matches!(err, SpadeError::UnalignedK { k: 20 }));
    }

    #[test]
    fn undersized_b_is_rejected() {
        let a = small_matrix();
        let b = DenseMatrix::zeros(32, 32);
        assert!(matches!(
            sys().run_spmm(&a, &b, &ExecutionPlan::spmm_base(&a).unwrap()),
            Err(SpadeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn single_pe_system_works() {
        let a = small_matrix();
        let b = dense(32);
        let mut sys = SpadeSystem::new(SystemConfig::scaled(4));
        // All tiles to one PE via a row panel covering the whole matrix.
        let plan = ExecutionPlan {
            tiling: TilingConfig::new(64, 64).unwrap(),
            r_policy: RMatrixPolicy::Cache,
            c_policy: CMatrixPolicy::Cache,
            barriers: BarrierPolicy::None,
        };
        run_spmm_checked(&mut sys, &a, &b, &plan);
    }

    #[test]
    fn empty_matrix_completes_immediately() {
        let a = Coo::from_triplets(64, 64, &[]).unwrap();
        let b = dense(32);
        let run = sys()
            .run_spmm(&a, &b, &ExecutionPlan::spmm_base(&a).unwrap())
            .unwrap();
        assert_eq!(run.report.total_vops, 0);
        assert!(run.report.cycles > 0); // instruction fetch + termination
    }

    #[test]
    fn warm_start_reduces_dram_traffic() {
        let a = small_matrix();
        let b = dense(32);
        let plan = ExecutionPlan::spmm_base(&a).unwrap();
        let mut sys = sys();
        sys.keep_warm(true);
        let cold = sys.run_spmm(&a, &b, &plan).unwrap();
        let warm = sys.run_spmm(&a, &b, &plan).unwrap();
        assert!(
            warm.report.dram_accesses < cold.report.dram_accesses,
            "warm {} vs cold {}",
            warm.report.dram_accesses,
            cold.report.dram_accesses
        );
        assert!(warm.report.cycles <= cold.report.cycles);
    }

    #[test]
    fn termination_overhead_is_small() {
        let a = small_matrix();
        let b = dense(32);
        let run = run_spmm_checked(&mut sys(), &a, &b, &ExecutionPlan::spmm_base(&a).unwrap());
        // §7.D reports ~0.2 % on large matrices; on a tiny one allow more,
        // but it must remain a modest fraction.
        assert!(run.report.termination_fraction() < 0.5);
    }

    #[test]
    fn spmv_matches_dense_reference() {
        let a = small_matrix();
        let x: Vec<f32> = (0..64).map(|i| (i % 7) as f32 * 0.5 - 1.0).collect();
        let run = sys()
            .run_spmv(&a, &x, &ExecutionPlan::spmm_base(&a).unwrap())
            .unwrap();
        // Reference: SpMM against the 1-column dense matrix.
        let b = DenseMatrix::from_fn(64, 1, |r, _| x[r]);
        let gold = reference::spmm(&a, &b);
        for r in 0..64 {
            assert!(
                (run.output[r] - gold.get(r, 0)).abs() < 1e-3,
                "row {r}: {} vs {}",
                run.output[r],
                gold.get(r, 0)
            );
        }
        // One vOp per non-zero: single-line rows.
        assert_eq!(run.report.total_vops, a.nnz() as u64);
    }

    #[test]
    fn sddvv_computes_scaled_outer_product_samples() {
        let a = small_matrix();
        let x: Vec<f32> = (0..64).map(|i| (i % 5) as f32 * 0.25).collect();
        let y: Vec<f32> = (0..64).map(|i| (i % 3) as f32 * 0.5).collect();
        let run = sys()
            .run_sddvv(&a, &x, &y, &ExecutionPlan::sddmm_base(&a).unwrap())
            .unwrap();
        for (r, c, v) in run.output.iter() {
            let orig = a
                .iter()
                .find(|&(rr, cc, _)| rr == r && cc == c)
                .expect("structure preserved")
                .2;
            let expect = orig * x[r as usize] * y[c as usize];
            assert!((v - expect).abs() < 1e-3, "({r},{c}): {v} vs {expect}");
        }
    }

    #[test]
    fn spmv_rejects_short_vector() {
        let a = small_matrix();
        let err = sys()
            .run_spmv(&a, &[1.0; 10], &ExecutionPlan::spmm_base(&a).unwrap())
            .unwrap_err();
        assert!(matches!(err, SpadeError::ShapeMismatch { .. }));
    }

    #[test]
    fn requests_per_cycle_is_positive() {
        let a = small_matrix();
        let b = dense(32);
        let run = run_spmm_checked(&mut sys(), &a, &b, &ExecutionPlan::spmm_base(&a).unwrap());
        assert!(run.report.requests_per_cycle > 0.0);
        assert!(run.report.achieved_gbps > 0.0);
    }

    #[test]
    fn observability_is_pure_observation() {
        let a = small_matrix();
        let b = dense(32);
        let plan = ExecutionPlan::spmm_base(&a).unwrap();
        let plain = sys().run_spmm(&a, &b, &plan).unwrap();

        let mut observed = sys();
        observed.set_telemetry(Some(64)).set_trace(true);
        let run = observed.run_spmm(&a, &b, &plan).unwrap();
        // Enabling telemetry + tracing must not change anything simulated.
        assert_eq!(run.report, plain.report);
        assert_eq!(run.output, plain.output);

        let series = observed.take_telemetry().expect("telemetry recorded");
        assert_eq!(series.window, 64);
        // The windows tile the whole run: total covered length is
        // cycles + 1 (cycle 0 through `cycles` inclusive).
        let covered: Cycle = series.samples.iter().map(|s| s.len).sum();
        assert_eq!(covered, run.report.cycles + 1);
        let requests: u64 = series.samples.iter().map(|s| s.requests).sum();
        assert_eq!(requests, run.report.mem.requests_issued);
        let vops: u64 = series.samples.iter().map(|s| s.vops).sum();
        assert_eq!(vops, run.report.total_vops);

        let trace = observed.take_trace().expect("trace recorded");
        assert!(!trace.is_empty());
        // One lane per PE plus the scheduler lane.
        assert_eq!(trace.lanes().len(), observed.config().num_pes + 1);
        assert!(trace.events.iter().any(|e| e.cat == "tile"));
        assert!(trace.events.iter().any(|e| e.cat == "flush"));
        assert_eq!(spade_sim::json::validate(&trace.to_chrome_json()), Ok(()));
    }

    #[test]
    fn artifacts_survive_a_watchdog_trip() {
        let a = small_matrix();
        let b = dense(32);
        let mut sys = sys();
        sys.set_watchdog(WatchdogConfig {
            idle_budget: 1_000_000,
            max_cycles: Some(50),
        });
        sys.set_telemetry(Some(16)).set_trace(true);
        let err = sys
            .run_spmm(&a, &b, &ExecutionPlan::spmm_base(&a).unwrap())
            .unwrap_err();
        assert!(matches!(err, SpadeError::Deadlock { .. }));
        // Both artifacts cover the truncated run, and the trace ends with
        // the watchdog's own report.
        assert!(sys.take_telemetry().is_some());
        let trace = sys.take_trace().expect("trace recorded");
        assert!(trace.events.iter().any(|e| e.cat == "watchdog"));
    }

    #[test]
    fn zero_telemetry_window_is_rejected() {
        let a = small_matrix();
        let b = dense(32);
        let mut sys = sys();
        sys.set_telemetry(Some(0));
        let err = sys
            .run_spmm(&a, &b, &ExecutionPlan::spmm_base(&a).unwrap())
            .unwrap_err();
        assert!(matches!(err, SpadeError::InvalidConfig { .. }));
    }
}
