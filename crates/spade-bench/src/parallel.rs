//! The parallel experiment engine: fan independent cycle-level simulations
//! out across host cores.
//!
//! Every paper result is a sweep of independent simulations — the Opt
//! search walks ~a dozen plans per graph, and each figure walks 10 graphs
//! × {SpMM, SDDMM} × K ∈ {32, 128}. Simulations share no mutable state, so
//! the sweep is embarrassingly parallel; the [`ParallelRunner`] executes a
//! job list across a bounded worker pool and returns reports **in job
//! order**, bit-identical to a serial walk of the same list.
//!
//! # Determinism
//!
//! Each simulation is single-threaded and deterministic, workers never
//! share simulator state, and results are stored by job index — so the
//! returned `Vec<RunReport>` does not depend on thread count or scheduling
//! order. `ParallelRunner::new(1)` is the reference serial path; the
//! `parallel_determinism` test pins the equivalence.
//!
//! # De-duplication
//!
//! Sweeps repeat work: the Opt search re-runs the Base plan that `run_base`
//! already measured, and clamped search spaces can collapse distinct knob
//! settings into the same effective plan. Jobs that are exactly equal —
//! same workload (by `Arc` identity), same config (by `Arc` identity), same
//! plan and primitive — are simulated once and the report is fanned out to
//! every duplicate slot.
//!
//! # Thread count
//!
//! `SPADE_THREADS` overrides the worker count; the default is the host's
//! available parallelism. `SPADE_THREADS=1` forces the serial path.

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Once, PoisonError};
use std::time::Instant;

use spade_core::{Primitive, RunReport, SpadeSystem, SystemConfig};
use spade_matrix::{reference, Coo};
use spade_sim::{Cycle, TelemetrySeries, TraceLog};

use crate::cache::KeyHasher;
use crate::suite::Workload;

/// Why one job of a sweep failed. Failures are per-job: the rest of the
/// sweep still completes and returns its reports (see
/// [`ParallelRunner::run_results`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobError {
    /// The workload the failing job was running.
    pub workload: String,
    /// The primitive the failing job was running.
    pub primitive: Primitive,
    /// The simulation error, gold-divergence report, or panic message.
    pub message: String,
    /// How many times the job was attempted (2 means one panic retry).
    pub attempts: u32,
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "job {}/{:?} failed after {} attempt(s): {}",
            self.workload, self.primitive, self.attempts, self.message
        )
    }
}

impl std::error::Error for JobError {}

/// Why one task of a [`ParallelRunner::run_tasks`] batch failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskError {
    /// The task's own error message, or the panic payload.
    pub message: String,
    /// How many times the task was attempted (2 means one panic retry).
    pub attempts: u32,
    /// Whether the final failure was a panic (caught and contained) rather
    /// than a returned error.
    pub panicked: bool,
}

/// Worst-case attempts per task: the first run plus one retry, granted
/// only after a panic. A task that returns `Err` fails immediately — a
/// deterministic error would just fail again.
const MAX_ATTEMPTS: u32 = 2;

thread_local! {
    /// Set while this thread runs a task under `catch_retry`: the process
    /// panic hook stays quiet, because the panic is caught and surfaced as
    /// a `TaskError` instead of an aborting stack trace.
    static PANIC_QUIET: Cell<bool> = const { Cell::new(false) };
}

static PANIC_HOOK: Once = Once::new();

/// Runs `f`, catching panics and granting one retry after a panic. The
/// process panic hook is silenced for this thread while `f` runs (the
/// panic is reported through the returned [`TaskError`] instead).
fn catch_retry<T>(f: impl Fn() -> Result<T, String>) -> Result<T, TaskError> {
    PANIC_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !PANIC_QUIET.with(Cell::get) {
                prev(info);
            }
        }));
    });
    PANIC_QUIET.with(|q| q.set(true));
    let mut outcome = None;
    for attempt in 1..=MAX_ATTEMPTS {
        match panic::catch_unwind(AssertUnwindSafe(&f)) {
            Ok(Ok(v)) => {
                outcome = Some(Ok(v));
                break;
            }
            Ok(Err(message)) => {
                outcome = Some(Err(TaskError {
                    message,
                    attempts: attempt,
                    panicked: false,
                }));
                break;
            }
            Err(payload) => {
                let failure = Err(TaskError {
                    message: panic_message(payload.as_ref()),
                    attempts: attempt,
                    panicked: true,
                });
                outcome = Some(failure);
                // Panics get one retry; a second one is final.
            }
        }
    }
    PANIC_QUIET.with(|q| q.set(false));
    outcome.expect("at least one attempt ran")
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked with a non-string payload".to_string()
    }
}

fn lock_results<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A worker can no longer panic while holding the lock (assignment only),
    // but stay robust to poisoning: the stored data is index-assigned and
    // valid regardless.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One independent simulation: a (workload, config, plan, primitive)
/// tuple. Construction is cheap — workload and config are shared.
#[derive(Debug, Clone)]
pub struct Job {
    /// The prepared workload (shared, with memoized gold outputs).
    pub workload: Arc<Workload>,
    /// The machine to simulate on (shared across jobs).
    pub config: Arc<SystemConfig>,
    /// Which kernel to run.
    pub primitive: Primitive,
    /// The execution plan under test.
    pub plan: spade_core::ExecutionPlan,
    /// Telemetry window in cycles; `None` (the default) disables sampling.
    pub telemetry_window: Option<Cycle>,
    /// Whether to record an event trace (off by default).
    pub trace: bool,
    /// Drive the simulation with the naive cycle-by-cycle loop instead of
    /// the event-driven scheduler (off by default). Both produce
    /// bit-identical results; the naive loop exists as the oracle for the
    /// scheduler-equivalence tests and the `bench-perf` comparison. No CLI
    /// flag, wire field or environment variable sets it.
    pub naive_loop: bool,
    /// Hard ceiling on simulated cycles, riding the watchdog's
    /// [`spade_core::WatchdogConfig::max_cycles`]: a job that exceeds it
    /// fails with a structured deadlock/deadline error instead of running
    /// forever. `None` (the default) leaves the run unbounded. This is the
    /// per-request deadline story for both the CLI (`--deadline-cycles`)
    /// and the experiment daemon.
    pub deadline_cycles: Option<Cycle>,
}

/// Everything one job produced: the report plus whatever observability
/// artifacts the job requested. Per-job simulations are single-threaded,
/// so the artifacts are deterministic and independent of the runner's
/// worker count, exactly like the report.
#[derive(Debug, Clone, PartialEq)]
pub struct JobOutput {
    /// Timing and traffic metrics.
    pub report: RunReport,
    /// Telemetry series, when the job set [`Job::telemetry_window`].
    pub telemetry: Option<TelemetrySeries>,
    /// Event trace, when the job set [`Job::trace`].
    pub trace: Option<TraceLog>,
}

impl Job {
    /// Creates a job.
    pub fn new(
        workload: &Arc<Workload>,
        config: &Arc<SystemConfig>,
        primitive: Primitive,
        plan: spade_core::ExecutionPlan,
    ) -> Self {
        Job {
            workload: Arc::clone(workload),
            config: Arc::clone(config),
            primitive,
            plan,
            telemetry_window: None,
            trace: false,
            naive_loop: false,
            deadline_cycles: None,
        }
    }

    /// Enables windowed telemetry for this job (builder style).
    pub fn with_telemetry(mut self, window: Option<Cycle>) -> Self {
        self.telemetry_window = window;
        self
    }

    /// Enables event tracing for this job (builder style).
    pub fn with_trace(mut self, trace: bool) -> Self {
        self.trace = trace;
        self
    }

    /// Selects the naive cycle-by-cycle loop for this job (builder style):
    /// the one switch for the oracle driver, see [`Job::naive_loop`].
    pub fn with_naive_loop(mut self, naive: bool) -> Self {
        self.naive_loop = naive;
        self
    }

    /// Bounds this job to `cycles` simulated cycles (builder style): the
    /// watchdog cycle ceiling fires a structured error past the deadline.
    pub fn with_deadline_cycles(mut self, cycles: Option<Cycle>) -> Self {
        self.deadline_cycles = cycles;
        self
    }

    /// Identity key for de-duplication: workload and config by pointer
    /// (prepared objects are shared, so pointer identity is object
    /// identity), plan, primitive, and observability options by value —
    /// a traced job never shares an execution with an untraced one, so
    /// each gets the artifacts it asked for.
    #[allow(clippy::type_complexity)]
    fn dedup_key(
        &self,
    ) -> (
        usize,
        usize,
        Primitive,
        spade_core::ExecutionPlan,
        Option<Cycle>,
        bool,
        bool,
        Option<Cycle>,
    ) {
        (
            Arc::as_ptr(&self.workload) as usize,
            Arc::as_ptr(&self.config) as usize,
            self.primitive,
            self.plan,
            self.telemetry_window,
            self.trace,
            self.naive_loop,
            self.deadline_cycles,
        )
    }

    /// Content-addressed identity of this job, usable as a persistent
    /// cache key: a 32-hex-digit digest over the workload *contents*
    /// (matrix shape and triplets, dense row size), the machine
    /// configuration, the plan, the primitive, the deadline, and a key
    /// schema version. Where `Job::dedup_key` compares `Arc` pointers —
    /// identity within one process — this hashes what the pointers point
    /// at, so the same simulation maps to the same key across processes,
    /// restarts and hosts.
    ///
    /// Observability options (telemetry, trace) and the naive-loop oracle
    /// switch are deliberately excluded: neither changes a report's
    /// simulated bytes (pinned by the scheduler equivalence suite), and
    /// the cache stores reports only.
    pub fn cache_key(&self) -> String {
        MatrixDigest::of(&self.workload.a).run_key(
            self.workload.k,
            &self.config,
            self.primitive,
            &self.plan,
            self.deadline_cycles,
        )
    }

    /// Content-addressed identity of this job *as a traced run*: the
    /// plain [`Job::cache_key`] plus the telemetry window, prefixed `t`
    /// so trace entries live in their own key space (run keys are pure
    /// hex, so the prefix is unambiguous). Unlike run keys, a trace key
    /// must absorb the telemetry window — the telemetry lane is part of
    /// the served trace bytes.
    pub fn trace_cache_key(&self) -> String {
        trace_key(&self.cache_key(), self.telemetry_window)
    }

    /// Runs this job on the calling thread, validating the simulated
    /// output against the workload's memoized gold result. Simulation
    /// errors and gold divergence come back as a typed [`JobError`]; this
    /// method does not panic on them.
    ///
    /// # Errors
    ///
    /// Returns a [`JobError`] when the simulation fails (invalid config,
    /// deadlock, invariant violation) or the simulated output diverges
    /// from the gold kernel.
    pub fn try_execute(&self) -> Result<RunReport, JobError> {
        self.try_execute_full().map(|o| o.report)
    }

    /// Runs this job on the calling thread and returns the report *and*
    /// the requested observability artifacts (see [`Job::try_execute`]
    /// for the validation and error contract).
    ///
    /// # Errors
    ///
    /// Returns a [`JobError`] when the simulation fails or the simulated
    /// output diverges from the gold kernel.
    pub fn try_execute_full(&self) -> Result<JobOutput, JobError> {
        let w = &self.workload;
        let mut sys = SpadeSystem::new((*self.config).clone());
        sys.set_telemetry(self.telemetry_window)
            .set_trace(self.trace)
            .set_fast_forward(!self.naive_loop);
        if let Some(deadline) = self.deadline_cycles {
            sys.set_watchdog(spade_core::WatchdogConfig {
                max_cycles: Some(deadline),
                ..sys.watchdog()
            });
        }
        let report = match self.primitive {
            Primitive::Spmm => {
                let run = sys
                    .run_spmm(&w.a, w.b_for_spmm(), &self.plan)
                    .map_err(|e| self.error(format!("SpMM run failed: {e}")))?;
                if !reference::dense_close(&run.output, w.gold_spmm(), 1e-3) {
                    return Err(self.error("simulated SpMM diverged from the gold kernel".into()));
                }
                run.report
            }
            Primitive::Sddmm => {
                let run = sys
                    .run_sddmm(&w.a, &w.b, &w.c_t, &self.plan)
                    .map_err(|e| self.error(format!("SDDMM run failed: {e}")))?;
                if reference::first_mismatch(run.output.vals(), w.gold_sddmm(), 1e-3).is_some() {
                    return Err(self.error("simulated SDDMM diverged from the gold kernel".into()));
                }
                run.report
            }
        };
        Ok(JobOutput {
            report,
            telemetry: sys.take_telemetry(),
            trace: sys.take_trace(),
        })
    }

    /// Runs this job on the calling thread (see [`Job::try_execute`]).
    ///
    /// # Panics
    ///
    /// Panics if the simulation fails or its output diverges from the gold
    /// kernel — the same contract as `run_spmm_checked`, but against the
    /// shared cached gold instead of a fresh recomputation per run.
    pub fn execute(&self) -> RunReport {
        self.try_execute().unwrap_or_else(|e| panic!("{e}"))
    }

    fn error(&self, message: String) -> JobError {
        JobError {
            workload: self.workload.name.clone(),
            primitive: self.primitive,
            message,
            attempts: 1,
        }
    }
}

/// Bump when the key composition itself changes, so a new daemon never
/// collides with entries keyed by an older scheme.
const KEY_SCHEMA: u32 = 1;

/// The per-matrix half of a [`Job::cache_key`]: the key hash after the
/// schema version, the matrix shape and every triplet, plus the column
/// count the default plans are built from. Hashing the triplets is the
/// costly part of a key; [`MatrixDigest::run_key`] adds the per-job tail
/// from a copy of this state, so one digest serves every job on the
/// matrix without the matrix itself.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatrixDigest {
    hash: KeyHasher,
    num_cols: usize,
}

impl MatrixDigest {
    pub(crate) fn of(a: &Coo) -> Self {
        let mut hash = KeyHasher::new();
        hash.write_u32(KEY_SCHEMA);
        hash.write_u64(a.num_rows() as u64);
        hash.write_u64(a.num_cols() as u64);
        hash.write_u64(a.nnz() as u64);
        for (r, c, v) in a.iter() {
            hash.write_u32(r);
            hash.write_u32(c);
            hash.write_u32(v.to_bits());
        }
        MatrixDigest {
            hash,
            num_cols: a.num_cols(),
        }
    }

    /// The digested matrix's column count.
    pub(crate) fn num_cols(&self) -> usize {
        self.num_cols
    }

    /// The cache key of one job on the digested matrix (see
    /// [`Job::cache_key`]).
    pub(crate) fn run_key(
        &self,
        k: usize,
        config: &SystemConfig,
        primitive: Primitive,
        plan: &spade_core::ExecutionPlan,
        deadline_cycles: Option<Cycle>,
    ) -> String {
        let mut hash = self.hash;
        hash.write_u64(k as u64);
        // SystemConfig and ExecutionPlan are plain-data structs; their
        // Debug form is a complete, deterministic rendering of every
        // field. The KEY_SCHEMA bump covers any future layout change.
        hash.write(format!("{config:?}").as_bytes());
        hash.write(format!("{primitive:?}|{plan:?}").as_bytes());
        match deadline_cycles {
            // A deadline changes the *outcome space* (a run may fail at
            // the ceiling), so bounded and unbounded runs get distinct
            // keys.
            Some(d) => hash.write_u64(d),
            None => hash.write(b"-"),
        }
        hash.key("")
    }

    /// The cache key of a plan search over `plans` (SpMM) on the digested
    /// matrix. A search result is a pure function of its candidate set,
    /// so the key hashes every candidate's run key (prefixed `s` to keep
    /// run and search entries in distinct key spaces).
    pub(crate) fn search_key(
        &self,
        k: usize,
        config: &SystemConfig,
        plans: &[spade_core::ExecutionPlan],
        deadline_cycles: Option<Cycle>,
    ) -> String {
        let mut hash = KeyHasher::new();
        hash.write(b"search:v1");
        for plan in plans {
            let key = self.run_key(k, config, Primitive::Spmm, plan, deadline_cycles);
            hash.write(key.as_bytes());
        }
        hash.key("s")
    }
}

/// The trace key of the job whose run key is `run_key`, traced with
/// `telemetry_window` (see [`Job::trace_cache_key`]).
pub(crate) fn trace_key(run_key: &str, telemetry_window: Option<Cycle>) -> String {
    // Bump when the trace payload composition changes, so a new daemon
    // never serves a stale trace layout.
    const TRACE_KEY_SCHEMA: u32 = 1;
    let mut hash = KeyHasher::new();
    hash.write_u32(TRACE_KEY_SCHEMA);
    hash.write(run_key.as_bytes());
    match telemetry_window {
        Some(w) => hash.write_u64(w),
        None => hash.write(b"-"),
    }
    hash.key("t")
}

/// Executes job lists across a bounded worker pool.
#[derive(Debug, Clone, Copy)]
pub struct ParallelRunner {
    threads: usize,
}

impl ParallelRunner {
    /// A runner with an explicit worker count (`threads >= 1`).
    pub fn new(threads: usize) -> Self {
        ParallelRunner {
            threads: threads.max(1),
        }
    }

    /// The default runner: `SPADE_THREADS` if set and parseable, otherwise
    /// the host's available parallelism.
    pub fn from_env() -> Self {
        Self::new(num_threads())
    }

    /// The worker count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job and returns the reports in job order.
    ///
    /// Duplicate jobs (see module docs) are simulated once. With one
    /// worker this is exactly the serial loop; with more, workers pull
    /// unique jobs from a shared queue but the output order — and every
    /// simulated metric — is independent of the interleaving.
    ///
    /// # Panics
    ///
    /// Panics on the first failing job. Sweeps that should survive
    /// individual failures use [`ParallelRunner::run_results`].
    pub fn run(&self, jobs: &[Job]) -> Vec<RunReport> {
        self.run_results(jobs)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
            .collect()
    }

    /// Runs every job and returns a per-job `Result` in job order: one
    /// failing job — a typed simulation error, a gold divergence, or even
    /// a panic inside the simulator — costs only its own slot, never the
    /// sweep. A panicking job is retried once (a crashed worker thread
    /// would otherwise lose its queue slot); deterministic errors are not
    /// retried. Duplicate jobs share one execution, including its error.
    ///
    /// Results are stored by job index, so the outcome is independent of
    /// the worker count and scheduling order.
    pub fn run_results(&self, jobs: &[Job]) -> Vec<Result<RunReport, JobError>> {
        self.run_outputs(jobs)
            .into_iter()
            .map(|r| r.map(|o| o.report))
            .collect()
    }

    /// Like [`ParallelRunner::run_results`], but returns each job's full
    /// [`JobOutput`] — report plus any telemetry series / event trace the
    /// job requested. Artifacts come from the per-job single-threaded
    /// simulation, so they are bit-identical for every worker count.
    pub fn run_outputs(&self, jobs: &[Job]) -> Vec<Result<JobOutput, JobError>> {
        // Map every job slot to a unique-work index.
        let mut unique: Vec<&Job> = Vec::new();
        let mut keys = Vec::new();
        let mut slot_to_unique = Vec::with_capacity(jobs.len());
        for job in jobs {
            let key = job.dedup_key();
            match keys.iter().position(|k| *k == key) {
                Some(i) => slot_to_unique.push(i),
                None => {
                    keys.push(key);
                    unique.push(job);
                    slot_to_unique.push(unique.len() - 1);
                }
            }
        }

        let results = self.run_tasks(unique.len(), |i| {
            unique[i].try_execute_full().map_err(|e| e.message)
        });
        let results: Vec<Result<JobOutput, JobError>> = results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.map_err(|te| JobError {
                    workload: unique[i].workload.name.clone(),
                    primitive: unique[i].primitive,
                    message: te.message,
                    attempts: te.attempts,
                })
            })
            .collect();

        slot_to_unique
            .into_iter()
            .map(|i| results[i].clone())
            .collect()
    }

    /// Runs `count` independent tasks across the worker pool and returns
    /// their results by task index. This is the engine under
    /// [`ParallelRunner::run_results`], exposed for any embarrassingly
    /// parallel batch: each task is wrapped in a panic guard with one
    /// bounded retry (panics only), so a crashing task costs its own slot
    /// and nothing else.
    ///
    /// `f` must be deterministic per index for the batch result to be
    /// independent of the worker count; the runner guarantees the rest
    /// (index-ordered results, no shared mutable state between tasks).
    pub fn run_tasks<T, F>(&self, count: usize, f: F) -> Vec<Result<T, TaskError>>
    where
        T: Send,
        F: Fn(usize) -> Result<T, String> + Sync,
    {
        if self.threads == 1 || count <= 1 {
            return (0..count).map(|i| catch_retry(|| f(i))).collect();
        }
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<Result<T, TaskError>>>> =
            Mutex::new((0..count).map(|_| None).collect());
        let workers = self.threads.min(count);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= count {
                        break;
                    }
                    let res = catch_retry(|| f(i));
                    lock_results(&results)[i] = Some(res);
                });
            }
        });
        results
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .map(|r| r.expect("every task ran"))
            .collect()
    }
}

impl Default for ParallelRunner {
    fn default() -> Self {
        Self::from_env()
    }
}

/// The worker count: `SPADE_THREADS` if set and parseable to a positive
/// number, otherwise the host's available parallelism. A set-but-invalid
/// value (a typo like `SPADE_THREADS=fou` or `=0`) is *not* silently
/// swallowed: it warns to stderr once per process and falls back to the
/// default, so a mistyped override never silently serializes a sweep.
pub fn num_threads() -> usize {
    static WARN_ONCE: Once = Once::new();
    if let Ok(v) = std::env::var("SPADE_THREADS") {
        match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => return n,
            _ => WARN_ONCE.call_once(|| {
                eprintln!(
                    "warning: SPADE_THREADS={v:?} is not a positive thread \
                     count; using the default (host parallelism)"
                );
            }),
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One-line throughput summary for bench output: how much simulated time
/// the sweep covered and how fast the host produced it.
pub fn throughput_summary(reports: &[RunReport], host_wall: std::time::Duration) -> String {
    let total_cycles: u64 = reports.iter().map(|r| r.cycles).sum();
    let secs = host_wall.as_secs_f64();
    let rate = if secs > 0.0 {
        total_cycles as f64 / secs / 1e6
    } else {
        0.0
    };
    format!(
        "[{} sims | {} threads] {total_cycles} simulated cycles in {secs:.2} s host time ({rate:.1} Mcycle/s)",
        reports.len(),
        num_threads(),
    )
}

/// Runs `jobs` with the environment-default runner and prints the
/// throughput summary line — the standard entry point for the bench
/// binaries.
pub fn run_and_summarize(jobs: &[Job]) -> Vec<RunReport> {
    let start = Instant::now();
    let reports = ParallelRunner::from_env().run(jobs);
    println!("{}", throughput_summary(&reports, start.elapsed()));
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines;
    use spade_matrix::generators::{Benchmark, Scale};

    fn setup() -> (Arc<Workload>, Arc<SystemConfig>) {
        (
            Arc::new(Workload::prepare(Benchmark::Myc, Scale::Tiny, 32)),
            Arc::new(machines::spade_system(4)),
        )
    }

    #[test]
    fn reports_come_back_in_job_order() {
        let (w, cfg) = setup();
        let plans = machines::quick_search_space(32).enumerate(&w.a);
        let jobs: Vec<Job> = plans
            .iter()
            .map(|&p| Job::new(&w, &cfg, Primitive::Spmm, p))
            .collect();
        let parallel = ParallelRunner::new(4).run(&jobs);
        let serial: Vec<RunReport> = jobs.iter().map(|j| j.execute()).collect();
        assert_eq!(parallel, serial);
    }

    #[test]
    fn duplicate_jobs_get_identical_reports() {
        let (w, cfg) = setup();
        let plan = machines::base_plan(&w.a);
        let job = Job::new(&w, &cfg, Primitive::Spmm, plan);
        let reports = ParallelRunner::new(2).run(&[job.clone(), job]);
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn empty_job_list_is_fine() {
        assert!(ParallelRunner::new(4).run(&[]).is_empty());
    }

    #[test]
    fn spade_threads_env_is_just_a_count() {
        // Can't set the env var here (tests run threaded); exercise the
        // constructor clamp instead.
        assert_eq!(ParallelRunner::new(0).threads(), 1);
        assert_eq!(ParallelRunner::new(7).threads(), 7);
    }

    #[test]
    fn a_panicking_task_loses_only_its_own_slot() {
        let run = |threads| {
            ParallelRunner::new(threads).run_tasks(6, |i| {
                if i == 2 {
                    panic!("task {i} exploded");
                }
                Ok(i * 10)
            })
        };
        let serial = run(1);
        for (i, r) in serial.iter().enumerate() {
            if i == 2 {
                let e = r.as_ref().unwrap_err();
                assert!(e.panicked);
                assert_eq!(e.attempts, MAX_ATTEMPTS, "panics get one retry");
                assert!(e.message.contains("task 2 exploded"));
            } else {
                assert_eq!(*r, Ok(i * 10));
            }
        }
        // The outcome is independent of the worker count.
        assert_eq!(run(4), serial);
    }

    #[test]
    fn deterministic_task_errors_are_not_retried() {
        let results = ParallelRunner::new(2).run_tasks(3, |i| {
            if i == 1 {
                Err("bad input".to_string())
            } else {
                Ok(i)
            }
        });
        let e = results[1].as_ref().unwrap_err();
        assert!(!e.panicked);
        assert_eq!(e.attempts, 1);
        assert_eq!(e.message, "bad input");
    }

    #[test]
    fn a_failing_job_errors_without_sinking_the_sweep() {
        let (w, cfg) = setup();
        let plan = machines::base_plan(&w.a);
        // dense_lq_entries = 1 fails PipelineConfig::validate, so this
        // job's simulation returns InvalidConfig.
        let mut broken = (*cfg).clone();
        broken.pipeline.dense_lq_entries = 1;
        let broken = Arc::new(broken);
        let jobs = [
            Job::new(&w, &cfg, Primitive::Spmm, plan),
            Job::new(&w, &broken, Primitive::Spmm, plan),
            Job::new(&w, &cfg, Primitive::Sddmm, plan),
        ];
        let results = ParallelRunner::new(2).run_results(&jobs);
        assert!(results[0].is_ok());
        assert!(results[2].is_ok());
        let e = results[1].as_ref().unwrap_err();
        assert_eq!(e.attempts, 1, "config errors are deterministic: no retry");
        assert!(e.message.contains("invalid configuration"), "{e}");
        // The healthy jobs' reports match a clean sweep of just them.
        let clean = ParallelRunner::new(1).run(&[jobs[0].clone(), jobs[2].clone()]);
        assert_eq!(results[0].as_ref().unwrap(), &clean[0]);
        assert_eq!(results[2].as_ref().unwrap(), &clean[1]);
    }

    #[test]
    fn job_errors_render_their_context() {
        let e = JobError {
            workload: "myc-tiny".into(),
            primitive: Primitive::Spmm,
            message: "boom".into(),
            attempts: 2,
        };
        let s = e.to_string();
        assert!(s.contains("myc-tiny") && s.contains("Spmm") && s.contains("boom"));
        assert!(s.contains("2 attempt"));
    }
}
