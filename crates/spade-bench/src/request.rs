//! The request core: one parser, executor and set of result renderers
//! for the `run`, `search`, `trace` and `advise` requests, shared by the
//! experiment daemon and the one-shot CLI.
//!
//! A request is the JSON document `spade-cli client` sends. [`parse`]
//! validates it before any work starts, each field in exactly one
//! function of this module. [`Request::prepare`] builds the workload and
//! jobs, [`Prepared::execute`] runs them on a caller-given
//! [`ParallelRunner`], and one renderer per request kind turns the
//! outputs into the canonical result document ([`Executed::render`]).
//! `spade-cli serve` sends and caches those bytes; `spade-cli run`,
//! `search`, `trace` and `advise` parse and execute the same document
//! in-process and print the same bytes with `--format json`. Local and
//! wire results agree because both are made by this code.
//!
//! What stays with the daemon ([`crate::service`]): framing, admission,
//! the per-graph key digests that let a cache hit skip preparation, the
//! dataset catalog and metrics. What stays with the CLI: flags, text
//! rendering, and the observations no wire request reads (a run's
//! telemetry series, host wall-clock time, `advise --exact`).

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use spade_core::advisor::{advise_tiered, PlanRanker};
use spade_core::{
    BarrierPolicy, ExecutionPlan, PlanSearchSpace, Primitive, RMatrixPolicy, RunReport,
    SystemConfig,
};
use spade_matrix::analysis::MatrixFeatures;
use spade_matrix::generators::{Benchmark, Scale};
use spade_matrix::TilingConfig;
use spade_sim::{Cycle, JsonValue};

use crate::parallel::{trace_key, Job, JobOutput, MatrixDigest, ParallelRunner};
use crate::suite::Workload;

/// Upper bound on `pes`: the config allocates per-PE state before the
/// simulation starts, and wire requests are untrusted.
const MAX_REQUEST_PES: usize = 1024;

/// Upper bound on `k` (dense operand columns).
const MAX_REQUEST_K: usize = 4096;

/// The telemetry window of a `trace` without a `window` field.
const DEFAULT_TRACE_WINDOW: u64 = 256;

// ---------------------------------------------------------------------------
// Field validators
// ---------------------------------------------------------------------------

pub(crate) fn field_str<'a>(
    doc: &'a JsonValue,
    key: &str,
    default: &'a str,
) -> Result<&'a str, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v.as_str().ok_or(format!("\"{key}\" must be a string")),
    }
}

pub(crate) fn field_u64(doc: &JsonValue, key: &str) -> Result<Option<u64>, String> {
    match doc.get(key) {
        None => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or(format!("\"{key}\" must be a non-negative integer")),
    }
}

pub(crate) fn field_bool(doc: &JsonValue, key: &str, default: bool) -> Result<bool, String> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v.as_bool().ok_or(format!("\"{key}\" must be a boolean")),
    }
}

/// `benchmark`: a Table 2 short name, any case (required).
///
/// # Errors
///
/// Fails when the field is missing or names no benchmark.
pub fn parse_benchmark(doc: &JsonValue) -> Result<Benchmark, String> {
    let name = doc
        .get("benchmark")
        .and_then(JsonValue::as_str)
        .ok_or("\"benchmark\" is required")?;
    Benchmark::ALL
        .into_iter()
        .find(|b| b.short_name().eq_ignore_ascii_case(name))
        .ok_or(format!("unknown benchmark {name:?}"))
}

/// `scale`: `tiny` (the default), `small`, `default` or `large`.
///
/// # Errors
///
/// Fails on any other value.
pub fn parse_scale(doc: &JsonValue) -> Result<Scale, String> {
    match field_str(doc, "scale", "tiny")? {
        "tiny" => Ok(Scale::Tiny),
        "small" => Ok(Scale::Small),
        "default" => Ok(Scale::Default),
        "large" => Ok(Scale::Large),
        other => Err(format!("unknown scale {other:?}")),
    }
}

/// `kernel`: `spmm` (the default) or `sddmm`.
///
/// # Errors
///
/// Fails on any other value.
pub fn parse_kernel(doc: &JsonValue) -> Result<Primitive, String> {
    match field_str(doc, "kernel", "spmm")? {
        "spmm" => Ok(Primitive::Spmm),
        "sddmm" => Ok(Primitive::Sddmm),
        other => Err(format!("unknown kernel {other:?}")),
    }
}

/// `k`: the dense row size (default 32), a positive multiple of the
/// cache line of at most 4096 floats.
///
/// # Errors
///
/// Fails on a value the simulator cannot run or the limit refuses.
pub fn parse_k(doc: &JsonValue) -> Result<usize, String> {
    let k = field_u64(doc, "k")?.unwrap_or(32) as usize;
    let line = spade_matrix::FLOATS_PER_LINE;
    if k == 0 || !k.is_multiple_of(line) {
        return Err(format!(
            "\"k\": {k} is not a multiple of the cache line ({line} floats)"
        ));
    }
    if k > MAX_REQUEST_K {
        return Err(format!(
            "\"k\": {k} exceeds the service limit {MAX_REQUEST_K}"
        ));
    }
    Ok(k)
}

/// `pes`: the PE count (default 56), a positive multiple of 4 of at most
/// 1024.
///
/// # Errors
///
/// Fails on a value the machine model cannot build or the limit refuses.
pub fn parse_pes(doc: &JsonValue) -> Result<usize, String> {
    let pes = field_u64(doc, "pes")?.unwrap_or(56) as usize;
    if pes == 0 || !pes.is_multiple_of(4) {
        return Err("\"pes\" must be a positive multiple of 4".into());
    }
    if pes > MAX_REQUEST_PES {
        return Err(format!(
            "\"pes\": {pes} exceeds the service limit {MAX_REQUEST_PES}"
        ));
    }
    Ok(pes)
}

/// `deadline_cycles`: a ceiling on simulated cycles, riding the
/// watchdog. Without the field the caller's `default` applies; an
/// explicit `0` means no ceiling.
///
/// # Errors
///
/// Fails when the field is not a non-negative integer.
pub fn parse_deadline(doc: &JsonValue, default: Option<Cycle>) -> Result<Option<Cycle>, String> {
    match field_u64(doc, "deadline_cycles")? {
        Some(0) => Ok(None),
        Some(d) => Ok(Some(d)),
        None => Ok(default),
    }
}

/// A request's plan knobs — `rp`, `cp` (a width or `"all"`), `rmatrix`
/// (`cache`, `bypass` or `victim`) and `barriers` — over the Base plan.
/// The plan itself depends on the graph's width, so
/// [`PlanKnobs::plan`] builds it once that is known.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PlanKnobs {
    rp: usize,
    /// `None`: the full width (the default, or `"all"`).
    cp: Option<usize>,
    r_policy: RMatrixPolicy,
    barriers: bool,
}

impl PlanKnobs {
    pub(crate) fn parse(doc: &JsonValue) -> Result<Self, String> {
        let rp = field_u64(doc, "rp")?
            .map_or(ExecutionPlan::base_for_cols(1).tiling.row_panel_size, |v| {
                v as usize
            });
        let cp = match doc.get("cp") {
            None => None,
            Some(v) if v.as_str() == Some("all") => None,
            Some(v) => Some(v.as_u64().ok_or("\"cp\" must be an integer or \"all\"")? as usize),
        };
        // A zero panel is a bad request here, not a failure inside the
        // simulator.
        TilingConfig::new(rp, cp.unwrap_or(1)).map_err(|e| e.to_string())?;
        let r_policy = match field_str(doc, "rmatrix", "cache")? {
            "cache" => RMatrixPolicy::Cache,
            "bypass" => RMatrixPolicy::Bypass,
            "victim" => RMatrixPolicy::BypassVictim,
            other => return Err(format!("unknown rmatrix policy {other:?}")),
        };
        Ok(PlanKnobs {
            rp,
            cp,
            r_policy,
            barriers: field_bool(doc, "barriers", false)?,
        })
    }

    /// The plan for a graph `num_cols` wide.
    pub(crate) fn plan(&self, num_cols: usize) -> ExecutionPlan {
        let mut plan = ExecutionPlan::base_for_cols(num_cols);
        plan.tiling = TilingConfig::new(self.rp, self.cp.unwrap_or(num_cols.max(1)))
            .expect("panel sizes are validated at parse");
        plan.r_policy = self.r_policy;
        if self.barriers {
            plan.barriers = BarrierPolicy::per_column_panel();
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// What every request names: the graph, the dense row size and the
/// machine. It is the whole of an `advise` request.
#[derive(Debug, Clone, Copy)]
pub struct Target {
    pub(crate) benchmark: Benchmark,
    pub(crate) scale: Scale,
    pub(crate) k: usize,
    pub(crate) pes: usize,
}

/// Parses the fields every request names (`benchmark`, `scale`, `k`,
/// `pes`) — all an `advise` request reads.
///
/// # Errors
///
/// Fails on the first invalid field.
pub fn parse_target(doc: &JsonValue) -> Result<Target, String> {
    Ok(Target {
        benchmark: parse_benchmark(doc)?,
        scale: parse_scale(doc)?,
        k: parse_k(doc)?,
        pes: parse_pes(doc)?,
    })
}

impl Target {
    /// The graph the request names, as the daemon's digest table keys it.
    pub(crate) fn graph(&self) -> (Benchmark, Scale) {
        (self.benchmark, self.scale)
    }

    fn config(&self) -> SystemConfig {
        SystemConfig::scaled(self.pes)
    }

    /// The prepared workload, shared with the request's other jobs.
    fn workload(&self, workloads: &mut Workloads) -> Arc<Workload> {
        let (benchmark, scale, k) = (self.benchmark, self.scale, self.k);
        Arc::clone(
            workloads
                .entry((benchmark, scale, k))
                .or_insert_with(|| Arc::new(Workload::prepare(benchmark, scale, k))),
        )
    }
}

/// Workloads prepared for one request, by graph and `k`: the missed
/// slots of a batch sweep share one preparation (and so one memoized
/// gold result) per (benchmark, scale, k).
pub type Workloads = HashMap<(Benchmark, Scale, usize), Arc<Workload>>;

/// One run: the standalone `run` request, every `batch` slot and the job
/// under a `trace`.
#[derive(Debug, Clone, Copy)]
pub struct RunRequest {
    pub(crate) target: Target,
    kernel: Primitive,
    plan: PlanKnobs,
    deadline: Option<Cycle>,
}

impl RunRequest {
    /// Parses a `run`-shaped document; `default_deadline` applies when it
    /// has no `deadline_cycles`.
    ///
    /// # Errors
    ///
    /// Fails on the first invalid field.
    pub(crate) fn parse(doc: &JsonValue, default_deadline: Option<Cycle>) -> Result<Self, String> {
        Ok(RunRequest {
            target: parse_target(doc)?,
            kernel: parse_kernel(doc)?,
            deadline: parse_deadline(doc, default_deadline)?,
            plan: PlanKnobs::parse(doc)?,
        })
    }

    /// The run's cache key (see [`Job::cache_key`]) from its graph's
    /// digest, without preparing anything.
    pub(crate) fn cache_key(&self, digest: &MatrixDigest) -> String {
        digest.run_key(
            self.target.k,
            &self.target.config(),
            self.kernel,
            &self.plan.plan(digest.num_cols()),
            self.deadline,
        )
    }

    /// The job, with its workload prepared (or shared from `workloads`).
    pub(crate) fn prepare(&self, workloads: &mut Workloads) -> Job {
        let workload = self.target.workload(workloads);
        let plan = self.plan.plan(workload.a.num_cols());
        Job::new(
            &workload,
            &Arc::new(self.target.config()),
            self.kernel,
            plan,
        )
        .with_deadline_cycles(self.deadline)
    }
}

/// One plan search: every candidate of the quick (or, with `full`, the
/// Table 3) space, SpMM only.
#[derive(Debug, Clone, Copy)]
pub struct SearchRequest {
    target: Target,
    full: bool,
    deadline: Option<Cycle>,
}

impl SearchRequest {
    fn parse(doc: &JsonValue, default_deadline: Option<Cycle>) -> Result<Self, String> {
        let target = parse_target(doc)?;
        if parse_kernel(doc)? != Primitive::Spmm {
            return Err("\"kernel\": search runs SpMM candidates only".into());
        }
        Ok(SearchRequest {
            target,
            full: field_bool(doc, "full", false)?,
            deadline: parse_deadline(doc, default_deadline)?,
        })
    }

    fn plans(&self, num_cols: usize) -> Vec<ExecutionPlan> {
        let space = if self.full {
            PlanSearchSpace::table3(self.target.k)
        } else {
            PlanSearchSpace::quick(self.target.k)
        };
        space.enumerate_for_cols(num_cols)
    }
}

/// A parsed `run`, `trace` or `search` request.
#[derive(Debug, Clone, Copy)]
pub enum Request {
    /// One simulation.
    Run(RunRequest),
    /// One simulation with event tracing, plus a telemetry lane sampled
    /// every `window` cycles (`0`: none).
    Trace {
        /// The traced job.
        run: RunRequest,
        /// Telemetry window in cycles.
        window: u64,
    },
    /// A plan search.
    Search(SearchRequest),
}

/// Parses one `run`, `trace` or `search` document, named by its `cmd`.
/// `default_deadline` applies to a document without `deadline_cycles`:
/// the daemon passes its configured ceiling, the CLI none.
///
/// # Errors
///
/// Fails on an unknown `cmd` or the first invalid field — always before
/// any work starts.
pub fn parse(doc: &JsonValue, default_deadline: Option<Cycle>) -> Result<Request, String> {
    match field_str(doc, "cmd", "")? {
        "run" => RunRequest::parse(doc, default_deadline).map(Request::Run),
        "trace" => Ok(Request::Trace {
            run: RunRequest::parse(doc, default_deadline)?,
            window: field_u64(doc, "window")?.unwrap_or(DEFAULT_TRACE_WINDOW),
        }),
        "search" => SearchRequest::parse(doc, default_deadline).map(Request::Search),
        other => Err(format!("unknown cmd {other:?}")),
    }
}

/// The telemetry window a trace `window` asks for (`0`: none).
fn telemetry_window(window: u64) -> Option<Cycle> {
    (window > 0).then_some(window)
}

impl Request {
    /// The wire command name.
    pub fn cmd(&self) -> &'static str {
        match self {
            Request::Run(_) => "run",
            Request::Trace { .. } => "trace",
            Request::Search(_) => "search",
        }
    }

    pub(crate) fn target(&self) -> &Target {
        match self {
            Request::Run(run) | Request::Trace { run, .. } => &run.target,
            Request::Search(search) => &search.target,
        }
    }

    /// The request's cache key from its graph's digest, without
    /// preparing anything. Run keys are pure hex; trace keys are prefixed
    /// `t` and search keys `s` (see [`Job::trace_cache_key`]).
    pub(crate) fn cache_key(&self, digest: &MatrixDigest) -> String {
        match self {
            Request::Run(run) => run.cache_key(digest),
            Request::Trace { run, window } => {
                trace_key(&run.cache_key(digest), telemetry_window(*window))
            }
            Request::Search(search) => digest.search_key(
                search.target.k,
                &search.target.config(),
                &search.plans(digest.num_cols()),
                search.deadline,
            ),
        }
    }

    /// Builds the request's jobs, preparing the workload (generating the
    /// graph and its operands) or sharing it from `workloads`.
    pub fn prepare(&self, workloads: &mut Workloads) -> Prepared {
        match self {
            Request::Run(run) => Prepared::Run(Box::new(run.prepare(workloads))),
            Request::Trace { run, window } => Prepared::Trace {
                job: Box::new(
                    run.prepare(workloads)
                        .with_telemetry(telemetry_window(*window))
                        .with_trace(true),
                ),
                window: *window,
            },
            Request::Search(search) => {
                let workload = search.target.workload(workloads);
                let config = Arc::new(search.target.config());
                Prepared::Search(
                    search
                        .plans(workload.a.num_cols())
                        .into_iter()
                        .map(|plan| {
                            Job::new(&workload, &config, Primitive::Spmm, plan)
                                .with_deadline_cycles(search.deadline)
                        })
                        .collect(),
                )
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Execution and result rendering
// ---------------------------------------------------------------------------

/// A request's jobs, ready to run.
#[derive(Debug)]
pub enum Prepared {
    /// One job; its result names the job's workload, so a job on any
    /// matrix (`spade-cli mm`) renders like a `run`.
    Run(Box<Job>),
    /// One traced job and its telemetry window.
    Trace {
        /// The traced job.
        job: Box<Job>,
        /// Telemetry window in cycles (`0`: none).
        window: u64,
    },
    /// The candidate jobs of a search, in plan order.
    Search(Vec<Job>),
}

/// A finished request.
#[derive(Debug)]
pub struct Executed {
    /// The result document; for a trace, without its `trace` member.
    pub doc: JsonValue,
    /// A trace's Chrome-trace JSON (see [`trace_document`]).
    pub trace: Option<String>,
    /// Simulated cycles of every job that finished.
    pub cycles: Vec<u64>,
}

impl Executed {
    /// The result bytes: what the daemon sends and caches, and what the
    /// CLI prints with `--format json`. A trace's Chrome JSON is spliced
    /// in verbatim, so the wire bytes equal the file `spade-cli trace`
    /// writes.
    pub fn render(&self) -> String {
        let mut s = self.doc.render();
        if let Some(trace) = &self.trace {
            s.pop();
            s.push_str(",\"trace\":");
            s.push_str(trace);
            s.push('}');
        }
        s
    }
}

/// Why a request failed in execution: its protocol error kind
/// (`deadline_exceeded`, `sim_failed`, or the daemon's `bad_request` for
/// a query it cannot answer) and the message.
#[derive(Debug)]
pub struct Failed {
    /// The protocol error kind.
    pub kind: &'static str,
    /// What went wrong.
    pub message: String,
}

impl Failed {
    /// Watchdog cycle-ceiling trips are deadline errors; everything else
    /// (invalid config, deadlock, gold divergence, contained panic) is
    /// `sim_failed`.
    fn from_message(message: String) -> Self {
        let kind = if message.contains("cycle budget exceeded") {
            "deadline_exceeded"
        } else {
            "sim_failed"
        };
        Failed { kind, message }
    }
}

impl std::fmt::Display for Failed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl Prepared {
    /// Samples a telemetry series every `window` cycles on a run's or a
    /// search's jobs; the result carries each series under `telemetry`.
    /// An observation of the CLI only — no wire request reads it, and a
    /// trace's window is its own request field.
    #[must_use]
    pub fn with_telemetry(self, window: Option<Cycle>) -> Self {
        match self {
            Prepared::Run(job) => Prepared::Run(Box::new(job.with_telemetry(window))),
            Prepared::Search(jobs) => Prepared::Search(
                jobs.into_iter()
                    .map(|job| job.with_telemetry(window))
                    .collect(),
            ),
            trace @ Prepared::Trace { .. } => trace,
        }
    }

    /// Runs the jobs on `runner` — inside its panic guard, so a crashing
    /// simulation fails this request only — and renders the result.
    ///
    /// # Errors
    ///
    /// A run or trace fails with its job; a search fails only when every
    /// candidate does (otherwise the result counts the `failures`).
    pub fn execute(&self, runner: &ParallelRunner) -> Result<Executed, Failed> {
        match self {
            Prepared::Run(job) => {
                let output = run_one(runner, job)?;
                let mut doc = run_fields(job, &output.report);
                if let Some(series) = &output.telemetry {
                    doc.push(("telemetry", series.to_json()));
                }
                Ok(Executed {
                    doc: JsonValue::object(doc),
                    trace: None,
                    cycles: vec![output.report.cycles],
                })
            }
            Prepared::Trace { job, window } => {
                let output = run_one(runner, job)?;
                let (chrome, events) =
                    trace_document(&output, job.config.num_pes).map_err(Failed::from_message)?;
                let w = &job.workload;
                let doc = JsonValue::object([
                    ("benchmark", w.name.as_str().into()),
                    ("kernel", job.primitive.to_string().into()),
                    ("k", w.k.into()),
                    ("pes", job.config.num_pes.into()),
                    ("window", (*window).into()),
                    ("events", events.into()),
                    ("plan", plan_json(&job.plan)),
                    ("report", canonical_report(&output.report).to_json()),
                ]);
                Ok(Executed {
                    doc,
                    trace: Some(chrome),
                    cycles: vec![output.report.cycles],
                })
            }
            Prepared::Search(jobs) => execute_search(runner, jobs),
        }
    }
}

fn run_one(runner: &ParallelRunner, job: &Job) -> Result<JobOutput, Failed> {
    runner
        .run_outputs(std::slice::from_ref(job))
        .pop()
        .expect("one job in, one result out")
        .map_err(|e| Failed::from_message(e.to_string()))
}

/// The `run` result's fields, in wire order.
fn run_fields(job: &Job, report: &RunReport) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("benchmark", job.workload.name.as_str().into()),
        ("kernel", job.primitive.to_string().into()),
        ("k", job.workload.k.into()),
        ("pes", job.config.num_pes.into()),
        ("plan", plan_json(&job.plan)),
        ("report", canonical_report(report).to_json()),
    ]
}

/// A search result: the candidates that finished, fewest cycles first
/// (plan order breaks ties), and how many failed.
fn execute_search(runner: &ParallelRunner, jobs: &[Job]) -> Result<Executed, Failed> {
    let mut finished: Vec<(&Job, JobOutput)> = Vec::with_capacity(jobs.len());
    let mut failures = 0usize;
    let mut last_error = String::new();
    for (job, outcome) in jobs.iter().zip(runner.run_outputs(jobs)) {
        match outcome {
            Ok(output) => finished.push((job, output)),
            Err(e) => {
                failures += 1;
                last_error = e.to_string();
            }
        }
    }
    let Some(&(first, _)) = finished.first() else {
        return Err(Failed::from_message(format!(
            "all {failures} candidate plans failed (last: {last_error})"
        )));
    };
    finished.sort_by_key(|(_, o)| o.report.cycles);
    let candidates = finished
        .iter()
        .map(|(job, o)| {
            let mut fields = vec![
                ("plan", plan_json(&job.plan)),
                ("cycles", o.report.cycles.into()),
                ("dram_accesses", o.report.dram_accesses.into()),
                ("requests_per_cycle", o.report.requests_per_cycle.into()),
            ];
            if let Some(series) = &o.telemetry {
                fields.push(("telemetry", series.to_json()));
            }
            JsonValue::object(fields)
        })
        .collect();
    Ok(Executed {
        doc: JsonValue::object([
            ("benchmark", first.workload.name.as_str().into()),
            ("k", first.workload.k.into()),
            ("pes", first.config.num_pes.into()),
            ("failures", failures.into()),
            ("candidates", JsonValue::Array(candidates)),
        ]),
        trace: None,
        cycles: finished.iter().map(|(_, o)| o.report.cycles).collect(),
    })
}

/// An execution plan as a JSON object, as every result renders it.
pub fn plan_json(p: &ExecutionPlan) -> JsonValue {
    JsonValue::object([
        ("row_panel_size", p.tiling.row_panel_size.into()),
        ("col_panel_size", p.tiling.col_panel_size.into()),
        ("r_policy", format!("{:?}", p.r_policy).into()),
        ("c_policy", format!("{:?}", p.c_policy).into()),
        ("barriers", p.barriers.is_enabled().into()),
    ])
}

/// A report with its host wall-clock time zeroed: it describes the host,
/// not the simulated machine (it is already excluded from [`RunReport`]
/// equality). This is what makes a cache hit, and a local run,
/// byte-identical to a fresh simulation of the same request.
pub fn canonical_report(report: &RunReport) -> RunReport {
    let mut canon = report.clone();
    canon.host_wall_ns = 0.0;
    canon
}

/// Builds the Chrome-trace JSON for a traced job output — the telemetry
/// series (when captured) merged in as its own lane above the PE lanes,
/// events sorted by time — and returns it with the event count.
///
/// # Errors
///
/// Fails when the job did not actually capture a trace.
pub fn trace_document(output: &JobOutput, num_pes: usize) -> Result<(String, usize), String> {
    let mut trace = output
        .trace
        .clone()
        .ok_or_else(|| "tracing produced no event log".to_string())?;
    if let Some(series) = &output.telemetry {
        let lane = num_pes as u64 + 1;
        trace.set_lane(lane, "telemetry");
        trace.add_telemetry(series, lane);
        trace.sort_by_time();
    }
    let events = trace.len();
    Ok((trace.to_chrome_json(), events))
}

// ---------------------------------------------------------------------------
// Advise
// ---------------------------------------------------------------------------

/// One plan choice for a [`Target`].
#[derive(Debug, Clone)]
pub struct Advised {
    /// The chosen plan.
    pub plan: ExecutionPlan,
    /// Which tier chose it: `model`, `heuristic` or `exhaustive`.
    pub source: &'static str,
    /// The model's cycle estimate (model tier only).
    pub predicted_cycles: Option<f64>,
    /// The simulated cycles of the plan (exhaustive tier only).
    pub measured_cycles: Option<u64>,
    /// Host time the choice took, graph generation excluded.
    pub latency_us: u64,
    features: MatrixFeatures,
}

/// Picks a plan without simulating: a confident `ranker` ranks the
/// candidates, the structural heuristic answers otherwise. The daemon
/// answers `advise` with this on the connection thread.
///
/// # Errors
///
/// Fails only on a degenerate graph shape.
pub fn advise(target: &Target, ranker: Option<&dyn PlanRanker>) -> Result<Advised, String> {
    let a = target.benchmark.generate(target.scale);
    // The timer starts after generation: the latency is plan selection,
    // the thing the cost model accelerates.
    let started = Instant::now();
    let advice =
        advise_tiered(&a, target.k, &target.config(), ranker).map_err(|e| e.to_string())?;
    let latency_us = started.elapsed().as_micros() as u64;
    Ok(Advised {
        plan: advice.plan,
        source: advice.source.as_str(),
        predicted_cycles: advice.predicted_cycles,
        measured_cycles: None,
        latency_us,
        features: MatrixFeatures::compute(&a),
    })
}

impl Advised {
    /// Simulates the candidates — pruned to the ranker's `top_n` plus
    /// Base, or all of them without a ranker — and picks the fastest:
    /// `spade-cli advise --exact`. The daemon never runs this, since it
    /// answers `advise` on the connection thread.
    pub fn exact(target: &Target, ranker: Option<&dyn PlanRanker>, top_n: usize) -> Self {
        let w = Workload::prepare(target.benchmark, target.scale, target.k);
        let started = Instant::now();
        let (plan, report) =
            crate::runner::find_opt(&target.config(), &w, Primitive::Spmm, true, ranker, top_n);
        Advised {
            plan,
            source: "exhaustive",
            predicted_cycles: None,
            measured_cycles: Some(report.cycles),
            latency_us: started.elapsed().as_micros() as u64,
            features: MatrixFeatures::compute(&w.a),
        }
    }

    /// The `advise` result document.
    pub fn to_json(&self, target: &Target) -> JsonValue {
        let mut fields = vec![
            ("benchmark", JsonValue::from(target.benchmark.short_name())),
            ("scale", format!("{:?}", target.scale).to_lowercase().into()),
            ("k", target.k.into()),
            ("pes", target.pes.into()),
            ("source", self.source.into()),
            ("plan", plan_json(&self.plan)),
            (
                "predicted_cycles",
                self.predicted_cycles
                    .map_or(JsonValue::Null, JsonValue::from),
            ),
        ];
        if let Some(cycles) = self.measured_cycles {
            fields.push(("measured_cycles", cycles.into()));
        }
        fields.push(("latency_us", self.latency_us.into()));
        fields.push((
            "features",
            JsonValue::object(
                self.features
                    .to_pairs()
                    .into_iter()
                    .map(|(name, v)| (name, v.into())),
            ),
        ));
        JsonValue::object(fields)
    }
}
